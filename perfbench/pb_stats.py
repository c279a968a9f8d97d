"""Order statistics for latency samples (no third-party imports).

Quantiles are Harrell-Davis estimates: a Beta-weighted mean of all
order statistics rather than one or two of them.  Job latencies on the
grids come in clusters (trace builds, training, store-served schemes),
and a single order statistic at a cluster edge jumps between clusters
from run to run; the weighted mean moves smoothly.
"""

from __future__ import annotations

import math

__all__ = ["quantile", "summarize", "tail_percentile"]

#: Integration points per order statistic for the Beta weights.
_STEPS = 16


def _beta_pdf(x: float, a: float, b: float, log_norm: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)


def quantile(values: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the ``pct`` percentile of ``values``."""
    if not values:
        raise ValueError("no completed operations to time")
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    p = pct / 100.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * _STEPS)
    total = weight_sum = 0.0
    for i, value in enumerate(ordered):
        # Midpoint rule over [i/n, (i+1)/n].
        w = sum(
            _beta_pdf((i * _STEPS + k + 0.5) * h, a, b, log_norm) for k in range(_STEPS)
        )
        total += w * value
        weight_sum += w
    return total / weight_sum


def tail_percentile(n: int, beyond: int = 10) -> float:
    """The highest percentile with ``beyond`` of ``n`` samples above it
    (the median when there are too few samples)."""
    return max(50.0, 100.0 * (1.0 - beyond / n))


def summarize(values: list[float]) -> dict:
    """Median, tail percentile and its value, and the sample count."""
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": quantile(values, 50.0),
        "pct": pct,
        "tail": quantile(values, pct),
    }

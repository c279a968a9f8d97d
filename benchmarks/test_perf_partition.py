"""Partitioner micro-benchmark: vectorized allocator vs heapq reference.

Same contract as ``test_perf_profiling.py`` one layer up the stack: the
vectorized waterfilling allocator must beat (and stay >= 5x faster than)
the retained chunk-at-a-time oracle on a 64-consumer x 4096-chunk
instance, while returning bit-identical allocations.  One layer down,
the convex-hull scan must stay >= 3x faster than the plain monotone
chain on grid-sized (401- and 1297-point) profile and cost curves,
whose long flat and rising stretches are most of what the schemes
hull.  Timings are also
written as JSON (``benchmarks/perf_partition_timings.json``, gitignored)
so CI can upload them as an artifact; wall-clock numbers stay out of
``benchmarks/results/``.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.curves.miss_curve import _lower_convex_hull, _lower_convex_hull_fast
from repro.curves.partition import (
    partition_cost_curves,
    partition_cost_curves_reference,
)
from repro.obs.timings import record_timings

N_CONSUMERS = 64
N_CHUNKS = 4096

TIMINGS_PATH = Path(__file__).parent / "perf_partition_timings.json"


def _instance(n_consumers=N_CONSUMERS, n_chunks=N_CHUNKS, seed=11):
    """Hull-shaped cost curves: convex decay plus a few concave cliffs.

    This is what the Jigsaw call site feeds the partitioner — latency
    curves built on convex-hulled miss curves, with occasional concave
    corners from the bank-distance steps.
    """
    rng = np.random.default_rng(seed)
    curves = []
    for __ in range(n_consumers):
        gains = np.sort(rng.exponential(1.0, size=n_chunks)) + 1e-6
        vals = np.concatenate([[0.0], np.cumsum(gains)])[::-1].copy()
        for pos in rng.integers(1, n_chunks, size=3):
            vals[:pos] += rng.uniform(50, 200)
        curves.append(vals)
    return curves


def _hull_instance(n_points, seed=7, n_curves=40):
    """Grid-sized hull inputs shaped like the scheme call sites' curves.

    Half are miss-curve profiles: a convex fall over the first ~8% of
    sizes, then exactly flat.  Half are U-shaped partition cost curves:
    ~5% of steps fall, ~45% rise with slowly shrinking increments, and
    the rest are exactly flat.  The increments jitter a little, so some
    rising points stay on the hull.  The flat and rising stretches are
    where the hull scan slides its top vertex along, one pop per point.
    """
    rng = np.random.default_rng(seed)
    curves = []
    for k in range(n_curves):
        n_fall = n_points // (13 if k % 2 == 0 else 20)
        fall = np.sort(rng.exponential(100.0, size=n_fall))
        values = np.zeros(n_points)
        values[1 : n_fall + 1] = -np.cumsum(fall[::-1])
        values[n_fall + 1 :] = values[n_fall]
        if k % 2:
            n_rise = n_points * 9 // 20
            steps = np.sort(rng.uniform(1.0, 2.0, size=n_rise))[::-1]
            steps += rng.normal(0.0, 0.01, size=n_rise)
            rise = np.cumsum(steps)
            values[n_fall + 1 : n_fall + 1 + n_rise] += rise
            values[n_fall + 1 + n_rise :] += rise[-1]
        curves.append(values - values.min())
    return curves


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for __ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _record_timings(name, t_vec, t_ref, gate="speedup >= 5.0x"):
    """Append one benchmark's timings to the CI artifact JSON."""
    record_timings(
        TIMINGS_PATH,
        name,
        {
            "vectorized_s": t_vec,
            "reference_s": t_ref,
            "speedup": (t_ref / t_vec, "x"),
        },
        gate=gate,
    )


class TestPerfPartition:
    def test_perf_smoke_16x512(self):
        """CI gate: vectorized must beat the reference on a small grid."""
        curves = _instance(n_consumers=16, n_chunks=512, seed=3)
        total = 16 * 512 // 2
        t_vec, got = _best_of(lambda: partition_cost_curves(curves, total))
        t_ref, want = _best_of(
            lambda: partition_cost_curves_reference(curves, total)
        )
        assert got == want
        _record_timings("smoke_16x512", t_vec, t_ref)
        print(
            f"\n[perf] partition 16x512: vectorized {t_vec*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {t_ref / t_vec:.1f}x"
        )
        assert t_vec < t_ref, (
            f"vectorized allocator slower than reference: {t_vec:.4f}s "
            f">= {t_ref:.4f}s"
        )

    def test_perf_smoke_64x4096_speedup(self):
        """Headline instance: 64 consumers x 4096 chunks, >= 5x required.

        Full contention (every chunk is in play) so the merge ranks all
        ~260k marginal-gain segments; measured speedup is ~10x on a
        dedicated core, asserted at the 5x acceptance floor so slow CI
        boxes don't flake.
        """
        curves = _instance()
        total = N_CONSUMERS * N_CHUNKS
        t_vec, got = _best_of(lambda: partition_cost_curves(curves, total))
        t_ref, want = _best_of(
            lambda: partition_cost_curves_reference(curves, total), repeats=2
        )
        assert got == want  # bit-identical sizes and total cost
        speedup = t_ref / t_vec
        _record_timings("smoke_64x4096", t_vec, t_ref)
        print(
            f"\n[perf] partition 64x4096: vectorized {t_vec*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0, f"speedup regressed to {speedup:.1f}x"

    @pytest.mark.parametrize("n_points", [401, 1297])
    def test_perf_smoke_hull_plateaus(self, n_points):
        """Hull scan vs the plain monotone chain, >= 3x required.

        Measured 5.7-9.7x (2-vCPU host); the kernel without vectorized
        slides ran 1.6-2.4x on the same curves.
        """
        curves = _hull_instance(n_points)
        t_vec, got = _best_of(
            lambda: [_lower_convex_hull_fast(c) for c in curves], repeats=5
        )
        t_ref, want = _best_of(
            lambda: [_lower_convex_hull(c) for c in curves], repeats=5
        )
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        speedup = t_ref / t_vec
        _record_timings(
            f"hull_{n_points}", t_vec, t_ref, gate="speedup >= 3.0x"
        )
        print(
            f"\n[perf] hull {len(curves)}x{n_points}: fast {t_vec*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 3.0, f"hull speedup regressed to {speedup:.1f}x"

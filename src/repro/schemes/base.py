"""Scheme interface and time/energy accounting.

A scheme is driven interval by interval (the paper reconfigures every
25 ms; see ``SystemConfig.reconfig_instructions`` for the scaled-down
stand-in).  Each step receives:

- ``decide_curves`` — per-VC miss curves monitored over the *previous*
  interval (what real utility monitors provide), and
- ``actual_curves`` — the current interval's curves, used for accounting.

The default accounting follows Jigsaw's additive latency model (Sec 2.4):
data stalls = accesses × (bank + network RTT) + misses × miss penalty,
and per-event data-movement energy from :class:`repro.nuca.EnergyModel`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.curves.miss_curve import MissCurve, interp_rows, prime_hull_caches
from repro.nuca.config import SystemConfig
from repro.nuca.energy import EnergyBreakdown
from repro.nuca.geometry import Placement

__all__ = ["VCSpec", "VCAllocation", "IntervalStats", "SchemeResult", "Scheme"]


@dataclass(frozen=True)
class VCSpec:
    """Static description of one virtual cache.

    Attributes:
        vc_id: unique id.
        name: human-readable name (pool name, or "process").
        owner_core: the core whose accesses dominate this VC.
        bypassable: True if the VC may be bypassed (single-thread rule,
            Sec 3.2).
    """

    vc_id: int
    name: str
    owner_core: int = 0
    bypassable: bool = True


@dataclass
class VCAllocation:
    """One interval's allocation decision for one VC.

    Attributes:
        size_bytes: LLC capacity granted.
        avg_hops: average one-way hops from the owner core to the VC's
            banks (from the placement).
        bypass: True if the VC is bypassed this interval (implies
            ``size_bytes == 0``).
        placement: per-bank capacity (None for schemes that spread data,
            e.g. S-NUCA).
    """

    size_bytes: float
    avg_hops: float
    bypass: bool = False
    placement: Placement | None = None


@dataclass
class IntervalStats:
    """Measured outcome of one interval.

    ``stall_cycles`` are data-stall cycles attributable to LLC + memory;
    cycles = instructions × base CPI + stalls (single-core programs).
    """

    instructions: float
    hits: float = 0.0
    misses: float = 0.0
    bypasses: float = 0.0
    stall_cycles: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    vc_sizes: dict[int, float] = field(default_factory=dict)
    vc_hops: dict[int, float] = field(default_factory=dict)
    vc_bypass: dict[int, bool] = field(default_factory=dict)
    vc_accesses: dict[int, float] = field(default_factory=dict)
    vc_misses: dict[int, float] = field(default_factory=dict)
    vc_stalls: dict[int, float] = field(default_factory=dict)

    @property
    def accesses(self) -> float:
        """LLC-level accesses (hits + misses + bypasses)."""
        return self.hits + self.misses + self.bypasses


@dataclass
class SchemeResult:
    """Accumulated simulation result for one workload under one scheme."""

    name: str
    base_cpi: float
    instructions: float = 0.0
    hits: float = 0.0
    misses: float = 0.0
    bypasses: float = 0.0
    stall_cycles: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    history: list[IntervalStats] = field(default_factory=list)

    def add(self, stats: IntervalStats) -> None:
        """Fold one interval into the totals."""
        self.instructions += stats.instructions
        self.hits += stats.hits
        self.misses += stats.misses
        self.bypasses += stats.bypasses
        self.stall_cycles += stats.stall_cycles
        self.energy = self.energy + stats.energy
        self.history.append(stats)

    @property
    def cycles(self) -> float:
        """Execution time in cycles."""
        return self.instructions * self.base_cpi + self.stall_cycles

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / max(self.cycles, 1e-9)

    @property
    def data_stall_cpi(self) -> float:
        """Cycles per instruction stalled on data (Fig 8b's unit)."""
        return self.stall_cycles / max(self.instructions, 1e-9)

    def apki_breakdown(self) -> dict[str, float]:
        """LLC accesses per kilo-instruction, split as in Fig 10 (right)."""
        k = 1000.0 / max(self.instructions, 1e-9)
        return {
            "hits": self.hits * k,
            "misses": self.misses * k,
            "bypasses": self.bypasses * k,
        }


# Row-wise linear interpolation now lives with the curve containers so
# the batched combine/clustering engines can share it; re-exported here
# for the scheme-layer call sites.
_interp_rows = interp_rows


def _batched_misses_at(
    series: list[MissCurve], sizes: np.ndarray, use_hull: bool
) -> np.ndarray:
    """``misses_at(sizes[t])`` across a curve series, one gather per run.

    Mirrors :meth:`MissCurve.misses_at` (and the ``hull_curve()`` step
    when ``use_hull``) expression-for-expression so the values are
    bit-identical to the serial path; ragged grids fall back to the
    scalar calls.
    """
    if not series:
        return np.empty(0, dtype=np.float64)
    first = series[0]
    chunk = first.chunk_bytes
    n = first.n_chunks
    if any(c.chunk_bytes != chunk or c.n_chunks != n for c in series):
        models = [c.hull_curve() if use_hull else c for c in series]
        return np.array(
            [m.misses_at(float(s)) for m, s in zip(models, sizes)],
            dtype=np.float64,
        )
    if use_hull:
        prime_hull_caches(series)
        matrix = np.stack([c.convex_hull() for c in series])
    else:
        matrix = np.stack([c.misses for c in series])
    return _interp_rows(matrix, sizes / chunk)


class Scheme(ABC):
    """Interval-driven cache management scheme."""

    #: Display name (overridden per scheme).
    name: str = "scheme"

    #: If True, misses are accounted on the convex hull of each VC's miss
    #: curve: the scheme partitions within VCs (Talus), so it actually
    #: achieves hull performance.  Jigsaw/Whirlpool set this (the paper
    #: assumes convex per-VC performance, Sec 4.2); page-grained or plain
    #: LRU schemes do not.
    hull_accounting: bool = False

    def __init__(self, config: SystemConfig, vcs: list[VCSpec]) -> None:
        self.config = config
        self.vcs = {vc.vc_id: vc for vc in vcs}

    @abstractmethod
    def decide(
        self, decide_curves: dict[int, MissCurve]
    ) -> dict[int, VCAllocation]:
        """Choose this interval's allocation from monitored curves."""

    def step(
        self,
        decide_curves: dict[int, MissCurve],
        actual_curves: dict[int, MissCurve],
        instructions: float,
    ) -> IntervalStats:
        """Decide from monitor data, then account the actual interval."""
        allocations = self.decide(decide_curves)
        return self.account(allocations, actual_curves, instructions)

    def step_batch(
        self,
        decide_series: dict[int, list[MissCurve]],
        actual_series: dict[int, list[MissCurve]],
        instructions: float,
        n_intervals: int | None = None,
    ) -> list[IntervalStats]:
        """Step a whole run of intervals: decide each, account all at once.

        ``decide_series[vc][t]`` / ``actual_series[vc][t]`` are the monitor
        and accounting curves of interval ``t``.  Decisions stay
        interval-by-interval, in order — schemes carry state between
        epochs (bypass hysteresis, Awasthi's bank counts) — but decisions
        never depend on accounting, so accounting batches over stacked
        per-VC arrays afterwards.  Equivalent to ``step`` per interval
        (the differential tests pin exact equality).
        """
        if n_intervals is None:
            n_intervals = max((len(s) for s in actual_series.values()), default=0)
        if self.hull_accounting:
            # Hull every curve of the run up front (one scan per curve);
            # every later hull_curve() call — in decide and in
            # accounting — hits the cache.
            prime_hull_caches(
                c for series in (decide_series, actual_series)
                for s in series.values() for c in s
            )
        allocations = [
            self.decide({vc: s[t] for vc, s in decide_series.items()})
            for t in range(n_intervals)
        ]
        return self.account_batch(allocations, actual_series, instructions)

    def account_batch(
        self,
        allocations: list[dict[int, VCAllocation]],
        actual_series: dict[int, list[MissCurve]],
        instructions: float,
    ) -> list[IntervalStats]:
        """Account every interval of a run, vectorized across intervals.

        Subclasses that override :meth:`account` without a matching batch
        implementation automatically fall back to the serial loop, so the
        batch engine never silently changes their accounting.
        """
        if type(self).account is not Scheme.account:
            return [
                self.account(
                    allocations[t],
                    {vc: s[t] for vc, s in actual_series.items()},
                    instructions,
                )
                for t in range(len(allocations))
            ]
        cfg = self.config
        n_intervals = len(allocations)
        stats_list = [
            IntervalStats(instructions=instructions) for __ in range(n_intervals)
        ]
        for vc_id, series in actual_series.items():
            spec = self.vcs[vc_id]
            mem_hops = cfg.geometry.mem_hops(spec.owner_core)
            penalty = cfg.latency.mem_latency + 2 * cfg.latency.hop_latency * mem_hops
            allocs = [
                alloc_t.get(vc_id)
                or VCAllocation(size_bytes=0.0, avg_hops=0.0, bypass=False)
                for alloc_t in allocations
            ]
            accesses = np.array([c.accesses for c in series], dtype=np.float64)
            hops = np.array([a.avg_hops for a in allocs], dtype=np.float64)
            sizes = np.array([a.size_bytes for a in allocs], dtype=np.float64)
            raw_misses = _batched_misses_at(series, sizes, self.hull_accounting)
            misses = np.minimum(raw_misses, accesses)
            hits = accesses - misses
            # Same expressions, elementwise, as the serial account().
            access_lat = (
                cfg.latency.bank_latency + 2 * cfg.latency.hop_latency * hops
            )
            stalls_kept = accesses * access_lat + misses * penalty
            stalls_bypassed = accesses * penalty
            e = cfg.energy
            llc_network = 2.0 * hops * e.hop_nj * accesses
            llc_bank = e.bank_nj * accesses
            mem_network_scale = 2.0 * mem_hops * e.hop_nj
            for t, stats in enumerate(stats_list):
                alloc = allocs[t]
                acc = accesses[t]
                stats.vc_sizes[vc_id] = alloc.size_bytes
                stats.vc_hops[vc_id] = alloc.avg_hops
                stats.vc_bypass[vc_id] = alloc.bypass
                stats.vc_accesses[vc_id] = acc
                if alloc.bypass:
                    stats.bypasses += acc
                    stats.vc_misses[vc_id] = acc
                    stalls = stalls_bypassed[t]
                    stats.energy = stats.energy + EnergyBreakdown(
                        network=mem_network_scale * acc, memory=e.mem_nj * acc
                    )
                else:
                    stats.hits += hits[t]
                    stats.misses += misses[t]
                    stats.vc_misses[vc_id] = misses[t]
                    stalls = stalls_kept[t]
                    stats.energy = (
                        stats.energy
                        + EnergyBreakdown(
                            network=llc_network[t], bank=llc_bank[t]
                        )
                        + EnergyBreakdown(
                            network=mem_network_scale * misses[t],
                            memory=e.mem_nj * misses[t],
                        )
                    )
                stats.vc_stalls[vc_id] = stalls
                stats.stall_cycles += stalls
        return stats_list

    # ------------------------------------------------------------------
    # Default accounting (shared-baseline schemes)
    # ------------------------------------------------------------------
    def account(
        self,
        allocations: dict[int, VCAllocation],
        actual_curves: dict[int, MissCurve],
        instructions: float,
    ) -> IntervalStats:
        """Jigsaw-model accounting of one interval."""
        cfg = self.config
        stats = IntervalStats(instructions=instructions)
        for vc_id, curve in actual_curves.items():
            alloc = allocations.get(vc_id)
            if alloc is None:
                alloc = VCAllocation(size_bytes=0.0, avg_hops=0.0, bypass=False)
            spec = self.vcs[vc_id]
            mem_hops = cfg.geometry.mem_hops(spec.owner_core)
            accesses = curve.accesses
            stats.vc_sizes[vc_id] = alloc.size_bytes
            stats.vc_hops[vc_id] = alloc.avg_hops
            stats.vc_bypass[vc_id] = alloc.bypass
            stats.vc_accesses[vc_id] = accesses
            penalty = cfg.latency.mem_latency + 2 * cfg.latency.hop_latency * mem_hops
            if alloc.bypass:
                stats.bypasses += accesses
                stats.vc_misses[vc_id] = accesses
                stalls = accesses * penalty
                stats.energy = stats.energy + cfg.energy.memory_access(
                    mem_hops, accesses
                )
            else:
                model = curve.hull_curve() if self.hull_accounting else curve
                misses = min(model.misses_at(alloc.size_bytes), accesses)
                hits = accesses - misses
                stats.hits += hits
                stats.misses += misses
                stats.vc_misses[vc_id] = misses
                access_lat = (
                    cfg.latency.bank_latency
                    + 2 * cfg.latency.hop_latency * alloc.avg_hops
                )
                stalls = accesses * access_lat + misses * penalty
                stats.energy = (
                    stats.energy
                    + cfg.energy.llc_access(alloc.avg_hops, accesses)
                    + cfg.energy.memory_access(mem_hops, misses)
                )
            stats.vc_stalls[vc_id] = stalls
            stats.stall_cycles += stalls
        return stats

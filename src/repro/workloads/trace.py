"""Trace containers and the instrumented-heap trace builder.

A :class:`Trace` is the LLC access stream of a program: line-granular
addresses plus a *region id* per access.  Regions are the unit of static
classification — one region per (data structure, allocation callpoint);
manual classification (Table 2) and WhirlTool's clustering both map
regions to pools.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mem.allocator import Allocation, HeapAllocator

__all__ = ["Trace", "TraceBuilder", "Workload", "interleave"]


def _validated_addresses(arr, dtype, what: str) -> np.ndarray:
    """Cast an address/id array, rejecting malformed input.

    Ingestion makes malformed traces a real path: a float array here is
    a parsing bug upstream (silently truncating it would alias distinct
    addresses), and a negative value is a corrupt capture — both raise
    instead of casting.  Empty arrays pass regardless of dtype (numpy
    defaults ``[]`` to float64).
    """
    arr = np.asarray(arr)
    if len(arr):
        if arr.dtype.kind not in "iu":
            raise ValueError(
                f"{what} must be an integer array, got dtype {arr.dtype}"
            )
        if int(arr.min()) < 0:
            raise ValueError(f"{what} must be non-negative")
        if int(arr.max()) > np.iinfo(dtype).max:
            # E.g. kernel-space uint64 addresses >= 2^63 would wrap
            # negative in the cast below.
            raise ValueError(
                f"{what} exceed {np.dtype(dtype).name} range "
                f"(max {int(arr.max())})"
            )
    return np.ascontiguousarray(arr, dtype=dtype)


@dataclass
class Trace:
    """An LLC access trace.

    Attributes:
        lines: int64 line addresses (byte address >> log2(line size)).
        regions: int32 region id per access.
        instructions: total instructions the trace represents.
        line_bytes: cache line size.
        region_names: human-readable region names.
    """

    lines: np.ndarray
    regions: np.ndarray
    instructions: float
    line_bytes: int = 64
    region_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.lines = _validated_addresses(self.lines, np.int64, "lines")
        self.regions = _validated_addresses(self.regions, np.int32, "regions")
        if len(self.lines) != len(self.regions):
            raise ValueError("lines and regions must have equal length")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")

    def __getstate__(self) -> dict:
        # The profile-cache fingerprint keeps a blake2b state on the trace
        # (repro.sim.profiling._fingerprint); hash objects cannot be
        # pickled, so pickles and deep copies drop it and re-hash lazily.
        state = self.__dict__.copy()
        state.pop("_fingerprint_state", None)
        return state

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def apki(self) -> float:
        """LLC accesses per kilo-instruction."""
        return len(self.lines) * 1000.0 / self.instructions

    def region_apki(self) -> dict[int, float]:
        """APKI per region."""
        ids, counts = np.unique(self.regions, return_counts=True)
        return {
            int(r): float(c) * 1000.0 / self.instructions
            for r, c in zip(ids, counts)
        }

    def region_footprint_bytes(self) -> dict[int, int]:
        """Distinct-line footprint per region, in bytes.

        One lexsort over (region, line) pairs: after sorting, every
        distinct (region, line) pair is the first element of a run, so a
        single adjacent-difference pass counts distinct lines per region
        — no per-region ``np.unique`` scan over the whole trace.
        """
        if len(self.regions) == 0:
            return {}
        order = np.lexsort((self.lines, self.regions))
        regions = self.regions[order]
        lines = self.lines[order]
        first = np.ones(len(regions), dtype=bool)
        first[1:] = (regions[1:] != regions[:-1]) | (lines[1:] != lines[:-1])
        ids, counts = np.unique(regions[first], return_counts=True)
        return {
            int(rid): int(c) * self.line_bytes for rid, c in zip(ids, counts)
        }

    def slice_accesses(self, lo: int, hi: int) -> "Trace":
        """Sub-trace over access indices [lo, hi); instructions pro-rated.

        Bounds are clamped to [0, len(self)], so the pro-rated fraction
        always matches the accesses actually returned.  An empty window
        (``hi <= lo``) yields an empty trace whose instruction count is
        clamped to the smallest positive float, so it still satisfies the
        "instructions must be positive" invariant instead of raising.
        """
        lo = min(max(lo, 0), len(self.lines))
        hi = min(max(hi, lo), len(self.lines))
        frac = (hi - lo) / max(len(self.lines), 1)
        instructions = self.instructions * frac
        if instructions <= 0:
            instructions = np.finfo(np.float64).tiny
        return Trace(
            lines=self.lines[lo:hi],
            regions=self.regions[lo:hi],
            instructions=instructions,
            line_bytes=self.line_bytes,
            region_names=self.region_names,
        )


@dataclass
class Workload:
    """A program ready to be simulated.

    Attributes:
        name: benchmark name.
        trace: the LLC access trace.
        heap: the instrumented heap it allocated from.
        manual_pools: region id -> manual pool name, for the apps ported
            by hand (Table 2); None if the app was never ported.
        table2_loc: lines of code changed when porting (Table 2 metadata).
        core_of_access: owning core per access (parallel workloads only).
        n_cores: number of cores the workload runs on.
    """

    name: str
    trace: Trace
    heap: HeapAllocator | None = None
    manual_pools: dict[int, str] | None = None
    table2_loc: int | None = None
    core_of_access: np.ndarray | None = None
    n_cores: int = 1

    @property
    def region_names(self) -> dict[int, str]:
        """Region names from the trace."""
        return self.trace.region_names


def interleave(*streams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Proportionally interleave several access streams.

    Elements of each stream keep their order; streams are merged so each
    progresses at a uniform rate (stream ``i``'s ``j``-th element lands at
    fractional position ``(j + 0.5) / len_i``).  This models the fine-
    grained interleaving of accesses to different structures inside a
    program loop.

    Returns:
        ``(merged_values, source_index)`` — the merged stream and, for
        each element, the index of the stream it came from.
    """
    arrays = [np.asarray(s) for s in streams if len(s) > 0]
    sources: list[int] = [
        i for i, s in enumerate(streams) if len(s) > 0
    ]
    if not arrays:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int32)
    positions = np.concatenate(
        [(np.arange(len(a)) + 0.5) / len(a) for a in arrays]
    )
    values = np.concatenate(arrays)
    src = np.concatenate(
        [np.full(len(a), sources[i], dtype=np.int32) for i, a in enumerate(arrays)]
    )
    order = np.argsort(positions, kind="stable")
    return values[order], src[order]


class TraceBuilder:
    """Accumulates address accesses in program order into a :class:`Trace`.

    Workload generators call :meth:`access` with byte-address arrays and a
    region id; regions are registered with :meth:`region` (typically one
    per :class:`~repro.mem.allocator.Allocation`).
    """

    def __init__(self, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        self._chunks: list[np.ndarray] = []
        self._region_chunks: list[np.ndarray] = []
        self._region_names: dict[int, str] = {}
        self._next_region = 0

    def region(self, name: str, alloc: Allocation | None = None) -> int:
        """Register a region; returns its id.

        If ``alloc`` is given, the region id is the allocation's callpoint
        (so WhirlTool sees the same ids the allocator produced).
        Re-registering a callpoint under the same name is a no-op, but a
        callpoint that collides with a differently-named region raises
        instead of silently corrupting the region->name mapping.
        """
        rid = alloc.callpoint if alloc is not None else self._next_region
        while alloc is None and rid in self._region_names:
            self._next_region += 1
            rid = self._next_region
        existing = self._region_names.get(rid)
        if existing is not None and existing != name:
            raise ValueError(
                f"region id {rid} already registered as {existing!r}; "
                f"refusing to rebind it to {name!r} (callpoint collision)"
            )
        self._region_names[rid] = name
        self._next_region = max(self._next_region, rid + 1)
        return rid

    def access(self, addrs: np.ndarray, region: int) -> None:
        """Append byte-address accesses for one region, in order.

        Rejects non-integer dtypes and negative addresses — external
        trace ingestion feeds this path, so malformed input must fail
        loudly instead of being silently cast.
        """
        addrs = _validated_addresses(addrs, np.int64, "addrs")
        if len(addrs) == 0:
            return
        if region not in self._region_names:
            raise ValueError(f"region {region} not registered")
        self._chunks.append(addrs)
        self._region_chunks.append(np.full(len(addrs), region, dtype=np.int32))

    def access_interleaved(self, streams: dict[int, np.ndarray]) -> None:
        """Append several regions' streams, proportionally interleaved."""
        regions = list(streams.keys())
        for r in regions:
            if r not in self._region_names:
                raise ValueError(f"region {r} not registered")
        values, src = interleave(*[streams[r] for r in regions])
        if len(values) == 0:
            return
        region_ids = np.array(regions, dtype=np.int32)[src]
        self._chunks.append(_validated_addresses(values, np.int64, "addrs"))
        self._region_chunks.append(region_ids)

    @property
    def n_accesses(self) -> int:
        """Accesses accumulated so far."""
        return sum(len(c) for c in self._chunks)

    def finalize(
        self,
        instructions: float | None = None,
        dedup: bool = True,
        apki: float | None = None,
    ) -> Trace:
        """Produce the line-granular :class:`Trace`.

        With ``dedup`` (default), consecutive same-line accesses *within a
        region's own stream* are collapsed: the private L1/L2 would serve
        them, so the LLC sees each sequentially-touched line once.

        Provide either ``instructions`` (explicit count) or ``apki`` (the
        instruction count is derived from the post-dedup access count so
        the trace's LLC APKI lands exactly on the target).
        """
        if not self._chunks:
            raise ValueError("no accesses recorded")
        if (instructions is None) == (apki is None):
            raise ValueError("provide exactly one of instructions / apki")
        # Full-length temporaries are released as soon as they are used:
        # this is the largest transient of a long workload's build.
        lines = np.concatenate(self._chunks)
        lines //= self.line_bytes
        regions = np.concatenate(self._region_chunks)
        if dedup and len(lines) > 1:
            # Group accesses by region (stable, preserving program order
            # within each region) and drop immediate repeats.
            order = np.argsort(regions, kind="stable")
            grouped = regions[order]
            same = grouped[1:] == grouped[:-1]
            del grouped
            grouped = lines[order]
            same &= grouped[1:] == grouped[:-1]
            del grouped
            keep = np.ones(len(lines), dtype=bool)
            keep[order[1:]] = ~same
            del order, same
            lines = lines[keep]
            regions = regions[keep]
        if instructions is None:
            instructions = len(lines) * 1000.0 / apki
        return Trace(
            lines=lines,
            regions=regions,
            instructions=instructions,
            line_bytes=self.line_bytes,
            region_names=dict(self._region_names),
        )

"""Stack-distance (reuse-distance) profiling.

The stack distance of an access is the number of *distinct* cache lines
referenced since the previous access to the same line.  Under fully
associative LRU, an access hits in a cache of S lines iff its stack
distance is < S, so the histogram of stack distances *is* the miss-rate
curve (Mattson et al.).  Jigsaw's hardware GMON monitors approximate this
curve per VC; here we compute it in software, exactly or approximately
via address sampling, which is both faster and closer to what a sampled
hardware monitor sees.

Two distance kernels are provided:

- :func:`stack_distances` — the production kernel.  Mattson's algorithm
  reduces to offline 2D dominance counting: with ``prev[i]`` the index of
  the previous access to ``lines[i]`` (or -1), every distinct line in the
  reuse window of a non-cold access has exactly one first-touch inside
  the window, so its distance is::

      #{j < i : prev[j] <= prev[i]} - (prev[i] + 1)

  The dominance counts for all accesses are resolved at once by a
  batched wavelet sweep over position bits (:func:`_dominance_counts`),
  giving O(n log n) work with NumPy-level constants and no per-access
  Python loop.
- :func:`stack_distances_reference` — the original per-access Fenwick
  sweep, kept as a slow, independently-derived oracle for tests and the
  perf gate.

One profiling engine
--------------------
:class:`StreamingProfile` is the one engine that turns a trace into
per-(region, interval) miss curves.  It consumes the trace as a
sequence of chunks, carrying per-region (line -> last position) state
between them, and accumulates integer bucket counts per (region,
interval) in an :class:`IntervalBucketAccumulator`.
:meth:`StackDistanceProfiler.profile` is the one-chunk case (``begin``,
one ``push``, ``finalize``); the out-of-core driver
(:class:`repro.ingest.stream.StreamingStackProfiler`) and the online
classifier (:class:`repro.core.whirltool.online.OnlineWhirlTool`) push
many chunks.  Bucket counts are integers, so every chunking of the same
trace finalizes to bit-identical curves.

How the chunk decomposition stays exact
---------------------------------------
Split a trace at any chunk boundary and classify each access in the
current chunk:

- *locally hot* (previous occurrence inside the chunk): the whole reuse
  window lies inside the chunk, so :func:`_prev_occurrence` +
  :func:`_distances_from_prev` compute it from the chunk alone.
- *locally cold, known line* (previous occurrence in an earlier chunk):
  the distinct lines in the window split into three exactly-countable
  groups.  With ``p`` the line's carried last position and ``i`` the
  access position::

      distance = A + B - C
      A = distinct lines touched in this chunk before i   (any line)
      B = carried lines whose last position is > p        (stale markers)
      C = carried lines with last position > p that were   (counted in
          re-touched in this chunk before i                both A and B)

  ``A`` is a per-segment running count of chunk-first-occurrences; ``B``
  is a searchsorted against the sorted carried positions; and because
  the ``C`` queries *are* the chunk-first-occurrences of carried lines,
  ``C`` reduces to an inversion count over their carried positions —
  resolved by the same wavelet dominance counter.
- *locally cold, unknown line*: a true cold miss.

With a single chunk every access is locally hot or a true cold miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.curves.fenwick import FenwickTree
from repro.curves.miss_curve import MissCurve

if TYPE_CHECKING:
    from repro.ingest.source import TraceChunk

__all__ = [
    "IntervalBucketAccumulator",
    "StackDistanceProfiler",
    "StreamingProfile",
    "distance_bucket_counts",
    "miss_curve_from_bucket_counts",
    "miss_curve_from_distances",
    "relabel_regions",
    "stack_distances",
    "stack_distances_reference",
]

#: Stack distance reported for cold (first-touch) accesses.
COLD = np.iinfo(np.int64).max


def stack_distances_reference(lines: np.ndarray) -> np.ndarray:
    """Exact stack distances via a per-access Fenwick sweep (oracle).

    Args:
        lines: integer array of cache-line addresses, in access order.

    Returns:
        int64 array of the same length; cold misses get :data:`COLD`.
    """
    lines = np.asarray(lines)
    n = len(lines)
    out = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return out
    tree = FenwickTree(n)
    last_pos: dict[int, int] = {}
    add = tree.add
    range_sum = tree.range_sum
    for i, addr in enumerate(lines.tolist()):
        prev = last_pos.get(addr)
        if prev is not None:
            # Distinct lines touched strictly between prev and i: each has
            # exactly one "last access" marker in (prev, i).
            out[i] = range_sum(prev + 1, i - 1)
            add(prev, -1)
        add(i, 1)
        last_pos[addr] = i
    return out


def _key_order(keys: np.ndarray, cold: np.ndarray, cold_rank: np.ndarray) -> np.ndarray:
    """Stable argsort of ``keys`` in O(n), for the engine's key layout.

    Exploits the structure of previous-occurrence keys: non-cold keys are
    distinct, and ties occur only among cold keys, whose relative order is
    supplied as ``cold_rank`` (rank of each cold element among equal-key
    cold elements, in position order).
    """
    n = len(keys)
    kk = (keys + 1).astype(np.int64)
    cnt = np.bincount(kk, minlength=n + 1)
    starts = np.cumsum(cnt) - cnt
    slot = starts[kk] + np.where(cold, cold_rank, 0)
    order = np.empty(n, dtype=np.int64)
    order[slot] = np.arange(n, dtype=np.int64)
    return order


def _wavelet_level(v, nxt, shift, width, scratch):
    """One counting/partition level over ``v`` (2D: rows x width).

    For every element, adds the number of earlier same-row elements whose
    level bit is 0 while its own is 1 (packed into the element's low
    bits), then stable-partitions each row by the bit into ``nxt``.
    ``scratch`` provides three preallocated int32 buffers of v.size.
    """
    rows, _ = v.shape
    one, ones_cum, dest = (s[: v.size].reshape(v.shape) for s in scratch)
    np.bitwise_and(
        (v >> shift).astype(np.int32, copy=False), np.int32(1), out=one
    )
    np.cumsum(one, axis=1, dtype=np.int32, out=ones_cum)
    col = np.arange(width, dtype=np.int32)
    # zeros_before = col - ones_cum; contribution = (zeros_before + 1) for
    # elements with bit 1; destination = zeros_before for bit 0, or
    # (zeros_total + ones_before) for bit 1.
    np.subtract(col, ones_cum, out=dest)  # dest holds zeros_before
    contrib = np.add(dest, 1, out=np.empty_like(dest))
    np.multiply(contrib, one, out=contrib)
    vv = v + contrib  # upcasts to v's dtype
    zeros_total = width - ones_cum[:, -1:]
    np.subtract(ones_cum, dest, out=ones_cum)
    np.add(ones_cum, zeros_total - 1, out=ones_cum)
    np.multiply(ones_cum, one, out=ones_cum)
    np.add(dest, ones_cum, out=dest)
    base = (np.arange(rows, dtype=np.int32) * np.int32(width))[:, None]
    np.add(dest, base, out=dest)
    nxt.reshape(-1)[dest.ravel()] = vv.ravel()


def _dominance_counts(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``counts[i] = #{j < i : keys[j] <= keys[i]}`` (ties by position).

    ``order`` must be the stable argsort of ``keys``.  The counts are a
    2D dominance between the position order and the key order, resolved
    by a wavelet-style sweep over position bits: positions are split into
    chunks of ``C = 2^logC``; a first pass over chunk-id bits (elements
    read in key order) counts cross-chunk pairs and, as a side effect,
    groups elements by chunk; a second, fully rectangular pass over the
    low position bits counts within-chunk pairs.  Each element carries
    ``position << 32 | count`` packed in one int64 (an int32 analogue in
    the second pass), so every level is one cumsum, a few fused
    arithmetic passes, and one scatter; the final layout is the identity
    permutation, leaving each element's count at its own position.
    """
    n = len(keys)
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    logC = max(1, min(15, (n - 1).bit_length()))
    C = 1 << logC
    n_chunks = -(-n // C)
    m = n_chunks * C
    if m > n:
        # Sentinel elements: positions past the end, keys above everything
        # (appended at the end of the key order).  They keep every chunk
        # exactly C elements; their counts are sliced off at the end.
        order = np.concatenate([order, np.arange(n, m, dtype=order.dtype)])
    scratch = [np.empty(m, dtype=np.int32) for _ in range(3)]
    packed = order.astype(np.int64) << 32
    spare = np.empty_like(packed)
    # Pass 1: chunk-id bits (== position bits above logC), elements in key
    # order.  Segments are key-prefix classes: every chunk holds exactly C
    # elements, so all segments are full except the trailing one, which is
    # handled as a 1-row level of its own width.
    for b in range((n_chunks - 1).bit_length() - 1, -1, -1):
        width = C << (b + 1)
        shift = np.int64(32 + logC + b)
        rows = m // width
        mainlen = rows * width
        if rows:
            _wavelet_level(
                packed[:mainlen].reshape(rows, width),
                spare[:mainlen],
                shift,
                width,
                scratch,
            )
        if mainlen < m:
            _wavelet_level(
                packed[mainlen:].reshape(1, m - mainlen),
                spare[mainlen:],
                shift,
                m - mainlen,
                scratch,
            )
        packed, spare = spare, packed
    # Pass 1 grouped elements by chunk (stable in key order); drain its
    # counts, then re-pack per-chunk local positions into int32 words
    # (local position << logC | count; both fit in logC <= 15 bits).
    counts = np.empty(m, dtype=np.int64)
    counts[packed >> 32] = packed & 0xFFFFFFFF
    packed32 = (((packed >> 32) & (C - 1)) << logC).astype(np.int32)
    spare32 = np.empty_like(packed32)
    # Pass 2: low position bits.  Each chunk's low bits are a permutation
    # of [0, C), so every level is perfectly balanced and rectangular.
    for b in range(logC - 1, -1, -1):
        width = 1 << (b + 1)
        _wavelet_level(
            packed32.reshape(-1, width), spare32, logC + b, width, scratch
        )
        packed32, spare32 = spare32, packed32
    counts[:n] += packed32[:n] & np.int32(C - 1)
    return counts[:n]


def _prev_occurrence(lines: np.ndarray, regions: np.ndarray | None = None) -> np.ndarray:
    """Index of the previous access to the same line (-1 if none).

    With ``regions``, "same line" means same (region, line) pair, so each
    region's stream is chained independently.
    """
    n = len(lines)
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    lo = int(lines.min())
    span = int(lines.max()) - lo + 1
    if regions is None:
        # An unstable sort of (line * n + position) is a stable sort of
        # lines, and quicksort beats the stable radix path.
        if span <= (2**62) // max(n, 1):
            order = np.argsort((lines - lo) * np.int64(n) + np.arange(n, dtype=np.int64))
        else:
            order = np.argsort(lines, kind="stable")
        sl = lines[order]
        same = sl[1:] == sl[:-1]
    else:
        rspan = int(regions.max()) + 1 if len(regions) else 1
        if span * rspan <= 2**62:
            key = (regions.astype(np.int64) * span + (lines - lo)).astype(np.int64)
            order = np.argsort(key, kind="stable")
        else:
            order = np.lexsort((lines, regions))
        sl = lines[order]
        sr = regions[order]
        same = (sl[1:] == sl[:-1]) & (sr[1:] == sr[:-1])
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _distances_from_prev(prev: np.ndarray, base: np.ndarray | int = 0) -> np.ndarray:
    """Distances from a previous-occurrence array.

    ``base`` is each access's segment start (0 for a single stream).  A
    cold access is keyed at ``base - 1`` so that, inside its segment, it
    sorts below every real ``prev`` index but above everything in earlier
    segments — the dominance count then telescopes per segment.
    """
    n = len(prev)
    out = np.full(n, COLD, dtype=np.int64)
    cold = prev < 0
    if n == 0 or cold.all():
        return out
    base = np.asarray(base, dtype=np.int64)
    keys = np.where(cold, base - 1, prev)
    # Ties occur only among cold keys of the same segment; their stable
    # rank is their cold-appearance order within the segment.
    cold_cum = np.concatenate(([0], np.cumsum(cold)))
    cold_rank = cold_cum[:-1] - cold_cum[base] if base.ndim else cold_cum[:-1]
    counts = _dominance_counts(keys, _key_order(keys, cold, cold_rank))
    hot = ~cold
    out[hot] = counts[hot] - keys[hot] - 1
    return out


def stack_distances(lines: np.ndarray) -> np.ndarray:
    """Exact stack distances for a sequence of line addresses.

    Vectorized Mattson engine (see the module docstring); produces
    bit-identical output to :func:`stack_distances_reference`.

    Args:
        lines: integer array of cache-line addresses, in access order.

    Returns:
        int64 array of the same length; cold misses get :data:`COLD`.
    """
    lines = np.ascontiguousarray(lines)
    return _distances_from_prev(_prev_occurrence(lines))


def miss_curve_from_distances(
    distances: np.ndarray,
    chunk_bytes: int,
    n_chunks: int,
    instructions: float,
    line_bytes: int = 64,
    scale: float = 1.0,
    distance_scale: float = 1.0,
) -> MissCurve:
    """Convert a stack-distance array into a :class:`MissCurve`.

    ``misses[i]`` counts accesses whose distance (in bytes, at
    ``line_bytes`` per distinct line) is >= ``i * chunk_bytes``, i.e. the
    misses of an ``i``-chunk LRU cache.  Cold misses count at every size.

    Args:
        distances: output of :func:`stack_distances` (line-granular).
        chunk_bytes: grid step of the resulting curve.
        n_chunks: number of grid steps.
        instructions: instruction count of the profiling window.
        line_bytes: bytes per cache line.
        scale: multiply counts (sampling correction).
        distance_scale: multiply distances (set-sampling correction: a
            distance observed on a 1/2^k-sampled address stream estimates
            a true distance 2^k times larger).
    """
    hist, n_cold, n_total = distance_bucket_counts(
        distances, chunk_bytes, n_chunks, line_bytes, distance_scale
    )
    return miss_curve_from_bucket_counts(
        hist, n_cold, n_total, chunk_bytes, n_chunks, instructions, scale
    )


def distance_bucket_counts(
    distances: np.ndarray,
    chunk_bytes: int,
    n_chunks: int,
    line_bytes: int = 64,
    distance_scale: float = 1.0,
) -> tuple[np.ndarray, int, int]:
    """Histogram distances into miss-curve size buckets.

    The additive half of :func:`miss_curve_from_distances`: bucket
    histograms are plain integer counts, so an out-of-core profiler can
    accumulate them chunk by chunk and finalize once with
    :func:`miss_curve_from_bucket_counts` — bit-identical to bucketing
    the concatenated distances in one call.

    Returns:
        ``(hist, n_cold, n_total)`` — int64 histogram of length
        ``n_chunks + 2`` over non-cold accesses, the cold-miss count,
        and the total access count.
    """
    distances = np.asarray(distances, dtype=np.float64)
    lines_per_chunk = chunk_bytes / line_bytes
    cold = distances >= float(COLD)
    # An access with distance d misses at size i chunks iff
    # d >= i * lines_per_chunk; its "first hitting size" bucket is
    # floor(d / lines_per_chunk) + 1 == ceil((d + eps) / lines_per_chunk).
    scaled_dist = distances[~cold] * distance_scale
    buckets = np.ceil(scaled_dist / lines_per_chunk + 1e-12).astype(np.int64)
    buckets = np.clip(buckets, 1, n_chunks + 1)
    hist = np.bincount(buckets, minlength=n_chunks + 2)
    return hist, int(np.count_nonzero(cold)), len(distances)


def miss_curve_from_bucket_counts(
    hist: np.ndarray,
    n_cold: int,
    n_accesses: int,
    chunk_bytes: int,
    n_chunks: int,
    instructions: float,
    scale: float = 1.0,
) -> MissCurve:
    """Finalize accumulated bucket counts into a :class:`MissCurve`.

    Args:
        hist: integer bucket histogram (length ``n_chunks + 2``), summed
            over any number of :func:`distance_bucket_counts` calls.
        n_cold: total cold misses.
        n_accesses: total profiled accesses (cold included).
        chunk_bytes / n_chunks / instructions / scale: as in
            :func:`miss_curve_from_distances`.
    """
    hist = np.asarray(hist).astype(np.float64)
    cum = np.cumsum(hist)
    total = cum[-1]
    # misses[i] = (# accesses whose bucket > i) + cold misses.
    misses = (total - cum[: n_chunks + 1]) + float(n_cold)
    return MissCurve(
        misses=misses * scale,
        chunk_bytes=chunk_bytes,
        accesses=float(n_accesses) * scale,
        instructions=instructions,
    )


class IntervalBucketAccumulator:
    """Grow-able per-interval bucket-count accumulation for one stream.

    The additive integer state behind :class:`StreamingProfile`, one
    per region: per profiling interval, a distance-bucket histogram
    (:func:`distance_bucket_counts`), cold/sampled counters, and the
    unsampled access count.  Because every field is a plain integer
    count, accumulation commutes — chunks can arrive in any split — and
    new interval rows can be *appended* while earlier ones keep
    accumulating, which is what lets an online profiler open epochs as
    data arrives instead of fixing the interval grid up front.
    :meth:`interval_curve` finalizes one interval through
    :func:`miss_curve_from_bucket_counts` plus an unsampled-access
    rescale, bit-identical to bucketing that interval's distances in a
    single call.
    """

    def __init__(self, n_chunks: int, n_intervals: int = 0) -> None:
        if n_chunks < 0:
            raise ValueError(f"n_chunks must be >= 0, got {n_chunks}")
        if n_intervals < 0:
            raise ValueError(f"n_intervals must be >= 0, got {n_intervals}")
        self.n_chunks = n_chunks
        self.hist = np.zeros((n_intervals, n_chunks + 2), dtype=np.int64)
        self.cold = np.zeros(n_intervals, dtype=np.int64)
        self.sampled = np.zeros(n_intervals, dtype=np.int64)
        self.accesses = np.zeros(n_intervals, dtype=np.int64)

    @property
    def n_intervals(self) -> int:
        """Interval rows currently open."""
        return len(self.cold)

    def ensure_intervals(self, n_intervals: int) -> None:
        """Grow (never shrink) to ``n_intervals`` zero-initialized rows."""
        grow = n_intervals - self.n_intervals
        if grow <= 0:
            return
        self.hist = np.vstack(
            [self.hist, np.zeros((grow, self.n_chunks + 2), dtype=np.int64)]
        )
        zeros = np.zeros(grow, dtype=np.int64)
        self.cold = np.concatenate([self.cold, zeros])
        self.sampled = np.concatenate([self.sampled, zeros])
        self.accesses = np.concatenate([self.accesses, zeros])

    def add_accesses(self, interval: int, count: int) -> None:
        """Count ``count`` unsampled accesses into ``interval``."""
        self.accesses[interval] += count

    def add_distances(
        self,
        interval: int,
        distances: np.ndarray,
        chunk_bytes: int,
        line_bytes: int = 64,
        distance_scale: float = 1.0,
    ) -> None:
        """Bucket one batch of sampled distances into ``interval``."""
        h, n_cold, n_acc = distance_bucket_counts(
            distances,
            chunk_bytes,
            self.n_chunks,
            line_bytes,
            distance_scale=distance_scale,
        )
        self.hist[interval] += h
        self.cold[interval] += n_cold
        self.sampled[interval] += n_acc

    def interval_curve(
        self,
        interval: int,
        chunk_bytes: int,
        instructions: float,
        scale: float = 1.0,
    ) -> MissCurve:
        """Finalize one interval's counts into a :class:`MissCurve`.

        Bucket counts finalize through
        :func:`miss_curve_from_bucket_counts` (the float pipeline of
        :func:`miss_curve_from_distances`), then the access count is
        rescaled to the true unsampled count so APKI stays exact under
        address sampling.  Intervals with no sampled access degrade to
        the flat all-miss curve.
        """
        n_acc = int(self.accesses[interval])
        n_samp = int(self.sampled[interval])
        if n_samp > 0:
            curve = miss_curve_from_bucket_counts(
                self.hist[interval],
                int(self.cold[interval]),
                n_samp,
                chunk_bytes,
                self.n_chunks,
                instructions,
                scale=scale,
            )
            # Rescale to the true (unsampled) access count so APKI is
            # exact even when miss counts are approximate.
            ratio = n_acc / curve.accesses
            return MissCurve(
                misses=curve.misses * ratio,
                chunk_bytes=curve.chunk_bytes,
                accesses=float(n_acc),
                instructions=curve.instructions,
            )
        return MissCurve(
            misses=np.full(self.n_chunks + 1, float(n_acc)),
            chunk_bytes=chunk_bytes,
            accesses=float(n_acc),
            instructions=instructions,
        )


def relabel_regions(
    regions: np.ndarray, mapping: dict[int, int]
) -> np.ndarray:
    """Relabel region ids with VC ids via a dense LUT.

    Ids missing from the mapping fall into VC 0 — the convention of
    every profiling caller (:func:`repro.sim.profiling.profile_vcs`,
    :meth:`StreamingProfile.push_chunk` and the online classifier).
    """
    max_rid = int(regions.max()) if len(regions) else 0
    lut = np.zeros(max_rid + 1, dtype=np.int32)
    for rid, vc in mapping.items():
        if 0 <= rid <= max_rid:
            lut[rid] = vc
    return lut[regions]


class StackDistanceProfiler:
    """Profiles a trace into per-region, per-interval miss-rate curves.

    This plays the role of Jigsaw's GMON utility monitors and of the
    WhirlTool profiler: it observes a stream of (line address, region id)
    pairs, split into fixed-length intervals, and produces a
    :class:`MissCurve` per (region, interval).

    Address sampling: with ``sample_shift = k``, only lines whose hash
    falls in 1/2^k of the hash space are profiled, and counts are scaled
    by 2^k.  This mirrors set-sampled hardware monitors (UMON/GMON) and
    keeps profiling fast on long traces.  ``sample_shift = 0`` is exact.

    :meth:`profile` pushes the whole trace into a :class:`StreamingProfile`
    as one chunk; :meth:`begin` opens a profile for callers that push
    chunks themselves.
    """

    def __init__(
        self,
        chunk_bytes: int,
        n_chunks: int,
        line_bytes: int = 64,
        sample_shift: int = 0,
    ) -> None:
        if sample_shift < 0:
            raise ValueError(f"sample_shift must be >= 0, got {sample_shift}")
        self.chunk_bytes = chunk_bytes
        self.n_chunks = n_chunks
        self.line_bytes = line_bytes
        self.sample_shift = sample_shift

    # A multiplicative hash keeps sampled lines spread across the space
    # even for strided address streams.
    _HASH_MULT = np.uint64(0x9E3779B97F4A7C15)

    #: Records hashed per block by :meth:`_sample_mask`: its uint64
    #: scratch stays 512 KB however long the trace is.
    _SAMPLE_BLOCK = 1 << 16

    def _sample_mask(self, lines: np.ndarray) -> np.ndarray:
        n = len(lines)
        if self.sample_shift == 0:
            return np.ones(n, dtype=bool)
        keep = np.empty(n, dtype=bool)
        shift = np.uint64(64 - self.sample_shift)
        scratch = np.empty(min(n, self._SAMPLE_BLOCK), dtype=np.uint64)
        for lo in range(0, n, self._SAMPLE_BLOCK):
            hi = min(lo + self._SAMPLE_BLOCK, n)
            hashed = scratch[: hi - lo]
            np.copyto(hashed, lines[lo:hi], casting="unsafe")
            np.multiply(hashed, self._HASH_MULT, out=hashed)
            np.right_shift(hashed, shift, out=hashed)
            np.equal(hashed, 0, out=keep[lo:hi])
        return keep

    def begin(
        self, bounds: np.ndarray | list[int] | tuple[int, ...] = (0,)
    ) -> StreamingProfile:
        """Open an incremental profile with the given interval bounds.

        ``bounds`` may be just ``[0]`` (no intervals yet): the online
        path appends record-count epochs with
        :meth:`StreamingProfile.open_interval` as data arrives.
        """
        return StreamingProfile(self, np.asarray(bounds))

    def profile(
        self,
        lines: np.ndarray,
        regions: np.ndarray,
        instructions: float,
        n_intervals: int = 1,
    ) -> dict[int, list[MissCurve]]:
        """Profile a trace.

        Distances are computed over each region's *own* access stream for
        the whole trace (monitors are per-VC), then counts are split into
        ``n_intervals`` equal access-index windows.

        Args:
            lines: line addresses in access order.
            regions: region id per access (same length as ``lines``).
            instructions: total instructions over the trace.
            n_intervals: number of equal time windows.

        Returns:
            Mapping ``region id -> [MissCurve, ...]`` (one per interval).
        """
        if n_intervals < 1:
            raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
        lines = np.asarray(lines)
        prof = self.begin(
            np.linspace(0, len(lines), n_intervals + 1).astype(np.int64)
        )
        prof.push(lines, np.asarray(regions))
        return prof.finalize(instructions)

    def profile_combined(
        self, lines: np.ndarray, instructions: float, n_intervals: int = 1
    ) -> list[MissCurve]:
        """Profile the whole trace as a single region (S-NUCA's view)."""
        regions = np.zeros(len(lines), dtype=np.int32)
        return self.profile(lines, regions, instructions, n_intervals)[0]


@dataclass
class _RegionState:
    """Carried cross-chunk state for one region (sampled stream).

    ``lines`` is sorted ascending; ``pos`` holds each line's last
    sampled global position, aligned with ``lines``.
    """

    lines: np.ndarray
    pos: np.ndarray


class StreamingProfile:
    """An in-progress profile: carried state plus bucket counts.

    Holds per-region (line -> last position) markers plus
    per-(region, interval) bucket-count accumulators behind an
    incremental push/seal/finalize API, so a profile can outlive any
    single pass over a source:

    - :meth:`push` consumes the next records as line/region arrays, and
      :meth:`push_chunk` one :class:`~repro.ingest.source.TraceChunk`
      (records must lie inside the currently open interval bounds);
    - :meth:`open_interval` appends a new record-count interval while
      the stream runs (the open-ended epoch model for unbounded
      sources);
    - :meth:`interval_curve` finalizes a single sealed (region,
      interval) cell, and :meth:`finalize` the whole grid.

    Bucket counts are integers, so every finalization is bit-identical
    no matter how the stream was chunked.
    """

    def __init__(
        self, profiler: StackDistanceProfiler, bounds: np.ndarray
    ) -> None:
        bounds = np.ascontiguousarray(bounds, dtype=np.int64)
        if len(bounds) < 1 or bounds[0] != 0:
            raise ValueError("bounds must start at record 0")
        if len(bounds) > 1 and bool((np.diff(bounds) < 0).any()):
            raise ValueError("bounds must be non-decreasing")
        self._p = profiler
        self.bounds = bounds
        self.offset = 0
        self._state: dict[int, _RegionState] = {}
        self._acc: dict[int, IntervalBucketAccumulator] = {}
        self._scale = float(1 << profiler.sample_shift)

    @property
    def n_intervals(self) -> int:
        """Intervals currently open (sealed or still filling)."""
        return len(self.bounds) - 1

    def region_ids(self) -> list[int]:
        """Region ids observed so far, sorted."""
        return sorted(self._acc)

    def open_interval(self, end: int) -> None:
        """Append a new interval ending at record index ``end``."""
        if end <= int(self.bounds[-1]):
            raise ValueError(
                f"interval end {end} does not extend the last bound "
                f"{int(self.bounds[-1])}"
            )
        self.bounds = np.append(self.bounds, np.int64(end))

    # ------------------------------------------------------------------
    # Per-chunk stages
    # ------------------------------------------------------------------
    def push_chunk(
        self, chunk: TraceChunk, mapping: dict[int, int] | None = None
    ) -> None:
        """Consume one chunk of records (in stream order).

        Addresses become lines at the profiler's ``line_bytes``; a chunk
        without regions is all region 0; ``mapping`` relabels region ids
        (:func:`relabel_regions`) before the records go to :meth:`push`.
        """
        lines = chunk.addrs // self._p.line_bytes
        if chunk.regions is None:
            regions = np.zeros(len(chunk), dtype=np.int32)
        else:
            regions = chunk.regions
        if mapping is not None:
            regions = relabel_regions(regions, mapping)
        self.push(lines, regions)

    def push(self, lines: np.ndarray, regions: np.ndarray) -> None:
        """Consume the next records' line addresses and region ids."""
        if len(lines) != len(regions):
            raise ValueError("lines and regions must have equal length")
        n = len(lines)
        if n == 0:
            return
        if self.offset + n > int(self.bounds[-1]):
            raise ValueError(
                f"chunk extends to record {self.offset + n} but the last "
                f"open interval ends at {int(self.bounds[-1])}; call "
                "open_interval first"
            )
        self._count_accesses(regions)
        self._process_chunk(lines, regions)
        self.offset += n

    def _accumulator(self, rid: int) -> IntervalBucketAccumulator:
        acc = self._acc.get(rid)
        if acc is None:
            acc = self._acc[rid] = IntervalBucketAccumulator(
                self._p.n_chunks
            )
        acc.ensure_intervals(self.n_intervals)
        return acc

    def _count_accesses(self, regions: np.ndarray) -> None:
        """Accumulate unsampled per-(region, interval) access counts.

        Interval lookup is a two-sided ``searchsorted`` against the
        bounds: with right-side search, a record index sitting exactly
        on a (possibly duplicated) bound lands in the *last* interval
        starting there, because empty intervals (duplicate bounds) own
        no records.
        """
        n = len(regions)
        offset = self.offset
        bounds = self.bounds
        t0 = int(np.searchsorted(bounds, offset, side="right")) - 1
        t1 = int(np.searchsorted(bounds, offset + n - 1, side="right")) - 1
        for t in range(t0, t1 + 1):
            lo = max(0, int(bounds[t]) - offset)
            hi = min(n, int(bounds[t + 1]) - offset)
            if lo >= hi:
                continue  # empty interval straddled by this chunk
            ids, counts = np.unique(regions[lo:hi], return_counts=True)
            for rid, c in zip(ids.tolist(), counts.tolist()):
                self._accumulator(rid).add_accesses(t, c)

    def _process_chunk(self, lines: np.ndarray, regions: np.ndarray) -> None:
        keep = self._p._sample_mask(lines)
        kept = np.nonzero(keep)[0]
        if kept.size == 0:
            return
        # Group sampled accesses by region, preserving stream order.
        gorder = np.argsort(regions[kept], kind="stable")
        g_src = kept[gorder]
        g_lines = np.ascontiguousarray(lines[g_src])
        g_regions = regions[g_src]
        g_pos = self.offset + g_src  # global positions, ascending per segment
        rids = np.unique(g_regions)
        seg_starts = np.searchsorted(g_regions, rids, side="left")
        seg_ends = np.searchsorted(g_regions, rids, side="right")
        base = np.repeat(seg_starts, seg_ends - seg_starts)

        # Locally-hot distances from the chunk alone.
        prev = _prev_occurrence(g_lines, g_regions)
        dist = _distances_from_prev(prev, base)
        cold_local = prev < 0
        # A: distinct lines touched earlier in the same chunk segment.
        excl = np.cumsum(cold_local) - cold_local
        distinct_before = excl - excl[base]

        for r, rid in enumerate(rids.tolist()):
            s, e = int(seg_starts[r]), int(seg_ends[r])
            st = self._state.get(rid)
            seg_cold = s + np.nonzero(cold_local[s:e])[0]
            if st is not None and seg_cold.size:
                self._resolve_carried(
                    st, g_lines, seg_cold, distinct_before, dist
                )
            self._update_state(rid, st, g_lines[s:e], g_pos[s:e])
            self._accumulate(rid, dist[s:e], g_pos[s:e])

    def _resolve_carried(
        self,
        st: _RegionState,
        g_lines: np.ndarray,
        seg_cold: np.ndarray,
        distinct_before: np.ndarray,
        dist: np.ndarray,
    ) -> None:
        """Fill distances for chunk-cold accesses whose line is carried."""
        q = g_lines[seg_cold]
        loc = np.searchsorted(st.lines, q)
        inb = loc < len(st.lines)
        hit = np.zeros(len(q), dtype=bool)
        hit[inb] = st.lines[loc[inb]] == q[inb]
        if not hit.any():
            return
        hit_idx = seg_cold[hit]
        p = st.pos[loc[hit]]  # carried position per query, in stream order
        a = distinct_before[hit_idx]
        pos_sorted = np.sort(st.pos)
        b = len(pos_sorted) - np.searchsorted(pos_sorted, p, side="right")
        # C: inversions among the carried positions of re-touched lines —
        # carried lines with a later marker that were re-touched earlier.
        counts = _dominance_counts(p, np.argsort(p, kind="stable"))
        c = np.arange(len(p), dtype=np.int64) - counts
        dist[hit_idx] = a + b - c

    def _update_state(
        self,
        rid: int,
        st: _RegionState | None,
        seg_lines: np.ndarray,
        seg_pos: np.ndarray,
    ) -> None:
        """Move touched lines' markers to their last position this chunk."""
        o = np.argsort(seg_lines, kind="stable")
        sl = seg_lines[o]
        last = np.ones(len(sl), dtype=bool)
        if len(sl) > 1:
            last[:-1] = sl[1:] != sl[:-1]
        new_lines = sl[last]
        new_pos = seg_pos[o][last]
        if st is None:
            self._state[rid] = _RegionState(lines=new_lines, pos=new_pos)
            return
        loc = np.searchsorted(st.lines, new_lines)
        inb = loc < len(st.lines)
        dup = np.zeros(len(new_lines), dtype=bool)
        dup[inb] = st.lines[loc[inb]] == new_lines[inb]
        keep_old = np.ones(len(st.lines), dtype=bool)
        keep_old[loc[dup]] = False
        # Linear merge of two sorted distinct-line arrays (np.insert
        # shifts once for all insertion points): O(F + chunk) per chunk,
        # not a footprint-sized argsort.
        old_lines = st.lines[keep_old]
        idx = np.searchsorted(old_lines, new_lines)
        self._state[rid] = _RegionState(
            lines=np.insert(old_lines, idx, new_lines),
            pos=np.insert(st.pos[keep_old], idx, new_pos),
        )

    def _accumulate(
        self, rid: int, seg_dist: np.ndarray, seg_pos: np.ndarray
    ) -> None:
        """Add one segment's distances into the interval accumulators."""
        acc = self._accumulator(rid)
        # Positions ascend within a segment, so each interval is a slice.
        w = np.searchsorted(seg_pos, self.bounds, side="left")
        for t in np.nonzero(np.diff(w) > 0)[0].tolist():
            acc.add_distances(
                t,
                seg_dist[w[t] : w[t + 1]],
                self._p.chunk_bytes,
                self._p.line_bytes,
                distance_scale=self._scale,
            )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def interval_curve(
        self, rid: int, interval: int, instructions: float
    ) -> MissCurve:
        """Finalize one (region, interval) cell's accumulated counts.

        ``instructions`` is the instruction count of *this* interval
        (epochs carry their own; fixed grids split the total evenly).
        Safe to call on sealed intervals while later ones still fill.
        """
        acc = self._acc[rid]
        acc.ensure_intervals(self.n_intervals)
        return acc.interval_curve(
            interval, self._p.chunk_bytes, instructions, scale=self._scale
        )

    def finalize(self, instructions: float) -> dict[int, list[MissCurve]]:
        """Finalize every (region, interval) cell into miss curves.

        ``instructions`` is the whole-stream total, split evenly across
        intervals.
        """
        instr_per_interval = instructions / self.n_intervals
        return {
            int(rid): [
                self.interval_curve(rid, t, instr_per_interval)
                for t in range(self.n_intervals)
            ]
            for rid in self.region_ids()
        }

"""Miss-rate curves: misses as a function of cache size.

A :class:`MissCurve` stores miss *counts* sampled on a uniform size grid
(``chunk_bytes`` per grid step).  Counts, rather than rates, make curves
composable across profiling intervals; MPKI is derived on demand from the
instruction count of the interval the curve was profiled over.

Curves are always non-increasing in size.  Several consumers (Jigsaw's
partitioner, WhirlTool's distance metric) work with the convex hull, which
is the best performance achievable by partitioning within a VC (paper
Sec 4.2, citing Talus).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

__all__ = ["MissCurve", "interp_rows"]


@dataclass
class MissCurve:
    """Misses vs. cache size on a uniform grid.

    Attributes:
        misses: ``misses[i]`` is the number of misses with a cache of
            ``i * chunk_bytes`` bytes.  Non-increasing, length ``n + 1``
            where ``n`` is the number of chunks spanned.
        chunk_bytes: grid granularity in bytes.
        accesses: number of accesses profiled into this curve.
        instructions: instructions executed over the profiling window
            (used to convert counts to per-kilo-instruction rates).
    """

    misses: np.ndarray
    chunk_bytes: int
    accesses: float
    instructions: float
    _hull_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.misses, dtype=np.float64)
        if m.ndim != 1 or len(m) == 0:
            raise ValueError("misses must be a non-empty 1-D array")
        if self.chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {self.chunk_bytes}")
        # Already-normalized arrays (every curve a cache load hands back)
        # pass through untouched, so memory-mapped payloads stay read-only
        # zero-copy views.  Non-increasing + final value >= 0 implies all
        # values >= 0, making accumulate-then-clip the identity.
        if m[-1] >= 0.0 and bool((m[1:] <= m[:-1]).all()):
            self.misses = m
            return
        # Enforce monotonicity: profiling noise (sampling) can produce tiny
        # upticks; a miss curve is non-increasing by definition.
        m = np.minimum.accumulate(m)
        np.clip(m, 0.0, None, out=m)
        self.misses = m

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zero(
        cls, n_chunks: int, chunk_bytes: int, instructions: float = 1.0
    ) -> "MissCurve":
        """An empty curve (no accesses, no misses) over ``n_chunks`` chunks."""
        return cls(
            misses=np.zeros(n_chunks + 1),
            chunk_bytes=chunk_bytes,
            accesses=0.0,
            instructions=instructions,
        )

    # ------------------------------------------------------------------
    # Size/index conversion
    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        """Number of grid steps (the largest modeled size in chunks)."""
        return len(self.misses) - 1

    @property
    def max_bytes(self) -> int:
        """Largest cache size the curve models."""
        return self.n_chunks * self.chunk_bytes

    def sizes_bytes(self) -> np.ndarray:
        """The size grid, in bytes, matching :attr:`misses`."""
        return np.arange(len(self.misses)) * float(self.chunk_bytes)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def misses_at(self, size_bytes: float) -> float:
        """Misses for a cache of ``size_bytes`` (linear interpolation).

        Sizes beyond the modeled range clamp to the final value.
        """
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        pos = size_bytes / self.chunk_bytes
        if pos >= self.n_chunks:
            return float(self.misses[-1])
        lo = int(pos)
        frac = pos - lo
        return float(self.misses[lo] * (1 - frac) + self.misses[lo + 1] * frac)

    def mpki_at(self, size_bytes: float) -> float:
        """Misses per kilo-instruction at ``size_bytes``."""
        return self.misses_at(size_bytes) * 1000.0 / self.instructions

    @property
    def apki(self) -> float:
        """Accesses per kilo-instruction over the profiling window."""
        return self.accesses * 1000.0 / self.instructions

    def mpki_curve(self) -> np.ndarray:
        """The whole curve as MPKI values on the size grid."""
        return self.misses * 1000.0 / self.instructions

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def convex_hull(self) -> np.ndarray:
        """Lower convex hull of the miss curve (same grid).

        The hull is the best achievable misses-vs-size tradeoff when the
        curve's own capacity may be internally partitioned (Talus); it is
        what the capacity partitioner and WhirlTool's distance metric
        consume.  Computed with a linear-time monotone-chain scan (the
        run-skipping :func:`_lower_convex_hull_fast` variant, bit-identical
        to :func:`_lower_convex_hull`) and cached.
        """
        if self._hull_cache is None:
            self._hull_cache = _lower_convex_hull_fast(self.misses)
        return self._hull_cache

    def hull_curve(self) -> "MissCurve":
        """A new :class:`MissCurve` whose values are the convex hull."""
        return MissCurve(
            misses=self.convex_hull().copy(),
            chunk_bytes=self.chunk_bytes,
            accesses=self.accesses,
            instructions=self.instructions,
        )

    def resampled(self, n_chunks: int) -> "MissCurve":
        """Resample onto a grid with ``n_chunks`` steps over the same span."""
        if n_chunks <= 0:
            raise ValueError(f"n_chunks must be positive, got {n_chunks}")
        old_sizes = self.sizes_bytes()
        new_chunk = self.max_bytes / n_chunks
        new_sizes = np.arange(n_chunks + 1) * new_chunk
        misses = np.interp(new_sizes, old_sizes, self.misses)
        return MissCurve(
            misses=misses,
            chunk_bytes=int(round(new_chunk)),
            accesses=self.accesses,
            instructions=self.instructions,
        )

    def extended(self, n_chunks: int) -> "MissCurve":
        """Extend the grid to ``n_chunks`` steps, padding with the last value."""
        if n_chunks < self.n_chunks:
            raise ValueError("extended() cannot shrink a curve")
        pad = np.full(n_chunks - self.n_chunks, self.misses[-1])
        return MissCurve(
            misses=np.concatenate([self.misses, pad]),
            chunk_bytes=self.chunk_bytes,
            accesses=self.accesses,
            instructions=self.instructions,
        )

    def scaled(self, factor: float) -> "MissCurve":
        """Scale access/miss counts by ``factor`` (e.g. sampling correction)."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return MissCurve(
            misses=self.misses * factor,
            chunk_bytes=self.chunk_bytes,
            accesses=self.accesses * factor,
            instructions=self.instructions,
        )

    def merged_over_time(self, other: "MissCurve") -> "MissCurve":
        """Accumulate two curves profiled over *disjoint time windows*.

        Both counts and instruction windows add.  This is how a whole-run
        curve is built from per-interval curves.  Requires matching grids.
        """
        if other.chunk_bytes != self.chunk_bytes or other.n_chunks != self.n_chunks:
            raise ValueError("merged_over_time requires identical size grids")
        return MissCurve(
            misses=self.misses + other.misses,
            chunk_bytes=self.chunk_bytes,
            accesses=self.accesses + other.accesses,
            instructions=self.instructions + other.instructions,
        )


def map_pair_batches(
    pairs: Iterable[tuple["MissCurve", "MissCurve"]],
    rows_fn: Callable[[list[tuple["MissCurve", "MissCurve"]], int], np.ndarray],
) -> list["MissCurve"]:
    """Shared scaffolding for the batched pair-curve engines.

    Validates that each pair shares ``chunk_bytes``, groups pairs by the
    serial pair-model grid (``max(n_chunks)``), calls ``rows_fn(group,
    n)`` once per group for the ``(B, n + 1)`` result *rate* rows (one
    per pair, in group order), and boxes each row as a
    :class:`MissCurve` with the serial pair rules — ``instructions =
    max`` of the pair, ``accesses`` summed, misses = rate row ×
    instructions.  Both the batched combine and the batched
    partitioned-split engines run through this driver so the grouping
    and boxing rules cannot drift apart.
    """
    pairs = list(pairs)
    results: list[MissCurve | None] = [None] * len(pairs)
    by_grid: dict[tuple[int, int], list[int]] = {}
    for k, (a, b) in enumerate(pairs):
        if a.chunk_bytes != b.chunk_bytes:
            raise ValueError("curves must share chunk_bytes")
        n = max(a.n_chunks, b.n_chunks)
        by_grid.setdefault((a.chunk_bytes, n), []).append(k)
    for (chunk, n), idxs in by_grid.items():
        group = [pairs[k] for k in idxs]
        rows = rows_fn(group, n)
        instr = np.array([max(a.instructions, b.instructions) for a, b in group])
        misses = rows * instr[:, None]
        for row, (k, (a, b)) in enumerate(zip(idxs, group)):
            results[k] = MissCurve(
                misses=misses[row],
                chunk_bytes=chunk,
                accesses=a.accesses + b.accesses,
                instructions=float(instr[row]),
            )
    return results  # type: ignore[return-value]


def interp_rows(matrix: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Row-wise linear interpolation of ``matrix[t]`` at ``pos[t]``.

    The exact arithmetic of :meth:`MissCurve.misses_at` (and of
    ``combine._read``), vectorized across rows: truncate, interpolate,
    clamp past the final column.  Every batched engine that replays a
    scalar interpolation loop (the combine model's read heads, scheme
    accounting) goes through this helper so the float expressions stay
    bit-identical to the serial oracles.

    The domain contract also matches :meth:`MissCurve.misses_at`
    exactly: positions past the final column clamp to it, and negative
    positions raise.  (Int truncation rounds negatives toward zero, so
    without the check a below-domain query would silently *extrapolate*
    off the first segment — diverging from the serial oracle it is
    pinned against.)
    """
    if bool((pos < 0).any()):
        raise ValueError("pos must be non-negative")
    n = matrix.shape[1] - 1
    if n == 0:
        return matrix[:, -1].copy()
    over = pos >= n
    lo = pos.astype(np.int64)
    np.minimum(lo, n - 1, out=lo)
    frac = pos - lo
    rows = np.arange(matrix.shape[0])
    interior = matrix[rows, lo] * (1 - frac) + matrix[rows, lo + 1] * frac
    return np.where(over, matrix[:, -1], interior)


def _lower_convex_hull(values: np.ndarray) -> np.ndarray:
    """Lower convex hull of ``values`` sampled at integer x positions.

    Monotone-chain over the points (i, values[i]); returns the hull
    re-sampled back onto every integer position (piecewise-linear).
    """
    n = len(values)
    if n <= 2:
        return values.astype(np.float64).copy()
    # Hull vertex stack: indices into `values`.
    stack: list[int] = []
    for i in range(n):
        while len(stack) >= 2:
            i0, i1 = stack[-2], stack[-1]
            # Keep i1 only if it lies strictly below segment (i0 -> i).
            lhs = (values[i1] - values[i0]) * (i - i0)
            rhs = (values[i] - values[i0]) * (i1 - i0)
            if lhs >= rhs:  # i1 is on/above the chord: drop it
                stack.pop()
            else:
                break
        stack.append(i)
    xs = np.asarray(stack, dtype=np.float64)
    ys = values[stack].astype(np.float64)
    return np.interp(np.arange(n, dtype=np.float64), xs, ys)


#: Scalar slide steps in a row before :func:`_lower_convex_hull_fast`
#: tries a vectorized slide window, and that window's first length (it
#: doubles while whole windows slide).  The guard keeps curves whose
#: slides are short from paying for windows that break at once.
_SLIDE_AFTER = 4
_SLIDE_WINDOW = 32


def _lower_convex_hull_fast(values: np.ndarray) -> np.ndarray:
    """Fast lower convex hull, bit-identical to :func:`_lower_convex_hull`.

    Runs the same monotone-chain scan with these exact accelerations:

    - All pop tests for *consecutive* stack tops — the test applied when
      the chain has not popped recently, i.e. almost always on smooth
      curves — are precomputed in one vectorized pass (``(v[j]-v[j-1])*2
      >= (v[j+1]-v[j-1])``, the chord test with ``i0=j-1, i1=j, i=j+1``;
      ``*2``/``*1`` are exact in IEEE so the values match the scalar
      test).  Runs with no pop are bulk-appended at C speed and the
      python loop only touches the stop points.
    - Slides: on flat stretches (most steps of a profile curve) and on
      rising ones (a cost curve past its minimum), each new point pops
      its predecessor and nothing else, so only the top vertex moves.
      After ``_SLIDE_AFTER`` such scalar steps in a row, both chord tests
      of a whole window of points are evaluated as arrays; the scan
      jumps to the first point that breaks the pattern and re-runs that
      step on the scalar path.  Windows double while they slide through.
    - Pop cascades over a consecutive stack suffix of >= 32 vertices
      are resolved as one array test.
    - The scalar fallback works on a plain python list (identical IEEE
      doubles, much cheaper indexing than numpy scalars).

    Every chord test evaluated is the same float64 expression on the same
    operands in the same order as the reference scan, so the vertex stack
    — and the interpolated hull — are bit-identical (pinned by the
    Hypothesis property tests).
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n <= 2:
        return values.copy()
    v = values.tolist()
    # stop_tops[j]: incoming j+1 pops top j when the pair (j-1, j) is on
    # top of the stack.  Everywhere else the chain cruises.
    stop_tops = (
        np.nonzero((values[1:-1] - values[:-2]) * 2.0 >= values[2:] - values[:-2])[0]
        + 1
    ).tolist()
    n_stops = len(stop_tops)
    s = 0
    stack = [0]
    # Length of the suffix of `stack` known to hold consecutive indices
    # (an understatement is fine; it only skips the vectorized paths).
    run_len = 1
    # Consecutive scalar steps that were slides (exactly one pop), and
    # the next slide window's length.
    slides = 0
    window = _SLIDE_WINDOW
    xs: np.ndarray | None = None
    i = 1
    while i < n:
        if run_len >= 2 and stack[-1] == i - 1:
            # Cruise: top pair is consecutive, so the precomputed tests
            # apply.  Bulk-push through the pop-free run (empty when the
            # very next point is a stop — fall through to the scalar
            # chain, which performs the identical test and pops).
            while s < n_stops and stop_tops[s] < i - 1:
                s += 1
            run_end = stop_tops[s] - 1 if s < n_stops else n - 1
            if run_end >= i:
                stack.extend(range(i, run_end + 1))
                run_len += run_end - i + 1
                i = run_end + 1
                continue
        if slides >= _SLIDE_AFTER:
            # Slide: the stack is [..., k, a, i-1] and each new point j
            # pops its predecessor (chord a, j-1, j) but not a (chord k,
            # a, j), so only the top vertex moves.  Evaluate both tests
            # for a window of j at once; the first j that breaks the
            # pattern goes back to the scalar chain, which re-runs its
            # step.
            if xs is None:
                xs = np.arange(n, dtype=np.float64)
            a = stack[-2]
            hi = min(i + window, n)
            va = values[a]
            vj = values[i:hi]
            slide = (values[i - 1 : hi - 1] - va) * xs[i - a : hi - a] >= (
                vj - va
            ) * xs[i - 1 - a : hi - 1 - a]
            if len(stack) >= 3:
                k = stack[-3]
                vk = values[k]
                slide &= (va - vk) * xs[i - k : hi - k] < (vj - vk) * (a - k)
            n_slid = hi - i if slide.all() else int(slide.argmin())
            if n_slid:
                i += n_slid
                stack[-1] = i - 1
            if i == hi:
                window *= 2
                continue
            slides = 0
            window = _SLIDE_WINDOW
        vi = v[i]
        popped = 0
        while len(stack) >= 2:
            if run_len >= 32:
                # Pop cascade over a consecutive suffix: every test pairs
                # (q-1, q), so all of them vectorize (``* 1`` on the rhs
                # is exact).  Pop the run of top-down successes; the run
                # bottom and deeper vertices stay on the scalar path.
                top = stack[-1]
                m = run_len - 1
                q = np.arange(top - m + 1, top + 1)
                flags = (values[q] - values[q - 1]) * (i - (q - 1)) >= (
                    values[i] - values[q - 1]
                )
                rev = flags[::-1]
                n_pop = m if rev.all() else int(rev.argmin())
                if n_pop:
                    del stack[-n_pop:]
                    run_len -= n_pop
                    popped += n_pop
                if n_pop < m:
                    break
                continue
            i1 = stack[-1]
            i0 = stack[-2]
            if (v[i1] - v[i0]) * (i - i0) >= (vi - v[i0]) * (i1 - i0):
                stack.pop()
                popped += 1
                if run_len > 1:
                    run_len -= 1
            else:
                break
        stack.append(i)
        run_len = run_len + 1 if stack[-2] == i - 1 else 1
        slides = slides + 1 if popped == 1 else 0
        i += 1
    if len(stack) == n:
        return values.copy()
    if xs is None:
        xs = np.arange(n, dtype=np.float64)
    return np.interp(xs, xs[stack], values[stack])


def prime_hull_caches(curves: Iterable["MissCurve"]) -> None:
    """Pre-fill :meth:`MissCurve.convex_hull` caches for ``curves``.

    One hull scan per curve, in a loop.  The batched engines call this
    once up front so every later ``hull_curve()`` — in scheme decisions
    and in accounting — is a cache hit.  Curves whose hull is already cached are skipped; cached values
    are bit-identical to the lazily computed ones.
    """
    for curve in curves:
        if curve._hull_cache is None:
            curve._hull_cache = _lower_convex_hull_fast(curve.misses)

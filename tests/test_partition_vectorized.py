"""Property suite for the vectorized partitioner vs. the heapq oracle.

The vectorized engine must be *bit-identical* to
``partition_cost_curves_reference`` — same sizes, same total cost — on
every input, including adversarial float patterns (exact ties, ulp-level
hull-interpolation jitter).  The same holds one layer down for the
run-skipping convex-hull scan vs. the original monotone chain.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.miss_curve import _lower_convex_hull, _lower_convex_hull_fast
from repro.curves.partition import (
    partition_cost_curves,
    partition_cost_curves_reference,
)

# Finite floats with plenty of exact collisions (integers shrink well and
# tie often) plus fractional values that exercise interpolation rounding.
curve_value = st.one_of(
    st.integers(0, 8).map(float),
    st.floats(0, 1000, allow_nan=False, allow_infinity=False),
)
cost_curve = st.lists(curve_value, min_size=2, max_size=24).map(np.array)
curve_set = st.lists(cost_curve, min_size=1, max_size=6)

# Grid-sized curves (the real grids have 401 and 1297 points), drawn as a
# few parameters and expanded with array ops.  Their long exactly-flat
# and exactly-linear stretches drive the hull scan's slide windows and
# its >= 32-vertex pop cascades, which the short curves above never
# reach.
grid_length = st.integers(300, 1300)


@st.composite
def plateau_curves(draw):
    """Arbitrary levels held for long exactly-equal runs."""
    runs = draw(
        st.lists(st.tuples(st.integers(1, 200), curve_value), min_size=1, max_size=30)
    )
    lengths, levels = zip(*runs)
    return np.resize(np.repeat(np.array(levels), lengths), draw(grid_length))


@st.composite
def profile_curves(draw):
    """Fall-then-flat miss curves: a few drops, exactly flat between them.

    A regular staircase (equal drops at equal spacing) puts every plateau
    start on one line, so chord tests meet exact collinear ties.  An
    optional smooth convex head ending in a cliff makes long pop cascades.
    """
    n = draw(grid_length)
    misses = np.zeros(n)
    if draw(st.booleans()):
        period = draw(st.integers(2, 80))
        step = draw(curve_value)
        for p in range(period, n, period)[: draw(st.integers(1, 40))]:
            misses[:p] += step
    else:
        for p, drop in draw(
            st.dictionaries(st.integers(1, n - 1), curve_value, max_size=30)
        ).items():
            misses[:p] += drop
    head = draw(st.integers(0, n // 2))
    if head:
        x = np.arange(head, dtype=np.float64)
        misses[:head] += draw(curve_value) * ((head - x) / head) ** 2
    return misses + draw(curve_value)


@st.composite
def u_cost_curves(draw):
    """Partition cost curves: scaled misses plus a latency term rising
    with size, linearly or in steps, so the curve falls then rises."""
    misses = draw(profile_curves())
    width = draw(st.integers(1, 50))
    steps = np.arange(len(misses)) // width
    return misses * draw(curve_value) + steps * draw(curve_value)


class TestHullEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(curve_value, min_size=1, max_size=60).map(np.array))
    def test_fast_hull_bit_identical(self, values):
        got = _lower_convex_hull_fast(values)
        want = _lower_convex_hull(values)
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(plateau_curves(), profile_curves(), u_cost_curves()))
    def test_fast_hull_bit_identical_on_grid_sized_curves(self, values):
        got = _lower_convex_hull_fast(values)
        want = _lower_convex_hull(values)
        assert np.array_equal(got, want)

    def test_fast_hull_convex_decay_with_cliffs(self):
        """The shape the partitioner actually sees (hulled latency curves)."""
        rng = np.random.default_rng(5)
        for __ in range(20):
            gains = np.sort(rng.exponential(1.0, size=200)) + 1e-9
            vals = np.concatenate([[0.0], np.cumsum(gains)])[::-1].copy()
            vals[: int(rng.integers(1, 200))] += rng.uniform(1, 10)
            assert np.array_equal(
                _lower_convex_hull_fast(vals), _lower_convex_hull(vals)
            )


class TestAllocatorEquality:
    @settings(max_examples=200, deadline=None)
    @given(curve_set, st.integers(1, 64))
    def test_bit_identical_to_reference(self, curves, total):
        got_sizes, got_cost = partition_cost_curves(
            [c.copy() for c in curves], total
        )
        want_sizes, want_cost = partition_cost_curves_reference(
            [c.copy() for c in curves], total
        )
        assert got_sizes == want_sizes
        assert got_cost == want_cost  # exact, not approx

    @settings(max_examples=150, deadline=None)
    @given(curve_set, st.integers(1, 64))
    def test_sizes_sum_within_budget(self, curves, total):
        sizes, __ = partition_cost_curves(curves, total)
        assert len(sizes) == len(curves)
        assert all(s >= 0 for s in sizes)
        assert sum(sizes) <= total
        assert all(s <= len(c) - 1 for s, c in zip(sizes, curves))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(curve_value, min_size=2, max_size=6).map(np.array),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 12),
    )
    def test_optimal_vs_bruteforce_dp(self, curves, total):
        """On tiny inputs, the greedy cost matches the exhaustive optimum
        over the hulls (greedy is optimal on convex curves)."""
        __, cost = partition_cost_curves([c.copy() for c in curves], total)
        hulls = [_lower_convex_hull(np.asarray(c, dtype=np.float64)) for c in curves]
        best = min(
            sum(h[s] for h, s in zip(hulls, combo))
            for combo in itertools.product(
                *(range(len(h)) for h in hulls)
            )
            if sum(combo) <= total
        )
        assert cost == pytest.approx(best, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(curve_set, st.integers(1, 40))
    def test_allocation_monotone_in_capacity(self, curves, total):
        """More capacity never shrinks any consumer's allocation."""
        small, __ = partition_cost_curves([c.copy() for c in curves], total)
        large, __ = partition_cost_curves([c.copy() for c in curves], total + 1)
        assert all(lg >= sm for sm, lg in zip(small, large))


class TestValidationRegressions:
    """The silent fall-through cases now fail loudly."""

    def test_empty_curve_list(self):
        with pytest.raises(ValueError, match="must not be empty"):
            partition_cost_curves([], 4)

    @pytest.mark.parametrize("total", [0, -1, -100])
    def test_non_positive_capacity(self, total):
        with pytest.raises(ValueError, match="total_chunks must be positive"):
            partition_cost_curves([np.array([3.0, 1.0])], total)

    def test_single_point_curve(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            partition_cost_curves([np.array([7.0])], 4)

    def test_two_dimensional_curve(self):
        with pytest.raises(ValueError, match="1-D"):
            partition_cost_curves([np.zeros((2, 2))], 4)

    def test_error_names_offending_curve(self):
        with pytest.raises(ValueError, match="cost curve 1"):
            partition_cost_curves([np.array([3.0, 1.0]), np.array([7.0])], 4)


class TestPartitionedCurveBatch:
    """Batched optimal-split curves vs the serial ``partitioned_miss_curve``."""

    @staticmethod
    def _curve(values, instr=1000.0):
        from repro.curves.miss_curve import MissCurve

        values = np.asarray(values, dtype=float)
        return MissCurve(
            misses=values,
            chunk_bytes=1024,
            accesses=float(values[0]),
            instructions=instr,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(curve_value, min_size=2, max_size=24),
                st.floats(1e-6, 1e7, allow_nan=False),
                st.lists(curve_value, min_size=2, max_size=24),
                st.floats(1e-6, 1e7, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_batch_bit_identical_to_serial(self, specs):
        from repro.curves.partition import (
            partitioned_miss_curve,
            partitioned_miss_curve_batch,
        )

        pairs = [
            (self._curve(va, ia), self._curve(vb, ib))
            for va, ia, vb, ib in specs
        ]
        got = partitioned_miss_curve_batch(pairs)
        for (a, b), g in zip(pairs, got):
            want = partitioned_miss_curve(a, b)
            assert np.array_equal(g.misses, want.misses)
            assert g.chunk_bytes == want.chunk_bytes
            assert g.accesses == want.accesses
            assert g.instructions == want.instructions

    def test_shared_curves_hull_primed_once(self):
        """A curve appearing in many pairs yields the same rows as serial."""
        from repro.curves.partition import (
            partitioned_miss_curve,
            partitioned_miss_curve_batch,
        )

        rng = np.random.default_rng(9)
        shared = self._curve(np.sort(rng.uniform(0, 100, 17))[::-1].copy())
        others = [
            self._curve(np.sort(rng.uniform(0, 100, 17))[::-1].copy())
            for __ in range(4)
        ]
        pairs = [(shared, o) for o in others]
        got = partitioned_miss_curve_batch(pairs)
        for (a, b), g in zip(pairs, got):
            assert np.array_equal(
                g.misses, partitioned_miss_curve(a, b).misses
            )

    def test_empty_batch(self):
        from repro.curves.partition import partitioned_miss_curve_batch

        assert partitioned_miss_curve_batch([]) == []

    def test_chunk_mismatch_rejected(self):
        from repro.curves.miss_curve import MissCurve
        from repro.curves.partition import partitioned_miss_curve_batch

        a = self._curve([2.0, 1.0])
        b = MissCurve(np.array([2.0, 1.0]), 2048, 2.0, 1000.0)
        with pytest.raises(ValueError, match="chunk_bytes"):
            partitioned_miss_curve_batch([(a, b)])

    def test_rate_rows_shape_mismatch_rejected(self):
        from repro.curves.partition import partitioned_rate_rows

        with pytest.raises(ValueError, match="shape"):
            partitioned_rate_rows(np.zeros((2, 5)), np.zeros((2, 6)))

"""Unit tests for stack-distance profiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import (
    StackDistanceProfiler,
    miss_curve_from_distances,
    stack_distances,
    stack_distances_reference,
)
from repro.curves.reuse import COLD


def brute_force_distances(lines):
    """O(n^2) reference: distinct lines since the previous access."""
    out = []
    last = {}
    for i, addr in enumerate(lines):
        if addr in last:
            out.append(len(set(lines[last[addr] + 1 : i])))
        else:
            out.append(COLD)
        last[addr] = i
    return np.array(out, dtype=np.int64)


class TestStackDistances:
    def test_empty_trace(self):
        assert len(stack_distances(np.array([], dtype=np.int64))) == 0

    def test_all_cold(self):
        dist = stack_distances(np.array([1, 2, 3, 4]))
        assert np.all(dist == COLD)

    def test_immediate_reuse_is_zero(self):
        dist = stack_distances(np.array([7, 7]))
        assert dist[1] == 0

    def test_classic_example(self):
        # a b c a : distance of the second 'a' is 2 (b, c touched between).
        dist = stack_distances(np.array([1, 2, 3, 1]))
        assert dist[3] == 2

    def test_repeated_intermediate_counts_once(self):
        # a b b b a : only one distinct line between the two a's.
        dist = stack_distances(np.array([1, 2, 2, 2, 1]))
        assert dist[4] == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=0, max_size=120))
    def test_matches_brute_force(self, lines):
        got = stack_distances(np.array(lines, dtype=np.int64))
        want = brute_force_distances(lines)
        assert np.array_equal(got, want)


class TestVectorizedEngineVsReference:
    """The vectorized engine must be bit-identical to the Fenwick oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=0, max_size=400),
        st.sampled_from([0, 1, 10**9, 2**40]),
    )
    def test_identical_distance_arrays(self, lines, offset):
        arr = np.array(lines, dtype=np.int64) + offset
        assert np.array_equal(
            stack_distances(arr), stack_distances_reference(arr)
        )

    def test_single_element(self):
        got = stack_distances(np.array([7]))
        assert np.array_equal(got, stack_distances_reference(np.array([7])))
        assert got[0] == COLD

    def test_all_duplicates(self):
        arr = np.full(257, 3, dtype=np.int64)
        assert np.array_equal(
            stack_distances(arr), stack_distances_reference(arr)
        )

    def test_all_cold(self):
        arr = np.arange(1000, dtype=np.int64) * 9973
        got = stack_distances(arr)
        assert np.array_equal(got, stack_distances_reference(arr))
        assert np.all(got == COLD)

    def test_larger_than_chunk_boundaries(self):
        # Crosses the engine's internal chunking (powers of two +/- 1).
        rng = np.random.default_rng(11)
        for n in (4095, 4096, 4097, 70000):
            arr = rng.integers(0, 500, size=n)
            assert np.array_equal(
                stack_distances(arr), stack_distances_reference(arr)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 31), min_size=1, max_size=300),
        # Small ids plus CRC-scale callpoint ids (31-bit hashes).
        regions=st.lists(
            st.sampled_from([0, 1, 7, 2**31 - 2, 2**31 - 1]),
            min_size=1,
            max_size=300,
        ),
        n_intervals=st.integers(1, 4),
        sample_shift=st.sampled_from([0, 3]),
    )
    def test_profiler_curves_match_reference_engine(
        self, lines, regions, n_intervals, sample_shift
    ):
        """Full MissCurve equality at sample_shift 0 and 3.

        The reference computation mirrors the pre-vectorization profiler:
        per-region re-slicing with Fenwick distances.  It is the one
        independent oracle of :meth:`StackDistanceProfiler.profile`.
        """
        n = min(len(lines), len(regions))
        # Spread line values so the sampling hash selects a non-trivial
        # subset.
        lines = np.array(lines[:n], dtype=np.int64) * 977
        regions = np.array(regions[:n], dtype=np.int32)
        prof = StackDistanceProfiler(
            chunk_bytes=1024, n_chunks=6, sample_shift=sample_shift
        )
        got = prof.profile(lines, regions, 1e4, n_intervals=n_intervals)
        scale = float(1 << sample_shift)
        bounds = np.linspace(0, n, n_intervals + 1).astype(np.int64)
        assert sorted(got) == sorted(np.unique(regions).tolist())
        for rid in np.unique(regions).tolist():
            idx = np.nonzero(regions == rid)[0]
            r_lines = lines[idx]
            keep = prof._sample_mask(r_lines)
            kept_idx = idx[keep]
            dist = stack_distances_reference(r_lines[keep])
            assert len(got[rid]) == n_intervals
            for t in range(n_intervals):
                lo, hi = bounds[t], bounds[t + 1]
                window = (kept_idx >= lo) & (kept_idx < hi)
                n_acc = int(np.count_nonzero((idx >= lo) & (idx < hi)))
                want = miss_curve_from_distances(
                    dist[window],
                    chunk_bytes=1024,
                    n_chunks=6,
                    instructions=1e4 / n_intervals,
                    scale=scale,
                    distance_scale=scale,
                )
                curve = got[rid][t]
                assert curve.accesses == float(n_acc)
                if want.accesses > 0:
                    expect = want.misses * (n_acc / want.accesses)
                else:
                    expect = np.full(7, float(n_acc))
                assert np.array_equal(curve.misses, expect)


class TestMissCurveFromDistances:
    def test_cold_misses_at_every_size(self):
        dist = np.array([COLD, COLD], dtype=np.int64)
        curve = miss_curve_from_distances(
            dist, chunk_bytes=128, n_chunks=4, instructions=1000.0
        )
        assert np.all(curve.misses == 2)

    def test_zero_distance_hits_beyond_size_zero(self):
        dist = np.array([0], dtype=np.int64)
        curve = miss_curve_from_distances(
            dist, chunk_bytes=128, n_chunks=4, instructions=1000.0
        )
        assert curve.misses[0] == 1  # size 0 always misses
        assert curve.misses[1] == 0

    def test_boundary_distance(self):
        # distance exactly lines_per_chunk misses at 1 chunk, hits at 2.
        dist = np.array([2], dtype=np.int64)  # 2 lines = 1 chunk of 128B
        curve = miss_curve_from_distances(
            dist, chunk_bytes=128, n_chunks=4, instructions=1000.0, line_bytes=64
        )
        assert curve.misses[1] == 1
        assert curve.misses[2] == 0

    def test_scale_applied(self):
        dist = np.array([COLD], dtype=np.int64)
        curve = miss_curve_from_distances(
            dist, chunk_bytes=128, n_chunks=2, instructions=1.0, scale=16.0
        )
        assert curve.misses[0] == 16
        assert curve.accesses == 16

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        dist = rng.integers(0, 100, size=500)
        curve = miss_curve_from_distances(
            dist, chunk_bytes=256, n_chunks=30, instructions=1000.0
        )
        assert np.all(np.diff(curve.misses) <= 0)


class TestProfiler:
    def make_trace(self, n=4000, ws_lines=100, seed=1):
        rng = np.random.default_rng(seed)
        return rng.integers(0, ws_lines, size=n).astype(np.int64)

    def test_lru_semantics_working_set_fits(self):
        """A trace over W distinct lines has ~zero misses beyond W lines."""
        lines = self.make_trace(ws_lines=64)
        prof = StackDistanceProfiler(chunk_bytes=64 * 64, n_chunks=4)
        curve = prof.profile_combined(lines, instructions=len(lines) * 10)[0]
        # At >= 1 chunk (64 lines) everything but cold misses hits.
        assert curve.misses[1] == pytest.approx(64, abs=1)
        assert curve.misses[0] == len(lines)

    def test_regions_profiled_independently(self):
        lines = np.array([0, 100, 0, 100, 0, 100], dtype=np.int64)
        regions = np.array([0, 1, 0, 1, 0, 1], dtype=np.int32)
        prof = StackDistanceProfiler(chunk_bytes=64, n_chunks=4)
        out = prof.profile(lines, regions, instructions=600.0)
        # Each region re-touches its single line: distance 0, so one cold
        # miss each at any non-zero size.
        assert out[0][0].misses[1] == 1
        assert out[1][0].misses[1] == 1

    def test_interval_split_preserves_access_totals(self):
        lines = self.make_trace()
        regions = np.zeros(len(lines), dtype=np.int32)
        prof = StackDistanceProfiler(chunk_bytes=4096, n_chunks=8)
        out = prof.profile(lines, regions, instructions=40000.0, n_intervals=4)
        total = sum(c.accesses for c in out[0])
        assert total == len(lines)

    def test_sampling_approximates_exact(self):
        lines = self.make_trace(n=20000, ws_lines=2000, seed=3)
        exact = StackDistanceProfiler(chunk_bytes=8192, n_chunks=32)
        sampled = StackDistanceProfiler(chunk_bytes=8192, n_chunks=32, sample_shift=2)
        c_exact = exact.profile_combined(lines, instructions=1e5)[0]
        c_sample = sampled.profile_combined(lines, instructions=1e5)[0]
        # Within 20% at mid sizes (set sampling is unbiased).
        mid = 8
        assert c_sample.misses[mid] == pytest.approx(c_exact.misses[mid], rel=0.25)

    @pytest.mark.parametrize("n_intervals", [1, 3])
    def test_zero_records_profile_to_nothing(self, n_intervals):
        prof = StackDistanceProfiler(chunk_bytes=64, n_chunks=2)
        got = prof.profile(
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            instructions=1.0,
            n_intervals=n_intervals,
        )
        assert got == {}

    def test_mismatched_lengths_rejected(self):
        prof = StackDistanceProfiler(chunk_bytes=64, n_chunks=2)
        with pytest.raises(ValueError):
            prof.profile(np.zeros(3), np.zeros(2), instructions=1.0)

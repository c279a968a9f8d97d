"""Many chunks vs one chunk: bit-identical profiles, any chunk size.

The acceptance contract of the chunk decomposition: for every chunk
size, interval count and sampling shift,
:class:`StreamingStackProfiler` pushing a :class:`TraceSource` through
the profiling engine chunk by chunk produces *exactly* the curves
:meth:`StackDistanceProfiler.profile` produces by pushing the
materialized arrays as one chunk — same floats, not just close ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.reuse import StackDistanceProfiler
from repro.ingest import (
    ArraySource,
    IterableSource,
    RTraceSource,
    StreamingStackProfiler,
    TraceChunk,
    convert_to_rtrace,
)
from repro.sim.profiling import profile_vcs
from repro.workloads.trace import Trace


def assert_identical(got, want):
    assert sorted(got) == sorted(want)
    for rid in want:
        assert len(got[rid]) == len(want[rid])
        for cg, cw in zip(got[rid], want[rid]):
            assert np.array_equal(cg.misses, cw.misses)
            assert cg.accesses == cw.accesses
            assert cg.instructions == cw.instructions
            assert cg.chunk_bytes == cw.chunk_bytes


def run_both(lines, regions, instructions, n_intervals, chunk, shift):
    mem = StackDistanceProfiler(
        chunk_bytes=512, n_chunks=9, line_bytes=64, sample_shift=shift
    )
    want = mem.profile(lines, regions, instructions, n_intervals=n_intervals)
    source = ArraySource(
        addrs=lines * 64, regions=regions, instructions=instructions
    )
    got = StreamingStackProfiler(
        chunk_bytes=512, n_chunks=9, line_bytes=64, sample_shift=shift
    ).profile_source(source, n_intervals=n_intervals, chunk_records=chunk)
    assert_identical(got, want)


class TestStreamingEqualsInMemory:
    @settings(max_examples=120, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 40), min_size=1, max_size=300),
        regions=st.lists(st.integers(0, 4), min_size=1, max_size=300),
        n_intervals=st.integers(1, 4),
        chunk=st.integers(1, 64),
    )
    def test_any_chunk_size_exact(self, lines, regions, n_intervals, chunk):
        n = min(len(lines), len(regions))
        run_both(
            np.array(lines[:n], dtype=np.int64),
            np.array(regions[:n], dtype=np.int32),
            float(n) * 11.0,
            n_intervals,
            chunk,
            shift=0,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        chunk=st.integers(1, 200),
        shift=st.sampled_from([0, 2, 3]),
        n_intervals=st.integers(1, 5),
    )
    def test_sampled_streams_exact(self, seed, chunk, shift, n_intervals):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 600))
        run_both(
            rng.integers(0, 80, n).astype(np.int64),
            rng.integers(0, 5, n).astype(np.int32),
            float(n) * 7.0,
            n_intervals,
            chunk,
            shift,
        )

    def test_large_trace_small_chunks(self):
        # Many chunk boundaries inside long reuse windows.
        rng = np.random.default_rng(9)
        n = 20_000
        lines = rng.integers(0, 2000, n).astype(np.int64)
        regions = rng.integers(0, 6, n).astype(np.int32)
        run_both(lines, regions, n * 5.0, n_intervals=4, chunk=97, shift=0)

    def test_chunk_size_one(self):
        rng = np.random.default_rng(2)
        n = 300
        run_both(
            rng.integers(0, 20, n).astype(np.int64),
            rng.integers(0, 3, n).astype(np.int32),
            n * 3.0,
            n_intervals=3,
            chunk=1,
            shift=0,
        )

    def test_single_region_none_regions(self):
        # Sources without regions profile as a single region 0.
        rng = np.random.default_rng(4)
        lines = rng.integers(0, 50, 500).astype(np.int64)
        mem = StackDistanceProfiler(chunk_bytes=512, n_chunks=9)
        want = mem.profile_combined(lines, 5000.0, n_intervals=2)
        source = ArraySource(addrs=lines * 64, instructions=5000.0)
        got = StreamingStackProfiler(
            chunk_bytes=512, n_chunks=9
        ).profile_source(source, n_intervals=2, chunk_records=37)
        assert_identical({0: got[0]}, {0: want})


class TestStreamingFromArchive:
    def test_rtrace_streams_identically(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 3000
        trace = Trace(
            lines=rng.integers(0, 300, n),
            regions=rng.integers(0, 3, n).astype(np.int32),
            instructions=n * 8.0,
        )
        path = tmp_path / "t.rtrace"
        convert_to_rtrace(
            ArraySource.from_trace(trace), path, max_records=271
        )
        mem = StackDistanceProfiler(chunk_bytes=1024, n_chunks=6)
        want = mem.profile(
            trace.lines, trace.regions, trace.instructions, n_intervals=3
        )
        got = StreamingStackProfiler(
            chunk_bytes=1024, n_chunks=6
        ).profile_source(RTraceSource(path), n_intervals=3, chunk_records=113)
        assert_identical(got, want)

    def test_mapping_matches_profile_vcs(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 2000
        trace = Trace(
            lines=rng.integers(0, 200, n),
            regions=rng.integers(0, 5, n).astype(np.int32),
            instructions=n * 4.0,
        )
        mapping = {0: 0, 1: 1, 2: 1, 3: 0, 4: 2}
        want = profile_vcs(
            trace, mapping, chunk_bytes=512, n_chunks=8, n_intervals=2,
            use_cache=False,
        )
        got = StreamingStackProfiler(
            chunk_bytes=512, n_chunks=8, line_bytes=trace.line_bytes
        ).profile_source(
            ArraySource.from_trace(trace),
            n_intervals=2,
            chunk_records=173,
            mapping=mapping,
        )
        assert_identical(got, want)


class TestStreamingErrors:
    def test_missing_instructions_rejected(self):
        source = ArraySource(addrs=np.array([64, 128]))
        with pytest.raises(ValueError, match="instruction"):
            StreamingStackProfiler(chunk_bytes=512, n_chunks=4).profile_source(
                source
            )

    def test_lying_source_rejected(self):
        class Short(ArraySource):
            def chunks(self, max_records=1 << 21):
                it = super().chunks(max_records)
                next(it)  # drop the first chunk
                yield from it

        source = Short(addrs=np.arange(100) * 64, instructions=1000.0)
        with pytest.raises(ValueError, match="declared"):
            StreamingStackProfiler(chunk_bytes=512, n_chunks=4).profile_source(
                source, chunk_records=30
            )

    def test_overlong_source_rejected(self):
        class Long(ArraySource):
            def chunks(self, max_records=1 << 21):
                yield from super().chunks(max_records)
                yield TraceChunk(addrs=np.array([64, 128], dtype=np.int64))

        source = Long(addrs=np.arange(100) * 64, instructions=1000.0)
        with pytest.raises(ValueError, match="more than its declared"):
            StreamingStackProfiler(chunk_bytes=512, n_chunks=4).profile_source(
                source, chunk_records=30
            )

    def test_zero_record_source_rejected(self):
        # Regression: used to return silently-empty curve dicts.
        source = ArraySource(
            addrs=np.array([], dtype=np.int64), instructions=10.0
        )
        with pytest.raises(ValueError, match="source yielded no records"):
            StreamingStackProfiler(chunk_bytes=512, n_chunks=4).profile_source(
                source
            )

    def test_unbounded_source_rejected(self):
        def gen():
            yield TraceChunk(addrs=np.array([64, 128], dtype=np.int64))

        source = IterableSource(gen(), instructions=100.0)
        with pytest.raises(ValueError, match="unbounded"):
            StreamingStackProfiler(chunk_bytes=512, n_chunks=4).profile_source(
                source
            )

    def test_bad_n_intervals_rejected(self):
        source = ArraySource(addrs=np.arange(10) * 64, instructions=100.0)
        with pytest.raises(ValueError, match="n_intervals"):
            StreamingStackProfiler(chunk_bytes=512, n_chunks=4).profile_source(
                source, n_intervals=0
            )


class TestIntervalBoundaries:
    """Satellite pins for ``_count_accesses`` / ``_accumulate`` edges.

    The audit of the chunk-straddles-interval-boundary arithmetic found
    no off-by-one, so these pin the cases it checked: a chunk ending
    exactly on an interval bound, single-record chunks, and empty
    intervals (``n_intervals > n_records`` makes ``linspace`` repeat
    bounds).
    """

    def test_chunk_ends_exactly_on_interval_bound(self):
        # n=120, 4 intervals -> bounds at 0/30/60/90/120; chunk=30 makes
        # every chunk boundary coincide with an interval boundary.
        rng = np.random.default_rng(7)
        n = 120
        run_both(
            rng.integers(0, 30, n).astype(np.int64),
            rng.integers(0, 3, n).astype(np.int32),
            n * 2.0,
            n_intervals=4,
            chunk=30,
            shift=0,
        )

    def test_single_record_chunks_across_bounds(self):
        rng = np.random.default_rng(8)
        n = 23
        run_both(
            rng.integers(0, 10, n).astype(np.int64),
            rng.integers(0, 2, n).astype(np.int32),
            n * 2.0,
            n_intervals=7,
            chunk=1,
            shift=0,
        )

    def test_more_intervals_than_records(self):
        # linspace(0, 5, 17) repeats bounds -> empty intervals between
        # t0 and t1; many chunks must emit the same zero-access curves
        # one chunk does.
        rng = np.random.default_rng(9)
        n = 5
        for chunk in (1, 2, 64):
            run_both(
                rng.integers(0, 6, n).astype(np.int64),
                rng.integers(0, 2, n).astype(np.int32),
                n * 3.0,
                n_intervals=16,
                chunk=chunk,
                shift=0,
            )

    def test_access_counts_per_interval_match_repeat_semantics(self):
        # A record's interval is np.repeat over np.diff(bounds) (empty
        # intervals own no records); pin the streaming access tallies
        # against that directly.
        lines = np.arange(10, dtype=np.int64)
        regions = np.zeros(10, dtype=np.int32)
        n_intervals = 3
        bounds = np.linspace(0, 10, n_intervals + 1).astype(np.int64)
        interval_of = np.repeat(np.arange(n_intervals), np.diff(bounds))
        want = np.bincount(interval_of, minlength=n_intervals)
        prof = StreamingStackProfiler(chunk_bytes=512, n_chunks=4).begin(
            bounds
        )
        for start in range(0, 10, 3):  # chunk=3 straddles both bounds
            prof.push_chunk(
                TraceChunk(
                    addrs=lines[start : start + 3] * 64,
                    regions=regions[start : start + 3],
                )
            )
        got = prof._acc[0].accesses[:n_intervals]
        assert np.array_equal(got, want)


class TestOpenEndedEpochs:
    """``begin()`` + ``open_interval`` equals the sized one-shot path."""

    def test_manual_epochs_match_profile_source(self):
        rng = np.random.default_rng(11)
        n = 400
        lines = rng.integers(0, 40, n).astype(np.int64)
        regions = rng.integers(0, 3, n).astype(np.int32)
        kw = dict(chunk_bytes=512, n_chunks=9, line_bytes=64, sample_shift=0)
        want = StreamingStackProfiler(**kw).profile_source(
            ArraySource(addrs=lines * 64, regions=regions, instructions=n * 4.0),
            n_intervals=4,
            chunk_records=64,
        )
        prof = StreamingStackProfiler(**kw).begin()
        for end in np.linspace(0, n, 5).astype(np.int64)[1:]:
            prof.open_interval(int(end))
        for start in range(0, n, 64):
            prof.push_chunk(
                TraceChunk(
                    addrs=lines[start : start + 64] * 64,
                    regions=regions[start : start + 64],
                )
            )
        assert_identical(prof.finalize(n * 4.0), want)

    def test_push_past_open_bound_rejected(self):
        prof = StreamingStackProfiler(chunk_bytes=512, n_chunks=4).begin()
        prof.open_interval(3)
        with pytest.raises(ValueError, match="open_interval"):
            prof.push_chunk(
                TraceChunk(addrs=np.array([0, 64, 128, 192], dtype=np.int64))
            )

    def test_open_interval_must_extend(self):
        prof = StreamingStackProfiler(chunk_bytes=512, n_chunks=4).begin()
        prof.open_interval(5)
        with pytest.raises(ValueError, match="extend"):
            prof.open_interval(5)


class TestIterableSource:
    def test_one_shot_replay_rejected(self):
        def gen():
            yield TraceChunk(addrs=np.array([64], dtype=np.int64))

        source = IterableSource(gen())
        assert source.n_records is None
        list(source.chunks())
        with pytest.raises(ValueError, match="one-shot"):
            list(source.chunks())

    def test_oversized_producer_chunks_are_split(self):
        def gen():
            yield TraceChunk(addrs=np.arange(10, dtype=np.int64) * 64)

        got = list(IterableSource(gen()).chunks(max_records=4))
        assert [len(c) for c in got] == [4, 4, 2]
        joined = np.concatenate([c.addrs for c in got])
        assert np.array_equal(joined, np.arange(10) * 64)

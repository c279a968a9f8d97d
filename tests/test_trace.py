"""Unit tests for trace containers and the trace builder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import HeapAllocator
from repro.workloads.trace import Trace, TraceBuilder, interleave


class TestTrace:
    def make(self):
        return Trace(
            lines=np.array([1, 2, 3, 1]),
            regions=np.array([0, 1, 1, 0]),
            instructions=4000.0,
            region_names={0: "a", 1: "b"},
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace(lines=np.zeros(2), regions=np.zeros(3), instructions=1.0)

    def test_nonpositive_instructions_rejected(self):
        with pytest.raises(ValueError):
            Trace(lines=np.zeros(2), regions=np.zeros(2), instructions=0.0)

    def test_apki(self):
        assert self.make().apki == 1.0

    def test_region_apki(self):
        apki = self.make().region_apki()
        assert apki[0] == pytest.approx(0.5)
        assert apki[1] == pytest.approx(0.5)

    def test_region_footprint(self):
        fp = self.make().region_footprint_bytes()
        assert fp[0] == 64  # one distinct line
        assert fp[1] == 128  # two distinct lines

    def test_region_footprint_matches_per_region_unique(self):
        """The lexsort pass equals the per-region np.unique oracle."""
        rng = np.random.default_rng(42)
        for n in (1, 7, 1000):
            trace = Trace(
                lines=rng.integers(0, 40, n),
                regions=rng.integers(0, 6, n).astype(np.int32),
                instructions=1000.0,
            )
            want = {
                int(rid): int(
                    len(np.unique(trace.lines[trace.regions == rid])) * 64
                )
                for rid in np.unique(trace.regions)
            }
            assert trace.region_footprint_bytes() == want

    def test_region_footprint_empty_trace_raises_nothing(self):
        # Trace forbids zero instructions but not zero accesses.
        trace = Trace(
            lines=np.array([], dtype=np.int64),
            regions=np.array([], dtype=np.int32),
            instructions=1.0,
        )
        assert trace.region_footprint_bytes() == {}

    def test_slice_prorates_instructions(self):
        t = self.make().slice_accesses(0, 2)
        assert len(t) == 2
        assert t.instructions == pytest.approx(2000.0)

    def test_empty_slice_is_valid(self):
        # Regression: an empty window used to produce instructions == 0,
        # which Trace.__post_init__ rejects.
        for lo, hi in ((2, 2), (0, 0), (3, 1)):
            t = self.make().slice_accesses(lo, hi)
            assert len(t) == 0
            assert t.instructions > 0

    def test_empty_slice_apki_is_zero(self):
        assert self.make().slice_accesses(1, 1).apki == 0.0


class TestTraceValidation:
    """Malformed address input is a real path once ingestion exists."""

    def test_negative_lines_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trace(
                lines=np.array([1, -2, 3]),
                regions=np.zeros(3, dtype=np.int32),
                instructions=1.0,
            )

    def test_float_lines_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Trace(
                lines=np.array([1.5, 2.0]),
                regions=np.zeros(2, dtype=np.int32),
                instructions=1.0,
            )

    def test_float_regions_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Trace(
                lines=np.array([1, 2]),
                regions=np.array([0.0, 1.0]),
                instructions=1.0,
            )

    def test_negative_regions_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Trace(
                lines=np.array([1, 2]),
                regions=np.array([0, -1]),
                instructions=1.0,
            )

    def test_empty_float_arrays_allowed(self):
        # numpy defaults [] to float64; empty traces stay constructible.
        t = Trace(lines=np.array([]), regions=np.array([]), instructions=1.0)
        assert len(t) == 0
        assert t.lines.dtype == np.int64

    def test_builder_rejects_negative_addresses(self):
        tb = TraceBuilder()
        r = tb.region("data")
        with pytest.raises(ValueError, match="non-negative"):
            tb.access(np.array([0, -64]), r)

    def test_builder_rejects_float_addresses(self):
        tb = TraceBuilder()
        r = tb.region("data")
        with pytest.raises(ValueError, match="integer"):
            tb.access(np.array([0.5, 64.0]), r)

    def test_builder_rejects_negative_interleaved(self):
        tb = TraceBuilder()
        ra = tb.region("a")
        rb = tb.region("b")
        with pytest.raises(ValueError, match="non-negative"):
            tb.access_interleaved(
                {ra: np.array([0, 64]), rb: np.array([-128])}
            )

    def test_uint_addresses_accepted(self):
        tb = TraceBuilder()
        r = tb.region("data")
        tb.access(np.array([0, 64], dtype=np.uint64), r)
        assert tb.n_accesses == 2

    def test_uint64_overflow_rejected(self):
        # Kernel-space addresses >= 2^63 would wrap negative in the
        # int64 cast instead of staying validated.
        with pytest.raises(ValueError, match="range"):
            Trace(
                lines=np.array([2**63], dtype=np.uint64),
                regions=np.zeros(1, dtype=np.int32),
                instructions=1.0,
            )

    def test_region_int32_overflow_rejected(self):
        with pytest.raises(ValueError, match="range"):
            Trace(
                lines=np.array([1]),
                regions=np.array([2**31]),
                instructions=1.0,
            )


class TestInterleave:
    def test_proportional(self):
        a = np.array([1, 1, 1, 1])
        b = np.array([2, 2])
        merged, src = interleave(a, b)
        assert len(merged) == 6
        # b's elements land near positions 1/4 and 3/4 of the stream.
        positions = np.nonzero(src == 1)[0]
        assert positions[0] in (1, 2)
        assert positions[1] in (4, 5)

    def test_preserves_order_within_stream(self):
        a = np.array([10, 20, 30])
        b = np.array([1, 2, 3])
        merged, src = interleave(a, b)
        assert list(merged[src == 0]) == [10, 20, 30]
        assert list(merged[src == 1]) == [1, 2, 3]

    def test_empty_streams_skipped(self):
        merged, src = interleave(np.array([]), np.array([5]))
        assert list(merged) == [5]
        assert list(src) == [1]

    def test_all_empty(self):
        merged, src = interleave(np.array([]), np.array([]))
        assert len(merged) == 0


class TestTraceBuilder:
    def test_basic_flow(self):
        tb = TraceBuilder()
        r = tb.region("data")
        tb.access(np.array([0, 64, 128]), r)
        trace = tb.finalize(instructions=3000.0)
        assert list(trace.lines) == [0, 1, 2]
        assert trace.region_names[r] == "data"

    def test_unregistered_region_rejected(self):
        tb = TraceBuilder()
        with pytest.raises(ValueError):
            tb.access(np.array([0]), 99)

    def test_empty_finalize_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder().finalize(instructions=1.0)

    def test_region_with_allocation_uses_callpoint(self):
        heap = HeapAllocator()
        a = heap.malloc(100)
        tb = TraceBuilder()
        rid = tb.region("x", a)
        assert rid == a.callpoint

    def test_distinct_auto_region_ids(self):
        tb = TraceBuilder()
        assert tb.region("a") != tb.region("b")

    def test_callpoint_collision_rejected(self):
        # Regression: two allocations sharing a callpoint id used to
        # silently overwrite the first region's name.
        heap = HeapAllocator()
        a = heap.malloc(100, callpoint=42)
        b = heap.malloc(200, callpoint=42)
        tb = TraceBuilder()
        tb.region("first", a)
        with pytest.raises(ValueError, match="callpoint collision"):
            tb.region("second", b)

    def test_callpoint_reregistration_same_name_ok(self):
        heap = HeapAllocator()
        a = heap.malloc(100, callpoint=42)
        tb = TraceBuilder()
        assert tb.region("x", a) == tb.region("x", a) == 42

    def test_callpoint_collision_with_auto_id_rejected(self):
        heap = HeapAllocator()
        a = heap.malloc(100, callpoint=0)
        tb = TraceBuilder()
        tb.region("auto")  # takes id 0
        with pytest.raises(ValueError, match="callpoint collision"):
            tb.region("allocated", a)

    def test_interleaved_accesses(self):
        tb = TraceBuilder()
        ra = tb.region("a")
        rb = tb.region("b")
        tb.access_interleaved({ra: np.array([0, 64]), rb: np.array([128, 192])})
        trace = tb.finalize(1000.0)
        assert len(trace) == 4
        assert set(trace.regions.tolist()) == {ra, rb}

    def test_n_accesses(self):
        tb = TraceBuilder()
        r = tb.region("a")
        tb.access(np.array([0, 64]), r)
        assert tb.n_accesses == 2

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(st.integers(0, 6), min_size=0, max_size=12),
            ),
            min_size=1,
            max_size=8,
        ),
        st.booleans(),
    )
    def test_finalize_matches_per_access_dedup(self, chunks, dedup):
        """Dedup drops an access iff its region's previous access touched
        the same line; finalize keeps the builder's chunks intact."""
        tb = TraceBuilder()
        ids = [tb.region(f"r{k}") for k in range(3)]
        for k, lines in chunks:
            tb.access(np.array(lines, dtype=np.int64) * 64 + k, ids[k])
        if tb.n_accesses == 0:
            return
        before = [c.copy() for c in tb._chunks]
        trace = tb.finalize(instructions=1000.0, dedup=dedup)
        want_lines, want_regions, last = [], [], {}
        for k, lines in chunks:
            for line in lines:
                if not (dedup and last.get(k) == line):
                    want_lines.append(line)
                    want_regions.append(ids[k])
                last[k] = line
        assert trace.lines.tolist() == want_lines
        assert trace.regions.tolist() == want_regions
        assert all(np.array_equal(a, b) for a, b in zip(before, tb._chunks))

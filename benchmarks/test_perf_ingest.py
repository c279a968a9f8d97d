"""Ingest micro-benchmark: packed-binary streaming throughput.

Same contract as the other perf smokes: a CI gate with a conservative
floor so slow runners don't flake, plus timings written as JSON
(``benchmarks/perf_ingest_timings.json``, gitignored) for the CI
artifact upload.  The gate is on the ``mtrace`` packed-binary reader —
the format external captures arrive in at scale — measured end to end
through :class:`TraceSource` chunking.  A second smoke times the
out-of-core profile (many chunks) against
:meth:`StackDistanceProfiler.profile` (the same engine fed the whole
trace as one chunk) and checks them equal, not just close.
"""

import time
from pathlib import Path

import numpy as np

from repro.curves.reuse import StackDistanceProfiler
from repro.ingest import (
    ArraySource,
    MTraceSource,
    StreamingStackProfiler,
    write_trace_file,
)
from repro.ingest.formats import MTRACE_RECORD
from repro.obs.timings import infer_unit, record_timings

#: Records in the throughput instance (x16 bytes = 32 MiB of records).
N_RECORDS = 2_000_000

#: CI floor, in MB/s of record bytes streamed.  np.fromfile-based
#: chunking measures in the GB/s range on a dedicated core; 50 MB/s
#: only catches an accidental fall off the vectorized path.
FLOOR_MB_S = 50.0

TIMINGS_PATH = Path(__file__).parent / "perf_ingest_timings.json"


#: The CI gate each recorded entry is checked against.
_GATES = {
    "mtrace_stream_2M": f"mb_per_s >= {FLOOR_MB_S}MB/s",
    "stream_profile_400k": "ratio <= 6.0x",
}


def _record_timings(name, **fields):
    record_timings(
        TIMINGS_PATH,
        name,
        {k: (v, infer_unit(k)) for k, v in fields.items()},
        gate=_GATES.get(name),
    )


def _write_instance(path, n=N_RECORDS, seed=17):
    rng = np.random.default_rng(seed)
    # Mixed locality: hot working set + streaming sweep, like a real app.
    hot = rng.integers(0, 1 << 22, n // 2)
    sweep = (np.arange(n - n // 2, dtype=np.int64) * 64) % (1 << 28)
    addrs = np.concatenate([hot, sweep])
    rng.shuffle(addrs)
    write_trace_file(
        path, ArraySource(addrs=addrs, instructions=float(n) * 3), "mtrace"
    )
    return addrs


class TestPerfIngest:
    def test_perf_smoke_mtrace_throughput(self, tmp_path):
        """CI gate: packed-binary streaming >= FLOOR_MB_S."""
        path = tmp_path / "perf.mtrace"
        _write_instance(path)
        body_mb = N_RECORDS * MTRACE_RECORD.itemsize / 1e6
        best = float("inf")
        for __ in range(3):
            source = MTraceSource(path)
            t0 = time.perf_counter()
            n = 0
            for chunk in source.chunks(1 << 20):
                n += len(chunk)
            best = min(best, time.perf_counter() - t0)
        assert n == N_RECORDS
        rate = body_mb / best
        _record_timings(
            "mtrace_stream_2M", seconds=best, mb=body_mb, mb_per_s=rate
        )
        print(
            f"\n[perf] ingest mtrace 2M records: {best*1e3:.1f} ms, "
            f"{rate:.0f} MB/s"
        )
        assert rate >= FLOOR_MB_S, (
            f"packed-binary streaming regressed to {rate:.1f} MB/s "
            f"(floor {FLOOR_MB_S} MB/s)"
        )

    def test_perf_smoke_streaming_profile_exact(self, tmp_path):
        """400k records in 64k-record chunks vs one chunk: timed + exact."""
        n = 400_000
        rng = np.random.default_rng(23)
        lines = rng.integers(0, 1 << 16, n).astype(np.int64)
        regions = rng.integers(0, 8, n).astype(np.int32)
        instructions = float(n) * 4
        source = ArraySource(
            addrs=lines * 64, regions=regions, instructions=instructions
        )

        t0 = time.perf_counter()
        got = StreamingStackProfiler(
            chunk_bytes=64 * 1024, n_chunks=64
        ).profile_source(source, n_intervals=4, chunk_records=1 << 16)
        t_stream = time.perf_counter() - t0

        t0 = time.perf_counter()
        want = StackDistanceProfiler(
            chunk_bytes=64 * 1024, n_chunks=64
        ).profile(lines, regions, instructions, n_intervals=4)
        t_one = time.perf_counter() - t0

        for rid in want:
            for cg, cw in zip(got[rid], want[rid]):
                assert np.array_equal(cg.misses, cw.misses)
                assert cg.accesses == cw.accesses
        _record_timings(
            "stream_profile_400k",
            streaming_s=t_stream,
            one_chunk_s=t_one,
            ratio=t_stream / t_one,
        )
        print(
            f"\n[perf] streaming profile 400k: {t_stream*1e3:.0f} ms "
            f"(one chunk {t_one*1e3:.0f} ms, {t_stream/t_one:.2f}x) — exact"
        )
        # Carrying state across chunks costs something; 6x is the alarm
        # line.
        assert t_stream <= 6.0 * t_one, (
            f"streaming profiler fell to {t_stream/t_one:.1f}x one-chunk time"
        )

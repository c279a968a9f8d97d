"""stream-watch: follow a CSV trace file into ``OnlineWhirlTool``.

Set-up writes the ref traces of a few SPEC apps back to back into one
CSV file.  SPEC region ids hash app and region names, not source paths,
so the file is the same from any checkout.  The app boundaries are
phase changes, so the online tool re-clusters mid-stream.

The timed phase reads the file to EOF through ``open_stream_source``
(``idle_timeout=0``) and pushes every chunk into ``OnlineWhirlTool``.
An epoch's latency runs from the read of its first record to the push
that returns its ``EpochReport``.
"""

from __future__ import annotations

import time

__all__ = ["EPOCH_RECORDS", "reference_pools", "stream_arrays", "watch", "write_csv"]

#: Records per epoch: small enough that a default run seals over 40.
EPOCH_RECORDS = 1 << 15
#: Records per chunk read from the file; divides EPOCH_RECORDS, so no
#: chunk straddles two epochs.
BATCH_RECORDS = 1 << 13
#: SPEC apps written back to back, in the apps-cold order.
N_APPS = 3
#: Records a 2-vCPU host classifies per second.
RECORDS_PER_SECOND = 105_000


def stream_arrays(seed: int, seconds: float):
    """(addrs, regions) of the stream: a whole number of epochs.

    Each app contributes the same number of whole epochs from the start
    of its ref trace.
    """
    import numpy as np

    from pb_grids import app_order, workload_seed
    from repro.workloads import build_workload
    from repro.workloads.registry import SPEC_APPS

    apps = [a for a in app_order() if a in SPEC_APPS][:N_APPS]
    per_app = max(1, round(seconds * RECORDS_PER_SECOND / N_APPS / EPOCH_RECORDS))
    addrs, regions = [], []
    for app in apps:
        trace = build_workload(app, scale="ref", seed=workload_seed(seed)).trace
        n = min(per_app, len(trace) // EPOCH_RECORDS) * EPOCH_RECORDS
        addrs.append(trace.lines[:n] * trace.line_bytes)
        regions.append(trace.regions[:n])
    return np.concatenate(addrs), np.concatenate(regions)


def write_csv(path, seed: int, seconds: float) -> int:
    """Write the stream to ``path`` as ``addr,region`` rows; returns records."""
    from repro.ingest.formats import write_trace_file
    from repro.ingest.source import ArraySource

    addrs, regions = stream_arrays(seed, seconds)
    write_trace_file(path, ArraySource(addrs, regions), fmt="csv")
    return len(addrs)


def _pools(result) -> dict:
    return {
        "callpoints": list(result.callpoints),
        "merges": [[sorted(a), sorted(b), d] for a, b, d in result.merges],
    }


def watch(path, tracer=None) -> dict:
    """Classify the file to EOF; per-epoch latencies and the final pools.

    Host and reference-scale times (see :mod:`pb_speed`) are kept per
    epoch; the wall times also count the end of stream and ``finish``.
    """
    from pb_speed import SpeedTrack
    from repro.core.whirltool import online
    from repro.ingest.watch import open_stream_source

    speed = SpeedTrack()
    start = time.perf_counter()
    source = open_stream_source(
        str(path), "csv", batch_records=BATCH_RECORDS, idle_timeout=0
    )
    tool = online.OnlineWhirlTool(epoch_records=EPOCH_RECORDS)
    tool.start(source)
    chunks = source.chunks(EPOCH_RECORDS)
    next_chunk = chunks.__next__
    if tracer is not None:
        next_chunk = tracer.wrap("ingest.parse", next_chunk)
    host: list[float] = []
    records = reclusters = 0
    while True:
        try:
            chunk = next_chunk()
        except StopIteration:
            break
        records += len(chunk)
        if tracer is not None:
            tracer.counts["ingest.records"] += len(chunk)
        for report in tool.push(chunk):
            host.append(time.perf_counter() - start)
            reclusters += report.reclustered
            speed.mark()
            start = time.perf_counter()
    result = tool.finish()
    host.append(time.perf_counter() - start)  # end of stream and finish()
    speed.mark()
    ref = speed.reference_times(host)
    return {
        "wall_s": sum(host),
        "ref_wall_s": sum(ref),
        "latencies": host[:-1],
        "ref_latencies": ref[:-1],
        "records": records,
        "epochs": tool.sealed_epochs,
        "reclusters": reclusters,
        "pools": _pools(result),
    }


def reference_pools(seed: int, seconds: float) -> dict:
    """``online_pools_reference`` over the same records, one interval per epoch."""
    from repro.core.whirltool.online import online_pools_reference
    from repro.ingest.source import ArraySource

    addrs, regions = stream_arrays(seed, seconds)
    n = len(addrs)
    result = online_pools_reference(
        ArraySource(addrs, regions, instructions=float(n)),
        n_intervals=n // EPOCH_RECORDS,
    )
    return {"records": n, "epochs": n // EPOCH_RECORDS, "pools": _pools(result)}

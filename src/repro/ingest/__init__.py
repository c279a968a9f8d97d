"""External-trace ingestion & out-of-core streaming profiling.

Turns the reproduction from a closed fixture generator into a system
that accepts outside traffic: externally captured memory traces
(Valgrind Lackey, DynamoRIO-memtrace-style binaries, CSV/JSONL, or the
native ``.rtrace`` archive) become first-class workloads every scheme,
sweep and campaign can run.

The pipeline::

    open_trace_source(path)          # pluggable format readers
      -> AttributionTable.attribute  # address ranges -> Whirlpool regions
      -> convert_to_rtrace / materialize
      -> workloads.registry          # `python -m repro ingest register`

and, for traces too large to hold in memory,
:class:`StreamingStackProfiler` profiles straight off the chunk stream,
bit-identical to profiling the materialized trace (the same engine fed
one chunk).

Live traffic is ingested the same way: :func:`open_stream_source`
follows a growing text trace (or stdin) as an *unbounded*
:class:`IterableSource` (``n_records is None``), and :func:`run_watch`
classifies it epoch-by-epoch (``python -m repro ingest watch``).
"""

from repro.ingest.attribute import FALLBACK_NAME, AttributionTable
from repro.ingest.formats import (
    FORMATS,
    WRITERS,
    CSVSource,
    JSONLSource,
    LackeySource,
    MTraceSource,
    RTraceSource,
    RTraceWriter,
    detect_format,
    open_trace_source,
    register_format,
    write_trace_file,
)
from repro.ingest.pipeline import (
    AttributedSource,
    convert_to_rtrace,
    load_workload,
    materialize,
    resolve_instructions,
)
from repro.ingest.source import (
    DEFAULT_CHUNK_RECORDS,
    ArraySource,
    IterableSource,
    TraceChunk,
    TraceSource,
)
from repro.ingest.stream import StreamingProfile, StreamingStackProfiler
from repro.ingest.watch import follow_lines, open_stream_source, run_watch

__all__ = [
    "ArraySource",
    "AttributedSource",
    "AttributionTable",
    "CSVSource",
    "DEFAULT_CHUNK_RECORDS",
    "FALLBACK_NAME",
    "FORMATS",
    "IterableSource",
    "JSONLSource",
    "LackeySource",
    "MTraceSource",
    "RTraceSource",
    "RTraceWriter",
    "StreamingProfile",
    "StreamingStackProfiler",
    "TraceChunk",
    "TraceSource",
    "WRITERS",
    "convert_to_rtrace",
    "detect_format",
    "follow_lines",
    "load_workload",
    "materialize",
    "open_stream_source",
    "open_trace_source",
    "register_format",
    "resolve_instructions",
    "run_watch",
    "write_trace_file",
]

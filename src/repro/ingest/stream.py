"""Out-of-core stack-distance profiling over :class:`TraceSource` chunks.

:meth:`StreamingStackProfiler.profile_source` drives the profiling
engine (:class:`~repro.curves.reuse.StreamingProfile`, re-exported
here) over a sized source chunk by chunk, holding only one chunk plus
per-region footprint-sized state in memory.  That turns profiling from
"load the trace, then profile" into "profile while reading", which is
what makes multi-gigabyte external captures tractable.  The curves are
bit-identical, for any chunk size, to
:meth:`~repro.curves.reuse.StackDistanceProfiler.profile` over the
materialized trace — the same engine fed one chunk.

Unbounded sources (``n_records`` is ``None``) have no equal-width
interval grid; they stream through
:class:`repro.core.whirltool.online.OnlineWhirlTool`, which opens
record-count epochs on a
:meth:`~repro.curves.reuse.StackDistanceProfiler.begin` handle as data
arrives.
"""

from __future__ import annotations

import numpy as np

from repro.curves.miss_curve import MissCurve
from repro.curves.reuse import StackDistanceProfiler, StreamingProfile
from repro.ingest.source import DEFAULT_CHUNK_RECORDS, TraceSource

__all__ = ["StreamingProfile", "StreamingStackProfiler"]


class StreamingStackProfiler(StackDistanceProfiler):
    """Streams a :class:`TraceSource` through stack-distance profiling.

    Construction matches :class:`~repro.curves.reuse.
    StackDistanceProfiler`; :meth:`profile_source` replaces
    :meth:`~repro.curves.reuse.StackDistanceProfiler.profile` for
    sources too large to materialize.
    """

    def profile_source(
        self,
        source: TraceSource,
        n_intervals: int = 1,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        instructions: float | None = None,
        mapping: dict[int, int] | None = None,
    ) -> dict[int, list[MissCurve]]:
        """Profile a source into per-region, per-interval miss curves.

        Args:
            source: the trace to profile (addresses are divided by this
                profiler's ``line_bytes``; sources without regions are
                profiled as a single region 0).  Must be *sized*
                (``n_records`` not ``None``): equal-width interval
                windows need the total up front.  Unbounded sources
                stream through :class:`repro.core.whirltool.online.
                OnlineWhirlTool` (or :meth:`begin`) instead.
            n_intervals: number of equal access-index windows.
            chunk_records: records per streamed chunk (the out-of-core
                memory bound; any value yields identical output).
            instructions: total instruction count; defaults to the
                source's own.  Required when the source has none.
            mapping: optional region id -> VC id relabel applied before
                profiling (ids missing from the mapping fall into VC 0,
                matching :func:`repro.curves.reuse.relabel_regions`).

        Returns:
            Mapping ``region id -> [MissCurve, ...]``, bit-identical to
            :meth:`profile` over the materialized trace.
        """
        if instructions is None:
            instructions = source.instructions
        if instructions is None or instructions <= 0:
            raise ValueError(
                "source carries no instruction count; pass instructions="
            )
        if n_intervals < 1:
            raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
        n_total = source.n_records
        if n_total is None:
            raise ValueError(
                "source is unbounded (n_records is None); equal-width "
                "intervals need a sized source — use begin() with "
                "open-ended epochs, or OnlineWhirlTool"
            )
        if n_total <= 0:
            # Same diagnosis as the ingest materialize path: a
            # degenerate linspace over zero records would silently
            # return empty curves.
            raise ValueError("source yielded no records")
        bounds = np.linspace(0, n_total, n_intervals + 1).astype(np.int64)
        prof = self.begin(bounds)
        for chunk in source.chunks(chunk_records):
            n = len(chunk)
            if n == 0:
                continue
            if prof.offset + n > n_total:
                raise ValueError(
                    f"source yielded more than its declared "
                    f"{n_total} records"
                )
            prof.push_chunk(chunk, mapping=mapping)
        if prof.offset != n_total:
            raise ValueError(
                f"source yielded {prof.offset} records but declared {n_total}"
            )
        return prof.finalize(instructions)

"""Per-VC, per-interval miss-curve profiling with an on-disk cache.

Profiling (stack distances over each VC's access stream) is by far the
most expensive step of the evaluation pipeline, and every scheme that
shares a VC layout reuses the same curves, so results are cached on disk
keyed by a fingerprint of (trace, VC mapping, grid parameters).

Cached profiles live in the content-addressed artifact store
(:mod:`repro.store`), which memory-maps payloads so N campaign workers
share one page-cache copy of each curve set.  Two legacy paths remain:
``$REPRO_PROFILE_CACHE`` pins the original flat-directory cache (tests
and hermetic runs), and the committed ``.profile_cache/`` fixture pile
is still read — never rewritten — when the store misses.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from repro import obs
from repro.curves.miss_curve import MissCurve
from repro.curves.reuse import StackDistanceProfiler, relabel_regions
from repro.store.clusterings import CLUSTERING_VERSION
from repro.store.profiles import FORMAT_VERSION, load_profile
from repro.workloads.trace import Trace

__all__ = [
    "cache_dir",
    "clear_cache",
    "clustering_fingerprint",
    "profile_vcs",
    "relabel_regions",
]


_ENV_CACHE = "REPRO_PROFILE_CACHE"

#: On-disk cache version (defined in :mod:`repro.store.profiles`, the
#: payload's single source of truth).  Version 1 fingerprints hashed only
#: a stride-257 sample of the trace, so short traces with equal length and
#: instruction count could collide and serve the wrong curves; version 2
#: hashes the full arrays.  Loads reject any other version (files without
#: the key load as version 1), so stale entries are re-profiled, never
#: misread.
_FORMAT_VERSION = FORMAT_VERSION


def cache_dir() -> Path:
    """The flat legacy cache directory ($REPRO_PROFILE_CACHE).

    With the variable set, this directory *is* the cache (the store is
    not consulted — hermetic runs see exactly the files they seeded).
    Without it, new profiles go to the artifact store and this resolves
    to the committed read-only fixture pile.
    """
    root = os.environ.get(_ENV_CACHE)
    if root:
        return Path(root)
    return Path(__file__).resolve().parents[3] / ".profile_cache"


def _fixture_dir() -> Path | None:
    """The committed fixture pile, when running from a source checkout.

    Installed packages have no checkout around them — the old
    ``parents[3]``-relative default then pointed into the install prefix
    (e.g. next to ``site-packages``); returning ``None`` routes
    everything to the store instead.
    """
    legacy = Path(__file__).resolve().parents[3] / ".profile_cache"
    return legacy if legacy.is_dir() else None


def _profile_store():
    from repro.store import ArtifactStore

    return ArtifactStore()


def clear_cache() -> int:
    """Delete all cached profiles; returns the number of files removed.

    Clears whichever cache is active: the legacy flat directory when
    ``$REPRO_PROFILE_CACHE`` is set, the store's profile kind otherwise
    (committed fixtures are never deleted).
    """
    n = 0
    if os.environ.get(_ENV_CACHE):
        directory = cache_dir()
        if not directory.exists():
            return 0
        for f in directory.glob("*.npz"):
            f.unlink()
            n += 1
        return n
    store = _profile_store()
    for kind, fingerprint, path in list(store.artifacts("profiles")):
        path.unlink(missing_ok=True)
        store.meta_path(kind, fingerprint).unlink(missing_ok=True)
        n += 1
    return n


def _fingerprint(
    trace: Trace,
    mapping: dict[int, int],
    chunk_bytes: int,
    n_chunks: int,
    n_intervals: int,
    sample_shift: int,
) -> str:
    # blake2b over the *full* arrays: sampling the trace (as version 1 did
    # with lines[::257]) lets distinct traces of equal length collide and
    # silently serve each other's curves.  Hashing the arrays is
    # negligible next to profiling itself — but not next to a cache *hit*,
    # so each trace object keeps one hash state that has absorbed its
    # arrays (trace arrays are immutable by convention) and every key
    # finishes a copy of it with the grid and mapping suffix.  A mix
    # shifts each app's VC ids by its position, so mappings rarely
    # repeat; the arrays are still hashed once per trace.  The arrays go
    # in through the buffer protocol, so hashing copies nothing.
    state = getattr(trace, "_fingerprint_state", None)
    if state is None:
        state = hashlib.blake2b(digest_size=16)
        state.update(np.ascontiguousarray(trace.lines, dtype=np.int64))
        state.update(np.ascontiguousarray(trace.regions, dtype=np.int32))
        trace._fingerprint_state = state
    h = state.copy()
    h.update(
        f"v{_FORMAT_VERSION}|{len(trace)}|{trace.instructions}|"
        f"{trace.line_bytes}|{chunk_bytes}|{n_chunks}|"
        f"{n_intervals}|{sample_shift}".encode()
    )
    for rid in sorted(mapping):
        h.update(f"{rid}:{mapping[rid]};".encode())
    return h.hexdigest()


def clustering_fingerprint(
    trace: Trace,
    chunk_bytes: int,
    n_chunks: int,
    n_intervals: int,
    sample_shift: int,
) -> str:
    """Store key of the WhirlTool clustering trained on ``trace``.

    Finishes a copy of the trace's array hash state (the one profile
    keys finish) with the clustering version and the training
    profiler's grid.  Region names are not hashed: they only label the
    merge tree.
    """
    if getattr(trace, "_fingerprint_state", None) is None:
        # Any profile key absorbs the arrays into the shared state.
        _fingerprint(trace, {}, chunk_bytes, n_chunks, n_intervals, sample_shift)
    h = trace._fingerprint_state.copy()
    h.update(
        f"clustering-v{CLUSTERING_VERSION}|{len(trace)}|"
        f"{trace.instructions}|{trace.line_bytes}|{chunk_bytes}|"
        f"{n_chunks}|{n_intervals}|{sample_shift}".encode()
    )
    return h.hexdigest()


def profile_vcs(
    trace: Trace,
    mapping: dict[int, int],
    chunk_bytes: int,
    n_chunks: int,
    n_intervals: int = 1,
    sample_shift: int = 0,
    use_cache: bool = True,
) -> dict[int, list[MissCurve]]:
    """Profile a trace into per-VC, per-interval miss curves.

    Args:
        trace: the workload trace.
        mapping: region id -> VC id (the classifier's output).  Regions
            missing from the mapping fall into VC 0.
        chunk_bytes / n_chunks: miss-curve size grid.
        n_intervals: reconfiguration intervals.
        sample_shift: address sampling (see
            :class:`~repro.curves.reuse.StackDistanceProfiler`).
        use_cache: read/write the on-disk cache.
    """
    key = None
    if use_cache:
        key = _fingerprint(
            trace, mapping, chunk_bytes, n_chunks, n_intervals, sample_shift
        )
        cached = _load(key, chunk_bytes, n_intervals)
        if cached is not None:
            curves, tier = cached
            obs.counter("profile_cache.hit")
            obs.counter(f"profile_cache.hit.{tier}")
            return curves
        obs.counter("profile_cache.miss")

    # Relabel the trace's regions with VC ids.
    vc_ids = relabel_regions(trace.regions, mapping)
    profiler = StackDistanceProfiler(
        chunk_bytes=chunk_bytes,
        n_chunks=n_chunks,
        line_bytes=trace.line_bytes,
        sample_shift=sample_shift,
    )
    with obs.span(
        "profile.curves", n_intervals=n_intervals, n_chunks=n_chunks
    ):
        curves = profiler.profile(
            trace.lines, vc_ids, trace.instructions, n_intervals=n_intervals
        )
    if use_cache and key is not None:
        _store(
            key,
            curves,
            inputs={
                "n_records": len(trace),
                "instructions": trace.instructions,
                "line_bytes": trace.line_bytes,
                "mapping": {str(r): v for r, v in sorted(mapping.items())},
                "chunk_bytes": chunk_bytes,
                "n_chunks": n_chunks,
                "n_intervals": n_intervals,
                "sample_shift": sample_shift,
            },
        )
    return curves


def _load(
    key: str, chunk_bytes: int, n_intervals: int
) -> tuple[dict[int, list[MissCurve]], str] | None:
    """The cached curves and the tier that served them, or None.

    Tiers: ``env_dir`` ($REPRO_PROFILE_CACHE), ``store``, and
    ``fixture_pile`` (the committed ``.profile_cache/``).
    """
    # A stale or partially written file (missing arrays, wrong layout
    # version, truncated index) falls back to re-profiling instead of
    # crashing the run; load_profile absorbs all of that into None.
    if os.environ.get(_ENV_CACHE):
        out = load_profile(cache_dir() / f"{key}.npz", chunk_bytes, n_intervals)
        return None if out is None else (out, "env_dir")
    path = _profile_store().get("profiles", key)
    if path is not None:
        out = load_profile(path, chunk_bytes, n_intervals)
        if out is not None:
            return out, "store"
    fixture = _fixture_dir()
    if fixture is not None:
        out = load_profile(fixture / f"{key}.npz", chunk_bytes, n_intervals)
        if out is not None:
            return out, "fixture_pile"
    return None


def _store(
    key: str,
    curves: dict[int, list[MissCurve]],
    inputs: dict | None = None,
) -> None:
    if os.environ.get(_ENV_CACHE):
        from repro.store.profiles import encode_payload

        directory = cache_dir()
        directory.mkdir(parents=True, exist_ok=True)
        payload = encode_payload(curves)
        # Write-to-temp + atomic rename: parallel campaign workers
        # profiling the same fingerprint must never expose a
        # half-written file.
        tmp = directory / f".{key}.{os.getpid()}.tmp.npz"
        try:
            np.savez_compressed(tmp, **payload)
            os.replace(tmp, directory / f"{key}.npz")
        finally:
            if tmp.exists():
                tmp.unlink()
        return
    from repro.store import provenance_record, publish_profile

    publish_profile(
        _profile_store(),
        key,
        curves,
        provenance=provenance_record(
            "profiles",
            key,
            builder="repro.sim.profiling.profile_vcs",
            inputs=inputs,
        ),
    )

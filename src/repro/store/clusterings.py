"""Clustering artifacts: WhirlTool's trained merge tree, store-side.

The paper trains WhirlTool once, offline, on the train input; the
trained merge tree is a pure function of the training trace and the
profiler's grid, so the store keeps it as a content-addressed artifact
beside the profiles (key: :func:`repro.sim.profiling.
clustering_fingerprint`).  The payload is an uncompressed npz:

- ``format_version`` — :data:`CLUSTERING_VERSION`;
- ``callpoints`` (int64) — the leaves, in ``ClusteringResult`` order;
- ``operand_sizes`` (int64, ``(merges, 2)``) — member counts of each
  merge's two operands;
- ``members`` (int64) — every operand's members, sorted, concatenated
  in merge order;
- ``distances`` (float64) — each merge's distance, bit for bit.

Region names are not stored: a load takes them from the workload, as
:class:`~repro.core.whirltool.profiler.CallpointProfile` does.
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.core.whirltool.analyzer import ClusteringResult
    from repro.store.artifacts import ArtifactStore

__all__ = [
    "CLUSTERING_VERSION",
    "encode_clustering",
    "load_clustering",
    "publish_clustering",
    "verify_clustering_payload",
]

#: Payload and key version of stored clusterings.  Bump it whenever the
#: payload layout, the key's inputs, or the merge tree the analyzer
#: builds from a given profile changes: old artifacts then miss and are
#: retrained instead of being served.
CLUSTERING_VERSION = 1

#: What a damaged or foreign payload can raise while it is read.  Reads
#: open the file themselves: ``np.load(path)`` leaks its handle when the
#: zip directory of a truncated payload fails to parse.
_READ_ERRORS = (
    KeyError,
    IndexError,
    ValueError,
    TypeError,
    AttributeError,
    EOFError,
    OSError,
    zlib.error,
    zipfile.BadZipFile,
)


def encode_clustering(clustering: ClusteringResult) -> dict[str, np.ndarray]:
    """Flatten a merge tree into the npz payload."""
    sizes = np.array(
        [(len(a), len(b)) for a, b, __ in clustering.merges], dtype=np.int64
    ).reshape(-1, 2)
    members = [
        cp for a, b, __ in clustering.merges for cp in (*sorted(a), *sorted(b))
    ]
    return {
        "format_version": np.array(CLUSTERING_VERSION, dtype=np.int64),
        "callpoints": np.array(clustering.callpoints, dtype=np.int64),
        "operand_sizes": sizes,
        "members": np.array(members, dtype=np.int64),
        "distances": np.array(
            [d for __, __, d in clustering.merges], dtype=np.float64
        ),
    }


def _payload_error(data: Any) -> str | None:
    """Why ``data`` is not a current, self-consistent payload, or None."""
    for name in (
        "format_version",
        "callpoints",
        "operand_sizes",
        "members",
        "distances",
    ):
        if name not in data:
            return f"missing {name}"
    version = int(data["format_version"])
    if version != CLUSTERING_VERSION:
        return f"format version {version} != {CLUSTERING_VERSION}"
    callpoints = data["callpoints"]
    sizes = data["operand_sizes"]
    members = data["members"]
    distances = data["distances"]
    if callpoints.ndim != 1 or members.ndim != 1 or distances.ndim != 1:
        return "callpoints, members and distances must be 1-D"
    if any(a.dtype != np.int64 for a in (callpoints, sizes, members)):
        return "callpoints, operand_sizes and members must be int64"
    if distances.dtype != np.float64:
        return "distances must be float64"
    if sizes.ndim != 2 or sizes.shape[1] != 2:
        return "operand_sizes is not a (merges, 2) table"
    if len(sizes) != len(distances):
        return (
            f"{len(sizes)} operand-size rows for {len(distances)} distances"
        )
    if len(sizes) and int(sizes.min()) < 1:
        return "a merge operand is empty"
    if int(sizes.sum()) != len(members):
        return f"operand sizes sum to {int(sizes.sum())}, not {len(members)}"
    if not np.isin(members, callpoints).all():
        return "a merge member is not a leaf callpoint"
    return None


def _decode_clustering(
    data: Any, names: dict[int, str]
) -> ClusteringResult | None:
    """Rebuild a merge tree from a payload mapping; None on any staleness.

    ``data`` supports ``in`` and ``[]`` (an ``NpzFile`` or a dict of
    arrays).  A payload of another version, or one whose arrays
    disagree, returns ``None`` so callers retrain instead of crashing.
    """
    from repro.core.whirltool.analyzer import ClusteringResult

    try:
        if _payload_error(data) is not None:
            return None
        callpoints = data["callpoints"].tolist()
        sizes = data["operand_sizes"].tolist()
        members = data["members"].tolist()
        distances = data["distances"].tolist()
    except _READ_ERRORS:
        return None
    merges = []
    at = 0
    for (size_a, size_b), distance in zip(sizes, distances):
        mid = at + size_a
        end = mid + size_b
        merges.append(
            (frozenset(members[at:mid]), frozenset(members[mid:end]), distance)
        )
        at = end
    return ClusteringResult(
        callpoints=callpoints, merges=merges, names=dict(names)
    )


def load_clustering(
    path: str | Path, names: dict[int, str]
) -> ClusteringResult | None:
    """Load a stored merge tree; None when it is missing or unusable.

    Reads go through the ``store-read`` fault site and the transient
    I/O retry policy; a read that keeps failing, like a truncated,
    corrupt or stale payload, returns ``None``.
    """
    from repro.devtools import faults
    from repro.retry import call_with_retries

    path = Path(path)
    if not path.exists():
        return None

    def read() -> dict[str, np.ndarray]:
        faults.maybe_inject("store-read", key=str(path))
        with open(path, "rb") as f, np.load(f) as data:
            return {name: data[name] for name in data.files}

    try:
        arrays = call_with_retries(read, key=str(path))
    except _READ_ERRORS:
        return None
    return _decode_clustering(arrays, names)


def publish_clustering(
    store: ArtifactStore,
    fingerprint: str,
    clustering: ClusteringResult,
    provenance: dict | None = None,
) -> Path:
    """Publish a merge tree to the store as an uncompressed npz."""
    payload = encode_clustering(clustering)

    def _write(tmp: Path) -> None:
        # An open handle keeps np.savez from appending ".npz" to the
        # staging name.
        with open(tmp, "wb") as f:
            np.savez(f, **payload)

    return store.publish(
        "clusterings", fingerprint, _write, provenance=provenance
    )


def verify_clustering_payload(path: str | Path) -> str | None:
    """Structural check of a stored clustering; None if sound, else why not."""
    try:
        with open(path, "rb") as f, np.load(f) as data:
            return _payload_error(data)
    except _READ_ERRORS as exc:
        return f"unreadable payload: {exc}"

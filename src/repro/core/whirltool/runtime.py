"""WhirlTool runtime (paper Sec 4.3).

Replaces the system allocator: each allocation's callpoint is looked up
in the trained callpoint -> pool map and routed to the matching pool's
VC.  Allocations from unprofiled callpoints fall into the thread-private
(process) pool.  As a :class:`~repro.schemes.Classifier`, this plugs
straight into the simulation driver in place of the manual Table-2
classification.

Training (profile, then cluster) is :func:`trained_clustering`, the one
training path: like the paper's compile-time step it runs once per
training input, and its merge tree is kept in the artifact store.
"""

from __future__ import annotations

from repro import obs
from repro.core.whirltool.analyzer import ClusteringResult, WhirlToolAnalyzer
from repro.core.whirltool.profiler import WhirlToolProfiler
from repro.schemes.base import VCSpec
from repro.schemes.classifiers import Classifier
from repro.sim.profiling import clustering_fingerprint
from repro.store import (
    ArtifactStore,
    load_clustering,
    provenance_record,
    publish_clustering,
)
from repro.workloads.registry import build_workload
from repro.workloads.trace import Workload

__all__ = ["WhirlToolClassifier", "train_whirltool", "trained_clustering"]


def _check_n_pools(n_pools: int) -> None:
    if n_pools < 1:
        raise ValueError(f"n_pools must be >= 1, got {n_pools}")


class WhirlToolClassifier(Classifier):
    """Region -> VC classification from a trained clustering.

    Args:
        clustering: analyzer output for the application.
        n_pools: pools to cut the merge tree at (the paper settles on 3).
    """

    name = "whirltool"

    def __init__(self, clustering: ClusteringResult, n_pools: int = 3) -> None:
        _check_n_pools(n_pools)
        self.clustering = clustering
        self.n_pools = n_pools
        self._pool_of_callpoint = clustering.assignments(n_pools)

    def classify(
        self, workload: Workload, owner_core: int = 0
    ) -> tuple[dict[int, int], list[VCSpec]]:
        # VC 0 is the process VC (unprofiled callpoints); pools follow.
        mapping: dict[int, int] = {}
        used_pools: set[int] = set()
        for rid in workload.region_names:
            pool = self._pool_of_callpoint.get(rid)
            if pool is None:
                mapping[rid] = 0
            else:
                mapping[rid] = pool + 1
                used_pools.add(pool)
        specs = [VCSpec(vc_id=0, name="process", owner_core=owner_core)]
        for pool in sorted(used_pools):
            members = [
                self.clustering.names.get(cp, str(cp))
                for cp, p in self._pool_of_callpoint.items()
                if p == pool
            ]
            specs.append(
                VCSpec(
                    vc_id=pool + 1,
                    name="|".join(sorted(members)),
                    owner_core=owner_core,
                )
            )
        used_vcs = set(mapping.values())
        specs = [s for s in specs if s.vc_id in used_vcs]
        return mapping, specs


def trained_clustering(
    workload: Workload, profiler: WhirlToolProfiler | None = None
) -> ClusteringResult:
    """WhirlTool's merge tree for a training run, trained once per store.

    The paper profiles and clusters offline, at compile time.  Here the
    merge tree is a content-addressed store artifact keyed by the
    training trace and the profiler's grid
    (:func:`~repro.sim.profiling.clustering_fingerprint`): a hit loads
    a few kB instead of re-profiling and re-clustering; a miss, or a
    stale, truncated or corrupt payload, trains and publishes.  Region
    names come from ``workload``, so a renamed region never retrains.
    """
    if profiler is None:
        profiler = WhirlToolProfiler()
    trace = workload.trace
    key = clustering_fingerprint(
        trace,
        profiler.chunk_bytes,
        profiler.n_chunks,
        profiler.n_intervals,
        profiler.sample_shift,
    )
    store = ArtifactStore()
    clustering = load_clustering(
        store.path("clusterings", key), workload.region_names
    )
    if clustering is not None:
        obs.counter("clustering_cache.hit")
        return clustering
    obs.counter("clustering_cache.miss")
    with obs.span("whirltool.train", workload=workload.name):
        clustering = WhirlToolAnalyzer().cluster(profiler.profile(workload))
    publish_clustering(
        store,
        key,
        clustering,
        provenance=provenance_record(
            "clusterings",
            key,
            builder="repro.core.whirltool.runtime.trained_clustering",
            inputs={
                "workload": workload.name,
                "n_records": len(trace),
                "instructions": trace.instructions,
                "line_bytes": trace.line_bytes,
                "chunk_bytes": profiler.chunk_bytes,
                "n_chunks": profiler.n_chunks,
                "n_intervals": profiler.n_intervals,
                "sample_shift": profiler.sample_shift,
            },
        ),
    )
    return clustering


def train_whirltool(
    app: str,
    n_pools: int = 3,
    train_scale: str = "train",
    seed: int = 0,
    profiler: WhirlToolProfiler | None = None,
) -> WhirlToolClassifier:
    """Full WhirlTool pipeline: train on an input, then classify.

    Training (:func:`trained_clustering`) happens once, offline (the
    paper runs it at compile time on the train inputs); the returned
    classifier is then applied to any input scale of the same
    application — callpoint ids are stable across inputs.
    """
    _check_n_pools(n_pools)
    workload = build_workload(app, scale=train_scale, seed=seed)
    return WhirlToolClassifier(
        trained_clustering(workload, profiler), n_pools=n_pools
    )

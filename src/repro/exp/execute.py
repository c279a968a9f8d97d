"""Worker-side job execution.

:func:`execute_job` is the module-level callable the campaign engine
submits to its process pool: it rebuilds everything a job names
(workload, configuration, classifier) from primitives, runs the
simulation, and returns a JSON-serializable record.  Workers keep small
per-process caches of built workloads and trained WhirlTool classifiers,
and share the on-disk profile cache (``sim/profiling.py``) with every
other worker — so a grid over schemes pays for each profile once.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.analysis.compare import resolve_classifier, run_scheme
from repro.nuca import four_core_config, sixteen_core_config
from repro.nuca.config import SystemConfig
from repro.schemes.base import SchemeResult
from repro.exp.job import Job
from repro.workloads import build_workload
from repro.workloads.trace import Workload

__all__ = [
    "CONFIGS",
    "cached_workload",
    "execute_job",
    "record_to_result",
    "result_to_record",
]

#: Named system configurations a job may reference.
CONFIGS = {
    "4core": four_core_config,
    "16core": sixteen_core_config,
}

# Per-process caches.  Ref-scale traces are large, so only a couple are
# kept; train-scale traces (mix methodology) are small and cached wider.
_WORKLOAD_CACHE: dict[str, OrderedDict] = {}
_CACHE_SIZES = {"ref": 2, "train": 32}
_CLASSIFIER_CACHE: dict[tuple, object] = {}
_CLUSTERING_CACHE: dict[tuple, object] = {}


def cached_workload(name: str, scale: str, seed: int) -> Workload:
    """Build a workload through the per-process LRU cache."""
    cache = _WORKLOAD_CACHE.setdefault(scale, OrderedDict())
    key = (name, seed)
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    workload = build_workload(name, scale=scale, seed=seed)
    cache[key] = workload
    while len(cache) > _CACHE_SIZES.get(scale, 2):
        cache.popitem(last=False)
    return workload


def _whirltool_classifier(app: str, n_pools: int, seed: int):
    """A WhirlTool classifier cutting one cached clustering at k pools.

    ``trained_clustering`` trains at most once per store, but a hit
    still reads and decodes the stored merge tree; a pool sweep over k
    only needs it once per (app, seed), so the clustering is memoized
    per process and cut per k.
    """
    from repro.core.whirltool import WhirlToolClassifier, trained_clustering

    key = (app, seed)
    if key not in _CLUSTERING_CACHE:
        train = cached_workload(app, "train", seed)
        _CLUSTERING_CACHE[key] = trained_clustering(train)
    return WhirlToolClassifier(_CLUSTERING_CACHE[key], n_pools=n_pools)


def _cached_classifier(spec: str, workload: Workload, seed: int):
    key = (spec, workload.name, seed)
    if key not in _CLASSIFIER_CACHE:
        if spec == "auto" and not workload.manual_pools:
            classifier = _whirltool_classifier(workload.name, 3, seed)
        elif spec.startswith("whirltool:"):
            classifier = _whirltool_classifier(
                workload.name, int(spec.split(":", 1)[1]), seed
            )
        else:
            classifier = resolve_classifier(spec, workload, seed=seed)
        _CLASSIFIER_CACHE[key] = classifier
    return _CLASSIFIER_CACHE[key]


def _config_for(job: Job) -> SystemConfig:
    try:
        config = CONFIGS[job.config]()
    except KeyError:
        raise ValueError(
            f"unknown config {job.config!r}; known: {', '.join(CONFIGS)}"
        ) from None
    if job.axis is not None:
        from repro.sim.sweep import vary_config

        config = vary_config(config, job.axis, job.value)
    return config


def result_to_record(result: SchemeResult) -> dict:
    """Serialize a :class:`SchemeResult` (totals only, no history)."""
    return {
        "name": result.name,
        "base_cpi": result.base_cpi,
        "instructions": result.instructions,
        "hits": result.hits,
        "misses": result.misses,
        "bypasses": result.bypasses,
        "stall_cycles": result.stall_cycles,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "energy": {
            "network": result.energy.network,
            "bank": result.energy.bank,
            "memory": result.energy.memory,
        },
    }


def record_to_result(record: dict) -> SchemeResult:
    """Rebuild a :class:`SchemeResult` from a record (history is lost)."""
    from repro.nuca.energy import EnergyBreakdown

    return SchemeResult(
        name=record["name"],
        base_cpi=record["base_cpi"],
        instructions=record["instructions"],
        hits=record["hits"],
        misses=record["misses"],
        bypasses=record["bypasses"],
        stall_cycles=record["stall_cycles"],
        energy=EnergyBreakdown(**record["energy"]),
    )


def _execute_single(job: Job) -> dict:
    config = _config_for(job)
    workload = cached_workload(job.app, job.scale, job.seed)
    classifier = None
    if job.classifier != "auto" or job.scheme == "Whirlpool":
        classifier = _cached_classifier(job.classifier, workload, job.seed)
    sim_kwargs = {}
    if job.n_intervals is not None:
        sim_kwargs["n_intervals"] = job.n_intervals
    if job.sample_shift is not None:
        sim_kwargs["sample_shift"] = job.sample_shift
    result = run_scheme(
        workload,
        config,
        job.scheme,
        classifier=classifier,
        seed=job.seed,
        **sim_kwargs,
    )
    return result_to_record(result)


def _mix_factory(scheme: str):
    from repro.core.whirlpool import WhirlpoolScheme
    from repro.schemes import (
        AwasthiScheme,
        IdealSPDScheme,
        JigsawScheme,
        SNUCAScheme,
    )

    if scheme.startswith("S-NUCA"):
        __, __, repl = scheme.partition("/")
        replacement = (repl or "lru").lower()
        return lambda c, v: SNUCAScheme(c, v, replacement)
    if scheme == "IdealSPD":
        return IdealSPDScheme
    if scheme == "Awasthi":
        return AwasthiScheme
    base, __, suffix = scheme.partition("-")
    bypass = suffix != "NoBypass"
    if base == "Jigsaw":
        return lambda c, v: JigsawScheme(c, v, bypass=bypass)
    if base == "Whirlpool":
        return lambda c, v: WhirlpoolScheme(c, v, bypass=bypass)
    raise ValueError(f"unknown mix scheme {scheme!r}")


def _execute_mix(job: Job) -> dict:
    from repro.sim.multi import simulate_mix

    config = _config_for(job)
    names = job.apps()
    seeds = job.mix_seeds or tuple(job.seed for __ in names)
    if len(seeds) != len(names):
        raise ValueError("mix_seeds length must match the mix's app count")
    workloads = [
        cached_workload(n, job.scale, s) for n, s in zip(names, seeds)
    ]
    spec = job.classifier
    if spec == "auto":
        # The paper's mix rule: Whirlpool variants get pooled VCs, the
        # Jigsaw baseline a single process VC per program.
        spec = "whirltool:3" if job.scheme.startswith("Whirlpool") else "single"
    classifiers = [
        _cached_classifier(spec, w, s) for w, s in zip(workloads, seeds)
    ]
    result = simulate_mix(
        workloads,
        config,
        _mix_factory(job.scheme),
        classifiers=classifiers,
        n_intervals=job.n_intervals if job.n_intervals is not None else 16,
        sample_shift=job.sample_shift,
    )
    total = sum(r.cycles for r in result.per_app)
    return {
        "name": result.scheme_name,
        "scheme": job.scheme,
        "ipcs": [r.ipc for r in result.per_app],
        "cycles": total,
        "energy": {
            "network": result.energy.network,
            "bank": result.energy.bank,
            "memory": result.energy.memory,
        },
    }


def execute_job(job: Job) -> dict:
    """Run one job and return its result record."""
    from repro import obs
    from repro.devtools import faults

    with obs.span(
        "job.execute", key=job.key(), kind=job.kind, scheme=job.scheme
    ):
        faults.maybe_inject("execute", key=job.key())
        if job.kind == "mix":
            return _execute_mix(job)
        return _execute_single(job)

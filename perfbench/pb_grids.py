"""The two job grids: apps-cold (Fig 16) and mixes-warm (Fig 22).

Both run closed-loop in one process: each job is handed to the engine
(``run_jobs``, ``workers=0``) only after the previous one finished, and
its host latency is the time that call took.  Failed jobs are counted,
never retried or skipped.

Run size follows ``--seconds`` through fixed per-second quotas measured
on a 2-vCPU host, so one (seed, seconds) pair always names the same
jobs, and every simulated statistic and the result digest repeat exactly
from run to run.

The benchmark seed sets the mixes' workload seed (:func:`workload_seed`).
apps-cold always uses the seed-0 workload seed: its peak RSS swings by
up to 30% between workload seeds (ST's graph size follows the seed, and
glibc's heap retention follows the allocation sizes), and with fixed
inputs it is exact, so a change in memory use reads as one.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

__all__ = [
    "app_order",
    "apps_cold_jobs",
    "failure_breakdown",
    "grid_digest",
    "mix_jobs",
    "run_grid",
    "sim_stats",
    "workload_seed",
]

#: Ref-scale apps whose 8-job grid a 2-vCPU host runs per second, cold.
APPS_PER_SECOND = 0.55
#: (4-core mix, 16-core mix) pairs of the 4-variant grid a 2-vCPU host
#: runs per second against a filled store.
MIX_PAIRS_PER_SECOND = 0.6
#: The Fig 22 scheme variants.
MIX_VARIANTS = ["Jigsaw", "Jigsaw-NoBypass", "Whirlpool", "Whirlpool-NoBypass"]
#: WhirlTool pool counts run besides the standard schemes (Fig 16).
EXTRA_POOLS = (2, 4)


def workload_seed(seed: int) -> int:
    """Workload RNG seed for a benchmark seed.

    Kept at 1000 and above, apart from the figures' seeds (0, and the
    name-derived 0..999 of Fig 22), so no profile a figure stored could
    serve a benchmark job.
    """
    return 1000 + seed % 1_000_000


def app_order() -> list[str]:
    """All 31 apps, SPEC and PBBS alternating, then every third taken.

    Any prefix of two or more apps holds both suites, and a run of ``n``
    apps is a systematic sample of the whole list rather than its head.
    """
    from repro.workloads.registry import PBBS_APPS, SPEC_APPS

    mixed = []
    for i in range(max(len(SPEC_APPS), len(PBBS_APPS))):
        mixed += [suite[i] for suite in (SPEC_APPS, PBBS_APPS) if i < len(suite)]
    return [mixed[i] for start in range(3) for i in range(start, len(mixed), 3)]


def _quota(seconds: float, per_second: float, limit: int) -> int:
    return max(1, min(limit, math.floor(seconds * per_second + 0.5)))


def apps_cold_jobs(seconds: float) -> list[tuple[object, tuple]]:
    """(job, tag) pairs: each app's 6 standard schemes plus WhirlTool 2/4."""
    from repro.analysis.compare import STANDARD_SCHEMES
    from repro.exp import Job

    order = app_order()
    apps = order[: _quota(seconds, APPS_PER_SECOND, len(order))]
    s = workload_seed(0)
    jobs = []
    for app in apps:
        for scheme in STANDARD_SCHEMES:
            classifier = "whirltool:3" if scheme == "Whirlpool" else "single"
            jobs.append((Job(app=app, scheme=scheme, classifier=classifier, seed=s), (app, scheme)))
        for k in EXTRA_POOLS:
            job = Job(app=app, scheme="Whirlpool", classifier=f"whirltool:{k}", seed=s)
            jobs.append((job, (app, f"Whirlpool-{k}")))
    return jobs


def mix_jobs(seed: int, seconds: float) -> list[tuple[object, tuple]]:
    """(job, tag) pairs: mixes x 4 variants x {4-core, 16-core}.

    The mixes are Fig 22's: drawn from ``default_rng(42)``, one stream
    per core count.  Every app of every mix uses the same workload seed,
    so mixes share profiles the way Fig 22's do.
    """
    import numpy as np

    from repro.exp import Job
    from repro.workloads.registry import SPEC_APPS

    n_pairs = _quota(seconds, MIX_PAIRS_PER_SECOND, 64)
    streams = {n_cores: np.random.default_rng(42) for n_cores in (4, 16)}
    s = workload_seed(seed)
    jobs = []
    for mix in range(n_pairs):
        for n_cores, rng in streams.items():
            names = [str(n) for n in rng.choice(SPEC_APPS, size=n_cores)]
            group = f"{n_cores}core-{mix}"
            for variant in MIX_VARIANTS:
                job = Job(
                    app="+".join(names),
                    scheme=variant,
                    config=f"{n_cores}core",
                    scale="train",
                    classifier="auto",
                    n_intervals=8,
                    kind="mix",
                    mix_seeds=(s,) * n_cores,
                )
                jobs.append((job, (group, variant)))
    return jobs


def run_grid(jobs: list[tuple[object, tuple]]) -> dict:
    """Run jobs one at a time through the engine; time each call.

    Returns the timed phase's host and reference-scale wall time (the
    sums over all jobs, see :mod:`pb_speed`), both latencies of each
    completed job, their records, and the failures (job key -> error).
    """
    from pb_speed import SpeedTrack
    from repro.exp import MemoryStore, engine, execute

    store = MemoryStore()
    records: dict[str, dict] = {}
    failures: dict[str, str] = {}
    host: list[float] = []
    speed = SpeedTrack()
    for job, __ in jobs:
        start = time.perf_counter()
        report = engine.run_jobs(
            [job], execute.execute_job, store=store, workers=0, strict=False
        )
        host.append(time.perf_counter() - start)
        speed.mark()
        key = job.key()
        if key in report.failures:
            failures[key] = report.failures[key]
        else:
            records[key] = store.get(key)
    ref = speed.reference_times(host)
    done = [job.key() in records for job, __ in jobs]
    return {
        "wall_s": sum(host),
        "ref_wall_s": sum(ref),
        "latencies": [t for t, ok in zip(host, done) if ok],
        "ref_latencies": [t for t, ok in zip(ref, done) if ok],
        "records": records,
        "failures": failures,
    }


def grid_digest(records: dict, failures: dict) -> str:
    """sha256 over every record and failure, independent of run order."""
    payload = json.dumps({"records": records, "failures": failures}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _gmean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sim_stats(jobs: list[tuple[object, tuple]], records: dict) -> dict[str, float]:
    """Simulated instructions of completed jobs and Whirlpool vs Jigsaw.

    The speedup is Jigsaw cycles over Whirlpool cycles per app (single
    jobs), or the weighted-IPC ratio per mix; its geometric mean covers
    groups where both jobs completed.
    """
    from repro.exp.execute import cached_workload

    instructions = 0.0
    by_tag = {}
    for job, tag in jobs:
        record = records.get(job.key())
        if record is None:
            continue
        by_tag[tag] = record
        if job.kind == "mix":
            instructions += sum(
                cached_workload(name, job.scale, s).trace.instructions
                for name, s in zip(job.apps(), job.mix_seeds)
            )
        else:
            instructions += record["instructions"]
    ratios = []
    for (group, variant), record in by_tag.items():
        if variant != "Whirlpool":
            continue
        base = by_tag.get((group, "Jigsaw"))
        if base is None:
            continue
        if "ipcs" in record:
            ratios.append(sum(record["ipcs"]) / sum(base["ipcs"]))
        else:
            ratios.append(base["cycles"] / record["cycles"])
    return {
        "sim.instructions": instructions,
        "sim.whirlpool_vs_jigsaw_gmean": _gmean(ratios),
    }


def failure_breakdown(failures: dict, jobs: list[tuple[object, tuple]]) -> dict:
    """Exception type -> {app or mix: failed jobs}."""
    tags = {job.key(): tag for job, tag in jobs}
    out: dict[str, dict[str, int]] = {}
    for key, error in failures.items():
        kind = error.split("(", 1)[0].split(":", 1)[0]
        group = tags[key][0]
        out.setdefault(kind, {})
        out[kind][group] = out[kind].get(group, 0) + 1
    return {kind: dict(sorted(groups.items())) for kind, groups in sorted(out.items())}

"""One benchmark phase in a fresh process.

``run.py`` starts this script once per phase so that every timed phase
starts with empty per-process caches and its peak RSS is its own.  It
imports ``repro`` through :mod:`pb_import`, runs the phase, and writes
one JSON result to ``--out``.  Usage::

    python3 perfbench/pb_child.py PHASE --workload W --seed N --seconds S \\
        --out result.json [--csv stream.csv] [--trace spans.jsonl]

Phases: ``setup`` (import and build inputs), ``grid`` (run a job grid),
``verify`` (re-run apps-cold's first app), ``watch`` (classify the
stream) and ``reference`` (the offline oracle for the stream).  The
caller sets ``$REPRO_STORE_DIR`` to the store the phase should use.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from pathlib import Path


def _import_all() -> None:
    """Import every ``repro`` module, so no timed phase pays for an import."""
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _grid_jobs(workload: str, seed: int, seconds: float):
    import pb_grids

    if workload == "apps-cold":
        return pb_grids.apps_cold_jobs(seconds)
    return pb_grids.mix_jobs(seed, seconds)


def _setup(args) -> dict:
    if args.workload == "stream-watch":
        import pb_stream

        return {"records": pb_stream.write_csv(args.csv, args.seed, args.seconds)}
    Path(os.environ["REPRO_STORE_DIR"]).mkdir(parents=True, exist_ok=True)
    return {"jobs": len(_grid_jobs(args.workload, args.seed, args.seconds))}


def _grid(jobs, tracer) -> dict:
    import pb_grids

    out = pb_grids.run_grid(jobs)
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.restore()
        out["layers"] = tracer.layer_metrics(out["wall_s"])
    out.update(pb_grids.sim_stats(jobs, out["records"]))
    out["jobs"] = len(jobs)
    out["digest"] = pb_grids.grid_digest(out["records"], out["failures"])
    out["failure_kinds"] = pb_grids.failure_breakdown(out["failures"], jobs)
    return out


def _watch(args, tracer) -> dict:
    import pb_stream

    out = pb_stream.watch(args.csv, tracer)
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        tracer.restore()
        out["layers"] = tracer.layer_metrics(out["wall_s"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "phase", choices=["setup", "grid", "verify", "watch", "reference"]
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--csv")
    parser.add_argument("--trace", help="write the phase's spans here")
    args = parser.parse_args(argv)

    import pb_import

    pb_import.install(Path.cwd())
    _import_all()
    import pb_trace

    guard = pb_trace.StoreGuard().install()
    tracer = None
    if args.phase == "setup":
        result = _setup(args)
    elif args.phase == "reference":
        import pb_stream

        result = pb_stream.reference_pools(args.seed, args.seconds)
    else:
        jobs = None
        if args.phase in ("grid", "verify"):
            jobs = _grid_jobs(args.workload, args.seed, args.seconds)
            if args.phase == "verify":
                jobs = [j for j in jobs if j[1][0] == jobs[0][1][0]]
        if args.trace:
            tracer = pb_trace.Tracer().install()
        if args.phase == "watch":
            result = _watch(args, tracer)
        else:
            result = _grid(jobs, tracer)
        if tracer is not None:
            tracer.write(Path(args.trace))
    result["profile_loads"] = guard.loads
    result["profile_publishes"] = len(guard.published)
    result["foreign_loads"] = guard.foreign_loads
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the Whirlpool reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload apps-cold --seed 1 --seconds 15 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

``apps-cold``
    Fig 16's grid (each app's 6 standard schemes plus WhirlTool at 2 and
    4 pools, ref scale) against an empty store.
``mixes-warm``
    Fig 22's grid (mixes x 4 variants x {4-core, 16-core}, train scale).
    Set-up runs it cold to fill the store; the timed phase runs it again
    in a fresh process against the filled store.
``stream-watch``
    A CSV trace file of SPEC ref traces followed to EOF by
    ``OnlineWhirlTool``.

Every phase runs in its own process (``pb_child.py``) with its own
``$REPRO_STORE_DIR`` under ``.perfbench_work/``, every other ``REPRO_*``
variable unset and NumPy's hugepage advice off.  The command checks the outputs, prints a
report, and ends with one JSON line: end-to-end metrics with
``--trace 0`` (times on the reference scale of ``pb_speed.py``); with
``--trace 1``, per-layer metrics from a traced run of the timed phase,
which also runs untraced to measure the tracing overhead.  It exits 1
on any mismatch and 2 when it cannot run.  ``LAYERS.md`` defines every
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pb_stats import summarize  # noqa: E402

WORKLOADS = ("apps-cold", "mixes-warm", "stream-watch")
#: Set-ups per run whose median is ``setup_s`` (mixes-warm's set-up is a
#: full cold grid, so it runs once).
SETUP_REPEATS = {"apps-cold": 3, "mixes-warm": 1, "stream-watch": 3}
#: Every run must end within this many seconds.
DEADLINE_S = 175.0


class Phases:
    """Starts ``pb_child.py`` phases in fresh processes and collects results."""

    def __init__(self, args, work: Path, spans_path: Path) -> None:
        self.args = args
        self.work = work
        self.spans_path = spans_path
        self.started = time.monotonic()
        self.count = 0

    def env(self, store: Path) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_STORE_DIR"] = str(store)
        # With NumPy's transparent-hugepage advice, identical runs peaked
        # at 604, 638 or 710 MB RSS depending on directory and host state,
        # and a 7.86 GiB dense relabel table (leslie's) was sometimes
        # allocated and sometimes refused.  Without it both repeat.
        env["NUMPY_MADVISE_HUGEPAGE"] = "0"
        return env

    def run(self, phase: str, store: Path, **extra) -> tuple[dict, float]:
        """Run one phase; returns its JSON result and its wall time."""
        self.count += 1
        out = self.work / f"{self.count:02d}-{phase}.json"
        log = self.work / f"{self.count:02d}-{phase}.log"
        cmd = [
            sys.executable,
            str(HERE / "pb_child.py"),
            phase,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--out", str(out),
        ]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError(f"no time left for phase {phase}")
        with open(log, "w") as log_file:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, env=self.env(store), stdout=log_file, stderr=subprocess.STDOUT
            )
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise TimeoutError(f"phase {phase} ran past the deadline") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        if code != 0:
            sys.stderr.write(log.read_text()[-4000:])
            raise RuntimeError(f"phase {phase} exited with code {code}")
        return json.loads(out.read_text()), wall


def _check(condition: bool, message: str, problems: list[str]) -> None:
    if not condition:
        problems.append(message)


def _setup_times(phases: Phases, workload: str, **extra) -> tuple[list[float], dict]:
    samples = []
    result: dict = {}
    for i in range(SETUP_REPEATS[workload]):
        result, wall = phases.run("setup", phases.work / f"setup-store-{i}", **extra)
        samples.append(wall)
    return samples, result


def _timed(phases: Phases, phase: str, stores: tuple[Path, Path], trace: bool, **extra):
    """The timed phase; with ``trace``, once untraced and once traced.

    ``stores`` are the untraced and traced runs' stores.
    """
    plain, __ = phases.run(phase, stores[0], **extra)
    if not trace:
        return plain, None
    traced, __ = phases.run(phase, stores[1], trace=phases.spans_path, **extra)
    return plain, traced


def run_apps_cold(phases: Phases, trace: bool, problems: list[str]) -> dict:
    setup, __ = _setup_times(phases, "apps-cold")
    # Each run gets its own empty store, so the traced run is cold too.
    stores = (phases.work / "store-timed", phases.work / "store-traced")
    timed, traced = _timed(phases, "grid", stores, trace)
    if traced is not None:
        differ = sorted(
            k for k in set(timed["records"]) | set(traced["records"])
            if timed["records"].get(k) != traced["records"].get(k)
        )
        _check(
            traced["digest"] == timed["digest"],
            f"traced results differ from untraced: {len(differ)} records, "
            f"failures {sorted(timed['failures'])} vs {sorted(traced['failures'])}, "
            f"first {[(k, timed['records'].get(k), traced['records'].get(k)) for k in differ[:2]]}",
            problems,
        )
        _check(not traced["foreign_loads"], "traced cold phase loaded foreign profiles", problems)
    verify, __ = phases.run("verify", phases.work / "store-verify")
    _check(not timed["foreign_loads"], f"cold phase loaded profiles it did not compute: {timed['foreign_loads'][:3]}", problems)
    _check(not verify["foreign_loads"], "verify phase loaded foreign profiles", problems)
    first = {k: v for k, v in timed["records"].items() if k in verify["records"]}
    _check(
        first == verify["records"] and set(verify["failures"]) <= set(timed["failures"]),
        "re-running the first app's jobs cold changed their records",
        problems,
    )
    return {"setup": setup, "timed": timed, "traced": traced}


def check_warm(cold: dict, warm: dict, name: str) -> list[str]:
    """Mismatches between a warm grid run and the cold run that filled its store."""
    problems: list[str] = []
    _check(warm["profile_publishes"] == 0, f"{name} phase computed {warm['profile_publishes']} profiles", problems)
    _check(warm["records"] == cold["records"], f"{name} records differ from the cold set-up's", problems)
    _check(warm["failures"] == cold["failures"], f"{name} failures differ from the cold set-up's", problems)
    return problems


def run_mixes_warm(phases: Phases, trace: bool, problems: list[str]) -> dict:
    store = phases.work / "store-mixes"
    cold, wall = phases.run("grid", store)
    _check(not cold["foreign_loads"], f"cold set-up loaded profiles it did not compute: {cold['foreign_loads'][:3]}", problems)
    timed, traced = _timed(phases, "grid", (store, store), trace)
    problems += check_warm(cold, timed, "warm")
    if traced is not None:
        problems += check_warm(cold, traced, "traced warm")
    return {"setup": [wall], "timed": timed, "traced": traced}


def run_stream_watch(phases: Phases, trace: bool, problems: list[str]) -> dict:
    csv = phases.work / "stream.csv"
    setup, made = _setup_times(phases, "stream-watch", csv=csv)
    store = phases.work / "store-watch"
    timed, traced = _timed(phases, "watch", (store, store), trace, csv=csv)
    ref, __ = phases.run("reference", phases.work / "store-ref")
    for name, run in (("watch", timed), ("traced watch", traced)):
        if run is None:
            continue
        _check(run["records"] == made["records"] == ref["records"], f"{name} classified {run['records']} of {ref['records']} records", problems)
        _check(run["epochs"] == ref["epochs"] == len(run["latencies"]), f"{name} sealed {run['epochs']} epochs, expected {ref['epochs']}", problems)
        _check(run["pools"] == ref["pools"], f"{name} final pools differ from online_pools_reference", problems)
    if traced is not None:
        _check(traced["reclusters"] == timed["reclusters"], "re-cluster count changed under tracing", problems)
    return {"setup": setup, "timed": timed, "traced": traced}


def end_to_end(workload: str, result: dict) -> tuple[dict, list[str]]:
    """Metrics on the reference scale (``pb_speed``), and report lines
    that also give the raw host-time values."""
    timed = result["timed"]
    if workload == "stream-watch":
        done = timed["records"]
        instructions = float(done)  # one simulated instruction per record
        names = ("records_per_s", "epoch_p50_s", "epoch_tail_s", "epochs")
    else:
        done = len(timed["records"])
        instructions = timed["sim.instructions"]
        names = ("jobs_per_s", "job_p50_s", "job_tail_s", "jobs")
    scales = {
        "reference": (timed["ref_wall_s"], summarize(timed["ref_latencies"])),
        "host": (timed["wall_s"], summarize(timed["latencies"])),
    }
    wall, lat = scales["reference"]
    metrics = {
        "setup_s": (statistics.median(result["setup"]), "s"),
        "throughput_per_s": (done / wall, "1/s"),
        "sim_minstr_per_s": (instructions / 1e6 / wall, "Minstr/s"),
        "latency_p50_s": (lat["p50"], "s"),
        "latency_tail_s": (lat["tail"], "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    lines = []
    for scale, (wall, lat) in scales.items():
        lines += [
            f"  [{scale} time] {names[0]} = throughput_per_s {done / wall:.6g} 1/s "
            f"({done} in {wall:.3f} s); sim_minstr_per_s {instructions / 1e6 / wall:.6g}",
            f"  [{scale} time] {names[1]} = latency_p50_s {lat['p50']:.6g} s; "
            f"{names[2]} = latency_tail_s (p{lat['pct']:.1f}) {lat['tail']:.6g} s "
            f"of {lat['n']} {names[3]}",
        ]
    lines += [
        f"  setup_s {metrics['setup_s'][0]:.6g} s (host time, median of "
        f"{len(result['setup'])}: " + ", ".join(f"{s:.3f}" for s in result["setup"]) + ")",
        f"  peak_rss_mb {timed['peak_rss_mb']:.1f} MB",
    ]
    return metrics, lines


def per_layer(workload: str, result: dict) -> dict:
    plain, traced = result["timed"], result["traced"]
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["ref_wall_s"] / plain["ref_wall_s"] - 1.0
    if workload == "stream-watch":
        layers.update(
            {
                "sim.instructions": float(traced["records"]),
                "sim.whirlpool_vs_jigsaw_gmean": 0.0,
                "exp.jobs": 0,
                "exp.failed": 0,
            }
        )
    else:
        layers.update(
            {
                "sim.instructions": traced["sim.instructions"],
                "sim.whirlpool_vs_jigsaw_gmean": traced["sim.whirlpool_vs_jigsaw_gmean"],
                "exp.jobs": traced["jobs"],
                "exp.failed": len(traced["failures"]),
            }
        )
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    work = checkout / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = checkout / ".perfbench_out"
    phases = Phases(args, work, out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    problems: list[str] = []
    try:
        runner = {
            "apps-cold": run_apps_cold,
            "mixes-warm": run_mixes_warm,
            "stream-watch": run_stream_watch,
        }[args.workload]
        result = runner(phases, bool(args.trace), problems)
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = result["timed"]
    if args.workload == "stream-watch":
        attempted, failed = timed["epochs"], 0
    else:
        attempted, failed = timed["jobs"], len(timed["failures"])
    print(f"{args.workload} seed {args.seed} seconds {args.seconds:g}")
    print(f"  attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.6g}")
    for kind, groups in timed.get("failure_kinds", {}).items():
        listed = ", ".join(f"{g} x{n}" for g, n in groups.items())
        print(f"  failed with {kind}: {sum(groups.values())} jobs: {listed}")
    if "digest" in timed:
        print(f"  result digest {timed['digest']}")
    try:
        e2e, lines = end_to_end(args.workload, result)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if args.trace:
        metrics = per_layer(args.workload, result)
        print(f"  spans written to {phases.spans_path.relative_to(checkout)}")
        for name, value in sorted(metrics.items()):
            print(f"  {name} {value:.6g}")
        units = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        metrics_out = {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in units
        }
    else:
        metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    for problem in problems:
        print(f"MISMATCH: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics_out,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    # SIGTERM as an exception: the running phase is killed and reaped on
    # the way out.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    sys.exit(main())

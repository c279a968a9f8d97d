"""Tests of the end-to-end benchmark in small mode (a few seconds a run).

Each benchmark run starts fresh processes that import ``repro`` from the
checkout under test, so these tests run the command as a subprocess.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
REPO = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


#: Smallest runs with completed jobs: Fig 22's first two mix pairs each
#: hold leslie, whose jobs fail with MemoryError, so mixes-warm needs three.
SMALL_SECONDS = {"apps-cold": 1, "mixes-warm": 5, "stream-watch": 1}


def _bench(checkout: Path, workload: str, trace: int = 0, seed: int = 3) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(SMALL_SECONDS[workload]),
            "--trace", str(trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _copy_checkout(dest: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_*")
    shutil.copytree(REPO / "src", dest / "src", ignore=ignore)
    shutil.copytree(PERFBENCH, dest / "perfbench", ignore=ignore)
    shutil.copy(REPO / "BENCHMARK.json", dest)
    return dest


def test_benchmark_json_matches_the_command():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in _units("end_to_end")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_prints_every_end_to_end_metric(workload):
    code, lines = _bench(REPO, workload)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_prints_every_per_layer_metric():
    code, lines = _bench(REPO, "stream-watch", trace=1)
    assert code == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    assert metrics["online.epochs"]["value"] == result["attempted"]
    assert metrics["ingest.records"]["value"] == metrics["sim.instructions"]["value"]
    layer_s = sum(
        v["value"] for k, v in metrics.items() if v["unit"] == "s"
    )
    assert layer_s > 0
    assert metrics["other_s"]["value"] < 0.2 * layer_s


def test_corrupted_warm_record_is_a_mismatch():
    records = {"k1": {"ipcs": [1.0, 2.0], "cycles": 10.0}, "k2": {"ipcs": [3.0], "cycles": 4.0}}
    cold = {"records": records, "failures": {"k3": "MemoryError()"}}
    warm = json.loads(json.dumps(cold))
    warm["profile_publishes"] = 0
    assert run.check_warm(cold, warm, "warm") == []
    warm["records"]["k2"]["ipcs"][0] = 3.0000001
    assert run.check_warm(cold, warm, "warm") == ["warm records differ from the cold set-up's"]
    warm["records"] = cold["records"]
    warm["failures"] = {}
    assert run.check_warm(cold, warm, "warm") == ["warm failures differ from the cold set-up's"]


def test_mismatch_exits_nonzero(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(_copy_checkout(tmp_path))
    cold = {
        "wall_s": 1.0,
        "ref_wall_s": 1.0,
        "latencies": [0.1, 0.2],
        "ref_latencies": [0.1, 0.2],
        "records": {"a": {"ipcs": [1.0]}, "b": {"ipcs": [2.0]}},
        "failures": {},
        "foreign_loads": [],
        "profile_publishes": 2,
        "peak_rss_mb": 100.0,
        "sim.instructions": 1e6,
        "jobs": 2,
        "digest": "x",
    }
    warm = dict(cold, profile_publishes=0, records={"a": {"ipcs": [1.0]}, "b": {"ipcs": [2.5]}})
    results = iter([(cold, 5.0), (warm, 1.0)])
    monkeypatch.setattr(run.Phases, "run", lambda self, phase, store, **kw: next(results))
    code = run.main(["--workload", "mixes-warm", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert json.loads(out[-1])["correct"] is False
    assert "MISMATCH: warm records differ from the cold set-up's" in out


def _grid_in(checkout: Path) -> dict:
    """PBBS region ids, and two train-scale jobs (one bound to fail), run
    with the benchmark's import from ``checkout``."""
    script = f"""
import json, sys
sys.path.insert(0, {str(checkout / 'perfbench')!r})
import pb_import
pb_import.install({str(checkout)!r})
import pb_grids
from repro.exp import Job
from repro.workloads import build_workload
jobs = [
    (Job(app="MIS", scheme="Whirlpool", classifier="whirltool:3", scale="train", seed=1001),
     ("MIS", "Whirlpool")),
    (Job(app="no-such-app", scheme="LRU", scale="train", seed=1001), ("no-such-app", "LRU")),
]
out = pb_grids.run_grid(jobs)
print(json.dumps({{
    "region_ids": sorted(set(build_workload("MIS", "train", 1001).trace.regions.tolist())),
    "digest": pb_grids.grid_digest(out["records"], out["failures"]),
    "completed": len(out["records"]),
    "failures": pb_grids.failure_breakdown(out["failures"], jobs),
}}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=checkout, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_checkout_location_does_not_change_results(tmp_path):
    near = _grid_in(_copy_checkout(tmp_path / "a"))
    far = _grid_in(_copy_checkout(tmp_path / "b" / "deeper" / "checkout"))
    # Region ids hash source file names: imported the usual way they differ.
    assert near == far
    # The induced failure is counted, by exception type and job.
    assert near["completed"] == 1
    assert sum(n for groups in near["failures"].values() for n in groups.values()) == 1
    assert list(near["failures"].values()) == [{"no-such-app": 1}]


def test_tracing_keeps_region_ids():
    script = f"""
import json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
import pb_import
pb_import.install({str(REPO)!r})
import pb_trace
from repro.workloads import build_workload

def ids():
    return sorted(set(build_workload("MIS", "train", 1001).trace.regions.tolist()))

plain = ids()
tracer = pb_trace.Tracer().install()
traced = ids()
print(json.dumps([plain, traced, tracer.calls["mem.callpoint"]]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stderr
    plain, traced, calls = json.loads(proc.stdout.splitlines()[-1])
    assert calls > 0
    assert traced == plain


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    code, lines = _bench(tmp_path, "apps-cold")
    assert code != 0
    assert not any(line.startswith("{") for line in lines)

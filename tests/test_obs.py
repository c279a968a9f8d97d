"""Unit tests for the repro.obs tracing and metrics layer.

Covers the span model (nesting, explicit handles, error tagging), the
sinks, cross-process context propagation via ``current_context`` /
``adopt``, the replay path (``load_events`` -> ``replay_metrics`` ->
``rollup``), the shared perf-timings writer, and — critically — that
every public helper is a true no-op while observability is disabled.
The replay-equality invariant (event-log replay reproduces the live
registry exactly) is pinned property-based with Hypothesis.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricRegistry,
    events_path_for,
)
from repro.obs.core import _ADOPTED_SINKS, _ZERO_BUCKET, _log_bucket
from repro.obs.report import (
    format_report,
    load_events,
    percentile,
    replay_metrics,
    rollup,
)
from repro.obs.timings import SCHEMA, infer_unit, record_timings


@pytest.fixture(autouse=True)
def obs_off(monkeypatch):
    """Every test starts and ends with observability disabled."""
    monkeypatch.delenv(obs.ENV_VAR, raising=False)
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def adopted_sinks():
    """Close the worker-side sinks ``adopt`` caches once the test ends.

    Pool workers keep them open for their whole life; a test process
    must not.
    """
    yield
    for sink in _ADOPTED_SINKS.values():
        sink.close()
    _ADOPTED_SINKS.clear()


def enable_memory():
    sink = MemorySink()
    obs.enable(sinks=[sink])
    return sink


class TestMetricRegistry:
    def test_counters_accumulate(self):
        reg = MetricRegistry()
        reg.count("a")
        reg.count("a", 2.5)
        reg.count("b")
        assert reg.counters == {"a": 3.5, "b": 1.0}

    def test_gauges_keep_latest(self):
        reg = MetricRegistry()
        reg.set_gauge("depth", 3.0)
        reg.set_gauge("depth", 1.0)
        assert reg.gauges == {"depth": 1.0}

    def test_histogram_log_buckets(self):
        reg = MetricRegistry()
        # 1.0 and 1.5 share bucket 0 (2**0 <= v < 2**1); 4.0 is bucket 2.
        for v in (1.0, 1.5, 4.0):
            reg.observe("lat", v)
        assert reg.histograms["lat"] == {0: 2, 2: 1}

    def test_bucket_edge_cases(self):
        assert _log_bucket(0.0) == _ZERO_BUCKET
        assert _log_bucket(-1.0) == _ZERO_BUCKET
        assert _log_bucket(float("nan")) == _ZERO_BUCKET
        assert _log_bucket(float("inf")) == 1 << 30
        assert _log_bucket(0.5) == -1
        assert _log_bucket(1.0) == 0
        assert _log_bucket(2.0) == 1

    def test_apply_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MetricRegistry().apply("timer", "x", 1.0)

    def test_snapshot_is_json_friendly(self):
        reg = MetricRegistry()
        reg.count("c")
        reg.set_gauge("g", 2.0)
        reg.observe("h", 3.0)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"] == {"c": 1.0}
        assert snap["histograms"]["h"] == {"1": 1}


class TestSpans:
    def test_span_pairs_and_nests(self):
        sink = enable_memory()
        with obs.span("outer", key="k") as outer:
            with obs.span("inner"):
                pass
            outer.note(done=True)
        kinds = [(e["kind"], e["name"]) for e in sink.events]
        assert kinds == [
            ("span-start", "outer"),
            ("span-start", "inner"),
            ("span-end", "inner"),
            ("span-end", "outer"),
        ]
        start_outer, start_inner, end_inner, end_outer = sink.events
        assert start_inner["parent"] == start_outer["span"]
        assert "parent" not in start_outer
        assert end_outer["fields"] == {"key": "k", "done": True}
        assert end_inner["dur_s"] >= 0.0
        # Both spans share the state's trace id.
        assert len({e["trace"] for e in sink.events}) == 1

    def test_span_records_error_on_exception(self):
        sink = enable_memory()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("bad")
        end = sink.events[-1]
        assert end["kind"] == "span-end"
        assert "RuntimeError" in end["fields"]["error"]

    def test_start_span_handle_does_not_join_stack(self):
        sink = enable_memory()
        handle = obs.start_span("submit", key="j1")
        # A nested span opened while the handle is live must NOT parent
        # under it — handles live outside the local nesting stack.
        with obs.span("unrelated"):
            pass
        handle.end(outcome="completed")
        handle.end(outcome="twice")  # idempotent: ignored
        by_kind = [(e["kind"], e["name"]) for e in sink.events]
        assert by_kind.count(("span-end", "submit")) == 1
        unrelated = next(
            e for e in sink.events
            if e["kind"] == "span-start" and e["name"] == "unrelated"
        )
        assert "parent" not in unrelated
        end = next(
            e for e in sink.events
            if e["kind"] == "span-end" and e["name"] == "submit"
        )
        assert end["fields"] == {"key": "j1", "outcome": "completed"}

    def test_events_and_metrics_emit_records(self):
        sink = enable_memory()
        obs.event("job.retry", key="k", attempt=2)
        obs.counter("jobs", 2)
        obs.gauge("depth", 5.0)
        obs.histogram("lat", 0.25)
        kinds = [e["kind"] for e in sink.events]
        assert kinds == ["event", "metric", "metric", "metric"]
        reg = obs.get_registry()
        assert reg.counters == {"jobs": 2.0}
        assert reg.gauges == {"depth": 5.0}
        assert reg.histograms == {"lat": {-2: 1}}


class TestDisabledPath:
    def test_every_helper_is_a_noop(self):
        assert not obs.enabled()
        assert obs.get_registry() is None
        assert obs.current_context() is None
        obs.event("x")
        obs.counter("x")
        obs.gauge("x", 1.0)
        obs.histogram("x", 1.0)
        with obs.span("x") as sp:
            sp.note(a=1)
        handle = obs.start_span("y")
        handle.end()
        # The shared no-op span is a singleton: no per-call allocation.
        # (Bare calls on purpose — the disabled path is what's under test.)
        assert obs.span("a") is obs.span("b") is obs.start_span("c")  # repro: noqa[obs-span-pairing]

    def test_adopt_none_context_stays_dark(self):
        with obs.adopt(None):
            assert not obs.enabled()
        with obs.adopt({"trace": "t", "parent": None, "path": None}):
            assert not obs.enabled()


class TestSessionAndEnv:
    def test_session_enables_and_restores(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        with obs.session(path=path):
            assert obs.enabled()
            obs.event("inside")
        assert not obs.enabled()
        assert [e["name"] for e in load_events(path)] == ["inside"]

    def test_nested_session_is_passthrough(self, tmp_path):
        sink = enable_memory()
        with obs.session(path=tmp_path / "ignored.jsonl"):
            obs.event("kept")
        # The outer enable survives; the inner session wrote nowhere else.
        assert obs.enabled()
        assert not (tmp_path / "ignored.jsonl").exists()
        assert [e["name"] for e in sink.events] == ["kept"]

    def test_env_zero_vetoes_session(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.ENV_VAR, "0")
        with obs.session(path=tmp_path / "vetoed.jsonl"):
            assert not obs.enabled()
        assert not (tmp_path / "vetoed.jsonl").exists()


class TestContextPropagation:
    def test_current_context_carries_sidecar_path(self, tmp_path):
        path = tmp_path / "c.events.jsonl"
        obs.enable(path=path)
        with obs.span("campaign"):
            ctx = obs.current_context()
        assert ctx["path"] == str(path)
        assert ctx["trace"]
        obs.disable()

    def test_parent_override_for_handles(self):
        enable_memory()
        handle = obs.start_span("engine.job")
        ctx = obs.current_context(parent=handle.span_id)
        assert ctx["parent"] == handle.span_id
        assert obs.current_context()["parent"] is None
        handle.end()

    def test_adopt_installs_supervisor_trace(self, tmp_path, adopted_sinks):
        path = tmp_path / "w.events.jsonl"
        ctx = {"trace": "feedc0de", "parent": "sup-1", "path": str(path)}
        with obs.adopt(ctx):
            assert obs.enabled()
            with obs.span("worker.attempt", key="j"):
                pass
        assert not obs.enabled()
        events = load_events(path)
        assert all(e["trace"] == "feedc0de" for e in events)
        start = events[0]
        assert start["name"] == "worker.attempt"
        assert start["parent"] == "sup-1"

    def test_adopt_overrides_inherited_state(self, tmp_path, adopted_sinks):
        # Fork-started workers inherit the supervisor's enabled state;
        # a real context must still win (fresh parent, fresh pid).
        local = enable_memory()
        path = tmp_path / "w.events.jsonl"
        ctx = {"trace": "aa", "parent": "sup-9", "path": str(path)}
        with obs.adopt(ctx):
            obs.event("from-worker")
        obs.event("from-supervisor")
        assert [e["name"] for e in load_events(path)] == ["from-worker"]
        assert [e["name"] for e in local.events] == ["from-supervisor"]


class TestSinksAndReplay:
    def test_events_path_for(self):
        assert events_path_for("runs/campaign.jsonl").name == (
            "campaign.events.jsonl"
        )

    def test_jsonl_sink_appends_flushed_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        sink = JsonlSink(path)
        sink.emit({"a": 1})
        # Flushed before close: a crashed worker leaves its events.
        assert path.read_text() == '{"a": 1}\n'
        sink.emit({"b": 2})
        sink.close()
        sink.close()  # idempotent
        assert len(path.read_text().splitlines()) == 2

    def test_load_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "event", "name": "ok"}\n{"kind": "eve')
        events = load_events(path)
        assert [e["name"] for e in events] == ["ok"]

    def test_percentile_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 50) == 2.0
        assert percentile(vals, 95) == 4.0
        assert percentile([7.0], 50) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_cache_ratios_per_profile_tier_and_clusterings(
        self, tmp_path, monkeypatch
    ):
        """Each tier that served a profile is counted on its own."""
        import numpy as np

        from repro.core.whirltool import WhirlToolProfiler, trained_clustering
        from repro.sim import profiling
        from repro.workloads.trace import Trace, Workload

        rng = np.random.default_rng(4)
        trace = Trace(
            lines=rng.integers(0, 64, 400),
            regions=rng.integers(0, 3, 400).astype(np.int32),
            instructions=4000.0,
            region_names={0: "a", 1: "b", 2: "c"},
        )
        args = (trace, {0: 0, 1: 1, 2: 1}, 1024, 4, 1, 0)
        sink = enable_memory()
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path / "flat"))
        profiling.profile_vcs(*args)  # miss, written to the flat dir
        profiling.profile_vcs(*args)  # env_dir hit
        monkeypatch.delenv("REPRO_PROFILE_CACHE")
        monkeypatch.setattr(profiling, "_fixture_dir", lambda: tmp_path / "flat")
        profiling.profile_vcs(*args)  # fixture_pile hit (the store is empty)
        monkeypatch.setattr(profiling, "_fixture_dir", lambda: None)
        profiling.profile_vcs(*args)  # miss, published to the store
        profiling.profile_vcs(*args)  # store hit
        profiler = WhirlToolProfiler(
            chunk_bytes=1024, n_chunks=4, n_intervals=1, sample_shift=0
        )
        workload = Workload(name="w", trace=trace)
        for __ in range(3):
            trained_clustering(workload, profiler)  # miss, hit, hit
        ratios = rollup(sink.events)["cache_hit_ratios"]
        assert ratios["profile_cache"] == 0.6
        assert ratios["profile_cache.env_dir"] == 0.2
        assert ratios["profile_cache.fixture_pile"] == 0.2
        assert ratios["profile_cache.store"] == 0.2
        assert ratios["clustering_cache"] == round(2 / 3, 4)
        text = format_report(rollup(sink.events))
        assert "profile_cache.fixture_pile: 20.0%" in text
        assert "clustering_cache: 66.7%" in text

    def test_rollup_reads_lifecycle_events(self):
        sink = enable_memory()
        with obs.span("engine.job", key="a"):
            pass
        obs.event("job.completed", key="a", elapsed_s=0.5, scheme="LRU")
        obs.event("job.retry", key="b", attempt=1)
        obs.event("job.retry", key="b", attempt=2)
        obs.event("job.quarantined", key="b")
        obs.event("fault.injected", site="worker", mode="crash", key="b")
        obs.counter("profile_cache.hit", 3)
        obs.counter("profile_cache.miss", 1)
        summary = rollup(sink.events)
        assert summary["jobs"] == {
            "completed": 1, "retried": 2, "quarantined": 1
        }
        assert summary["schemes"]["LRU"]["jobs"] == 1
        assert summary["retry_storms"] == [{"key": "b", "retries": 2}]
        assert summary["cache_hit_ratios"]["profile_cache"] == 0.75
        assert summary["faults"]["injected"] == 1
        assert summary["spans"]["engine.job"]["count"] == 1
        text = format_report(summary)
        assert "1 completed, 2 retried, 1 quarantined" in text
        assert "faults injected: 1" in text
        assert "b: 2 retries" in text

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["counter", "gauge", "hist"]),
                st.sampled_from(["a", "b", "c", "d"]),
                st.floats(
                    allow_nan=False,
                    allow_infinity=False,
                    min_value=-1e9,
                    max_value=1e9,
                ),
            ),
            max_size=60,
        )
    )
    def test_replay_equals_live_registry(self, ops):
        """Replaying an event log reproduces the live registry exactly."""
        obs.disable()
        sink = MemorySink()
        obs.enable(sinks=[sink])
        try:
            for metric, name, value in ops:
                if metric == "counter":
                    obs.counter(name, value)
                elif metric == "gauge":
                    obs.gauge(name, value)
                else:
                    obs.histogram(name, value)
            live = obs.get_registry().snapshot()
        finally:
            obs.disable()
        # Round-trip through JSON like the sidecar does.
        lines = [json.dumps(e, sort_keys=True) for e in sink.events]
        replayed = replay_metrics([json.loads(ln) for ln in lines])
        assert replayed.snapshot() == live


class TestTimingsWriter:
    def test_schema_and_units(self, tmp_path):
        path = tmp_path / "perf_x_timings.json"
        record_timings(
            path,
            "smoke",
            {"elapsed_s": 1.5, "speedup": (7.0, "x")},
            gate="speedup >= 5.0x",
        )
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA
        entry = data["entries"]["smoke"]
        assert entry["gate"] == "speedup >= 5.0x"
        assert entry["metrics"]["elapsed_s"] == {"value": 1.5, "unit": "s"}
        assert entry["metrics"]["speedup"] == {"value": 7.0, "unit": "x"}

    def test_entries_merge_and_corrupt_files_replaced(self, tmp_path):
        path = tmp_path / "perf_x_timings.json"
        path.write_text("not json {")
        record_timings(path, "a", {"t_s": 1.0})
        record_timings(path, "b", {"t_s": 2.0})
        record_timings(path, "a", {"t_s": 3.0})  # re-run replaces entry
        data = json.loads(path.read_text())
        assert sorted(data["entries"]) == ["a", "b"]
        assert data["entries"]["a"]["metrics"]["t_s"]["value"] == 3.0

    def test_emits_perf_timing_events_when_traced(self, tmp_path):
        sink = enable_memory()
        record_timings(tmp_path / "t.json", "smoke", {"t_s": 1.0})
        assert [e["name"] for e in sink.events] == ["perf.timing"]
        assert sink.events[0]["fields"]["entry"] == "smoke"

    def test_infer_unit_conventions(self):
        assert infer_unit("us_per_job") == "us"
        assert infer_unit("mb_per_s") == "MB/s"
        assert infer_unit("streaming_s") == "s"
        assert infer_unit("seconds") == "s"
        assert infer_unit("mb") == "MB"
        assert infer_unit("speedup") == "x"
        assert infer_unit("supervised_ratio") == "x"
        assert infer_unit("count") == ""


class TestEnvBootstrap:
    def test_env_path_enables_jsonl(self, tmp_path, monkeypatch):
        path = tmp_path / "env.events.jsonl"
        monkeypatch.setenv(obs.ENV_VAR, str(path))
        from repro.obs import core

        core._bootstrap_env()
        try:
            assert obs.enabled()
            obs.event("booted")
        finally:
            obs.disable()
        assert [e["name"] for e in load_events(path)] == ["booted"]

    def test_env_off_values_stay_dark(self, monkeypatch):
        from repro.obs import core

        for value in (None, "0", ""):
            if value is None:
                monkeypatch.delenv(obs.ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(obs.ENV_VAR, value)
            core._bootstrap_env()
            assert not obs.enabled()

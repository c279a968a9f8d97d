"""Unit tests for WhirlTool (profiler, analyzer, runtime)."""

import json
import struct

import numpy as np
import pytest

from repro.core.whirltool import (
    CallpointProfile,
    WhirlToolAnalyzer,
    WhirlToolClassifier,
    WhirlToolProfiler,
    pool_distance,
    train_whirltool,
    trained_clustering,
)
from repro.curves import MissCurve
from repro.sim.profiling import clustering_fingerprint
from repro.store import ArtifactStore
from repro.store.artifacts import ENV_STORE
from repro.store.clusterings import encode_clustering
from repro.workloads import build_workload
from repro.workloads.trace import Trace, Workload

CHUNK = 64 * 1024


def curve(values, accesses=None, instr=1e6):
    values = np.asarray(values, dtype=float)
    return MissCurve(
        misses=values,
        chunk_bytes=CHUNK,
        accesses=float(values[0]) if accesses is None else accesses,
        instructions=instr,
    )


def friendly(n=40, scale=1000.0):
    """Cache-friendly pool: misses vanish quickly."""
    return curve(scale * np.power(0.7, np.arange(n + 1)))


def streaming(n=40, scale=1000.0):
    return curve([scale] * (n + 1), accesses=scale)


class TestPoolDistance:
    def test_interval_grid_mismatch(self):
        with pytest.raises(ValueError):
            pool_distance([friendly()], [friendly(), friendly()])

    def test_friendly_pair_closer_than_antagonists(self):
        """Fig 15: combining two cache-friendly pools is cheap; combining
        a friendly pool with a streaming one is expensive."""
        f1, f2 = [friendly()], [friendly()]
        s = [streaming()]
        assert pool_distance(f1, s) > pool_distance(f1, f2)

    def test_disjoint_phases_small_distance(self):
        """Pools active in different intervals barely interfere."""
        active = friendly()
        idle = MissCurve(
            misses=np.zeros(41), chunk_bytes=CHUNK, accesses=0, instructions=1e6
        )
        a = [active, idle]
        b = [idle, active]
        together = [active, active]
        assert pool_distance(a, b) < pool_distance(together, together) + 1e-9
        assert pool_distance(a, b) == 0.0

    def test_symmetric(self):
        a, b = [friendly()], [streaming()]
        assert pool_distance(a, b) == pytest.approx(pool_distance(b, a))


class TestAnalyzer:
    def make_profile(self):
        return CallpointProfile(
            curves={
                1: [friendly()],
                2: [friendly(scale=900.0)],
                3: [streaming()],
            },
            names={1: "flags", 2: "verts", 3: "edges"},
        )

    def test_merge_tree_complete(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        assert len(result.merges) == 2  # n-1 merges

    def test_friendly_pools_merge_first(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        first_a, first_b, __ = result.merges[0]
        assert set(first_a) | set(first_b) == {1, 2}

    def test_assignments_cut(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        two = result.assignments(2)
        assert two[1] == two[2]
        assert two[1] != two[3]
        three = result.assignments(3)
        assert len(set(three.values())) == 3

    def test_assignments_more_pools_than_callpoints(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        many = result.assignments(10)
        assert len(set(many.values())) == 3

    def test_assignments_invalid(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        with pytest.raises(ValueError):
            result.assignments(0)

    def test_dendrogram_text(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        text = result.dendrogram_text()
        assert "flags" in text and "edges" in text


class TestProfiler:
    def test_profiles_all_callpoints(self):
        w = build_workload("MIS", scale="train", seed=0)
        profile = WhirlToolProfiler(n_intervals=4).profile(w)
        assert set(profile.callpoints) == set(w.region_names)
        assert profile.n_intervals == 4

    def test_interval_count_respected(self):
        w = build_workload("lbm", scale="train", seed=0)
        profile = WhirlToolProfiler(n_intervals=6).profile(w)
        for series in profile.curves.values():
            assert len(series) == 6


class TestEndToEnd:
    def test_mis_clusters_like_manual(self):
        """WhirlTool should separate edges from the vertex state."""
        cls = train_whirltool("MIS", n_pools=2)
        w = build_workload("MIS", scale="ref", seed=0)
        mapping, specs = cls.classify(w)
        by_name = {}
        for rid, vc in mapping.items():
            by_name[w.region_names[rid]] = vc
        assert by_name["edges"] != by_name["flags"]

    def test_classifier_stable_across_scales(self):
        """Callpoint ids trained on 'train' must resolve on 'ref'."""
        cls = train_whirltool("cactus", n_pools=2)
        ref = build_workload("cactus", scale="ref", seed=0)
        mapping, __ = cls.classify(ref)
        # No region should fall back to the process VC: every callpoint
        # was seen during training.
        assert all(vc != 0 for vc in mapping.values())

    def test_unprofiled_callpoints_use_process_vc(self):
        cls = train_whirltool("MIS", n_pools=3)
        other = build_workload("dict", scale="train", seed=0)
        mapping, specs = cls.classify(other)
        assert set(mapping.values()) == {0}

    def test_invalid_pool_count(self, store, trainings):
        with pytest.raises(ValueError):
            train_whirltool("MIS", n_pools=0)
        # Rejected before any work: nothing profiled, nothing published.
        assert trainings == []
        assert list(store.artifacts()) == []


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_STORE, str(tmp_path / "store"))
    return ArtifactStore()


@pytest.fixture()
def trainings(monkeypatch):
    """The workload names WhirlToolProfiler.profile ran on."""
    seen = []
    original = WhirlToolProfiler.profile

    def profile(self, workload):
        seen.append(workload.name)
        return original(self, workload)

    monkeypatch.setattr(WhirlToolProfiler, "profile", profile)
    return seen


#: A small grid so the synthetic trainings below take milliseconds.
SMALL = dict(chunk_bytes=4096, n_chunks=32, n_intervals=2, sample_shift=0)


def tiny_workload(seed=0, n=3000, **changes):
    rng = np.random.default_rng(seed)
    fields = dict(
        lines=rng.integers(0, 600, n),
        regions=(rng.integers(0, 4, n) * 977 + 2**31 - 4000).astype(np.int32),
        instructions=n * 12.0,
        line_bytes=64,
    )
    fields.update(changes)
    names = {int(r): f"r{int(r)}" for r in np.unique(fields["regions"])}
    return Workload(name="tiny", trace=Trace(region_names=names, **fields))


def assert_same_clustering(got, want):
    assert got.callpoints == want.callpoints
    assert got.names == want.names
    assert len(got.merges) == len(want.merges)
    for (ga, gb, gd), (wa, wb, wd) in zip(got.merges, want.merges):
        assert (ga, gb) == (wa, wb)
        assert struct.pack("<d", gd) == struct.pack("<d", wd)
    for k in range(1, 6):
        assert got.assignments(k) == want.assignments(k)
    assert got.dendrogram_text() == want.dendrogram_text()


class TestTrainedClustering:
    """One training per (trace, profiler grid), kept in the store."""

    @pytest.mark.parametrize("app", ["MIS", "bzip2", "mcf", "omnet"])
    def test_store_served_equals_fresh_training(self, app, store, trainings):
        cold = trained_clustering(build_workload(app, scale="train", seed=0))
        assert trainings == [app]
        # A fresh build of the same input (new trace object) is a hit.
        workload = build_workload(app, scale="train", seed=0)
        served = trained_clustering(workload)
        assert trainings == [app]
        fresh = WhirlToolAnalyzer().cluster(WhirlToolProfiler().profile(workload))
        assert_same_clustering(cold, fresh)
        assert_same_clustering(served, fresh)
        (artifact,) = store.artifacts("clusterings")
        meta = store.provenance("clusterings", artifact[1])
        assert meta["inputs"]["workload"] == app
        assert meta["inputs"]["sample_shift"] == 3

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.write_bytes(path.read_bytes()[:200]),
            lambda path: path.write_bytes(b"\x00" * 64),
            "wrong-version",
        ],
        ids=["truncated", "corrupt", "wrong-version"],
    )
    def test_unusable_payload_retrains(self, damage, store, trainings):
        profiler = WhirlToolProfiler(**SMALL)
        want = trained_clustering(tiny_workload(), profiler)
        (__, key, path), = store.artifacts("clusterings")
        if damage == "wrong-version":
            payload = encode_clustering(want)
            payload["format_version"] = np.array(99)
            with open(path, "wb") as fh:
                np.savez(fh, **payload)
        else:
            damage(path)
        got = trained_clustering(tiny_workload(), profiler)
        assert trainings == ["tiny", "tiny"]
        assert_same_clustering(got, want)
        # The retrained tree was republished and serves the next call.
        assert store.verify()["bad"] == {}
        trained_clustering(tiny_workload(), profiler)
        assert trainings == ["tiny", "tiny"]

    def test_failing_store_reads_retrain(self, store, trainings, monkeypatch):
        from repro.devtools import faults

        profiler = WhirlToolProfiler(**SMALL)
        want = trained_clustering(tiny_workload(), profiler)
        plan = {"rules": [{"site": "store-read", "mode": "raise", "count": 99}]}
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(plan))
        faults.reset()
        try:
            got = trained_clustering(tiny_workload(), profiler)
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            faults.reset()
        assert trainings == ["tiny", "tiny"]
        assert_same_clustering(got, want)

    def test_key_follows_every_training_input(self):
        base = tiny_workload()
        grid = dict(SMALL)

        def key(workload, **change):
            return clustering_fingerprint(workload.trace, **{**grid, **change})

        want = key(base)
        assert key(tiny_workload()) == want  # deterministic, per content
        changed = {
            key(base, chunk_bytes=8192),
            key(base, n_chunks=33),
            key(base, n_intervals=3),
            key(base, sample_shift=1),
            key(tiny_workload(instructions=base.trace.instructions + 1)),
            key(tiny_workload(line_bytes=128)),
            key(tiny_workload(n=2999)),
        }
        lines = base.trace.lines.copy()
        lines[17] += 1
        changed.add(key(tiny_workload(lines=lines)))
        regions = base.trace.regions.copy()
        regions[17] = regions[18] if regions[17] != regions[18] else regions[0]
        assert not np.array_equal(regions, base.trace.regions)
        changed.add(key(tiny_workload(regions=regions)))
        assert want not in changed
        assert len(changed) == 9
        # Profile keys of the same trace share its hash state but never
        # its keys.
        from repro.sim.profiling import _fingerprint

        assert _fingerprint(base.trace, {}, *grid.values()) != want

    def test_renamed_region_is_a_hit_with_new_names(self, store, trainings):
        profiler = WhirlToolProfiler(**SMALL)
        first = trained_clustering(tiny_workload(), profiler)
        renamed = tiny_workload()
        cp = first.callpoints[0]
        renamed.trace.region_names[cp] = "renamed"
        got = trained_clustering(renamed, profiler)
        assert trainings == ["tiny"]
        assert got.names[cp] == "renamed"
        assert got.merges == first.merges
        assert "renamed" in got.dendrogram_text()

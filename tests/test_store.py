"""The content-addressed artifact store: publish, map, maintain.

Everything runs against a temp root via ``$REPRO_STORE_DIR``; the
legacy fixture pile and env-pinned caches are exercised separately in
``test_profiling_cache.py``.
"""

import json
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    ArtifactStore,
    default_root,
    load_clustering,
    npz_arrays,
    provenance_record,
    publish_clustering,
    publish_trace,
)
from repro.store.artifacts import ENV_STORE
from repro.store.clusterings import (
    CLUSTERING_VERSION,
    encode_clustering,
    verify_clustering_payload,
)
from repro.store.mmapzip import MappedArchive
from repro.store.profiles import (
    FORMAT_VERSION,
    load_profile,
    publish_profile,
    verify_profile_payload,
)


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_STORE, str(tmp_path / "store"))
    return ArtifactStore()


def make_curves(n_intervals=2, n_chunks=4, seed=0):
    from repro.curves.miss_curve import MissCurve

    rng = np.random.default_rng(seed)
    out = {}
    for vc in (0, 1):
        out[vc] = [
            MissCurve(
                misses=np.sort(rng.uniform(0, 100, n_chunks + 1))[::-1],
                chunk_bytes=1024,
                accesses=100.0 + vc,
                instructions=1000.0 + t,
            )
            for t in range(n_intervals)
        ]
    return out


def make_clustering(callpoints=(5, 9, 2**31 - 1), distances=(0.5, 1.25)):
    """A merge tree over ``callpoints``: each merge joins the next leaf."""
    from repro.core.whirltool.analyzer import ClusteringResult

    merges = []
    acc = frozenset([callpoints[0]])
    for cp, distance in zip(callpoints[1:], distances):
        merges.append((acc, frozenset([cp]), distance))
        acc = acc | {cp}
    return ClusteringResult(
        callpoints=list(callpoints),
        merges=merges,
        names={cp: f"r{cp}" for cp in callpoints},
    )


def make_rtrace(path, n=800, seed=3, **kwargs):
    from repro.ingest import ArraySource, convert_to_rtrace
    from repro.workloads.trace import Trace

    rng = np.random.default_rng(seed)
    trace = Trace(
        lines=rng.integers(0, 128, n),
        regions=rng.integers(0, 3, n).astype(np.int32),
        instructions=n * 8.0,
        region_names={0: "a", 1: "b", 2: "c"},
    )
    header = convert_to_rtrace(ArraySource.from_trace(trace), path, **kwargs)
    return trace, header


class TestDefaultRoot:
    def test_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE, str(tmp_path / "r"))
        assert default_root() == tmp_path / "r"

    def test_checkout_default_is_inside_the_repo(self, monkeypatch):
        # The legacy cache default resolved parents[3] unconditionally,
        # which lands inside site-packages for an installed package; the
        # store only uses it when it really is a source checkout.
        monkeypatch.delenv(ENV_STORE, raising=False)
        root = default_root()
        assert root.name == ".repro_store"
        assert (root.parent / "pyproject.toml").exists()


class TestMappedArchive:
    def test_npz_roundtrip_views(self, tmp_path):
        a = np.arange(100, dtype=np.int64)
        b = np.linspace(0, 1, 33)
        path = tmp_path / "p.npz"
        with open(path, "wb") as f:
            np.savez(f, a=a, b=b)
        arrays = npz_arrays(path)
        assert arrays is not None
        assert np.array_equal(arrays["a"], a)
        assert np.array_equal(arrays["b"], b)
        # Views over one shared mapping, never private heap copies.
        for arr in arrays.values():
            assert not arr.flags.writeable
            assert arr.base is not None

    def test_compressed_npz_returns_none(self, tmp_path):
        path = tmp_path / "p.npz"
        np.savez_compressed(path, a=np.arange(10))
        assert npz_arrays(path) is None

    def test_member_names_and_missing_member(self, tmp_path):
        path = tmp_path / "p.npz"
        with open(path, "wb") as f:
            np.savez(f, only=np.arange(4))
        archive = MappedArchive(path)
        assert archive.members() == ["only.npy"]
        with pytest.raises(KeyError):
            archive.npy_member("other.npy")

    def test_non_npy_member_rejected(self, tmp_path):
        path = tmp_path / "p.zip"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr("x.npy", b"not an array")
        with pytest.raises(ValueError, match="magic"):
            MappedArchive(path).npy_member("x.npy")

    def test_fortran_order_and_2d(self, tmp_path):
        arr = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        path = tmp_path / "p.npz"
        with open(path, "wb") as f:
            np.savez(f, m=arr)
        out = npz_arrays(path)["m"]
        assert np.array_equal(out, arr)


class TestArtifactStore:
    def test_publish_and_provenance(self, store):
        meta = provenance_record(
            "profiles", "ab" * 16, builder="test", inputs={"k": 1}
        )
        path = store.publish(
            "profiles", "ab" * 16, lambda p: p.write_bytes(b"x"), meta
        )
        assert path.read_bytes() == b"x"
        assert path.parent.name == "ab"
        got = store.provenance("profiles", "ab" * 16)
        assert got["builder"] == "test"
        assert got["inputs"] == {"k": 1}
        assert got["tool"].startswith("repro ")
        assert store.get("profiles", "ab" * 16) == path
        assert store.get("profiles", "cd" * 16) is None

    def test_publish_failure_leaves_no_artifact(self, store):
        def boom(tmp):
            tmp.write_bytes(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            store.publish("profiles", "ee" * 16, boom)
        assert store.get("profiles", "ee" * 16) is None
        assert not list(store.root.rglob(".*.tmp"))

    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            store.path("figures", "ab" * 16)

    def test_name_bindings(self, store):
        store.publish("traces", "11" * 16, lambda p: p.write_bytes(b"t"))
        store.bind_name("myapp", "traces", "11" * 16)
        binding = store.resolve_name("myapp")
        assert binding["fingerprint"] == "11" * 16
        assert store.resolve_name("other") is None
        assert list(store.names()) == ["myapp"]

    def test_gc_dry_run_then_real(self, store):
        store.publish("profiles", "aa" * 16, lambda p: p.write_bytes(b"x"))
        # Garbage: a staging temp, an orphaned sidecar, a dead binding.
        staging = store.root / "profiles" / "aa" / ".junk.123.tmp"
        staging.write_bytes(b"crash leftover")
        store._write_json(
            store.meta_path("profiles", "bb" * 16), {"orphan": True}
        )
        store.bind_name("dead", "traces", "cc" * 16)

        dry = store.gc(dry_run=True)
        assert len(dry["removed"]) == 3
        assert staging.exists()  # dry run touches nothing
        assert store.meta_path("profiles", "bb" * 16).exists()

        real = store.gc()
        assert sorted(real["removed"]) == sorted(dry["removed"])
        assert not staging.exists()
        assert not store.meta_path("profiles", "bb" * 16).exists()
        assert store.resolve_name("dead") is None
        # The payload itself is never collected.
        assert store.get("profiles", "aa" * 16) is not None

    def test_gc_reports_unprovenanced_payloads(self, store):
        store.publish("profiles", "aa" * 16, lambda p: p.write_bytes(b"x"))
        report = store.gc(dry_run=True)
        assert report["unprovenanced"] == ["profiles/" + "aa" * 16]

    def test_verify_flags_corrupt_artifacts(self, store, tmp_path):
        curves = make_curves()
        publish_profile(store, "aa" * 16, curves)
        make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        fp, __ = publish_trace(store, tmp_path / "t.rtrace", name="t")
        report = store.verify()
        assert sorted(report["ok"]) == sorted(
            ["profiles/" + "aa" * 16, f"traces/{fp}"]
        )
        assert report["bad"] == {}
        # Corrupt the profile payload; verify must call it out.
        store.path("profiles", "aa" * 16).write_bytes(b"garbage")
        report = store.verify()
        assert "profiles/" + "aa" * 16 in report["bad"]

    def test_verify_flags_misfiled_trace(self, store, tmp_path):
        make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        store.publish_file("traces", "00" * 16, tmp_path / "t.rtrace")
        report = store.verify()
        assert "traces/" + "00" * 16 in report["bad"]
        assert "does not match" in report["bad"]["traces/" + "00" * 16]

    def test_compact_rewrites_deflated_payloads(self, store):
        payload = {"format_version": np.array(FORMAT_VERSION), "x": np.arange(50)}

        def write_deflated(tmp):
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **payload)

        store.publish("profiles", "aa" * 16, write_deflated)
        path = store.path("profiles", "aa" * 16)
        assert npz_arrays(path) is None  # not mappable yet
        dry = store.compact(dry_run=True)
        assert dry["rewritten"] == ["profiles/" + "aa" * 16]
        assert npz_arrays(path) is None
        real = store.compact()
        assert real["rewritten"] == dry["rewritten"]
        arrays = npz_arrays(path)
        assert arrays is not None
        assert np.array_equal(arrays["x"], np.arange(50))
        assert store.compact()["rewritten"] == []  # idempotent


class TestProfilePayload:
    def test_publish_is_mappable_and_loads(self, store):
        curves = make_curves(n_intervals=3)
        publish_profile(store, "ab" * 16, curves)
        path = store.get("profiles", "ab" * 16)
        loaded = load_profile(path, chunk_bytes=1024, n_intervals=3)
        assert set(loaded) == set(curves)
        for vc in curves:
            for got, want in zip(loaded[vc], curves[vc]):
                assert np.array_equal(got.misses, want.misses)
                assert got.accesses == want.accesses
                assert got.instructions == want.instructions
                # Zero-copy: a read-only view over the file mapping.
                assert not got.misses.flags.writeable
                assert got.misses.base is not None

    def test_load_falls_back_on_compressed(self, tmp_path):
        from repro.store.profiles import encode_payload

        curves = make_curves()
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **encode_payload(curves))
        loaded = load_profile(path, chunk_bytes=1024, n_intervals=2)
        assert loaded is not None
        assert np.array_equal(loaded[0][0].misses, curves[0][0].misses)

    def test_load_missing_and_garbage(self, tmp_path):
        assert load_profile(tmp_path / "no.npz", 1024, 1) is None
        (tmp_path / "bad.npz").write_bytes(b"nope")
        assert load_profile(tmp_path / "bad.npz", 1024, 1) is None

    def test_verify_payload_diagnoses(self, store):
        publish_profile(store, "ab" * 16, make_curves(n_intervals=2))
        path = store.get("profiles", "ab" * 16)
        assert verify_profile_payload(path) is None
        data = dict(np.load(path))
        del data["m_0_1"]
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        assert "m_0_1" in verify_profile_payload(path)


def float_bits(x):
    return struct.pack("<d", x)


@st.composite
def merge_trees(draw):
    """Random merge trees over distinct 31-bit callpoint ids.

    Each step merges two random live clusters (not always down to one),
    so operands of every size and leaf/internal mix occur.
    """
    from repro.core.whirltool.analyzer import ClusteringResult

    callpoints = draw(
        st.lists(
            st.integers(0, 2**31 - 1), min_size=1, max_size=12, unique=True
        )
    )
    distances = st.one_of(
        st.sampled_from([0.0, 5e-324, 2.5e-310, 1e300]),
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    )
    live = [frozenset([cp]) for cp in callpoints]
    merges = []
    for __ in range(draw(st.integers(0, len(callpoints) - 1))):
        i, j = draw(
            st.lists(
                st.integers(0, len(live) - 1),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        a, b = live[i], live[j]
        merges.append((a, b, draw(distances)))
        live = [c for k, c in enumerate(live) if k not in (i, j)] + [a | b]
    return ClusteringResult(callpoints=callpoints, merges=merges)


class TestClusteringPayload:
    @settings(max_examples=60, deadline=None)
    @given(tree=merge_trees())
    def test_round_trip_is_bit_identical(self, tree, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("store"))
        publish_clustering(store, "ab" * 16, tree)
        names = {cp: f"region{cp}" for cp in tree.callpoints}
        got = load_clustering(store.path("clusterings", "ab" * 16), names)
        assert got.callpoints == tree.callpoints
        assert got.names == names
        assert len(got.merges) == len(tree.merges)
        for (ga, gb, gd), (wa, wb, wd) in zip(got.merges, tree.merges):
            assert (ga, gb) == (wa, wb)
            assert float_bits(gd) == float_bits(wd)
        assert verify_clustering_payload(
            store.path("clusterings", "ab" * 16)
        ) is None

    def test_payload_is_mappable_and_sorted(self, store):
        path = publish_clustering(store, "cd" * 16, make_clustering())
        arrays = npz_arrays(path)
        assert arrays is not None  # uncompressed, like profiles
        assert int(arrays["format_version"]) == CLUSTERING_VERSION
        assert arrays["members"].tolist() == [5, 9, 5, 9, 2**31 - 1]
        assert arrays["operand_sizes"].tolist() == [[1, 1], [2, 1]]

    def test_load_missing_and_garbage(self, tmp_path):
        assert load_clustering(tmp_path / "no.npz", {}) is None
        (tmp_path / "bad.npz").write_bytes(b"nope")
        assert load_clustering(tmp_path / "bad.npz", {}) is None

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda d: d.update(format_version=np.array(99)), "version 99"),
            (lambda d: d.pop("distances"), "missing distances"),
            (lambda d: d.update(distances=d["distances"][:1]), "distances"),
            (lambda d: d.update(members=d["members"][:-1]), "sum to"),
            (
                lambda d: d.update(members=d["members"] + 1),
                "not a leaf callpoint",
            ),
            (
                lambda d: d.update(members=d["members"].astype(np.float64)),
                "int64",
            ),
        ],
    )
    def test_verify_payload_diagnoses(self, store, edit, reason):
        path = publish_clustering(store, "ef" * 16, make_clustering())
        data = encode_clustering(make_clustering())
        edit(data)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        assert reason in verify_clustering_payload(path)
        # A payload verify rejects never loads: callers retrain instead.
        assert load_clustering(path, {}) is None

    def test_store_maintenance_knows_the_kind(self, store, capsys):
        from repro.cli import main

        publish_clustering(
            store,
            "aa" * 16,
            make_clustering(),
            provenance=provenance_record("clusterings", "aa" * 16, "test"),
        )
        assert main(["store", "status"]) == 0
        assert "clusterings: 1 artifacts" in capsys.readouterr().out
        # Verified as a clustering, not sent to the .rtrace check.
        assert store.verify() == {"ok": ["clusterings/" + "aa" * 16], "bad": {}}
        # gc removes an orphaned clustering sidecar, keeps the payload.
        store._write_json(
            store.meta_path("clusterings", "bb" * 16), {"orphan": True}
        )
        assert store.gc()["removed"] == [
            f"clusterings/bb/{'bb' * 16}.json"
        ]
        assert store.get("clusterings", "aa" * 16) is not None
        # compact rewrites a deflated clustering payload as mappable.
        path = store.path("clusterings", "aa" * 16)
        data = encode_clustering(make_clustering())
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **data)
        assert store.compact()["rewritten"] == ["clusterings/" + "aa" * 16]
        assert npz_arrays(path) is not None
        assert verify_clustering_payload(path) is None
        # A corrupt payload is reported BAD.
        path.write_bytes(b"garbage")
        assert main(["store", "verify"]) == 1
        assert f"BAD clusterings/{'aa' * 16}" in capsys.readouterr().err


class TestPublishTrace:
    def test_deflated_archive_published_mappable(self, store, tmp_path):
        trace, header = make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        fp, dst = publish_trace(store, tmp_path / "t.rtrace", name="app")
        assert fp == header["fingerprint"]
        with zipfile.ZipFile(dst) as zf:
            assert all(
                i.compress_type == zipfile.ZIP_STORED for i in zf.infolist()
            )
        from repro.ingest import RTraceSource

        source = RTraceSource(dst)
        assert source.fingerprint == fp  # compression-invariant key
        assert source.verify_fingerprint()
        assert store.resolve_name("app")["fingerprint"] == fp
        meta = store.provenance("traces", fp)
        assert meta["builder"].endswith("publish_trace")

    def test_no_instruction_count_rejected(self, store, tmp_path):
        from repro.ingest import (
            ArraySource,
            convert_to_rtrace,
            open_trace_source,
            write_trace_file,
        )
        from repro.workloads.trace import Trace

        rng = np.random.default_rng(4)
        trace = Trace(
            lines=rng.integers(0, 64, 100),
            regions=rng.integers(0, 2, 100).astype(np.int32),
            instructions=500.0,
        )
        # CSV carries no instruction count, so neither does the archive.
        write_trace_file(
            tmp_path / "t.csv", ArraySource.from_trace(trace), "csv"
        )
        convert_to_rtrace(
            open_trace_source(tmp_path / "t.csv"), tmp_path / "t.rtrace"
        )
        with pytest.raises(ValueError, match="instruction count"):
            publish_trace(store, tmp_path / "t.rtrace", name="app")
        assert store.names() == {}


class TestStoreCLI:
    def test_status_gc_verify_roundtrip(self, store, tmp_path, capsys):
        from repro.cli import main

        publish_profile(store, "ab" * 16, make_curves())
        make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        publish_trace(store, tmp_path / "t.rtrace", name="app")
        assert main(["store", "status"]) == 0
        out = capsys.readouterr().out
        assert "profiles: 1 artifacts" in out
        assert "traces: 1 artifacts" in out
        assert "names: 1 bindings" in out
        assert main(["store", "gc", "--dry-run"]) == 0
        assert main(["store", "verify"]) == 0
        assert "2 artifacts, 0 bad" in capsys.readouterr().out

    def test_verify_fails_on_corruption(self, store, tmp_path, capsys):
        from repro.cli import main

        publish_profile(store, "ab" * 16, make_curves())
        store.path("profiles", "ab" * 16).write_bytes(b"junk")
        assert main(["store", "verify"]) == 1
        assert "BAD" in capsys.readouterr().err

    def test_missing_store_handled(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(ENV_STORE, str(tmp_path / "nowhere"))
        assert main(["store", "status"]) == 0
        assert "(empty)" in capsys.readouterr().out
        assert main(["store", "verify"]) == 2

    def test_compact_imports_legacy_piles(
        self, store, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.workloads.registry import TRACE_DIR_ENV

        # A legacy trace dir with one archive, a legacy profile cache
        # with one entry: compact pulls both into the store.
        traces = tmp_path / "traces"
        traces.mkdir()
        make_rtrace(traces / "legacyapp.rtrace", apki=8.0)
        monkeypatch.setenv(TRACE_DIR_ENV, str(traces))
        legacy_cache = tmp_path / "cache"
        legacy_cache.mkdir()
        from repro.store.profiles import encode_payload

        np.savez_compressed(
            legacy_cache / ("cd" * 16 + ".npz"), **encode_payload(make_curves())
        )
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(legacy_cache))

        assert main(["store", "compact", "--dry-run"]) == 0
        assert store.status()["kinds"]["profiles"]["artifacts"] == 0
        assert main(["store", "compact"]) == 0
        assert store.status()["kinds"]["profiles"]["artifacts"] == 1
        assert store.resolve_name("legacyapp") is not None
        # Imported payloads come out mappable.
        assert npz_arrays(store.path("profiles", "cd" * 16)) is not None
        assert main(["store", "compact"]) == 0  # idempotent
        assert store.status()["kinds"]["profiles"]["artifacts"] == 1


class TestRegistryStoreResolution:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        from repro.workloads.registry import _REGISTERED_TRACES

        yield
        _REGISTERED_TRACES.clear()

    def test_store_named_trace_is_a_workload(
        self, store, tmp_path, monkeypatch
    ):
        from repro.workloads import build_workload, ingested_apps

        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        trace, __ = make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        publish_trace(store, tmp_path / "t.rtrace", name="storeapp")
        assert "storeapp" in ingested_apps()
        workload = build_workload("storeapp")
        assert workload.name == "storeapp"
        assert np.array_equal(workload.trace.lines, trace.lines)
        assert np.array_equal(workload.trace.regions, trace.regions)
        # Stored archives materialize as zero-copy mapped views.
        assert not workload.trace.lines.flags.writeable

    def test_trace_dir_still_wins_over_store(
        self, store, tmp_path, monkeypatch
    ):
        from repro.workloads import build_workload
        from repro.workloads.registry import TRACE_DIR_ENV

        dir_trace, __ = make_rtrace(
            tmp_path / "dup.rtrace", n=300, seed=5, apki=8.0
        )
        publish_trace(store, tmp_path / "dup.rtrace", name="dup")
        other = tmp_path / "dir"
        other.mkdir()
        env_trace, __ = make_rtrace(
            other / "dup.rtrace", n=200, seed=9, apki=8.0
        )
        monkeypatch.setenv(TRACE_DIR_ENV, str(other))
        workload = build_workload("dup")
        assert len(workload.trace) == 200  # the env dir's capture

    def test_ingest_register_without_trace_dir_uses_store(
        self, store, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.workloads import build_workload

        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        make_rtrace(tmp_path / "in.rtrace", apki=8.0)
        rc = main(
            ["ingest", "register", str(tmp_path / "in.rtrace"),
             "--name", "cliapp"]
        )
        assert rc == 0
        assert "registered 'cliapp'" in capsys.readouterr().out
        assert build_workload("cliapp").name == "cliapp"
        assert store.status()["kinds"]["traces"]["artifacts"] == 1
        assert not list((store.root / "tmp").glob("*")) if (
            store.root / "tmp"
        ).exists() else True

    def test_ingest_register_conversion_path_to_store(
        self, store, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.ingest import ArraySource, write_trace_file
        from repro.workloads import build_workload
        from repro.workloads.trace import Trace

        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        rng = np.random.default_rng(2)
        trace = Trace(
            lines=rng.integers(0, 64, 400),
            regions=rng.integers(0, 2, 400).astype(np.int32),
            instructions=2000.0,
        )
        src = tmp_path / "t.csv"
        write_trace_file(src, ArraySource.from_trace(trace), "csv")
        rc = main(
            ["ingest", "register", str(src), "--name", "csvapp", "--apki", "8"]
        )
        assert rc == 0
        workload = build_workload("csvapp")
        assert np.array_equal(workload.trace.lines, trace.lines)
        # Conversion staged in the store's tmp/ and cleaned up after.
        assert not list((store.root / "tmp").iterdir())

"""Profile-cache correctness: round-trips, stale files, format versions.

The on-disk cache must be invisible: a load must return exactly what a
cold profiling run computes, and any stale/partial/foreign file must
fall back to re-profiling rather than crash (a killed campaign worker
can leave such files behind).
"""

import hashlib
import os
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import profiling
from repro.sim.profiling import profile_vcs
from repro.workloads.trace import Trace


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE_CACHE", str(tmp_path))
    return tmp_path


def make_trace(lines, regions, instructions):
    return Trace(
        lines=np.asarray(lines, dtype=np.int64),
        regions=np.asarray(regions, dtype=np.int32),
        instructions=instructions,
    )


def assert_curves_equal(a, b):
    assert set(a) == set(b)
    for vc in a:
        assert len(a[vc]) == len(b[vc])
        for ca, cb in zip(a[vc], b[vc]):
            assert np.array_equal(ca.misses, cb.misses)
            assert ca.accesses == cb.accesses
            assert ca.instructions == cb.instructions
            assert ca.chunk_bytes == cb.chunk_bytes


@st.composite
def trace_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    lines = draw(
        st.lists(
            st.integers(min_value=0, max_value=255), min_size=n, max_size=n
        )
    )
    regions = draw(
        st.lists(st.integers(min_value=0, max_value=7), min_size=n, max_size=n)
    )
    instructions = draw(st.floats(min_value=1.0, max_value=1e6))
    mapping = {
        rid: draw(st.integers(min_value=0, max_value=3))
        for rid in sorted(set(regions))
    }
    n_intervals = draw(st.integers(min_value=1, max_value=3))
    return lines, regions, instructions, mapping, n_intervals


class TestCacheRoundTrip:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(inputs=trace_inputs())
    def test_store_load_equals_cold_run(self, inputs):
        lines, regions, instructions, mapping, n_intervals = inputs
        trace = make_trace(lines, regions, instructions)
        kwargs = dict(
            mapping=mapping,
            chunk_bytes=1024,
            n_chunks=6,
            n_intervals=n_intervals,
        )
        # Each example gets its own cache dir; hypothesis shrinks across
        # examples, so a shared fixture directory would alias entries.
        with tempfile.TemporaryDirectory() as cache:
            old = os.environ.get("REPRO_PROFILE_CACHE")
            os.environ["REPRO_PROFILE_CACHE"] = cache
            try:
                cold = profile_vcs(trace, use_cache=False, **kwargs)
                stored = profile_vcs(trace, use_cache=True, **kwargs)
                loaded = profile_vcs(trace, use_cache=True, **kwargs)
            finally:
                if old is None:
                    del os.environ["REPRO_PROFILE_CACHE"]
                else:
                    os.environ["REPRO_PROFILE_CACHE"] = old
        assert_curves_equal(stored, cold)
        assert_curves_equal(loaded, cold)


def seed_cache(cache_env, n_intervals=2):
    """Profile once with caching on; returns (trace, kwargs, cold, path)."""
    rng = np.random.default_rng(7)
    trace = make_trace(
        rng.integers(0, 64, size=200), rng.integers(0, 4, size=200), 5000.0
    )
    kwargs = dict(
        mapping={0: 0, 1: 0, 2: 1, 3: 1},
        chunk_bytes=1024,
        n_chunks=4,
        n_intervals=n_intervals,
    )
    cold = profile_vcs(trace, use_cache=False, **kwargs)
    profile_vcs(trace, use_cache=True, **kwargs)
    files = list(cache_env.glob("*.npz"))
    assert len(files) == 1
    return trace, kwargs, cold, files[0]


class TestStaleCache:
    def rewrite(self, path, mutate):
        data = dict(np.load(path))
        mutate(data)
        np.savez_compressed(path, **data)

    def test_missing_interval_arrays_fall_back(self, cache_env):
        trace, kwargs, cold, path = seed_cache(cache_env)
        # A stale/partial file missing an m_{i}_{t} array must re-profile,
        # not raise KeyError.
        self.rewrite(path, lambda d: d.pop("m_0_1"))
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)

    def test_wrong_format_version_falls_back(self, cache_env):
        trace, kwargs, cold, path = seed_cache(cache_env)
        self.rewrite(
            path,
            lambda d: d.update(format_version=np.array(999, dtype=np.int64)),
        )
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)

    def test_legacy_file_without_version_key_is_regenerated(self, cache_env):
        trace, kwargs, cold, path = seed_cache(cache_env)
        # Files without a version key load as version 1, whose fingerprints
        # were computed from a stride-257 sample and can collide.  They
        # must be re-profiled and rewritten, never served.
        self.rewrite(path, lambda d: d.pop("format_version"))
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)
        data = np.load(path)
        assert int(data["format_version"]) == profiling._FORMAT_VERSION

    def test_garbage_file_falls_back(self, cache_env):
        trace, kwargs, cold, path = seed_cache(cache_env)
        path.write_bytes(b"not an npz file")
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)

    def test_store_writes_current_version(self, cache_env):
        __, __, __, path = seed_cache(cache_env)
        data = np.load(path)
        assert int(data["format_version"]) == profiling._FORMAT_VERSION


class TestFingerprint:
    def test_short_traces_with_equal_shape_do_not_collide(self, cache_env):
        # Regression: the v1 fingerprint hashed lines[::257]/regions[::257],
        # so any two traces shorter than 257 accesses that agreed on their
        # first access, length, and instruction count shared a cache key —
        # profile_vcs silently returned the *wrong* cached curves.
        kwargs = dict(mapping={0: 0}, chunk_bytes=1024, n_chunks=4)
        a = make_trace([0, 1, 2, 3], [0, 0, 0, 0], 100.0)
        b = make_trace([0, 5, 9, 13], [0, 0, 0, 0], 100.0)
        cold_b = profile_vcs(b, use_cache=False, **kwargs)
        profile_vcs(a, use_cache=True, **kwargs)  # populate cache with a
        served = profile_vcs(b, use_cache=True, **kwargs)
        assert_curves_equal(served, cold_b)
        assert len(list(cache_env.glob("*.npz"))) == 2

    def test_region_relabel_changes_fingerprint(self, cache_env):
        lines = [0, 1, 2, 3]
        a = make_trace(lines, [0, 0, 1, 1], 100.0)
        b = make_trace(lines, [0, 1, 1, 1], 100.0)
        kwargs = dict(mapping={0: 0, 1: 1}, chunk_bytes=1024, n_chunks=4)
        cold_b = profile_vcs(b, use_cache=False, **kwargs)
        profile_vcs(a, use_cache=True, **kwargs)
        assert_curves_equal(profile_vcs(b, use_cache=True, **kwargs), cold_b)


def fingerprint_reference(
    trace, mapping, chunk_bytes, n_chunks, n_intervals, sample_shift
):
    """Format-version-2 keys as first defined: both arrays copied out
    with ``tobytes()`` and hashed afresh on every call.

    The hashing lines are verbatim from that version; its per-trace key
    memo (a ``_fingerprint_memo`` dict on the trace) is left out.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(trace.lines, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(trace.regions, dtype=np.int32).tobytes())
    h.update(
        f"v{profiling._FORMAT_VERSION}|{len(trace)}|{trace.instructions}|"
        f"{trace.line_bytes}|{chunk_bytes}|{n_chunks}|"
        f"{n_intervals}|{sample_shift}".encode()
    )
    for rid in sorted(mapping):
        h.update(f"{rid}:{mapping[rid]};".encode())
    return h.hexdigest()


@st.composite
def fingerprint_calls(draw):
    """A trace plus an interleaved call sequence with repeats.

    Mappings shift VC ids by an offset, the way a mix numbers each app's
    VCs by its position.  Every key finishes a copy of one per-trace hash
    state, so any order of calls, repeats included, must leave that state
    as the arrays alone made it.
    """
    lines, regions, instructions, mapping, __ = draw(trace_inputs())
    keys = []
    for __ in range(draw(st.integers(min_value=1, max_value=4))):
        shift = draw(st.integers(min_value=0, max_value=64))
        keys.append(
            (
                {rid: vc + shift for rid, vc in mapping.items()},
                draw(st.sampled_from([1024, 4096, 65536])),
                draw(st.sampled_from([4, 400, 1296])),
                draw(st.integers(min_value=1, max_value=16)),
                draw(st.integers(min_value=0, max_value=4)),
            )
        )
    order = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(keys) - 1),
            min_size=1,
            max_size=12,
        )
    )
    return lines, regions, instructions, [keys[k] for k in order]


class TestFingerprintIdentity:
    """Keys are byte-identical to format version 2's, so stored profiles
    and the committed fixture pile keep matching."""

    @settings(max_examples=60, deadline=None)
    @given(calls=fingerprint_calls())
    def test_matches_reference_in_any_call_order(self, calls):
        lines, regions, instructions, sequence = calls
        trace = make_trace(lines, regions, instructions)
        for args in sequence:
            assert profiling._fingerprint(trace, *args) == (
                fingerprint_reference(trace, *args)
            )

    def test_non_contiguous_views(self):
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 2**40, size=(400, 3))
        regions = rng.integers(0, 2**31 - 1, size=1200).astype(np.int32)
        args = ({0: 3, 2**31 - 2: 4}, 4096, 400, 8, 2)
        built = Trace(lines=lines[:, 1], regions=regions[::3], instructions=9e5)
        # A trace whose arrays were swapped for views after construction
        # (Trace.__post_init__ would have made them contiguous).
        swapped = make_trace(lines[:, 1], regions[::3], 9e5)
        swapped.lines = lines[:, 1]
        swapped.regions = regions[::3]
        assert not swapped.lines.flags.c_contiguous
        want = fingerprint_reference(built, *args)
        assert profiling._fingerprint(built, *args) == want
        assert profiling._fingerprint(swapped, *args) == want

    def test_pickled_trace_rehashes(self):
        trace = make_trace(np.arange(50), np.arange(50) % 3, 700.0)
        args = ({0: 0, 1: 1, 2: 1}, 1024, 4, 2, 0)
        key = profiling._fingerprint(trace, *args)
        copy = pickle.loads(pickle.dumps(trace))
        assert profiling._fingerprint(copy, *args) == key
        assert profiling._fingerprint(
            copy, {0: 1, 1: 1, 2: 1}, 1024, 4, 2, 0
        ) == fingerprint_reference(copy, {0: 1, 1: 1, 2: 1}, 1024, 4, 2, 0)


class TestStoreBackedCache:
    """Without $REPRO_PROFILE_CACHE, profiles live in the artifact store."""

    @pytest.fixture()
    def store_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE_CACHE", raising=False)
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        # Isolate from the repo's committed fixture pile.
        monkeypatch.setattr(profiling, "_fixture_dir", lambda: None)
        return tmp_path / "store"

    def seed(self, n_intervals=2):
        rng = np.random.default_rng(11)
        trace = make_trace(
            rng.integers(0, 64, size=200),
            rng.integers(0, 4, size=200),
            5000.0,
        )
        kwargs = dict(
            mapping={0: 0, 1: 0, 2: 1, 3: 1},
            chunk_bytes=1024,
            n_chunks=4,
            n_intervals=n_intervals,
        )
        return trace, kwargs

    def test_round_trip_with_provenance(self, store_env):
        from repro.store import ArtifactStore

        trace, kwargs = self.seed()
        cold = profile_vcs(trace, use_cache=False, **kwargs)
        profile_vcs(trace, use_cache=True, **kwargs)
        loaded = profile_vcs(trace, use_cache=True, **kwargs)
        assert_curves_equal(loaded, cold)
        store = ArtifactStore()
        (artifact,) = list(store.artifacts("profiles"))
        meta = store.provenance("profiles", artifact[1])
        assert meta["builder"] == "repro.sim.profiling.profile_vcs"
        assert meta["inputs"]["n_records"] == 200
        assert meta["inputs"]["chunk_bytes"] == 1024

    def test_loads_are_memmapped_zero_copy(self, store_env):
        trace, kwargs = self.seed()
        profile_vcs(trace, use_cache=True, **kwargs)
        loaded = profile_vcs(trace, use_cache=True, **kwargs)
        for curves in loaded.values():
            for curve in curves:
                # A mapped view, not a private deserialized copy: this
                # is what lets N campaign workers share one page-cache
                # copy of every profile.
                assert not curve.misses.flags.writeable
                assert curve.misses.base is not None

    def test_legacy_fixture_fallback_reads_but_never_writes(
        self, store_env, tmp_path, monkeypatch
    ):
        # Seed a legacy flat-directory pile (the committed fixture
        # layout), then point the fixture fallback at it.
        legacy = tmp_path / "fixtures"
        monkeypatch.setenv("REPRO_PROFILE_CACHE", str(legacy))
        trace, kwargs = self.seed()
        cold = profile_vcs(trace, use_cache=False, **kwargs)
        profile_vcs(trace, use_cache=True, **kwargs)
        assert len(list(legacy.glob("*.npz"))) == 1
        monkeypatch.delenv("REPRO_PROFILE_CACHE")
        monkeypatch.setattr(profiling, "_fixture_dir", lambda: legacy)

        served = profile_vcs(trace, use_cache=True, **kwargs)
        assert_curves_equal(served, cold)
        # Fixture hits are not re-published: the store would otherwise
        # duplicate the entire committed pile on first use.
        from repro.store import ArtifactStore

        assert list(ArtifactStore().artifacts("profiles")) == []

    def test_clear_cache_clears_store_profiles(self, store_env):
        trace, kwargs = self.seed()
        profile_vcs(trace, use_cache=True, **kwargs)
        from repro.sim.profiling import clear_cache

        assert clear_cache() == 1
        from repro.store import ArtifactStore

        assert list(ArtifactStore().artifacts("profiles")) == []
        # Stale sidecars would otherwise be reported by gc forever.
        assert ArtifactStore().gc(dry_run=True)["removed"] == []

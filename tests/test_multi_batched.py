"""Differential tests: batched stepping vs. the serial reference loop.

``simulate`` / ``simulate_mix`` step schemes through
``Scheme.step_batch`` (decide per interval, account the whole run as
stacked arrays).  The reference is the original interval-by-interval
loop over the public ``Scheme.step`` (decide, then account), swapped in
by :func:`serial`.  The two must produce *exact* ``SchemeResult`` /
``MixResult`` equality — dataclass equality covers every accumulated
total, per-interval ``IntervalStats`` (history), per-VC dicts, and
energy breakdowns.
"""

import pytest

from repro.core.whirlpool import WhirlpoolScheme
from repro.nuca import four_core_config
from repro.schemes import (
    AwasthiScheme,
    IdealSPDScheme,
    JigsawScheme,
    ManualPoolClassifier,
    SNUCAScheme,
    SingleVCClassifier,
)
from repro.sim import simulate, simulate_mix
from repro.workloads import build_workload

FACTORIES = {
    "Jigsaw": JigsawScheme,
    "Jigsaw-NoBypass": lambda c, v: JigsawScheme(c, v, bypass=False),
    "Whirlpool": lambda c, v: WhirlpoolScheme(c, v),
    "S-NUCA/LRU": lambda c, v: SNUCAScheme(c, v, "lru"),
    "S-NUCA/DRRIP": lambda c, v: SNUCAScheme(c, v, "drrip"),
    "IdealSPD": IdealSPDScheme,
    "Awasthi": AwasthiScheme,
}


@pytest.fixture(scope="module")
def cfg():
    return four_core_config()


@pytest.fixture(scope="module")
def mix2():
    return [
        build_workload("bzip2", scale="train", seed=0),
        build_workload("mcf", scale="train", seed=1),
    ]


@pytest.fixture(scope="module")
def mix4():
    return [
        build_workload("milc", scale="train", seed=2),
        build_workload("soplex", scale="train", seed=3),
        build_workload("astar", scale="train", seed=4),
        build_workload("libqntm", scale="train", seed=5),
    ]


def serial(factory):
    """``factory`` with ``step_batch`` replaced by the serial reference loop.

    Interval ``t`` is one ``step``: a decision on the monitor curves of
    ``t``, then accounting of its actual curves.
    """

    def make(config, vcs):
        scheme = factory(config, vcs)

        def step_batch(decide_series, actual_series, instructions, n_intervals):
            return [
                scheme.step(
                    {vc: s[t] for vc, s in decide_series.items()},
                    {vc: s[t] for vc, s in actual_series.items()},
                    instructions,
                )
                for t in range(n_intervals)
            ]

        scheme.step_batch = step_batch
        return scheme

    return make


def assert_mix_equal(a, b):
    assert a.scheme_name == b.scheme_name
    assert len(a.per_app) == len(b.per_app)
    for ra, rb in zip(a.per_app, b.per_app):
        assert ra == rb  # dataclass equality: totals + full history


class TestMixDifferential:
    @pytest.mark.parametrize("scheme", sorted(FACTORIES))
    @pytest.mark.parametrize("shift", [0, 3])
    def test_two_app_mix_exact(self, cfg, mix2, scheme, shift):
        kwargs = dict(n_intervals=5, sample_shift=shift, use_cache=False)
        batched = simulate_mix(mix2, cfg, FACTORIES[scheme], **kwargs)
        reference = simulate_mix(mix2, cfg, serial(FACTORIES[scheme]), **kwargs)
        assert_mix_equal(batched, reference)

    @pytest.mark.parametrize("scheme", ["Jigsaw", "Whirlpool", "S-NUCA/DRRIP"])
    def test_four_app_mix_exact(self, cfg, mix4, scheme):
        kwargs = dict(n_intervals=4, sample_shift=0, use_cache=False)
        batched = simulate_mix(mix4, cfg, FACTORIES[scheme], **kwargs)
        reference = simulate_mix(mix4, cfg, serial(FACTORIES[scheme]), **kwargs)
        assert_mix_equal(batched, reference)

    def test_pooled_whirlpool_mix_exact(self, cfg, mix2):
        """Multi-VC-per-app layout (the Whirlpool mix rule)."""
        mis = build_workload("MIS", scale="train", seed=0)
        apps = [mis, mix2[0]]
        classifiers = [ManualPoolClassifier(), SingleVCClassifier()]
        kwargs = dict(
            classifiers=classifiers, n_intervals=5, sample_shift=0,
            use_cache=False,
        )
        batched = simulate_mix(apps, cfg, WhirlpoolScheme, **kwargs)
        reference = simulate_mix(apps, cfg, serial(WhirlpoolScheme), **kwargs)
        assert_mix_equal(batched, reference)

    def test_empty_mix(self, cfg):
        for factory in (JigsawScheme, serial(JigsawScheme)):
            result = simulate_mix([], cfg, factory, n_intervals=4)
            assert result.per_app == []


class TestSingleDifferential:
    @pytest.mark.parametrize("scheme", sorted(FACTORIES))
    def test_simulate_exact(self, cfg, scheme):
        workload = build_workload("MIS", scale="train", seed=0)
        kwargs = dict(n_intervals=6, use_cache=False)
        batched = simulate(workload, cfg, FACTORIES[scheme], **kwargs)
        reference = simulate(workload, cfg, serial(FACTORIES[scheme]), **kwargs)
        assert batched == reference

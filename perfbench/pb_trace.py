"""Per-layer spans recorded from outside the program.

The benchmark wraps the public entry points of each ``repro`` layer with
a span recorder; nothing under ``src/`` is edited.  A span's *self* time
is its duration minus the time covered by the spans it encloses, so the
self times of all layers plus ``other`` (time in no span) add up to the
timed phase's wall time.

Two levels of instrumentation exist:

* :class:`StoreGuard` is always on.  It records which profile
  fingerprints a phase published and which it loaded, so a cold phase
  can prove it never loaded a profile it did not compute itself (the
  committed fixture pile included), and a warm phase can prove it
  computed none.  It wraps two functions that run a few hundred times
  per phase.
* :class:`Tracer` is on only in the traced run (``--trace 1``).  It
  wraps every entry point in :data:`ENTRY_POINTS` and keeps spans in
  memory; :meth:`Tracer.write` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["ENTRY_POINTS", "StoreGuard", "Tracer"]

#: (layer, module, attribute path) of every wrapped public entry point.
#: Module-level functions are replaced wherever ``repro`` modules bound
#: them by name; methods are replaced on their class.
ENTRY_POINTS = [
    ("workloads.build", "repro.workloads.registry", "build_workload"),
    ("mem.callpoint", "repro.mem.allocator", "callpoint_id"),
    ("whirltool.profile", "repro.core.whirltool.profiler", "WhirlToolProfiler.profile"),
    ("whirltool.cluster", "repro.core.whirltool.analyzer", "WhirlToolAnalyzer.cluster"),
    ("profiling", "repro.sim.profiling", "profile_vcs"),
    ("reuse", "repro.curves.reuse", "StackDistanceProfiler.profile"),
    ("store.load", "repro.store.profiles", "load_profile"),
    ("store.publish", "repro.store.profiles", "publish_profile"),
    ("curves.hull", "repro.curves.miss_curve", "MissCurve.convex_hull"),
    ("curves.hull", "repro.curves.miss_curve", "prime_hull_caches"),
    ("curves.partition", "repro.curves.partition", "partition_cost_curves"),
    ("schemes.placement", "repro.schemes.placement", "trading_placement"),
    ("nuca.reach", "repro.nuca.geometry", "MeshGeometry.reach_avg_hops"),
    ("exp.engine", "repro.exp.engine", "run_jobs"),
    ("exp.job", "repro.exp.execute", "execute_job"),
    ("stream.push", "repro.ingest.stream", "StreamingProfile.push_chunk"),
    ("online", "repro.core.whirltool.online", "OnlineWhirlTool.push"),
    ("online", "repro.core.whirltool.online", "OnlineWhirlTool.finish"),
]
# Every scheme class's own ``decide`` and ``account_batch`` are wrapped
# too (layers ``schemes.decide`` / ``schemes.account``), found by walking
# the subclasses of ``repro.schemes.base.Scheme``.
SCHEME_METHODS = {"decide": "schemes.decide", "account_batch": "schemes.account"}

#: Layers whose call counts are reported, under their metric names.
CALL_COUNTS = {
    "workloads.build": "workloads.builds",
    "mem.callpoint": "mem.callpoints",
    "whirltool.profile": "whirltool.trainings",
    "profiling": "profiling.calls",
    "store.publish": "store.publishes",
    "curves.hull": "curves.hull_calls",
    "curves.partition": "curves.partition_calls",
    "schemes.decide": "schemes.decides",
    "nuca.reach": "nuca.reach_calls",
}

#: Counts of work that results and arguments show.
EXTRA_COUNTS = (
    "reuse.records",
    "store.loads",
    "online.epochs",
    "online.reclusters",
    "ingest.records",
)

#: Layers whose self time is reported, under their metric names.
SELF_TIMES = {
    "workloads.build": "workloads.build_s",
    "mem.callpoint": "mem.callpoint_s",
    "whirltool.profile": "whirltool.profile_s",
    "whirltool.cluster": "whirltool.cluster_s",
    "profiling": "profiling.self_s",
    "reuse": "reuse.s",
    "store.load": "store.load_s",
    "store.publish": "store.publish_s",
    "curves.hull": "curves.hull_s",
    "curves.partition": "curves.partition_s",
    "schemes.decide": "schemes.decide_s",
    "schemes.account": "schemes.account_s",
    "schemes.placement": "schemes.placement_s",
    "nuca.reach": "nuca.reach_s",
    "exp.engine": "exp.overhead_s",
    "exp.job": "exp.job_s",
    "ingest.parse": "ingest.parse_s",
    "stream.push": "stream.push_s",
    "online": "online.seal_s",
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded repro module."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class _Patcher:
    """Installs wrappers and restores the originals on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list = []

    def patch_function(self, module: str, attr: str, make_wrapper) -> None:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            self._undo.append(lambda: setattr(owner, name, original))
        else:
            _replace_everywhere(original, wrapper)
            self._undo.append(lambda: _replace_everywhere(wrapper, original))

    def patch_method(self, cls: type, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make_wrapper(original))
        self._undo.append(lambda: setattr(cls, name, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class StoreGuard:
    """Which profile fingerprints this process published and loaded."""

    def __init__(self) -> None:
        self.published: set[str] = set()
        self.loads = 0
        self.foreign_loads: list[str] = []
        self._patcher = _Patcher()

    def install(self) -> "StoreGuard":
        def wrap_load(original):
            @functools.wraps(original)
            def load_profile(path, *args, **kwargs):
                out = original(path, *args, **kwargs)
                if out is not None:
                    self.loads += 1
                    fingerprint = Path(path).name.split(".")[0]
                    if fingerprint not in self.published:
                        self.foreign_loads.append(str(path))
                return out

            return load_profile

        def wrap_publish(original):
            @functools.wraps(original)
            def publish_profile(store, fingerprint, *args, **kwargs):
                out = original(store, fingerprint, *args, **kwargs)
                self.published.add(fingerprint)
                return out

            return publish_profile

        self._patcher.patch_function("repro.store.profiles", "load_profile", wrap_load)
        self._patcher.patch_function(
            "repro.store.profiles", "publish_profile", wrap_publish
        )
        return self

    def restore(self) -> None:
        self._patcher.restore()


class Tracer:
    """In-memory span recorder around every layer's entry points.

    Spans are ``(layer, start, end, depth)`` tuples on the
    ``time.perf_counter`` clock.  Self time and call counts are summed
    as spans close, so reading the totals costs nothing extra.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patcher = _Patcher()

    # -- recording ---------------------------------------------------
    def wrap(self, layer: str, fn, after=None):
        """``fn`` recorded as a span of ``layer``.

        ``after(args, result)`` runs once the span has closed, to count
        work the result shows.
        """
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                spans.append((layer, frame[0], end, len(stack)))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------
    def install(self) -> "Tracer":
        import repro.core.whirlpool  # noqa: F401  (registers WhirlpoolScheme)
        import repro.schemes
        from repro.schemes.base import Scheme

        hooks = {
            "reuse": self._count_reuse,
            "store.load": self._count_load,
            "online": self._count_epochs,
        }
        for layer, module, attr in ENTRY_POINTS:
            if attr == "callpoint_id":
                self._patcher.patch_function(module, attr, self._wrap_callpoint)
                continue
            self._patcher.patch_function(
                module,
                attr,
                lambda fn, layer=layer: self.wrap(layer, fn, hooks.get(layer)),
            )
        del repro.schemes
        todo = [Scheme]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            for name, layer in SCHEME_METHODS.items():
                method = cls.__dict__.get(name)
                if method is None or getattr(method, "__isabstractmethod__", False):
                    continue
                self._patcher.patch_method(
                    cls, name, lambda fn, layer=layer: self.wrap(layer, fn)
                )
        return self

    def restore(self) -> None:
        self._patcher.restore()

    def _wrap_callpoint(self, original):
        # callpoint_id hashes the frames ``skip`` levels above itself.  The
        # span wrapper and this function add two frames, so two more are
        # skipped and the ids stay those of the untraced run.
        def callpoint_id(depth: int = 2, skip: int = 2) -> int:
            return original(depth, skip + 2)

        return self.wrap("mem.callpoint", callpoint_id)

    def _count_reuse(self, args, result) -> None:
        self.counts["reuse.records"] += len(args[1])

    def _count_load(self, args, result) -> None:
        if result is not None:
            self.counts["store.loads"] += 1

    def _count_epochs(self, args, result) -> None:
        if isinstance(result, list):  # push returns its EpochReports
            self.counts["online.epochs"] += len(result)
            self.counts["online.reclusters"] += sum(r.reclustered for r in result)

    # -- results -----------------------------------------------------
    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Self times, call counts and ``other_s`` for a phase of ``wall_s``."""
        out: dict[str, float] = {}
        for layer, name in SELF_TIMES.items():
            out[name] = self.self_s.get(layer, 0.0)
        for layer, name in CALL_COUNTS.items():
            out[name] = self.calls.get(layer, 0)
        for name in EXTRA_COUNTS:
            out[name] = self.counts.get(name, 0)
        out["profiling.misses"] = self._profiling_misses()
        out["profiling.hits"] = out["profiling.calls"] - out["profiling.misses"]
        out["other_s"] = wall_s - sum(self.self_s.values())
        out["trace.spans"] = len(self.spans)
        return out

    def _profiling_misses(self) -> int:
        """``profile_vcs`` calls that enclosed a ``reuse`` span."""
        misses = 0
        open_end = -1.0
        counted = False
        for layer, start, end, __ in sorted(self.spans, key=lambda s: s[1]):
            if layer == "profiling":
                open_end, counted = end, False
            elif layer == "reuse" and start < open_end and not counted:
                misses += 1
                counted = True
        return misses

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, in start order."""
        with open(path, "w") as f:
            for layer, start, end, depth in sorted(self.spans, key=lambda s: s[1]):
                f.write(
                    json.dumps(
                        {"layer": layer, "start": start, "end": end, "depth": depth}
                    )
                    + "\n"
                )

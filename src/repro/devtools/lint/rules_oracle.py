"""Oracle pairing: every batched engine keeps its serial ground truth.

The repo's bit-identity discipline (PRs 2-6) is: a vectorized engine
may replace a serial implementation only if the serial version is
*retained* as an independently-derived oracle and a test pins the two
bit-identical.  This rule makes the discipline mechanical.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.base import (
    Finding,
    Project,
    Rule,
    register_rule,
)

__all__ = ["OraclePairingRule"]


@register_rule
class OraclePairingRule(Rule):
    """Public kernels with a batched engine must retain a serial oracle.

    Every entry in ``invariants.toml``'s ``[[engine]]`` table names a
    public kernel and its retained ``*_reference`` oracle in the same
    module.  The rule checks three things: the kernel exists, the
    reference still exists, and at least one test or benchmark file
    references both names — i.e. the bit-identity pin has not been
    quietly deleted.  Conversely, any
    public ``src/`` function that grows an ``engine=`` parameter must be
    registered in the manifest, so new engines cannot ship oracle-less.
    """

    id = "oracle-pairing"

    def check_project(self, project: Project) -> Iterator[Finding]:
        entries = project.manifest.get("engine", [])
        registered = {e["kernel"].split(".")[-1] for e in entries}
        for entry in entries:
            yield from self._check_entry(project, entry)
        # Sweep src/ for unregistered engine= switches.
        for f in project.glob_sources("src"):
            if f.tree is None:
                continue
            for qual, node in self.functions(f.tree):
                name = qual.split(".")[-1]
                if name.startswith("_") or name in registered:
                    continue
                if self._has_engine_param(node):
                    yield self.finding(
                        f,
                        node.lineno,
                        f"public kernel {qual!r} takes an engine= switch "
                        "but is not registered in invariants.toml's "
                        "[[engine]] table; register it with its serial "
                        "reference oracle",
                    )

    # ------------------------------------------------------------------
    # Manifest entries
    # ------------------------------------------------------------------
    def _check_entry(self, project: Project, entry: dict) -> Iterator[Finding]:
        kernel = entry["kernel"]
        reference = entry["reference"]
        f = project.file(entry["module"])
        if f is None or f.tree is None:
            yield self.finding(
                entry["module"],
                1,
                f"engine module for kernel {kernel!r} is missing or "
                "unparseable",
            )
            return
        defs = {qual: node for qual, node in self.functions(f.tree)}
        knode = defs.get(kernel)
        if knode is None:
            yield self.finding(
                f,
                1,
                f"kernel {kernel!r} is registered in invariants.toml but "
                f"not defined in {entry['module']}",
            )
            return
        if reference not in defs:
            yield self.finding(
                f,
                knode.lineno,
                f"kernel {kernel!r} has no retained reference oracle: "
                f"{reference!r} is not defined in {entry['module']} "
                "(renamed or deleted?)",
            )
            return
        needles = (kernel.split(".")[-1], reference.split(".")[-1])
        if not self._test_references(project, needles):
            yield self.finding(
                f,
                knode.lineno,
                f"no test or benchmark file references both "
                f"{needles[0]!r} and {needles[1]!r}; the bit-identity "
                "pin between the engine and its oracle is gone",
            )

    @staticmethod
    def _has_engine_param(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        params = node.args.args + node.args.kwonlyargs
        return any(a.arg == "engine" for a in params)

    @staticmethod
    def _test_references(
        project: Project, needles: tuple[str, str]
    ) -> bool:
        for subdir in ("tests", "benchmarks"):
            for f in project.glob_sources(subdir):
                if all(needle in f.source for needle in needles):
                    return True
        return False

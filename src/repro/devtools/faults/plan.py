"""Deterministic fault plans: what fails, where, and on which attempt.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultRule`\\ s.
Each rule names an injection *site* (a string the instrumented code
passes to :func:`~repro.devtools.faults.maybe_inject` /
:func:`~repro.devtools.faults.filter_bytes`), a failure *mode*, and a
deterministic firing condition:

- ``attempts`` — explicit 1-based attempt numbers, for sites where the
  caller knows the attempt (the engine's worker boundary does).
- ``count`` — fire on the first N consultations of ``(site, key)``
  within a process, for sites without attempt plumbing (I/O reads
  retried in place).
- ``p`` — fire with probability ``p``, decided by
  :func:`repro.retry.seeded_unit` over ``(seed, site, key, tick)`` —
  reproducible chaos, never wall-clock or global random state.

Modes: ``crash`` (``os._exit``, a SIGKILL/OOM stand-in), ``hang``
(sleep well past any sane deadline), ``raise`` (transient ``OSError``),
and the byte-filter modes ``corrupt`` / ``truncate`` (bit-flipped or
torn payloads, applied by ``filter_bytes``).

Plans serialize to JSON and activate through ``$REPRO_FAULTS`` (a file
path, or the JSON object inline), which process-pool workers inherit —
so one env var chaos-tests a whole campaign.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import obs
from repro.retry import seeded_unit

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "SITES",
    "active_plan",
    "filter_bytes",
    "maybe_inject",
    "reset",
]

#: Environment variable naming (or inlining) the active plan.
ENV_VAR = "REPRO_FAULTS"

#: The injection-point catalog: every site the runtime consults.
SITES = {
    "worker": "engine worker boundary (attempt-aware; crash/hang/raise)",
    "execute": "worker-side execute_job entry (count-based)",
    "store-read": "profile or clustering payload read in the artifact store",
    "rtrace-chunk": ".rtrace chunk member decode (raise/corrupt/truncate)",
    "follow-read": "live-tail readline in ingest watch",
}

_MODES = ("crash", "hang", "raise", "corrupt", "truncate")
_BYTE_MODES = ("corrupt", "truncate")


@dataclass(frozen=True)
class FaultRule:
    """One deterministic failure: site + mode + firing condition."""

    site: str
    mode: str
    match: str = ""  # substring of the site key ("" matches every key)
    attempts: tuple[int, ...] = ()
    count: int = 0
    p: float = 0.0
    seconds: float = 3600.0  # hang duration (far past any job timeout)
    exit_code: int = 17

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; known: {', '.join(_MODES)}"
            )
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")

    def fires(self, seed: int, key: str, attempt: int | None, tick: int) -> bool:
        """Whether this rule fires for one consultation.

        ``attempt`` is the caller-supplied 1-based attempt number (the
        engine passes it; I/O sites pass None), ``tick`` the per-process
        consultation index for ``(site, key, rule)``.
        """
        if self.attempts:
            return attempt is not None and attempt in self.attempts
        if self.count:
            return tick < self.count
        if self.p:
            when = attempt if attempt is not None else tick
            return seeded_unit(seed, self.site, key, when) < self.p
        return False


class FaultPlan:
    """A seed plus the rules; see the module docstring for semantics."""

    def __init__(self, rules: list[FaultRule], seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        rules = []
        for raw in data.get("rules", []):
            raw = dict(raw)
            if "attempts" in raw:
                raw["attempts"] = tuple(raw["attempts"])
            rules.append(FaultRule(**raw))
        return cls(rules, seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [
                    {
                        k: (list(v) if isinstance(v, tuple) else v)
                        for k, v in asdict(rule).items()
                    }
                    for rule in self.rules
                ],
            },
            sort_keys=True,
        )


# Per-process state: parsed plans keyed by the raw env value, and the
# consultation counters the count/p firing conditions tick on.
_plans: dict[str, FaultPlan] = {}
_ticks: dict[tuple[str, str, int], int] = {}


def reset() -> None:
    """Forget parsed plans and consultation counters (tests)."""
    _plans.clear()
    _ticks.clear()


def active_plan() -> FaultPlan | None:
    """The plan ``$REPRO_FAULTS`` names, or None (the fast no-op path)."""
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    plan = _plans.get(spec)
    if plan is None:
        text = (
            spec
            if spec.lstrip().startswith("{")
            else Path(spec).read_text(encoding="utf-8")
        )
        plan = FaultPlan.from_json(text)
        _plans[spec] = plan
    return plan


def _tick(site: str, key: str, index: int) -> int:
    """Consultation counter for ``(site, key, rule-index)``; post-incremented."""
    slot = (site, key, index)
    n = _ticks.get(slot, 0)
    _ticks[slot] = n + 1
    return n


def maybe_inject(site: str, key: str = "", attempt: int | None = None) -> None:
    """Fire any matching crash/hang/raise rule; no-op when inactive."""
    plan = active_plan()
    if plan is None:
        return
    for index, rule in enumerate(plan.rules):
        if rule.site != site or rule.match not in key:
            continue
        if rule.mode in _BYTE_MODES:
            continue  # byte-filter rules apply through filter_bytes
        if not rule.fires(plan.seed, key, attempt, _tick(site, key, index)):
            continue
        # Record the fault BEFORE it fires: the JSONL sink flushes per
        # event, so even an os._exit crash leaves this line on disk and
        # the chaos run stays reconstructable from its log.
        obs.event(
            "fault.injected",
            site=site,
            mode=rule.mode,
            key=key,
            attempt=attempt,
        )
        if rule.mode == "crash":
            # An OOM-kill stand-in: no cleanup, no exception, no flush.
            os._exit(rule.exit_code)
        if rule.mode == "hang":
            time.sleep(rule.seconds)
            continue
        raise OSError(
            f"injected transient fault at {site}"
            + (f" ({key})" if key else "")
        )


def filter_bytes(site: str, data: bytes, key: str = "") -> bytes:
    """Apply any matching corrupt/truncate rule to a payload read."""
    plan = active_plan()
    if plan is None:
        return data
    for index, rule in enumerate(plan.rules):
        if rule.site != site or rule.match not in key:
            continue
        if rule.mode not in _BYTE_MODES:
            continue
        if not rule.fires(plan.seed, key, None, _tick(site, key, index)):
            continue
        obs.event("fault.injected", site=site, mode=rule.mode, key=key)
        if rule.mode == "truncate":
            return data[: len(data) // 2]
        torn = bytearray(data)
        if torn:
            torn[len(torn) // 2] ^= 0xFF
        return bytes(torn)
    return data

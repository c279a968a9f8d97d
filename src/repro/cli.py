"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``list-apps`` — the 31-app suite, Table-2 ports, parallel apps.
- ``run`` — simulate one app under one or more schemes.
- ``placement`` — ASCII placement map for an app (Figs 3-5).
- ``whirltool`` — train WhirlTool on an app and show the clustering.
- ``parallel`` — run a Fig-13 parallel app under all four configs.
- ``config`` — print the Table-3 system configuration.
- ``campaign`` — submit/resume/inspect experiment grids (``repro.exp``);
  the ``mixes`` action runs resumable Fig-22-style mix grids, and
  ``quarantine list|retry|clear`` manages jobs parked after exhausting
  their retry budget.
- ``ingest`` — convert/inspect/validate/register external memory traces
  (``repro.ingest``); registered traces become first-class workloads.
- ``store`` — status/gc/verify/compact of the content-addressed
  artifact store (``repro.store``) that holds cached profiles and
  registered traces.
- ``lint`` — AST-based static checks of the repo's bit-identity,
  fixture-stability, and atomicity invariants (``repro.devtools.lint``).
- ``obs`` — inspect the structured-tracing event logs campaigns write
  (``repro.obs``): wall-clock breakdowns, retry storms, cache ratios.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import STANDARD_SCHEMES, format_table, placement_map, run_schemes
from repro.core import TABLE2
from repro.core.whirltool import trained_clustering
from repro.nuca import four_core_config, sixteen_core_config
from repro.workloads import ALL_APPS, MANUAL_APPS, build_workload

__all__ = ["main"]


def _cmd_list_apps(args: argparse.Namespace) -> int:
    print("single-threaded suite (Appendix A):")
    for name in ALL_APPS:
        port = " [Table 2]" if name in MANUAL_APPS else ""
        print(f"  {name}{port}")
    from repro.parallel import PARALLEL_APPS

    print("\nparallel apps (Fig 13):")
    for name in sorted(PARALLEL_APPS):
        print(f"  {name}")
    from repro.workloads import ingested_apps

    ingested = ingested_apps()
    if ingested:
        print("\ningested traces ($REPRO_TRACE_DIR):")
        for name in ingested:
            print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = sixteen_core_config() if args.cores == 16 else four_core_config()
    try:
        workload = build_workload(args.app, scale=args.scale, seed=args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    schemes = args.schemes.split(",") if args.schemes else None
    if schemes is not None:
        unknown = set(schemes) - set(STANDARD_SCHEMES)
        if unknown:
            print(f"unknown schemes: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
    results = run_schemes(workload, config, schemes=schemes)
    base = results.get("Jigsaw") or next(iter(results.values()))
    rows = []
    for name, r in results.items():
        b = r.apki_breakdown()
        rows.append(
            [
                name,
                r.cycles / base.cycles,
                r.energy.total / base.energy.total,
                round(b["hits"], 1),
                round(b["misses"], 1),
                round(b["bypasses"], 1),
            ]
        )
    print(f"{args.app} ({args.scale}) on {config.name}:")
    print(
        format_table(
            ["scheme", "time (rel)", "energy (rel)", "hit", "miss", "byp APKI"],
            rows,
        )
    )
    return 0


def _cmd_placement(args: argparse.Namespace) -> int:
    from repro.core.whirlpool import WhirlpoolScheme
    from repro.schemes import ManualPoolClassifier
    from repro.sim import simulate

    config = four_core_config()
    workload = build_workload(args.app, scale=args.scale, seed=args.seed)
    if not workload.manual_pools:
        print(f"{args.app} has no manual pools; use `whirltool`", file=sys.stderr)
        return 2
    captured: dict = {}

    class Capturing(WhirlpoolScheme):
        def decide(self, curves):
            alloc = super().decide(curves)
            captured.clear()
            for vc, a in alloc.items():
                if a.placement is not None:
                    captured[self.vcs[vc].name] = a.placement
            return alloc

    simulate(workload, config, Capturing, classifier=ManualPoolClassifier())
    print(placement_map(config.geometry, captured, core=0))
    return 0


def _cmd_whirltool(args: argparse.Namespace) -> int:
    workload = build_workload(args.app, scale=args.scale, seed=args.seed)
    clustering = trained_clustering(workload)
    print(f"callpoints: {len(clustering.callpoints)}")
    print("merge tree:")
    print(clustering.dendrogram_text())
    assignments = clustering.assignments(args.pools)
    pools: dict = {}
    for cp, pool in assignments.items():
        pools.setdefault(pool, []).append(clustering.names.get(cp, str(cp)))
    print(f"\n{args.pools}-pool classification:")
    for pool, members in sorted(pools.items()):
        print(f"  pool {pool}: {', '.join(sorted(members))}")
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    from repro.parallel import build_parallel_workload
    from repro.sim.parallel import PARALLEL_SCHEMES, evaluate_parallel

    config = sixteen_core_config()
    pw = build_parallel_workload(args.app, scale=args.scale, seed=args.seed)
    results = {s: evaluate_parallel(pw, config, s) for s in PARALLEL_SCHEMES}
    base = results["snuca"]
    rows = [
        [
            s,
            results[s].cycles / base.cycles,
            results[s].energy.total / base.energy.total,
        ]
        for s in PARALLEL_SCHEMES
    ]
    print(format_table(["configuration", "time (vs S-NUCA)", "energy"], rows))
    return 0


def _cmd_campaign_mixes(args: argparse.Namespace) -> int:
    """Run (or resume) a multiprogrammed-mix grid and print Fig-22 tables."""
    from repro.exp import MixCampaign, run_campaign, weighted_speedup_table

    if args.spec is not None:
        try:
            campaign = MixCampaign.from_json_file(args.spec)
        except (OSError, ValueError, TypeError) as exc:
            print(f"cannot load spec {args.spec}: {exc}", file=sys.stderr)
            return 2
    else:
        schemes = args.mix_schemes.split(",")
        try:
            campaign = MixCampaign(
                n_cores=[int(c) for c in args.cores.split(",") if c],
                n_mixes=args.mixes,
                schemes=schemes,
                baseline=args.baseline if args.baseline else schemes[0],
                scale=args.scale,
                base_seed=args.base_seed,
                n_intervals=args.intervals,
            )
        except ValueError as exc:
            print(f"bad mix-campaign arguments: {exc}", file=sys.stderr)
            return 2
    # Same submit/resume semantics as plain campaigns: the store skips
    # every job that already has a result, so re-running after an
    # interruption executes exactly the missing cells.
    report = run_campaign(
        campaign,
        args.store,
        workers=args.workers,
        strict=False,
        retry=_retry_policy(args),
        job_timeout=args.job_timeout,
    )
    print(
        f"{campaign.name}: {report.executed} executed, "
        f"{report.skipped} skipped, {len(report.failures)} failed"
    )
    for key, err in report.failures.items():
        print(f"  FAILED {key}: {err}", file=sys.stderr)
    print(weighted_speedup_table(campaign, args.store))
    return 1 if report.failures else 0


def _retry_policy(args: argparse.Namespace):
    """The campaign retry policy the CLI flags describe."""
    from repro.retry import RetryPolicy

    return RetryPolicy(
        max_attempts=max(1, args.max_attempts),
        base_delay=args.retry_base_delay,
        seed=args.retry_seed,
    )


def _cmd_campaign_quarantine(args: argparse.Namespace) -> int:
    """Inspect, re-execute, or drop the store's quarantined jobs."""
    from repro.exp import Quarantine, ResultStore, quarantine_path_for

    store = ResultStore(args.store)
    quarantine = Quarantine(quarantine_path_for(store.path))

    if args.qaction == "clear":
        n = quarantine.clear()
        print(f"cleared {n} quarantined job(s)")
        return 0

    if args.qaction == "list":
        if not len(quarantine):
            print(f"no quarantined jobs for {args.store}")
            return 0
        rows = []
        for entry in quarantine.entries():
            attempts = entry.get("attempts", [])
            kinds = ",".join(sorted({a.get("kind", "?") for a in attempts}))
            last = attempts[-1].get("error", "") if attempts else ""
            rows.append(
                [entry["key"], len(attempts), kinds or "?", last[:60]]
            )
        print(format_table(["key", "attempts", "kinds", "last error"], rows))
        return 0

    # "retry": re-execute the parked jobs now that whatever poisoned
    # them (a bad node, a since-fixed bug, an injected fault profile)
    # is presumed gone; successes leave the quarantine.
    from repro.exp import Job, run_jobs
    from repro.exp.execute import execute_job

    if not len(quarantine):
        print(f"no quarantined jobs for {args.store}")
        return 0
    jobs = [Job.from_dict(entry["job"]) for entry in quarantine.entries()]
    report = run_jobs(
        jobs,
        execute_job,
        store=store,
        workers=args.workers,
        strict=False,
        retry=_retry_policy(args),
        job_timeout=args.job_timeout,
        # No quarantine here: the parked keys must actually run.
    )
    recovered = [job.key() for job in jobs if job.key() in store]
    quarantine.remove(recovered)
    print(
        f"retried {len(jobs)} quarantined job(s): {len(recovered)} "
        f"recovered, {len(jobs) - len(recovered)} still failing"
    )
    for key, err in report.failures.items():
        print(f"  FAILED {key}: {err}", file=sys.stderr)
    return 1 if report.failures else 0


def _fmt_timing(timings: dict, scheme: str, stat: str) -> str:
    row = timings.get(scheme)
    if not row:
        return "-"
    return f"{row[stat]:.3f}s"


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.exp import Campaign, ResultStore, campaign_status, run_campaign

    if args.action == "mixes":
        return _cmd_campaign_mixes(args)

    if args.action == "quarantine":
        return _cmd_campaign_quarantine(args)

    if args.action == "export":
        store = ResultStore(args.store)
        if not len(store):
            print(f"no results in {args.store}", file=sys.stderr)
            return 2
        print(store.export_table(metric=args.metric))
        return 0

    if args.spec is None:
        print("--spec is required for this action", file=sys.stderr)
        return 2
    try:
        campaign = Campaign.from_json_file(args.spec)
        campaign.jobs()  # surface grid errors (e.g. axis without values)
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot load spec {args.spec}: {exc}", file=sys.stderr)
        return 2

    if args.action == "status":
        status = campaign_status(campaign, args.store)
        quarantined = (
            f" ({status['quarantined']} quarantined)"
            if status.get("quarantined")
            else ""
        )
        print(
            f"{status['name']}: {status['done']}/{status['total']} done, "
            f"{status['pending']} pending{quarantined}"
        )
        # Wall-clock rollups come from the events sidecar a traced run
        # leaves next to the store; untraced campaigns have none.
        timings = status.get("timings", {})
        if timings:
            rows = [
                [
                    scheme,
                    row["done"],
                    row["pending"],
                    _fmt_timing(timings, scheme, "p50_s"),
                    _fmt_timing(timings, scheme, "p95_s"),
                ]
                for scheme, row in sorted(status["per_scheme"].items())
            ]
            print(
                format_table(
                    ["scheme", "done", "pending", "p50", "p95"], rows
                )
            )
        else:
            rows = [
                [scheme, row["done"], row["pending"]]
                for scheme, row in sorted(status["per_scheme"].items())
            ]
            print(format_table(["scheme", "done", "pending"], rows))
        return 0

    # "submit" runs the missing jobs; "resume" is the same operation by
    # construction (the store skips everything already done).
    report = run_campaign(
        campaign,
        args.store,
        workers=args.workers,
        strict=False,
        retry=_retry_policy(args),
        job_timeout=args.job_timeout,
    )
    retried = f", {report.retried} retried" if report.retried else ""
    quarantined = (
        f", {len(report.quarantined)} quarantined" if report.quarantined else ""
    )
    print(
        f"{campaign.name}: {report.executed} executed, "
        f"{report.skipped} skipped, {len(report.failures)} failed"
        f"{retried}{quarantined}"
    )
    for key, err in report.failures.items():
        print(f"  FAILED {key}: {err}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Convert / inspect / validate / register external memory traces."""
    from repro import ingest

    if args.action != "convert" and args.out is not None:
        # Otherwise `ingest register t.rtrace myapp` would silently bind
        # the intended name to the unused convert-only OUT operand.
        print(
            f"unexpected argument {args.out!r}: only convert takes a "
            "destination (use --name for register)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.action == "convert":
            return _ingest_convert(args, ingest)
        if args.action == "inspect":
            return _ingest_inspect(args, ingest)
        if args.action == "validate":
            return _ingest_validate(args, ingest)
        if args.action == "watch":
            return _ingest_watch(args, ingest)
        return _ingest_register(args, ingest)
    except (OSError, ValueError) as exc:
        print(f"ingest {args.action} failed: {exc}", file=sys.stderr)
        return 2


def _open_ingest_source(args, ingest):
    source = ingest.open_trace_source(args.path, fmt=args.format)
    if args.alloc_log is not None:
        table = ingest.AttributionTable.from_log(args.alloc_log)
        source = ingest.AttributedSource(source, table)
    return source


def _pipeline_only_flags(args) -> list[str]:
    """Flags that only the .rtrace conversion pipeline can honour."""
    flags = []
    if args.instructions is not None:
        flags.append("--instructions")
    if args.apki is not None:
        flags.append("--apki")
    if args.line_bytes is not None:
        flags.append("--line-bytes")
    if args.dedup:
        flags.append("--dedup")
    return flags


def _ingest_convert(args: argparse.Namespace, ingest) -> int:
    if args.out is None:
        print("convert requires a destination (OUT)", file=sys.stderr)
        return 2
    # Refuse rather than silently drop — and refuse *before* the source
    # open, whose pre-scan can take minutes on a multi-GB text capture.
    if not args.out.endswith(".rtrace"):
        dropped = _pipeline_only_flags(args)
        if args.alloc_log is not None and not args.out.endswith(
            (".csv", ".jsonl", ".ndjson")
        ):
            # lackey/mtrace carry no region column, so the attribution
            # would be computed and then discarded.
            dropped.append("--alloc-log")
        if dropped:
            print(
                f"{'/'.join(dropped)} cannot be honoured when the "
                f"destination is {args.out!r}; convert to .rtrace (or a "
                "region-carrying format) first",
                file=sys.stderr,
            )
            return 2
    source = _open_ingest_source(args, ingest)
    if args.out.endswith(".rtrace"):
        header = ingest.convert_to_rtrace(
            source,
            args.out,
            line_bytes=args.line_bytes,
            instructions=args.instructions,
            apki=args.apki,
            dedup=args.dedup,
            max_records=args.chunk_records,
        )
        print(
            f"wrote {args.out}: {header['n_records']} records, "
            f"{len(header['region_names'])} regions, "
            f"fingerprint {header['fingerprint']}"
        )
    else:
        ingest.write_trace_file(
            args.out, source, max_records=args.chunk_records
        )
        print(f"wrote {args.out}: {source.n_records} records")
    return 0


def _ingest_inspect(args: argparse.Namespace, ingest) -> int:
    fmt = args.format or ingest.detect_format(args.path)
    source = ingest.open_trace_source(args.path, fmt=fmt)
    n_records = source.n_records
    print(f"{args.path}:")
    print(f"  format: {fmt}")
    print(
        f"  records: "
        f"{n_records if n_records is not None else 'unbounded (live stream)'}"
    )
    print(f"  line_bytes: {source.line_bytes}")
    instr = source.instructions
    print(f"  instructions: {instr if instr is not None else 'unknown'}")
    if instr and n_records is not None:
        print(f"  apki: {n_records * 1000.0 / instr:.2f}")
    if source.region_names:
        print(f"  regions: {len(source.region_names)}")
        for rid, name in sorted(source.region_names.items())[:20]:
            print(f"    {rid}: {name}")
        if len(source.region_names) > 20:
            print(f"    ... {len(source.region_names) - 20} more")
    if hasattr(source, "fingerprint"):
        print(f"  fingerprint: {source.fingerprint}")
        print(f"  chunks: {source.n_chunks}")
    return 0


def _stream_source(args: argparse.Namespace, ingest, one_shot: bool):
    """Open ``args.path`` as an unbounded followed source (watch/stdin)."""
    if args.format is None:
        print(
            "live streams cannot be content-sniffed; pass --format "
            "(lackey/csv/jsonl)",
            file=sys.stderr,
        )
        return None
    return ingest.open_stream_source(
        args.path,
        fmt=args.format,
        line_bytes=args.line_bytes if args.line_bytes is not None else 64,
        poll_interval=args.poll_interval,
        idle_timeout=0.0 if one_shot else args.idle_timeout,
    )


def _ingest_watch(args: argparse.Namespace, ingest) -> int:
    source = _stream_source(args, ingest, one_shot=False)
    if source is None:
        return 2
    return ingest.run_watch(
        source,
        epoch_records=args.epoch_records,
        n_pools=args.pools,
    )


def _ingest_validate(args: argparse.Namespace, ingest) -> int:
    if args.path == "-":
        source = _stream_source(args, ingest, one_shot=True)
        if source is None:
            return 2
    else:
        source = ingest.open_trace_source(args.path, fmt=args.format)
    if hasattr(source, "verify_fingerprint"):
        # One decompression pass: fingerprint + record-count check.
        if not source.verify_fingerprint():
            print(
                f"INVALID {args.path}: content fingerprint or record "
                "count mismatch",
                file=sys.stderr,
            )
            return 1
        print(f"OK {args.path}: {source.n_records} records")
        return 0
    n = 0
    for chunk in source.chunks(args.chunk_records):
        n += len(chunk)  # TraceChunk rejects negative addrs/regions
    if source.n_records is None:
        # Unbounded sources have no declared count to cross-check; the
        # pass above still validated every record it could read.
        print(
            f"OK {args.path}: {n} records parse cleanly "
            "(unbounded source; no declared count to check)"
        )
        return 0
    if n != source.n_records:
        print(
            f"INVALID {args.path}: yielded {n} records, "
            f"declared {source.n_records}",
            file=sys.stderr,
        )
        return 1
    # Text/binary interchange formats carry no checksum, so this is a
    # parse check, not an integrity check — say so.
    print(
        f"OK {args.path}: {n} records parse cleanly "
        "(no content fingerprint in this format)"
    )
    return 0


def _ingest_register(args: argparse.Namespace, ingest) -> int:
    import os
    import shutil

    from repro.workloads.registry import TRACE_DIR_ENV

    root = args.trace_dir or os.environ.get(TRACE_DIR_ENV)
    if root is None:
        # No legacy trace directory: publish into the artifact store
        # (content-addressed, name bound through the store's index).
        return _ingest_register_store(args, ingest)
    from pathlib import Path

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    name = args.name or Path(args.path).stem
    if name in ALL_APPS:
        # The registry resolves built-ins first, so a shadowed trace
        # would be registered but unreachable.
        print(
            f"{name!r} is a built-in benchmark; pick another --name",
            file=sys.stderr,
        )
        return 2
    dst = root / f"{name}.rtrace"
    fmt = args.format or ingest.detect_format(args.path)
    # Stage in the same directory and os.replace at the end: the trace
    # dir is shared with campaign workers resolving names concurrently,
    # and a failed registration must not destroy an existing archive.
    # The temp suffix is NOT .rtrace, so a crash leftover can never be
    # listed as a phantom workload by the registry's glob.
    tmp = root / f".{name}.{os.getpid()}.rtrace-tmp"
    try:
        if (
            fmt == "rtrace"
            and args.alloc_log is None
            and not _pipeline_only_flags(args)
        ):
            staged = ingest.RTraceSource(args.path)  # structural check
            if staged.instructions is None:
                # Reject before copying a potentially huge archive.
                print(
                    "trace carries no instruction count; re-run with "
                    "--instructions or --apki",
                    file=sys.stderr,
                )
                return 2
            shutil.copyfile(args.path, tmp)
        else:
            source = _open_ingest_source(args, ingest)
            header = ingest.convert_to_rtrace(
                source,
                tmp,
                line_bytes=args.line_bytes,
                instructions=args.instructions,
                apki=args.apki,
                dedup=args.dedup,
                max_records=args.chunk_records,
            )
            # Fail registration, not first use: a trace without an
            # instruction count cannot be simulated.
            if header["instructions"] is None:
                print(
                    "trace carries no instruction count; re-run with "
                    "--instructions or --apki",
                    file=sys.stderr,
                )
                return 2
        os.replace(tmp, dst)
    finally:
        tmp.unlink(missing_ok=True)
    print(f"registered {name!r} -> {dst}")
    print(f'run it with: python -m repro run {name}')
    return 0


def _ingest_register_store(args: argparse.Namespace, ingest) -> int:
    """Register a trace into the artifact store (no legacy trace dir)."""
    import os
    import zipfile
    from pathlib import Path

    from repro.store import ArtifactStore, publish_trace

    name = args.name or Path(args.path).stem
    if name in ALL_APPS:
        print(
            f"{name!r} is a built-in benchmark; pick another --name",
            file=sys.stderr,
        )
        return 2
    store = ArtifactStore()
    fmt = args.format or ingest.detect_format(args.path)
    if (
        fmt == "rtrace"
        and args.alloc_log is None
        and not _pipeline_only_flags(args)
    ):
        # publish_trace validates the archive and rejects one without an
        # instruction count before any copying happens.
        fingerprint, dst = publish_trace(
            store, args.path, name=name, inputs={"registered_as": name}
        )
    else:
        staging = store.root / "tmp"
        staging.mkdir(parents=True, exist_ok=True)
        tmp = staging / f".{name}.{os.getpid()}.rtrace-tmp"
        try:
            source = _open_ingest_source(args, ingest)
            header = ingest.convert_to_rtrace(
                source,
                tmp,
                line_bytes=args.line_bytes,
                instructions=args.instructions,
                apki=args.apki,
                dedup=args.dedup,
                max_records=args.chunk_records,
                compression=zipfile.ZIP_STORED,
            )
            if header["instructions"] is None:
                print(
                    "trace carries no instruction count; re-run with "
                    "--instructions or --apki",
                    file=sys.stderr,
                )
                return 2
            fingerprint, dst = publish_trace(
                store,
                tmp,
                name=name,
                inputs={"registered_as": name, "source": str(args.path)},
            )
        finally:
            tmp.unlink(missing_ok=True)
    print(f"registered {name!r} -> {dst}")
    print(f"run it with: python -m repro run {name}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Artifact-store maintenance (see :mod:`repro.store.cli`)."""
    from repro.store.cli import cmd_store

    return cmd_store(args)


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static invariant checks (see :mod:`repro.devtools.lint`)."""
    import json as _json

    from repro.devtools.lint import (
        RULES,
        explain_rule,
        find_root,
        format_json,
        format_text,
        lint_paths,
    )

    if args.explain is not None:
        try:
            print(explain_rule(args.explain))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            print(
                f"error: unknown rule ids: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(RULES))}",
                file=sys.stderr,
            )
            return 2
    root = Path(args.root) if args.root else find_root()
    try:
        findings = lint_paths(
            paths=args.paths or None,
            rules=rules,
            root=root,
            manifest_path=args.manifest,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json.dumps(format_json(findings, root), indent=2))
    else:
        print(format_text(findings))
    return 1 if findings else 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Summarize an events sidecar (see :mod:`repro.obs.report`)."""
    import json as _json

    from repro.obs import events_path_for
    from repro.obs.report import format_report, load_events, rollup

    if args.events is not None:
        events_path = Path(args.events)
    else:
        events_path = events_path_for(args.store)
    if not events_path.exists():
        print(
            f"no events log at {events_path} (traced campaigns write "
            "<store>.events.jsonl; set $REPRO_OBS to trace other runs)",
            file=sys.stderr,
        )
        return 2
    summary = rollup(load_events(events_path))
    if args.format == "json":
        print(_json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"events log: {events_path}")
        print(format_report(summary, top=args.top))
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    for cfg in (four_core_config(), sixteen_core_config()):
        print(f"--- {cfg.name} ---")
        for key, value in cfg.describe().items():
            print(f"  {key}: {value}")
    print("\nTable 2 (manual ports):")
    rows = [[e.application, e.pools, e.loc] for e in TABLE2]
    print(format_table(["application", "pools", "LOC"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Whirlpool (ASPLOS 2016) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list all workloads")

    p_run = sub.add_parser("run", help="simulate one app under schemes")
    p_run.add_argument(
        "app",
        help="a built-in benchmark (see list-apps) or an ingested trace",
    )
    p_run.add_argument("--scale", default="ref", choices=["train", "ref"])
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--cores", type=int, default=4, choices=[4, 16])
    p_run.add_argument(
        "--schemes",
        default=None,
        help=f"comma-separated subset of {','.join(STANDARD_SCHEMES)}",
    )

    p_place = sub.add_parser("placement", help="ASCII placement map")
    p_place.add_argument("app", choices=MANUAL_APPS)
    p_place.add_argument("--scale", default="ref", choices=["train", "ref"])
    p_place.add_argument("--seed", type=int, default=0)

    p_wt = sub.add_parser("whirltool", help="train + show the clustering")
    p_wt.add_argument("app", choices=ALL_APPS)
    p_wt.add_argument("--pools", type=int, default=3)
    p_wt.add_argument("--scale", default="train", choices=["train", "ref"])
    p_wt.add_argument("--seed", type=int, default=0)

    p_par = sub.add_parser("parallel", help="run a Fig-13 parallel app")
    p_par.add_argument(
        "app",
        choices=[
            "mergesort",
            "fft",
            "delaunay",
            "pagerank",
            "connectedComponents",
            "triangleCounting",
        ],
    )
    p_par.add_argument("--scale", default="ref", choices=["train", "ref"])
    p_par.add_argument("--seed", type=int, default=0)

    sub.add_parser("config", help="print the Table-3 configuration")

    p_camp = sub.add_parser(
        "campaign", help="submit/resume/inspect an experiment grid"
    )
    p_camp.add_argument(
        "action",
        choices=["submit", "resume", "status", "export", "mixes", "quarantine"],
        help=(
            "submit or resume a grid, report completion, export a table, "
            "run a multiprogrammed-mix grid (Fig 22 at any scale), or "
            "manage quarantined poison jobs"
        ),
    )
    p_camp.add_argument(
        "qaction",
        nargs="?",
        default="list",
        choices=["list", "retry", "clear"],
        help="quarantine: inspect, re-execute, or drop parked jobs",
    )
    p_camp.add_argument(
        "--spec", default=None, help="campaign spec (JSON file)"
    )
    p_camp.add_argument(
        "--store",
        default="campaign.jsonl",
        help="result store path (JSON lines, append-only)",
    )
    p_camp.add_argument(
        "--workers", type=int, default=1, help="process-pool size"
    )
    p_camp.add_argument(
        "--max-attempts",
        type=int,
        default=4,
        help="tries per job before it is quarantined (1 = no retry)",
    )
    p_camp.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help=(
            "per-attempt wall-clock cap in seconds; an overrunning "
            "worker is killed and the attempt retried (needs --workers > 1)"
        ),
    )
    p_camp.add_argument(
        "--retry-base-delay",
        type=float,
        default=0.05,
        help="seconds before the first retry (doubles per attempt)",
    )
    p_camp.add_argument(
        "--retry-seed",
        type=int,
        default=0,
        help="seed for the deterministic retry-backoff jitter",
    )
    p_camp.add_argument(
        "--metric",
        default="cycles",
        help="result field for `export` (e.g. cycles, ipc)",
    )
    p_camp.add_argument(
        "--cores",
        default="4",
        help="mixes: comma-separated chip sizes (4 and/or 16)",
    )
    p_camp.add_argument(
        "--mixes", type=int, default=8, help="mixes: random mixes per size"
    )
    p_camp.add_argument(
        "--mix-schemes",
        default="Jigsaw,Whirlpool,S-NUCA/LRU",
        help="mixes: comma-separated schemes",
    )
    p_camp.add_argument(
        "--baseline",
        default=None,
        help="mixes: weighted-speedup baseline (default: first scheme)",
    )
    p_camp.add_argument(
        "--scale", default="train", choices=["train", "ref"],
        help="mixes: workload input scale",
    )
    p_camp.add_argument(
        "--base-seed", type=int, default=1000, help="mixes: first mix seed"
    )
    p_camp.add_argument(
        "--intervals", type=int, default=8,
        help="mixes: reconfiguration intervals per run",
    )

    p_ing = sub.add_parser(
        "ingest", help="convert/inspect/validate/register external traces"
    )
    p_ing.add_argument(
        "action",
        choices=["convert", "inspect", "validate", "register", "watch"],
        help=(
            "convert a trace between formats (OUT ending in .rtrace runs "
            "the full pipeline), summarize one, check its integrity, "
            "register it as a named workload, or follow a live text "
            "trace and emit pool assignments per epoch"
        ),
    )
    p_ing.add_argument(
        "path",
        help="input trace file ('-' reads stdin for watch/validate)",
    )
    p_ing.add_argument(
        "out", nargs="?", default=None, help="convert: destination file"
    )
    p_ing.add_argument(
        "--format",
        default=None,
        help="input format (default: detect from extension/content)",
    )
    p_ing.add_argument(
        "--line-bytes", type=int, default=None,
        help="cache-line size (default: the source's, usually 64)",
    )
    p_ing.add_argument(
        "--instructions", type=float, default=None,
        help="total instruction count of the capture",
    )
    p_ing.add_argument(
        "--apki", type=float, default=None,
        help="derive instructions from accesses-per-kilo-instruction",
    )
    p_ing.add_argument(
        "--alloc-log", default=None,
        help="allocation log (JSONL) for address -> region attribution",
    )
    p_ing.add_argument(
        "--dedup", action="store_true",
        help="collapse consecutive same-line accesses per region "
        "(private-cache model, like synthesized workloads)",
    )
    p_ing.add_argument(
        "--chunk-records", type=int, default=1 << 21,
        help="streaming chunk size in records (memory bound)",
    )
    p_ing.add_argument(
        "--name", default=None,
        help="register: workload name (default: file stem)",
    )
    p_ing.add_argument(
        "--trace-dir", default=None,
        help=(
            "register: legacy destination directory (default: "
            "$REPRO_TRACE_DIR, else the artifact store)"
        ),
    )
    p_ing.add_argument(
        "--epoch-records", type=int, default=1 << 16,
        help="watch: records per profiling epoch",
    )
    p_ing.add_argument(
        "--pools", type=int, default=3,
        help="watch: number of pools to assign callpoints to",
    )
    p_ing.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="watch: seconds between end-of-file re-reads",
    )
    p_ing.add_argument(
        "--idle-timeout", type=float, default=None,
        help=(
            "watch: stop after this many idle seconds (default: follow "
            "until interrupted; 0 reads once to the current end)"
        ),
    )

    p_store = sub.add_parser(
        "store", help="artifact-store maintenance (profiles + traces)"
    )
    p_store.add_argument(
        "action",
        choices=["status", "gc", "verify", "compact"],
        help=(
            "summarize the store, remove garbage (temps, orphaned "
            "provenance, dead names), check payload integrity, or "
            "import legacy piles and rewrite payloads mappable"
        ),
    )
    p_store.add_argument(
        "--root",
        default=None,
        help="store root (default: $REPRO_STORE_DIR, else the checkout's "
        ".repro_store)",
    )
    p_store.add_argument(
        "--dry-run", action="store_true",
        help="gc/compact: report what would change without touching disk",
    )

    p_lint = sub.add_parser(
        "lint", help="static checks of the repo's pinned invariants"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src tests benchmarks)",
    )
    p_lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p_lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json is the stable CI artifact schema)",
    )
    p_lint.add_argument(
        "--explain",
        metavar="RULE-ID",
        default=None,
        help="print a rule's rationale and exit",
    )
    p_lint.add_argument(
        "--root",
        default=None,
        help="repository root (default: nearest ancestor with "
        "pyproject.toml)",
    )
    p_lint.add_argument(
        "--manifest",
        default=None,
        help="alternate invariants.toml (default: the packaged manifest)",
    )

    p_obs = sub.add_parser(
        "obs", help="inspect structured-tracing event logs"
    )
    p_obs.add_argument(
        "action",
        choices=["report"],
        help="report: per-job wall-clock breakdown, retry storms, "
        "cache hit ratios, slowest spans",
    )
    p_obs.add_argument(
        "--events",
        default=None,
        help="events log to read (default: the sidecar of --store)",
    )
    p_obs.add_argument(
        "--store",
        default="campaign.jsonl",
        help="result store whose .events.jsonl sidecar to read "
        "(default: campaign.jsonl)",
    )
    p_obs.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json is the full rollup object)",
    )
    p_obs.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows per text section (default: 10)",
    )
    return parser


_COMMANDS = {
    "list-apps": _cmd_list_apps,
    "run": _cmd_run,
    "placement": _cmd_placement,
    "whirltool": _cmd_whirltool,
    "parallel": _cmd_parallel,
    "config": _cmd_config,
    "campaign": _cmd_campaign,
    "ingest": _cmd_ingest,
    "store": _cmd_store,
    "lint": _cmd_lint,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLIs.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

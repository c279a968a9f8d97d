"""The content-addressed artifact store.

One store unifies the repo's fingerprint-keyed artifacts — the profile
cache (``.profile_cache/``), the registered-trace directory
(``$REPRO_TRACE_DIR``) and trained WhirlTool clusterings — behind a
single root with typed artifact kinds, provenance records, atomic
publishes, and maintenance commands (``python -m repro store
gc|verify|compact|status``).

Layout::

    <root>/profiles/ab/<fingerprint>.npz     profile payload (uncompressed
                                             npz, so reads can be mapped)
    <root>/profiles/ab/<fingerprint>.json    provenance record
    <root>/traces/ab/<fingerprint>.rtrace    native trace archive, keyed by
                                             its content fingerprint
    <root>/traces/ab/<fingerprint>.json      provenance record
    <root>/clusterings/ab/<fingerprint>.npz  trained WhirlTool merge tree
                                             (uncompressed npz)
    <root>/clusterings/ab/<fingerprint>.json provenance record
    <root>/names/<name>.json                 workload-name -> fingerprint
    <root>/tmp/                              staging area (gc cleans it)

Every payload lands via same-directory temp + ``os.replace``, so
concurrent campaign workers never observe a half-written artifact, and
a crash leaves at most a dot-prefixed temp that ``gc`` removes.

The root resolves from ``$REPRO_STORE_DIR``; without it, a source
checkout keeps artifacts in ``<repo>/.repro_store`` while an installed
package falls back to the per-user cache directory — unlike the legacy
``parents[3]``-relative cache default, which resolved into the install
prefix (e.g. next to ``site-packages``) and broke installed packages.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Callable, Iterator

from repro import obs
from repro.version import __version__

__all__ = [
    "ENV_STORE",
    "KINDS",
    "ArtifactStore",
    "default_root",
    "provenance_record",
]

#: Environment variable naming the store root.
ENV_STORE = "REPRO_STORE_DIR"

#: Artifact kinds and their payload extensions.
KINDS = {"profiles": ".npz", "traces": ".rtrace", "clusterings": ".npz"}


def default_root() -> Path:
    """Resolve the store root (see module docstring)."""
    env = os.environ.get(ENV_STORE)
    if env:
        return Path(env)
    repo = Path(__file__).resolve().parents[3]
    if (repo / "pyproject.toml").exists():
        return repo / ".repro_store"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "store"


def provenance_record(
    kind: str, fingerprint: str, builder: str, inputs: dict | None = None
) -> dict:
    """A provenance record: what built the artifact, from which inputs."""
    return {
        "kind": kind,
        "fingerprint": fingerprint,
        "builder": builder,
        "inputs": inputs or {},
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tool": f"repro {__version__}",
    }


class ArtifactStore:
    """Content-addressed artifacts under one root, by kind + fingerprint."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_root()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path(self, kind: str, fingerprint: str) -> Path:
        """Where ``kind``/``fingerprint``'s payload lives (may not exist)."""
        ext = self._ext(kind)
        return self.root / kind / fingerprint[:2] / f"{fingerprint}{ext}"

    def meta_path(self, kind: str, fingerprint: str) -> Path:
        """Where the provenance sidecar lives."""
        return self.path(kind, fingerprint).with_suffix(".json")

    def _ext(self, kind: str) -> str:
        try:
            return KINDS[kind]
        except KeyError:
            raise ValueError(
                f"unknown artifact kind {kind!r}; known: {', '.join(KINDS)}"
            ) from None

    def get(self, kind: str, fingerprint: str) -> Path | None:
        """The payload path if the artifact exists, else None."""
        path = self.path(kind, fingerprint)
        return path if path.exists() else None

    def provenance(self, kind: str, fingerprint: str) -> dict | None:
        """The artifact's provenance record, or None."""
        meta = self.meta_path(kind, fingerprint)
        try:
            return json.loads(meta.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        kind: str,
        fingerprint: str,
        write: Callable[[Path], None],
        provenance: dict | None = None,
    ) -> Path:
        """Atomically publish a payload produced by ``write(tmp_path)``.

        ``write`` receives a temp path in the destination directory; the
        finished file is renamed into place, so readers never see a
        partial payload.  The provenance sidecar lands after the payload
        (an artifact is usable the instant it exists).
        """
        dst = self.path(kind, fingerprint)
        dst.parent.mkdir(parents=True, exist_ok=True)
        tmp = dst.parent / f".{dst.name}.{os.getpid()}.tmp"
        try:
            write(tmp)
            os.replace(tmp, dst)
        finally:
            tmp.unlink(missing_ok=True)
        if provenance is not None:
            self._write_json(self.meta_path(kind, fingerprint), provenance)
        return dst

    def publish_file(
        self,
        kind: str,
        fingerprint: str,
        src: str | Path,
        provenance: dict | None = None,
    ) -> Path:
        """Atomically publish an existing file as an artifact (copies it)."""
        return self.publish(
            kind,
            fingerprint,
            lambda tmp: shutil.copyfile(src, tmp),
            provenance=provenance,
        )

    def _write_json(self, path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
        try:
            tmp.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Name index (workload name -> trace fingerprint)
    # ------------------------------------------------------------------
    def bind_name(
        self, name: str, kind: str, fingerprint: str
    ) -> Path:
        """Bind a workload name to an artifact (atomic; last bind wins)."""
        self._ext(kind)
        path = self.root / "names" / f"{name}.json"
        self._write_json(
            path,
            {
                "name": name,
                "kind": kind,
                "fingerprint": fingerprint,
                "bound": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            },
        )
        return path

    def resolve_name(self, name: str) -> dict | None:
        """The name's binding record, or None (corrupt bindings read as None)."""
        path = self.root / "names" / f"{name}.json"
        try:
            binding = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(binding, dict) or "fingerprint" not in binding:
            return None
        return binding

    def names(self) -> dict[str, dict]:
        """All resolvable name bindings (corrupt entries skipped)."""
        out: dict[str, dict] = {}
        names_dir = self.root / "names"
        if not names_dir.is_dir():
            return out
        for path in sorted(names_dir.glob("*.json")):
            if path.name.startswith("."):
                continue
            binding = self.resolve_name(path.stem)
            if binding is not None:
                out[path.stem] = binding
        return out

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def artifacts(
        self, kind: str | None = None
    ) -> Iterator[tuple[str, str, Path]]:
        """Yield ``(kind, fingerprint, payload_path)`` for stored payloads."""
        kinds = [kind] if kind is not None else list(KINDS)
        for k in kinds:
            ext = self._ext(k)
            kind_dir = self.root / k
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob(f"*/*{ext}")):
                if path.name.startswith("."):
                    continue
                yield k, path.stem, path

    def status(self) -> dict:
        """Counts and byte totals per kind, plus the name-index size."""
        report: dict = {"root": str(self.root), "kinds": {}}
        for k in KINDS:
            n = 0
            total = 0
            for __, __, path in self.artifacts(k):
                n += 1
                total += path.stat().st_size
            report["kinds"][k] = {"artifacts": n, "bytes": total}
        report["names"] = len(self.names())
        return report

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def gc(self, dry_run: bool = False) -> dict:
        """Remove garbage: staging temps, orphaned sidecars, dead names.

        Conservative by design — payloads are never deleted (an
        unprovenanced payload is still a valid artifact; it is reported,
        not reclaimed).  Returns a report of what was (or would be)
        removed.
        """
        with obs.span("store.gc", dry_run=dry_run) as sp:
            report = self._gc(dry_run)
            sp.note(
                removed=len(report["removed"]),
                reclaimed_bytes=report["reclaimed_bytes"],
            )
            return report

    def _gc(self, dry_run: bool) -> dict:
        removed: list[str] = []
        reclaimed = 0
        unprovenanced: list[str] = []
        if not self.root.is_dir():
            return {
                "removed": removed,
                "reclaimed_bytes": 0,
                "unprovenanced": unprovenanced,
                "dry_run": dry_run,
            }

        def _remove(path: Path) -> None:
            nonlocal reclaimed
            try:
                reclaimed += path.stat().st_size
            except OSError:
                pass
            removed.append(str(path.relative_to(self.root)))
            if not dry_run:
                path.unlink(missing_ok=True)

        # Staging temps anywhere under the root (crash leftovers).
        for tmp in sorted(self.root.rglob(".*.tmp")):
            if tmp.is_file():
                _remove(tmp)
        staging = self.root / "tmp"
        if staging.is_dir():
            for tmp in sorted(staging.iterdir()):
                if tmp.is_file():
                    _remove(tmp)
        # Orphaned sidecars: provenance whose payload is gone.
        for kind in KINDS:
            kind_dir = self.root / kind
            if not kind_dir.is_dir():
                continue
            for meta in sorted(kind_dir.glob("*/*.json")):
                if meta.name.startswith("."):
                    continue
                if not self.get(kind, meta.stem):
                    _remove(meta)
            for k, fingerprint, __ in self.artifacts(kind):
                if not self.meta_path(k, fingerprint).exists():
                    unprovenanced.append(f"{k}/{fingerprint}")
        # Name bindings whose target artifact is gone.
        for name, binding in self.names().items():
            kind = binding.get("kind", "traces")
            if kind not in KINDS or not self.get(
                kind, binding["fingerprint"]
            ):
                _remove(self.root / "names" / f"{name}.json")
        return {
            "removed": removed,
            "reclaimed_bytes": reclaimed,
            "unprovenanced": unprovenanced,
            "dry_run": dry_run,
        }

    def verify(self) -> dict:
        """Integrity pass: every payload parses and matches its key.

        Profiles must load as a current-version curve payload and
        clusterings as a current-version, self-consistent merge tree;
        traces must re-hash to the fingerprint they are filed under;
        name bindings must point at existing artifacts.  Returns ``{"ok":
        [...], "bad": {artifact: reason}}``.
        """
        with obs.span("store.verify") as sp:
            result = self._verify()
            sp.note(ok=len(result["ok"]), bad=len(result["bad"]))
            return result

    def _verify(self) -> dict:
        ok: list[str] = []
        bad: dict[str, str] = {}
        for kind, fingerprint, path in self.artifacts():
            label = f"{kind}/{fingerprint}"
            if kind == "profiles":
                from repro.store.profiles import verify_profile_payload

                error = verify_profile_payload(path)
            elif kind == "clusterings":
                from repro.store.clusterings import verify_clustering_payload

                error = verify_clustering_payload(path)
            elif kind == "traces":
                error = _verify_trace_payload(path, fingerprint)
            else:
                raise AssertionError(f"no verifier for kind {kind!r}")
            if error is None:
                ok.append(label)
            else:
                bad[label] = error
        for name, binding in self.names().items():
            kind = binding.get("kind", "traces")
            if kind not in KINDS or not self.get(
                kind, binding["fingerprint"]
            ):
                bad[f"names/{name}"] = "binding targets a missing artifact"
        return {"ok": ok, "bad": bad}

    def compact(self, dry_run: bool = False) -> dict:
        """Rewrite payloads into the mappable (uncompressed) layout.

        Legacy imports arrive deflate-compressed; compacting rewrites
        them member-for-member as ``ZIP_STORED`` so zero-copy readers
        apply.  Content fingerprints are invariant to zip compression,
        so keys and provenance stay valid.  Returns the rewritten list.
        """
        with obs.span("store.compact", dry_run=dry_run) as sp:
            report = self._compact(dry_run)
            sp.note(rewritten=len(report["rewritten"]))
            return report

    def _compact(self, dry_run: bool) -> dict:
        import zipfile

        rewritten: list[str] = []
        for kind, fingerprint, path in self.artifacts():
            with zipfile.ZipFile(path) as zf:
                infos = zf.infolist()
                if all(
                    i.compress_type == zipfile.ZIP_STORED for i in infos
                ):
                    continue
                members = [(i.filename, zf.read(i.filename)) for i in infos]
            rewritten.append(f"{kind}/{fingerprint}")
            if dry_run:
                continue

            def _rewrite(tmp: Path) -> None:
                with zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED) as out:
                    for member_name, payload in members:
                        out.writestr(member_name, payload)

            self.publish(kind, fingerprint, _rewrite)
        return {"rewritten": rewritten, "dry_run": dry_run}


def _verify_trace_payload(path: Path, fingerprint: str) -> str | None:
    from repro.ingest import RTraceSource

    try:
        source = RTraceSource(path)
    except ValueError as exc:
        return str(exc)
    if source.fingerprint != fingerprint:
        return (
            f"header fingerprint {source.fingerprint} does not match "
            f"storage key {fingerprint}"
        )
    if not source.verify_fingerprint():
        return "content does not match its fingerprint"
    return None

"""Integrity scanner and self-healing repair for the on-disk stores.

``repro fsck`` is the operational counterpart of the checksum layer: the
stores *detect* corruption at read time (and shrug it off as a miss or a
quarantined shard); this module finds it proactively, gets it out of the
way, and — for the artifact store — undoes it.

One scan walks a store or index directory and classifies every entry:

``ok``
    Readable, and its recorded checksum (entry ``payload_sha256``, model
    sidecar, or index-manifest ``sha256`` field) matches.  Store entries
    from pre-checksum formats that read fine are ``ok`` with
    ``"verified": false`` — unverifiable is not wrong.  Index files have
    no such grace: every index writer records a checksum.
``corrupt``
    Unreadable, structurally invalid, mislocated, checksum-mismatched, or
    (index files) missing their recorded checksum.
``orphaned-tmp``
    Residue of a crashed or fault-injected writer: a ``*.tmp`` /
    ``*.tmp.npz`` file nobody will ever rename into place.

With ``quarantine=True`` corrupt entries are moved to a ``quarantine/``
subdirectory (suffixed ``.quarantined`` so no store glob ever counts
them) and orphaned temps are deleted.  With ``repair=True`` (implies
quarantine) corrupt *artifact* entries are re-derived through the
content-addressed pipeline: the store's ``keys.jsonl`` journal maps the
entry's digest back to its :class:`~repro.artifacts.ArtifactKey`, and a
generator-spec ``source_id`` (``gen:<seed>:<independent>:<genfp>``)
regenerates the identical source text, so the recompiled entry is
byte-identical to the lost one (the pipeline and ``.npz`` serialization
are deterministic; ``benchmarks/bench_faults.py`` gates exactly this
round trip).  Model checkpoints and index shards are not re-derivable
from a spec — for those, quarantine plus a retrain/rebuild is the fix,
and degraded-mode serving (see :mod:`repro.index.sharded`) covers the
gap.

Everything here works without a trained model: index scans validate
files against the manifest, not against a checkpoint.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.artifacts.store import (
    _META_KEY,
    JOURNAL_NAME,
    READ_ERRORS,
    ArtifactKey,
    ArtifactStore,
    payload_sha256,
)
from repro.exec.store import ModelStore
from repro.index.sharded import (
    MANIFEST_NAME,
    ShardCorruption,
    checked_sha256,
    read_manifest,
)
from repro.pipeline.staged import PIPELINE_VERSION, StageFailure
from repro.utils.fsio import find_orphan_tmps

PathLike = Union[str, Path]

QUARANTINE_DIR = "quarantine"
QUARANTINE_SUFFIX = ".quarantined"

KINDS = ("auto", "artifacts", "models", "index")

#: Report statuses, in severity order.
STATUS_OK = "ok"
STATUS_CORRUPT = "corrupt"
STATUS_ORPHAN = "orphaned-tmp"


def detect_kind(root: PathLike) -> str:
    """Which store flavor lives at ``root`` (raises when undecidable)."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"{root} is not a directory (nothing to fsck)")
    if (root / MANIFEST_NAME).exists():
        return "index"
    if (root / JOURNAL_NAME).exists():
        return "artifacts"
    for path in root.glob("*/*.npz"):
        if path.name.startswith(".") or QUARANTINE_DIR in path.parts:
            continue
        # Artifact entries are named by a 64-hex sha256 digest; model
        # checkpoints by a short experiment fingerprint.
        stem = path.name[: -len(".npz")]
        if len(stem) == 64 and all(c in "0123456789abcdef" for c in stem):
            return "artifacts"
        return "models"
    raise ValueError(
        f"cannot tell what {root} is: no index manifest, no key journal, "
        "and no entries to inspect — pass --kind explicitly"
    )


def _quarantine(root: Path, path: Path) -> str:
    """Move one corrupt file out of service; returns the destination."""
    dest_dir = root / QUARANTINE_DIR
    dest_dir.mkdir(parents=True, exist_ok=True)
    dest = dest_dir / (path.name + QUARANTINE_SUFFIX)
    os.replace(path, dest)
    return str(dest.relative_to(root))


def _sweep_tmps(root: Path, report: dict, act: bool) -> None:
    """Classify (and with ``act``, delete) every orphaned temp file."""
    for tmp in find_orphan_tmps(root, max_age_seconds=0.0):
        if QUARANTINE_DIR in tmp.parts:
            continue
        entry = {
            "file": str(tmp.relative_to(root)),
            "status": STATUS_ORPHAN,
            "detail": "writer residue (crashed or torn replace)",
        }
        if act:
            try:
                tmp.unlink()
                entry["action"] = "deleted"
            except OSError as exc:  # racing writer cleanup; report, move on
                entry["action"] = f"delete failed: {exc}"
        report["entries"].append(entry)


def _new_report(root: Path, kind: str) -> dict:
    return {"path": str(root), "kind": kind, "entries": []}


def _finalize(report: dict) -> dict:
    counts: Dict[str, int] = {STATUS_OK: 0, STATUS_CORRUPT: 0, STATUS_ORPHAN: 0}
    actions: Dict[str, int] = {}
    for entry in report["entries"]:
        counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        action = entry.get("action")
        if action:
            actions[action.split(":")[0]] = actions.get(action.split(":")[0], 0) + 1
    report["counts"] = counts
    report["actions"] = actions
    report["clean"] = all(
        e["status"] == STATUS_OK or e.get("action") in ("repaired", "deleted")
        for e in report["entries"]
    )
    return report


# ----------------------------------------------------------- artifacts
def _check_artifact_entry(path: Path) -> dict:
    """Classify one artifact-store ``.npz`` entry."""
    try:
        with np.load(str(path)) as archive:
            meta = json.loads(
                bytes(np.asarray(archive[_META_KEY]).tobytes()).decode("utf-8")
            )
            key_fields = meta.get("key")
            if key_fields is None:
                return {"status": STATUS_CORRUPT, "detail": "entry has no key metadata"}
            digest = ArtifactKey(**key_fields).digest
            if digest + ".npz" != path.name:
                return {
                    "status": STATUS_CORRUPT,
                    "detail": f"entry is mislocated: key digests to {digest[:12]}…",
                }
            recorded = meta.get("payload_sha256")
            if recorded is None:
                return {"status": STATUS_OK, "verified": False}
            actual = payload_sha256({name: archive[name] for name in archive.files})
            if actual != recorded:
                return {
                    "status": STATUS_CORRUPT,
                    "detail": (
                        f"payload checksum mismatch (recorded {recorded[:12]}…, "
                        f"actual {actual[:12]}…)"
                    ),
                }
            return {"status": STATUS_OK, "verified": True}
    except READ_ERRORS as exc:
        return {"status": STATUS_CORRUPT, "detail": f"unreadable: {exc}"}


def _rederive_artifact(store: ArtifactStore, key: ArtifactKey) -> Optional[str]:
    """Rebuild one artifact entry through the pipeline; None on success,
    else the reason it cannot be re-derived."""
    if key.version != PIPELINE_VERSION:
        return (
            f"entry was built by pipeline {key.version!r}; the current "
            f"{PIPELINE_VERSION!r} would not reproduce it"
        )
    parts = key.source_id.split(":")
    if len(parts) != 4 or parts[0] != "gen":
        return (
            f"source_id {key.source_id!r} is not a generator spec; the "
            "source text is not re-derivable"
        )
    # Imported here: fsck of models/indexes must not pay for (or require)
    # the generation + pipeline stack.
    from repro.data.corpus import _generator_fingerprint
    from repro.lang.generator import SolutionGenerator
    from repro.pipeline.staged import CompilationPipeline

    seed, independent, genfp = int(parts[1]), bool(int(parts[2])), parts[3]
    if genfp != _generator_fingerprint():
        return (
            f"entry was generated by lang fingerprint {genfp!r}; the current "
            "generator would produce different source text"
        )
    generator = SolutionGenerator(seed=seed, independent=independent)
    sf = generator.generate(key.task, key.variant, key.language)
    pipeline = CompilationPipeline(
        store=store, dataflow_edges=key.graph_features == "dataflow"
    )
    try:
        pipeline.compile(
            sf.text,
            key.language,
            name=f"{key.task}/v{key.variant}.{key.language}",
            opt_level=key.opt_level,
            compiler=key.compiler,
            program=sf.program,
            cache_key=key,
            cache_lookup=False,  # the corrupt entry is the reason we are here
            transforms=key.transforms,
        )
    except StageFailure as failure:
        return f"re-derivation failed at stage {failure.stage!r}"
    return None


def fsck_artifact_store(
    root: PathLike, quarantine: bool = False, repair: bool = False
) -> dict:
    """Scan (and optionally heal) one artifact store; returns the report."""
    root = Path(root)
    report = _new_report(root, "artifacts")
    quarantine = quarantine or repair
    journal = None
    store = None
    for path in sorted(root.glob("*/*.npz")):
        if path.name.startswith(".") or QUARANTINE_DIR in path.parts:
            continue
        entry = _check_artifact_entry(path)
        entry["file"] = str(path.relative_to(root))
        report["entries"].append(entry)
        if entry["status"] != STATUS_CORRUPT or not quarantine:
            continue
        entry["action"] = "quarantined"
        entry["quarantined_to"] = _quarantine(root, path)
        if not repair:
            continue
        if store is None:
            # sweep_age -1 so fsck's own temp accounting below stays exact
            store = ArtifactStore(root, sweep_age_seconds=float("inf"))
            journal = store.journal_keys()
        digest = path.name[: -len(".npz")]
        key = journal.get(digest)
        if key is None:
            entry["action"] = "unrepairable"
            entry["detail"] = (
                (entry.get("detail") or "")
                + "; digest not in the key journal, cannot re-derive"
            ).lstrip("; ")
            continue
        reason = _rederive_artifact(store, key)
        if reason is None:
            entry["action"] = "repaired"
        else:
            entry["action"] = "unrepairable"
            entry["detail"] = ((entry.get("detail") or "") + "; " + reason).lstrip("; ")
    _sweep_tmps(root, report, act=quarantine)
    return _finalize(report)


# -------------------------------------------------------------- models
def fsck_model_store(root: PathLike, quarantine: bool = False, repair: bool = False) -> dict:
    """Scan one model store.  Corrupt checkpoints are quarantined, never
    repaired — a trained model is not re-derivable from its fingerprint;
    retrain via ``repro experiment``."""
    root = Path(root)
    report = _new_report(root, "models")
    quarantine = quarantine or repair
    for path in sorted(root.glob("*/*.npz")):
        if path.name.startswith(".") or QUARANTINE_DIR in path.parts:
            continue
        entry: dict = {"file": str(path.relative_to(root))}
        try:
            verified = ModelStore.verify_checksum(path)
            meta = ModelStore.read_meta(path)
            if meta.get("fingerprint", path.name[: -len(".npz")]) != path.name[: -len(".npz")]:
                raise ValueError(
                    f"entry is mislocated: metadata records fingerprint "
                    f"{meta.get('fingerprint')!r}"
                )
            entry.update(status=STATUS_OK, verified=bool(verified))
        except READ_ERRORS as exc:
            entry.update(status=STATUS_CORRUPT, detail=str(exc))
            if quarantine:
                entry["action"] = "quarantined"
                entry["quarantined_to"] = _quarantine(root, path)
                sidecar = ModelStore.checksum_path(path)
                if sidecar.exists():
                    _quarantine(root, sidecar)
                if repair:
                    entry["action"] = "unrepairable"
                    entry["detail"] += (
                        "; checkpoints are not re-derivable — retrain via "
                        "`repro experiment`"
                    )
        report["entries"].append(entry)
    _sweep_tmps(root, report, act=quarantine)
    return _finalize(report)


# --------------------------------------------------------------- index
def fsck_index(root: PathLike, quarantine: bool = False, repair: bool = False) -> dict:
    """Scan one sharded index directory against its own manifest.

    Corrupt shard files are quarantined (the manifest keeps its entry:
    global positions must not silently renumber) — a degraded-mode open
    then serves the survivors, and rebuilding the index is the repair.
    """
    root = Path(root)
    report = _new_report(root, "index")
    quarantine = quarantine or repair
    try:
        manifest = read_manifest(root)
    except READ_ERRORS as exc:
        report["entries"].append(
            {
                "file": MANIFEST_NAME,
                "status": STATUS_CORRUPT,
                "detail": f"manifest unreadable: {exc}; the index must be rebuilt",
            }
        )
        _sweep_tmps(root, report, act=quarantine)
        return _finalize(report)
    report["entries"].append({"file": MANIFEST_NAME, "status": STATUS_OK, "verified": True})
    payload = manifest.get("quantizer")
    if payload is not None:
        from repro.index.quantizer import CoarseQuantizer

        entry = {"file": f"{MANIFEST_NAME}#quantizer"}
        try:
            CoarseQuantizer.from_manifest(payload)
            entry.update(status=STATUS_OK, verified=True)
        except (ValueError, KeyError, TypeError) as exc:
            # In-manifest payload: nothing to move; degraded serving falls
            # back to the exact path, retraining the quantizer repairs it.
            entry.update(status=STATUS_CORRUPT, detail=str(exc))
        report["entries"].append(entry)
    for shard in manifest.get("shards", []):
        checks = [("file", "sha256")]
        if shard.get("meta"):
            checks.append(("meta", "meta_sha256"))
        if shard.get("cells"):
            checks.append(("cells", "cells_sha256"))
        for name_field, sha_field in checks:
            path = root / shard[name_field]
            entry = {"file": shard[name_field]}
            try:
                checked_sha256(path, shard.get(sha_field))
            except ShardCorruption as exc:
                entry.update(status=STATUS_CORRUPT, detail=str(exc))
                if quarantine and path.exists():
                    entry["action"] = "quarantined"
                    entry["quarantined_to"] = _quarantine(root, path)
                if repair:
                    entry["action"] = "unrepairable"
                    entry["detail"] += (
                        "; shards are not re-derivable — rebuild the index "
                        "(degraded-mode serving covers the gap)"
                    )
            else:
                entry.update(status=STATUS_OK, verified=True)
            report["entries"].append(entry)
    _sweep_tmps(root, report, act=quarantine)
    return _finalize(report)


# ----------------------------------------------------------- dispatch
def fsck(
    path: PathLike,
    kind: str = "auto",
    quarantine: bool = False,
    repair: bool = False,
) -> dict:
    """Scan (and optionally quarantine/repair) whatever lives at ``path``."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "auto":
        kind = detect_kind(path)
    scan = {
        "artifacts": fsck_artifact_store,
        "models": fsck_model_store,
        "index": fsck_index,
    }[kind]
    return scan(path, quarantine=quarantine, repair=repair)

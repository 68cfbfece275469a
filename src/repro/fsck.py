"""Integrity scanner and self-healing repair for the on-disk stores.

``repro fsck`` is the operational counterpart of the checksum layer: the
stores *detect* corruption at read time (and shrug it off as a miss or a
quarantined shard); this module finds it proactively, gets it out of the
way, and — for the artifact store — undoes it.

One scan walks a store or index directory and classifies every entry:

``ok``
    Readable, and its recorded checksum matches: an artifact entry's or
    model checkpoint's ``payload_sha256`` (the one entry format of
    :mod:`repro.utils.fsio`, checked by one entry checker for both stores),
    or an index file's manifest ``sha256`` field.
``corrupt``
    Unreadable, structurally invalid, mislocated, checksum-mismatched, or
    missing its recorded checksum.  A store entry from an older format
    without ``payload_sha256`` is reported as "no recorded checksum (older
    format); rebuild/retrain": it cannot be told from a damaged one.
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

import os
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.artifacts.store import JOURNAL_NAME, ArtifactKey, ArtifactStore
from repro.index.sharded import (
    MANIFEST_NAME,
    ShardCorruption,
    checked_sha256,
    read_manifest,
)
from repro.pipeline.staged import PIPELINE_VERSION, StageFailure
from repro.utils.fsio import (
    READ_ERRORS,
    entry_meta,
    entry_paths,
    find_orphan_tmps,
    read_verified_meta,
)

PathLike = Union[str, Path]

QUARANTINE_DIR = "quarantine"
QUARANTINE_SUFFIX = ".quarantined"

KINDS = ("auto", "artifacts", "models", "index")

#: Report statuses, in severity order.
STATUS_OK = "ok"
STATUS_CORRUPT = "corrupt"
STATUS_ORPHAN = "orphaned-tmp"


#: Per store kind: the metadata field every entry of that kind carries.
_ENTRY_FIELD = {"artifacts": "key", "models": "experiment"}


def _entry_name(kind: str, meta: dict) -> str:
    """The address an entry's own metadata gives it (its file stem)."""
    field = _ENTRY_FIELD[kind]
    if field not in meta:
        raise ValueError(f"entry has no {field} metadata")
    if kind == "artifacts":
        return ArtifactKey(**meta["key"]).digest
    return str(meta["experiment"].get("fingerprint"))


def detect_kind(root: PathLike) -> str:
    """Which store flavor lives at ``root`` (raises when undecidable).

    A store is classified by its entries' own metadata (an artifact's
    ``key``, a checkpoint's ``experiment``), never by the shape of their
    names: both are 64-hex sha256 digests.  When no entry is readable, a
    store without a key journal is a model store — every artifact
    ``put`` appends to the journal.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"{root} is not a directory (nothing to fsck)")
    if (root / MANIFEST_NAME).exists():
        return "index"
    if (root / JOURNAL_NAME).exists():
        return "artifacts"
    entries = entry_paths(root)
    for path in entries:
        try:
            with np.load(str(path)) as archive:
                meta = entry_meta(archive)
        except READ_ERRORS:  # a damaged entry says nothing; try the next
            continue
        for kind, field in _ENTRY_FIELD.items():
            if field in meta:
                return kind
    if entries:
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


# -------------------------------------------------------------- stores
def _check_entry(path: Path, kind: str) -> dict:
    """Classify one store entry: its checksum, then its address."""
    try:
        name = _entry_name(kind, read_verified_meta(path))
    except READ_ERRORS as exc:
        return {"status": STATUS_CORRUPT, "detail": str(exc)}
    if name + ".npz" != path.name:
        return {
            "status": STATUS_CORRUPT,
            "detail": f"entry is mislocated: its metadata names {name[:12]}…",
        }
    return {"status": STATUS_OK}


def _rederive_artifact(
    store: ArtifactStore, key: Optional[ArtifactKey]
) -> Optional[str]:
    """Rebuild one artifact entry through the pipeline; None on success,
    else the reason it cannot be re-derived."""
    if key is None:
        return "digest not in the key journal, cannot re-derive"
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


def fsck_store(
    root: PathLike, kind: str, quarantine: bool = False, repair: bool = False
) -> dict:
    """Scan (and optionally heal) one artifact or model store.

    Corrupt entries are quarantined; with ``repair`` each is then
    re-derived where its kind allows (artifacts, via the key journal and
    the pipeline) and reported ``unrepairable`` otherwise.
    """
    root = Path(root)
    report = _new_report(root, kind)
    quarantine = quarantine or repair
    store = journal = None
    for path in entry_paths(root):
        entry = _check_entry(path, kind)
        entry["file"] = str(path.relative_to(root))
        report["entries"].append(entry)
        if entry["status"] != STATUS_CORRUPT or not quarantine:
            continue
        entry["action"] = "quarantined"
        entry["quarantined_to"] = _quarantine(root, path)
        if not repair:
            continue
        if kind == "models":
            reason = "checkpoints are not re-derivable — retrain via `repro experiment`"
        else:
            if store is None:
                # sweep_age inf so fsck's own temp accounting below stays exact
                store = ArtifactStore(root, sweep_age_seconds=float("inf"))
                journal = store.journal_keys()
            reason = _rederive_artifact(store, journal.get(path.stem))
        if reason is None:
            entry["action"] = "repaired"
        else:
            entry["action"] = "unrepairable"
            entry["detail"] = f"{entry['detail']}; {reason}"
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
    if kind == "index":
        return fsck_index(path, quarantine=quarantine, repair=repair)
    return fsck_store(path, kind, quarantine=quarantine, repair=repair)

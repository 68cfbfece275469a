"""Content-addressed on-disk store for compilation artifacts.

Corpus builds and benchmark sweeps re-run the identical deterministic
pipeline for the same (task, variant, language, opt level, compiler)
coordinates in every process — the compilation cost dominates cold corpus
construction.  The store persists what a completed
:class:`~repro.pipeline.CompilationResult` carries downstream — source
text, binary bytes and both program graphs (via
:mod:`repro.graphs.serialize`) — in one pickle-free ``.npz`` per entry,
addressed by a SHA-256 digest over the :class:`ArtifactKey` fields
*including the pipeline version fingerprint*: change any stage and every
old entry silently misses instead of serving stale graphs.  The two IR
modules are not stored: both are functions of what is, so warm loads hand
out lazy modules (:class:`~repro.pipeline.staged.LazyModule`) that re-run
the pipeline's own parse + lower (source text) or decompile (binary)
stages on first access.

Entries use the store format of :mod:`repro.utils.fsio` (atomic
``mkstemp`` + ``os.replace`` commit, ``payload_sha256`` recorded in each
entry's metadata), so parallel corpus builders can share one store without
locks.  Unreadable or mismatched entries are misses, never errors — but
never *silent* misses: read failures are counted separately from plain
absence (``read_errors``), so an injected or organic IO fault is
observable.  Under ``verify_reads`` an entry whose payload does not match
its checksum, or that records none (store format 1), is such a failure.
Format-2 entries still carry serialized ``source_module`` /
``decompiled_module`` members; the reader ignores them (the checksum
still covers them), so stores written before format 3 keep hitting.

Every ``put`` also appends the entry's key to a ``keys.jsonl`` journal at
the store root.  The journal is what makes ``repro fsck --repair``
possible: content addresses are one-way, so without it a corrupt entry's
coordinates — needed to re-derive the artifact through the pipeline —
would be unrecoverable.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.graphs.serialize import graph_from_arrays, graph_to_arrays
from repro.pipeline.staged import PIPELINE_VERSION, CompilationResult, lazy_views
from repro.transform import chain_id, parse_transform_chain
from repro.utils.fsio import (
    READ_ERRORS,
    EntryStore,
    entry_meta,
    verify_payload,
    write_entry,
)

PathLike = Union[str, Path]

#: Entry metadata schema: 2 added ``payload_sha256`` + the key journal;
#: 3 dropped the serialized IR modules (rebuilt lazily on read).
STORE_FORMAT_VERSION = 3

JOURNAL_NAME = "keys.jsonl"


def source_text_id(text: str) -> str:
    """Key field for ad-hoc compiles: a content hash of the source text."""
    return "sha:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


@dataclass(frozen=True)
class ArtifactKey:
    """The coordinates that fully determine one pipeline run.

    ``source_id`` identifies the source *content* — either a text hash
    (:func:`source_text_id`) or the corpus generator's ``gen:<seed>:...``
    spec, whose determinism makes the text derivable.  ``transforms``
    names the transform-chain variant that produced the artifact (the
    canonical :func:`repro.transform.chain_id` string; ``""`` is the
    clean compilation) — it is parsed and canonicalized on construction,
    so an unknown transform name or malformed intensity raises
    :class:`repro.transform.TransformError` here instead of silently
    keying an orphan cache entry nobody can ever hit again.
    ``graph_features`` names the graph-schema variant: ``""`` for the
    three structural relations, ``"dataflow"`` when the pipeline emitted
    the analysis-derived relations — graphs with different edge schemas
    must never share an entry.  ``version`` pins the pipeline
    implementation; every field participates in the digest.
    """

    task: str
    variant: int
    language: str
    opt_level: str
    compiler: str
    source_id: str
    version: str = PIPELINE_VERSION
    transforms: str = ""
    graph_features: str = ""

    def __post_init__(self):  # noqa: D105
        # Validate AND canonicalize: "deadcode" and "deadcode@1~0" are the
        # same variant and must address the same entry.
        object.__setattr__(
            self, "transforms", chain_id(parse_transform_chain(self.transforms))
        )
        if self.graph_features not in ("", "dataflow"):
            raise ValueError(
                f"unknown graph_features {self.graph_features!r}; "
                "expected '' or 'dataflow'"
            )

    @functools.cached_property
    def digest(self) -> str:
        """Content address: SHA-256 over every key field.

        Computed once per key (``put`` and ``get`` each need it, the
        journal too).  The cached value lives in the instance ``__dict__``
        only, so ``asdict``, equality and hashing still see just the fields.
        """
        payload = "\x1f".join(
            [
                self.task,
                str(self.variant),
                self.language,
                self.opt_level,
                self.compiler,
                self.source_id,
                self.version,
                self.transforms,
                self.graph_features,
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactStore(EntryStore):
    """Directory of content-addressed compilation artifacts.

    ``get``/``put`` speak :class:`CompilationResult`; ``hits``/``misses``
    count lookups for reporting (the ``corpus`` CLI and the corpus-build
    bench print them).  Layout, counters, ``get``'s miss accounting,
    ``verify_reads`` and the orphan-temp sweep come from
    :class:`~repro.utils.fsio.EntryStore`.
    """

    SITE = "artifacts"

    def path_for(self, key: ArtifactKey) -> Path:
        """Entry path: two-hex-char shard directory + full digest."""
        return self._entry_path(key.digest)

    # -------------------------------------------------------------- write
    def put(self, key: ArtifactKey, result: CompilationResult) -> Path:
        """Persist a complete result; atomic, safe under concurrent writers."""
        if not result.complete:
            raise ValueError(
                f"refusing to store incomplete result for {result.name!r} "
                f"(stages: {result.stages_completed})"
            )
        meta = {
            "key": asdict(key),
            "name": result.name,
            "language": result.language,
            "opt_level": result.opt_level,
            "compiler": result.compiler,
            "source_text": result.source_text,
            "stages_completed": list(result.stages_completed),
            "transforms": list(result.transforms),
        }
        arrays = {"binary": np.frombuffer(result.binary_bytes, dtype=np.uint8)}
        arrays.update(graph_to_arrays(result.source_graph, prefix="sg."))
        arrays.update(graph_to_arrays(result.decompiled_graph, prefix="dg."))
        meta["store_format"] = STORE_FORMAT_VERSION
        # Uncompressed on purpose: entries are small and the store's whole
        # point is load speed; zip-deflate made warm loads the bottleneck.
        path = self._commit(
            self.path_for(key), lambda fh: write_entry(fh, arrays, meta)
        )
        self._journal_append(key)
        return path

    # ------------------------------------------------------------ journal
    @property
    def journal_path(self) -> Path:
        """The append-only digest → key journal (``keys.jsonl``)."""
        return self.root / JOURNAL_NAME

    def _journal_append(self, key: ArtifactKey) -> None:
        # One O_APPEND write per line: atomic enough for concurrent
        # builders on POSIX (lines are far below PIPE_BUF); duplicate
        # lines are fine — readers keep the last occurrence per digest.
        line = json.dumps({"digest": key.digest, "key": asdict(key)}) + "\n"
        fd = os.open(
            str(self.journal_path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def journal_keys(self) -> Dict[str, ArtifactKey]:
        """Digest → :class:`ArtifactKey` for every journaled entry.

        Unparseable lines (a torn concurrent append, hand-editing) are
        skipped: the journal is a best-effort repair aid, not a source of
        truth — the entries themselves are.  Keys whose spec no longer
        parses under the current code (e.g. a retired transform name) are
        skipped the same way.
        """
        out: Dict[str, ArtifactKey] = {}
        try:
            lines = self.journal_path.read_text().splitlines()
        except FileNotFoundError:
            return out
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                out[record["digest"]] = ArtifactKey(**record["key"])
            except READ_ERRORS:
                continue
        return out

    # --------------------------------------------------------------- read
    def _load(self, path: Path, key: ArtifactKey) -> Optional[CompilationResult]:
        """Decode one entry into a :class:`CompilationResult` (modules lazy)."""
        with np.load(str(path)) as archive:
            meta = entry_meta(archive)
            if meta.get("key") != asdict(key):
                return None
            if self.verify_reads:
                verify_payload(archive, meta)
            name, language = meta["name"], meta["language"]
            binary = np.asarray(archive["binary"], dtype=np.uint8).tobytes()
            source_module, decompiled_module = lazy_views(
                name, language, meta["source_text"], binary
            )
            return CompilationResult(
                name=name,
                language=language,
                opt_level=meta["opt_level"],
                compiler=meta["compiler"],
                source_text=meta["source_text"],
                stages_completed=list(meta["stages_completed"]),
                transforms=list(meta.get("transforms", [])),
                source_module=source_module,
                decompiled_module=decompiled_module,
                binary_bytes=binary,
                source_graph=graph_from_arrays(archive, prefix="sg."),
                decompiled_graph=graph_from_arrays(archive, prefix="dg."),
                from_cache=True,
            )

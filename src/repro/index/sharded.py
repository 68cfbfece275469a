"""The embedding index: one class, in memory or on disk.

:class:`ShardedEmbeddingIndex` is the only class that holds entries and
answers queries.  It comes in two forms with one query path:

* **directory-less** — ``EmbeddingIndex(trainer)`` (bound to
  :meth:`ShardedEmbeddingIndex.in_memory`): every non-empty ``add`` /
  ``add_precomputed`` appends one resident shard and nothing is written;
* **on disk** — :meth:`~ShardedEmbeddingIndex.create` /
  :meth:`~ShardedEmbeddingIndex.open` / :meth:`~ShardedEmbeddingIndex.from_index`:
  a directory of lazily loaded shards, so corpora grow incrementally (new
  shards, merged indexes from other machines) and a long-lived retrieval
  service never pays to materialize embeddings it does not score.

Either form encodes through one :class:`~repro.index.embedding_index.QueryCache`
(``_encoder``).  A small corpus on disk is simply a one-shard index (what
``repro index build`` writes without ``--shard-size``)::

    index_dir/
      manifest.json          # schema + model fingerprint + codec + quantizer
      shard-0000.npz         # float32 codec: embeddings + __meta_json__
      shard-0001.npz
      ...
    index_dir/               # quantized codecs (int8 / fp16)
      manifest.json
      shard-0000.npy         # raw array, opened with np.load(mmap_mode="r")
      shard-0000.meta.json   # keys, metas, model fingerprint, int8 scale
      shard-0000.cells.npy   # coarse-quantizer cell ids (when trained)
      ...

Two scoring regimes share the directory layout:

* **exact** (the reference) — every entry is scored by the pair head.
  The float32 codec keeps the flat-matrix hot path, so an index sharded
  with :meth:`from_index` returns **bit-identical** scores and rankings
  to the directory-less index it came from.  Quantized codecs score
  block-by-block straight off the memory map, fanned out across shards on
  a thread pool, so resident memory is bounded by the scoring blocks —
  not the corpus.
* **ann** — a :class:`~repro.index.quantizer.CoarseQuantizer` persisted
  in the manifest assigns every entry to a cell; a query ranks the cell
  centroids with the *pair head* (so pruning agrees with the scorer),
  rescores only the entries in its ``nprobe`` best cells, and merges the
  per-shard partial top-k lists with a heap.  Recall against the exact
  path is gated by ``benchmarks/bench_index_scale.py``.

Format: ``INDEX_FORMAT_VERSION`` 3 (``sharded-embedding-index-v3``).  Every
manifest entry records the sha256 of its shard file, sidecar and cells
file, checked on load when ``verify_reads`` is on; a missing checksum
counts as corruption.  Manifests of the earlier v1/v2 formats (no
checksums) are rejected with a rebuild instruction rather than read.

Entry positions are global: ``Hit.index`` counts across shards in manifest
order, matching the directory-less index the shards came from.  An index
opened with ``degraded=True`` quarantines shards whose load raises
:class:`ShardCorruption` instead of failing the query: surviving shards
keep answering, :meth:`coverage` reports the remaining corpus fraction,
and ``Hit.index`` then counts positions within the *surviving* entry set.
"""

from __future__ import annotations

import heapq
import json
import numbers
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.graphs.programl import ProgramGraph
from repro.index.embedding_index import (
    Hit,
    QueryCache,
    graph_fingerprint,
    key_order,
    model_fingerprint,
    normalize_query_batch,
    ranked_hits,
    score_pairs_tiled,
    validate_k,
    validate_mode,
)
from repro.index.quantizer import CoarseQuantizer
from repro.nn.tensor import no_grad
from repro.utils.fsio import (
    _META_KEY,
    READ_ERRORS,
    TMP_SWEEP_AGE_SECONDS,
    commit,
    entry_meta,
    env_verify_reads as _env_verify_reads,
    sha256_file,
    sweep_orphan_tmps,
)
from repro.utils.rng import derive_rng

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
INDEX_FORMAT_VERSION = 3
_FORMAT = "sharded-embedding-index-v3"


class ShardCorruption(ValueError):
    """A shard (or its sidecar/cells file) is unreadable or inconsistent.

    Subclasses ``ValueError`` so strict callers keep their contract;
    degraded-mode indexes catch exactly this to quarantine the shard
    instead of failing the query.  Configuration mismatches (wrong model,
    wrong dim) deliberately stay plain ``ValueError`` — degrading around
    an operator error would mask it.
    """

#: Shard storage codecs: how embedding rows live on disk.
CODECS = ("float32", "int8", "fp16")

_SHARD_GLOB = "shard-*"

#: Rows dequantized per scoring block on the streamed exact path.
_SCORE_BLOCK_ROWS = 4096

#: Shard fan-out: exact streaming and ANN probing dispatch per-shard work
#: on a thread pool this wide (numpy releases the GIL in the pair head's
#: matmuls).
_FANOUT_THREADS = min(8, os.cpu_count() or 1)


class _Gathered(NamedTuple):
    """The entries of a shard selection, concatenated in global order."""

    keys: List[str]
    metas: List[dict]
    order: np.ndarray  # key_order(keys): ranked_hits' tie-break
    positions: List[int]  # the shards they came from (quarantined skipped)
    matrix: Optional[np.ndarray]  # float32 rows, once a scoring pass needs them


def _no_entries() -> _Gathered:
    return _Gathered([], [], key_order([]), [], None)


def _shard_name(position: int, codec: str = "float32") -> str:
    ext = "npz" if codec == "float32" else "npy"
    return f"shard-{position:04d}.{ext}"


def _meta_name(position: int) -> str:
    return f"shard-{position:04d}.meta.json"


def _cells_name(position: int) -> str:
    return f"shard-{position:04d}.cells.npy"


def _quantize(matrix: np.ndarray, codec: str) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Encode float32 rows for storage; returns ``(raw, int8 scale or None)``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float32))
    if codec == "fp16":
        return matrix.astype(np.float16), None
    if codec != "int8":
        raise ValueError(f"unknown codec {codec!r} (expected one of {CODECS})")
    # Symmetric per-dimension scale: the widest magnitude in each column
    # maps to ±127, zero-only columns get scale 1 so dequantization is a
    # plain multiply with no special cases.
    if matrix.shape[0]:
        scale = (np.abs(matrix).max(axis=0) / 127.0).astype(np.float32)
    else:
        scale = np.zeros(matrix.shape[1], dtype=np.float32)
    scale[scale == 0.0] = 1.0
    raw = np.clip(np.rint(matrix / scale), -127, 127).astype(np.int8)
    return raw, scale


def _dequantize(raw: np.ndarray, codec: str, scale: Optional[np.ndarray]) -> np.ndarray:
    """Decode stored rows back to a float32 ndarray (materializes mmap pages)."""
    if codec == "float32":
        return np.asarray(raw)
    if codec == "int8":
        return raw.astype(np.float32) * scale
    return np.asarray(raw, dtype=np.float32)


def checked_sha256(path: Path, recorded: Optional[str]) -> str:
    """sha256 of ``path``, raising :class:`ShardCorruption` unless it is
    ``recorded``.

    Every writer records a checksum, so a missing one is corruption (a
    hand-edited or damaged manifest), not an unverifiable file.
    """
    if not recorded:
        raise ShardCorruption(
            f"{path.name} has no recorded checksum in the manifest; rebuild the index"
        )
    try:
        actual = sha256_file(path)
    except OSError as exc:
        raise ShardCorruption(f"{path} is unreadable ({exc})") from exc
    if actual != recorded:
        raise ShardCorruption(
            f"checksum mismatch for {path.name}: manifest records "
            f"{recorded[:12]}…, file hashes to {actual[:12]}…"
        )
    return actual


def _fresh_manifest(trainer, codec: str, tag: Optional[str]) -> dict:
    """The manifest of an index with no shards yet."""
    if codec not in CODECS:
        raise ValueError(f"unknown codec {codec!r} (expected one of {CODECS})")
    if trainer.model is None:
        raise ValueError("trainer has no trained model")
    return {
        "format": _FORMAT,
        "format_version": INDEX_FORMAT_VERSION,
        "codec": codec,
        "quantizer": None,
        "dim": 2 * trainer.config.hidden_dim,
        "pair_features": trainer.config.pair_features,
        "model_sha": model_fingerprint(trainer),
        "tag": tag,
        "shards": [],
    }


def read_manifest(root: PathLike) -> dict:
    """Parse ``root``'s manifest, rejecting every format but the current one.

    The one manifest reader behind :meth:`ShardedEmbeddingIndex.open` and
    ``repro fsck``.  v1/v2 manifests carry no checksums, so they are
    refused with a rebuild instruction instead of being half-verified.
    """
    manifest_path = Path(root) / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    fmt = manifest.get("format")
    if fmt != _FORMAT:
        raise ValueError(
            f"{manifest_path} has format {fmt!r}; this build reads only "
            f"{_FORMAT} — rebuild the index with `repro index build`"
        )
    return manifest


class _Shard:
    """One resident shard: aligned keys, metas and (possibly raw) rows."""

    __slots__ = ("keys", "metas", "embeddings", "codec", "scale", "cells")

    def __init__(
        self,
        keys: List[str],
        metas: List[dict],
        embeddings: np.ndarray,
        codec: str = "float32",
        scale: Optional[np.ndarray] = None,
        cells: Optional[np.ndarray] = None,
    ):
        self.keys = keys
        self.metas = metas
        self.embeddings = embeddings  # float32 matrix, or raw int8/fp16 (mmap)
        self.codec = codec
        self.scale = scale
        self.cells = cells

    @property
    def n(self) -> int:
        return len(self.keys)

    def dense(self) -> np.ndarray:
        """All rows as float32 (dequantizes the whole shard)."""
        return _dequantize(self.embeddings, self.codec, self.scale)

    def block(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` as float32."""
        return _dequantize(self.embeddings[start:stop], self.codec, self.scale)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The selected rows as float32 (fancy indexing copies)."""
        return _dequantize(self.embeddings[idx], self.codec, self.scale)


class ShardedEmbeddingIndex:
    """Encode-once corpus of embeddings in shards, answering top-k queries.

    Entries keep insertion order, so :meth:`scores` is aligned with the
    order they were added — callers that rank an external candidate list
    (``MatcherPipeline.rank_sources``) rely on this.  ``root`` is None for
    a directory-less index, whose shards are all resident.
    """

    def __init__(
        self,
        trainer,
        root: Optional[PathLike],
        manifest: dict,
        degraded: bool = False,
        verify_reads: bool = False,
    ):
        """Wrap an already-parsed manifest (use :meth:`create`/:meth:`open`
        or :meth:`in_memory`).

        ``degraded`` opts in to quarantine-and-continue behavior for
        corrupt shards and a corrupt quantizer payload (strict mode — the
        default — raises exactly as before).  ``verify_reads`` checks
        each file's manifest sha256 as its shard loads (also switchable
        via ``REPRO_VERIFY_READS=1``).
        """
        # The query-embedding cache: embed_queries, the bounded LRU,
        # duplicate batching and the hit/miss counters.
        self._encoder = QueryCache(trainer)
        self.trainer = trainer
        # The trainer check_model() passes without hashing: a fresh
        # manifest's model_sha was computed from this one; open() clears
        # it and checks the trainer against the manifest read from disk.
        self._checked_trainer = trainer
        self.root = None if root is None else Path(root)
        self.dim = 2 * trainer.config.hidden_dim
        self._manifest = manifest
        self.degraded = degraded
        self.verify_reads = verify_reads or _env_verify_reads()
        # position → reason, for shards quarantined at load time (degraded
        # mode only).  Quarantine is in-memory: the on-disk quarantine /
        # repair workflow belongs to `repro fsck`.
        self.quarantined: Dict[int, str] = {}
        self.quantizer_error: Optional[str] = None
        self.codec = manifest.get("codec", "float32")
        if self.codec not in CODECS:
            raise ValueError(
                f"manifest codec {self.codec!r} is not one of {CODECS}"
            )
        payload = manifest.get("quantizer")
        try:
            self.quantizer: Optional[CoarseQuantizer] = (
                CoarseQuantizer.from_manifest(payload) if payload else None
            )
            if self.quantizer is not None and self.quantizer.dim != self.dim:
                raise ValueError(
                    f"manifest quantizer has dim {self.quantizer.dim}, "
                    f"index has {self.dim}"
                )
        except (ValueError, KeyError, TypeError) as exc:
            if not degraded:
                raise
            # A *corrupt* quantizer payload must not take down exact
            # retrieval: record why ANN is unavailable and fall back.
            # (An index that never trained a quantizer has payload=None
            # and keeps quantizer_error=None — that stays a config error
            # for callers requesting mode="ann".)
            self.quantizer = None
            self.quantizer_error = str(exc)
        self._shards: List[Optional[_Shard]] = [None] * len(manifest["shards"])
        # Whole-corpus gather cache — dropped by add, merge and
        # quarantine_shard — so queries pay the flattening and the key
        # order once, not per call.  Only the float32 codec ever adds the
        # matrix: quantized codecs never flatten the corpus.
        self._flat: Optional[_Gathered] = None
        self._load_lock = threading.Lock()
        self.score_block_rows = _SCORE_BLOCK_ROWS
        # Working-set accounting for the streamed paths: the peak number of
        # concurrently-held dequantized bytes, and the largest single block.
        # bench_index_scale asserts these stay far below the flat matrix.
        self._dequant_lock = threading.Lock()
        self._dequant_now = 0
        self.last_peak_dequant_bytes = 0
        self.last_peak_block_bytes = 0

    # ------------------------------------------------------- construction
    @classmethod
    def create(
        cls,
        trainer,
        root: PathLike,
        tag: Optional[str] = None,
        overwrite: bool = False,
        codec: str = "float32",
    ) -> "ShardedEmbeddingIndex":
        """Start an empty sharded index at ``root`` (created if missing).

        ``codec`` fixes the storage format for every shard: ``float32``
        (the exact, bit-parity ``.npz`` layout), or ``int8`` / ``fp16``
        (raw memory-mapped ``.npy`` shards).  An existing sharded index at
        ``root`` is an error unless ``overwrite`` is set, in which case
        its manifest and shard files (and nothing else) are removed first.
        """
        manifest = _fresh_manifest(trainer, codec, tag)
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / MANIFEST_NAME).exists():
            if not overwrite:
                raise ValueError(f"{root} already holds a sharded index")
            for shard in root.glob(_SHARD_GLOB):
                shard.unlink()
            (root / MANIFEST_NAME).unlink()
        index = cls(trainer, root, manifest)
        index._write_manifest()
        return index

    @classmethod
    def in_memory(
        cls, trainer, query_cache_size: int = 256
    ) -> "ShardedEmbeddingIndex":
        """An empty directory-less float32 index (bound as ``EmbeddingIndex``).

        Its shards are all resident and it writes nothing; persist it with
        :meth:`from_index`.  ``query_cache_size`` bounds the query LRU.
        """
        index = cls(trainer, None, _fresh_manifest(trainer, "float32", None))
        index.query_cache_size = query_cache_size
        return index

    @classmethod
    def open(
        cls,
        root: PathLike,
        trainer,
        degraded: bool = False,
        verify_reads: bool = False,
    ) -> "ShardedEmbeddingIndex":
        """Open an existing sharded index, validating it against ``trainer``.

        Only the manifest is read; shard arrays stay on disk until a query
        touches them (quantized shards are memory-mapped even then).
        Anything but a current-format index directory — a model
        checkpoint, a v1/v2 manifest — is a ``ValueError``.  Opening also
        sweeps aged-out orphan temp files left by crashed writers.  See
        ``__init__`` for ``degraded`` / ``verify_reads``.
        """
        root = Path(root)
        if not (root / MANIFEST_NAME).exists():
            raise ValueError(
                f"{root} is not a sharded index (no {MANIFEST_NAME}); "
                "build one with `repro index build`"
            )
        manifest = read_manifest(root)
        sweep_orphan_tmps(root, TMP_SWEEP_AGE_SECONDS)
        index = cls(trainer, root, manifest, degraded=degraded, verify_reads=verify_reads)
        index._checked_trainer = None
        if (
            manifest["dim"] != index.dim
            or manifest["pair_features"] != trainer.config.pair_features
        ):
            raise ValueError(
                f"index built for dim={manifest['dim']}/"
                f"pair_features={manifest['pair_features']!r}, trainer has "
                f"dim={index.dim}/pair_features={trainer.config.pair_features!r}"
            )
        index.check_model(trainer)
        return index

    def check_model(self, trainer) -> None:
        """Raise ``ValueError`` unless this index was built by ``trainer``'s model.

        The one "same model?" check, behind :meth:`open`,
        ``MatcherPipeline.rank_sources`` and ``evaluate_retrieval(index=)``.
        The index's own trainer object passes without hashing (after
        :meth:`open` has checked it); any other trainer's
        :func:`~repro.index.embedding_index.model_fingerprint` must equal the
        manifest's ``model_sha``, so a saved-then-reloaded copy of the model
        passes and a different checkpoint is refused.
        """
        if trainer is self._checked_trainer:
            return
        if model_fingerprint(trainer) != self._manifest["model_sha"]:
            raise ValueError(
                f"{self.root or 'index'} was built by a different model "
                "(weight/tokenizer fingerprint mismatch); rebuild the index "
                "with this checkpoint"
            )
        if trainer is self.trainer:
            self._checked_trainer = trainer

    @classmethod
    def from_index(
        cls,
        index: "ShardedEmbeddingIndex",
        root: PathLike,
        shard_entries: int,
        tag: Optional[str] = None,
        overwrite: bool = False,
        codec: str = "float32",
        cells: int = 0,
        quantizer_seed: int = 0,
    ) -> "ShardedEmbeddingIndex":
        """Write ``index``'s entries to ``root`` as ``shard_entries``-sized shards.

        ``index`` is usually a directory-less one.  With the default
        float32 codec, embeddings are copied, never re-encoded, so the
        written index scores bit-identically to ``index``.  Quantized
        codecs (``int8``/``fp16``) trade that bit parity for
        memory-mapped storage.  ``cells > 0`` additionally
        trains a coarse quantizer over the corpus (see
        :meth:`train_quantizer`), enabling ``mode="ann"`` queries.
        ``overwrite`` replaces an existing sharded index at ``root``
        (see :meth:`create`).
        """
        if shard_entries < 1:
            raise ValueError(f"shard_entries must be >= 1, got {shard_entries}")
        sharded = cls.create(
            index.trainer,
            root,
            tag=tag if tag is not None else index.tag,
            overwrite=overwrite,
            codec=codec,
        )
        keys, metas, matrix = index.keys, index.metas, index.embeddings
        for start in range(0, len(keys), shard_entries):
            stop = start + shard_entries
            sharded.add_precomputed(keys[start:stop], matrix[start:stop], metas[start:stop])
        if cells > 0:
            sharded.train_quantizer(cells, seed=quantizer_seed)
        return sharded

    # ------------------------------------------------------------- sizing
    def __len__(self) -> int:
        """Total entries across all shards (manifest counts, no loading)."""
        return sum(s["entries"] for s in self._manifest["shards"])

    @property
    def num_shards(self) -> int:
        """How many shards the manifest records."""
        return len(self._manifest["shards"])

    @property
    def resident_shards(self) -> int:
        """How many shards are currently materialized in memory."""
        return sum(1 for s in self._shards if s is not None)

    @property
    def tag(self) -> Optional[str]:
        """Caller-set corpus identity, persisted in the manifest.

        ``MatcherPipeline.source_index`` stores a hash of its candidate
        list here and checks it on reuse.
        """
        return self._manifest.get("tag")

    @tag.setter
    def tag(self, tag: Optional[str]) -> None:
        self._manifest["tag"] = tag
        self._write_manifest()

    # ------------------------------------------------------------ disk IO
    def _commit(
        self, name: str, write, site: str, write_fault: bool = True
    ) -> Optional[str]:
        """Atomically write one index file via ``write(fh)``; returns its sha256.

        Every file this index writes goes through :func:`repro.utils.fsio.commit`
        (``write_fault`` fires the ``{site}.write`` fault site first), with
        the digest taken from the temp file before the rename.  A
        directory-less index writes nothing, fires no fault site and
        returns None.
        """
        if self.root is None:
            return None
        return commit(
            self.root / name, write, site, write_fault=write_fault, digest=True
        )

    def _write_manifest(self) -> None:
        text = json.dumps(self._manifest, indent=2, sort_keys=True)
        self._commit(MANIFEST_NAME, lambda fh: fh.write(text.encode()), "index.manifest")

    def _save_array(self, name: str, arr: np.ndarray) -> Optional[str]:
        """Atomically write one ``.npy``; returns the committed sha256."""
        return self._commit(
            name, lambda fh: np.save(fh, np.ascontiguousarray(arr)), "index.array"
        )

    def _save_cells(
        self, quantizer: CoarseQuantizer, position: int, entry: dict, shard: _Shard
    ) -> None:
        """Assign ``shard``'s rows to cells; persist them, then record them."""
        cells = quantizer.assign(shard.dense())
        name = _cells_name(position)
        entry["cells_sha256"] = self._save_array(name, cells)
        entry["cells"] = name
        shard.cells = cells

    def _verify_file(self, entry: dict, field: str, path: Path) -> None:
        """Check one shard file against its manifest checksum (``verify_reads``)."""
        if self.verify_reads:
            checked_sha256(path, entry.get(field))

    def _load_shard(self, position: int) -> _Shard:
        entry = self._manifest["shards"][position]
        path = self.root / entry["file"]
        scale = None
        faults.hit("index.shard.read")
        self._verify_file(entry, "sha256", path)
        if self.codec == "float32":
            try:
                with np.load(path) as archive:
                    meta = entry_meta(archive)
                    embeddings = archive["embeddings"].astype(np.float32, copy=False)
            except READ_ERRORS as exc:
                raise ShardCorruption(
                    f"{path} is corrupt, truncated or missing ({exc}); "
                    "rebuild the shard or run `repro fsck`"
                ) from exc
        else:
            # Raw quantized rows stay on disk: np.load returns a read-only
            # memory map, and scoring dequantizes bounded blocks of it.
            try:
                embeddings = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, EOFError, ValueError) as exc:
                raise ShardCorruption(
                    f"{path} is corrupt or truncated ({exc}); rebuild the shard"
                ) from exc
            meta_path = self.root / entry["meta"]
            self._verify_file(entry, "meta_sha256", meta_path)
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError) as exc:
                raise ShardCorruption(
                    f"{meta_path} is corrupt or missing ({exc}); the shard "
                    "sidecar and array must travel together"
                ) from exc
            want_dtype = np.int8 if self.codec == "int8" else np.float16
            if embeddings.dtype != want_dtype:
                raise ShardCorruption(
                    f"{path} is corrupt: dtype {embeddings.dtype} for "
                    f"codec {self.codec!r} (expected {np.dtype(want_dtype)})"
                )
            if self.codec == "int8":
                scale = np.asarray(meta.get("scale"), dtype=np.float32)
                if scale.shape != (self._manifest["dim"],):
                    raise ShardCorruption(
                        f"{meta_path} is corrupt: int8 scale has shape "
                        f"{scale.shape}, expected ({self._manifest['dim']},)"
                    )
        if meta.get("model_sha") != self._manifest["model_sha"]:
            raise ValueError(
                f"{path} was built by a different model than this index's "
                "manifest records; the shard set is inconsistent"
            )
        if embeddings.shape != (entry["entries"], self._manifest["dim"]):
            raise ShardCorruption(
                f"{path} is corrupt: {embeddings.shape} embeddings for "
                f"{entry['entries']} manifest entries of dim {self._manifest['dim']}"
            )
        cells = None
        if entry.get("cells"):
            cells_path = self.root / entry["cells"]
            self._verify_file(entry, "cells_sha256", cells_path)
            try:
                cells = np.load(cells_path, allow_pickle=False)
            except (OSError, EOFError, ValueError) as exc:
                raise ShardCorruption(
                    f"{cells_path} is corrupt or truncated ({exc}); re-run "
                    "train_quantizer() to regenerate cell assignments"
                ) from exc
            if cells.shape != (entry["entries"],):
                raise ShardCorruption(
                    f"{cells_path} is corrupt: {cells.shape} cell ids for "
                    f"{entry['entries']} manifest entries"
                )
            cells = np.asarray(cells).astype(np.int32, copy=False)
        return _Shard(
            list(meta["keys"]),
            [dict(m) for m in meta["metas"]],
            embeddings,
            codec=self.codec,
            scale=scale,
            cells=cells,
        )

    def _ensure(self, position: int) -> _Shard:
        # Double-checked under a lock: the fan-out threads may race to
        # materialize the same shard.
        shard = self._shards[position]
        if shard is None:
            with self._load_lock:
                shard = self._shards[position]
                if shard is None:
                    shard = self._load_shard(position)
                    self._shards[position] = shard
        return shard

    # --------------------------------------------------------- quarantine
    def quarantine_shard(self, position: int, reason: str) -> None:
        """Take one shard out of service (in-memory; the files stay put).

        Queries from here on score the surviving shards only; the cached
        flat gathers are invalidated so they rebuild without the
        quarantined rows.  ``repro fsck`` is the on-disk counterpart.
        """
        if not 0 <= position < self.num_shards:
            raise ValueError(f"no shard {position} (index has {self.num_shards})")
        if self.root is None:
            # Its resident rows are the only copy: nothing could reload them.
            raise ValueError("a directory-less index has no shard to quarantine")
        self.quarantined[position] = reason
        self._shards[position] = None
        self._flat = None

    def coverage(self) -> float:
        """Fraction of manifest entries still in service (1.0 when healthy)."""
        total = sum(s["entries"] for s in self._manifest["shards"])
        if total == 0:
            return 1.0
        lost = sum(
            self._manifest["shards"][p]["entries"] for p in self.quarantined
        )
        return 1.0 - lost / total

    def _ensure_active(self, positions: Sequence[int]) -> Tuple[List[int], List[_Shard]]:
        """Load the given shards, quarantining corrupt ones in degraded mode.

        Strict mode (the default) propagates :class:`ShardCorruption`
        exactly as before; degraded mode records the casualty and answers
        from what survives.  Already-quarantined positions are skipped.
        """
        out_positions: List[int] = []
        out_shards: List[_Shard] = []
        for position in positions:
            if position in self.quarantined:
                continue
            try:
                shard = self._ensure(position)
            except ShardCorruption as exc:
                if not self.degraded:
                    raise
                self.quarantine_shard(position, str(exc))
                continue
            out_positions.append(position)
            out_shards.append(shard)
        return out_positions, out_shards

    def _resolve_shards(self, shards: Optional[Sequence[int]]) -> List[int]:
        if shards is None:
            return list(range(self.num_shards))
        out: List[int] = []
        seen = set()
        for s in shards:
            # Same rule as k and nprobe: int(1.5) or int(True) would
            # silently score some other shard.
            if not isinstance(s, numbers.Integral) or isinstance(s, bool):
                raise ValueError(f"shard ids must be integers, got {s!r}")
            if not 0 <= s < self.num_shards:
                raise ValueError(f"no shard {s} (index has {self.num_shards})")
            s = int(s)
            if s in seen:
                raise ValueError(
                    f"duplicate shard {s} in shards=; each shard may be "
                    "selected at most once (duplicates would duplicate "
                    "candidate rows and top-k hits)"
                )
            seen.add(s)
            out.append(s)
        return out

    def _gather(self, shards: Optional[Sequence[int]], rows: bool = False) -> _Gathered:
        """Keys, metas and key order over the selected shards (+ rows).

        ``rows`` adds the float32 matrix — the exact hot path, one flat
        matmul whatever the shard layout, so a directory scores
        bit-identically to the directory-less index it came from.  The
        whole-corpus case (``shards=None`` — the serving hot path) is
        cached until the shard set changes.
        """
        flat = self._flat if shards is None else None
        if flat is None:
            positions, loaded = self._ensure_active(self._resolve_shards(shards))
            keys = [k for s in loaded for k in s.keys]
            metas = [m for s in loaded for m in s.metas]
            flat = _Gathered(keys, metas, key_order(keys), positions, None)
        if rows and flat.matrix is None:
            loaded = [self._shards[p] for p in flat.positions]
            if not loaded:
                matrix = np.zeros((0, self.dim), dtype=np.float32)
            else:
                matrix = np.concatenate([s.embeddings for s in loaded], axis=0)
            flat = flat._replace(matrix=matrix)
            if shards is None:
                # The flat matrix becomes the one canonical copy: re-point
                # each shard's rows at views into it (freeing the per-shard
                # arrays) and seed the query-encoder cache so queries
                # identical to indexed entries skip the encoder.
                offset = 0
                for shard in loaded:
                    n = shard.embeddings.shape[0]
                    shard.embeddings = matrix[offset : offset + n]
                    offset += n
                self._encoder.seed_embedding_cache(flat.keys, matrix)
        if shards is None:
            self._flat = flat
        return flat

    # ------------------------------------------------------------ growing
    def add(
        self,
        graphs: Sequence[ProgramGraph],
        metas: Optional[Sequence[dict]] = None,
        batch_size: int = 32,
    ) -> List[str]:
        """Index graphs (with optional per-graph metadata); returns their keys.

        A non-empty call appends one shard; ``add([])`` is a no-op.
        Only graphs whose fingerprint is not already cached hit the
        encoder; duplicates — within this call or against earlier adds and
        queries — reuse the cached embedding.
        """
        if metas is None:
            metas = [{} for _ in graphs]
        if len(metas) != len(graphs):
            raise ValueError("metas must match graphs 1:1")
        keys = [graph_fingerprint(g) for g in graphs]
        if keys:
            rows = self._encoder.embed_queries(list(graphs), batch_size, keys)
            self._append_shard(keys, rows, metas)
        return keys

    def add_precomputed(
        self,
        keys: Sequence[str],
        embeddings: np.ndarray,
        metas: Optional[Sequence[dict]] = None,
    ) -> None:
        """Append entries whose embeddings were already computed (one shard).

        Used when re-arranging existing indexes — sharding, merging,
        persisting a directory-less index — where re-encoding would both
        waste encoder passes and (because batch composition perturbs float
        accumulation order) break bit-exact score parity with the original.
        """
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float32))
        if metas is None:
            metas = [{} for _ in keys]
        if len(keys) != embeddings.shape[0] or len(keys) != len(metas):
            raise ValueError(
                f"{len(keys)} keys for {embeddings.shape[0]} embeddings "
                f"and {len(metas)} metas"
            )
        if len(keys):
            self._append_shard(keys, embeddings, metas)

    def _append_shard(
        self, keys: Sequence[str], rows: np.ndarray, metas: Sequence[dict]
    ) -> None:
        """Store aligned entries as one resident shard (written when on disk).

        If a coarse quantizer is trained, the new shard's cell assignments
        are computed (and persisted) alongside it.
        """
        if len(keys) == 0:
            raise ValueError("a shard needs at least one entry")
        if rows.shape[1] != self.dim:
            raise ValueError(f"shard has dim {rows.shape[1]}, index has {self.dim}")
        position = self.num_shards
        name = _shard_name(position, self.codec)
        entry: Dict[str, object] = {"file": name, "entries": len(keys)}
        shard_keys = list(keys)
        shard_metas = [dict(m) for m in metas]
        scale = None
        sidecar = {
            "keys": shard_keys,
            "metas": shard_metas,
            "model_sha": self._manifest["model_sha"],
        }
        if self.codec == "float32":
            # The archive _load_shard reads: the rows plus the sidecar
            # fields as a uint8 JSON member (no pickle).
            store = np.array(rows, dtype=np.float32)
            payload = np.frombuffer(json.dumps(sidecar).encode(), dtype=np.uint8)
            entry["sha256"] = self._commit(
                name,
                lambda fh: np.savez_compressed(
                    fh, embeddings=store, **{_META_KEY: payload}
                ),
                "index.array",
            )
        else:
            store, scale = _quantize(rows, self.codec)
            entry["sha256"] = self._save_array(name, store)
            if scale is not None:
                sidecar["scale"] = [float(v) for v in scale]
            text = json.dumps(sidecar).encode()
            entry["meta"] = _meta_name(position)
            entry["meta_sha256"] = self._commit(
                entry["meta"],
                lambda fh: fh.write(text),
                "index.sidecar",
                write_fault=False,
            )
        resident = _Shard(shard_keys, shard_metas, store, codec=self.codec, scale=scale)
        if self.quantizer is not None:
            self._save_cells(self.quantizer, position, entry, resident)
        self._manifest["shards"].append(entry)
        self._write_manifest()
        self._shards.append(resident)
        if self.codec == "float32":
            # Quantized rows are lossy: seeding the query-encoder cache
            # with them would poison query-side exactness, so only the
            # float32 codec registers entry embeddings as known queries.
            self._encoder.seed_embedding_cache(resident.keys, resident.embeddings)
        self._flat = None

    def merge(self, other: "ShardedEmbeddingIndex") -> None:
        """Absorb every shard of ``other`` (copied, renumbered) into self.

        Both indexes must use the same codec.  When self has a trained
        quantizer, the absorbed entries are assigned to *self's* cells
        (other's assignments, if any, belong to different centroids).
        A source file whose copy does not match its recorded checksum
        raises :class:`ShardCorruption` and leaves self unchanged.  Both
        indexes must be on disk: persist a directory-less one with
        :meth:`from_index` first.
        """
        if self.root is None or other.root is None:
            raise ValueError(
                "cannot merge a directory-less index; persist it with "
                "ShardedEmbeddingIndex.from_index first"
            )
        if other is self or other.root.resolve() == self.root.resolve():
            raise ValueError("cannot merge a sharded index into itself")
        if other._manifest["model_sha"] != self._manifest["model_sha"]:
            raise ValueError(
                "cannot merge: indexes were built by different models "
                "(weight/tokenizer fingerprint mismatch)"
            )
        if other._manifest["dim"] != self._manifest["dim"] or (
            other._manifest["pair_features"] != self._manifest["pair_features"]
        ):
            raise ValueError("cannot merge: embedding shapes differ")
        if other.codec != self.codec:
            raise ValueError(
                f"cannot merge: codecs differ ({other.codec!r} into {self.codec!r})"
            )
        # Every file lands and is verified before this manifest learns of
        # any: one bad file aborts the merge and removes what it wrote.
        written: List[Path] = []
        added: List[Tuple[dict, Optional[_Shard]]] = []
        try:
            for position, entry in enumerate(other._manifest["shards"]):
                new_position = self.num_shards + position
                new_entry: Dict[str, object] = {
                    "file": _shard_name(new_position, self.codec),
                    "entries": entry["entries"],
                }
                copies = [("file", "sha256")]
                if self.codec != "float32":
                    new_entry["meta"] = _meta_name(new_position)
                    copies.append(("meta", "meta_sha256"))
                for name_field, sha_field in copies:
                    # Hash the copy against the *source's* record: hashing
                    # it alone would bless corrupt source bytes.
                    src = other.root / entry[name_field]
                    written.append(self.root / new_entry[name_field])
                    shutil.copyfile(src, written[-1])
                    try:
                        new_entry[sha_field] = checked_sha256(
                            written[-1], entry.get(sha_field)
                        )
                    except ShardCorruption as exc:
                        raise ShardCorruption(f"cannot merge {src}: {exc}") from exc
                resident = other._shards[position]
                if self.quantizer is not None:
                    source = resident if resident is not None else other._ensure(position)
                    resident = _Shard(
                        source.keys,
                        source.metas,
                        source.embeddings,
                        codec=self.codec,
                        scale=source.scale,
                    )
                    written.append(self.root / _cells_name(new_position))
                    self._save_cells(self.quantizer, new_position, new_entry, resident)
                added.append((new_entry, resident))
        except BaseException:
            for path in written:
                path.unlink(missing_ok=True)
            raise
        for new_entry, resident in added:
            self._manifest["shards"].append(new_entry)
            self._shards.append(resident)
        self._write_manifest()
        self._flat = None

    # ---------------------------------------------------------- quantizer
    def train_quantizer(
        self,
        num_cells: int,
        seed: int = 0,
        iters: int = 8,
        max_train_rows: int = 16384,
    ) -> CoarseQuantizer:
        """Fit a coarse quantizer over the corpus and persist it.

        Centroids are fitted on at most ``max_train_rows`` rows — a
        seeded uniform subsample at corpus scale, never a stride: strided
        sampling silently drops whole clusters whenever the corpus layout
        is periodic (round-robin ingestion, interleaved sources), which
        guts recall for every query landing in an unsampled cluster.
        Then **every** entry is assigned exactly; per-shard cell ids are
        written next to the shard files and the centroids go into the
        manifest, so a reopened index probes bit-identical cells.
        Enables ``mode="ann"`` on :meth:`topk` / :meth:`topk_batch`.
        """
        total = len(self)
        if total == 0:
            raise ValueError("cannot train a quantizer on an empty index")
        if max_train_rows < 1:
            raise ValueError(f"max_train_rows must be >= 1, got {max_train_rows}")
        positions = list(range(self.num_shards))
        loaded = [self._ensure(p) for p in positions]
        if total > max_train_rows:
            rng = derive_rng(seed, "quantizer-train-sample", total, max_train_rows)
            chosen = np.sort(rng.choice(total, size=max_train_rows, replace=False))
        else:
            chosen = np.arange(total)
        sample: List[np.ndarray] = []
        offset = 0
        for shard in loaded:
            lo, hi = np.searchsorted(chosen, (offset, offset + shard.n))
            keep = chosen[lo:hi] - offset
            if keep.size:
                sample.append(shard.rows(keep))
            offset += shard.n
        quantizer = CoarseQuantizer.fit(
            np.concatenate(sample, axis=0), num_cells, seed=seed, iters=iters
        )
        for position, shard in zip(positions, loaded):
            entry = self._manifest["shards"][position]
            self._save_cells(quantizer, position, entry, shard)
        payload = quantizer.to_manifest()
        payload["seed"] = int(seed)
        payload["iters"] = int(iters)
        self._manifest["quantizer"] = payload
        self.quantizer = quantizer
        self._write_manifest()
        return quantizer

    # ------------------------------------------------------------ queries
    @property
    def embeddings(self) -> np.ndarray:
        """All entry embeddings ``(C, 2H)`` in global order.

        Float32 codec: the cached flat matrix (loads all shards).
        Quantized codecs: a fresh dequantized copy — a debugging /
        validation accessor, deliberately uncached so the scoring paths
        never depend on a corpus-sized float32 matrix existing.
        """
        if self.codec == "float32":
            return self._gather(None, rows=True).matrix
        loaded = [self._ensure(p) for p in range(self.num_shards)]
        if not loaded:
            return np.zeros((0, self.dim), dtype=np.float32)
        return np.concatenate([s.dense() for s in loaded], axis=0)

    @property
    def keys(self) -> List[str]:
        """All entry keys in global order (loads shard metadata)."""
        return list(self._gather(None).keys)

    @property
    def metas(self) -> List[dict]:
        """Per-entry metadata copies in global order (loads shard metadata)."""
        return [dict(m) for m in self._gather(None).metas]

    # ----------------------------------------------------------- fan-out
    def _run_fanout(self, fn, count: int) -> None:
        """Run ``fn(i)`` for each shard slot, threaded when it pays.

        The dispatching thread holds ``no_grad()`` around the pool:
        the grad flag is a module global, so the workers' nested
        ``no_grad`` blocks save and restore an already-False flag — safe
        under any interleaving — and the flag is only restored after
        every worker has joined.
        """
        if count == 0:
            return
        workers = min(_FANOUT_THREADS, count)
        if workers <= 1:
            for i in range(count):
                fn(i)
            return
        with no_grad():
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="index-fanout"
            ) as pool:
                futures = [pool.submit(fn, i) for i in range(count)]
                for future in futures:
                    future.result()

    def _dequant_reset(self) -> None:
        with self._dequant_lock:
            self._dequant_now = 0
            self.last_peak_dequant_bytes = 0
            self.last_peak_block_bytes = 0

    def _dequant_start(self, nbytes: int) -> None:
        with self._dequant_lock:
            self._dequant_now += nbytes
            self.last_peak_dequant_bytes = max(
                self.last_peak_dequant_bytes, self._dequant_now
            )
            self.last_peak_block_bytes = max(self.last_peak_block_bytes, nbytes)

    def _dequant_end(self, nbytes: int) -> None:
        with self._dequant_lock:
            self._dequant_now -= nbytes

    def _stream_scores(self, q: np.ndarray, positions: List[int]) -> np.ndarray:
        """Exact ``(Q, C)`` scores off quantized shards, block-streamed.

        Each shard dequantizes bounded row blocks straight off its memory
        map and writes its column slice of the output; shards run on the
        fan-out pool.  Resident float32 footprint: one block per worker
        thread (tracked by the ``last_peak_*`` counters), never the corpus.
        """
        loaded = [self._ensure(p) for p in positions]
        total = sum(s.n for s in loaded)
        out = np.empty((q.shape[0], total), dtype=np.float32)
        bases = np.cumsum([0] + [s.n for s in loaded])

        def score_shard(i: int) -> None:
            shard, base = loaded[i], int(bases[i])
            for start in range(0, shard.n, self.score_block_rows):
                stop = min(start + self.score_block_rows, shard.n)
                block = shard.block(start, stop)
                self._dequant_start(block.nbytes)
                try:
                    out[:, base + start : base + stop] = score_pairs_tiled(
                        self.trainer, q, block
                    )
                finally:
                    self._dequant_end(block.nbytes)

        self._run_fanout(score_shard, len(loaded))
        return out

    def _scored_batch(
        self,
        graphs: Optional[Sequence[ProgramGraph]],
        embeddings: Optional[np.ndarray],
        batch_size: int,
        shards: Optional[Sequence[int]],
    ) -> Tuple[np.ndarray, _Gathered]:
        """One gather + one scoring pass: ``((Q, C) scores, entries)``.

        The single implementation behind :meth:`scores`,
        :meth:`scores_batch`, :meth:`topk` and :meth:`topk_batch`, so the
        shard concatenation and metadata flattening happen once per call.
        Float32 keeps the flat-matrix pass (bit parity across shard
        layouts); quantized codecs stream blocks off the memory maps.
        """
        q, num_q = normalize_query_batch(graphs, embeddings, self.dim)
        if len(self) == 0:
            return np.zeros((num_q, 0), dtype=np.float32), _no_entries()
        float32 = self.codec == "float32"
        flat = self._gather(shards, rows=float32)
        if num_q == 0 or not flat.keys:
            return np.zeros((num_q, len(flat.keys)), dtype=np.float32), flat
        if q is None:
            q = self._encoder.embed_queries(graphs, batch_size)
        if float32:
            return score_pairs_tiled(self.trainer, q, flat.matrix), flat
        self._dequant_reset()
        return self._stream_scores(q, flat.positions), flat

    @property
    def query_cache_size(self) -> int:
        """Bound of the query-embedding LRU (the query cache's)."""
        return self._encoder.query_cache_size

    @query_cache_size.setter
    def query_cache_size(self, size: int) -> None:
        self._encoder.query_cache_size = size

    # The query cache's own surface (see QueryCache).
    cached_embedding = property(lambda self: self._encoder.cached_embedding)
    cache_hits = property(lambda self: self._encoder.cache_hits)
    cache_misses = property(lambda self: self._encoder.cache_misses)

    def embed_queries(
        self,
        graphs: Sequence[ProgramGraph],
        batch_size: int = 32,
        keys: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Query embeddings ``(Q, 2H)`` as the exact scoring pass makes them.

        A float32 index gathers its corpus first, which seeds the query
        cache with the stored rows: a query identical to an indexed entry
        then reuses that row instead of being encoded.
        """
        if self.codec == "float32" and len(self):
            self._gather(None, rows=True)
        return self._encoder.embed_queries(graphs, batch_size, keys)

    def scores(
        self,
        graph: Optional[ProgramGraph] = None,
        *,
        embedding: Optional[np.ndarray] = None,
        shards: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Pair-head scores against every (selected-shard) entry, in order.

        The query goes on the matcher's *left* (binary) side, entries on
        the right (source) side — the orientation ``MatchingPair`` and the
        training corpus use throughout.
        """
        if embedding is not None:
            embedding = np.asarray(embedding, dtype=np.float32).reshape(1, -1)
        scores, _ = self._scored_batch(
            None if graph is None else [graph], embedding, 32, shards
        )
        return scores[0]

    def scores_batch(
        self,
        graphs: Optional[Sequence[ProgramGraph]] = None,
        *,
        embeddings: Optional[np.ndarray] = None,
        batch_size: int = 32,
        shards: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """All pair-head scores ``(Q, C)``, one batched encode + one pass."""
        scores, _ = self._scored_batch(graphs, embeddings, batch_size, shards)
        return scores

    # ---------------------------------------------------------- ANN path
    def _ann_topk_batch(
        self,
        graphs: Optional[Sequence[ProgramGraph]],
        embeddings: Optional[np.ndarray],
        k: Optional[int],
        batch_size: int,
        nprobe: int,
    ) -> List[List[Hit]]:
        """Probe the best ``nprobe`` cells per query, rescore exactly, merge.

        Cells are ranked by the *pair-head score of their centroids* — the
        same scorer that produces the final ranking — not raw L2, so
        pruning agrees with retrieval.  Per-shard partial top-k lists are
        merged with a heap under the same ``(score desc, key asc,
        position asc)`` tie-break :func:`ranked_hits` uses; with
        ``nprobe >= num_cells`` the hit set therefore equals the exact
        path's over the same stored rows, and the ordering agrees wherever
        the scores do.  (The pair head's matmuls may round the same row
        differently under different scoring-batch shapes — last-bit float
        jitter — so per-hit scores are *allclose* to the exact path's, not
        bit-identical, when shard layout changes the batch shapes.)
        """
        if self.quantizer is None:
            raise ValueError(
                "mode='ann' needs a trained coarse quantizer; call "
                "train_quantizer(), build with `repro index build --cells N`, "
                "or query with mode='exact'"
            )
        q, num_q = normalize_query_batch(graphs, embeddings, self.dim)
        if num_q == 0:
            return []
        if len(self) == 0:
            return [[] for _ in range(num_q)]
        if q is None:
            q = self._encoder.embed_queries(graphs, batch_size)
        self._dequant_reset()
        quantizer = self.quantizer
        cell_scores = score_pairs_tiled(self.trainer, q, quantizer.centroids)
        probe_order = np.argsort(-cell_scores, axis=1, kind="stable")
        probes = probe_order[:, : min(int(nprobe), quantizer.num_cells)]
        masks = np.zeros((num_q, quantizer.num_cells), dtype=bool)
        masks[np.arange(num_q)[:, None], probes] = True
        positions, loaded = self._ensure_active(range(self.num_shards))
        for position, shard in zip(positions, loaded):
            if shard.cells is None:
                raise ValueError(
                    f"shard {position} has no cell assignments; re-run "
                    "train_quantizer() so every shard is assigned"
                )
        bases = np.cumsum([0] + [s.n for s in loaded])
        # candidates[qi][shard slot] — tuples ordered (neg score, key,
        # global index, meta): tuple comparison IS the tie-break, and the
        # unique global index shields the unorderable meta dict.
        candidates: List[List[list]] = [
            [[] for _ in positions] for _ in range(num_q)
        ]

        def probe_shard(i: int) -> None:
            shard, base = loaded[i], int(bases[i])
            hit_cells = masks[:, shard.cells]  # (Q, n) bool lookup
            for qi in range(num_q):
                selected = np.flatnonzero(hit_cells[qi])
                if selected.size == 0:
                    continue
                rows = shard.rows(selected)
                self._dequant_start(rows.nbytes)
                try:
                    scored = score_pairs_tiled(
                        self.trainer, q[qi : qi + 1], rows
                    )[0]
                finally:
                    self._dequant_end(rows.nbytes)
                if k is not None and scored.size > k:
                    # Keep every candidate tied with the k-th best score so
                    # the merge can still apply the key tie-break exactly.
                    kth = -np.partition(-scored, k - 1)[k - 1]
                    keep = np.flatnonzero(scored >= kth)
                    selected, scored = selected[keep], scored[keep]
                candidates[qi][i] = [
                    (
                        -float(score),
                        shard.keys[int(j)],
                        int(base + j),
                        shard.metas[int(j)],
                    )
                    for j, score in zip(selected, scored)
                ]

        self._run_fanout(probe_shard, len(positions))
        results: List[List[Hit]] = []
        for qi in range(num_q):
            merged = [item for per_shard in candidates[qi] for item in per_shard]
            best = sorted(merged) if k is None else heapq.nsmallest(k, merged)
            results.append(
                [
                    Hit(index, -neg_score, dict(meta), key)
                    for neg_score, key, index, meta in best
                ]
            )
        return results

    def topk(
        self,
        graph: Optional[ProgramGraph] = None,
        k: Optional[int] = None,
        *,
        embedding: Optional[np.ndarray] = None,
        shards: Optional[Sequence[int]] = None,
        mode: str = "exact",
        nprobe: int = 8,
    ) -> List[Hit]:
        """Top-k entries by descending score (all entries when k is None).

        ``mode="exact"`` (default) scores every entry; ``mode="ann"``
        prunes to the ``nprobe`` best coarse-quantizer cells first (needs
        a trained quantizer; incompatible with ``shards=``).  ``Hit.index``
        is the position within the scored entry set: global when
        ``shards`` is None, shard-subset-relative otherwise.
        """
        if embedding is not None:
            embedding = np.asarray(embedding, dtype=np.float32).reshape(1, -1)
        return self.topk_batch(
            None if graph is None else [graph],
            k,
            embeddings=embedding,
            shards=shards,
            mode=mode,
            nprobe=nprobe,
        )[0]

    def topk_batch(
        self,
        graphs: Optional[Sequence[ProgramGraph]] = None,
        k: Optional[int] = None,
        *,
        embeddings: Optional[np.ndarray] = None,
        batch_size: int = 32,
        shards: Optional[Sequence[int]] = None,
        mode: str = "exact",
        nprobe: int = 8,
    ) -> List[List[Hit]]:
        """Per-query top-k hit lists for Q queries in one batched pass.

        See :meth:`topk` for the ``mode`` / ``nprobe`` contract.
        """
        validate_k(k)
        validate_mode(mode, nprobe)
        if mode == "ann":
            if shards is not None:
                raise ValueError(
                    "mode='ann' always scores against the whole corpus; "
                    "drop shards= or use mode='exact'"
                )
            return self._ann_topk_batch(graphs, embeddings, k, batch_size, nprobe)
        scores, flat = self._scored_batch(graphs, embeddings, batch_size, shards)
        return [
            ranked_hits(row, flat.keys, flat.metas, k, flat.order) for row in scores
        ]


#: The loader behind the CLI and the serve workers: anything but an index
#: directory (a model checkpoint, an old single-file ``.npz`` index) raises
#: ``ValueError`` saying it is not a sharded index.
open_index = ShardedEmbeddingIndex.open

#: The in-memory index: a directory-less :class:`ShardedEmbeddingIndex`
#: whose shards are all resident (``EmbeddingIndex(trainer,
#: query_cache_size=256)``).
EmbeddingIndex = ShardedEmbeddingIndex.in_memory

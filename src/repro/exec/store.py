"""Content-addressed on-disk store for *trained* models.

Mirrors :class:`repro.artifacts.ArtifactStore`, one level up the stack:
entries are finished :class:`~repro.core.trainer.MatchTrainer` checkpoints
(weights + tokenizer + optimizer moments, via ``MatchTrainer.save_bytes``'s
pickle-free ``.npz``) addressed by an experiment fingerprint computed in
:mod:`repro.exec.runner`.  Both stores share the entry format and body of
:mod:`repro.utils.fsio`: atomic ``mkstemp`` + ``os.replace`` commits, so
parallel grid workers share one store without locks, and a
``payload_sha256`` recorded in every checkpoint's metadata, checked by
``verify_reads`` / ``REPRO_VERIFY_READS=1`` and ``repro fsck``.
Unreadable or mismatched entries are misses, never errors — counted in
``read_errors`` when the entry exists but cannot be read, so faults stay
observable.  Checkpoints without a checksum (written before it existed)
still load on default reads; under ``verify_reads`` they are read errors.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.core.trainer import MatchTrainer
from repro.nn.serialize import read_checkpoint, read_meta
from repro.utils.fsio import READ_ERRORS, EntryStore, entry_paths

PathLike = Union[str, Path]

# Pins the trainer implementation in every experiment fingerprint: bump
# when training semantics change observably (optimizer math, batching,
# early-stopping rule), so stale cached models miss instead of serving
# results the current code would not produce.
RUNNER_VERSION = "train-1"


class ModelStore(EntryStore):
    """Directory of content-addressed trained-model checkpoints.

    ``get``/``put`` speak :class:`MatchTrainer`; ``hits``/``misses`` count
    lookups for reporting (the ``experiment`` CLI and ``bench_train``
    print them).  Layout, counters, ``get``'s miss accounting,
    ``verify_reads`` and the orphan-temp sweep come from
    :class:`~repro.utils.fsio.EntryStore`.
    """

    SITE = "models"

    def path_for(self, fingerprint: str) -> Path:
        """Entry path: two-hex-char shard directory + full fingerprint."""
        return self._entry_path(fingerprint)

    # -------------------------------------------------------------- write
    def put(self, fingerprint: str, trainer: MatchTrainer, meta: dict) -> Path:
        """Persist a trained model; atomic, safe under concurrent writers.

        ``meta`` is stored under the checkpoint's ``experiment`` key — the
        runner records the fingerprint, spec name, report summary and
        timing there; ``get`` validates the fingerprint on the way back.
        """
        experiment = {**meta, "fingerprint": fingerprint}
        return self.put_bytes(
            fingerprint, trainer.save_bytes(extra_meta={"experiment": experiment})
        )

    def put_bytes(self, fingerprint: str, payload: bytes) -> Path:
        """Persist an already-serialized checkpoint (``MatchTrainer.save_bytes``).

        The one model writer: grid results land here too, since pool
        workers ship checkpoint bytes over a pipe and only the parent ever
        writes the store.
        """
        return self._commit(self.path_for(fingerprint), lambda fh: fh.write(payload))

    # --------------------------------------------------------------- read
    def _load(
        self, path: Path, fingerprint: str
    ) -> Optional[Tuple[MatchTrainer, dict]]:
        """Restore one checkpoint and its ``experiment`` metadata; ``None``
        when it records another fingerprint.

        One read of the archive serves the checksum, the fingerprint check,
        the model and the metadata; no model is built for another
        fingerprint's entry.
        """
        meta, state, extra = read_checkpoint(path, verify=self.verify_reads)
        meta = MatchTrainer.require_meta(meta, path)
        experiment = meta.get("experiment", {})
        if experiment.get("fingerprint") != fingerprint:
            return None
        return MatchTrainer.from_checkpoint(meta, state, extra), experiment

    def get_with_meta(self, fingerprint: str) -> Optional[Tuple[MatchTrainer, dict]]:
        """:meth:`get` plus the entry's ``experiment`` metadata, from one read."""
        return super().get(fingerprint)

    def get(self, fingerprint: str) -> Optional[MatchTrainer]:
        """The stored trainer for ``fingerprint``, or ``None`` on any miss."""
        found = self.get_with_meta(fingerprint)
        return None if found is None else found[0]

    @staticmethod
    def read_meta(path: PathLike) -> dict:
        """The ``experiment`` metadata of one stored checkpoint."""
        meta = read_meta(str(path)) or {}
        return meta.get("experiment", {})

    def entries(self) -> List[dict]:
        """Experiment metadata of every stored checkpoint (for ``list``)."""
        out = []
        for path in entry_paths(self.root):
            try:
                meta = self.read_meta(path)
            except READ_ERRORS:
                # Listing is a survey, not a health check: unreadable
                # entries are skipped here and diagnosed by `repro fsck`.
                continue
            meta = dict(meta)
            meta["path"] = str(path)
            meta["bytes"] = path.stat().st_size
            out.append(meta)
        return out

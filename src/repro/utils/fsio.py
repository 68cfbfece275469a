"""The one on-disk entry format and commit path shared by every store.

The artifact store, the model store and the sharded index all persist
files the same way: write a ``mkstemp`` temp file in the destination
directory, commit it with ``os.replace`` (routed through
:func:`repro.faults.replace`, the fault layer's commit chokepoint), and
remove the temp on any failure.  :func:`commit` is that sequence, the
only one in the repo.  No fsync: a commit is atomic against a crashed
process, not against power loss.

Store entries (compiled artifacts and model checkpoints alike) are one
``.npz`` each, whose ``__meta_json__`` member records ``payload_sha256``
over every other array (:func:`write_entry`).  :func:`verify_payload`
checks it; an entry without one is treated as corrupt wherever a checksum
is checked (``verify_reads`` and ``repro fsck``), never as unverifiable.
:class:`EntryStore` is the body both stores share: the two-hex directory
layout, counters, the orphan-temp sweep on open, and hit/miss/read-error
accounting on ``get``.  A writer killed between write and rename leaves
its temp file behind; :func:`sweep_orphan_tmps` reclaims it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import zipfile
import zlib
from pathlib import Path
from typing import Callable, Mapping, Optional, Union

import numpy as np

from repro import faults

PathLike = Union[str, Path]

#: Archive member holding an entry's JSON metadata (a uint8 array).
_META_KEY = "__meta_json__"

#: Everything a failed entry read can raise: IO faults (incl. injected
#: ones — :class:`repro.faults.InjectedFault` is an ``OSError``),
#: truncated/invalid zip containers, damaged deflate streams of
#: compressed checkpoints, bad JSON, checksum mismatches or schema drift
#: inside the payload.  Deliberately NOT a bare
#: ``Exception``: a genuinely novel failure should surface, not be
#: absorbed as a cache miss.
READ_ERRORS = (
    OSError,
    EOFError,
    ValueError,  # includes json.JSONDecodeError and numpy parse errors
    KeyError,
    IndexError,
    TypeError,
    zipfile.BadZipFile,
    zlib.error,
)

#: Temp-file name patterns writers produce (:func:`commit`'s ``.tmp``
#: suffix, and the ``.tmp.npz`` of older model-store writers).
TMP_PATTERNS = ("*.tmp", "*.tmp.npz")

#: Default age before an orphaned temp file is eligible for sweeping.
#: Real writes hold a temp file for milliseconds; an hour-old one can
#: only belong to a dead writer.
TMP_SWEEP_AGE_SECONDS = 3600.0


def env_verify_reads() -> bool:
    """True when ``REPRO_VERIFY_READS`` asks every store to verify on read.

    One switch for the whole process (and, via inherited environment, for
    spawned build/serve workers): any value other than empty/``0`` is on.
    """
    return os.environ.get("REPRO_VERIFY_READS", "") not in ("", "0")


def sha256_file(path: PathLike, chunk_bytes: int = 1 << 20) -> str:
    """Hex sha256 of a file's bytes, read in bounded chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                return digest.hexdigest()
            digest.update(chunk)


def commit(
    path: PathLike,
    write: Callable,
    site: str,
    *,
    write_fault: bool = True,
    digest: bool = False,
) -> Optional[str]:
    """Atomically write ``path`` via ``write(fh)``; the repo's one commit path.

    A ``mkstemp`` temp in the destination directory is written, then
    renamed into place through :func:`repro.faults.replace` (fault site
    ``{site}.replace``); the temp is removed on any failure.
    ``write_fault`` fires ``{site}.write`` before writing.  With
    ``digest`` the temp's sha256 is returned, hashed *before* the rename,
    so a commit-time fault that damages the file disagrees with the
    recorded hash instead of blessing the damage.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if write_fault:
                faults.hit(f"{site}.write")
            write(handle)
        sha = sha256_file(tmp) if digest else None
        faults.replace(tmp, path, site)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return sha


# ------------------------------------------------------------ entries
def payload_sha256(arrays: Mapping[str, np.ndarray]) -> str:
    """Content hash over an entry's arrays (name + dtype + shape + bytes).

    The metadata member is excluded — the hash lives *inside* it — so the
    digest covers exactly the payload a reader reconstructs results from.
    Array order does not matter (names are hashed sorted).
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        if name == _META_KEY:
            continue
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(arr.dtype.str.encode("ascii"))
        digest.update(repr(tuple(arr.shape)).encode("ascii"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def write_entry(
    handle, arrays: Mapping[str, np.ndarray], meta: dict, compressed: bool = False
) -> None:
    """Write one entry: ``arrays`` plus ``meta`` with ``payload_sha256``."""
    meta = {**meta, "payload_sha256": payload_sha256(arrays)}
    members = dict(arrays)
    members[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    (np.savez_compressed if compressed else np.savez)(handle, **members)


def entry_meta(archive) -> dict:
    """The decoded ``__meta_json__`` member of an open entry archive."""
    return json.loads(
        bytes(np.asarray(archive[_META_KEY]).tobytes()).decode("utf-8")
    )


def verify_payload(archive: Mapping[str, np.ndarray], meta: dict) -> None:
    """Raise ``ValueError`` unless the archive hashes to its ``payload_sha256``.

    ``archive`` is an open entry or its members already read into a dict.
    """
    recorded = meta.get("payload_sha256")
    if recorded is None:
        raise ValueError("no recorded checksum (older format); rebuild/retrain")
    actual = payload_sha256(archive)
    if actual != recorded:
        raise ValueError(
            f"payload checksum mismatch (recorded {recorded[:12]}…, "
            f"actual {actual[:12]}…)"
        )


def read_verified_meta(path: PathLike) -> dict:
    """Open one entry, verify its payload checksum, return its metadata.

    Raises one of :data:`READ_ERRORS` when the entry is unreadable, has
    no recorded checksum, or does not match it.
    """
    with np.load(str(path)) as archive:
        meta = entry_meta(archive)
        verify_payload(archive, meta)
    return meta


def entry_paths(root: PathLike) -> list:
    """A store's entries, sorted, excluding dot-prefixed writer temps
    (pathlib's ``*`` matches dotfiles, and a killed writer can leave one)."""
    return sorted(p for p in Path(root).glob("*/*.npz") if not p.name.startswith("."))


class EntryStore:
    """Directory of checksummed ``.npz`` entries under two-hex shard dirs.

    Subclasses name their fault-site prefix in ``SITE`` (sites
    ``{SITE}.put.write``/``.replace`` and ``{SITE}.get.read``), map keys
    to paths in ``path_for``, decode entries in ``_load`` and write them
    through ``_commit``; ``hits``/``misses``/``read_errors`` count
    :meth:`get` lookups for reporting.
    """

    SITE = ""

    def __init__(
        self,
        root: PathLike,
        verify_reads: bool = False,
        sweep_age_seconds: float = TMP_SWEEP_AGE_SECONDS,
    ):
        """Open (creating if needed) the store at ``root``.

        ``verify_reads`` checks each entry's ``payload_sha256`` on ``get``
        and treats a mismatch or a missing checksum as a read error (also
        switchable store-wide via ``REPRO_VERIFY_READS=1``).  Opening
        sweeps temp files older than ``sweep_age_seconds`` left by
        crashed writers.
        """
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.verify_reads = verify_reads or env_verify_reads()
        self.hits = 0
        self.misses = 0
        self.read_errors = 0
        self.swept_tmps = sweep_orphan_tmps(self.root, sweep_age_seconds)

    def _entry_path(self, name: str) -> Path:
        """Entry path: two-hex-char shard directory + full name."""
        return self.root / name[:2] / (name + ".npz")

    def path_for(self, key) -> Path:
        """Where ``key``'s entry lives."""
        raise NotImplementedError

    def __contains__(self, key) -> bool:
        """True when an entry exists on disk (no validation, no counters)."""
        return self.path_for(key).exists()

    def __len__(self) -> int:
        """Number of stored entries."""
        return sum(1 for _ in entry_paths(self.root))

    def size_bytes(self) -> int:
        """Total on-disk size of all entries."""
        return sum(p.stat().st_size for p in entry_paths(self.root))

    def _commit(self, path: Path, write: Callable) -> Path:
        """Atomically write one entry via ``write(fh)`` (sites ``{SITE}.put.*``)."""
        commit(path, write, f"{self.SITE}.put")
        return path

    def _load(self, path: Path, key):
        """Decode ``key``'s entry at ``path``; ``None`` when it holds another
        key.  Raises one of :data:`READ_ERRORS` when it cannot be read."""
        raise NotImplementedError

    def get(self, key):
        """Load ``key``'s entry, or ``None`` on any miss (absent, corrupt, stale).

        Misses stay misses by contract — the caller recomputes — but an
        entry that *exists* and fails to read (IO fault, truncated zip,
        bad JSON, schema drift, checksum failure under ``verify_reads``)
        also bumps ``read_errors``, so corruption is never silently
        absorbed.
        """
        try:
            faults.hit(f"{self.SITE}.get.read")
            result = self._load(self.path_for(key), key)
        except FileNotFoundError:
            # Plain absence: the ordinary cold-cache miss.
            self.misses += 1
            return None
        except READ_ERRORS:
            self.read_errors += 1
            self.misses += 1
            return None
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def stats(self) -> dict:
        """Counters + on-disk footprint for status displays."""
        return {
            "root": str(self.root),
            "entries": len(self),
            "bytes": self.size_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "read_errors": self.read_errors,
            "swept_tmps": self.swept_tmps,
        }


# -------------------------------------------------------- orphan temps
def find_orphan_tmps(
    root: PathLike, max_age_seconds: float = TMP_SWEEP_AGE_SECONDS
) -> list:
    """Temp files under ``root`` older than ``max_age_seconds``.

    Age-gated so a live writer's in-flight temp (held for milliseconds)
    is never a candidate; ``max_age_seconds <= 0`` matches every temp
    (what ``repro fsck`` uses to report fresh residue without deleting
    it).  Files that vanish mid-scan (a concurrent writer committing or
    cleaning up) are skipped, not errors.
    """
    now = time.time()
    out = []
    for pattern in TMP_PATTERNS:  # disjoint: no path matches both
        for path in Path(root).rglob(pattern):
            try:
                age = now - path.stat().st_mtime
            except OSError:  # racing writer committed/cleaned it up
                continue
            if age >= max_age_seconds:
                out.append(path)
    return sorted(out)


def sweep_orphan_tmps(
    root: PathLike, max_age_seconds: float = TMP_SWEEP_AGE_SECONDS
) -> int:
    """Delete aged-out orphan temp files under ``root``; returns the count.

    Every store calls this on open so crashed writers cannot accumulate
    garbage forever (a writer killed between write and rename leaves its
    temp behind — this is the matching reclaim path).
    """
    swept = 0
    for path in find_orphan_tmps(root, max_age_seconds):
        try:
            path.unlink()
        except OSError:  # racing sweeper or writer; the file is gone either way
            continue
        swept += 1
    return swept

"""POSIX shared-memory blocks with explicit, leak-checkable lifetimes.

Thin wrapper over :class:`multiprocessing.shared_memory.SharedMemory`
fixing the two behaviors that make the stdlib class awkward for a
parent-owns / workers-attach pool:

* **Naming** — every segment is named ``repro-shm-<hex>``, so hygiene
  tests (and a worried operator) can scan ``/dev/shm`` for leftovers with
  one glob instead of guessing which ``psm_*`` entries are ours.
* **Resource tracking** — every attacher here is a ``multiprocessing``
  child sharing the parent's ``resource_tracker`` process, so the
  stdlib's attach-time registration lands in the same tracker set the
  creator already occupies: a harmless no-op, and the tracker doubles as
  a crash backstop (a killed parent's tracker unlinks the segment at
  shutdown).  Never unregister an attach from a child — the shared
  tracker would drop the *owner's* claim with it.

The owner calls :meth:`unlink` (idempotent) when the segment's consumers
are done; :func:`leaked_segments` is the test-facing audit.
"""

from __future__ import annotations

import os
from typing import List

#: Every segment this module creates starts with this (see /dev/shm).
SHM_PREFIX = "repro-shm-"

#: Where Linux exposes POSIX shared memory as files (for audits only —
#: the blocks themselves go through the shared_memory API).
SHM_DIR = "/dev/shm"


class SharedBlock:
    """One owned or attached shared-memory segment.

    Create with :meth:`create` (owner) or :meth:`attach` (worker); the
    payload is :attr:`buf`, a writable memoryview of ``nbytes`` bytes.
    ``close()`` drops this process's mapping; ``unlink()`` (owner only,
    but safe anywhere) removes the segment system-wide.
    """

    def __init__(self, shm, nbytes: int, owner: bool):  # noqa: D107
        self._shm = shm
        self.nbytes = int(nbytes)
        self.owner = bool(owner)
        self._unlinked = False

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(cls, nbytes: int) -> "SharedBlock":
        """Allocate a fresh ``repro-shm-*`` segment of ``nbytes`` bytes."""
        from multiprocessing import shared_memory

        if nbytes <= 0:
            raise ValueError(f"shared block size must be > 0, got {nbytes}")
        while True:
            name = SHM_PREFIX + os.urandom(8).hex()
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
            except FileExistsError:
                continue  # astronomically unlikely; draw another name
            return cls(shm, nbytes, owner=True)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SharedBlock":
        """Allocate a segment holding ``payload`` (sized exactly to it)."""
        block = cls.create(len(payload))
        block.buf[: len(payload)] = payload
        return block

    @classmethod
    def attach(cls, name: str, nbytes: int) -> "SharedBlock":
        """Map an existing segment created by the owning (parent) process.

        Attachers are ``multiprocessing`` children of the owner, so the
        stdlib's attach-time tracker registration is a no-op on the shared
        resource tracker (the name is already in its set) — and must stay
        that way: unregistering here would drop the owner's claim too.
        """
        from multiprocessing import shared_memory

        return cls(shared_memory.SharedMemory(name=name), nbytes, owner=False)

    # ------------------------------------------------------------- payload
    @property
    def name(self) -> str:
        """The segment name (what :meth:`attach` needs)."""
        return self._shm.name

    @property
    def buf(self) -> memoryview:
        """Writable view of the first ``nbytes`` bytes.

        The kernel may round the mapping up to a page multiple; slicing to
        the recorded payload size keeps ``bytes(block.buf)`` exact.
        """
        return self._shm.buf[: self.nbytes]

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment system-wide (idempotent; owner's duty)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass  # boundary: already gone (crash backstop beat us to it)


def leaked_segments(prefix: str = SHM_PREFIX) -> List[str]:
    """Names of live ``/dev/shm`` segments matching ``prefix`` (for tests)."""
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:
        return []  # boundary: no /dev/shm (non-Linux) — nothing to audit
    return sorted(e for e in entries if e.startswith(prefix))


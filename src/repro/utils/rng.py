"""Deterministic random-number management.

Every stochastic component in the reproduction (dataset generation, weight
initialization, dropout, pair sampling) draws from a ``numpy.random.Generator``
derived from a named seed sequence.  Experiments are therefore reproducible
bit-for-bit for a fixed root seed, which the paper's evaluation protocol
implicitly assumes (fixed train/valid/test splits).
"""

from __future__ import annotations

import hashlib

import numpy as np


def _hash_name(name: str) -> int:
    """Map an arbitrary string to a stable 64-bit integer."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, *names: object) -> np.random.Generator:
    """Return a generator derived deterministically from ``seed`` and ``names``.

    ``names`` may mix strings and integers; the same arguments always produce
    the same stream, and distinct arguments produce statistically independent
    streams (via ``numpy``'s ``SeedSequence`` spawning).
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for name in names:
        if isinstance(name, (int, np.integer)):
            entropy.append(int(name) & 0xFFFFFFFFFFFFFFFF)
        else:
            entropy.append(_hash_name(str(name)))
    return np.random.default_rng(np.random.SeedSequence(entropy))


class SeedSequence:
    """A forkable, named seed tree.

    ``SeedSequence(42).child("dataset").child("task", 3).rng()`` is stable
    across runs and platforms.  Used to give each subsystem (front-end,
    codegen, trainer, ...) an independent reproducible stream.
    """

    def __init__(self, seed: int, path: tuple = ()):  # noqa: D107
        self.seed = int(seed)
        self.path = tuple(path)

    def child(self, *names: object) -> "SeedSequence":
        """Return a sub-sequence extended by ``names``."""
        return SeedSequence(self.seed, self.path + tuple(names))

    def rng(self) -> np.random.Generator:
        """Materialize a numpy generator for this node of the seed tree."""
        return derive_rng(self.seed, *self.path)

    def integer(self, high: int = 2**31 - 1) -> int:
        """Draw a single deterministic integer in ``[0, high)``."""
        return int(self.rng().integers(0, high))

    def __repr__(self) -> str:
        return f"SeedSequence(seed={self.seed}, path={self.path!r})"

"""Shared utilities: deterministic RNG, stats and timing, table rendering."""

from repro.utils.rng import SeedSequence, derive_rng, global_rng, set_global_seed
from repro.utils.tables import Table, format_float
from repro.utils.timing import Stats, timed

__all__ = [
    "SeedSequence",
    "derive_rng",
    "global_rng",
    "set_global_seed",
    "Table",
    "format_float",
    "Stats",
    "timed",
]

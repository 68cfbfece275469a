"""The one stats mechanism: named counters and wall-clock spans.

The hpc-parallel guides' first rule is *no optimization without measuring*;
:class:`Stats` gives every pipeline stage a cheap, always-on wall-clock
probe and the serving tier its live counters, without pulling in a
profiler dependency.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator


class Stats:
    """Named counts and span totals behind one lock, safe to share.

    :meth:`inc` bumps a counter; :meth:`span` adds a block's wall clock to
    ``totals[name]`` and counts the block in ``counts[name]``.  Names
    declared at construction start at 0, so every :meth:`snapshot`
    carries them, zeros included.

    >>> stats = Stats(["requests"])
    >>> with stats.span("lowering"):
    ...     pass
    >>> sorted(stats.snapshot())
    ['lowering', 'requests']
    """

    def __init__(self, counters: Iterable[str] = ()) -> None:  # noqa: D107
        self.counts: Dict[str, int] = dict.fromkeys(counters, 0)
        self.totals: Dict[str, float] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager that adds the elapsed time to bucket ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.totals[name] = self.totals.get(name, 0.0) + elapsed
                self.counts[name] = self.counts.get(name, 0) + 1

    def snapshot(self) -> Dict[str, int]:
        """A detached copy of every count, taken in one hold of the lock."""
        with self._lock:
            return dict(self.counts)

    def report(self) -> str:
        """Render the accumulated spans as an aligned text block."""
        with self._lock:
            totals, counts = dict(self.totals), dict(self.counts)
        if not totals:
            return "(no spans recorded)"
        width = max(len(k) for k in totals)
        lines = []
        for name in sorted(totals, key=totals.get, reverse=True):
            lines.append(f"{name:<{width}}  {totals[name]:9.4f}s  x{counts[name]}")
        return "\n".join(lines)


@contextmanager
def timed(label: str, sink: Callable[[str], None] = print) -> Iterator[None]:
    """Print the wall-clock duration of a block: ``with timed("train"): ...``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        sink(f"[{label}] {time.perf_counter() - start:.3f}s")

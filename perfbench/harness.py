"""Pure helpers of the benchmark: statistics, schedules, tracing, host facts.

Nothing here imports the program under test, so the helpers are unit-tested
on their own (``perfbench/tests``) and the workloads share one definition of
each rule:

* :func:`supported_percentile` — the highest percentile a sample supports
  (at least ten samples beyond it);
* :func:`interquartile_rate` — throughput robust to short CPU stalls;
* :func:`open_loop_schedule` — seeded arrival offsets at a fixed rate;
* :func:`repeat_share` — how many inputs repeat an earlier one;
* :func:`same_answer` — top-k responses equal up to score rounding;
* :class:`Outcomes` — sent / succeeded / shed / failed / mismatched counts;
* :class:`Tracer` — in-memory spans with self time (span minus children);
* :func:`probes` — spans wrapped around a program's own callables, in place.
"""

from __future__ import annotations

import math
import os
import platform
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

#: Percentiles a latency report may name, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: BLAS / OpenMP thread pins set on every process the benchmark starts and
#: on itself: two cores host the server, its workers and the load
#: generator, so library thread pools would only oversubscribe them.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


# ------------------------------------------------------------ statistics
def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ``p``% at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p: float, n: int) -> int:
    # 1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def supported_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond it.

    ``None`` when not even the median has that many samples above it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        # Samples strictly above the nearest-rank position of p.
        beyond = n - _rank(p, n) if n else 0
        if beyond >= MIN_BEYOND:
            best = p
    return best


def latency_summary(seconds: Sequence[float]) -> dict:
    """Median, p95 and the highest supported percentile of a latency sample (ms)."""
    ms = [1000.0 * s for s in seconds]
    top = supported_percentile(len(ms))
    return {
        "samples": len(ms),
        "p50_ms": percentile(ms, 50.0) if ms else float("nan"),
        "p95_ms": percentile(ms, 95.0) if ms else float("nan"),
        "p95_supported": top is not None and top >= 95.0,
        "highest_supported_percentile": top,
        "highest_supported_ms": percentile(ms, top) if top else None,
        "mean_ms": sum(ms) / len(ms) if ms else float("nan"),
    }


def interquartile_rate(stamps: Sequence[float], start: float, end: float,
                       width: float) -> float:
    """Completions per second: the interquartile mean over ``width``-second windows.

    ``stamps`` are completion times; only the whole windows in
    ``[start, end)`` count.  The windows' completion counts are sorted, a
    quarter of them (rounded down) dropped from each end, and the rest
    averaged.  On a shared host, neighbours steal the CPU in bursts of a
    second or so: completions over a whole phase divided by its length
    move with every burst, while this mean ignores bursts that cover less
    than a quarter of the windows.
    """
    if width <= 0:
        raise ValueError(f"width must be > 0, got {width}")
    windows = int((end - start) // width)
    if windows < 1:
        raise ValueError(f"[{start}, {end}) holds no {width}s window")
    counts = [0] * windows
    for t in stamps:
        slot = (t - start) // width
        if 0 <= slot < windows:
            counts[int(slot)] += 1
    trim = windows // 4
    middle = sorted(counts)[trim:windows - trim]
    return sum(middle) / len(middle) / width


# ------------------------------------------------------------- schedules
def open_loop_schedule(rate: float, count: int, seed: int) -> List[float]:
    """Send offsets (seconds from phase start) for ``count`` arrivals.

    Paced arrivals: request ``i`` is due at ``(i + 0.5 + u) / rate`` with a
    seeded jitter ``u`` in ``[-0.4, 0.4]``, so the order never changes and
    the rate is exact.  Poisson arrivals would add bursts whose queueing
    amplifies host noise into the tail: on a shared 2-core host the same
    Poisson schedule gave p95 latencies 29% apart run to run, paced ones
    10%.  The fixed count keeps every run's sample size, and so its
    supported percentile, the same.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    return [(i + 0.5 + rng.uniform(-0.4, 0.4)) / rate for i in range(count)]


# --------------------------------------------------------- input sharing
def repeat_share(keys: Sequence[str], history: Iterable[str] = ()) -> float:
    """Share of ``keys`` already seen — in ``history`` or earlier in ``keys``."""
    if not keys:
        return 0.0
    seen = set(history)
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats / len(keys)


# ------------------------------------------------------ answer checking
def same_answer(got: dict, want: dict, tol: float) -> bool:
    """Whether two top-k responses agree up to score rounding of ``tol``.

    Every field but the hits must be equal.  The hits must have the same
    ranks, scores within ``tol`` rank by rank, and the same candidates,
    except that candidates whose scores differ by at most ``tol`` may swap
    places, and one scoring within ``tol`` of the last hit may take its
    place in the list.
    """
    rest = {k: v for k, v in got.items() if k != "hits"}
    if rest != {k: v for k, v in want.items() if k != "hits"}:
        return False
    a, b = got.get("hits"), want.get("hits")
    if a is None or b is None:
        return a is b
    if len(a) != len(b) or any(x["rank"] != y["rank"] or abs(x["score"] - y["score"]) > tol
                               for x, y in zip(a, b)):
        return False

    def covered(hits, others) -> bool:
        scores = {_identity(h): h["score"] for h in others}
        last = others[-1]["score"] if others else 0.0
        return all(abs(scores.get(_identity(h), math.inf) - h["score"]) <= tol
                   or abs(h["score"] - last) <= tol for h in hits)

    return covered(a, b) and covered(b, a)


def _identity(hit: dict) -> str:
    return repr((hit["index"], hit.get("key"), hit.get("meta")))


# ------------------------------------------------------ failure counting
@dataclass
class Outcomes:
    """Operation outcomes of one phase.

    A shed (``overloaded``) response, an error response, a missing response
    and an answer that differs from the reference each count as failed
    against the operations attempted.
    """

    sent: int = 0
    succeeded: int = 0
    shed: int = 0
    failed: int = 0
    mismatched: int = 0

    def record(self, response: Optional[dict]) -> None:
        """Count one response (``None`` = never answered)."""
        if response is None:
            self.failed += 1
        elif "error" in response:
            if response["error"] == "overloaded":
                self.shed += 1
            else:
                self.failed += 1
        else:
            self.succeeded += 1

    def mismatch(self, count: int) -> None:
        """Mark answered operations whose result differs from the reference."""
        self.mismatched += count

    @property
    def bad(self) -> int:
        """Operations that failed, were shed or answered wrongly."""
        return self.failed + self.shed + self.mismatched

    @property
    def error_rate(self) -> float:
        """Bad operations over operations attempted (0 when none were)."""
        return self.bad / self.sent if self.sent else 0.0

    def as_dict(self) -> dict:
        """Counts plus the error rate, for the run record."""
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "shed": self.shed,
            "failed": self.failed,
            "mismatched": self.mismatched,
            "error_rate": self.error_rate,
        }


# ---------------------------------------------------------------- tracing
@dataclass
class _Span:
    start: float
    child_seconds: float = 0.0


@dataclass
class Tracer:
    """Nested in-memory spans; per-name self time and call counts.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the wall time the
    outermost spans cover.  Inside an *opaque* span no other span is
    recorded: all of its time is its own.  Single-threaded: spans opened
    from other threads would corrupt the stack.
    """

    self_seconds: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    #: Values recorded by probes with ``keep`` set, per span name.
    kept: Dict[str, List[Any]] = field(default_factory=dict)
    _stack: List[_Span] = field(default_factory=list)
    _opaque: int = 0

    @contextmanager
    def span(self, name: str, opaque: bool = False) -> Iterator[None]:
        """Time the enclosed block as one call of ``name``."""
        if self._opaque:
            yield
            return
        node = _Span(time.perf_counter())
        self._stack.append(node)
        self._opaque += opaque
        try:
            yield
        finally:
            self._opaque -= opaque
            duration = time.perf_counter() - node.start
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_seconds += duration
            self.self_seconds[name] = (
                self.self_seconds.get(name, 0.0) + duration - node.child_seconds
            )
            self.calls[name] = self.calls.get(name, 0) + 1

    def total(self, exclude: Sequence[str] = ()) -> float:
        """Summed self time over every span name not in ``exclude``."""
        return sum(s for n, s in self.self_seconds.items() if n not in exclude)


@dataclass(frozen=True)
class Probe:
    """A span around one callable attribute of a class or module."""

    owner: Any  # the class or module whose attribute is called
    attr: str
    span: str
    #: Record no span inside this one (its callees run unprobed).
    opaque: bool = False
    #: When set, ``keep(result)`` of every call lands in ``Tracer.kept``.
    keep: Optional[Callable[[Any], Any]] = None


@contextmanager
def probes(tracer: Tracer, targets: Sequence[Probe]) -> Iterator[None]:
    """Replace each target callable by a spanned wrapper; restore on exit.

    The program runs its own code: a wrapper only opens a span and calls
    the original.  Callers that look the attribute up at call time (a
    method through its class, a function through its module's globals)
    reach the wrapper; an inherited method is wrapped on the named class
    and the wrapper removed again afterwards.
    """
    saved = []
    try:
        for probe in targets:
            # The attribute as stored on the owner (None when inherited),
            # so restoring puts back exactly what was there.
            saved.append((probe, vars(probe.owner).get(probe.attr)))
            original = getattr(probe.owner, probe.attr)
            setattr(probe.owner, probe.attr, _spanned(tracer, probe, original))
        yield
    finally:
        for probe, stored in reversed(saved):
            if stored is None:
                delattr(probe.owner, probe.attr)
            else:
                setattr(probe.owner, probe.attr, stored)


def _spanned(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(probe.span, probe.opaque):
            result = original(*args, **kwargs)
        if probe.keep is not None:
            tracer.kept.setdefault(probe.span, []).append(probe.keep(result))
        return result

    wrapper.__wrapped__ = original
    return wrapper


# ------------------------------------------------------------ host facts
def pin_threads(env: Optional[dict] = None) -> dict:
    """Apply :data:`THREAD_PINS` to ``env`` (default: this process)."""
    target = os.environ if env is None else env
    target.update(THREAD_PINS)
    return target


def rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (``VmHWM``) of live ``pids``, in MiB.

    Read from ``/proc/<pid>/status``; processes that exited in between are
    skipped.
    """
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def process_tree(root: int) -> List[int]:
    """``root`` plus every live descendant, found by scanning ``/proc``."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(parents.get(pid, []))
    return tree


def host_record(root: str, seed: int, workers: int) -> dict:
    """Host, interpreter, library and run facts for the run record."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # older NumPy has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "git_rev": git_rev(root),
        "seed": seed,
        "workers": workers,
        "thread_pins": dict(THREAD_PINS),
        "argv": sys.argv[1:],
    }


def git_rev(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"

"""The serving program as its own process, and the load generator that drives it.

:class:`ServerProcess` runs ``python -m repro serve --socket`` exactly as a
user would and watches it from outside (``/proc`` for memory).
:class:`LoadClient` is the load generator: one process, two threads (the
caller's thread sends, one receiver thread reads) and two connections, so it
never takes more than the two cores' worth of threads the host has.  It runs
either an open loop (requests sent on a fixed schedule whatever the replies
do) or a bounded in-flight window (the saturation phase).
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from harness import pin_threads, process_tree, rss_mb

_READY = re.compile(r"serving on (\S+):(\d+)")

#: Seconds a server may take to report its address.
START_TIMEOUT = 120.0
#: Seconds each killed process of the server tree may take to exit.
STOP_TIMEOUT = 30.0
#: Client connections (the host's two cores: one per connection).
CONNECTIONS = 2
#: Seconds to wait for the replies still owed at the end of a phase.
REPLY_TIMEOUT = 90.0


class ServerProcess:
    """One ``repro serve --socket`` process tree (front end plus workers)."""

    def __init__(
        self,
        src_dir: Path,
        checkpoint: Path,
        index: Path,
        workers: int,
        log_path: Path,
        max_batch: int,
        queue_depth: int,
    ):  # noqa: D107
        self.args = [
            sys.executable, "-m", "repro", "serve", str(checkpoint), str(index),
            "--socket", "127.0.0.1:0",
            "--workers", str(workers),
            "--max-batch", str(max_batch),
            "--queue-depth", str(queue_depth),
        ]
        self.env = pin_threads(dict(os.environ, PYTHONPATH=str(src_dir)))
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        """Launch and block until the server reports its bound address."""
        # stderr goes to a file, not a pipe: nothing can block the server
        # on a full pipe buffer however much its workers print.
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.args, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            match = _READY.search(text)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return self.address
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited before serving:\n{text}")
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server not ready within {START_TIMEOUT:.0f}s")

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the server and all its workers."""
        return rss_mb(process_tree(self.proc.pid)) if self.proc else 0.0

    def stop(self) -> None:
        """Kill the front end and workers; let the resource tracker clean up.

        Shutdown is not measured, so the tree is killed rather than drained
        (a graceful SIGTERM idles ~10 s in the front end's accept-thread
        joins).  multiprocessing's resource tracker is left to notice its
        clients are gone: it unlinks their named semaphores, then exits.
        """
        if self.proc is None:
            return
        tree = process_tree(self.proc.pid)
        tracker = [pid for pid in tree if "resource_tracker" in _cmdline(pid)]
        for pid in tree:
            if pid not in tracker:
                _kill(pid)
        self.proc.wait(timeout=STOP_TIMEOUT)
        for pid in tree[1:]:
            _wait_gone(pid)
        self.proc = None


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def _wait_gone(pid: int) -> None:
    """Wait for ``pid`` to exit (a zombie counts); SIGKILL it at the deadline."""
    deadline = time.monotonic() + STOP_TIMEOUT
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return  # exited; holds no memory, its parent reaps it
        except OSError:
            return
        time.sleep(0.01)
    _kill(pid)


@dataclass
class Record:
    """One request's life: when it was due, sent and answered."""

    rid: str
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: Optional[dict] = None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send time to the reply."""
        return self.received - self.due


@dataclass
class PhaseResult:
    """Everything one load phase observed."""

    records: List[Record]
    started: float
    lateness: List[float] = field(default_factory=list)


class LoadClient:
    """Two connections, one sending thread (the caller's), one receiving thread."""

    def __init__(self, address: Tuple[str, int]):  # noqa: D107
        self.socks = [socket.create_connection(address, timeout=REPLY_TIMEOUT)
                      for _ in range(CONNECTIONS)]
        for sock in self.socks:
            sock.setblocking(False)
        self._waiting: Dict[str, Record] = {}
        self._cond = threading.Condition()
        self._closed = False
        self._receiver = threading.Thread(target=self._receive, name="load-rx",
                                          daemon=True)
        self._receiver.start()
        self._control = 0

    # --------------------------------------------------------- receiving
    def _receive(self) -> None:
        selector = selectors.DefaultSelector()
        buffers = {}
        for sock in self.socks:
            selector.register(sock, selectors.EVENT_READ)
            buffers[sock] = b""
        try:
            while not self._closed:
                for key, _ in selector.select(timeout=0.2):
                    sock = key.fileobj
                    try:
                        chunk = sock.recv(1 << 16)
                    except BlockingIOError:
                        continue
                    except OSError:
                        return
                    if not chunk:
                        selector.unregister(sock)
                        continue
                    now = time.perf_counter()
                    data = buffers[sock] + chunk
                    *lines, buffers[sock] = data.split(b"\n")
                    for line in lines:
                        self._deliver(json.loads(line), now)
        finally:
            selector.close()

    def _deliver(self, response: dict, now: float) -> None:
        with self._cond:
            record = self._waiting.pop(str(response.get("id")), None)
            if record is not None:
                record.received = now
                record.response = response
            self._cond.notify_all()

    # ----------------------------------------------------------- sending
    def _send(self, conn: int, record: Record, line: bytes) -> None:
        with self._cond:
            self._waiting[record.rid] = record
        record.sent = time.perf_counter()
        sock = self.socks[conn]
        view = memoryview(line)
        while view:
            try:
                n = sock.send(view)
            except BlockingIOError:
                # Sockets are non-blocking for the receiver's selector.
                time.sleep(0.0005)
                continue
            view = view[n:]

    def _drain(self, deadline: float) -> None:
        with self._cond:
            while self._waiting and time.perf_counter() < deadline:
                self._cond.wait(0.05)
            # Whatever is still waiting now never got an answer.
            self._waiting.clear()

    def open_loop(self, requests: Sequence[Tuple[str, bytes]],
                  offsets: Sequence[float]) -> PhaseResult:
        """Send request ``i`` at ``offsets[i]`` seconds, whatever replies do."""
        records, lateness = [], []
        start = time.perf_counter()
        for i, ((rid, line), offset) in enumerate(zip(requests, offsets)):
            due = start + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            record = Record(rid, due)
            self._send(i % len(self.socks), record, line)
            lateness.append(record.sent - due)
            records.append(record)
        self._drain(time.perf_counter() + REPLY_TIMEOUT)
        return PhaseResult(records, start, lateness)

    def windowed(self, requests: Sequence[Tuple[str, bytes]], window: int,
                 seconds: float, connections: int = 0) -> PhaseResult:
        """Keep ``window`` requests in flight for ``seconds`` (or until out).

        ``connections`` limits sending to the first N connections (0 = all).
        """
        conns = connections or len(self.socks)
        records = []
        start = time.perf_counter()
        for i, (rid, line) in enumerate(requests):
            with self._cond:
                while len(self._waiting) >= window:
                    self._cond.wait(0.05)
            now = time.perf_counter()
            if now - start >= seconds:
                break
            record = Record(rid, now)
            self._send(i % conns, record, line)
            records.append(record)
        self._drain(time.perf_counter() + REPLY_TIMEOUT)
        return PhaseResult(records, start)

    def control(self, command: str) -> dict:
        """A ``{"control": ...}`` request on the first connection, answered."""
        self._control += 1
        record = Record(f"control-{self._control}", time.perf_counter())
        line = json.dumps({"id": record.rid, "control": command}) + "\n"
        self._send(0, record, line.encode())
        self._drain(time.perf_counter() + REPLY_TIMEOUT)
        if record.response is None:
            raise RuntimeError(f"no answer to control {command!r}")
        return record.response

    def close(self) -> None:
        """Stop the receiver and close both connections."""
        self._closed = True
        self._receiver.join(timeout=5)
        for sock in self.socks:
            sock.close()

"""App factory: assemble front end + scheduler + worker pool into a service.

:func:`create_server` is the one construction point (the app-factory
shape: configuration in, fully wired `ConcurrentServer` out, nothing
global), used by ``repro serve --socket`` and by the concurrency tests
and load bench directly::

    config = ServerConfig(checkpoint="model.npz", index_path="index_dir",
                          host="127.0.0.1", port=0, workers=4)
    with create_server(config) as server:
        host, port = server.address
        ...

Request path: reader thread → :func:`parse_request` → admission
(:class:`MicroBatchScheduler`; full ⇒ immediate ``overloaded`` shed
response with ``retry_after_ms``) → micro-batch (at once while a worker
is idle) → least-loaded worker process → ordered per-connection
delivery.  Control requests (``{"control": "reload" | "stats"}``)
bypass the scheduler: ``reload`` flushes buffered queries (they are
served on the old index), hot-swaps every worker onto the re-read
manifest, and acks with worker counts; ``stats`` reports the live
counters.  The server owns one :class:`~repro.utils.timing.Stats` and
shares it with its scheduler and pool, so each event is counted in
exactly one place.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.index import validate_k
from repro.serve.core import parse_request, request_id_of
from repro.serve.frontend import Connection, SocketFrontend
from repro.serve.pool import POOL_COUNTERS, WorkerPool
from repro.serve.scheduler import SCHEDULER_COUNTERS, MicroBatchScheduler
from repro.utils.timing import Stats

#: Counters the server itself keeps; the scheduler's and pool's join them
#: in the one shared :class:`Stats`.
SERVER_COUNTERS = ("requests", "responses", "errors", "crashed_batches", "swaps")


@dataclass
class ServerConfig:
    """Everything the factory needs to wire a concurrent retrieval server."""

    checkpoint: str
    index_path: str
    host: str = "127.0.0.1"
    port: int = 0
    unix_socket: Optional[str] = None  # overrides host/port when set
    workers: int = 2
    max_batch: int = 8
    max_delay_ms: float = 10.0
    queue_depth: int = 64
    default_k: Optional[int] = 5
    mode: str = "exact"  # "exact" | "ann" (needs an index with a quantizer)
    nprobe: int = 8  # cells probed per query in ann mode
    max_line_bytes: int = 1 << 20
    enable_test_hooks: bool = False  # fault-injection requests, tests only
    # Per-request deadline, measured from dispatch: a batch not answered in
    # time gets a retryable error and a hung worker is respawned.  None
    # disables the watchdog.
    batch_timeout_s: Optional[float] = None
    # How long close() waits for in-flight batches to finish before the
    # stragglers are answered with a shutdown error.
    drain_timeout_s: float = 10.0


class _Entry:
    """One admitted request riding through scheduler → pool → delivery."""

    __slots__ = ("conn", "seq", "request")

    def __init__(self, conn: Connection, seq: int, request: dict):
        self.conn = conn
        self.seq = seq
        self.request = request


class ConcurrentServer:
    """Socket service: N clients, N workers, micro-batched in between."""

    def __init__(self, config: ServerConfig):  # noqa: D107
        validate_k(config.default_k)
        if config.mode not in ("exact", "ann"):
            raise ValueError(
                f"mode must be 'exact' or 'ann', got {config.mode!r}"
            )
        self.config = config
        self.stats = Stats(SERVER_COUNTERS + SCHEDULER_COUNTERS + POOL_COUNTERS)
        self._batch_ids = iter(range(1, 1 << 62))
        self._inflight: Dict[int, List[_Entry]] = {}
        self._inflight_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        self.pool = WorkerPool(
            config,
            on_batch_done=self._on_batch_done,
            on_batch_failed=self._on_batch_failed,
            on_worker_ready=self._on_worker_ready,
            stats=self.stats,
        )
        self.scheduler = MicroBatchScheduler(
            self._dispatch,
            max_batch=config.max_batch,
            max_delay_ms=config.max_delay_ms,
            max_pending=config.queue_depth,
            idle=self.pool.has_idle_worker,
            stats=self.stats,
        )
        address = config.unix_socket or (config.host, config.port)
        self.frontend = SocketFrontend(
            address, self._on_line, max_line_bytes=config.max_line_bytes
        )
        self.address = None

    # ----------------------------------------------------------- lifecycle
    def start(self):
        """Spawn workers, start the scheduler, bind the socket."""
        self.pool.start()
        self.scheduler.start()
        self.address = self.frontend.start()
        return self.address

    def close(self) -> None:
        """Graceful shutdown: stop intake, drain in-flight work, then stop.

        Order matters.  The listener closes first (no new clients), the
        scheduler flushes what it buffered into the pool, and shutdown then
        waits up to ``drain_timeout_s`` for in-flight batches to come back
        — so every admitted request is answered, in per-connection order,
        before the workers and connections go away.  Only batches that
        outlive the drain window get a shutdown error; their workers are
        about to die, so silence is the alternative.
        """
        self.frontend.stop_accepting()
        self.scheduler.close(drain=True)
        deadline = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < deadline:
            with self._inflight_lock:
                if not self._inflight:
                    break
            time.sleep(0.02)
        self.pool.close()
        with self._inflight_lock:
            leftovers = list(self._inflight.items())
            self._inflight.clear()
        for _, entries in leftovers:
            for entry in entries:
                entry.conn.deliver(
                    entry.seq,
                    {
                        "id": entry.request.get("id"),
                        "error": "server shutting down",
                        "retryable": True,
                    },
                )
        self.frontend.close()

    def __enter__(self) -> "ConcurrentServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- intake
    def _on_line(self, conn: Connection, seq: int, line: str) -> None:
        self.stats.inc("requests")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict) and "control" in obj:
            self._handle_control(conn, seq, obj)
            return
        try:
            request = parse_request(line, self.config.default_k)
        except ValueError as exc:
            self.stats.inc("errors")
            conn.deliver(seq, {"id": request_id_of(line), "error": str(exc)})
            return
        entry = _Entry(conn, seq, request)
        if not self.scheduler.offer(entry):  # counted as shed by the scheduler
            conn.deliver(
                seq,
                {
                    "id": request.get("id"),
                    "error": "overloaded",
                    "retry_after_ms": int(self.config.max_delay_ms) + 1,
                },
            )

    def _handle_control(self, conn: Connection, seq: int, obj: dict) -> None:
        command = obj.get("control")
        rid = obj.get("id")
        if command == "stats":
            conn.deliver(seq, {"id": rid, "stats": self.stats_snapshot()})
        elif command == "reload":
            try:
                result = self.reload_index(obj.get("index"))
            except RuntimeError as exc:
                # What a swap can raise here: the barrier timeout.
                # Per-worker open failures travel back as strings inside
                # the ack, not as exceptions.
                self.stats.inc("errors")
                conn.deliver(seq, {"id": rid, "error": f"reload failed: {exc}"})
                return
            conn.deliver(seq, dict({"id": rid, "reloaded": True}, **result))
        else:
            self.stats.inc("errors")
            conn.deliver(
                seq,
                {"id": rid, "error": f"unknown control {command!r}"},
            )

    # ------------------------------------------------------------ hot swap
    def reload_index(self, index_path: Optional[str] = None) -> Dict[str, object]:
        """Hot-swap every worker onto ``index_path`` (default: re-read).

        Queries already admitted are flushed first — they finish on the
        old index; queries arriving after the swap see the new one.
        In-flight queries are never dropped.
        """
        path = index_path or self.pool.index_path
        with self._swap_lock:
            self.scheduler.flush_now()
            result = self.pool.swap(path)
        self.stats.inc("swaps")
        result["index"] = path
        return result

    # ----------------------------------------------------------- dispatch
    def _dispatch(self, entries: Sequence[_Entry]) -> None:
        batch_id = next(self._batch_ids)
        with self._inflight_lock:
            self._inflight[batch_id] = list(entries)
        self.pool.submit(batch_id, [e.request for e in entries])

    def _take_inflight(self, batch_id: int) -> List[_Entry]:
        with self._inflight_lock:
            return self._inflight.pop(batch_id, [])

    def _on_batch_done(self, batch_id: int, responses: List[dict]) -> None:
        entries = self._take_inflight(batch_id)
        for i, entry in enumerate(entries):
            if i < len(responses):
                response = responses[i]
            else:  # defensive: a short reply must not strand the client
                response = {
                    "id": entry.request.get("id"),
                    "error": "worker returned no response for this request",
                }
            if "error" in response:
                self.stats.inc("errors")
            self._finish(entry, response)

    def _on_batch_failed(
        self, batch_id: int, message: str, retryable: bool = False
    ) -> None:
        entries = self._take_inflight(batch_id)
        self.stats.inc("crashed_batches")
        self.stats.inc("errors", n=len(entries))
        for entry in entries:
            response = {"id": entry.request.get("id"), "error": message}
            if retryable:
                # Deadline misses: the request itself was fine, the server
                # just could not answer in time — clients may resubmit.
                response["retryable"] = True
            self._finish(entry, response)

    def _on_worker_ready(self) -> None:
        # A worker came up (first start or respawn): buffered work may now
        # go straight to it instead of waiting out its deadline.
        self.scheduler.wake()

    def _finish(self, entry: _Entry, response: dict) -> None:
        entry.conn.deliver(entry.seq, response)
        self.scheduler.release(1)
        self.stats.inc("responses")

    def stats_snapshot(self) -> Dict[str, int]:
        """The ``{"control": "stats"}`` payload: every counter, two gauges."""
        snap = self.stats.snapshot()
        snap.update(workers=self.config.workers, pending=self.scheduler.pending)
        return snap


def create_server(config: ServerConfig) -> ConcurrentServer:
    """The app factory: one wired (not yet started) concurrent server."""
    return ConcurrentServer(config)

"""The retrieval service: stdin JSON-lines core + concurrent socket front.

Two ways to run the same protocol:

* :class:`RetrievalServer` (``repro serve`` < requests.jsonl) — one
  process, one warm pipeline/index pair, batched pipelined requests;
* :func:`create_server` + :class:`ServerConfig` (``repro serve
  --socket``) — a socket front end, a micro-batching scheduler with a
  latency deadline, N worker processes sharing one on-disk sharded
  index, admission control, crash recovery and index hot-swap.

See ``docs/serving.md`` for the protocol and operational semantics.
"""

from repro.serve.app import ConcurrentServer, ServerConfig, create_server
from repro.serve.core import RetrievalServer, parse_request, request_id_of
from repro.serve.frontend import Connection, SocketFrontend
from repro.serve.pool import WorkerPool
from repro.serve.scheduler import MicroBatchScheduler

__all__ = [
    "ConcurrentServer",
    "Connection",
    "MicroBatchScheduler",
    "RetrievalServer",
    "ServerConfig",
    "SocketFrontend",
    "WorkerPool",
    "create_server",
    "parse_request",
    "request_id_of",
]

"""JSON-lines retrieval core: protocol parsing and the batched handler.

The paper's end product is a matcher that ranks source candidates for
binary queries; this module turns the retrieval stack into a service. One
warm :class:`~repro.core.pipeline.MatcherPipeline` (the compilation
pipeline's query front end) and one warm
:class:`~repro.index.ShardedEmbeddingIndex` — opened lazily from an index
directory, or built in memory — are shared across every request of the
process lifetime, and pipelined requests are batched so Q
queued queries cost one batched encoder pass plus one tiled pair-head
pass instead of Q of each (see :meth:`ShardedEmbeddingIndex.topk_batch`).

A repeated query skips the front end.  The server keeps a bounded LRU
from a digest of the request payload to the query graph's
``graph_fingerprint``; when the index still caches that fingerprint's
embedding row, the request goes straight to the pair head — no decompile,
no graph build, no fingerprint.  Identical payloads inside one batch run
the front end once.  The memo holds fingerprints only, never graphs, and
needs no invalidation: a fingerprint depends only on the pipeline code and
this server's fixed dataflow flag, and every hit consults the (possibly
swapped) index again, falling back to the full path when the row is gone.

This is both the whole service in stdin mode (``repro serve``) and the
protocol/handler layer of the concurrent socket service
(:mod:`repro.serve.app`): worker processes run :meth:`handle_batch` on
micro-batches the scheduler formed, and the front end validates lines
with :func:`parse_request` before admitting them.

Protocol (one JSON object per line, responses in request order)::

    → {"id": "q1", "binary_b64": "<base64 bytes>", "k": 3}
    → {"id": "q2", "source": "int f() { ... }", "language": "c"}
    ← {"id": "q1", "hits": [{"rank": 1, "index": 4, "score": 0.93,
                             "key": "…", "meta": {…}}, …]}
    ← {"id": "q2", "hits": [...]}

A request is either a binary (``binary_b64``, base64-encoded bytes, run
through the decompile half of the pipeline) or a source file (``source`` +
``language``, run through the front-end half).  ``k`` bounds the hit list
(default: the server's ``default_k``; ``null`` returns the full ranking).
Malformed requests produce ``{"id": …, "error": "…"}`` responses — the
server keeps serving.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import io
import json
import os
import select
from collections import OrderedDict
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.pipeline import MatcherPipeline
from repro.core.trainer import MatchTrainer
from repro.graphs.programl import ProgramGraph
from repro.index import embedding_index, validate_k, validate_mode
from repro.utils.timing import Stats

_QUERY_FIELDS = ("binary_b64", "source")

#: The counters every :class:`RetrievalServer` keeps (see its ``stats``).
SERVE_COUNTERS = ("requests", "batches", "errors", "memo_hits", "memo_misses")


def parse_request(line: str, default_k: Optional[int]) -> dict:
    """One JSON line → validated request dict (raises ValueError).

    The single protocol validator, shared by the stdin server and the
    socket front end so both reject exactly the same malformed requests.
    Unknown extra fields are preserved on the returned dict; ``k``
    defaults to ``default_k`` when the request omits it.
    """
    try:
        req = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from exc
    if not isinstance(req, dict):
        raise ValueError("request must be a JSON object")
    present = [f for f in _QUERY_FIELDS if f in req]
    if len(present) != 1:
        raise ValueError(
            "request needs exactly one of 'binary_b64' / 'source', "
            f"got {present or 'neither'}"
        )
    if "source" in req and not isinstance(req.get("language"), str):
        raise ValueError("'source' requests need a 'language' string")
    k = req.get("k", default_k)
    if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 1):
        raise ValueError(f"'k' must be a positive integer or null, got {k!r}")
    req["k"] = k
    return req


def request_id_of(line: str):
    """Best-effort ``id`` echo for a line that failed validation."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    return obj.get("id") if isinstance(obj, dict) else None


def _fd_ready(fd: int) -> bool:
    # A closed/invalid fd can deliver no further input: report it as
    # not-pending so the loop flushes what it holds instead of stalling a
    # partial batch behind input that will never arrive (a blanket
    # "return True" here once masked exactly that).
    try:
        ready, _, _ = select.select([fd], [], [], 0)
    except (OSError, ValueError):
        return False
    return bool(ready)


def _lines_with_pending(stream) -> Iterator[Tuple[str, bool]]:
    """Yield ``(line, input_pending)`` pairs from a request stream.

    ``input_pending`` is False exactly when no further complete or partial
    input is immediately available, which is the server's cue to flush a
    partial batch: a request/response client that pipelined fewer than a
    full batch gets its responses instead of a deadlock.

    Selectable streams (pipes, sockets, files) are read directly from the
    fd with our own line buffer — stdlib text streams read ahead into a
    hidden buffer that ``select`` cannot see, which would misreport
    drained-into-buffer lines as "no input pending" and degrade pipelined
    traffic to batches of one.  Non-selectable streams (StringIO, select-
    less platforms) fall back to plain iteration with pending always True,
    relying on batch-size/EOF flushes.
    """
    try:
        fd = stream.fileno()
        select.select([fd], [], [], 0)
    except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
        for line in stream:
            yield line, True
        return
    buf = bytearray()
    eof = False
    while True:
        newline = buf.find(b"\n")
        while newline >= 0:
            line = buf[:newline].decode("utf-8", "replace")
            del buf[: newline + 1]
            newline = buf.find(b"\n")
            yield line, newline >= 0 or _fd_ready(fd)
        if eof:
            if buf:
                yield buf.decode("utf-8", "replace"), False
            return
        chunk = os.read(fd, 65536)
        if chunk:
            buf += chunk
        else:
            eof = True


class RetrievalServer:
    """Batched request loop over one warm pipeline + index pair."""

    def __init__(
        self,
        trainer: MatchTrainer,
        index,
        *,
        batch_size: int = 8,
        default_k: Optional[int] = 5,
        mode: str = "exact",
        nprobe: int = 8,
        allow_degraded: bool = False,
    ):  # noqa: D107
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        # Same rule requests are held to: a bad --top-k should fail at
        # startup, not surface as a per-request "client" error.
        validate_k(default_k)
        validate_mode(mode, nprobe)
        self.ann_fallback: Optional[str] = None
        if mode == "ann":
            # Fail at startup, not per request: ANN needs a sharded index
            # whose manifest carries a trained coarse quantizer.
            if getattr(index, "quantizer", None) is None:
                corrupt = getattr(index, "quantizer_error", None)
                if allow_degraded and corrupt:
                    # The quantizer *payload* is corrupt (a degraded-mode
                    # index records why).  Serving exact answers flagged
                    # degraded beats refusing to serve; a never-trained
                    # quantizer is still a configuration error below.
                    self.ann_fallback = corrupt
                    mode = "exact"
                else:
                    raise ValueError(
                        "mode='ann' needs a sharded index with a trained coarse "
                        "quantizer (build with `repro index build --cells K`)"
                    )
        self.index = index
        self.batch_size = batch_size
        self.default_k = default_k
        self.mode = mode
        self.nprobe = nprobe
        self.pipeline = MatcherPipeline(trainer)
        # Lifetime counters: requests, batches and errors count what the
        # server handled, memo_hits/memo_misses the payload memo's lookups.
        self.stats = Stats(SERVE_COUNTERS)
        # Payload digest → graph fingerprint, bounded like the index's
        # query-embedding LRU it points into.
        self._memo: "OrderedDict[bytes, str]" = OrderedDict()
        self.memo_size = index.query_cache_size

    # ----------------------------------------------------------- requests
    def _parse(self, line: str) -> dict:
        """One JSON line → validated request dict (raises ValueError)."""
        return parse_request(line, self.default_k)

    def _payload(self, req: dict) -> Tuple[bytes, Union[bytes, str]]:
        """Request → (memo digest, decoded payload) (raises ValueError).

        The digest covers the request kind, the language of a source
        request and the payload itself.
        """
        if "binary_b64" in req:
            if not isinstance(req["binary_b64"], str):
                raise ValueError("'binary_b64' must be a base64 string")
            try:
                payload = base64.b64decode(req["binary_b64"], validate=True)
            except (binascii.Error, ValueError) as exc:
                raise ValueError(f"bad base64 in 'binary_b64': {exc}") from exc
            header, data = ["binary"], payload
        else:
            payload = req["source"]
            if not isinstance(payload, str):
                raise ValueError("'source' must be a string")
            header, data = ["source", req["language"]], payload.encode()
        digest = hashlib.sha256(json.dumps(header).encode() + b"\n" + data)
        return digest.digest(), payload

    def _query_graph(self, req: dict, payload: Union[bytes, str]) -> ProgramGraph:
        """Decoded payload → query program graph (raises ValueError)."""
        if "binary_b64" in req:
            try:
                return self.pipeline.graph_of_binary(
                    payload, name=str(req.get("id", "query"))
                )
            except Exception as exc:
                raise ValueError(f"binary does not decompile: {exc}") from exc
        try:
            return self.pipeline.graph_of_source(payload, req["language"])
        except Exception as exc:
            raise ValueError(f"source does not compile: {exc}") from exc

    def _memo_row(self, digest: bytes) -> Optional[np.ndarray]:
        """The index's cached embedding for a memoized payload, or None."""
        key = self._memo.get(digest)
        row = None if key is None else self.index.cached_embedding(key)
        if row is None:
            self.stats.inc("memo_misses")
            return None
        self._memo.move_to_end(digest)
        self.stats.inc("memo_hits")
        return row

    def _build(
        self, req: dict, payload: Union[bytes, str], digest: bytes
    ) -> Union[Tuple[ProgramGraph, str], ValueError]:
        """Run the front end: (graph, fingerprint), or the failure.

        A success is memoized; a failure is returned, not memoized.
        """
        try:
            graph = self._query_graph(req, payload)
        except ValueError as exc:
            return exc
        # Looked up on the module at call time, like the index's own calls,
        # so instrumentation wrapping graph_fingerprint sees this one too.
        key = embedding_index.graph_fingerprint(graph)
        self._memo[digest] = key
        self._memo.move_to_end(digest)
        while len(self._memo) > max(self.memo_size, 0):
            self._memo.popitem(last=False)
        return graph, key

    def _resolve(
        self, req: dict, built: Dict[bytes, Union[Tuple[ProgramGraph, str], ValueError]]
    ) -> Union[np.ndarray, Tuple[ProgramGraph, str]]:
        """Request → memoized embedding row, or (graph, fingerprint).

        ``built`` holds this batch's front-end outcomes by digest, so
        identical payloads in one batch run the front end once.  Raises
        ValueError for a request that cannot be answered.
        """
        digest, payload = self._payload(req)
        row = self._memo_row(digest)
        if row is not None:
            return row
        if digest not in built:
            built[digest] = self._build(req, payload, digest)
        outcome = built[digest]
        if isinstance(outcome, ValueError):
            raise outcome
        return outcome

    def _degraded_info(self) -> dict:
        """Degradation flags to merge into this batch's hit responses.

        Empty in the healthy case.  Non-empty when corrupt shards were
        quarantined (answers come from the surviving ``coverage`` fraction
        of the corpus) or a corrupt quantizer forced ANN back onto the
        exact path — results are still correct over what remains, and the
        client can see they are partial.
        """
        quarantined = getattr(self.index, "quarantined", None)
        if not quarantined and self.ann_fallback is None:
            return {}
        info: dict = {"degraded": True}
        coverage = getattr(self.index, "coverage", None)
        if coverage is not None:
            info["coverage"] = round(coverage(), 6)
        if self.ann_fallback is not None:
            info["ann_fallback"] = "exact"
        return info

    # ------------------------------------------------------------ serving
    def handle_batch(self, requests: Sequence[dict]) -> List[dict]:
        """Responses (in request order) for one batch of parsed requests.

        Per-request failures turn into error responses; the surviving
        queries still share one :meth:`topk_batch` pass.  A memoized
        payload whose embedding the index still caches skips the front
        end (see the module docstring).
        """
        responses: List[Optional[dict]] = [None] * len(requests)
        slots: List[int] = []
        # Memo hits arrive as embedding rows; every other request brings a
        # graph, and all of those are embedded in one call.
        rows: List[Tuple[int, np.ndarray]] = []
        graphs: List[ProgramGraph] = []
        keys: List[str] = []
        graph_at: List[int] = []
        built: Dict[bytes, Union[Tuple[ProgramGraph, str], ValueError]] = {}
        for i, req in enumerate(requests):
            try:
                query = self._resolve(req, built)
            except ValueError as exc:
                responses[i] = {"id": req.get("id"), "error": str(exc)}
                self.stats.inc("errors")
                continue
            if isinstance(query, np.ndarray):
                rows.append((len(slots), query))
            else:
                graph_at.append(len(slots))
                graphs.append(query[0])
                keys.append(query[1])
            slots.append(i)
        if slots:
            # Graphs go through one embed_queries call in request order —
            # the encoder sees exactly the batch it would without the memo.
            queries = np.empty((len(slots), self.index.dim), dtype=np.float32)
            for at, row in rows:
                queries[at] = row
            if graphs:
                queries[graph_at] = self.index.embed_queries(graphs, keys=keys)
            # One batched pass ranks the whole batch, bounded by the
            # largest k any request in it asked for (None = full ranking);
            # per-request k then only trims the shared hit lists.
            wanted = [requests[slot]["k"] for slot in slots]
            batch_k = None if any(w is None for w in wanted) else max(wanted)
            if self.mode == "ann":
                rankings = self.index.topk_batch(
                    embeddings=queries, k=batch_k, mode="ann", nprobe=self.nprobe
                )
            else:
                rankings = self.index.topk_batch(embeddings=queries, k=batch_k)
            # Computed *after* the batched pass: a shard quarantined while
            # answering this very batch is already reflected in the flags.
            degraded = self._degraded_info()
            for slot, hits in zip(slots, rankings):
                req = requests[slot]
                if req["k"] is not None:
                    hits = hits[: req["k"]]
                responses[slot] = {
                    "id": req.get("id"),
                    **degraded,
                    "hits": [
                        {
                            "rank": rank,
                            "index": hit.index,
                            "score": hit.score,
                            "key": hit.key,
                            "meta": hit.meta,
                        }
                        for rank, hit in enumerate(hits, 1)
                    ],
                }
        return [r for r in responses if r is not None]

    def serve(self, in_stream: IO[str], out_stream: IO[str]) -> Dict[str, int]:
        """Read JSON-lines requests until EOF, writing JSON-lines responses.

        Requests are buffered and flushed ``batch_size`` at a time — and
        whenever the input runs dry (so a request/response client that
        pipelined fewer than a full batch is answered immediately, not
        deadlocked) and at EOF.  Responses always come back in request
        order; a line that fails to parse flushes the pending batch first
        so ordering holds.

        ``in_stream`` must be unread: selectable streams are consumed
        directly from the underlying fd (see :func:`_lines_with_pending`),
        so lines another reader already pulled into a Python-level stream
        buffer would be skipped.

        Returns what this loop alone handled (``self.stats`` keeps
        counting across loops): its ``requests``, ``batches`` and
        ``errors``, and the memo lookups it made.
        """
        before = self.stats.snapshot()
        batch: List[dict] = []

        def flush() -> None:
            if not batch:
                return
            for response in self.handle_batch(batch):
                out_stream.write(json.dumps(response) + "\n")
            out_stream.flush()
            self.stats.inc("batches")
            batch.clear()

        for line, pending in _lines_with_pending(in_stream):
            line = line.strip()
            if not line:
                if not pending:
                    flush()
                continue
            self.stats.inc("requests")
            try:
                batch.append(self._parse(line))
            except ValueError as exc:
                flush()
                rid = request_id_of(line)
                out_stream.write(json.dumps({"id": rid, "error": str(exc)}) + "\n")
                out_stream.flush()
                self.stats.inc("errors")
                continue
            if len(batch) >= self.batch_size or not pending:
                flush()
        flush()
        after = self.stats.snapshot()
        return {name: after[name] - before[name] for name in SERVE_COUNTERS}

"""Tests for the JSON-lines retrieval service (repro.serve).

The serving contract: responses come back in request order, one JSON
object per line; bad requests produce error responses without killing the
loop; pipelined requests are scored in shared batches; and the warm
pipeline/index pair is reused across every request.
"""

import base64
import io
import json

import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex
from repro.serve import ConcurrentServer, RetrievalServer, ServerConfig


@pytest.fixture(scope="module")
def corpus():
    samples = CorpusBuilder(tiny_data_config()).build(["c", "java"])
    c = [s for s in samples if s.language == "c"]
    j = [s for s in samples if s.language == "java"]
    return c, j


@pytest.fixture(scope="module")
def trained(corpus):
    c, j = corpus
    ds = build_pairs(c, j, "binary", "source", seed=0, max_pairs_per_task=3)
    cfg = scaled(cpu_config(), epochs=2, hidden_dim=16, embed_dim=16, num_layers=1)
    trainer = MatchTrainer(cfg)
    trainer.train(ds)
    return trainer


@pytest.fixture(scope="module")
def index(trained, corpus):
    _, j = corpus
    idx = EmbeddingIndex(trained)
    idx.add(
        [s.source_graph for s in j], metas=[{"id": s.identifier} for s in j]
    )
    return idx


def _serve(server, requests):
    out = io.StringIO()
    stats = server.serve(io.StringIO("".join(r + "\n" for r in requests)), out)
    return [json.loads(line) for line in out.getvalue().splitlines()], stats


def _binary_request(sample, **extra):
    req = {"binary_b64": base64.b64encode(sample.binary_bytes).decode()}
    req.update(extra)
    return json.dumps(req)


class TestRequests:
    def test_binary_query_ranks_index(self, trained, index, corpus):
        c, j = corpus
        server = RetrievalServer(trained, index, default_k=3)
        responses, stats = _serve(server, [_binary_request(c[0], id="q1")])
        assert stats["requests"] == 1 and stats["errors"] == 0
        (resp,) = responses
        assert resp["id"] == "q1"
        assert len(resp["hits"]) == 3
        assert resp["hits"][0]["rank"] == 1
        # Hits mirror the index's own ranking exactly.
        want = index.topk(
            server.pipeline.graph_of_binary(c[0].binary_bytes), k=3
        )
        assert [h["index"] for h in resp["hits"]] == [h.index for h in want]
        assert [h["meta"] for h in resp["hits"]] == [h.meta for h in want]

    def test_source_query(self, trained, index, corpus):
        _, j = corpus
        server = RetrievalServer(trained, index, default_k=2)
        req = json.dumps({"id": "s", "source": j[0].source_text, "language": "java"})
        responses, stats = _serve(server, [req])
        assert stats["errors"] == 0
        assert len(responses[0]["hits"]) == 2
        # Hits mirror the index's own ranking of the compiled source graph.
        want = index.topk(
            server.pipeline.graph_of_source(j[0].source_text, "java"), k=2
        )
        assert [h["meta"] for h in responses[0]["hits"]] == [h.meta for h in want]

    def test_per_request_k_and_null_k(self, trained, index, corpus):
        c, _ = corpus
        server = RetrievalServer(trained, index, default_k=2)
        responses, _ = _serve(
            server,
            [
                _binary_request(c[0], id="a", k=1),
                _binary_request(c[0], id="b", k=None),
                _binary_request(c[0], id="c"),
            ],
        )
        assert [r["id"] for r in responses] == ["a", "b", "c"]
        assert len(responses[0]["hits"]) == 1
        assert len(responses[1]["hits"]) == len(index)  # null = full ranking
        assert len(responses[2]["hits"]) == 2  # server default

    def test_responses_preserve_request_order(self, trained, index, corpus):
        c, j = corpus
        server = RetrievalServer(trained, index, batch_size=2, default_k=1)
        requests = [
            _binary_request(c[0], id="q0"),
            json.dumps({"id": "q1", "source": j[0].source_text, "language": "java"}),
            _binary_request(c[1], id="q2"),
        ]
        responses, stats = _serve(server, requests)
        assert [r["id"] for r in responses] == ["q0", "q1", "q2"]
        assert stats["batches"] == 2  # 2 + 1


class TestBatching:
    def test_requests_share_batched_scoring(self, trained, corpus):
        c, j = corpus
        fresh = EmbeddingIndex(trained)  # own query cache: counting encodes
        fresh.add([s.source_graph for s in j])
        server = RetrievalServer(trained, fresh, batch_size=4, default_k=1)
        trained.model.encoder_graph_count = 0
        distinct = [s for s in c[:4]]
        responses, stats = _serve(
            server, [_binary_request(s, id=s.identifier) for s in distinct]
        )
        assert stats["batches"] == 1
        # All four query graphs went through the encoder in one batch.
        assert trained.model.encoder_graph_count == 4
        assert len(responses) == 4

    def test_flush_on_eof_below_batch_size(self, trained, index, corpus):
        c, _ = corpus
        server = RetrievalServer(trained, index, batch_size=64, default_k=1)
        responses, stats = _serve(server, [_binary_request(c[0])])
        assert stats["batches"] == 1 and len(responses) == 1

    def test_pipe_input_batches_pipelined_requests(self, trained, index, corpus):
        """A real pipe with queued requests must batch them, not serve 1-by-1
        (stdlib text streams hide read-ahead lines from select, which once
        degraded piped traffic to batches of one)."""
        import os

        c, _ = corpus
        server = RetrievalServer(trained, index, batch_size=4, default_k=1)
        read_fd, write_fd = os.pipe()
        payload = "".join(
            _binary_request(s, id=s.identifier) + "\n" for s in c[:4]
        ).encode()
        os.write(write_fd, payload)
        os.close(write_fd)
        out = io.StringIO()
        with os.fdopen(read_fd, "r") as in_stream:
            stats = server.serve(in_stream, out)
        assert stats["requests"] == 4
        assert stats["batches"] == 1  # all four scored in one pass
        assert len(out.getvalue().splitlines()) == 4

    def test_pipe_input_flushes_partial_batch(self, trained, index, corpus):
        """Fewer queued requests than batch_size still get answered (no
        deadlock waiting for a batch that will never fill)."""
        import os

        c, _ = corpus
        server = RetrievalServer(trained, index, batch_size=8, default_k=1)
        read_fd, write_fd = os.pipe()
        os.write(write_fd, (_binary_request(c[0], id="solo") + "\n").encode())
        os.close(write_fd)
        out = io.StringIO()
        with os.fdopen(read_fd, "r") as in_stream:
            stats = server.serve(in_stream, out)
        assert stats["batches"] == 1
        assert json.loads(out.getvalue())["id"] == "solo"

    def test_blank_lines_ignored(self, trained, index, corpus):
        c, _ = corpus
        server = RetrievalServer(trained, index, default_k=1)
        out = io.StringIO()
        stats = server.serve(
            io.StringIO("\n\n" + _binary_request(c[0]) + "\n\n"), out
        )
        assert stats["requests"] == 1

    def test_stats_reset_per_serve_loop(self, trained, index, corpus):
        """A reused warm server reports per-loop stats, not lifetime totals."""
        c, _ = corpus
        server = RetrievalServer(trained, index, default_k=1)
        _serve(server, [_binary_request(c[0])])
        stats = server.serve(io.StringIO(_binary_request(c[1]) + "\n"), io.StringIO())
        assert stats["requests"] == 1

    def test_bad_batch_size_rejected(self, trained, index):
        with pytest.raises(ValueError):
            RetrievalServer(trained, index, batch_size=0)

    def test_bad_default_k_rejected_at_startup(self, trained, index):
        """--top-k 0 must fail when the server starts, not per request."""
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError):
                RetrievalServer(trained, index, default_k=bad)
        RetrievalServer(trained, index, default_k=None)  # full rankings ok

    @pytest.mark.parametrize(
        "mode, nprobe", [("ann", 2.5), ("ann", True), ("ann", 0), ("fuzzy", 8)]
    )
    def test_bad_mode_or_nprobe_rejected_at_startup(self, trained, index, mode, nprobe):
        """Both servers refuse these when built, not on every batch."""
        with pytest.raises(ValueError, match="mode|nprobe"):
            RetrievalServer(trained, index, mode=mode, nprobe=nprobe)
        # Validation precedes any worker start, so the paths go unread.
        config = ServerConfig("no-model.npz", "no-index", mode=mode, nprobe=nprobe)
        with pytest.raises(ValueError, match="mode|nprobe"):
            ConcurrentServer(config)


class TestErrors:
    def test_bad_json_line(self, trained, index, corpus):
        c, _ = corpus
        server = RetrievalServer(trained, index, default_k=1)
        responses, stats = _serve(
            server, ["{not json", _binary_request(c[0], id="ok")]
        )
        assert stats["errors"] == 1
        assert "bad JSON" in responses[0]["error"]
        assert responses[1]["id"] == "ok"

    def test_parse_error_echoes_id(self, trained, index):
        server = RetrievalServer(trained, index)
        responses, _ = _serve(server, [json.dumps({"id": "oops"})])
        assert responses[0]["id"] == "oops"
        assert "binary_b64" in responses[0]["error"]

    def test_error_does_not_poison_batch(self, trained, index, corpus):
        c, _ = corpus
        server = RetrievalServer(trained, index, batch_size=3, default_k=1)
        responses, stats = _serve(
            server,
            [
                _binary_request(c[0], id="good1"),
                json.dumps({"id": "bad", "binary_b64": "!!!not-base64!!!"}),
                _binary_request(c[1], id="good2"),
            ],
        )
        assert stats["errors"] == 1
        assert [r["id"] for r in responses] == ["good1", "bad", "good2"]
        assert "error" in responses[1] and "hits" in responses[0]

    @pytest.mark.parametrize(
        "req",
        [
            {"source": "int x;"},  # missing language
            {"source": "int x;", "language": 3},
            {"binary_b64": "aa", "source": "x", "language": "c"},  # both
            {"binary_b64": "aa", "k": 0},
            {"binary_b64": "aa", "k": -2},
            {"binary_b64": "aa", "k": "five"},
            {"binary_b64": 7},
        ],
    )
    def test_malformed_requests_get_error_responses(self, trained, index, req):
        server = RetrievalServer(trained, index)
        responses, stats = _serve(server, [json.dumps(req)])
        assert stats["errors"] == 1
        assert "error" in responses[0]

    def test_malformed_binaries_get_error_responses(self, trained, index, corpus):
        """Trailing bytes, a truncated stream, an out-of-range function and
        a bad register each fail their own request — never served hits."""
        from repro.binary.isa import BinaryProgram

        c, _ = corpus
        raw = c[0].binary_bytes
        past_end = BinaryProgram.decode(raw)
        past_end.functions[-1].length += 4
        bad_reg = BinaryProgram.decode(raw)
        next(i for i in bad_reg.instructions if i.op == "LD").rd = 12
        bad = [raw + b"\x00" * 8, raw[:-3], past_end.encode(), bad_reg.encode()]
        requests = [
            json.dumps({"id": f"bad{i}", "binary_b64": base64.b64encode(b).decode()})
            for i, b in enumerate(bad)
        ]
        server = RetrievalServer(trained, index, batch_size=5, default_k=1)
        responses, stats = _serve(server, requests + [_binary_request(c[0], id="ok")])
        assert stats["errors"] == len(bad)
        for resp in responses[:-1]:
            assert "hits" not in resp and "does not decompile" in resp["error"]
        assert responses[-1]["id"] == "ok" and "hits" in responses[-1]

    def test_uncompilable_source_is_an_error_response(self, trained, index):
        server = RetrievalServer(trained, index)
        responses, _ = _serve(
            server,
            [json.dumps({"id": "x", "source": "not a program", "language": "java"})],
        )
        assert "error" in responses[0] and responses[0]["id"] == "x"


class TestInputEdgeCases:
    def test_fd_ready_reports_closed_fd_as_not_pending(self):
        """A closed fd can deliver no more input: `_fd_ready` must say
        not-pending so the loop flushes what it holds.  A blanket `return
        True` on select() errors once stalled partial batches forever."""
        import os

        from repro.serve.core import _fd_ready

        read_fd, write_fd = os.pipe()
        os.close(write_fd)
        os.close(read_fd)
        assert _fd_ready(read_fd) is False  # EBADF -> OSError
        assert _fd_ready(-1) is False  # ValueError

    def test_final_request_without_trailing_newline(self, trained, index, corpus):
        """EOF right after the last request (no trailing newline) must still
        serve it, not drop it on the floor."""
        c, _ = corpus
        server = RetrievalServer(trained, index, default_k=1)
        out = io.StringIO()
        stats = server.serve(io.StringIO(_binary_request(c[0], id="last")), out)
        assert stats["requests"] == 1
        assert json.loads(out.getvalue())["id"] == "last"

    def test_final_request_without_trailing_newline_pipe(
        self, trained, index, corpus
    ):
        """Same contract over a real pipe: earlier complete lines batch as
        usual and the unterminated final line is served at EOF."""
        import os

        c, _ = corpus
        server = RetrievalServer(trained, index, batch_size=4, default_k=1)
        read_fd, write_fd = os.pipe()
        payload = (
            _binary_request(c[0], id="first") + "\n" + _binary_request(c[1], id="last")
        ).encode()
        os.write(write_fd, payload)
        os.close(write_fd)
        out = io.StringIO()
        with os.fdopen(read_fd, "r") as in_stream:
            stats = server.serve(in_stream, out)
        assert stats["requests"] == 2
        assert [json.loads(l)["id"] for l in out.getvalue().splitlines()] == [
            "first",
            "last",
        ]


class TestShardedServing:
    def test_sharded_index_behind_server(self, trained, index, corpus, tmp_path):
        c, _ = corpus
        ShardedEmbeddingIndex.from_index(index, tmp_path / "idx", 3)
        sharded = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        mono_server = RetrievalServer(trained, index, default_k=4)
        shard_server = RetrievalServer(trained, sharded, default_k=4)
        req = [_binary_request(c[0], id="q")]
        mono_responses, _ = _serve(mono_server, req)
        shard_responses, _ = _serve(shard_server, req)
        assert mono_responses == shard_responses

    def test_memo_hit_on_sharded_index(self, trained, index, corpus, tmp_path):
        c, _ = corpus
        ShardedEmbeddingIndex.from_index(index, tmp_path / "idx", 3)
        server = RetrievalServer(
            trained, ShardedEmbeddingIndex.open(tmp_path / "idx", trained), default_k=4
        )
        req = [_binary_request(c[0], id="q")]
        first, _ = _serve(server, req)
        again, _ = _serve(server, req)
        assert server.stats.counts["memo_hits"] == 1
        fresh = RetrievalServer(
            trained, ShardedEmbeddingIndex.open(tmp_path / "idx", trained), default_k=4
        )
        assert first == again == _serve(fresh, req)[0]


def _copy_index(index, **kw):
    """A fresh in-memory index over the same rows (its own, empty query cache)."""
    copy = EmbeddingIndex(index.trainer, **kw)
    copy.add_precomputed(index.keys, index.embeddings, index.metas)
    return copy


@pytest.fixture()
def decompiles(monkeypatch):
    """Count the front end's decompile calls."""
    from repro.pipeline import staged

    calls = []
    original = staged.decompile_bytes

    def counting(raw, name):
        calls.append(name)
        return original(raw, name)

    monkeypatch.setattr(staged, "decompile_bytes", counting)
    return calls


class TestQueryMemo:
    """A repeated payload skips the front end and answers bit-identically."""

    def test_repeated_binary(self, trained, index, corpus, decompiles):
        c, _ = corpus
        server = RetrievalServer(trained, _copy_index(index), default_k=3)
        (first,), _ = _serve(server, [_binary_request(c[0], id="q")])
        memo = server.stats.counts
        assert (memo["memo_hits"], memo["memo_misses"], len(decompiles)) == (0, 1, 1)
        (again,), _ = _serve(server, [_binary_request(c[0], id="q")])
        assert (memo["memo_hits"], len(decompiles)) == (1, 1)
        fresh = RetrievalServer(trained, _copy_index(index), default_k=3)
        (cold,), _ = _serve(fresh, [_binary_request(c[0], id="q")])
        assert first == again == cold
        assert "hits" in first

    def test_repeated_source(self, trained, index, corpus):
        _, j = corpus
        req = json.dumps({"id": "s", "source": j[1].source_text, "language": "java"})
        server = RetrievalServer(trained, _copy_index(index), default_k=3)
        (first,), _ = _serve(server, [req])
        (again,), _ = _serve(server, [req])
        assert server.stats.counts["memo_hits"] == 1
        fresh = RetrievalServer(trained, _copy_index(index), default_k=3)
        (cold,), _ = _serve(fresh, [req])
        assert first == again == cold
        assert "hits" in first

    def test_digest_covers_kind_language_and_payload(self, trained, index):
        server = RetrievalServer(trained, index)
        text = "int f() { return 1; }"
        digests = {
            server._payload({"source": text, "language": "c"})[0],
            server._payload({"source": text, "language": "java"})[0],
            server._payload({"source": text + " ", "language": "c"})[0],
            server._payload({"binary_b64": base64.b64encode(text.encode()).decode()})[0],
        }
        assert len(digests) == 4

    def test_identical_binaries_in_one_batch_decompile_once(
        self, trained, index, corpus, decompiles
    ):
        c, _ = corpus
        server = RetrievalServer(trained, _copy_index(index), batch_size=3, default_k=3)
        responses, stats = _serve(server, [
            _binary_request(c[0], id="a"),
            _binary_request(c[1], id="b"),
            _binary_request(c[0], id="c"),
        ])
        assert stats["batches"] == 1
        assert decompiles == ["a", "b"]
        assert responses[0]["hits"] == responses[2]["hits"]
        plain = RetrievalServer(trained, _copy_index(index), batch_size=3, default_k=3)
        reference, _ = _serve(plain, [
            _binary_request(c[0], id="a"),
            _binary_request(c[1], id="b"),
        ])
        assert responses[:2] == reference

    def test_evicted_embedding_falls_back_to_full_path(
        self, trained, index, corpus, decompiles
    ):
        c, _ = corpus
        copy = _copy_index(index, query_cache_size=4)
        server = RetrievalServer(trained, copy, default_k=3)
        assert server.memo_size == 4
        copy.query_cache_size = 1  # the LRU now forgets what the memo keeps
        (first,), _ = _serve(server, [_binary_request(c[0], id="q")])
        _serve(server, [_binary_request(c[1], id="other")])
        assert len(server._memo) == 2
        (again,), _ = _serve(server, [_binary_request(c[0], id="q")])
        assert server.stats.counts["memo_hits"] == 0
        assert decompiles == ["q", "other", "q"]
        assert again == first

    def test_failed_decompile_is_not_memoized(self, trained, index, decompiles):
        server = RetrievalServer(trained, _copy_index(index), default_k=1)
        junk = json.dumps({"id": "j", "binary_b64": base64.b64encode(b"\x00junk").decode()})
        for _ in range(2):
            (resp,), stats = _serve(server, [junk])
            assert stats["errors"] == 1 and "does not decompile" in resp["error"]
        assert len(decompiles) == 2
        assert len(server._memo) == 0 and server.stats.counts["memo_hits"] == 0

    def test_memo_is_bounded(self, trained, index, corpus):
        c, _ = corpus
        server = RetrievalServer(trained, _copy_index(index, query_cache_size=2))
        assert server.memo_size == 2
        for sample in c[:5]:
            _serve(server, [_binary_request(sample)])
            assert len(server._memo) <= 2
        assert len(server._memo) == 2

    def test_swapped_index_answers_memoized_binary(self, trained, index, corpus):
        c, _ = corpus
        server = RetrievalServer(trained, _copy_index(index), default_k=3)
        _serve(server, [_binary_request(c[0], id="q")])
        smaller = EmbeddingIndex(trained)
        smaller.add_precomputed(index.keys[1:], index.embeddings[1:], index.metas[1:])
        server.index = smaller
        (after,), _ = _serve(server, [_binary_request(c[0], id="q")])
        fresh = RetrievalServer(trained, _copy_index(smaller), default_k=3)
        (want,), _ = _serve(fresh, [_binary_request(c[0], id="q")])
        assert after == want
        assert index.keys[0] not in [h["key"] for h in after["hits"]]

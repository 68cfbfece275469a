"""Tests for graceful degradation and deadlines in the retrieval service.

A serve tier built for faults: a corrupt shard is quarantined and the
survivors keep answering (flagged ``degraded`` with a coverage fraction),
a corrupt quantizer payload falls back from ANN to the exact path, a
batch that blows its deadline returns a retryable error instead of
hanging the connection, and SIGTERM/SIGINT drain in-flight requests with
complete ordered responses before the process exits.
"""

import base64
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex, open_index
from repro.index.sharded import ShardCorruption
from repro.serve import RetrievalServer, ServerConfig, create_server

TIMEOUT = 120.0


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


def build_sharded(trained, samples, root, **kw):
    idx = EmbeddingIndex(trained)
    idx.add(
        [s.source_graph for s in samples],
        metas=[{"id": s.identifier} for s in samples],
    )
    return ShardedEmbeddingIndex.from_index(idx, root, 3, **kw)


def corrupt_last_shard(root):
    shard = sorted(root.glob("shard-*.npz"))[-1]
    shard.write_bytes(shard.read_bytes()[:64])
    return shard


def _binary_request(sample, **extra):
    req = {"binary_b64": base64.b64encode(sample.binary_bytes).decode()}
    req.update(extra)
    return req


def _parsed(req, default_k=3):
    """Validate like the real intake path (fills the ``k`` default)."""
    from repro.serve.core import parse_request

    return parse_request(json.dumps(req), default_k)


class TestDegradedShards:
    def test_corrupt_shard_is_quarantined_and_flagged(
        self, trained, corpus, tmp_path
    ):
        c, j = corpus
        built = build_sharded(trained, j, tmp_path / "idx")
        total = len(built)
        corrupt_last_shard(tmp_path / "idx")
        index = open_index(tmp_path / "idx", trained, degraded=True)
        server = RetrievalServer(trained, index, default_k=3)
        responses = server.handle_batch(
            [_parsed(_binary_request(c[0], id="q0", k=3)),
             _parsed(_binary_request(c[1], id="q1"))]
        )
        assert len(responses) == 2
        for resp in responses:
            assert resp["degraded"] is True
            assert 0.0 < resp["coverage"] < 1.0
            assert resp["hits"]  # survivors still answer
        assert index.quarantined
        lost = total - round(resp["coverage"] * total)
        assert lost >= 1

    def test_degraded_hits_agree_with_survivors(self, trained, corpus, tmp_path):
        """Degraded answers are *correct over what remains*: identical to an
        index built from only the surviving shards' entries."""
        c, j = corpus
        build_sharded(trained, j, tmp_path / "idx")
        corrupt_last_shard(tmp_path / "idx")
        index = open_index(tmp_path / "idx", trained, degraded=True)
        server = RetrievalServer(trained, index, default_k=3)
        (got,) = server.handle_batch([_parsed(_binary_request(c[0], id="q"))])
        # Survivor set = entries of the non-corrupt shards (the last shard,
        # holding the tail entries, was the one corrupted above).
        keep = j[: (len(j) // 3) * 3] if len(j) % 3 else j[: len(j) - 3]
        healthy = EmbeddingIndex(trained)
        healthy.add(
            [s.source_graph for s in keep],
            metas=[{"id": s.identifier} for s in keep],
        )
        ref = RetrievalServer(trained, healthy, default_k=3)
        (want,) = ref.handle_batch([_parsed(_binary_request(c[0], id="q"))])
        got_pairs = [(h["key"], round(h["score"], 6)) for h in got["hits"]]
        want_pairs = [(h["key"], round(h["score"], 6)) for h in want["hits"]]
        assert got_pairs == want_pairs

    def test_strict_open_raises_shard_corruption(self, trained, corpus, tmp_path):
        c, j = corpus
        build_sharded(trained, j, tmp_path / "idx")
        corrupt_last_shard(tmp_path / "idx")
        index = open_index(tmp_path / "idx", trained)  # strict: no flag
        server = RetrievalServer(trained, index, default_k=3)
        with pytest.raises(ShardCorruption):
            server.handle_batch([_parsed(_binary_request(c[0], id="q", k=None))])

    def test_healthy_index_has_no_degraded_key(self, trained, corpus, tmp_path):
        c, j = corpus
        build_sharded(trained, j, tmp_path / "idx")
        index = open_index(tmp_path / "idx", trained, degraded=True)
        server = RetrievalServer(trained, index, default_k=3)
        (resp,) = server.handle_batch([_parsed(_binary_request(c[0], id="q"))])
        assert "degraded" not in resp and "coverage" not in resp


class TestAnnFallback:
    def _corrupt_quantizer(self, root):
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["quantizer"]["centroids"] = manifest["quantizer"]["centroids"][:-1]
        (root / "manifest.json").write_text(json.dumps(manifest))

    def test_corrupt_payload_falls_back_to_exact(self, trained, corpus, tmp_path):
        c, j = corpus
        build_sharded(trained, j, tmp_path / "idx", cells=2)
        self._corrupt_quantizer(tmp_path / "idx")
        index = open_index(tmp_path / "idx", trained, degraded=True)
        assert index.quantizer is None and index.quantizer_error
        server = RetrievalServer(
            trained, index, default_k=3, mode="ann", allow_degraded=True
        )
        assert server.mode == "exact"
        (resp,) = server.handle_batch([_parsed(_binary_request(c[0], id="q"))])
        assert resp["degraded"] is True
        assert resp["ann_fallback"] == "exact"
        assert resp["hits"]
        # ... and the fallback answers are the exact path's answers.
        ref = RetrievalServer(trained, index, default_k=3)
        (want,) = ref.handle_batch([_parsed(_binary_request(c[0], id="q"))])
        assert resp["hits"] == want["hits"]

    def test_corrupt_payload_without_allow_degraded_raises(
        self, trained, corpus, tmp_path
    ):
        _, j = corpus
        build_sharded(trained, j, tmp_path / "idx", cells=2)
        self._corrupt_quantizer(tmp_path / "idx")
        index = open_index(tmp_path / "idx", trained, degraded=True)
        with pytest.raises(ValueError, match="ann"):
            RetrievalServer(trained, index, mode="ann")

    def test_never_trained_quantizer_is_still_a_config_error(
        self, trained, corpus, tmp_path
    ):
        """allow_degraded forgives corruption, not misconfiguration."""
        _, j = corpus
        build_sharded(trained, j, tmp_path / "idx")  # no cells: no quantizer
        index = open_index(tmp_path / "idx", trained, degraded=True)
        assert index.quantizer is None and index.quantizer_error is None
        with pytest.raises(ValueError, match="quantizer"):
            RetrievalServer(trained, index, mode="ann", allow_degraded=True)


class TestDeadlines:
    @pytest.fixture(scope="class")
    def assets(self, trained, corpus, tmp_path_factory):
        _, j = corpus
        root = tmp_path_factory.mktemp("deadline")
        checkpoint = root / "model.npz"
        trained.save(checkpoint)
        build_sharded(trained, j, root / "idx")
        return {"checkpoint": str(checkpoint), "index": str(root / "idx")}

    def test_hung_batch_gets_retryable_error_then_service_recovers(
        self, assets, corpus
    ):
        c, _ = corpus
        config = ServerConfig(
            checkpoint=assets["checkpoint"],
            index_path=assets["index"],
            port=0,
            workers=1,
            max_batch=2,
            max_delay_ms=2.0,
            default_k=3,
            enable_test_hooks=True,
            batch_timeout_s=2.0,
        )
        with create_server(config) as server:
            with _client(server.address) as sock:
                _send(sock, _binary_request(c[0], id="stuck", test_sleep_ms=30000))
                resp = _recv(sock)
                assert resp["id"] == "stuck"
                assert "deadline exceeded" in resp["error"]
                assert resp["retryable"] is True
                # The hung worker was killed and respawned: the service
                # answers a retry instead of wedging forever.  The deadline
                # clock runs from submit, so a retry racing the respawn's
                # model load can itself expire — retryable means exactly
                # "send it again", so the client contract is a retry loop.
                for attempt in range(5):
                    _send(sock, _binary_request(c[1], id=f"retry{attempt}"))
                    resp = _recv(sock)
                    if "hits" in resp:
                        break
                    assert resp["retryable"] is True
                assert "hits" in resp, resp
            timeouts = server.pool.stats.counts["deadline_timeouts"]
            assert timeouts >= 1
            assert server.stats_snapshot()["deadline_timeouts"] == timeouts

    def test_expired_queued_batch_is_dropped_not_run(self, assets, corpus):
        """A batch that expires while queued is answered and never sent:
        run for nobody, a hung one would hold its worker past every
        deadline (nothing watches a batch no one waits for)."""
        c, _ = corpus
        config = ServerConfig(
            checkpoint=assets["checkpoint"],
            index_path=assets["index"],
            port=0,
            workers=1,
            max_batch=2,
            max_delay_ms=2.0,
            default_k=3,
            enable_test_hooks=True,
            batch_timeout_s=2.0,
        )
        with create_server(config) as server:
            with _client(server.address) as first, _client(server.address) as sock:
                _send(first, _binary_request(c[0], id="stuck", test_sleep_ms=30000))
                end = time.monotonic() + TIMEOUT
                while server.pool.has_idle_worker():
                    assert time.monotonic() < end, "stuck batch never dispatched"
                    time.sleep(0.005)
                # Queued behind the hung batch on the only worker.
                _send(sock, _binary_request(c[1], id="queued", test_sleep_ms=30000))
                assert "deadline exceeded" in _recv(first)["error"]
                assert "deadline exceeded" in _recv(sock)["error"]
                # The respawn serves a retry well inside the queued batch's
                # 30 s sleep, so that batch was never run.
                for attempt in range(5):
                    _send(sock, _binary_request(c[2], id=f"retry{attempt}"))
                    resp = _recv(sock)
                    if "hits" in resp:
                        break
                    assert resp["retryable"] is True
                assert "hits" in resp, resp
            assert server.pool.stats.counts["deadline_timeouts"] >= 2

    def test_no_deadline_means_no_watchdog(self, assets):
        config = ServerConfig(
            checkpoint=assets["checkpoint"],
            index_path=assets["index"],
            port=0,
            workers=1,
        )
        with create_server(config) as server:
            assert server.pool.batch_timeout_s is None
            assert server.pool.stats.counts["deadline_timeouts"] == 0


# Minimal socket helpers (the full Client lives in test_serve_concurrent).
def _client(address):
    sock = socket.create_connection(tuple(address), timeout=TIMEOUT)
    sock.settimeout(TIMEOUT)
    return sock


def _send(sock, obj):
    sock.sendall((json.dumps(obj) + "\n").encode())


def _recv(sock, _bufs={}):
    buf = _bufs.setdefault(id(sock), bytearray())
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    line, _, rest = bytes(buf).partition(b"\n")
    _bufs[id(sock)] = bytearray(rest)
    return json.loads(line)


class TestGracefulShutdown:
    @pytest.fixture(scope="class")
    def assets(self, trained, corpus, tmp_path_factory):
        _, j = corpus
        root = tmp_path_factory.mktemp("shutdown")
        checkpoint = root / "model.npz"
        trained.save(checkpoint)
        build_sharded(trained, j, root / "idx")
        return {"checkpoint": str(checkpoint), "index": str(root / "idx")}

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
    def test_signal_drains_inflight_before_exit(self, assets, corpus, sig):
        """`repro serve --socket` under SIGTERM/SIGINT answers everything
        already admitted — in order, complete — then exits cleanly."""
        c, _ = corpus
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        # Hold every batch in flight ~50ms so the signal lands mid-work.
        env["REPRO_FAULTS"] = "slow-io:worker.batch"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                assets["checkpoint"],
                assets["index"],
                "--socket",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--batch",
                "2",
                "--max-delay-ms",
                "2",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "serving on" in banner, banner
            host_port = banner.split("serving on ", 1)[1].split()[0]
            host, port = host_port.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=TIMEOUT) as sock:
                sock.settimeout(TIMEOUT)
                n = 6
                for i in range(n):
                    _send(sock, _binary_request(c[i % len(c)], id=f"q{i}"))
                time.sleep(0.15)  # admitted; several batches still in flight
                proc.send_signal(sig)
                got = [_recv(sock) for _ in range(n)]
            assert [r["id"] for r in got] == [f"q{i}" for i in range(n)]
            assert all("hits" in r for r in got), got
            assert proc.wait(timeout=TIMEOUT) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()

    def test_sigterm_on_idle_server_exits_promptly(self, assets):
        """An idle `repro serve --socket` exits within a second of SIGTERM:
        closing the listener must wake the thread blocked in accept()."""
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                assets["checkpoint"],
                assets["index"],
                "--socket",
                "127.0.0.1:0",
                "--workers",
                "1",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "serving on" in banner, banner
            started = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=TIMEOUT) == 0
            assert time.monotonic() - started < 1.0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.close()

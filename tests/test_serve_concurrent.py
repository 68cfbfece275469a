"""Tests for the concurrent socket retrieval service (repro.serve --socket).

The serving contract under concurrency: each connection gets its
responses in its own request order, as complete non-interleaved JSON
lines; batched results are bit-identical to the sequential stdin path;
faults (disconnects, garbage framing, slowloris trickle, a worker
crashing mid-batch) are contained to the connection or batch that caused
them; overload sheds deterministically with ``overloaded`` responses;
and an index hot-swap finishes in-flight queries on the old index while
later queries see the new one.
"""

import base64
import io
import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex, open_index
from repro.serve import RetrievalServer, ServerConfig, create_server

# Generous wall bound for any single round-trip; the assertions that
# matter are about ordering and content, not absolute speed.
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


@pytest.fixture(scope="module")
def assets(trained, corpus, tmp_path_factory):
    """On-disk checkpoint + two distinguishable sharded indexes (A and B)."""
    _, j = corpus
    root = tmp_path_factory.mktemp("serve_concurrent")
    checkpoint = root / "model.npz"
    trained.save(checkpoint)
    paths = {"checkpoint": str(checkpoint)}
    for tag, samples in (("A", j), ("B", list(reversed(j)))):
        idx = EmbeddingIndex(trained)
        idx.add(
            [s.source_graph for s in samples],
            metas=[{"id": s.identifier, "index_tag": tag} for s in samples],
        )
        ShardedEmbeddingIndex.from_index(idx, root / f"index{tag}", 3)
        paths[tag] = str(root / f"index{tag}")
    return paths


@pytest.fixture(scope="module")
def server(assets):
    """The shared service most tests talk to: 2 workers, small batches."""
    config = ServerConfig(
        checkpoint=assets["checkpoint"],
        index_path=assets["A"],
        port=0,
        workers=2,
        max_batch=4,
        max_delay_ms=5.0,
        queue_depth=64,
        default_k=3,
        max_line_bytes=8192,
        enable_test_hooks=True,
    )
    with create_server(config) as srv:
        yield srv


class Client:
    """One JSON-lines client connection with framed reads."""

    def __init__(self, address, timeout=TIMEOUT):
        if isinstance(address, str):
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.connect(address)
        else:
            self.sock = socket.create_connection(tuple(address), timeout=timeout)
        self.sock.settimeout(timeout)
        self._buf = b""

    def send(self, obj):
        self.send_raw((json.dumps(obj) + "\n").encode())

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def recv(self) -> dict:
        while b"\n" not in self._buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def recv_all(self, n: int):
        return [self.recv() for _ in range(n)]

    def at_eof(self) -> bool:
        """True once the server has closed its side (after draining)."""
        try:
            return self.sock.recv(1) == b""
        except OSError:
            return True

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _wait_until(predicate, timeout=TIMEOUT):
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "condition not reached in time"
        time.sleep(0.005)


def _binary_request(sample, **extra):
    req = {"binary_b64": base64.b64encode(sample.binary_bytes).decode()}
    req.update(extra)
    return req


class TestParity:
    def test_single_client_matches_stdin_path(
        self, server, trained, assets, corpus
    ):
        """The socket path returns bit-identical responses to `repro serve`
        reading the same requests from stdin over the same index."""
        c, j = corpus
        requests = [
            _binary_request(c[0], id="q0"),
            _binary_request(c[1], id="q1", k=1),
            {"id": "q2", "source": j[0].source_text, "language": "java"},
            _binary_request(c[2], id="q3", k=None),
        ]
        index = open_index(assets["A"], trained)
        stdin_server = RetrievalServer(trained, index, batch_size=4, default_k=3)
        out = io.StringIO()
        stdin_server.serve(
            io.StringIO("".join(json.dumps(r) + "\n" for r in requests)), out
        )
        expected = [json.loads(line) for line in out.getvalue().splitlines()]
        with Client(server.address) as client:
            for req in requests:
                client.send(req)
            got = client.recv_all(len(requests))
        assert got == expected

    def test_batched_bit_identical_to_sequential(self, server, corpus):
        """One pipelined burst (scored in shared batches) returns exactly
        what the same requests return one-at-a-time on fresh connections."""
        c, _ = corpus
        requests = [_binary_request(s, id=s.identifier) for s in c[:4]]
        sequential = []
        for req in requests:
            with Client(server.address) as client:
                client.send(req)
                sequential.append(client.recv())
        with Client(server.address) as client:
            for req in requests:
                client.send(req)
            batched = client.recv_all(len(requests))
        assert batched == sequential


class TestConcurrency:
    def test_many_clients_get_ordered_responses(self, server, corpus):
        c, _ = corpus
        clients, per_client = 8, 5
        failures = []

        def run(ci):
            try:
                with Client(server.address) as client:
                    ids = [f"c{ci}-q{j}" for j in range(per_client)]
                    for j, rid in enumerate(ids):
                        client.send(_binary_request(c[j % len(c)], id=rid))
                    responses = client.recv_all(per_client)
                    got_ids = [r.get("id") for r in responses]
                    if got_ids != ids:
                        failures.append(f"client {ci}: order {got_ids} != {ids}")
                    for r in responses:
                        if "hits" not in r:
                            failures.append(f"client {ci}: no hits in {r}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(f"client {ci}: {type(exc).__name__}: {exc}")

        threads = [
            threading.Thread(target=run, args=(ci,)) for ci in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=TIMEOUT)
        assert not failures, failures

    def test_interleaved_clients_keep_their_own_streams(self, server, corpus):
        """Requests interleaved across two connections route every response
        to the connection that asked, each in its own order."""
        c, _ = corpus
        with Client(server.address) as one, Client(server.address) as two:
            for j in range(3):
                one.send(_binary_request(c[j], id=f"one-{j}"))
                two.send(_binary_request(c[j], id=f"two-{j}"))
            got_one = one.recv_all(3)
            got_two = two.recv_all(3)
        assert [r["id"] for r in got_one] == ["one-0", "one-1", "one-2"]
        assert [r["id"] for r in got_two] == ["two-0", "two-1", "two-2"]
        assert all("hits" in r for r in got_one + got_two)

    def test_stats_control(self, server, corpus):
        c, _ = corpus
        with Client(server.address) as client:
            client.send(_binary_request(c[0], id="warm"))
            assert "hits" in client.recv()
            client.send({"control": "stats", "id": "st"})
            resp = client.recv()
        assert resp["id"] == "st"
        stats = resp["stats"]
        assert stats["responses"] >= 1 and stats["workers"] == 2
        for key in ("requests", "shed", "batches", "flushed_on_idle",
                    "flushed_on_size", "flushed_on_deadline"):
            assert key in stats
        flushes = [k for k in stats if k.startswith("flushed_on_")]
        assert sum(stats[k] for k in flushes) == stats["batches"]

    def test_stats_of_a_fresh_server_carry_every_key(self, assets):
        """Every counter is present from start-up, zeros included."""
        config = ServerConfig(checkpoint=assets["checkpoint"],
                              index_path=assets["A"], port=0, workers=1)
        with create_server(config) as srv:
            with Client(srv.address) as client:
                client.send({"control": "stats", "id": "st"})
                stats = client.recv()["stats"]
        assert set(stats) == {
            "requests", "responses", "errors", "shed", "batches",
            "crashed_batches", "swaps", "workers", "worker_crashes",
            "deadline_timeouts", "pending", "flushed_on_idle",
            "flushed_on_size", "flushed_on_deadline", "flushed_on_barrier",
            "memo_hits", "memo_misses",
        }
        # The stats request itself is the one request counted so far.
        assert stats == dict.fromkeys(stats, 0) | {"requests": 1, "workers": 1}
        flushes = [k for k in stats if k.startswith("flushed_on_")]
        assert sum(stats[k] for k in flushes) == stats["batches"]

    def test_stats_count_worker_memo_hits(self, assets, corpus):
        """A repeated binary skips the worker's front end, and the parent's
        stats say so."""
        c, _ = corpus
        config = ServerConfig(checkpoint=assets["checkpoint"],
                              index_path=assets["A"], port=0, workers=1)
        with create_server(config) as srv:
            with Client(srv.address) as client:
                answers = []
                for rid in ("first", "again"):
                    client.send(_binary_request(c[0], id=rid))
                    answers.append(client.recv())
                client.send({"control": "stats", "id": "st"})
                stats = client.recv()["stats"]
        assert answers[0]["hits"] == answers[1]["hits"]
        assert stats["memo_misses"] >= 1 and stats["memo_hits"] >= 1
        assert stats["errors"] == 0

    def test_unknown_control_is_an_error(self, server):
        with Client(server.address) as client:
            client.send({"control": "bogus", "id": "x"})
            resp = client.recv()
        assert resp["id"] == "x" and "unknown control" in resp["error"]


class TestFaults:
    def test_disconnect_mid_request_leaves_server_up(self, server, corpus):
        c, _ = corpus
        with Client(server.address) as client:
            client.send_raw(b'{"id": "half", "binary_b64": "AAAA')  # no newline
        # The partial line is served at EOF (here: as a parse error that has
        # no one left to read it).  The service must shrug it off.
        with Client(server.address) as client:
            client.send(_binary_request(c[0], id="after"))
            assert "hits" in client.recv()

    def test_disconnect_before_response_is_dropped_quietly(self, server, corpus):
        c, _ = corpus
        with Client(server.address) as client:
            client.send(_binary_request(c[0], id="gone"))
        with Client(server.address) as client:
            client.send(_binary_request(c[1], id="still-here"))
            resp = client.recv()
        assert resp["id"] == "still-here" and "hits" in resp

    def test_truncated_json_errors_but_connection_survives(self, server, corpus):
        c, _ = corpus
        with Client(server.address) as client:
            client.send_raw(b'{"id": "trunc", "binary_b64": "AAAA\n')
            resp = client.recv()
            assert "error" in resp
            client.send(_binary_request(c[0], id="next"))
            resp = client.recv()
        assert resp["id"] == "next" and "hits" in resp

    def test_oversized_line_gets_in_order_error_then_close(self, server, corpus):
        c, _ = corpus
        with Client(server.address) as client:
            client.send(_binary_request(c[0], id="fine"))
            client.send_raw(b"x" * (server.config.max_line_bytes + 100))
            first, second = client.recv_all(2)
            assert first["id"] == "fine" and "hits" in first
            assert "exceeds" in second["error"]
            assert client.at_eof()

    def test_slowloris_does_not_starve_other_clients(self, server, corpus):
        """A client trickling bytes holds only its own reader thread.  The
        request's tail is withheld until the fast clients are done, so the
        slow request is *provably* incomplete while they are served."""
        c, _ = corpus
        payload = (json.dumps(_binary_request(c[0], id="slow")) + "\n").encode()
        release = threading.Event()
        slow = Client(server.address)

        def trickle():
            body, tail = payload[:-8], payload[-8:]
            for i in range(0, len(body), 16):
                slow.send_raw(body[i : i + 16])
                time.sleep(0.005)
            release.wait(TIMEOUT)
            slow.send_raw(tail)

        feeder = threading.Thread(target=trickle)
        feeder.start()
        try:
            # Fast clients are served while the slow request cannot complete.
            for j in range(3):
                with Client(server.address) as fast:
                    fast.send(_binary_request(c[j], id=f"fast-{j}"))
                    assert "hits" in fast.recv()
        finally:
            release.set()
            feeder.join(timeout=TIMEOUT)
        resp = slow.recv()
        slow.close()
        assert resp["id"] == "slow" and "hits" in resp

    def test_worker_crash_fails_batch_not_server(self, server, corpus):
        c, _ = corpus
        before = server.stats.counts["worker_crashes"]
        with Client(server.address) as client:
            client.send(_binary_request(c[0], id="boom", test_crash=True))
            resp = client.recv()
            assert resp["id"] == "boom" and "crashed" in resp["error"]
            client.send(_binary_request(c[1], id="alive"))
            resp = client.recv()
        assert resp["id"] == "alive" and "hits" in resp
        assert server.stats.counts["worker_crashes"] == before + 1

    def test_worker_crash_spares_other_clients_batches(self, server, corpus):
        c, _ = corpus
        with Client(server.address) as victim, Client(server.address) as bystander:
            victim.send(_binary_request(c[0], id="boom2", test_crash=True))
            time.sleep(0.05)  # let the crash batch flush (5 ms deadline)
            bystander.send(_binary_request(c[1], id="unharmed"))
            boom = victim.recv()
            ok = bystander.recv()
        assert "crashed" in boom["error"]
        assert ok["id"] == "unharmed" and "hits" in ok


class TestSingleWorkerFaults:
    """One worker: nothing to fall back on, so recovery must be exact."""

    @staticmethod
    def _config(checkpoint, index_path):
        return ServerConfig(
            checkpoint=checkpoint,
            index_path=index_path,
            port=0,
            workers=1,
            max_batch=2,
            max_delay_ms=5.0,
            default_k=2,
            enable_test_hooks=True,
        )

    def test_batch_queued_behind_a_crash_is_served_by_the_respawn(
        self, assets, corpus
    ):
        c, _ = corpus
        config = self._config(assets["checkpoint"], assets["A"])
        with create_server(config) as srv:
            with Client(srv.address) as victim, Client(srv.address) as queued:
                victim.send(_binary_request(
                    c[0], id="boom", test_crash=True, test_sleep_ms=1000
                ))
                _wait_until(lambda: not srv.pool.has_idle_worker())
                queued.send(_binary_request(c[1], id="queued"))
                # Dispatched while the only worker is still busy: it waits
                # in the parent-side FIFO, not on the dying worker's pipe.
                _wait_until(lambda: srv.stats.counts["batches"] >= 2)
                boom = victim.recv()
                ok = queued.recv()
            assert boom["id"] == "boom" and "crashed" in boom["error"]
            assert ok["id"] == "queued" and "hits" in ok
            assert srv.stats.counts["worker_crashes"] == 1

    def test_retired_worker_fails_requests_instead_of_stranding_them(
        self, trained, assets, corpus, tmp_path
    ):
        c, _ = corpus
        checkpoint = tmp_path / "model.npz"
        trained.save(checkpoint)
        config = self._config(str(checkpoint), assets["A"])
        with create_server(config) as srv:
            with Client(srv.address) as client:
                client.send(_binary_request(c[0], id="first"))
                assert "hits" in client.recv()
                # Every respawn now fails to load the model.
                os.rename(checkpoint, tmp_path / "moved.npz")
                client.send(_binary_request(c[1], id="boom", test_crash=True))
                assert "crashed" in client.recv()["error"]
                client.send(_binary_request(c[2], id="stranded"))
                stranded = client.recv()
                client.send(_binary_request(c[3], id="later"))
                later = client.recv()
        assert stranded["id"] == "stranded"
        assert "worker 0 failed to start 3 times" in stranded["error"]
        # With no live worker left, new batches fail at submit.
        assert later["id"] == "later"
        assert later["error"].startswith("no worker available: worker 0")

    def test_missing_checkpoint_fails_start_without_retrying(
        self, assets, tmp_path
    ):
        config = self._config(str(tmp_path / "missing.npz"), assets["A"])
        server = create_server(config)
        with pytest.raises(RuntimeError, match="worker failed to start") as err:
            server.start()
        # A bad path is not retried: one attempt, not START_ATTEMPTS.
        assert "worker 0 failed to start: FileNotFoundError" in str(err.value)
        assert server.pool._sup.respawns == 0


class TestStress:
    def test_pipelined_clients_answer_each_request_once(self, assets, corpus):
        """The submit threads and the result thread share each worker's
        in-flight job; with a tiny switch interval forcing them to
        interleave, a lost or misrouted reply shows up as a missing,
        extra, reordered or wrong response."""
        c, _ = corpus
        config = ServerConfig(
            checkpoint=assets["checkpoint"],
            index_path=assets["A"],
            port=0,
            workers=3,
            max_batch=2,
            max_delay_ms=1.0,
            default_k=2,
        )
        clients, per_client = 6, 6
        old_interval = sys.getswitchinterval()
        with create_server(config) as srv:
            reference = []
            for j in range(per_client):
                with Client(srv.address) as client:
                    client.send(_binary_request(c[j % len(c)], id="ref"))
                    reference.append(client.recv()["hits"])
            got = {}

            def run(ci):
                with Client(srv.address) as client:
                    for j in range(per_client):
                        client.send(_binary_request(c[j % len(c)], id=f"{ci}-{j}"))
                    got[ci] = client.recv_all(per_client)

            sys.setswitchinterval(1e-5)
            try:
                threads = [
                    threading.Thread(target=run, args=(ci,)) for ci in range(clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=TIMEOUT)
            finally:
                sys.setswitchinterval(old_interval)
            assert not any(t.is_alive() for t in threads)
        assert sorted(got) == list(range(clients))
        for ci, answers in got.items():
            assert [r["id"] for r in answers] == [
                f"{ci}-{j}" for j in range(per_client)
            ]
            for answer, expected in zip(answers, reference):
                # A float32 score moves by an ulp with its batch-mates.
                assert [h["key"] for h in answer["hits"]] == [
                    h["key"] for h in expected
                ]
                assert [h["score"] for h in answer["hits"]] == pytest.approx(
                    [h["score"] for h in expected], abs=1e-6
                )
        # Read after close(): a response is counted just after delivery.
        assert srv.stats.counts["responses"] == per_client + clients * per_client


class TestBackpressure:
    @pytest.fixture(scope="class")
    def bp_server(self, assets):
        """Tiny admission bound and one worker: overload is easy to provoke."""
        config = ServerConfig(
            checkpoint=assets["checkpoint"],
            index_path=assets["A"],
            port=0,
            workers=1,
            max_batch=2,
            max_delay_ms=5.0,
            queue_depth=2,
            default_k=2,
            enable_test_hooks=True,
        )
        with create_server(config) as srv:
            yield srv

    def test_overload_sheds_deterministically(self, bp_server, corpus):
        """With the worker held busy and queue_depth=2, exactly the first two
        requests are admitted and every further one is shed immediately."""
        c, _ = corpus
        with Client(bp_server.address) as client:
            client.send(_binary_request(c[0], id="held", test_sleep_ms=800))
            client.send(_binary_request(c[1], id="q1"))
            for j in range(2, 6):
                client.send(_binary_request(c[j % len(c)], id=f"q{j}"))
            responses = client.recv_all(6)
        assert [r["id"] for r in responses] == ["held", "q1"] + [
            f"q{j}" for j in range(2, 6)
        ]
        assert "hits" in responses[0] and "hits" in responses[1]
        for shed in responses[2:]:
            assert shed["error"] == "overloaded"
            assert isinstance(shed["retry_after_ms"], int)
            assert shed["retry_after_ms"] >= 1
        # Capacity returns once responses drain: the next request is served.
        with Client(bp_server.address) as client:
            client.send(_binary_request(c[0], id="recovered"))
            assert "hits" in client.recv()

    def test_lone_request_flushes_on_deadline(self, bp_server, corpus):
        """With the only worker busy, a request that never fills a batch is
        still dispatched via the deadline flush, not stuck waiting for more
        traffic."""
        c, _ = corpus
        stats = bp_server.scheduler.stats
        with Client(bp_server.address) as client:
            client.send(_binary_request(c[0], id="held", test_sleep_ms=600))
            _wait_until(lambda: not bp_server.pool.has_idle_worker())
            before = stats.counts["flushed_on_deadline"]
            client.send(_binary_request(c[1], id="lone"))
            _wait_until(lambda: stats.counts["flushed_on_deadline"] > before)
            held, lone = client.recv_all(2)
        assert held["id"] == "held" and "hits" in held
        assert lone["id"] == "lone" and "hits" in lone

    def test_lone_request_to_idle_pool_flushes_at_once(self, bp_server, corpus):
        """With the worker idle, a lone request goes out immediately (an
        idle flush) instead of waiting out the deadline."""
        c, _ = corpus
        stats = bp_server.scheduler.stats
        idle_before = stats.counts["flushed_on_idle"]
        deadline_before = stats.counts["flushed_on_deadline"]
        with Client(bp_server.address) as client:
            client.send(_binary_request(c[0], id="lone"))
            resp = client.recv()
        assert resp["id"] == "lone" and "hits" in resp
        assert stats.counts["flushed_on_idle"] == idle_before + 1
        assert stats.counts["flushed_on_deadline"] == deadline_before


class TestHotSwap:
    @pytest.fixture(scope="class")
    def swap_server(self, assets):
        config = ServerConfig(
            checkpoint=assets["checkpoint"],
            index_path=assets["A"],
            port=0,
            workers=2,
            max_batch=4,
            max_delay_ms=5.0,
            default_k=2,
            enable_test_hooks=True,
        )
        with create_server(config) as srv:
            yield srv

    @staticmethod
    def _tags(resp):
        return {h["meta"]["index_tag"] for h in resp["hits"]}

    def test_swap_moves_new_queries_inflight_stay_old(
        self, swap_server, assets, corpus
    ):
        c, _ = corpus
        with Client(swap_server.address) as steady:
            steady.send(_binary_request(c[0], id="pre"))
            assert self._tags(steady.recv()) == {"A"}
            # Hold a query in flight on the old index while swapping.
            steady.send(_binary_request(c[1], id="inflight", test_sleep_ms=600))
            time.sleep(0.1)  # past the 5 ms deadline: dispatched, not buffered
            with Client(swap_server.address) as ctl:
                ctl.send({"control": "reload", "index": assets["B"], "id": "rl"})
                ack = ctl.recv()  # blocks until every worker swapped
                assert ack["reloaded"] is True and ack["workers"] == 2
                assert ack["errors"] == [] and ack["index"] == assets["B"]
                ctl.send(_binary_request(c[2], id="post"))
                assert self._tags(ctl.recv()) == {"B"}
            inflight = steady.recv()
            assert inflight["id"] == "inflight"
            assert self._tags(inflight) == {"A"}  # finished on the old index
            steady.send(_binary_request(c[3], id="after"))
            assert self._tags(steady.recv()) == {"B"}
        assert swap_server.stats.counts["swaps"] == 1

    def test_reload_missing_index_is_an_error_service_survives(
        self, swap_server, corpus
    ):
        c, _ = corpus
        with Client(swap_server.address) as client:
            client.send({"control": "reload", "index": "/nonexistent/idx", "id": "r"})
            resp = client.recv()
            assert "reload failed" in resp.get("error", "") or resp.get("errors")
            client.send(_binary_request(c[0], id="still-serving"))
            assert "hits" in client.recv()


class TestUnixSocket:
    def test_unix_socket_round_trip(self, assets, corpus, tmp_path):
        c, _ = corpus
        path = str(tmp_path / "serve.sock")
        config = ServerConfig(
            checkpoint=assets["checkpoint"],
            index_path=assets["A"],
            unix_socket=path,
            workers=1,
            max_batch=2,
            max_delay_ms=5.0,
            default_k=2,
        )
        with create_server(config) as srv:
            assert srv.address == path
            with Client(path) as client:
                client.send(_binary_request(c[0], id="ux"))
                resp = client.recv()
        assert resp["id"] == "ux" and len(resp["hits"]) == 2

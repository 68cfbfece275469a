"""Cross-start-method parity and fault tests for the warm worker pool.

The pool's contract (repro.exec.pool) is that *scheduling cannot change
results*: ``run_grid`` output must be bit-identical whether jobs run
serially, on fork workers, or on spawn workers, in any submission order,
with any worker count — and a worker killed mid-job must be respawned and
its job retried without corrupting the model store or leaking a shared-
memory segment.  This suite pins each clause.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.eval.experiments import build_crosslang_dataset
from repro.exec import (
    ExperimentSpec,
    JobFailed,
    ModelStore,
    WarmPool,
    run_grid,
)
from repro.exec.pool import WORKER_JOB_SITE, SharedRef, ping
from repro.utils.fsio import read_verified_meta
from repro.utils.shm import SharedBlock, leaked_segments

#: Every start method this platform offers that the pool must support.
START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)

# Probability-0.5 crash seed whose per-worker draw stream at the pool job
# site is [False, True, False]: the first worker survives job 1, dies on
# job 2, and its respawned replacement (fresh per-process counters, n=0)
# completes the retry.  Derived from the fault plan's documented formula:
# derive_rng(seed, "fault", "crash", site, n).random() < prob.
CRASH_SEED = 23
CRASH_AFTER_ONE = f"crash:{WORKER_JOB_SITE}@0.5~{CRASH_SEED}"
CRASH_ALWAYS = f"crash:{WORKER_JOB_SITE}"


@pytest.fixture(scope="module")
def dataset():
    ds, _ = build_crosslang_dataset(tiny_data_config(seed=5), ["c"], ["java"])
    return ds


def tiny_config(**overrides):
    return scaled(cpu_config(seed=5), epochs=2, **overrides)


def grid_jobs(dataset, seeds):
    return [
        (ExperimentSpec(f"pool-{seed}", tiny_config(seed=seed)), dataset)
        for seed in seeds
    ]


def states_by_fingerprint(runs):
    return {r.fingerprint: r.trainer.model.state_dict() for r in runs}


def assert_runs_bitwise_equal(expected, actual):
    assert [r.fingerprint for r in expected] == [r.fingerprint for r in actual]
    for e_run, a_run in zip(expected, actual):
        e_state = e_run.trainer.model.state_dict()
        a_state = a_run.trainer.model.state_dict()
        assert sorted(e_state) == sorted(a_state)
        for key in e_state:
            np.testing.assert_array_equal(e_state[key], a_state[key])


def store_temp_files(store):
    return [p for p in store.root.rglob(".*") if p.is_file() and ".tmp" in p.name]


def _raise_value_error(message):
    raise ValueError(message)


class TestCrossStartMethodParity:
    """One serial reference, every start method bit-identical to it."""

    @pytest.fixture(scope="class")
    def serial(self, dataset, tmp_path_factory):
        store = ModelStore(tmp_path_factory.mktemp("serial-store"))
        return run_grid(grid_jobs(dataset, (1, 2)), store=store)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_pool_matches_serial_bitwise(
        self, dataset, tmp_path, serial, start_method
    ):
        parallel = run_grid(
            grid_jobs(dataset, (1, 2)),
            store=ModelStore(tmp_path),
            workers=2,
            start_method=start_method,
        )
        assert_runs_bitwise_equal(serial, parallel)

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_shuffled_submission_order_is_invisible(
        self, dataset, tmp_path, serial, start_method
    ):
        shuffled = run_grid(
            grid_jobs(dataset, (2, 1)),  # reversed submission order
            store=ModelStore(tmp_path),
            workers=2,
            start_method=start_method,
        )
        by_fp = states_by_fingerprint(shuffled)
        assert by_fp.keys() == states_by_fingerprint(serial).keys()
        for run in serial:
            for key, arr in run.trainer.model.state_dict().items():
                np.testing.assert_array_equal(arr, by_fp[run.fingerprint][key])

    def test_duplicate_fingerprints_train_once(self, dataset, tmp_path):
        spec = ExperimentSpec("dup", tiny_config(seed=9))
        store = ModelStore(tmp_path)
        runs = run_grid(
            [(spec, dataset), (spec, dataset), (spec, dataset)],
            store=store,
            workers=2,
        )
        assert len(runs) == 3
        assert len({r.fingerprint for r in runs}) == 1
        assert len(store) == 1
        assert_runs_bitwise_equal(runs[:1] * 3, runs)

    def test_more_workers_than_jobs(self, dataset, tmp_path, serial):
        parallel = run_grid(
            grid_jobs(dataset, (1, 2)), store=ModelStore(tmp_path), workers=6
        )
        assert_runs_bitwise_equal(serial, parallel)


class TestSharedObjects:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_shared_ref_resolves_to_equal_object(self, start_method):
        payload = {"rows": list(range(50)), "tag": "shared"}
        with WarmPool(1, start_method=start_method) as pool:
            pool.share("obj", payload)
            results = pool.run(ping, [(SharedRef("obj"),), (SharedRef("obj"),)])
        assert results == [payload, payload]

    @needs_fork
    def test_unshare_then_reshare_same_key_serves_new_object(self):
        with WarmPool(1, start_method="fork") as pool:
            pool.share("k", "first")
            assert pool.run(ping, [(SharedRef("k"),)]) == ["first"]
            pool.unshare("k")
            pool.share("k", "second")
            assert pool.run(ping, [(SharedRef("k"),)]) == ["second"]

    def test_unpublished_ref_is_a_clean_job_error(self):
        with WarmPool(1) as pool:
            with pytest.raises(JobFailed, match="not published"):
                pool.run(ping, [(SharedRef("never-shared"),)])
            assert pool.run(ping, [(7,)]) == [7]  # pool survived the error

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_share_lifecycle_leaves_no_segments(self, start_method):
        before = set(leaked_segments())
        with WarmPool(1, start_method=start_method) as pool:
            pool.share("a", b"x" * 4096)
            pool.share("b", b"y" * 4096)
            assert pool.run(ping, [(SharedRef("a"),)]) == [b"x" * 4096]
            pool.unshare("a")
            # Only the still-published "b" segment remains.
            assert set(leaked_segments()) - before == {pool._shares["b"].name}
        # close() unlinked the never-unshared "b" segment too.
        assert set(leaked_segments()) == before

    def test_shared_block_roundtrip_and_unlink(self):
        before = set(leaked_segments())
        block = SharedBlock.from_bytes(b"payload-bytes")
        try:
            attached = SharedBlock.attach(block.name, block.nbytes)
            assert bytes(attached.buf) == b"payload-bytes"
            attached.close()
        finally:
            block.close()
            block.unlink()
            block.unlink()  # idempotent
        assert set(leaked_segments()) == before


class TestFaultTolerance:
    def test_killed_worker_is_respawned_and_job_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", CRASH_AFTER_ONE)
        with WarmPool(1) as pool:
            assert pool.run(ping, [(1,), (2,)]) == [1, 2]
            assert pool.respawns == 1
            assert pool.jobs_done == 2

    def test_grid_survives_worker_crash_without_store_damage(
        self, dataset, tmp_path, monkeypatch
    ):
        reference = run_grid(
            grid_jobs(dataset, (1, 2)), store=ModelStore(tmp_path / "ref")
        )
        monkeypatch.setenv("REPRO_FAULTS", CRASH_AFTER_ONE)
        before = set(leaked_segments())
        store = ModelStore(tmp_path / "faulty")
        with WarmPool(1) as pool:
            runs = run_grid(grid_jobs(dataset, (1, 2)), store=store, pool=pool)
            assert pool.respawns == 1
        assert_runs_bitwise_equal(reference, runs)
        # Every committed entry verifies against its recorded checksum; the
        # killed worker left no half-written temp and no shared-memory segment.
        for run in runs:
            meta = read_verified_meta(store.path_for(run.fingerprint))
            assert meta["experiment"]["fingerprint"] == run.fingerprint
        assert store_temp_files(store) == []
        assert set(leaked_segments()) == before

    def test_relentless_crasher_fails_cleanly_then_pool_recovers(
        self, monkeypatch
    ):
        before = set(leaked_segments())
        monkeypatch.setenv("REPRO_FAULTS", CRASH_ALWAYS)
        with WarmPool(1) as pool:
            pool.share("k", [1, 2, 3])
            with pytest.raises(JobFailed, match="retries"):
                pool.run(ping, [(SharedRef("k"),)])
            monkeypatch.delenv("REPRO_FAULTS")
            # Respawned (fault-free) workers serve the next batch.
            assert pool.run(ping, [(SharedRef("k"),), (9,)]) == [[1, 2, 3], 9]
        assert set(leaked_segments()) == before

    @needs_fork
    def test_clean_job_exception_fails_fast_without_retry(self):
        with WarmPool(1, start_method="fork") as pool:
            with pytest.raises(JobFailed, match="failed cleanly.*boom"):
                pool.run(_raise_value_error, [("boom",)])
            assert pool.respawns == 0  # an exception is an answer, not a death
            assert pool.run(ping, [(3,)]) == [3]

    @needs_fork
    def test_hung_worker_hits_the_job_timeout(self):
        pool = WarmPool(1, start_method="fork", job_timeout=0.5, max_job_retries=0)
        with pool:
            with pytest.raises(JobFailed, match="hung past"):
                pool.run(_sleep_forever, [()])


def _sleep_forever():
    import time

    time.sleep(60)


class TestPoolBasics:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            WarmPool(0)

    def test_closed_pool_refuses_jobs(self):
        pool = WarmPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(ping, [(1,)])

    def test_results_keep_payload_order(self):
        with WarmPool(2) as pool:
            values = list(range(10))
            assert pool.run(ping, [(v,) for v in values]) == values

    def test_workers_stay_resident_across_batches(self):
        with WarmPool(2) as pool:
            pool.run(ping, [(1,), (2,), (3,)])
            pids_a = {w.proc.pid for w in pool._sup.workers}
            pool.run(ping, [(4,), (5,), (6,)])
            pids_b = {w.proc.pid for w in pool._sup.workers}
        assert pids_a == pids_b
        assert pool.respawns == 0

    def test_empty_batch(self):
        with WarmPool(1) as pool:
            assert pool.run(ping, []) == []

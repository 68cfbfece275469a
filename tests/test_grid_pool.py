"""Cross-start-method parity and fault tests for the warm worker pool.

The pool's contract (repro.exec.pool) is that *scheduling cannot change
results*: ``run_grid`` output must be bit-identical whether jobs run
serially, on fork workers, or on spawn workers, in any submission order,
with any worker count, and whichever datasets earlier grids sent to the
same resident workers (each job's dataset rides its payload) — and a
worker killed mid-job must be respawned and its job retried without
corrupting the model store.  This suite pins each clause.
"""

import multiprocessing

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
from repro.exec.pool import WORKER_JOB_SITE, ping
from repro.utils.fsio import read_verified_meta

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


@pytest.fixture(scope="module")
def other_dataset():
    ds, _ = build_crosslang_dataset(tiny_data_config(seed=6), ["c"], ["java"])
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

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_two_datasets_on_one_resident_pool(
        self, dataset, other_dataset, tmp_path, serial, start_method
    ):
        # The second grid's dataset reaches workers that were already
        # running when the first grid finished.
        other_serial = run_grid(
            grid_jobs(other_dataset, (1, 2)),
            store=ModelStore(tmp_path / "other-serial"),
        )
        with WarmPool(2, start_method=start_method) as pool:
            first = run_grid(
                grid_jobs(dataset, (1, 2)),
                store=ModelStore(tmp_path / "first"),
                pool=pool,
            )
            pids = {w.proc.pid for w in pool._sup.workers}
            second = run_grid(
                grid_jobs(other_dataset, (1, 2)),
                store=ModelStore(tmp_path / "second"),
                pool=pool,
            )
            assert {w.proc.pid for w in pool._sup.workers} == pids
            assert pool.respawns == 0
        assert_runs_bitwise_equal(serial, first)
        assert_runs_bitwise_equal(other_serial, second)
        assert {r.fingerprint for r in first}.isdisjoint(
            r.fingerprint for r in second
        )


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
        store = ModelStore(tmp_path / "faulty")
        with WarmPool(1) as pool:
            runs = run_grid(grid_jobs(dataset, (1, 2)), store=store, pool=pool)
            assert pool.respawns == 1
        assert_runs_bitwise_equal(reference, runs)
        # Every committed entry verifies against its recorded checksum; the
        # killed worker left no half-written temp.
        for run in runs:
            meta = read_verified_meta(store.path_for(run.fingerprint))
            assert meta["experiment"]["fingerprint"] == run.fingerprint
        assert store_temp_files(store) == []

    def test_relentless_crasher_fails_cleanly_then_pool_recovers(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", CRASH_ALWAYS)
        with WarmPool(1) as pool:
            with pytest.raises(JobFailed, match="retries"):
                pool.run(ping, [([1, 2, 3],)])
            monkeypatch.delenv("REPRO_FAULTS")
            # Respawned (fault-free) workers serve the next batch.
            assert pool.run(ping, [([1, 2, 3],), (9,)]) == [[1, 2, 3], 9]

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

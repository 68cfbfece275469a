"""Tests for the experiment runner + trained-model store (repro.exec)."""

import numpy as np
import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.eval.experiments import build_crosslang_dataset, run_graphbinmatch
from repro.exec import (
    ExperimentSpec,
    ModelStore,
    dataset_fingerprint,
    experiment_fingerprint,
    run_experiment,
    run_grid,
)


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


class TestFingerprints:
    def test_dataset_fingerprint_stable(self, dataset):
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)

    def test_dataset_fingerprint_distinguishes_content(self, dataset, other_dataset):
        assert dataset_fingerprint(dataset) != dataset_fingerprint(other_dataset)

    def test_dataset_fingerprint_sees_labels(self, dataset):
        fp = dataset_fingerprint(dataset)
        flipped, _ = build_crosslang_dataset(tiny_data_config(seed=5), ["c"], ["java"])
        flipped.test[0].label = 1 - flipped.test[0].label
        assert dataset_fingerprint(flipped) != fp

    def test_experiment_fingerprint_sees_config(self):
        base = ExperimentSpec("a", tiny_config())
        other = ExperimentSpec("b", tiny_config(learning_rate=1e-4))
        assert experiment_fingerprint(base, "d" * 8) != experiment_fingerprint(
            other, "d" * 8
        )

    def test_name_is_cosmetic(self):
        a = ExperimentSpec("table-iv", tiny_config())
        b = ExperimentSpec("ablation", tiny_config())
        assert experiment_fingerprint(a, "d" * 8) == experiment_fingerprint(b, "d" * 8)

    def test_early_stopping_is_part_of_the_key(self):
        a = ExperimentSpec("a", tiny_config(), early_stopping=True)
        b = ExperimentSpec("a", tiny_config(), early_stopping=False)
        assert experiment_fingerprint(a, "d" * 8) != experiment_fingerprint(b, "d" * 8)


class TestModelStore:
    def test_roundtrip(self, dataset, tmp_path):
        trainer = MatchTrainer(tiny_config())
        trainer.train(dataset)
        store = ModelStore(tmp_path)
        store.put("ab" * 32, trainer, {"name": "roundtrip", "valid_f1": 0.5})
        loaded = ModelStore(tmp_path).get("ab" * 32)
        assert loaded is not None
        np.testing.assert_array_equal(
            loaded.predict(dataset.test), trainer.predict(dataset.test)
        )

    def test_absent_entry_is_a_miss(self, tmp_path):
        store = ModelStore(tmp_path)
        assert store.get("cd" * 32) is None
        assert store.misses == 1 and store.hits == 0

    def test_corrupt_entry_is_a_miss(self, dataset, tmp_path):
        trainer = MatchTrainer(tiny_config())
        trainer.train(dataset)
        store = ModelStore(tmp_path)
        path = store.put("ab" * 32, trainer, {})
        path.write_bytes(b"not an npz")
        assert ModelStore(tmp_path).get("ab" * 32) is None

    def test_fingerprint_mismatch_is_a_miss(self, dataset, tmp_path):
        trainer = MatchTrainer(tiny_config())
        trainer.train(dataset)
        store = ModelStore(tmp_path)
        path = store.path_for("ef" * 32)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Entry stored under a different fingerprint than its metadata says.
        store.put("ab" * 32, trainer, {})
        store.path_for("ab" * 32).rename(path)
        assert ModelStore(tmp_path).get("ef" * 32) is None

    def test_entries_reports_metadata(self, dataset, tmp_path):
        trainer = MatchTrainer(tiny_config())
        trainer.train(dataset)
        store = ModelStore(tmp_path)
        store.put("ab" * 32, trainer, {"name": "listed", "valid_f1": 0.75})
        entries = ModelStore(tmp_path).entries()
        assert len(entries) == 1
        assert entries[0]["name"] == "listed"
        assert entries[0]["fingerprint"] == "ab" * 32
        assert entries[0]["bytes"] > 0


class TestRunExperiment:
    def test_cold_then_warm_identical_rows(self, dataset, tmp_path):
        spec = ExperimentSpec("cold-warm", tiny_config())
        cold = run_experiment(spec, dataset, store=ModelStore(tmp_path))
        assert not cold.from_cache
        assert cold.report is not None
        warm = run_experiment(spec, dataset, store=ModelStore(tmp_path))
        assert warm.from_cache
        assert warm.fingerprint == cold.fingerprint
        assert warm.report_meta["name"] == "cold-warm"
        cold_row = run_graphbinmatch(dataset, spec.config, trainer=cold.trainer).row
        warm_row = run_graphbinmatch(dataset, spec.config, trainer=warm.trainer).row
        assert cold_row == warm_row

    def test_warm_hit_reads_the_checkpoint_once(self, dataset, tmp_path, monkeypatch):
        spec = ExperimentSpec("one-read", tiny_config())
        cold = run_experiment(spec, dataset, store=ModelStore(tmp_path))
        path = ModelStore(tmp_path).path_for(cold.fingerprint)
        want = ModelStore.read_meta(path)
        opened = []
        real_load = np.load

        def counting_load(file, *args, **kwargs):
            opened.append(str(file))
            return real_load(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        warm = run_experiment(spec, dataset, store=ModelStore(tmp_path))
        assert warm.from_cache
        assert opened == [str(path)]
        assert warm.report_meta == want
        assert warm.report_meta["name"] == "one-read"

    def test_no_store_always_trains(self, dataset):
        spec = ExperimentSpec("storeless", tiny_config())
        run = run_experiment(spec, dataset)
        assert not run.from_cache and run.report is not None

    def test_config_change_misses(self, dataset, tmp_path):
        store = ModelStore(tmp_path)
        run_experiment(ExperimentSpec("a", tiny_config()), dataset, store=store)
        second = run_experiment(
            ExperimentSpec("a", tiny_config(learning_rate=1e-4)), dataset, store=store
        )
        assert not second.from_cache


class TestRunGrid:
    def test_serial_matches_parallel_bitwise(self, dataset, tmp_path):
        jobs = [
            (ExperimentSpec(f"grid-{seed}", tiny_config(seed=seed)), dataset)
            for seed in (1, 2, 3)
        ]
        serial = run_grid(jobs, store=ModelStore(tmp_path / "a"))
        parallel = run_grid(jobs, store=ModelStore(tmp_path / "b"), workers=2)
        assert [r.fingerprint for r in serial] == [r.fingerprint for r in parallel]
        for s_run, p_run in zip(serial, parallel):
            s_state = s_run.trainer.model.state_dict()
            p_state = p_run.trainer.model.state_dict()
            for key in s_state:
                np.testing.assert_array_equal(s_state[key], p_state[key])

    def test_parallel_serves_from_store_afterwards(self, dataset, tmp_path):
        jobs = [
            (ExperimentSpec(f"grid-{seed}", tiny_config(seed=seed)), dataset)
            for seed in (1, 2)
        ]
        store = ModelStore(tmp_path)
        first = run_grid(jobs, store=store, workers=2)
        assert all(r.from_cache for r in first)  # workers filled the store
        again = run_grid(jobs, store=ModelStore(tmp_path))
        assert all(r.from_cache for r in again)

    def test_duplicate_specs_train_once(self, dataset, tmp_path):
        spec = ExperimentSpec("dup", tiny_config())
        store = ModelStore(tmp_path)
        runs = run_grid([(spec, dataset), (spec, dataset)], store=store, workers=2)
        assert len(runs) == 2
        assert runs[0].fingerprint == runs[1].fingerprint
        assert len(store) == 1

    def test_parallel_without_store_uses_scratch(self, dataset):
        jobs = [
            (ExperimentSpec(f"tmp-{seed}", tiny_config(seed=seed)), dataset)
            for seed in (1, 2)
        ]
        runs = run_grid(jobs, workers=2)
        assert len(runs) == 2
        assert all(r.trainer.model is not None for r in runs)

    def test_negative_workers_rejected(self, dataset):
        with pytest.raises(ValueError, match="workers"):
            run_grid([], workers=-1)


class TestStoreTempFiles:
    def test_leftover_writer_temp_is_invisible(self, dataset, tmp_path):
        trainer = MatchTrainer(tiny_config())
        trainer.train(dataset)
        store = ModelStore(tmp_path)
        store.put("ab" * 32, trainer, {"name": "real"})
        # A SIGKILLed writer leaves its dot-prefixed temp behind.
        shard = store.path_for("ab" * 32).parent
        (shard / f".{'cd' * 32}.12345.tmp.npz").write_bytes(b"partial")
        fresh = ModelStore(tmp_path)
        assert len(fresh) == 1
        entries = fresh.entries()
        assert [e["name"] for e in entries] == ["real"]
        assert fresh.size_bytes() == store.path_for("ab" * 32).stat().st_size

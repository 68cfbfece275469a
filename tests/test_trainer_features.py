"""Tests for trainer features added on top of the paper's loop:
early stopping, label smoothing, and the encoded-batch reuse."""

import numpy as np
import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.node_features import encode_nodes
from repro.core.pipeline import compile_to_views
from repro.core.trainer import MatchTrainer, weighted_epoch_loss
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.graphs.batch import batch_graphs
from repro.lang.generator import LANGUAGES, SolutionGenerator
from repro.lang.tasks import TASK_REGISTRY
from repro.nn.tensor import no_grad


@pytest.fixture(scope="module")
def dataset():
    builder = CorpusBuilder(tiny_data_config())
    samples = builder.build(["c", "java"])
    c = [s for s in samples if s.language == "c"]
    j = [s for s in samples if s.language == "java"]
    return build_pairs(c, j, "binary", "source", seed=0, max_pairs_per_task=3)


def _cfg(**kw):
    base = dict(epochs=3, hidden_dim=16, embed_dim=16, num_layers=1)
    base.update(kw)
    return scaled(cpu_config(), **base)


class TestEarlyStopping:
    def test_records_curve_and_best_epoch(self, dataset):
        tr = MatchTrainer(_cfg())
        report = tr.train(dataset, early_stopping=True)
        assert len(report.valid_f1_curve) == 3
        assert 0 <= report.best_epoch < 3

    def test_disabled_by_default(self, dataset):
        tr = MatchTrainer(_cfg())
        report = tr.train(dataset)
        assert report.valid_f1_curve == []
        assert report.best_epoch == -1

    def test_restores_best_epoch_weights(self, dataset):
        """After training, predictions must match the best epoch's state —
        i.e. retraining for exactly best_epoch+1 epochs with the same seed
        gives the same scores."""
        tr = MatchTrainer(_cfg(epochs=4))
        report = tr.train(dataset, early_stopping=True)
        scores_full = tr.predict(dataset.test[:4])

        tr2 = MatchTrainer(_cfg(epochs=report.best_epoch + 1))
        tr2.train(dataset, early_stopping=False)
        scores_cut = tr2.predict(dataset.test[:4])
        np.testing.assert_allclose(scores_full, scores_cut, rtol=1e-4, atol=1e-5)


class TestLabelSmoothing:
    def test_smoothing_changes_training(self, dataset):
        a = MatchTrainer(_cfg(label_smoothing=0.0))
        ra = a.train(dataset)
        b = MatchTrainer(_cfg(label_smoothing=0.3))
        rb = b.train(dataset)
        assert not np.allclose(ra.epoch_losses, rb.epoch_losses)

    def test_smoothed_loss_floor(self, dataset):
        """With smoothing s the minimal achievable BCE is H(s/2) > 0."""
        s = 0.3
        tr = MatchTrainer(_cfg(label_smoothing=s, epochs=5))
        report = tr.train(dataset)
        floor = -(s / 2 * np.log(s / 2) + (1 - s / 2) * np.log(1 - s / 2))
        assert report.epoch_losses[-1] >= floor - 1e-3


class TestEpochLoss:
    """The reported curve weights batches by pair count (ragged-tail fix)."""

    def test_weighted_mean(self):
        # Full batches of 4 at loss 1.0, ragged tail of 1 pair at loss 9.0:
        # an unweighted mean (3.67) overstates the tail by ~2.4x.
        batches = [(1.0, 4), (1.0, 4), (9.0, 1)]
        assert weighted_epoch_loss(batches) == pytest.approx((4 + 4 + 9) / 9)
        assert weighted_epoch_loss(batches) < float(
            np.mean([l for l, _ in batches])
        )

    def test_equal_batches_match_plain_mean(self):
        batches = [(0.5, 8), (1.5, 8), (2.5, 8)]
        assert weighted_epoch_loss(batches) == pytest.approx(1.5)

    def test_empty(self):
        assert weighted_epoch_loss([]) == 0.0

    def test_train_reports_weighted_curve(self, dataset):
        # Pick a batch size that leaves a ragged final minibatch, forcing
        # the weighted path to handle unequal batch sizes.
        n = len(dataset.train)
        bs = next(b for b in (4, 3, 5) if n % b)
        tr = MatchTrainer(_cfg(epochs=2, batch_pairs=bs))
        report = tr.train(dataset)
        assert len(report.epoch_losses) == 2
        assert all(np.isfinite(l) and l > 0 for l in report.epoch_losses)


class TestTrainingDeterminism:
    def test_same_seed_same_losses(self, dataset):
        a = MatchTrainer(_cfg()).train(dataset)
        b = MatchTrainer(_cfg()).train(dataset)
        np.testing.assert_allclose(a.epoch_losses, b.epoch_losses, rtol=1e-6)

    def test_different_seed_different_losses(self, dataset):
        a = MatchTrainer(_cfg(seed=1)).train(dataset)
        b = MatchTrainer(_cfg(seed=2)).train(dataset)
        assert not np.allclose(a.epoch_losses, b.epoch_losses)


class TestTrainReportTimings:
    def test_phase_timings_recorded(self, dataset):
        tr = MatchTrainer(_cfg())
        report = tr.train(dataset, early_stopping=True)
        for phase in ("encode", "train", "optimize", "valid"):
            assert phase in report.timings
            assert report.timings[phase] >= 0.0
        assert report.timings["train"] > 0.0
        assert len(report.epoch_seconds) == tr.config.epochs

    def test_valid_timing_zero_without_early_stopping(self, dataset):
        tr = MatchTrainer(_cfg())
        report = tr.train(dataset, early_stopping=False)
        assert report.timings["valid"] == 0.0


class TestEncodedPairMemo:
    def test_same_list_encoded_once(self, dataset):
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        first = tr.encode_pairs(dataset.valid)
        second = tr.encode_pairs(dataset.valid)
        assert first is second

    def test_different_lists_encoded_separately(self, dataset):
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        assert tr.encode_pairs(dataset.valid) is not tr.encode_pairs(dataset.test)

    def test_batch_size_part_of_key(self, dataset):
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        assert tr.encode_pairs(dataset.valid, 32) is not tr.encode_pairs(dataset.valid, 8)

    def test_predict_scores_unchanged_by_memo(self, dataset):
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        np.testing.assert_array_equal(
            tr.predict(dataset.test), tr.predict(dataset.test)
        )

    def test_predict_matches_fresh_trainer_on_copy(self, dataset):
        # A memo hit must not leak stale encodings across equal-content,
        # different-identity lists.
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        copied = list(dataset.test)
        np.testing.assert_array_equal(tr.predict(copied), tr.predict(dataset.test))


class TestOptimizerResume:
    def test_checkpoint_carries_optimizer_state(self, dataset, tmp_path):
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        t_first = tr.optimizer.t
        assert t_first > 0
        tr.save(tmp_path / "ck.npz")
        reloaded = MatchTrainer.load(tmp_path / "ck.npz")
        assert reloaded._restored_opt is not None
        reloaded.train(dataset)
        assert reloaded.optimizer.t == 2 * t_first  # moments continued, not reset

    def test_restored_moments_match_saved(self, dataset, tmp_path):
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        saved = tr.optimizer.state_export()
        tr.save(tmp_path / "ck.npz")
        reloaded = MatchTrainer.load(tmp_path / "ck.npz")
        state = reloaded._restored_opt["state"]
        assert int(state["t"]) == saved["t"]
        np.testing.assert_array_equal(np.asarray(state["m"]), saved["m"])
        np.testing.assert_array_equal(np.asarray(state["v"]), saved["v"])

    def test_resume_rejects_config_mismatch(self, dataset, tmp_path):
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        tr.save(tmp_path / "ck.npz")
        reloaded = MatchTrainer.load(tmp_path / "ck.npz")
        reloaded.config = _cfg(learning_rate=9e-9)
        with pytest.raises(ValueError, match="refusing to resume"):
            reloaded.train(dataset)

    def test_resume_rejects_layout_mismatch(self, dataset, tmp_path):
        from repro.core.model import GraphBinMatch

        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        tr.save(tmp_path / "ck.npz")
        reloaded = MatchTrainer.load(tmp_path / "ck.npz")
        reloaded.model = GraphBinMatch(reloaded.tokenizer.vocab_size + 7, reloaded.config)
        with pytest.raises(ValueError, match="refusing to resume"):
            reloaded.train(dataset)

    def test_untrained_checkpoint_has_no_optimizer_state(self, dataset, tmp_path):
        tr = MatchTrainer(_cfg())
        tr.fit_tokenizer(dataset.train)
        tr._ensure_model()
        tr.save(tmp_path / "ck.npz")
        reloaded = MatchTrainer.load(tmp_path / "ck.npz")
        assert reloaded._restored_opt is None
        reloaded.train(dataset)  # trains from scratch without complaint


class TestReviewRegressions:
    def test_predict_reencodes_after_list_growth(self, dataset):
        tr = MatchTrainer(_cfg())
        tr.train(dataset)
        pairs = list(dataset.test)
        first = tr.predict(pairs)
        pairs.append(dataset.valid[0])
        second = tr.predict(pairs)
        assert len(second) == len(first) + 1
        np.testing.assert_array_equal(second[: len(first)], first)

    def test_early_stopping_restores_best_epoch_moments(self, dataset):
        import math

        tr = MatchTrainer(_cfg(epochs=4))
        report = tr.train(dataset, early_stopping=True)
        steps_per_epoch = math.ceil(len(dataset.train) / tr.config.batch_pairs)
        # Optimizer state must correspond to the restored best-epoch
        # weights, not to wherever the last epoch wandered.
        assert tr.optimizer.t == steps_per_epoch * (report.best_epoch + 1)


class TestDedupedTokenRows:
    """The encoder's deduplicated token rows give the dense path's bits."""

    @pytest.fixture(scope="class")
    def trainer(self, dataset):
        tr = MatchTrainer(_cfg(epochs=1))
        tr.train(dataset)
        return tr

    @pytest.fixture(scope="class")
    def query_graphs(self):
        """32 decompiled graphs of distinct generated programs."""
        gen = SolutionGenerator(seed=0, independent=True)
        graphs = []
        for task in sorted(TASK_REGISTRY)[:11]:
            for lang in LANGUAGES:
                sf = gen.generate(task, 2, lang)
                views = compile_to_views(sf.text, lang, name=sf.identifier)
                graphs.append(views.decompiled_graph)
        return graphs[:32]

    @pytest.mark.parametrize("size", [1, 32])
    def test_encode_graphs_matches_dense_bit_for_bit(self, trainer, query_graphs, size):
        graphs = query_graphs[:size]
        got = trainer.encode_graphs(graphs)
        model = trainer.model
        model.eval()
        with no_grad():
            batch = batch_graphs(graphs)
            dense = encode_nodes(trainer.tokenizer, batch, trainer.config.feature_mode)
            want = model.encode_graphs(batch, dense).data
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

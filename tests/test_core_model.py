"""Tests for the GraphBinMatch model, trainer, baselines, and pipeline."""

import numpy as np
import pytest

from repro.baselines import B2SFinder, BinPro, LICCA, XLIRModel
from repro.baselines.xlir import XLIRConfig, linearize
from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.node_features import train_tokenizer
from repro.core.pipeline import MatcherPipeline, compile_to_views
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.graphs.batch import batch_graphs
from repro.lang.generator import SolutionGenerator


@pytest.fixture(scope="module")
def dataset():
    builder = CorpusBuilder(tiny_data_config())
    samples = builder.build(["c", "java"])
    c = [s for s in samples if s.language == "c"]
    j = [s for s in samples if s.language == "java"]
    return build_pairs(c, j, "binary", "source", seed=0, max_pairs_per_task=4)


@pytest.fixture(scope="module")
def trained(dataset):
    cfg = scaled(cpu_config(), epochs=8, hidden_dim=32, embed_dim=24, num_layers=2)
    trainer = MatchTrainer(cfg)
    report = trainer.train(dataset)
    return trainer, report


class TestModelForward:
    def test_scores_in_unit_interval(self, dataset, trained):
        trainer, _ = trained
        scores = trainer.predict(dataset.test)
        assert len(scores) == len(dataset.test)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_training_reduces_loss(self, trained):
        _, report = trained
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_odd_graph_count_rejected(self, dataset, trained):
        trainer, _ = trained
        model = trainer.model
        batch = batch_graphs([dataset.test[0].left])
        from repro.core.node_features import encode_nodes

        ids = encode_nodes(trainer.tokenizer, batch)
        with pytest.raises(ValueError):
            model(batch, ids)

    def test_pad_never_wins_max(self, trained, dataset):
        trainer, _ = trained
        model = trainer.model
        # All-PAD row (id 0) must embed to zeros, not -1e9 garbage.
        ids = np.zeros((2, 4), dtype=np.int64)
        out = model.node_features(ids).data
        np.testing.assert_allclose(out, 0.0)

    def test_deterministic_inference(self, dataset, trained):
        trainer, _ = trained
        a = trainer.predict(dataset.test[:4])
        b = trainer.predict(dataset.test[:4])
        np.testing.assert_allclose(a, b)

    def test_feature_mode_text_changes_tokens(self, dataset):
        full = train_tokenizer([dataset.train[0].left], mode="full_text", max_vocab=128)
        text = train_tokenizer([dataset.train[0].left], mode="text", max_vocab=128)
        assert full.vocab_size > text.vocab_size  # full_text is richer

    def test_learns_better_than_chance(self, dataset, trained):
        trainer, _ = trained
        scores = trainer.predict(dataset.train[:20])
        labels = np.array([p.label for p in dataset.train[:20]])
        from repro.eval.metrics import classification_metrics

        m = classification_metrics(labels, scores >= 0.5)
        assert m.accuracy > 0.6  # on (seen) training pairs


class TestFusedTrainingRegression:
    """The fused optimizer path must stay exact and must not cost epochs.

    Guards the regression where arena scatter/gather copies made fused
    epochs *slower* than the reference loop: gradients now accumulate
    straight into the arena's flat buffer, so the fused step does strictly
    less copying per batch.
    """

    @pytest.fixture(scope="class")
    def reports(self, dataset):
        cfg = scaled(
            cpu_config(seed=3), epochs=4, hidden_dim=32, embed_dim=24, num_layers=2
        )
        ref = MatchTrainer(cfg)
        ref_report = ref.train(dataset, early_stopping=True, fused_optimizer=False)
        fused = MatchTrainer(cfg)
        fused_report = fused.train(dataset, early_stopping=True, fused_optimizer=True)
        return ref, ref_report, fused, fused_report

    def test_curves_and_weights_bit_identical(self, reports):
        ref, ref_report, fused, fused_report = reports
        assert ref_report.epoch_losses == fused_report.epoch_losses  # diff == 0
        assert ref_report.valid_f1_curve == fused_report.valid_f1_curve
        assert ref_report.best_epoch == fused_report.best_epoch
        ref_state = ref.model.state_dict()
        fused_state = fused.model.state_dict()
        for key in ref_state:
            np.testing.assert_array_equal(ref_state[key], fused_state[key])

    def test_backward_writes_into_the_arena(self, reports):
        _, _, fused, _ = reports
        arena = fused.optimizer.arena
        assert arena is not None
        for p, gview in zip(fused.optimizer.params, arena.grad_views):
            assert p.grad_buffer is gview  # backward accumulates in place

    def test_valid_time_is_accounted_per_epoch(self, reports):
        _, ref_report, _, fused_report = reports
        for report in (ref_report, fused_report):
            assert len(report.epoch_valid_seconds) == len(report.epoch_seconds)
            for total, valid in zip(report.epoch_seconds, report.epoch_valid_seconds):
                assert 0.0 <= valid <= total

    def test_fused_epochs_not_slower(self, reports):
        _, ref_report, _, fused_report = reports

        def min_train_epoch(report):
            return min(
                t - v
                for t, v in zip(report.epoch_seconds, report.epoch_valid_seconds)
            )

        # Min-over-epochs of the train-only time (every epoch is identical
        # work) is the noise-robust estimator; the 1.25 headroom absorbs
        # scheduler jitter at test scale while still catching a real
        # regression like the old scatter/gather copies.
        assert min_train_epoch(fused_report) <= 1.25 * min_train_epoch(ref_report)


class TestBaselines:
    def test_linearize_contains_ir(self, dataset):
        text = linearize(dataset.train[0].right)
        assert "i32" in text

    def test_xlir_lstm_runs(self, dataset):
        cfg = XLIRConfig(encoder="lstm", epochs=1, max_tokens=32, embed_dim=16, hidden_dim=16)
        model = XLIRModel(cfg)
        losses = model.fit(dataset.train[:16])
        assert len(losses) == 1
        scores = model.score(dataset.test[:6])
        assert np.all((scores >= 0) & (scores <= 1))

    def test_xlir_transformer_runs(self, dataset):
        cfg = XLIRConfig(encoder="transformer", epochs=1, max_tokens=32, embed_dim=16, hidden_dim=16)
        model = XLIRModel(cfg)
        model.fit(dataset.train[:16])
        scores = model.score(dataset.test[:6])
        assert np.all((scores >= 0) & (scores <= 1))

    def test_xlir_unknown_encoder_rejected(self):
        with pytest.raises(ValueError):
            XLIRModel(XLIRConfig(encoder="mamba")).fit([])

    def test_binpro_scores(self, dataset):
        model = BinPro()
        model.fit(dataset.train)
        scores = model.score(dataset.test)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_b2sfinder_separates_somewhat(self, dataset):
        model = B2SFinder()
        model.fit(dataset.train)
        scores = model.score(dataset.train)
        labels = np.array([p.label for p in dataset.train])
        # same-task pairs should look at least a bit more similar on average
        assert scores[labels == 1].mean() > scores[labels == 0].mean()

    def test_licca_identical_graph_high(self, dataset):
        p = dataset.train[0]
        from repro.data.pairs import MatchingPair

        twin = MatchingPair(p.right, p.right, 1, p.task_right, p.task_right)
        score = LICCA().score([twin])[0]
        assert score > 0.95


class TestPipeline:
    C_SRC = (
        "int triple(int x) { return x * 3; }\n"
        'int main() { printf("%d\\n", triple(5)); return 0; }\n'
    )

    def test_compile_to_views(self):
        views = compile_to_views(self.C_SRC, "c")
        assert views.source_graph.num_nodes > 0
        assert views.decompiled_graph.num_nodes > views.source_graph.num_nodes
        assert len(views.binary_bytes) > 0

    def test_unsupported_language(self):
        with pytest.raises(ValueError):
            compile_to_views("fn main() {}", "rust")

    def test_pipeline_requires_trained_model(self):
        with pytest.raises(ValueError):
            MatcherPipeline(MatchTrainer(cpu_config()))

    def test_match_and_rank(self, trained):
        trainer, _ = trained
        pipe = MatcherPipeline(trainer)
        views = compile_to_views(self.C_SRC, "c")
        gen = SolutionGenerator(seed=4)
        other = gen.generate("gcd", 0, "java").text
        ranked = pipe.rank_sources(views.binary_bytes, [(self.C_SRC, "c"), (other, "java")])
        assert len(ranked) == 2
        assert {i for i, _ in ranked} == {0, 1}
        assert all(0.0 <= score <= 1.0 for _, score in ranked)

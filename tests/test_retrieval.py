"""Tests for the retrieval evaluator and trainer checkpointing."""

import numpy as np
import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.eval.retrieval import (
    RetrievalResult,
    _average_precision,
    evaluate_retrieval,
    rank_candidates,
    retrieval_corpus_from_samples,
)
from repro.graphs.programl import ProgramGraph


def _toy_graph(tag: int) -> ProgramGraph:
    """Single-node graph carrying its tag in the node text."""
    return ProgramGraph(
        name=f"toy{tag}",
        node_texts=[f"op{tag}"],
        node_full_texts=[f"op{tag} i32"],
        node_types=[0],
    )


def _oracle_score(pairs):
    """Score 1 for true matches, 0.1 otherwise (a perfect scorer)."""
    return np.asarray([1.0 if p.label == 1 else 0.1 for p in pairs])


def _anti_score(pairs):
    """A maximally wrong scorer."""
    return np.asarray([0.0 if p.label == 1 else 1.0 for p in pairs])


CANDS = [(_toy_graph(i), f"task{i % 3}") for i in range(9)]
QUERIES = [(_toy_graph(100 + i), f"task{i}") for i in range(3)]


class TestRanking:
    def test_oracle_ranks_relevant_first(self):
        ranked = rank_candidates(_oracle_score, QUERIES[0], CANDS)
        assert ranked.relevant[0]
        assert ranked.first_relevant_rank == 1

    def test_anti_scorer_ranks_relevant_last(self):
        ranked = rank_candidates(_anti_score, QUERIES[0], CANDS)
        assert not ranked.relevant[0]
        assert ranked.first_relevant_rank == 7  # 3 relevant of 9, all at tail

    def test_no_relevant_gives_rank_zero(self):
        query = (_toy_graph(0), "unknown_task")
        ranked = rank_candidates(_oracle_score, query, CANDS)
        assert ranked.first_relevant_rank == 0

    def test_small_batch_size_same_result(self):
        a = rank_candidates(_oracle_score, QUERIES[0], CANDS, batch_size=2)
        b = rank_candidates(_oracle_score, QUERIES[0], CANDS, batch_size=64)
        assert a.ranked_tasks == b.ranked_tasks


class TestEvaluateRetrieval:
    def test_oracle_perfect(self):
        res = evaluate_retrieval(_oracle_score, QUERIES, CANDS)
        assert res.mrr == 1.0
        assert res.hit_at[1] == 1.0
        assert res.mean_average_precision == 1.0
        assert res.num_queries == 3

    def test_anti_scorer_poor(self):
        res = evaluate_retrieval(_anti_score, QUERIES, CANDS)
        assert res.mrr < 0.2
        assert res.hit_at[1] == 0.0

    def test_queries_without_relevant_skipped(self):
        queries = QUERIES + [(_toy_graph(0), "never_seen")]
        res = evaluate_retrieval(_oracle_score, queries, CANDS)
        assert res.num_queries == 3

    def test_all_skipped_is_zero(self):
        res = evaluate_retrieval(_oracle_score, [(_toy_graph(0), "nope")], CANDS)
        assert res == RetrievalResult(0.0, {k: 0.0 for k in (1, 3, 5, 10)}, 0.0, 0)

    def test_hit_at_has_only_the_requested_ks(self):
        """No Hit@k is reported that was not computed (no 0.0 stand-ins)."""
        res = evaluate_retrieval(_oracle_score, QUERIES, CANDS, ks=(1, 3))
        assert res.hit_at == {1: 1.0, 3: 1.0}
        assert (res.mrr, res.mean_average_precision) == (1.0, 1.0)

    @pytest.mark.parametrize("ks", [(0, 1), (-1, 1), (1.5,), (True,)])
    def test_bad_ks_rejected(self, ks):
        with pytest.raises(ValueError, match="k must be"):
            evaluate_retrieval(_oracle_score, QUERIES, CANDS, ks=ks)


class TestAveragePrecision:
    def test_perfect(self):
        assert _average_precision(np.array([True, True, False])) == 1.0

    def test_none(self):
        assert _average_precision(np.array([False, False])) == 0.0

    def test_interleaved(self):
        # relevant at ranks 1 and 3: AP = (1/1 + 2/3)/2
        ap = _average_precision(np.array([True, False, True]))
        np.testing.assert_allclose(ap, (1.0 + 2.0 / 3.0) / 2.0)


@pytest.fixture(scope="module")
def tiny_trained(tmp_path_factory):
    builder = CorpusBuilder(tiny_data_config())
    samples = builder.build(["c", "java"])
    c = [s for s in samples if s.language == "c"]
    j = [s for s in samples if s.language == "java"]
    ds = build_pairs(c, j, "binary", "source", seed=0, max_pairs_per_task=3)
    cfg = scaled(cpu_config(), epochs=2, hidden_dim=16, embed_dim=16, num_layers=1)
    trainer = MatchTrainer(cfg)
    trainer.train(ds)
    return trainer, ds, samples


class TestCorpusHelpers:
    def test_sides(self, tiny_trained):
        _, _, samples = tiny_trained
        src = retrieval_corpus_from_samples(samples, "source")
        binv = retrieval_corpus_from_samples(samples, "binary")
        assert len(src) == len(binv) == len(samples)
        assert src[0][0] is samples[0].source_graph
        assert binv[0][0] is samples[0].decompiled_graph

    def test_bad_side_rejected(self, tiny_trained):
        _, _, samples = tiny_trained
        with pytest.raises(ValueError):
            retrieval_corpus_from_samples(samples, "ir")


class TestTrainedModelRetrieval:
    def test_end_to_end_retrieval_runs(self, tiny_trained):
        trainer, _, samples = tiny_trained
        queries = retrieval_corpus_from_samples(samples[:2], "binary")
        cands = retrieval_corpus_from_samples(samples, "source")
        res = evaluate_retrieval(trainer.predict, queries, cands, ks=(1, 5))
        assert 0.0 <= res.mrr <= 1.0
        assert res.num_queries == 2


class TestCheckpointing:
    def test_save_load_roundtrip(self, tiny_trained, tmp_path):
        trainer, ds, _ = tiny_trained
        path = tmp_path / "model.npz"
        trainer.save(path)
        restored = MatchTrainer.load(path)
        a = trainer.predict(ds.test[:4])
        b = restored.predict(ds.test[:4])
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_load_preserves_config(self, tiny_trained, tmp_path):
        trainer, _, _ = tiny_trained
        path = tmp_path / "model.npz"
        trainer.save(path)
        restored = MatchTrainer.load(path)
        assert restored.config == trainer.config
        assert restored.tokenizer.vocab == trainer.tokenizer.vocab

    def test_save_before_train_rejected(self, tmp_path):
        trainer = MatchTrainer(cpu_config())
        with pytest.raises(RuntimeError):
            trainer.save(tmp_path / "x.npz")

    def test_load_missing_meta_rejected(self, tmp_path):
        np.savez_compressed(tmp_path / "junk.npz", a=np.zeros(3))
        with pytest.raises(ValueError):
            MatchTrainer.load(tmp_path / "junk.npz")

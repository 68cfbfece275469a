"""Tests for the embedding index: pairwise parity, caching, persistence.

The contract under test is exactness — the index is an optimization, not
an approximation: top-k order and scores from :class:`EmbeddingIndex` must
match full pairwise ``trainer.predict`` scoring for both ``pair_features``
modes, duplicate graphs must not re-enter the encoder, and persisting
the index (as a one-shard index directory, the only on-disk format) must
preserve scores bit for bit.
"""

import numpy as np
import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.pipeline import MatcherPipeline, compile_to_views
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import MatchingPair, build_pairs
from repro.eval.retrieval import (
    evaluate_retrieval,
    rank_candidates,
    retrieval_corpus_from_samples,
)
from repro.index import (
    EmbeddingIndex,
    ShardedEmbeddingIndex,
    graph_fingerprint,
    open_index,
    ranked_hits,
    score_pairs_tiled,
)
from repro.index.embedding_index import key_order


@pytest.fixture(scope="module")
def corpus():
    samples = CorpusBuilder(tiny_data_config()).build(["c", "java"])
    c = [s for s in samples if s.language == "c"]
    j = [s for s in samples if s.language == "java"]
    return c, j


def _train(corpus, **overrides):
    c, j = corpus
    ds = build_pairs(c, j, "binary", "source", seed=0, max_pairs_per_task=3)
    cfg = scaled(
        cpu_config(), epochs=2, hidden_dim=16, embed_dim=16, num_layers=1, **overrides
    )
    trainer = MatchTrainer(cfg)
    trainer.train(ds)
    return trainer


@pytest.fixture(scope="module")
def trained(corpus):
    """Trainer with the default CPU preset (pair_features='interaction')."""
    return _train(corpus)


@pytest.fixture(scope="module")
def trained_concat(corpus):
    """Trainer exercising the plain-concat pair head."""
    return _train(corpus, pair_features="concat")


def _pairwise_reference(trainer, query_graph, candidate_graphs):
    pairs = [MatchingPair(query_graph, g, 0, "?", "?") for g in candidate_graphs]
    return trainer.predict(pairs)


class TestFingerprint:
    def test_name_independent(self, corpus):
        c, _ = corpus
        g = c[0].source_graph
        renamed = type(g)(
            name="other",
            node_texts=g.node_texts,
            node_full_texts=g.node_full_texts,
            node_types=g.node_types,
            edges=g.edges,
            positions=g.positions,
            source_language=g.source_language,
        )
        assert graph_fingerprint(g) == graph_fingerprint(renamed)

    def test_distinct_graphs_differ(self, corpus):
        c, j = corpus
        assert graph_fingerprint(c[0].source_graph) != graph_fingerprint(
            j[0].source_graph
        )


class TestTrainerEmbeddings:
    def test_shapes(self, trained, corpus):
        c, _ = corpus
        emb = trained.encode_graphs([s.source_graph for s in c[:3]])
        assert emb.shape == (3, 2 * trained.config.hidden_dim)
        assert emb.dtype == np.float32

    def test_empty(self, trained):
        emb = trained.encode_graphs([])
        assert emb.shape == (0, 2 * trained.config.hidden_dim)

    def test_batch_size_invariant(self, trained, corpus):
        """Embeddings must not depend on batch composition (eval mode)."""
        _, j = corpus
        graphs = [s.source_graph for s in j[:5]]
        one = trained.encode_graphs(graphs, batch_size=1)
        many = trained.encode_graphs(graphs, batch_size=64)
        np.testing.assert_allclose(one, many, atol=1e-5)

    @pytest.mark.parametrize("which", ["interaction", "concat"])
    def test_score_embeddings_matches_predict(
        self, which, trained, trained_concat, corpus
    ):
        trainer = trained if which == "interaction" else trained_concat
        assert trainer.config.pair_features == which
        c, j = corpus
        pairs = [
            MatchingPair(ci.decompiled_graph, ji.source_graph, 0, "?", "?")
            for ci, ji in zip(c[:4], j[:4])
        ]
        left = trainer.encode_graphs([p.left for p in pairs])
        right = trainer.encode_graphs([p.right for p in pairs])
        np.testing.assert_allclose(
            trainer.score_embeddings(left, right), trainer.predict(pairs), atol=1e-5
        )

    def test_shape_mismatch_rejected(self, trained):
        with pytest.raises(ValueError):
            trained.score_embeddings(np.zeros((2, 32)), np.zeros((3, 32)))

    def test_score_pairs_tiled_chunking_invariant(self, trained, corpus):
        """Tiny row budgets (forcing both-axis chunking) change nothing."""
        from repro.index import score_pairs_tiled

        c, j = corpus
        q = trained.encode_graphs([s.decompiled_graph for s in c[:3]])
        cand = trained.encode_graphs([s.source_graph for s in j[:5]])
        full = score_pairs_tiled(trained, q, cand)
        assert full.shape == (3, 5)
        for budget in (1, 2, 7):
            np.testing.assert_allclose(
                score_pairs_tiled(trained, q, cand, row_budget=budget), full,
                atol=1e-6,
            )


class TestIndexParity:
    @pytest.mark.parametrize("which", ["interaction", "concat"])
    def test_scores_match_pairwise(self, which, trained, trained_concat, corpus):
        trainer = trained if which == "interaction" else trained_concat
        c, j = corpus
        candidates = [s.source_graph for s in j]
        index = EmbeddingIndex(trainer)
        index.add(candidates)
        for sample in c[:3]:
            got = index.scores(sample.decompiled_graph)
            want = _pairwise_reference(trainer, sample.decompiled_graph, candidates)
            np.testing.assert_allclose(got, want, atol=1e-5)

    def test_topk_order_matches_pairwise(self, trained, corpus):
        c, j = corpus
        candidates = [s.source_graph for s in j]
        index = EmbeddingIndex(trained)
        index.add(candidates, metas=[{"id": s.identifier} for s in j])
        query = c[0].decompiled_graph
        want = np.argsort(
            -_pairwise_reference(trained, query, candidates), kind="stable"
        )
        hits = index.topk(query, k=5)
        assert [h.index for h in hits] == [int(i) for i in want[:5]]
        assert hits[0].meta["id"] == j[want[0]].identifier

    def test_requires_trained_model(self):
        with pytest.raises(ValueError):
            EmbeddingIndex(MatchTrainer(cpu_config()))

    @pytest.mark.parametrize("bad_k", [-1, 0, -5, 2.5, True])
    def test_non_positive_k_rejected(self, bad_k, trained, corpus):
        """k=-1 used to silently drop the *top* hit via order[:-1]."""
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        with pytest.raises(ValueError, match="positive integer"):
            index.topk(c[0].decompiled_graph, k=bad_k)
        with pytest.raises(ValueError, match="positive integer"):
            index.topk_batch([c[0].decompiled_graph], k=bad_k)

    def test_numpy_integer_k_accepted(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j[:3]])
        assert len(index.topk(c[0].decompiled_graph, k=np.int64(2))) == 2

    def test_k_beyond_index_returns_all(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j[:3]])
        assert len(index.topk(c[0].decompiled_graph, k=100)) == 3

    def test_empty_index_topk_skips_encoder(self, trained, corpus):
        """Scoring an empty index must not pay a GNN forward for zeros(0)."""
        c, _ = corpus
        index = EmbeddingIndex(trained)
        before = trained.model.encoder_graph_count
        assert index.scores(c[0].decompiled_graph).shape == (0,)
        assert index.topk(c[0].decompiled_graph, k=5) == []
        assert index.topk_batch([c[0].decompiled_graph], k=5) == [[]]
        assert trained.model.encoder_graph_count == before

    def test_query_arg_validation(self, trained, corpus):
        _, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        with pytest.raises(ValueError):
            index.scores()
        with pytest.raises(ValueError):
            index.scores(j[0].source_graph, embedding=np.zeros(index.dim))
        with pytest.raises(ValueError):
            index.scores(embedding=np.zeros(3))


class TestBatchedQueries:
    """topk_batch / scores_batch: one batched pass, per-query semantics."""

    def test_matches_per_query_loop(self, trained, corpus):
        c, j = corpus
        candidates = [s.source_graph for s in j]
        queries = [s.decompiled_graph for s in c[:4]]
        loop_index = EmbeddingIndex(trained)
        loop_index.add(candidates, metas=[{"id": s.identifier} for s in j])
        batch_index = EmbeddingIndex(trained)
        batch_index.add(candidates, metas=[{"id": s.identifier} for s in j])
        per_query = [loop_index.topk(q, k=5) for q in queries]
        batched = batch_index.topk_batch(queries, k=5)
        assert [[h.index for h in hits] for hits in batched] == [
            [h.index for h in hits] for hits in per_query
        ]
        assert [[h.meta for h in hits] for hits in batched] == [
            [h.meta for h in hits] for hits in per_query
        ]
        for loop_hits, batch_hits in zip(per_query, batched):
            np.testing.assert_allclose(
                [h.score for h in batch_hits], [h.score for h in loop_hits], atol=1e-5
            )

    def test_warm_cache_parity_is_exact(self, trained, corpus):
        """With query embeddings cached, both paths are bit-identical."""
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j])
        queries = [s.decompiled_graph for s in c[:3]]
        batched = index.scores_batch(queries)  # caches the query embeddings
        for row, q in zip(batched, queries):
            np.testing.assert_array_equal(index.scores(q), row)

    def test_embed_queries_one_encoder_invocation(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j[:3]])
        queries = [s.decompiled_graph for s in c[:4]]
        trained.model.encoder_graph_count = 0
        emb = index.embed_queries(queries)
        assert emb.shape == (4, index.dim)
        assert trained.model.encoder_graph_count == 4  # one batch, no repeats
        index.embed_queries(queries)  # all cached now
        assert trained.model.encoder_graph_count == 4

    def test_duplicate_queries_encoded_once(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        q = c[0].decompiled_graph
        trained.model.encoder_graph_count = 0
        emb = index.embed_queries([q, q, q])
        assert trained.model.encoder_graph_count == 1
        np.testing.assert_array_equal(emb[0], emb[1])
        np.testing.assert_array_equal(emb[0], emb[2])

    def test_empty_query_list(self, trained, corpus):
        _, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        assert index.topk_batch([], k=3) == []
        assert index.scores_batch([]).shape == (0, 1)

    def test_scores_batch_arg_validation(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        with pytest.raises(ValueError):
            index.scores_batch()
        with pytest.raises(ValueError):
            index.scores_batch(
                [c[0].decompiled_graph], embeddings=np.zeros((1, index.dim))
            )
        with pytest.raises(ValueError):
            index.scores_batch(embeddings=np.zeros((2, 3)))

    def test_precomputed_embeddings_accepted(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j[:4]])
        q = index.embed_queries([s.decompiled_graph for s in c[:2]])
        np.testing.assert_array_equal(
            index.scores_batch(embeddings=q),
            index.scores_batch([s.decompiled_graph for s in c[:2]]),
        )


class TestIndexCache:
    def test_duplicate_add_hits_cache(self, trained, corpus):
        _, j = corpus
        graphs = [s.source_graph for s in j[:4]]
        index = EmbeddingIndex(trained)
        index.add(graphs)
        assert index.cache_misses == 4 and index.cache_hits == 0
        before = trained.model.encoder_graph_count
        index.add(graphs)
        assert trained.model.encoder_graph_count == before  # no re-encoding
        assert index.cache_hits == 4
        assert len(index) == 8  # entries still appended

    def test_repeated_query_hits_cache(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j[:3]])
        query = c[0].decompiled_graph
        first = index.scores(query)
        before = trained.model.encoder_graph_count
        second = index.scores(query)
        assert trained.model.encoder_graph_count == before
        np.testing.assert_array_equal(first, second)

    def test_query_then_add_promotes_without_reencoding(self, trained, corpus):
        _, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[1].source_graph])  # non-empty: queries hit the encoder
        index.scores(j[0].source_graph)  # seen as a query first
        before = trained.model.encoder_graph_count
        index.add([j[0].source_graph])
        assert trained.model.encoder_graph_count == before

    def test_query_cache_is_bounded(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained, query_cache_size=2)
        index.add([j[0].source_graph])
        for sample in c[:4]:
            index.scores(sample.decompiled_graph)
        assert len(index._encoder._query_cache) <= 2
        assert len(index) == 1  # corpus entries unaffected

    def test_query_cache_size_zero_disables_caching(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained, query_cache_size=0)
        index.add([j[0].source_graph])
        scores = index.scores(c[0].decompiled_graph)
        assert scores.shape == (1,)
        assert len(index._encoder._query_cache) == 0

    def test_cached_embedding_counts_hits_only(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained, query_cache_size=2)
        index.add([j[0].source_graph])
        entry_key = graph_fingerprint(j[0].source_graph)
        np.testing.assert_array_equal(
            index.cached_embedding(entry_key), index.embeddings[0]
        )
        query = c[0].decompiled_graph
        key = graph_fingerprint(query)
        hits, misses = index.cache_hits, index.cache_misses
        assert index.cached_embedding(key) is None
        assert (index.cache_hits, index.cache_misses) == (hits, misses)
        row = index.embed_queries([query], keys=[key])[0]
        np.testing.assert_array_equal(index.cached_embedding(key), row)
        assert (index.cache_hits, index.cache_misses) == (hits + 1, misses + 1)
        # A lookup touches the LRU like a query does: the touched row
        # survives the next insertion, the other one is evicted.
        other = c[1].decompiled_graph
        index.embed_queries([other])
        index.cached_embedding(key)
        index.embed_queries([c[2].decompiled_graph])
        assert index.cached_embedding(key) is not None
        assert index.cached_embedding(graph_fingerprint(other)) is None

    def test_embed_queries_keys_must_align(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        with pytest.raises(ValueError, match="1:1"):
            index.embed_queries([c[0].decompiled_graph], keys=[])

    def test_metas_must_align(self, trained, corpus):
        _, j = corpus
        index = EmbeddingIndex(trained)
        with pytest.raises(ValueError):
            index.add([j[0].source_graph], metas=[{}, {}])


def _persist(index, root):
    """Write ``index`` as a one-shard index directory; returns the root."""
    ShardedEmbeddingIndex.from_index(index, root, max(len(index), 1))
    return root


class TestIndexPersistence:
    def test_save_load_round_trip(self, trained, corpus, tmp_path):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add(
            [s.source_graph for s in j], metas=[{"id": s.identifier} for s in j]
        )
        query = c[0].decompiled_graph
        want = index.scores(query)
        restored = open_index(_persist(index, tmp_path / "index"), trained)
        assert restored.num_shards == 1
        assert len(restored) == len(index)
        np.testing.assert_array_equal(restored.scores(query), want)
        assert [h.meta for h in restored.topk(query, k=2)] == [
            h.meta for h in index.topk(query, k=2)
        ]

    def test_loaded_entries_do_not_reencode(self, trained, corpus, tmp_path):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j[:3]])
        restored = open_index(_persist(index, tmp_path / "index"), trained)
        restored.scores(c[0].decompiled_graph)  # loads the stored rows
        before = trained.model.encoder_graph_count
        restored.scores(j[0].source_graph)  # an indexed entry
        assert trained.model.encoder_graph_count == before

    def test_row_count_mismatch_rejected(self, trained, corpus, tmp_path):
        """A truncated embeddings array fails loudly at load, not later."""
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j[:3]])
        shard = _persist(index, tmp_path / "index") / "shard-0000.npz"
        with np.load(shard) as archive:
            meta = archive["__meta_json__"]
            truncated = archive["embeddings"][:2]
        np.savez_compressed(shard, embeddings=truncated, __meta_json__=meta)
        restored = open_index(tmp_path / "index", trained)
        with pytest.raises(ValueError, match="corrupt"):
            restored.scores(c[0].decompiled_graph)

    def test_index_directory_path_used_verbatim(self, trained, corpus, tmp_path):
        """The index is written to, and opened from, exactly the path given."""
        _, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        _persist(index, tmp_path / "myindex")
        assert (tmp_path / "myindex" / "manifest.json").exists()
        assert len(open_index(tmp_path / "myindex", trained)) == 1

    def test_tag_round_trips(self, trained, corpus, tmp_path):
        _, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        index.tag = "corpus-v1"
        restored = open_index(_persist(index, tmp_path / "index"), trained)
        assert restored.tag == "corpus-v1"

    def test_model_mismatch_rejected(self, trained, trained_concat, corpus, tmp_path):
        _, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        _persist(index, tmp_path / "index")
        with pytest.raises(ValueError):
            open_index(tmp_path / "index", trained_concat)

    def test_same_shape_different_weights_rejected(self, trained, corpus, tmp_path):
        """An index is bound to the exact weights that produced it."""
        _, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        _persist(index, tmp_path / "index")
        other = _train(corpus, seed=99)  # same architecture, different weights
        with pytest.raises(ValueError, match="different model"):
            open_index(tmp_path / "index", other)

    def test_meta_mutation_does_not_corrupt_index(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph], metas=[{"id": "x"}])
        hit = index.topk(c[0].decompiled_graph, k=1)[0]
        hit.meta["id"] = "mutated"
        index.metas[0]["id"] = "also mutated"
        assert index.topk(c[0].decompiled_graph, k=1)[0].meta["id"] == "x"

    def test_non_index_archive_rejected(self, trained, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez_compressed(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="not a sharded index"):
            open_index(path, trained)

    def test_checkpoint_and_index_not_interchangeable(
        self, trained, corpus, tmp_path
    ):
        """Model checkpoints and index files reject each other cleanly."""
        _, j = corpus
        ckpt = tmp_path / "model.npz"
        trained.save(ckpt)
        with pytest.raises(ValueError, match="not a sharded index"):
            open_index(ckpt, trained)
        index = EmbeddingIndex(trained)
        index.add([j[0].source_graph])
        shard = _persist(index, tmp_path / "index") / "shard-0000.npz"
        with pytest.raises(ValueError):
            MatchTrainer.load(shard)


class TestRetrievalFastPath:
    def test_rank_candidates_paths_agree(self, trained, corpus):
        c, j = corpus
        query = (c[0].decompiled_graph, c[0].task)
        cands = retrieval_corpus_from_samples(j, "source")
        fast = rank_candidates(trained, query, cands)
        slow = rank_candidates(trained.predict, query, cands)
        assert fast.ranked_tasks == slow.ranked_tasks
        np.testing.assert_array_equal(fast.relevant, slow.relevant)

    def test_evaluate_retrieval_paths_agree(self, trained, corpus):
        c, j = corpus
        queries = retrieval_corpus_from_samples(c[:3], "binary")
        cands = retrieval_corpus_from_samples(j, "source")
        fast = evaluate_retrieval(trained, queries, cands)
        slow = evaluate_retrieval(trained.predict, queries, cands)
        assert fast == slow

    def test_fast_path_encodes_each_graph_once(self, trained, corpus):
        c, j = corpus
        queries = retrieval_corpus_from_samples(c[:3], "binary")
        cands = retrieval_corpus_from_samples(j, "source")
        trained.model.encoder_graph_count = 0
        evaluate_retrieval(trained, queries, cands)
        assert trained.model.encoder_graph_count == len(queries) + len(cands)

    @pytest.mark.parametrize("which", ["interaction", "concat"])
    def test_index_path_matches_encode_all_then_tile(
        self, which, trained, trained_concat, corpus
    ):
        """Trainer-scored retrieval equals encode-everything-then-tile, bit for bit.

        The index encodes each distinct candidate once and answers a query
        equal to a candidate from the stored row, so repeated candidates
        and candidate-queries pin the batch invariance that path relies on.
        """
        trainer = trained if which == "interaction" else trained_concat
        _, j = corpus
        cands = retrieval_corpus_from_samples(j, "source")
        cands = cands + cands[:3]
        queries = cands[:2] + cands[-2:]
        want = score_pairs_tiled(
            trainer,
            trainer.encode_graphs([g for g, _ in queries], 64),
            trainer.encode_graphs([g for g, _ in cands], 64),
        )
        index = EmbeddingIndex(trainer)
        index.add([g for g, _ in cands], batch_size=64)
        np.testing.assert_array_equal(
            index.scores_batch([g for g, _ in queries], batch_size=64), want
        )
        for query, row in zip(queries, want):
            ranked = rank_candidates(trainer, query, cands)
            order = np.argsort(-row, kind="stable")
            assert ranked.ranked_tasks == [cands[i][1] for i in order]
        # The pairwise path fed the same scores, query by query in
        # candidate order, is the reference sweep.
        stream = iter(want.ravel())

        def replay(pairs):
            return np.asarray([next(stream) for _ in pairs])

        assert evaluate_retrieval(trainer, queries, cands) == evaluate_retrieval(
            replay, queries, cands
        )


class TestPipelineFastPaths:
    def test_graph_of_source_matches_full_pipeline(self, trained, corpus):
        c, _ = corpus
        pipe = MatcherPipeline(trained)
        text = c[0].source_text
        fast = pipe.graph_of_source(text, "c")
        full = compile_to_views(text, "c").source_graph
        assert fast.node_full_texts == full.node_full_texts
        assert fast.node_types == full.node_types
        for rel in full.edges:
            np.testing.assert_array_equal(fast.edges[rel], full.edges[rel])
            np.testing.assert_array_equal(fast.positions[rel], full.positions[rel])

    def test_rank_sources_matches_pairwise(self, trained, corpus):
        c, j = corpus
        pipe = MatcherPipeline(trained)
        candidates = [(s.source_text, s.language) for s in j[:5]]
        ranking = pipe.rank_sources(c[0].binary_bytes, candidates)
        want = _pairwise_reference(
            trained,
            pipe.graph_of_binary(c[0].binary_bytes),
            [pipe.graph_of_source(t, l) for t, l in candidates],
        )
        assert [i for i, _ in ranking] == [
            int(i) for i in np.argsort(-want, kind="stable")
        ]
        got = np.asarray(sorted(s for _, s in ranking))
        np.testing.assert_allclose(got, np.sort(want), atol=1e-5)

    def test_prebuilt_index_reused(self, trained, corpus):
        c, j = corpus
        pipe = MatcherPipeline(trained)
        candidates = [(s.source_text, s.language) for s in j[:5]]
        index = pipe.source_index(candidates)
        baseline = pipe.rank_sources(c[0].binary_bytes, candidates, index=index)
        before = trained.model.encoder_graph_count
        again = pipe.rank_sources(c[1].binary_bytes, candidates, index=index)
        # Only the new query binary hits the encoder.
        assert trained.model.encoder_graph_count == before + 1
        assert sorted(i for i, _ in baseline) == sorted(i for i, _ in again)
        with pytest.raises(ValueError):
            pipe.rank_sources(c[0].binary_bytes, candidates[:2], index=index)

    def test_foreign_trainer_index_rejected(self, trained, corpus):
        """A prebuilt index is bound to the pipeline's model weights."""
        c, j = corpus
        candidates = [(s.source_text, s.language) for s in j[:3]]
        other = _train(corpus, seed=7)
        foreign = MatcherPipeline(other).source_index(candidates)
        pipe = MatcherPipeline(trained)
        with pytest.raises(ValueError, match="different model"):
            pipe.rank_sources(c[0].binary_bytes, candidates, index=foreign)

    def test_dropped_trusted_trainer_vouches_for_nothing(self, trained, corpus):
        """Trust in an index's trainer dies with that trainer.

        Trust used to be keyed by ``id()``: once a checked trainer was
        collected, another model's trainer allocated at the same address
        skipped the model check.  A fresh shell allocated right after the
        trusted one is freed usually lands on that address, which is the
        case this pins; a trainer never checked must be refused either way.
        """
        c, j = corpus
        candidates = [(s.source_text, s.language) for s in j[:3]]
        foreign = MatcherPipeline(_train(corpus, seed=7)).source_index(candidates)
        pipe = MatcherPipeline(trained)
        own = pipe.source_index(candidates)

        def shell(trainer):
            copy = MatchTrainer.__new__(MatchTrainer)
            copy.__dict__.update(trainer.__dict__)
            return copy

        reused = False
        for _ in range(20):
            own.trainer = shell(trained)
            pipe.rank_sources(c[0].binary_bytes, candidates, index=own)
            address = id(own.trainer)
            own.trainer = trained
            foreign.trainer = shell(foreign.trainer)
            reused = id(foreign.trainer) == address
            with pytest.raises(ValueError, match="different model"):
                pipe.rank_sources(c[0].binary_bytes, candidates, index=foreign)
            if reused:
                break
        assert reused, "no trainer landed on a dropped trainer's address"

    def test_reloaded_trainer_index_reusable(self, trained, corpus, tmp_path):
        """Fingerprint-equal trainers share indexes across save/load.

        The identity check used to reject an index built by a
        saved-then-reloaded copy of the *same* model — exactly the
        cross-process reuse the persistent index exists for.
        """
        c, j = corpus
        candidates = [(s.source_text, s.language) for s in j[:4]]
        trained.save(str(tmp_path / "model.npz"))
        reloaded = MatchTrainer.load(str(tmp_path / "model.npz"))
        index = MatcherPipeline(reloaded).source_index(candidates)
        pipe = MatcherPipeline(trained)
        ranked = pipe.rank_sources(c[0].binary_bytes, candidates, index=index)
        direct = pipe.rank_sources(c[0].binary_bytes, candidates)
        assert [i for i, _ in ranked] == [i for i, _ in direct]
        np.testing.assert_allclose(
            [s for _, s in ranked], [s for _, s in direct], atol=1e-5
        )

    def test_mismatched_candidates_rejected(self, trained, corpus):
        """Same-length but different candidate list must not mis-rank."""
        c, j = corpus
        pipe = MatcherPipeline(trained)
        candidates = [(s.source_text, s.language) for s in j[:4]]
        other = [(s.source_text, s.language) for s in j[4:8]]
        index = pipe.source_index(candidates)
        with pytest.raises(ValueError):
            pipe.rank_sources(c[0].binary_bytes, other, index=index)

    def test_evaluate_retrieval_with_index(self, trained, corpus):
        """A prebuilt candidate index replaces candidate re-encoding."""
        c, j = corpus
        queries = retrieval_corpus_from_samples(c[:3], "binary")
        cands = retrieval_corpus_from_samples(j, "source")
        index = EmbeddingIndex(trained)
        index.add([g for g, _ in cands])
        trained.model.encoder_graph_count = 0
        via_index = evaluate_retrieval(None, queries, cands, index=index)
        assert trained.model.encoder_graph_count == len(queries)  # queries only
        direct = evaluate_retrieval(trained, queries, cands)
        assert via_index == direct

    def test_evaluate_retrieval_index_size_mismatch(self, trained, corpus):
        c, j = corpus
        queries = retrieval_corpus_from_samples(c[:2], "binary")
        cands = retrieval_corpus_from_samples(j, "source")
        index = EmbeddingIndex(trained)
        index.add([cands[0][0]])
        with pytest.raises(ValueError):
            evaluate_retrieval(None, queries, cands, index=index)
        with pytest.raises(ValueError):
            evaluate_retrieval(None, queries, cands)  # neither scorer nor index

    def test_evaluate_retrieval_foreign_index_with_scorer_rejected(
        self, trained, corpus
    ):
        """score_fn and index from different checkpoints must not mix."""
        c, j = corpus
        queries = retrieval_corpus_from_samples(c[:2], "binary")
        cands = retrieval_corpus_from_samples(j, "source")
        other = _train(corpus, seed=41)
        foreign = EmbeddingIndex(other)
        foreign.add([g for g, _ in cands])
        with pytest.raises(ValueError, match="different model"):
            evaluate_retrieval(trained, queries, cands, index=foreign)

    def test_evaluate_retrieval_reordered_index_rejected(self, trained, corpus):
        """Same size, wrong entry order must not silently mis-attribute."""
        c, j = corpus
        queries = retrieval_corpus_from_samples(c[:2], "binary")
        cands = retrieval_corpus_from_samples(j, "source")
        reordered = EmbeddingIndex(trained)
        reordered.add([g for g, _ in reversed(cands)])
        with pytest.raises(ValueError, match="same order"):
            evaluate_retrieval(None, queries, cands, index=reordered)

    def test_tagless_index_rejected(self, trained, corpus):
        """Hand-built indexes (no candidate tag) are refused, not trusted."""
        from repro.index import EmbeddingIndex

        c, j = corpus
        pipe = MatcherPipeline(trained)
        candidates = [(s.source_text, s.language) for s in j[:3]]
        bare = EmbeddingIndex(trained)
        bare.add([pipe.graph_of_source(t, l) for t, l in candidates])
        with pytest.raises(ValueError, match="source_index"):
            pipe.rank_sources(c[0].binary_bytes, candidates, index=bare)


def _lexsort_reference(scores, keys, k):
    """The full-sort ranking: descending score, then key, then position."""
    order = np.lexsort((np.asarray(keys), -scores))
    return list(order if k is None else order[:k])


class TestRankedHits:
    """Top-k selection returns exactly the full sort's prefix."""

    C = 48

    def _case(self, seed, levels):
        rng = np.random.default_rng(seed)
        # Few score levels force ties at and across the k-th score; a few
        # duplicate keys force the position tie-break too.
        scores = (rng.integers(0, levels, self.C) / levels).astype(np.float32)
        keys = [f"{int(v):064x}" for v in rng.integers(0, self.C // 2, self.C)]
        metas = [{"i": i} for i in range(self.C)]
        return scores, keys, metas

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("levels", [2, 5, 1000])
    @pytest.mark.parametrize("k", [1, 5, C - 1, C, None])
    def test_matches_full_lexsort(self, seed, levels, k):
        scores, keys, metas = self._case(seed, levels)
        want = _lexsort_reference(scores, keys, k)
        for order in (None, key_order(keys)):
            hits = ranked_hits(scores, keys, metas, k, order)
            assert [h.index for h in hits] == want
            assert [h.key for h in hits] == [keys[i] for i in want]
            assert [h.score for h in hits] == [float(scores[i]) for i in want]
            assert [h.meta for h in hits] == [metas[i] for i in want]

    def test_ties_straddle_the_kth_score(self):
        scores = np.array([0.9, 0.5, 0.5, 0.5, 0.5, 0.1], dtype=np.float32)
        keys = ["f", "e", "b", "d", "a", "c"]
        metas = [{} for _ in keys]
        for k in range(1, len(keys) + 1):
            hits = ranked_hits(scores, keys, metas, k)
            assert [h.index for h in hits] == _lexsort_reference(scores, keys, k)
        assert [h.key for h in ranked_hits(scores, keys, metas, 3)] == ["f", "a", "b"]

    @pytest.mark.parametrize("k", [1, 5, C - 1, C, None])
    def test_nan_score(self, k):
        scores, keys, metas = self._case(0, 5)
        scores[[3, 17]] = np.nan
        scores[5] = -0.0
        hits = ranked_hits(scores, keys, metas, k)
        assert [h.index for h in hits] == _lexsort_reference(scores, keys, k)

    def test_key_order_is_a_dense_rank(self):
        np.testing.assert_array_equal(
            key_order(["b", "a", "c", "a"]), np.array([1, 0, 2, 0])
        )
        assert key_order([]).shape == (0,)

    def test_index_key_order_follows_adds(self, trained, corpus):
        c, j = corpus
        index = EmbeddingIndex(trained)
        index.add([s.source_graph for s in j[:3]])
        query = c[0].decompiled_graph
        index.topk(query, k=2)
        index.add([s.source_graph for s in j[3:]])
        scores = index.scores(query)
        want = _lexsort_reference(scores, index.keys, 3)
        assert [h.index for h in index.topk(query, k=3)] == want

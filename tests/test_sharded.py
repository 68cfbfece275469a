"""Tests for the sharded embedding index: exactness, laziness, growth.

The contract is the same as the in-memory index's, with one word
stronger: an index sharded from an in-memory one must return *bit
identical* scores (the shards hold the same float32 rows and the scoring
code path is shared), while loading shards lazily and growing via
``add`` / ``merge`` without rewriting existing shard files.  The
sharded directory is the only on-disk index format, so every shard file
is checksummed and anything else on disk is refused.
"""

import json

import numpy as np
import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex, open_index
from repro.index.sharded import MANIFEST_NAME, ShardCorruption


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
    return _train(corpus)


@pytest.fixture()
def mono(trained, corpus):
    """In-memory reference index over every java source graph."""
    _, j = corpus
    index = EmbeddingIndex(trained)
    index.add(
        [s.source_graph for s in j], metas=[{"id": s.identifier} for s in j]
    )
    return index


class TestFromIndexParity:
    def test_scores_bit_identical(self, trained, corpus, mono, tmp_path):
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        assert sharded.num_shards == int(np.ceil(len(mono) / 3))
        assert len(sharded) == len(mono)
        queries = [s.decompiled_graph for s in c[:3]]
        np.testing.assert_array_equal(
            sharded.scores_batch(queries), mono.scores_batch(queries)
        )
        np.testing.assert_array_equal(
            sharded.scores(queries[0]), mono.scores(queries[0])
        )

    def test_topk_hits_identical(self, trained, corpus, mono, tmp_path):
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 4)
        for sample in c[:2]:
            mono_hits = mono.topk(sample.decompiled_graph, k=5)
            shard_hits = sharded.topk(sample.decompiled_graph, k=5)
            assert [(h.index, h.score, h.key, h.meta) for h in shard_hits] == [
                (h.index, h.score, h.key, h.meta) for h in mono_hits
            ]

    def test_save_load_query_round_trip(self, trained, corpus, mono, tmp_path):
        """The full disk round trip: shard, reopen, query — same answers."""
        c, _ = corpus
        ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        reopened = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        query = c[0].decompiled_graph
        np.testing.assert_array_equal(reopened.scores(query), mono.scores(query))
        assert [h.meta for h in reopened.topk(query, k=3)] == [
            h.meta for h in mono.topk(query, k=3)
        ]

    def test_keys_metas_embeddings_aligned(self, trained, mono, tmp_path):
        sharded = ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        assert sharded.keys == mono.keys
        assert sharded.metas == mono.metas
        np.testing.assert_array_equal(sharded.embeddings, mono.embeddings)


class TestLaziness:
    def test_open_loads_nothing(self, trained, mono, tmp_path):
        ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        reopened = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        assert reopened.resident_shards == 0
        assert len(reopened) == len(mono)  # sizing needs no shard loads
        assert reopened.num_shards > 1

    def test_query_materializes_shards(self, trained, corpus, mono, tmp_path):
        c, _ = corpus
        ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        reopened = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        reopened.scores(c[0].decompiled_graph)
        assert reopened.resident_shards == reopened.num_shards

    def test_entry_queries_skip_encoder_after_first_gather(
        self, trained, corpus, mono, tmp_path
    ):
        """Like the monolithic index, a query equal to an indexed entry
        reuses the stored embedding instead of re-running the encoder."""
        c, j = corpus
        ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        reopened = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        reopened.scores(c[0].decompiled_graph)  # first gather seeds the cache
        before = trained.model.encoder_graph_count
        reopened.scores(j[0].source_graph)  # an indexed entry
        assert trained.model.encoder_graph_count == before

    def test_shard_subset_query(self, trained, corpus, mono, tmp_path):
        """A subset query loads (and scores) only the selected shards."""
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        reopened = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        query = c[0].decompiled_graph
        subset = reopened.scores(query, shards=[0])
        assert reopened.resident_shards == 1
        np.testing.assert_array_equal(subset, sharded.scores(query)[:3])
        hits = reopened.topk(query, k=2, shards=[0])
        assert all(h.index < 3 for h in hits)
        with pytest.raises(ValueError, match="no shard"):
            reopened.scores(query, shards=[99])


class TestGrowth:
    def test_add_shard_from_graphs(self, trained, corpus, mono):
        _, j = corpus
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            sharded = ShardedEmbeddingIndex.create(trained, tmp + "/idx")
            graphs = [s.source_graph for s in j]
            metas = [{"id": s.identifier} for s in j]
            sharded.add(graphs[:3], metas[:3])
            sharded.add(graphs[3:], metas[3:])
            assert sharded.num_shards == 2 and len(sharded) == len(j)
            assert sharded.metas == mono.metas
            np.testing.assert_allclose(
                sharded.embeddings, mono.embeddings, atol=1e-5
            )

    def test_add_shard_validation(self, trained, corpus, mono, tmp_path):
        _, j = corpus
        sharded = ShardedEmbeddingIndex.create(trained, tmp_path / "idx")
        assert sharded.add([]) == []  # no entries: no (empty) shard
        sharded.add_precomputed([], np.zeros((0, sharded.dim), dtype=np.float32))
        assert sharded.num_shards == 0
        with pytest.raises(ValueError):
            sharded.add([j[0].source_graph], metas=[{}, {}])
        with pytest.raises(ValueError):
            sharded.add_precomputed(mono.keys[:2], mono.embeddings[:1])
        with pytest.raises(ValueError, match="dim"):
            sharded.add_precomputed(mono.keys[:1], mono.embeddings[:1, :-1])
        assert sharded.num_shards == 0

    def test_merge(self, trained, corpus, mono, tmp_path):
        _, j = corpus
        half = len(j) // 2
        left = EmbeddingIndex(trained)
        left.add_precomputed(
            mono.keys[:half], mono.embeddings[:half], mono.metas[:half]
        )
        right = EmbeddingIndex(trained)
        right.add_precomputed(
            mono.keys[half:], mono.embeddings[half:], mono.metas[half:]
        )
        a = ShardedEmbeddingIndex.from_index(left, tmp_path / "a", 2)
        b = ShardedEmbeddingIndex.from_index(right, tmp_path / "b", 2)
        a.merge(b)
        assert len(a) == len(mono)
        np.testing.assert_array_equal(a.embeddings, mono.embeddings)
        # The merged index persists: reopening sees all shards.
        reopened = ShardedEmbeddingIndex.open(tmp_path / "a", trained)
        assert reopened.num_shards == a.num_shards
        np.testing.assert_array_equal(reopened.embeddings, mono.embeddings)

    def test_merge_rejects_corrupt_source_shard(self, trained, mono, tmp_path):
        """A corrupt source file must not come out of merge re-checksummed."""
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((64, mono.dim)).astype(np.float32)
        flat = EmbeddingIndex(trained)
        flat.add_precomputed([f"{i:064x}" for i in range(64)], rows)
        ShardedEmbeddingIndex.from_index(flat, tmp_path / "src", 32, codec="int8")
        victim = tmp_path / "src" / "shard-0000.npy"
        raw = bytearray(victim.read_bytes())
        for i in range(len(raw) - 80, len(raw) - 16):
            raw[i] ^= 0xFF
        victim.write_bytes(bytes(raw))
        dst = ShardedEmbeddingIndex.create(trained, tmp_path / "dst", codec="int8")
        with pytest.raises(ShardCorruption, match="shard-0000.npy"):
            dst.merge(ShardedEmbeddingIndex.open(tmp_path / "src", trained))
        assert dst.num_shards == 0
        assert json.loads((tmp_path / "dst" / MANIFEST_NAME).read_text())["shards"] == []
        assert not list((tmp_path / "dst").glob("shard-*"))

    def test_merge_into_itself_rejected(self, trained, mono, tmp_path):
        a = ShardedEmbeddingIndex.from_index(mono, tmp_path / "a", 2)
        with pytest.raises(ValueError, match="itself"):
            a.merge(a)
        same_dir = ShardedEmbeddingIndex.open(tmp_path / "a", trained)
        with pytest.raises(ValueError, match="itself"):
            a.merge(same_dir)

    def test_create_refuses_overwrite(self, trained, tmp_path):
        ShardedEmbeddingIndex.create(trained, tmp_path / "idx")
        with pytest.raises(ValueError, match="already holds"):
            ShardedEmbeddingIndex.create(trained, tmp_path / "idx")

    def test_empty_index_queries(self, trained, corpus, tmp_path):
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.create(trained, tmp_path / "idx")
        assert sharded.scores(c[0].decompiled_graph).shape == (0,)
        assert sharded.topk(c[0].decompiled_graph, k=3) == []
        assert sharded.topk_batch([c[0].decompiled_graph], k=3) == [[]]


class TestValidation:
    def test_foreign_model_rejected(self, trained, corpus, mono, tmp_path):
        ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        other = _train(corpus, seed=99)
        with pytest.raises(ValueError, match="different model"):
            ShardedEmbeddingIndex.open(tmp_path / "idx", other)

    def test_non_index_dir_rejected(self, trained, tmp_path):
        with pytest.raises(ValueError, match="not a sharded index"):
            ShardedEmbeddingIndex.open(tmp_path, trained)

    def test_bad_manifest_rejected(self, trained, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError, match="manifest"):
            ShardedEmbeddingIndex.open(tmp_path, trained)

    def test_tampered_shard_rejected(self, trained, corpus, mono, tmp_path):
        """A shard whose arrays disagree with the manifest fails loudly."""
        c, _ = corpus
        ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        manifest = json.loads((tmp_path / "idx" / MANIFEST_NAME).read_text())
        manifest["shards"][0]["entries"] += 1
        (tmp_path / "idx" / MANIFEST_NAME).write_text(json.dumps(manifest))
        reopened = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        with pytest.raises(ValueError, match="corrupt"):
            reopened.scores(c[0].decompiled_graph)

    def test_tag_round_trips(self, trained, mono, tmp_path):
        sharded = ShardedEmbeddingIndex.from_index(
            mono, tmp_path / "idx", 3, tag="corpus-v2"
        )
        assert sharded.tag == "corpus-v2"
        reopened = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        assert reopened.tag == "corpus-v2"
        reopened.tag = "corpus-v3"
        assert ShardedEmbeddingIndex.open(tmp_path / "idx", trained).tag == "corpus-v3"


class TestOpenIndex:
    def test_rejects_checkpoints_and_monolithic_archives(
        self, trained, mono, tmp_path
    ):
        """Only an index directory opens; single-file archives are refused."""
        ckpt = tmp_path / "model.npz"
        trained.save(ckpt)
        # The single-archive layout earlier builds wrote for unsharded indexes.
        legacy = tmp_path / "index.npz"
        meta = json.dumps({"keys": mono.keys, "metas": mono.metas, "dim": mono.dim})
        np.savez_compressed(
            legacy,
            embeddings=mono.embeddings,
            __meta_json__=np.frombuffer(meta.encode(), dtype=np.uint8),
        )
        for path in (ckpt, legacy):
            with pytest.raises(ValueError, match="not a sharded index"):
                open_index(path, trained)
        assert isinstance(
            open_index(
                ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3).root,
                trained,
            ),
            ShardedEmbeddingIndex,
        )


class TestShardSelection:
    def test_duplicate_shards_rejected(self, trained, corpus, mono, tmp_path):
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        query = c[0].decompiled_graph
        with pytest.raises(ValueError, match="duplicate shard"):
            sharded.scores(query, shards=[0, 0])
        with pytest.raises(ValueError, match="duplicate shard"):
            sharded.topk(query, k=2, shards=[1, 0, 1])
        # A permutation without repeats is still fine.
        assert sharded.scores(query, shards=[1, 0]).shape[0] == 6

    def test_non_integer_shards_rejected(self, trained, corpus, mono, tmp_path):
        """1.5, 0.9 and True used to score shards 1, 0 and 1 silently."""
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        query = c[0].decompiled_graph
        for bad in (1.5, 0.9, True):
            with pytest.raises(ValueError, match="shard ids must be integers"):
                sharded.scores(query, shards=[bad])
            with pytest.raises(ValueError, match="shard ids must be integers"):
                sharded.topk(query, k=2, shards=[bad])
        # NumPy integers are integers.
        np.testing.assert_array_equal(
            sharded.scores(query, shards=[np.int64(1)]), sharded.scores(query)[3:6]
        )


class _SpyArchive:
    """np.load stand-in that records the embeddings array it hands out."""

    def __init__(self, archive, handed):
        self._archive = archive
        self._handed = handed
        self.files = archive.files

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._archive.close()

    def __getitem__(self, key):
        arr = self._archive[key]
        if key == "embeddings":
            self._handed["arr"] = arr
        return arr


class TestNoCopyLoads:
    """astype(copy=False) regression: loading float32 must not duplicate."""

    def test_shard_load_shares_archive_memory(
        self, trained, mono, tmp_path, monkeypatch
    ):
        import repro.index.sharded as sh

        ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        reopened = ShardedEmbeddingIndex.open(tmp_path / "idx", trained)
        handed = {}
        real_load = np.load
        monkeypatch.setattr(
            sh.np, "load", lambda p: _SpyArchive(real_load(p), handed)
        )
        shard = reopened._ensure(0)
        assert shard.embeddings is handed["arr"]


class TestTieBreaking:
    """Equal scores break ties by entry key, not insertion position."""

    @pytest.fixture()
    def equal_corpus(self, trained, mono):
        # Every entry carries the same embedding row, so every query
        # scores every entry identically — the pure tie-break case.
        keys = sorted(mono.keys, reverse=True)  # insertion order != key order
        row = np.tile(mono.embeddings[:1], (len(keys), 1))
        index = EmbeddingIndex(trained)
        index.add_precomputed(keys, row, [{"key": k} for k in keys])
        return index

    def test_ranked_hits_order(self, trained, corpus, equal_corpus):
        c, _ = corpus
        hits = equal_corpus.topk(c[0].decompiled_graph, k=None)
        scores = [h.score for h in hits]
        assert len(set(scores)) == 1  # the premise: all tied
        assert [h.key for h in hits] == sorted(h.key for h in hits)

    def test_sharded_matches_monolithic_on_ties(
        self, trained, corpus, equal_corpus, tmp_path
    ):
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.from_index(equal_corpus, tmp_path / "idx", 2)
        query = c[0].decompiled_graph
        mono_hits = equal_corpus.topk(query, k=4)
        shard_hits = sharded.topk(query, k=4)
        assert [(h.index, h.key) for h in shard_hits] == [
            (h.index, h.key) for h in mono_hits
        ]

    def test_ann_merge_matches_exact_on_ties(
        self, trained, corpus, equal_corpus, tmp_path
    ):
        # One shard, so exact and ANN score through identical batch
        # shapes: every score is bit-equal and only the tie-break orders
        # the hits.  (Across different shapes the pair head may round the
        # same row differently — that case is covered with a tolerance in
        # test_index_scale.py.)
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.from_index(
            equal_corpus, tmp_path / "idx", len(equal_corpus), cells=2
        )
        query = c[0].decompiled_graph
        exact = sharded.topk(query, k=4)
        ann = sharded.topk(
            query, k=4, mode="ann", nprobe=sharded.quantizer.num_cells
        )
        assert len({h.score for h in ann}) == 1  # the premise: all tied
        assert [(h.index, h.key) for h in ann] == [
            (h.index, h.key) for h in exact
        ]
        assert [h.key for h in ann] == sorted(h.key for h in ann)


    @pytest.mark.parametrize("k", [1, 5, "C-1", "C", None])
    @pytest.mark.parametrize("codec", ["float32", "int8"])
    def test_top_k_across_ties_matches_monolithic(
        self, trained, corpus, equal_corpus, tmp_path, k, codec
    ):
        c, _ = corpus
        size = len(equal_corpus)
        k = {"C-1": size - 1, "C": size}.get(k, k)
        sharded = ShardedEmbeddingIndex.from_index(
            equal_corpus, tmp_path / "idx", 2, codec=codec
        )
        query = c[0].decompiled_graph
        got = [(h.index, h.key) for h in sharded.topk(query, k=k)]
        # The full sort over the index's own scores (int8 rows score
        # slightly differently from the float32 originals).
        scores, keys = sharded.scores(query), sharded.keys
        order = np.lexsort((np.asarray(keys), -scores))[:k]
        assert got == [(int(i), keys[i]) for i in order]
        if codec == "float32":
            assert got == [(h.index, h.key) for h in equal_corpus.topk(query, k=k)]


def _hits(hits):
    return [(h.index, h.score, h.key, h.meta) for h in hits]


class TestGatherCache:
    """The whole-corpus gather (keys, metas, key order, rows) follows the shard set."""

    def test_add_shard_refreshes_ranking(self, trained, corpus, mono, tmp_path):
        c, j = corpus
        sharded = ShardedEmbeddingIndex.create(trained, tmp_path / "idx")
        sharded.add_precomputed(mono.keys[:4], mono.embeddings[:4], mono.metas[:4])
        query = c[0].decompiled_graph
        assert len(sharded.topk(query, k=None)) == 4
        assert len(sharded.keys) == 4
        sharded.add_precomputed(mono.keys[4:], mono.embeddings[4:], mono.metas[4:])
        assert _hits(sharded.topk(query, k=None)) == _hits(mono.topk(query, k=None))
        assert sharded.keys == mono.keys

    def test_merge_refreshes_ranking(self, trained, corpus, mono, tmp_path):
        c, _ = corpus
        a = ShardedEmbeddingIndex.from_index(_subset(mono, 0, 4), tmp_path / "a", 2)
        b = ShardedEmbeddingIndex.from_index(
            _subset(mono, 4, len(mono)), tmp_path / "b", 2
        )
        query = c[0].decompiled_graph
        a.topk(query, k=3)
        a.merge(b)
        assert _hits(a.topk(query, k=3)) == _hits(mono.topk(query, k=3))
        assert a.metas == mono.metas

    @pytest.mark.parametrize("codec", ["float32", "int8"])
    def test_quarantine_drops_the_shard_from_ranking(
        self, trained, corpus, mono, tmp_path, codec
    ):
        c, _ = corpus
        sharded = ShardedEmbeddingIndex.from_index(
            mono, tmp_path / "idx", 3, codec=codec
        )
        query = c[0].decompiled_graph
        sharded.topk(query, k=None)
        sharded.quarantine_shard(0, "test")
        hits = sharded.topk(query, k=None)
        assert len(hits) == len(mono) - 3
        assert set(h.key for h in hits) == set(mono.keys[3:])
        assert sharded.keys == mono.keys[3:]


class TestDirectoryLess:
    """The in-memory index is a ShardedEmbeddingIndex with no directory."""

    def test_one_class_and_query_cache(self, trained, mono):
        from repro.index import QueryCache

        assert isinstance(mono, ShardedEmbeddingIndex)
        assert mono.root is None
        assert type(mono._encoder) is QueryCache

    def test_each_add_is_one_resident_shard(self, trained, corpus, mono):
        c, _ = corpus
        index = EmbeddingIndex(trained)
        index.add_precomputed(mono.keys[:3], mono.embeddings[:3], mono.metas[:3])
        index.add_precomputed(mono.keys[3:], mono.embeddings[3:], mono.metas[3:])
        assert index.num_shards == index.resident_shards == 2
        query = c[0].decompiled_graph
        full = mono.scores(query)
        np.testing.assert_array_equal(index.scores(query), full)
        np.testing.assert_array_equal(index.scores(query, shards=[0]), full[:3])
        np.testing.assert_array_equal(index.scores(query, shards=[1]), full[3:])
        assert [h.key for h in index.topk(query, k=None, shards=[1])] == [
            h.key for h in mono.topk(query, k=None) if h.key in mono.keys[3:]
        ]

    def test_empty_add_is_a_no_op(self, trained):
        index = EmbeddingIndex(trained)
        assert index.add([]) == []
        index.add_precomputed([], np.zeros((0, index.dim), dtype=np.float32))
        assert index.num_shards == 0 and len(index) == 0

    def test_writes_nothing_and_fires_no_fault_site(self, trained, corpus, tmp_path):
        from repro import faults

        _, j = corpus
        graphs = [s.source_graph for s in j[:3]]
        with faults.active("eio-write"):
            index = EmbeddingIndex(trained)
            index.add(graphs)
            index.tag = "t"
            with pytest.raises(OSError):
                ShardedEmbeddingIndex.create(trained, tmp_path / "idx").add(graphs)
        assert len(index) == 3 and index.tag == "t"

    def test_ann_needs_a_quantizer(self, trained, corpus, mono):
        c, _ = corpus
        with pytest.raises(ValueError, match="needs a trained coarse quantizer"):
            mono.topk(c[0].decompiled_graph, k=1, mode="ann")

    def test_quarantine_refused(self, trained, mono):
        with pytest.raises(ValueError, match="directory-less"):
            mono.quarantine_shard(0, "test")
        assert mono.quarantined == {} and mono.resident_shards == 1

    def test_merge_refuses_directory_less(self, trained, mono, tmp_path):
        on_disk = ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 3)
        with pytest.raises(ValueError, match="directory-less"):
            on_disk.merge(mono)
        with pytest.raises(ValueError, match="directory-less"):
            mono.merge(on_disk)


def _subset(index, start, stop):
    part = EmbeddingIndex(index.trainer)
    part.add_precomputed(
        index.keys[start:stop], index.embeddings[start:stop], index.metas[start:stop]
    )
    return part


class TestChecksums:
    """Every writer records a checksum, so a missing one is corruption."""

    @pytest.mark.parametrize("field", ["sha256", "meta_sha256", "cells_sha256"])
    def test_missing_checksum_is_corruption(
        self, trained, corpus, mono, tmp_path, field
    ):
        c, _ = corpus
        root = tmp_path / "idx"
        ShardedEmbeddingIndex.from_index(mono, root, 3, codec="int8", cells=2)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        del manifest["shards"][0][field]
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        query = c[0].decompiled_graph
        strict = ShardedEmbeddingIndex.open(root, trained, verify_reads=True)
        with pytest.raises(ShardCorruption, match="no recorded checksum"):
            strict.scores(query)
        degraded = ShardedEmbeddingIndex.open(
            root, trained, degraded=True, verify_reads=True
        )
        assert degraded.scores(query).shape == (len(mono) - 3,)
        assert list(degraded.quarantined) == [0]
        # Without verify_reads nothing is hashed, so nothing is missed.
        assert ShardedEmbeddingIndex.open(root, trained).scores(query).shape == (
            len(mono),
        )

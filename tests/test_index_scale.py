"""Tests for the scalable index layer: codecs, ANN probing, migration.

Three contracts layered on top of the sharded index's exactness story:

* **codecs** — int8/fp16 shards are raw memory-mapped ``.npy`` arrays
  whose exact-mode scores approximate the float32 reference (the
  quantization error is the only difference: the scoring code dequantizes
  bounded blocks, never a corpus-sized matrix);
* **ann** — with ``nprobe >= num_cells`` the ANN path degenerates to
  exact search over the same stored rows, hit for hit, and with fewer
  probes every returned hit still comes from a probed cell;
* **migration** — v1/v2 manifests (no checksums) are refused with a
  rebuild instruction, and corrupt quantized shards fail loudly with
  actionable messages.
"""

import json

import numpy as np
import pytest

from repro.config import cpu_config, scaled, tiny_data_config
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs
from repro.eval.retrieval import evaluate_retrieval
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex
from repro.fsck import fsck
from repro.index.sharded import INDEX_FORMAT_VERSION, MANIFEST_NAME
from repro.serve import RetrievalServer


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
def mono(trained, corpus):
    _, j = corpus
    index = EmbeddingIndex(trained)
    index.add(
        [s.source_graph for s in j], metas=[{"id": s.identifier} for s in j]
    )
    return index


def _queries(corpus, n=3):
    c, _ = corpus
    return [s.decompiled_graph for s in c[:n]]


class TestQuantizedCodecs:
    @pytest.mark.parametrize("codec", ["int8", "fp16"])
    def test_build_open_score(self, trained, corpus, mono, tmp_path, codec):
        root = tmp_path / codec
        ShardedEmbeddingIndex.from_index(mono, root, 3, codec=codec)
        reopened = ShardedEmbeddingIndex.open(root, trained)
        assert reopened.codec == codec
        queries = _queries(corpus)
        got = reopened.scores_batch(queries)
        want = mono.scores_batch(queries)
        # Quantization noise only: int8 keeps ~2 decimal places on these
        # magnitudes, fp16 ~3.
        np.testing.assert_allclose(got, want, atol=0.05 if codec == "int8" else 0.01)
        assert reopened.keys == mono.keys
        assert reopened.metas == mono.metas

    def test_shards_stay_memory_mapped(self, trained, mono, tmp_path):
        root = tmp_path / "idx"
        ShardedEmbeddingIndex.from_index(mono, root, 3, codec="int8")
        reopened = ShardedEmbeddingIndex.open(root, trained)
        reopened.scores_batch(embeddings=mono.embeddings[:2])
        for shard in reopened._shards:
            assert isinstance(shard.embeddings, np.memmap)
            assert shard.embeddings.dtype == np.int8

    def test_streaming_bounds_dequantized_bytes(self, trained, mono, tmp_path):
        root = tmp_path / "idx"
        sharded = ShardedEmbeddingIndex.from_index(mono, root, 2, codec="int8")
        sharded.score_block_rows = 2  # force multiple blocks per shard
        sharded.scores_batch(embeddings=mono.embeddings[:2])
        full = mono.embeddings.nbytes
        assert 0 < sharded.last_peak_block_bytes < full
        assert sharded.last_peak_dequant_bytes < full

    def test_int8_round_trip_error_is_small(self):
        from repro.index.sharded import _dequantize, _quantize

        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((64, 8)).astype(np.float32)
        raw, scale = _quantize(matrix, "int8")
        assert raw.dtype == np.int8
        recovered = _dequantize(raw, "int8", scale)
        assert np.abs(recovered - matrix).max() <= (scale / 2 + 1e-7).max()
        # Zero-only columns dequantize through the sentinel scale of 1.
        zeros = np.zeros((4, 3), dtype=np.float32)
        raw, scale = _quantize(zeros, "int8")
        np.testing.assert_array_equal(scale, np.ones(3, dtype=np.float32))
        np.testing.assert_array_equal(_dequantize(raw, "int8", scale), zeros)

    def test_growth_and_merge_keep_codec(self, trained, corpus, mono, tmp_path):
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
        a = ShardedEmbeddingIndex.from_index(left, tmp_path / "a", 2, codec="fp16")
        b = ShardedEmbeddingIndex.from_index(right, tmp_path / "b", 2, codec="fp16")
        a.merge(b)
        assert len(a) == len(mono)
        np.testing.assert_allclose(a.embeddings, mono.embeddings, atol=0.01)
        reopened = ShardedEmbeddingIndex.open(tmp_path / "a", trained)
        np.testing.assert_array_equal(reopened.embeddings, a.embeddings)
        mixed = ShardedEmbeddingIndex.from_index(mono, tmp_path / "f32", 2)
        with pytest.raises(ValueError, match="codecs differ"):
            a.merge(mixed)

    def test_unknown_codec_rejected(self, trained, tmp_path):
        with pytest.raises(ValueError, match="codec"):
            ShardedEmbeddingIndex.create(trained, tmp_path / "idx", codec="int4")


class TestAnnMode:
    @pytest.fixture()
    def ann_index(self, trained, mono, tmp_path):
        sharded = ShardedEmbeddingIndex.from_index(
            mono, tmp_path / "idx", 3, codec="int8", cells=4, quantizer_seed=0
        )
        return ShardedEmbeddingIndex.open(tmp_path / "idx", trained)

    @staticmethod
    def _assert_same_ranking(ann_lists, exact_lists, atol=1e-5):
        # The exact and ANN paths score through different batch shapes, so
        # the pair head may round the same row differently in the last bit:
        # the contract is same hit set + allclose scores, with order
        # agreeing wherever the scores are distinguishable.
        for ann_hits, exact_hits in zip(ann_lists, exact_lists):
            assert {h.index for h in ann_hits} == {h.index for h in exact_hits}
            by_index = {h.index: h for h in ann_hits}
            for eh in exact_hits:
                ah = by_index[eh.index]
                assert ah.score == pytest.approx(eh.score, abs=atol)
                assert (ah.key, ah.meta) == (eh.key, eh.meta)
            for prev, cur in zip(ann_hits, ann_hits[1:]):
                assert prev.score > cur.score or (
                    prev.score == cur.score and prev.key <= cur.key
                )

    def test_full_probe_matches_exact(self, corpus, ann_index):
        queries = _queries(corpus)
        exact = ann_index.topk_batch(queries, k=5)
        ann = ann_index.topk_batch(
            queries, k=5, mode="ann", nprobe=ann_index.quantizer.num_cells
        )
        self._assert_same_ranking(ann, exact)
        # k=None: the full ranking covers every entry.
        full = ann_index.topk_batch(
            queries, k=None, mode="ann", nprobe=ann_index.quantizer.num_cells
        )
        assert all(len(hits) == len(ann_index) for hits in full)
        self._assert_same_ranking(full, ann_index.topk_batch(queries, k=None))

    def test_hits_come_from_probed_cells(self, corpus, ann_index):
        queries = _queries(corpus, n=2)
        from repro.index.embedding_index import score_pairs_tiled

        q = ann_index._encoder.embed_queries(queries, 32)
        cell_scores = score_pairs_tiled(
            ann_index.trainer, q, ann_index.quantizer.centroids
        )
        all_cells = np.concatenate(
            [s.cells for s in (ann_index._ensure(p) for p in range(ann_index.num_shards))]
        )
        for nprobe in (1, 2):
            probed = np.argsort(-cell_scores, axis=1, kind="stable")[:, :nprobe]
            hit_lists = ann_index.topk_batch(queries, k=None, mode="ann", nprobe=nprobe)
            for qi, hits in enumerate(hit_lists):
                assert hits  # at least the probed cells' entries
                for hit in hits:
                    assert all_cells[hit.index] in probed[qi]

    def test_single_query_topk(self, corpus, ann_index):
        (query,) = _queries(corpus, n=1)
        ann = ann_index.topk(
            query, k=3, mode="ann", nprobe=ann_index.quantizer.num_cells
        )
        exact = ann_index.topk(query, k=3)
        self._assert_same_ranking([ann], [exact])

    def test_reopen_probes_identically(self, trained, corpus, mono, tmp_path):
        root = tmp_path / "idx"
        built = ShardedEmbeddingIndex.from_index(mono, root, 3, cells=4)
        reopened = ShardedEmbeddingIndex.open(root, trained)
        np.testing.assert_array_equal(
            built.quantizer.centroids, reopened.quantizer.centroids
        )
        queries = _queries(corpus)
        a = built.topk_batch(queries, k=3, mode="ann", nprobe=2)
        b = reopened.topk_batch(queries, k=3, mode="ann", nprobe=2)
        assert [[(h.index, h.score) for h in hits] for hits in a] == [
            [(h.index, h.score) for h in hits] for hits in b
        ]

    def test_validation(self, trained, corpus, mono, tmp_path, ann_index):
        (query,) = _queries(corpus, n=1)
        plain = ShardedEmbeddingIndex.from_index(mono, tmp_path / "plain", 3)
        with pytest.raises(ValueError, match="quantizer"):
            plain.topk(query, k=1, mode="ann")
        with pytest.raises(ValueError, match="shards="):
            ann_index.topk(query, k=1, mode="ann", shards=[0])
        with pytest.raises(ValueError, match="nprobe"):
            ann_index.topk(query, k=1, mode="ann", nprobe=0)
        with pytest.raises(ValueError, match="mode"):
            ann_index.topk(query, k=1, mode="fuzzy")
        with pytest.raises(ValueError, match="mode='exact'"):
            mono.topk(query, k=1, mode="ann")
        with pytest.raises(ValueError, match="mode"):
            mono.topk(query, k=1, mode="fuzzy")

    def test_evaluate_retrieval_full_probe_matches_exact(
        self, trained, corpus, ann_index
    ):
        c, j = corpus
        queries = [(s.decompiled_graph, s.task) for s in c[:4]]
        candidates = [(s.source_graph, s.task) for s in j]
        exact = evaluate_retrieval(trained, queries, candidates, index=ann_index)
        ann = evaluate_retrieval(
            trained,
            queries,
            candidates,
            index=ann_index,
            mode="ann",
            nprobe=ann_index.quantizer.num_cells,
        )
        assert (ann.mrr, ann.hit_at, ann.mean_average_precision) == (
            exact.mrr, exact.hit_at, exact.mean_average_precision
        )
        with pytest.raises(ValueError, match="index="):
            evaluate_retrieval(trained, queries, candidates, mode="ann")

    def test_serve_ann_smoke(self, trained, corpus, ann_index):
        import base64

        c, _ = corpus
        server = RetrievalServer(trained, ann_index, default_k=3, mode="ann", nprobe=2)
        graph = server.pipeline.graph_of_binary(c[0].binary_bytes)
        encoded = base64.b64encode(c[0].binary_bytes).decode()
        (resp,) = server.handle_batch(
            [{"id": "q", "binary_b64": encoded, "k": 3}]
        )
        want = ann_index.topk(graph, k=3, mode="ann", nprobe=2)
        assert [h["index"] for h in resp["hits"]] == [h.index for h in want]

    def test_serve_ann_requires_quantizer(self, trained, mono):
        with pytest.raises(ValueError, match="quantizer"):
            RetrievalServer(trained, mono, mode="ann")


class TestQuantizerSampling:
    def test_subsample_covers_periodic_layouts(self, trained, tmp_path):
        """Round-robin corpus layouts must not alias with the training
        subsample.

        With rows laid out ``i % blobs`` a *strided* subsample only ever
        sees the blobs whose id divides the stride, so every other blob
        is left without a nearby centroid and ANN recall collapses for
        queries landing there.  The seeded uniform sample has to leave
        every row close to its assigned centroid even when it can only
        afford a quarter of the corpus.
        """
        rng = np.random.default_rng(3)
        dim = 2 * trained.config.hidden_dim
        blobs, total = 8, 256
        centers = rng.standard_normal((blobs, dim)).astype(np.float32)
        rows = centers[np.arange(total) % blobs] + 0.01 * rng.standard_normal(
            (total, dim)
        ).astype(np.float32)
        mono = EmbeddingIndex(trained)
        mono.add_precomputed([f"{i:064x}" for i in range(total)], rows)
        sharded = ShardedEmbeddingIndex.from_index(mono, tmp_path / "idx", 64)
        quantizer = sharded.train_quantizer(blobs, seed=0, max_train_rows=64)
        assigned = quantizer.assign(rows)
        err = np.linalg.norm(rows - quantizer.centroids[assigned], axis=1)
        # Blob centers sit ~sqrt(2*dim) apart; an unsampled blob's rows
        # would be that far from their centroid.  Sampled blobs stay at
        # noise scale.
        assert err.max() < 1.0


class TestMigration:
    def test_legacy_manifests_rejected(self, trained, mono, tmp_path):
        """v1/v2 manifests are refused by open and fsck, naming the format."""
        for fmt in ("sharded-embedding-index-v1", "sharded-embedding-index-v2"):
            root = tmp_path / fmt
            ShardedEmbeddingIndex.from_index(mono, root, 3)
            manifest = json.loads((root / MANIFEST_NAME).read_text())
            manifest["format"] = fmt
            (root / MANIFEST_NAME).write_text(json.dumps(manifest))
            with pytest.raises(ValueError, match=f"{fmt}.*rebuild"):
                ShardedEmbeddingIndex.open(root, trained)
            report = fsck(root)
            assert not report["clean"]
            [entry] = [e for e in report["entries"] if e["file"] == MANIFEST_NAME]
            assert entry["status"] == "corrupt"
            assert fmt in entry["detail"] and "rebuild" in entry["detail"]

    def test_format_version_recorded(self, trained, mono, tmp_path):
        root = tmp_path / "idx"
        ShardedEmbeddingIndex.from_index(mono, root, 3)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == INDEX_FORMAT_VERSION
        assert manifest["codec"] == "float32"

    def test_truncated_quantized_shard_fails_loudly(
        self, trained, corpus, mono, tmp_path
    ):
        root = tmp_path / "idx"
        ShardedEmbeddingIndex.from_index(mono, root, 3, codec="int8")
        shard_path = root / "shard-0000.npy"
        raw = shard_path.read_bytes()
        shard_path.write_bytes(raw[: len(raw) // 2])
        reopened = ShardedEmbeddingIndex.open(root, trained)
        with pytest.raises(ValueError, match="corrupt or truncated"):
            reopened.scores(_queries(corpus, n=1)[0])

    def test_corrupt_sidecar_fails_loudly(self, trained, corpus, mono, tmp_path):
        root = tmp_path / "idx"
        ShardedEmbeddingIndex.from_index(mono, root, 3, codec="int8")
        (root / "shard-0000.meta.json").write_text("{not json")
        reopened = ShardedEmbeddingIndex.open(root, trained)
        with pytest.raises(ValueError, match="sidecar"):
            reopened.scores(_queries(corpus, n=1)[0])

    def test_corrupt_cells_fails_loudly(self, trained, corpus, mono, tmp_path):
        root = tmp_path / "idx"
        ShardedEmbeddingIndex.from_index(mono, root, 3, cells=4)
        (root / "shard-0000.cells.npy").write_bytes(b"\x93NUMPY junk")
        reopened = ShardedEmbeddingIndex.open(root, trained)
        with pytest.raises(ValueError, match="train_quantizer"):
            reopened.topk(_queries(corpus, n=1)[0], k=1, mode="ann")

    def test_wrong_dtype_shard_rejected(self, trained, corpus, mono, tmp_path):
        root = tmp_path / "idx"
        ShardedEmbeddingIndex.from_index(mono, root, len(mono), codec="int8")
        entries = len(mono)
        np.save(root / "shard-0000.npy", np.zeros((entries, mono.dim), np.float16))
        reopened = ShardedEmbeddingIndex.open(root, trained)
        with pytest.raises(ValueError, match="dtype"):
            reopened.scores(_queries(corpus, n=1)[0])

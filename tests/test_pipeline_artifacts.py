"""Tests for the staged compilation pipeline, serializers, and artifact store."""

import pickle
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.artifacts import ArtifactKey, ArtifactStore, source_text_id
from repro.config import DataConfig, tiny_data_config
from repro.core.pipeline import compile_to_views
from repro.data.corpus import CorpusBuilder, corpus_statistics
from repro.graphs import build_graph
from repro.graphs.serialize import graph_from_arrays, graph_to_arrays
from repro.index import graph_fingerprint
from repro.ir.printer import print_module
from repro.lang.generator import SolutionGenerator
from repro.pipeline import (
    PIPELINE_VERSION,
    STAGES,
    CompilationPipeline,
    StageFailure,
)


@pytest.fixture(scope="module")
def solution():
    return SolutionGenerator(seed=3, independent=True).generate("gcd", 1, "java")


@pytest.fixture(scope="module")
def compiled(solution):
    return CompilationPipeline().compile(solution.text, "java", name=solution.identifier)


class TestStagedPipeline:
    def test_all_stages_complete_in_order(self, compiled):
        assert list(compiled.stages_completed) == list(STAGES)
        assert compiled.complete

    def test_every_stage_timed(self, solution):
        pipeline = CompilationPipeline()
        pipeline.compile(solution.text, "java", name=solution.identifier)
        assert set(pipeline.timer.counts) == set(STAGES)
        assert all(t >= 0.0 for t in pipeline.timer.totals.values())

    def test_pipeline_timer_accumulates(self, solution):
        pipeline = CompilationPipeline()
        pipeline.compile(solution.text, "java")
        pipeline.compile(solution.text, "java")
        assert pipeline.timer.counts["codegen"] == 2

    def test_unsupported_language_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unsupported language"):
            CompilationPipeline().compile("fn main() {}", "rust")
        with pytest.raises(ValueError, match="unsupported language"):
            CompilationPipeline().source_graph("fn main() {}", "rust")

    def test_stage_failure_reports_partial_progress(self, solution):
        pipeline = CompilationPipeline(fail_stage="codegen")
        with pytest.raises(StageFailure) as exc:
            pipeline.compile(solution.text, "java")
        assert exc.value.stage == "codegen"
        assert exc.value.result.stages_completed == ["parse", "lower", "optimize"]
        assert exc.value.result.binary_bytes is None

    def test_matches_compile_to_views(self, solution, compiled):
        views = compile_to_views(solution.text, "java", name=solution.identifier)
        assert graph_fingerprint(views.source_graph) == graph_fingerprint(
            compiled.source_graph
        )
        assert graph_fingerprint(views.decompiled_graph) == graph_fingerprint(
            compiled.decompiled_graph
        )
        assert views.binary_bytes == compiled.binary_bytes

    def test_source_graph_fast_path_parity(self, solution, compiled):
        fast = CompilationPipeline().source_graph(
            solution.text, "java", name=solution.identifier
        )
        assert graph_fingerprint(fast) == graph_fingerprint(compiled.source_graph)

    def test_binary_graph_fast_path_parity(self, compiled):
        graph = CompilationPipeline().binary_graph(
            compiled.binary_bytes, name=compiled.name + ".dec"
        )
        assert graph_fingerprint(graph) == graph_fingerprint(compiled.decompiled_graph)


class TestCorpusPipelineParity:
    """CorpusBuilder and compile_to_views share one pipeline implementation."""

    def test_sample_graphs_match_compile_to_views(self):
        samples = CorpusBuilder(tiny_data_config()).build(["c", "java"])
        for sample in samples[:6]:
            views = compile_to_views(
                sample.source_text, sample.language,
                opt_level=sample.opt_level, compiler=sample.compiler,
                name=sample.identifier,
            )
            assert graph_fingerprint(views.source_graph) == graph_fingerprint(
                sample.source_graph
            )
            assert graph_fingerprint(views.decompiled_graph) == graph_fingerprint(
                sample.decompiled_graph
            )
            assert views.binary_bytes == sample.binary_bytes


class TestStageAccurateStats:
    def test_late_stage_failure_does_not_inflate_counters(self):
        cfg = DataConfig(num_tasks=4, variants=1, seed=0, compile_failure_pct=0)
        builder = CorpusBuilder(cfg, pipeline=CompilationPipeline(fail_stage="decompile"))
        samples = builder.build(["c"])
        stats = corpus_statistics(builder)["c"]
        assert samples == []
        assert stats["sources"] == stats["llvm_ir"] == stats["binaries"] == 4
        assert stats["decompiled"] == 0

    def test_early_stage_failure_counts_nothing_downstream(self):
        cfg = DataConfig(num_tasks=4, variants=1, seed=0, compile_failure_pct=0)
        builder = CorpusBuilder(cfg, pipeline=CompilationPipeline(fail_stage="lower"))
        builder.build(["c"])
        stats = corpus_statistics(builder)["c"]
        assert stats["sources"] == 4
        assert stats["llvm_ir"] == stats["binaries"] == stats["decompiled"] == 0


def store_roundtrip(result, root, **key_fields):
    """Put a cold result into a fresh store at ``root`` and load it back."""
    store = ArtifactStore(root)
    key = ArtifactKey(
        task="t", variant=0, language=result.language, opt_level=result.opt_level,
        compiler=result.compiler, source_id=source_text_id(result.source_text),
        **key_fields,
    )
    store.put(key, result)
    loaded = store.get(key)
    assert loaded is not None and store.hits == 1
    return loaded


def assert_same_module(warm, cold):
    assert (warm.name, warm.source_language) == (cold.name, cold.source_language)
    assert print_module(warm) == print_module(cold)
    assert warm.size() == cold.size()


class TestModuleSerialization:
    """Modules round-trip through an artifact entry, which stores none: the
    store rebuilds them from the entry's source text and binary."""

    @pytest.mark.parametrize("language", ["c", "cpp", "java"])
    def test_source_module_roundtrip(self, language, tmp_path):
        sf = SolutionGenerator(seed=1, independent=True).generate("gcd", 0, language)
        cold = CompilationPipeline().compile(
            sf.text, language, name=sf.identifier, program=sf.program
        )
        restored = store_roundtrip(cold, tmp_path).source_module
        assert_same_module(restored, cold.source_module)
        assert graph_fingerprint(build_graph(restored)) == graph_fingerprint(
            build_graph(cold.source_module)
        )

    def test_decompiled_module_roundtrip(self, compiled, tmp_path):
        restored = store_roundtrip(compiled, tmp_path).decompiled_module
        assert_same_module(restored, compiled.decompiled_module)


class TestWarmModules:
    """Warm-loaded modules equal the cold compile's, on every axis the
    pipeline has: language, opt level, transform chain, graph features."""

    CHAIN = "deadcode@0.5~3+regrename"

    @pytest.mark.parametrize("language", ["c", "cpp", "java"])
    @pytest.mark.parametrize("opt_level", ["O0", "O2", "Oz"])
    @pytest.mark.parametrize(
        "transforms,dataflow", [("", False), (CHAIN, False), ("", True)]
    )
    def test_warm_equals_cold(self, language, opt_level, transforms, dataflow, tmp_path):
        sf = SolutionGenerator(seed=2, independent=True).generate(
            "count_above", 1, language
        )
        cold = CompilationPipeline(transforms=transforms, dataflow_edges=dataflow).compile(
            sf.text, language, name=sf.identifier, opt_level=opt_level,
            program=sf.program,
        )
        warm = store_roundtrip(
            cold, tmp_path, transforms=transforms,
            graph_features="dataflow" if dataflow else "",
        )
        assert warm.transforms == cold.transforms
        assert_same_module(warm.source_module, cold.source_module)
        assert_same_module(warm.decompiled_module, cold.decompiled_module)

    def test_warm_results_pickle_before_and_after_access(self, tmp_path):
        # Warm datasets are shipped to pool workers: lazy modules must
        # pickle whether or not they were rebuilt yet.
        cfg = DataConfig(num_tasks=2, variants=1, seed=0, artifact_dir=str(tmp_path))
        cold = CorpusBuilder(cfg).build(["c", "java"])
        builder = CorpusBuilder(cfg)
        warm = builder.build(["c", "java"])
        s = cold[0]
        result = builder.store.get(
            builder.artifact_key(s.task, s.variant, s.language, s.opt_level, s.compiler)
        )

        def printed(x):
            return [print_module(x.source_module), print_module(x.decompiled_module)]

        for cold_item, item in zip(cold + [s], warm + [result]):
            before = pickle.loads(pickle.dumps(item))
            assert printed(item) == printed(cold_item)
            after = pickle.loads(pickle.dumps(item))
            assert printed(before) == printed(after) == printed(cold_item)


class TestGraphSerialization:
    def test_arrays_roundtrip_fingerprint_exact(self, compiled):
        for graph in (compiled.source_graph, compiled.decompiled_graph):
            restored = graph_from_arrays(graph_to_arrays(graph, prefix="g."), prefix="g.")
            assert graph_fingerprint(restored) == graph_fingerprint(graph)
            assert restored.name == graph.name
            assert restored.source_language == graph.source_language
            for rel in graph.edges:
                np.testing.assert_array_equal(restored.edges[rel], graph.edges[rel])
                np.testing.assert_array_equal(restored.positions[rel], graph.positions[rel])

    def test_missing_prefix_rejected(self):
        with pytest.raises(ValueError, match="prefix"):
            graph_from_arrays({}, prefix="nope.")


class TestArtifactStore:
    def _key(self, **overrides):
        fields = dict(
            task="gcd", variant=1, language="java", opt_level="Oz",
            compiler="clang", source_id="sha:abc",
        )
        fields.update(overrides)
        return ArtifactKey(**fields)

    def test_digest_covers_every_field(self):
        base = self._key()
        assert base.digest == self._key().digest
        for change in (
            dict(task="fib"), dict(variant=2), dict(language="c"),
            dict(opt_level="O0"), dict(compiler="gcc"), dict(source_id="sha:zzz"),
        ):
            assert self._key(**change).digest != base.digest
        assert replace(base, version="other").digest != base.digest

    def test_digest_bytes_pinned(self):
        key = self._key(version="staged-test", transforms="deadcode",
                        graph_features="dataflow")
        assert key.digest == (
            "8dd5680423d554f7b651560046e633aa3004e0d12dda2b517b35fe0f03e94c72"
        )
        assert "digest" not in asdict(key)

    def test_digest_hashed_once_per_key(self, compiled, tmp_path, monkeypatch):
        """put's path_for, the journal append and get's path_for share one hash."""
        import hashlib

        key = self._key(source_id=source_text_id(compiled.source_text))
        payload = "\x1f".join(str(v) for v in asdict(key).values()).encode()
        calls = []
        real = hashlib.sha256

        def spy(data=b"", *args, **kwargs):
            calls.append(data)
            return real(data, *args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", spy)
        store = ArtifactStore(tmp_path / "store")
        store.put(key, compiled)
        assert store.get(key) is not None
        assert calls.count(payload) == 1

    def test_version_defaults_to_pipeline_fingerprint(self):
        assert self._key().version == PIPELINE_VERSION

    def test_put_get_roundtrip(self, compiled, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = self._key(source_id=source_text_id(compiled.source_text))
        assert store.get(key) is None and store.misses == 1
        store.put(key, compiled)
        assert key in store and len(store) == 1
        loaded = store.get(key)
        assert loaded is not None and loaded.from_cache
        assert loaded.source_text == compiled.source_text
        assert loaded.binary_bytes == compiled.binary_bytes
        assert graph_fingerprint(loaded.source_graph) == graph_fingerprint(
            compiled.source_graph
        )
        assert graph_fingerprint(loaded.decompiled_graph) == graph_fingerprint(
            compiled.decompiled_graph
        )
        # Lazy modules materialize to the exact original IR.
        assert print_module(loaded.source_module) == print_module(compiled.source_module)
        assert print_module(loaded.decompiled_module) == print_module(
            compiled.decompiled_module
        )
        assert loaded.decompiled_module.size() == compiled.decompiled_module.size()

    def test_incomplete_result_refused(self, solution, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(StageFailure) as exc:
            CompilationPipeline(fail_stage="graph").compile(solution.text, "java")
        with pytest.raises(ValueError, match="incomplete"):
            store.put(self._key(), exc.value.result)

    def test_corrupt_entry_is_a_miss(self, compiled, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = self._key()
        path = store.put(key, compiled)
        path.write_bytes(b"not an npz archive")
        assert store.get(key) is None
        # A truncated zip (crash mid-write, disk full) raises BadZipFile
        # inside np.load — still a miss, never an error.
        path.write_bytes(b"PK\x03\x04" + b"\x00" * 8)
        assert store.get(key) is None

    def test_stats_reporting(self, compiled, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(self._key(), compiled)
        store.get(self._key())
        s = store.stats()
        assert s["entries"] == 1 and s["hits"] == 1 and s["bytes"] > 0


class TestColdWarmParallelBuilds:
    CFG = dict(num_tasks=5, variants=2, seed=0)

    def _fingerprints(self, samples):
        return [
            (
                s.identifier,
                graph_fingerprint(s.source_graph),
                graph_fingerprint(s.decompiled_graph),
                s.binary_bytes,
            )
            for s in samples
        ]

    def test_warm_build_equals_cold_build(self, tmp_path):
        cfg = DataConfig(artifact_dir=str(tmp_path / "store"), **self.CFG)
        cold_builder = CorpusBuilder(cfg)
        cold = cold_builder.build(["c", "java"])
        warm_builder = CorpusBuilder(cfg)
        warm = warm_builder.build(["c", "java"])
        assert self._fingerprints(warm) == self._fingerprints(cold)
        assert corpus_statistics(warm_builder) == corpus_statistics(cold_builder)
        assert warm_builder.store.hits == len(warm)
        assert [s.source_text for s in warm] == [s.source_text for s in cold]
        # Exactly one store probe per compiled sample — no double-counted
        # misses on the cold path, no misses at all on the warm path.
        assert cold_builder.store.misses == len(cold)
        assert warm_builder.store.misses == 0

    def test_store_matches_storeless_build(self, tmp_path):
        stored = CorpusBuilder(
            DataConfig(artifact_dir=str(tmp_path / "store"), **self.CFG)
        ).build(["c"])
        plain = CorpusBuilder(DataConfig(**self.CFG)).build(["c"])
        assert self._fingerprints(stored) == self._fingerprints(plain)

    def test_parallel_build_identical_to_serial(self, tmp_path):
        cfg = DataConfig(artifact_dir=str(tmp_path / "store"), **self.CFG)
        par_builder = CorpusBuilder(cfg)
        par = par_builder.build_parallel(["c", "java"], workers=2)
        ser_builder = CorpusBuilder(DataConfig(**self.CFG))
        ser = ser_builder.build(["c", "java"])
        assert self._fingerprints(par) == self._fingerprints(ser)
        assert corpus_statistics(par_builder) == corpus_statistics(ser_builder)

    def test_parallel_build_without_store_uses_scratch(self):
        builder = CorpusBuilder(DataConfig(**self.CFG))
        par = builder.build_parallel(["c"], workers=2)
        ser = CorpusBuilder(DataConfig(**self.CFG)).build(["c"])
        assert self._fingerprints(par) == self._fingerprints(ser)
        assert builder.store is None  # scratch store cleaned up

    def test_pool_never_oversubscribes_workers(self, tmp_path, monkeypatch):
        """Pool size is clamped to the requested worker count.

        Also checks the strided chunking covers every cold item exactly
        once, so the clamp does not drop work.
        """
        import repro.data.corpus as corpus_mod
        import repro.exec.pool as pool_mod

        created = []
        chunks_seen = []

        class FakePool:
            def run(self, fn, payloads):
                for payload in payloads:
                    chunks_seen.append(list(payload[0][2]))
                return [fn(*p) for p in payloads]

        def fake_get_pool(workers, start_method=None):
            created.append(workers)
            return FakePool()

        monkeypatch.setattr(pool_mod, "get_pool", fake_get_pool)
        monkeypatch.setattr(corpus_mod.multiprocessing, "cpu_count", lambda: 64)
        cfg = DataConfig(artifact_dir=str(tmp_path / "store"), **self.CFG)
        builder = CorpusBuilder(cfg)
        par = builder.build_parallel(["c"], workers=3)
        assert created and all(n <= 3 for n in created)
        compiled = [item for chunk in chunks_seen for item in chunk]
        assert len(compiled) == len(set(compiled))  # no item compiled twice
        ser = CorpusBuilder(DataConfig(**self.CFG)).build(["c"])
        assert self._fingerprints(par) == self._fingerprints(ser)
        # workers=None falls back to cpu_count but still may not exceed
        # the cold-item count (no pools of idle processes).
        created.clear()
        chunks_seen.clear()
        builder2 = CorpusBuilder(
            DataConfig(artifact_dir=str(tmp_path / "store2"), **self.CFG)
        )
        builder2.build_parallel(["c"], workers=None)
        todo = sum(len(c) for c in chunks_seen)
        assert created and all(n <= max(todo, 1) for n in created)

    def test_parallel_rejects_bad_worker_count(self, tmp_path):
        cfg = DataConfig(artifact_dir=str(tmp_path / "store"), **self.CFG)
        with pytest.raises(ValueError, match="workers"):
            CorpusBuilder(cfg).build_parallel(["c"], workers=0)

    def test_opt_level_and_compiler_key_separation(self, tmp_path):
        cfg = DataConfig(artifact_dir=str(tmp_path / "store"), **self.CFG)
        o0 = CorpusBuilder(cfg).build(["c"], opt_level="O0")
        oz_builder = CorpusBuilder(cfg)
        oz = oz_builder.build(["c"], opt_level="Oz")
        # Different opt levels must not collide in the store.
        assert oz_builder.store.hits == 0
        assert [s.opt_level for s in o0] == ["O0"] * len(o0)
        assert [s.opt_level for s in oz] == ["Oz"] * len(oz)


class TestCompileToViewsStore:
    def test_views_cached_across_calls(self, solution, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = compile_to_views(solution.text, "java", store=store)
        assert store.misses == 1
        second = compile_to_views(solution.text, "java", store=store)
        assert store.hits == 1
        assert graph_fingerprint(first.source_graph) == graph_fingerprint(
            second.source_graph
        )
        assert first.binary_bytes == second.binary_bytes

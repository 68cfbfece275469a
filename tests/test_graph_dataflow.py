"""Tests for the analysis-derived graph relations (dataflow/callsummary).

Gates the contracts the corpus/index layers depend on: base relations are
byte-identical with the feature on or off, the new edges are cross-block
only, serialization round-trips exactly, fresh processes emit identical
bytes, extended-relation batches feed the model (and base-relation batches
still do, via the zero-edge fallback), and artifact keys distinguish the
graph schema.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.artifacts import ArtifactKey, ArtifactStore
from repro.config import EXTENDED_RELATIONS as CFG_EXTENDED
from repro.config import ModelConfig
from repro.core.model import GraphBinMatch
from repro.core.node_features import encode_nodes, train_tokenizer
from repro.graphs.batch import batch_graphs, batch_relations
from repro.graphs.programl import (
    CALLSUMMARY,
    DATAFLOW,
    EXTENDED_RELATIONS,
    NODE_SUMMARY,
    RELATIONS,
    build_graph,
)
from repro.graphs.serialize import graph_from_arrays, graph_to_arrays
from repro.ir.analysis import DefUseChains
from repro.ir.lowering import lower_program
from repro.ir.passes import optimize
from repro.lang.generator import SolutionGenerator
from repro.pipeline import CompilationPipeline

GEN = SolutionGenerator(seed=5, independent=True)


def _module(task="gcd", lang="c", opt="O2"):
    sf = GEN.generate(task, 0, lang)
    module = lower_program(sf.program, name=sf.identifier)
    optimize(module, opt)
    return module


@pytest.fixture(scope="module")
def module():
    return _module()


@pytest.fixture(scope="module")
def clean_graph(module):
    return build_graph(module, name="g")


@pytest.fixture(scope="module")
def dataflow_graph(module):
    return build_graph(module, name="g", dataflow=True)


class TestBuild:
    def test_extended_relations_present(self, dataflow_graph):
        assert set(dataflow_graph.edges) == set(EXTENDED_RELATIONS)
        assert dataflow_graph.edge_count(DATAFLOW) > 0
        assert dataflow_graph.edge_count(CALLSUMMARY) > 0

    def test_base_relations_byte_identical(self, clean_graph, dataflow_graph):
        for rel in RELATIONS:
            assert np.array_equal(clean_graph.edges[rel], dataflow_graph.edges[rel])
            assert np.array_equal(
                clean_graph.positions[rel], dataflow_graph.positions[rel]
            )
        # Summary nodes append after the clean node list — the prefix is
        # untouched, so base edges index the same nodes in both graphs.
        n = clean_graph.num_nodes
        assert dataflow_graph.node_texts[:n] == clean_graph.node_texts
        assert dataflow_graph.node_types[:n] == clean_graph.node_types

    def test_dataflow_edge_count_matches_chains(self, module, dataflow_graph):
        expected = sum(
            len(DefUseChains.build(fn).cross_block_pairs())
            for fn in module.defined_functions()
        )
        assert dataflow_graph.edge_count(DATAFLOW) == expected

    def test_summary_nodes_typed_and_targeted(self, dataflow_graph):
        summary_ids = {
            i for i, t in enumerate(dataflow_graph.node_types) if t == NODE_SUMMARY
        }
        assert summary_ids
        dsts = dataflow_graph.edges[CALLSUMMARY][1]
        assert set(dsts.tolist()) <= summary_ids
        # Each summary node carries the interprocedural facts as text.
        for i in summary_ids:
            assert dataflow_graph.node_full_texts[i].startswith("summary @")

    def test_clean_graph_unchanged_without_flag(self, clean_graph):
        assert set(clean_graph.edges) == set(RELATIONS)
        assert NODE_SUMMARY not in clean_graph.node_types


class TestSerialize:
    def test_round_trip_exact(self, dataflow_graph):
        back = graph_from_arrays(graph_to_arrays(dataflow_graph))
        assert back.node_texts == dataflow_graph.node_texts
        assert back.node_types == dataflow_graph.node_types
        assert set(back.edges) == set(dataflow_graph.edges)
        for rel in dataflow_graph.edges:
            assert np.array_equal(back.edges[rel], dataflow_graph.edges[rel])
            assert np.array_equal(back.positions[rel], dataflow_graph.positions[rel])

    def test_cross_process_bytes_identical(self):
        script = (
            "import hashlib\n"
            "from repro.graphs.programl import CALLSUMMARY, DATAFLOW, build_graph\n"
            "from repro.ir.lowering import lower_program\n"
            "from repro.ir.passes import optimize\n"
            "from repro.lang.generator import SolutionGenerator\n"
            "sf = SolutionGenerator(seed=5, independent=True).generate('gcd', 0, 'c')\n"
            "m = lower_program(sf.program, name=sf.identifier)\n"
            "optimize(m, 'O2')\n"
            "g = build_graph(m, name='g', dataflow=True)\n"
            "h = hashlib.sha256()\n"
            "for rel in (DATAFLOW, CALLSUMMARY):\n"
            "    h.update(g.edges[rel].tobytes() + g.positions[rel].tobytes())\n"
            "h.update('|'.join(g.node_full_texts).encode())\n"
            "print(h.hexdigest())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONHASHSEED"] = "random"

        def digest():
            return subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            ).stdout.strip()

        assert digest() == digest()


class TestBatching:
    def test_batch_relations_base_first(self, clean_graph, dataflow_graph):
        rels = batch_relations([clean_graph, dataflow_graph])
        assert rels[: len(RELATIONS)] == list(RELATIONS)
        assert set(rels) == set(EXTENDED_RELATIONS)

    def test_mixed_batch_zero_fills(self, clean_graph, dataflow_graph):
        batch = batch_graphs([clean_graph, dataflow_graph])
        assert batch.edges[DATAFLOW].shape[1] == dataflow_graph.edge_count(DATAFLOW)

    def test_extended_model_forward(self, dataflow_graph):
        config = ModelConfig(
            embed_dim=16, hidden_dim=16, num_layers=1, max_vocab=64,
            relations=CFG_EXTENDED,
        )
        tok = train_tokenizer([dataflow_graph], max_vocab=64)
        model = GraphBinMatch(tok.vocab_size, config)
        batch = batch_graphs([dataflow_graph, dataflow_graph])
        scores = model.forward(batch, encode_nodes(tok, batch))
        assert scores.shape == (1,)
        assert 0.0 <= float(scores.data[0]) <= 1.0

    def test_extended_model_tolerates_base_batch(self, clean_graph):
        config = ModelConfig(
            embed_dim=16, hidden_dim=16, num_layers=1, max_vocab=64,
            relations=CFG_EXTENDED,
        )
        tok = train_tokenizer([clean_graph], max_vocab=64)
        model = GraphBinMatch(tok.vocab_size, config)
        batch = batch_graphs([clean_graph, clean_graph])
        scores = model.forward(batch, encode_nodes(tok, batch))
        assert scores.shape == (1,)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown graph relations"):
            GraphBinMatch(8, ModelConfig(relations=("control", "wormhole")))


class TestArtifactKeys:
    def _key(self, **kw):
        return ArtifactKey(
            task="gcd", variant=0, language="c", opt_level="O2",
            compiler="clang", source_id="s", **kw,
        )

    def test_graph_features_in_digest(self):
        assert self._key().digest != self._key(graph_features="dataflow").digest

    def test_unknown_graph_features_rejected(self):
        with pytest.raises(ValueError, match="graph_features"):
            self._key(graph_features="telepathy")

    def test_pipeline_rejects_mismatched_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pipeline = CompilationPipeline(store=store, dataflow_edges=True)
        sf = GEN.generate("gcd", 0, "c")
        with pytest.raises(ValueError, match="graph features"):
            pipeline.compile(
                sf.text, "c", name=sf.identifier, program=sf.program,
                cache_key=self._key(),  # key says base schema
            )

    def test_store_round_trip_preserves_edges(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pipeline = CompilationPipeline(store=store, dataflow_edges=True)
        sf = GEN.generate("gcd", 0, "c")
        key = self._key(graph_features="dataflow")
        first = pipeline.compile(
            sf.text, "c", name=sf.identifier, program=sf.program, cache_key=key,
        )
        warm = CompilationPipeline(store=store, dataflow_edges=True)
        second = warm.compile(
            sf.text, "c", name=sf.identifier, program=sf.program, cache_key=key,
        )
        for graph_a, graph_b in (
            (first.source_graph, second.source_graph),
            (first.decompiled_graph, second.decompiled_graph),
        ):
            assert set(graph_a.edges) == set(graph_b.edges)
            for rel in graph_a.edges:
                assert np.array_equal(graph_a.edges[rel], graph_b.edges[rel])
                assert np.array_equal(graph_a.positions[rel], graph_b.positions[rel])

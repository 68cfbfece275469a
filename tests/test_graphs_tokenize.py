"""Tests for ProGraML-style graph construction, batching, and the tokenizer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node_features import node_strings
from repro.core.pipeline import compile_to_views
from repro.graphs.batch import batch_graphs
from repro.graphs.programl import (
    CALL,
    CONTROL,
    DATA,
    NODE_CONSTANT,
    NODE_INSTRUCTION,
    NODE_VARIABLE,
    build_graph,
)
from repro.ir.lowering import lower_program
from repro.lang.generator import SolutionGenerator
from repro.lang.minic import parse_minic
from repro.tokenize.tokenizer import PAD, UNK, IRTokenizer, normalize_ir_text

GEN = SolutionGenerator(seed=5)


def _graph(src="int f(int x) { return x + 1; } int main() { printf(\"%d\\n\", f(2)); return 0; }"):
    return build_graph(lower_program(parse_minic(src)))


def _graph_texts():
    """Node strings of a few decompiled programs (SSA names everywhere)."""
    texts = []
    for task in ("gcd", "sum_array", "binary_search"):
        sf = GEN.generate(task, 0, "c")
        texts += node_strings(compile_to_views(sf.text, "c", name=sf.identifier).decompiled_graph)
    return texts


class TestGraphConstruction:
    def test_has_three_node_types(self):
        g = _graph()
        types = set(g.node_types)
        assert NODE_INSTRUCTION in types
        assert NODE_VARIABLE in types
        assert NODE_CONSTANT in types

    def test_has_three_relations(self):
        g = _graph()
        assert set(g.edges) == {CONTROL, DATA, CALL}
        assert g.edge_count(CONTROL) > 0
        assert g.edge_count(DATA) > 0
        assert g.edge_count(CALL) > 0

    def test_edge_indices_in_range(self):
        g = _graph()
        for rel, e in g.edges.items():
            if e.shape[1]:
                assert e.min() >= 0 and e.max() < g.num_nodes

    def test_positions_match_edges(self):
        g = _graph()
        for rel in g.edges:
            assert g.positions[rel].shape[0] == g.edges[rel].shape[1]

    def test_full_text_is_instruction_text(self):
        g = _graph()
        instr_fulls = [
            f for f, t in zip(g.node_full_texts, g.node_types) if t == NODE_INSTRUCTION
        ]
        assert any("add i32" in f for f in instr_fulls)

    def test_text_is_opcode(self):
        g = _graph()
        instr_texts = [
            t for t, ty in zip(g.node_texts, g.node_types) if ty == NODE_INSTRUCTION
        ]
        assert "add" in instr_texts
        assert "ret" in instr_texts

    def test_call_edge_to_callee_entry(self):
        g = _graph()
        assert g.edge_count(CALL) >= 2  # call->entry and ret->call

    def test_constants_are_shared(self):
        src = "int f() { return 7 + 7; }"
        g = _graph(src)
        const_fulls = [
            f for f, t in zip(g.node_full_texts, g.node_types) if t == NODE_CONSTANT
        ]
        assert const_fulls.count("i32 7") == 1

    def test_external_declaration_node(self):
        sf = GEN.generate("sum_array", 0, "java")
        g = build_graph(lower_program(sf.program))
        assert any("declare" in f for f in g.node_full_texts)

    def test_branch_positions_distinguish_targets(self):
        src = "int f(int x) { if (x > 0) { return 1; } return 0; }"
        g = _graph(src)
        ctrl_pos = g.positions[CONTROL]
        assert 1 in ctrl_pos  # the false edge of the condbr

    def test_java_graph_bigger_than_c(self):
        c = build_graph(lower_program(GEN.generate("sum_array", 0, "c").program))
        j = build_graph(lower_program(GEN.generate("sum_array", 0, "java").program))
        assert j.num_nodes > c.num_nodes  # the paper's Figure 4 asymmetry


class TestBatching:
    def test_batch_offsets(self):
        g1, g2 = _graph(), _graph("int g() { return 2; }")
        b = batch_graphs([g1, g2])
        assert b.num_nodes == g1.num_nodes + g2.num_nodes
        assert b.num_graphs == 2
        # second graph's edges shifted past first graph's nodes
        e2 = b.edges[CONTROL][:, g1.edge_count(CONTROL):]
        if e2.size:
            assert e2.min() >= g1.num_nodes

    def test_graph_ids(self):
        g1, g2 = _graph(), _graph("int g() { return 2; }")
        b = batch_graphs([g1, g2])
        assert (b.graph_ids[: g1.num_nodes] == 0).all()
        assert (b.graph_ids[g1.num_nodes :] == 1).all()

    def test_single_graph_batch(self):
        g = _graph()
        b = batch_graphs([g])
        assert b.num_nodes == g.num_nodes
        np.testing.assert_array_equal(b.edges[DATA], g.edges[DATA])


class TestTokenizer:
    def test_var_normalization(self):
        assert "[VAR]" in normalize_ir_text("%5 = add i32 %x, 3")
        assert "%5" not in normalize_ir_text("%5 = add i32 %x, 3")

    def test_label_normalization(self):
        out = normalize_ir_text("br label %bb3")
        assert "[LBL]" in out

    def test_train_builds_vocab(self):
        tok = IRTokenizer(max_vocab=64).train(["add i32", "sub i32", "mul i64"])
        assert tok.vocab_size <= 64
        assert "add" in tok.vocab and "i32" in tok.vocab

    def test_vocab_cap_respected(self):
        texts = [f"op{i} i32" for i in range(5000)]
        tok = IRTokenizer(max_vocab=128).train(texts)
        assert tok.vocab_size == 128

    def test_truncation_power_of_two(self):
        tok = IRTokenizer().train(["a b c d e", "a b c"])
        assert tok.truncation_length in (4, 8)  # mean 4 → 4

    def test_encode_unknown_maps_to_unk(self):
        tok = IRTokenizer(max_vocab=16).train(["add i32"])
        ids = tok.encode("frobnicate")
        assert ids == [tok.vocab[UNK]]

    def test_encode_batch_padding(self):
        tok = IRTokenizer().train(["add i32 i32 i32 add add add add"])
        out = tok.encode_batch(["add", "add i32 i32"], length=4)
        assert out.shape == (2, 4)
        assert out[0, 1] == tok.vocab[PAD]

    def test_encode_batch_truncates(self):
        tok = IRTokenizer().train(["a b"])
        out = tok.encode_batch(["a " * 50], length=4)
        assert out.shape[1] == 4

    def test_encode_unique_dedupes_token_rows_not_texts(self):
        tok = IRTokenizer().train(["%1 = add i32 %x, 1", "ret i32 %1", "a b c d e"])
        texts = [
            "%1 = add i32 %x, 1",
            "%2 = add i32 %y, 1",  # same row once SSA names normalize
            "ret i32 %1",
            "%1 = add i32 %x, 1",
            "ret i32 %7",
            "a b c d e",
            "a b c d f",  # differs only past the truncation length
        ]
        mat, inverse = tok.encode_unique(texts, length=4)
        assert mat.shape == (3, 4)
        assert list(inverse) == [0, 0, 1, 0, 1, 2, 2]
        assert len({tuple(row) for row in mat}) == mat.shape[0]

    def test_encode_unique_reconstructs_the_dense_matrix(self):
        texts = _graph_texts()
        tok = IRTokenizer().train(texts)
        mat, inverse = tok.encode_unique(texts)
        dense = np.zeros((len(texts), tok.truncation_length), dtype=np.int64)
        for i, text in enumerate(texts):
            ids = tok.encode(text)[: tok.truncation_length]
            dense[i, : len(ids)] = ids
        np.testing.assert_array_equal(mat[inverse], dense)
        np.testing.assert_array_equal(tok.encode_batch(texts), dense)
        assert mat.shape[0] == len({tuple(row) for row in dense})
        assert mat.shape[0] < len(set(texts))

    def test_state_roundtrip(self):
        tok = IRTokenizer(max_vocab=32).train(["add i32 %1, %2"])
        tok2 = IRTokenizer.from_state(tok.state())
        assert tok2.encode("add i32") == tok.encode("add i32")
        assert tok2.truncation_length == tok.truncation_length

    @settings(max_examples=20, deadline=None)
    @given(st.text(alphabet="abc %123=,", min_size=0, max_size=40))
    def test_property_encode_never_crashes(self, text):
        tok = IRTokenizer(max_vocab=32).train(["add i32 %1"])
        ids = tok.encode(text)
        assert all(0 <= i < tok.vocab_size for i in ids)

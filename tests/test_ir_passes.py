"""Tests for the optimization passes: correctness (semantics preserved at
every level, verified against the AST oracle) and effect (each pass does
what its name says)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.analysis.cfg import DominatorTree
from repro.ir.interp import run_module
from repro.ir.lowering import lower_program
from repro.ir.passes import (
    OPT_LEVELS,
    constant_fold,
    dead_code_elimination,
    inline_functions,
    instcombine,
    mem2reg,
    optimize,
    peel_loops,
    simplify_cfg,
)
from repro.ir.passes.peel import find_natural_loops
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.lang.generator import LANGUAGES, SolutionGenerator
from repro.lang.interp import interpret
from repro.lang.minic import parse_minic
from repro.lang.tasks import TASK_REGISTRY

GEN = SolutionGenerator(seed=303)


def _mod(src):
    return lower_program(parse_minic(src))


SUM_SRC = (
    "int total(int* a, int n) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } return s; } "
    'int main() { int a[] = {4, 7, 1}; printf("%d\\n", total(a, 3)); return 0; }'
)


class TestMem2Reg:
    def test_promotes_allocas(self):
        mod = _mod("int f(int x) { int y = x + 1; return y * 2; }")
        before = sum(1 for i in mod.get("f").instructions() if i.opcode == "alloca")
        assert before >= 2
        mem2reg(mod)
        after = sum(1 for i in mod.get("f").instructions() if i.opcode == "alloca")
        assert after == 0
        verify_module(mod)

    def test_loop_gets_phi(self):
        mod = _mod("int f(int n) { int s = 0; int i = 0; while (i < n) { s += i; i++; } return s; }")
        mem2reg(mod)
        verify_module(mod)
        assert any(i.opcode == "phi" for i in mod.get("f").instructions())

    def test_semantics_preserved(self):
        mod = _mod(SUM_SRC)
        expected = run_module(mod)
        mem2reg(mod)
        verify_module(mod)
        assert run_module(mod) == expected

    def test_array_allocas_not_promoted(self):
        mod = _mod("int f() { int a[3]; a[0] = 5; return a[0]; }")
        mem2reg(mod)
        # the sized alloca must survive (it is memory, not a scalar)
        assert any(
            i.opcode == "alloca" and i.operands for i in mod.get("f").instructions()
        )
        assert run_module(mod, "f") == []

    def test_if_merge_phi(self):
        src = "int f(int x) { int r = 0; if (x > 0) { r = 1; } else { r = 2; } return r; }"
        mod = _mod(src)
        mem2reg(mod)
        verify_module(mod)
        phis = [i for i in mod.get("f").instructions() if i.opcode == "phi"]
        assert len(phis) >= 1


class TestConstFold:
    def test_folds_arithmetic(self):
        mod = _mod("int f() { return (2 + 3) * 4; }")
        mem2reg(mod)
        n = constant_fold(mod)
        assert n >= 2
        text = print_module(mod)
        assert "ret i32 20" in text

    def test_preserves_division_trap(self):
        mod = _mod("int f() { int z = 0; return 5 / z; }")
        mem2reg(mod)
        constant_fold(mod)
        assert any(i.opcode == "sdiv" for i in mod.get("f").instructions())

    def test_folds_icmp(self):
        mod = _mod("int f() { if (3 < 5) { return 1; } return 0; }")
        mem2reg(mod)
        constant_fold(mod)
        assert not any(i.opcode == "icmp" for i in mod.get("f").instructions())


class TestInstCombine:
    def test_add_zero(self):
        mod = _mod("int f(int x) { return x + 0; }")
        mem2reg(mod)
        assert instcombine(mod) >= 1
        assert not any(i.opcode == "add" for i in mod.get("f").instructions())

    def test_mul_one(self):
        mod = _mod("int f(int x) { return x * 1; }")
        mem2reg(mod)
        instcombine(mod)
        assert not any(i.opcode == "mul" for i in mod.get("f").instructions())

    def test_mul_zero_constant(self):
        mod = _mod("int f(int x) { return x * 0; }")
        mem2reg(mod)
        instcombine(mod)
        assert "ret i32 0" in print_module(mod)

    def test_double_negation(self):
        mod = _mod("int f(int x) { return -(-x); }")
        mem2reg(mod)
        instcombine(mod)
        dead_code_elimination(mod)  # the inner sub is now unused
        fn = mod.get("f")
        assert not any(i.opcode == "sub" for i in fn.instructions())


class TestDCE:
    def test_removes_unused(self):
        mod = _mod("int f(int x) { int unused = x * 99; return x; }")
        mem2reg(mod)
        removed = dead_code_elimination(mod)
        assert removed >= 1
        assert not any(i.opcode == "mul" for i in mod.get("f").instructions())

    def test_keeps_calls(self):
        mod = _mod("int g() { return 1; } int f() { g(); return 0; }")
        mem2reg(mod)
        dead_code_elimination(mod)
        assert any(i.opcode == "call" for i in mod.get("f").instructions())

    def test_keeps_stores(self):
        mod = _mod("int f(int* a) { a[0] = 9; return 0; }")
        dead_code_elimination(mod)
        assert any(i.opcode == "store" for i in mod.get("f").instructions())


class TestSimplifyCFG:
    def test_constant_branch_folded(self):
        mod = _mod("int f() { if (1 > 0) { return 7; } return 8; }")
        mem2reg(mod)
        constant_fold(mod)
        simplify_cfg(mod)
        fn = mod.get("f")
        assert not any(i.opcode == "condbr" for i in fn.instructions())
        assert run_module(mod, "f") == []

    def test_unreachable_removed(self):
        mod = _mod("int f() { if (0) { return 1; } return 2; }")
        mem2reg(mod)
        constant_fold(mod)
        before = len(mod.get("f").blocks)
        simplify_cfg(mod)
        assert len(mod.get("f").blocks) < before
        verify_module(mod)

    def test_straight_line_merged(self):
        mod = _mod("int f(int x) { int y = x + 1; int z = y * 2; return z; }")
        mem2reg(mod)
        simplify_cfg(mod)
        assert len(mod.get("f").blocks) == 1


class TestInline:
    def test_small_callee_inlined(self):
        mod = _mod(
            "int sq(int x) { return x * x; } "
            'int main() { printf("%d\\n", sq(6)); return 0; }'
        )
        expected = run_module(mod)
        n = inline_functions(mod, max_callee_size=40)
        assert n >= 1
        verify_module(mod)
        assert run_module(mod) == expected
        callees = [
            i.extra["callee"]
            for i in mod.get("main").instructions()
            if i.opcode == "call"
        ]
        assert "sq" not in callees

    def test_multi_return_callee(self):
        src = (
            "int pick(int x) { if (x > 0) { return 10; } return 20; } "
            'int main() { printf("%d\\n", pick(1)); printf("%d\\n", pick(-1)); return 0; }'
        )
        mod = _mod(src)
        expected = run_module(mod)
        inline_functions(mod, max_callee_size=40)
        verify_module(mod)
        assert run_module(mod) == expected

    def test_threshold_respected(self):
        mod = _mod(SUM_SRC)
        inline_functions(mod, max_callee_size=1)
        callees = [
            i.extra["callee"]
            for i in mod.get("main").instructions()
            if i.opcode == "call"
        ]
        assert "total" in callees

    def test_recursive_not_inlined(self):
        src = (
            "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } "
            'int main() { printf("%d\\n", fact(5)); return 0; }'
        )
        mod = _mod(src)
        inline_functions(mod, max_callee_size=100)
        assert run_module(mod) == [120]


class TestPeel:
    def test_dominators_entry(self):
        mod = _mod(SUM_SRC)
        fn = mod.get("total")
        dom = DominatorTree(fn)
        for blk in fn.blocks:
            if dom.reachable(blk):
                assert dom.dominates(fn.entry, blk)

    def test_finds_loop(self):
        mod = _mod(SUM_SRC)
        loops = find_natural_loops(mod.get("total"))
        assert len(loops) == 1

    def test_peel_preserves_semantics(self):
        mod = _mod(SUM_SRC)
        expected = run_module(mod)
        n = peel_loops(mod)
        assert n >= 1
        verify_module(mod)
        assert run_module(mod) == expected

    def test_peel_grows_cfg(self):
        mod = _mod(SUM_SRC)
        before = len(mod.get("total").blocks)
        peel_loops(mod)
        assert len(mod.get("total").blocks) > before

    def test_nested_loops(self):
        src = (
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { "
            "for (int j = 0; j < i; j++) { s += j; } } return s; } "
            'int main() { printf("%d\\n", f(6)); return 0; }'
        )
        mod = _mod(src)
        expected = run_module(mod)
        peel_loops(mod)
        verify_module(mod)
        assert run_module(mod) == expected


class TestPipelines:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            optimize(_mod(SUM_SRC), "O9")

    @pytest.mark.parametrize("level", sorted(OPT_LEVELS))
    def test_all_levels_verify_and_preserve(self, level):
        mod = _mod(SUM_SRC)
        expected = run_module(mod)
        optimize(mod, level)
        verify_module(mod)
        assert run_module(mod) == expected

    def test_o1_shrinks_code(self):
        base = _mod(SUM_SRC)
        opt = optimize(_mod(SUM_SRC), "O1")
        assert opt.size() < base.size()

    def test_o3_restructures_more_than_o1(self):
        o1 = optimize(_mod(SUM_SRC), "O1")
        o3 = optimize(_mod(SUM_SRC), "O3")
        o1_blocks = sum(len(f.blocks) for f in o1.defined_functions())
        o3_blocks = sum(len(f.blocks) for f in o3.defined_functions())
        assert o3_blocks != o1_blocks  # peeling + inlining changed the CFG

    @pytest.mark.parametrize("level", ["O1", "O2", "O3", "Oz"])
    @pytest.mark.parametrize("task", sorted(TASK_REGISTRY)[::3])
    def test_corpus_semantics_all_levels(self, level, task):
        for lang in LANGUAGES:
            sf = GEN.generate(task, 0, lang)
            expected = interpret(sf.program)
            mod = lower_program(sf.program, name=sf.identifier)
            optimize(mod, level)
            verify_module(mod)
            assert run_module(mod) == expected, f"{sf.identifier} @ {level}"

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=3000),
        level=st.sampled_from(["O1", "O2", "O3", "Oz"]),
    )
    def test_property_random_program_all_levels(self, seed, level):
        gen = SolutionGenerator(seed=seed)
        names = sorted(TASK_REGISTRY)
        task = names[seed % len(names)]
        lang = LANGUAGES[seed % 3]
        sf = gen.generate(task, seed % 5, lang)
        mod = lower_program(sf.program)
        optimize(mod, level)
        verify_module(mod)
        assert run_module(mod) == interpret(sf.program)

"""Tests: AST→IR lowering for all three front-ends, IR interpreter parity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.interp import IRInterpError, run_module
from repro.ir.lowering import (
    CXX_PRINT,
    JAVA_ARRAYLENGTH,
    JAVA_NEWARRAY,
    JAVA_THROW_OOB,
    MANGLED_SORT,
    lower_program,
)
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.lang.generator import LANGUAGES, SolutionGenerator
from repro.lang.interp import interpret
from repro.lang.minic import parse_minic
from repro.lang.minijava import parse_minijava
from repro.lang.tasks import TASK_REGISTRY

GEN = SolutionGenerator(seed=77)


def _lower_c(src):
    return lower_program(parse_minic(src))


def _callees(module):
    """Callee names of every call instruction in the module's bodies."""
    return [
        instr.extra["callee"]
        for fn in module.defined_functions()
        for instr in fn.instructions()
        if instr.opcode == "call"
    ]


class TestBasicLowering:
    def test_simple_return(self):
        mod = _lower_c("int f() { return 7; }")
        verify_module(mod)
        assert run_module(mod, "f") == []  # nothing printed

    def test_arith_module_runs(self):
        mod = _lower_c('int main() { printf("%d\\n", (2 + 3) * 4); return 0; }')
        verify_module(mod)
        run = run_module(mod)
        assert run == [20]

    def test_if_else(self):
        src = 'int main() { int x = 5; if (x > 3) { printf("%d\\n", 1); } else { printf("%d\\n", 0); } return 0; }'
        assert run_module(_lower_c(src)) == [1]

    def test_while_loop(self):
        src = 'int main() { int i = 0; int s = 0; while (i < 5) { s += i; i++; } printf("%d\\n", s); return 0; }'
        assert run_module(_lower_c(src)) == [10]

    def test_for_with_break_continue(self):
        src = (
            "int main() { int s = 0; for (int i = 0; i < 10; i++) { "
            "if (i == 3) { continue; } if (i == 6) { break; } s += i; } "
            'printf("%d\\n", s); return 0; }'
        )
        assert run_module(_lower_c(src)) == [0 + 1 + 2 + 4 + 5]

    def test_short_circuit_via_phi(self):
        src = (
            "int main() { int a[] = {1}; int n = 1; "
            'if (n > 5 && a[5] > 0) { printf("%d\\n", 1); } else { printf("%d\\n", 0); } return 0; }'
        )
        # must not trap on a[5]
        assert run_module(_lower_c(src)) == [0]

    def test_nested_calls(self):
        src = (
            "int sq(int x) { return x * x; } "
            'int main() { printf("%d\\n", sq(sq(2))); return 0; }'
        )
        assert run_module(_lower_c(src)) == [16]

    def test_array_roundtrip(self):
        src = (
            "int main() { int a[4]; for (int i = 0; i < 4; i++) { a[i] = i * i; } "
            'printf("%d\\n", a[3]); return 0; }'
        )
        assert run_module(_lower_c(src)) == [9]

    def test_unary_not(self):
        src = 'int main() { int x = 0; printf("%d\\n", !x); return 0; }'
        assert run_module(_lower_c(src)) == [1]

    def test_negative_numbers(self):
        src = 'int main() { printf("%d\\n", -7 / 2); printf("%d\\n", -7 % 2); return 0; }'
        assert run_module(_lower_c(src)) == [-3, -1]

    def test_unreachable_code_dropped(self):
        mod = _lower_c("int f() { return 1; return 2; }")
        verify_module(mod)


class TestFrontEndDivergence:
    """The cross-language IR asymmetries the paper depends on."""

    def _modules(self, task="sum_array", variant=0):
        mods = {}
        for lang in LANGUAGES:
            sf = GEN.generate(task, variant, lang)
            mods[lang] = lower_program(sf.program, name=sf.identifier)
        return mods

    def test_all_verify(self):
        for mod in self._modules().values():
            verify_module(mod)

    def test_java_ir_larger_than_c(self):
        mods = self._modules()
        # bounds checks + runtime calls make Java IR bigger
        assert mods["java"].size() > mods["c"].size()

    def test_java_uses_runtime_calls(self):
        mods = self._modules()
        callees = set(_callees(mods["java"]))
        assert JAVA_ARRAYLENGTH in callees or JAVA_NEWARRAY in callees

    def test_java_has_throw_blocks(self):
        mods = self._modules()
        text = print_module(mods["java"])
        assert JAVA_THROW_OOB in text
        assert "unreachable" in text

    def test_cpp_instantiates_sort_template(self):
        sf = GEN.generate("sort_median", 1, "cpp")
        # ensure this variant uses std::sort (otherwise find one that does)
        for variant in range(8):
            sf = GEN.generate("sort_median", variant, "cpp")
            if "std::sort" in sf.text:
                break
        else:
            pytest.skip("no std::sort variant found in 8 tries")
        mod = lower_program(sf.program)
        assert mod.has(MANGLED_SORT)
        assert not mod.get(MANGLED_SORT).is_declaration  # body present!

    def test_java_sort_stays_external(self):
        for variant in range(8):
            sf = GEN.generate("sort_median", variant, "java")
            if "Arrays.sort" in sf.text:
                break
        else:
            pytest.skip("no Arrays.sort variant found")
        mod = lower_program(sf.program)
        assert mod.get("java.util.Arrays.sort").is_declaration  # no body

    def test_print_callees_differ_by_language(self):
        mods = self._modules()
        assert "printf" in _callees(mods["c"])
        assert CXX_PRINT in _callees(mods["cpp"])
        assert "java.io.PrintStream.println" in _callees(mods["java"])


class TestPrinter:
    def test_module_text_shape(self):
        mod = _lower_c("int f(int x) { return x + 1; }")
        text = print_module(mod)
        assert "define i32 @f(i32 %x)" in text
        assert "add i32" in text
        assert "ret i32" in text

    def test_declaration_printed(self):
        sf = GEN.generate("sum_array", 0, "java")
        text = print_module(lower_program(sf.program))
        assert "declare" in text

    def test_icmp_text(self):
        mod = _lower_c("int f(int x) { if (x < 3) { return 1; } return 0; }")
        assert "icmp slt i32" in print_module(mod)

    def test_phi_text(self):
        src = "int f(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }"
        assert "phi i1" in print_module(_lower_c(src))


class TestSemanticParity:
    """AST interpreter and IR interpreter agree for the whole corpus."""

    @pytest.mark.parametrize("task", sorted(TASK_REGISTRY))
    def test_ast_vs_ir_all_languages(self, task):
        for variant in range(2):
            for lang in LANGUAGES:
                sf = GEN.generate(task, variant, lang)
                expected = interpret(sf.program)
                mod = lower_program(sf.program, name=sf.identifier)
                verify_module(mod)
                assert run_module(mod) == expected, f"{sf.identifier}"

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_property_random_programs_match(self, seed):
        gen = SolutionGenerator(seed=seed)
        names = sorted(TASK_REGISTRY)
        task = names[seed % len(names)]
        lang = LANGUAGES[seed % 3]
        sf = gen.generate(task, seed % 7, lang)
        assert run_module(lower_program(sf.program)) == interpret(sf.program)


class TestIRInterpreterTraps:
    def test_oob_load_traps(self):
        src = "int main() { int a[2]; return a[9]; }"
        with pytest.raises(IRInterpError):
            run_module(_lower_c(src))

    def test_java_bounds_check_throws(self):
        src = (
            "public class Main { public static void main(String[] args) { "
            "int[] a = new int[2]; System.out.println(a[5]); } }"
        )
        mod = lower_program(parse_minijava(src))
        with pytest.raises(IRInterpError, match="OutOfBounds|unreachable"):
            run_module(mod)

    def test_division_by_zero_traps(self):
        src = "int main() { int z = 0; return 5 / z; }"
        with pytest.raises(IRInterpError):
            run_module(_lower_c(src))

    def test_step_budget(self):
        from repro.ir.interp import IRInterpreter

        src = "int main() { while (1) { } return 0; }"
        mod = _lower_c(src)
        with pytest.raises(IRInterpError, match="step budget"):
            IRInterpreter(mod, max_steps=500).run()

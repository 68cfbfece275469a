"""Tests for the language substrate: lexer, parsers, renderers, interpreter,
and the cross-language semantic-equivalence property of the generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast
from repro.lang.generator import LANGUAGES, SolutionGenerator
from repro.lang.interp import Interpreter, InterpreterError, interpret, trunc_div, trunc_mod, wrap64
from repro.lang.lexer import LexError, tokenize
from repro.lang.minic import parse_minic
from repro.lang.minicpp import parse_minicpp
from repro.lang.minijava import parse_minijava
from repro.lang.parser_base import ParseError
from repro.lang.tasks import TASK_REGISTRY


class TestLexer:
    def test_simple_tokens(self):
        toks = tokenize("int x = 42;")
        assert [t.kind for t in toks] == ["kw", "id", "op", "num", "op", "eof"]

    def test_two_char_operators(self):
        toks = tokenize("a <= b && c != d")
        ops = [t.value for t in toks if t.kind == "op"]
        assert ops == ["<=", "&&", "!="]

    def test_comments_skipped(self):
        toks = tokenize("x // line\n/* block\nmore */ y")
        ids = [t.value for t in toks if t.kind == "id"]
        assert ids == ["x", "y"]

    def test_preprocessor_skipped(self):
        toks = tokenize("#include <stdio.h>\nint")
        assert toks[0].value == "int"

    def test_string_literal(self):
        toks = tokenize('"%d\\n"')
        assert toks[0].kind == "str"

    def test_line_numbers(self):
        toks = tokenize("a\nb\nc")
        assert [t.line for t in toks[:3]] == [1, 2, 3]

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_long_suffix(self):
        toks = tokenize("100L")
        assert toks[0].kind == "num"


class TestMiniCParser:
    def test_function_roundtrip(self):
        src = "int addOne(int x) {\n    return x + 1;\n}\n"
        prog = parse_minic(src)
        assert prog.functions[0].name == "addOne"
        assert isinstance(prog.functions[0].body.statements[0], ast.Return)

    def test_array_param(self):
        prog = parse_minic("int f(int* a, int n) { return a[0]; }")
        assert isinstance(prog.functions[0].params[0].type, ast.ArrayType)

    def test_array_bracket_param(self):
        prog = parse_minic("int f(int a[], int n) { return a[n - 1]; }")
        assert isinstance(prog.functions[0].params[0].type, ast.ArrayType)

    def test_local_array_with_size(self):
        prog = parse_minic("int f() { int a[10]; a[0] = 1; return a[0]; }")
        d = prog.functions[0].body.statements[0]
        assert isinstance(d.init, ast.NewArray)

    def test_brace_initializer(self):
        prog = parse_minic("int f() { int a[] = {1, 2, 3}; return a[1]; }")
        d = prog.functions[0].body.statements[0]
        assert isinstance(d.init, ast.ArrayLit)
        assert len(d.init.elements) == 3

    def test_printf_becomes_print(self):
        prog = parse_minic('int main() { printf("%d\\n", 7); return 0; }')
        assert isinstance(prog.functions[0].body.statements[0], ast.Print)

    def test_for_loop(self):
        prog = parse_minic("int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }")
        loop = prog.functions[0].body.statements[1]
        assert isinstance(loop, ast.For)
        # i++ desugars to i = i + 1
        assert isinstance(loop.step, ast.Assign)

    def test_augmented_assignment_desugars(self):
        prog = parse_minic("int f(int x) { x += 5; return x; }")
        a = prog.functions[0].body.statements[0]
        assert isinstance(a.value, ast.BinOp) and a.value.op == "+"

    def test_else_if_chain(self):
        prog = parse_minic(
            "int f(int x) { if (x > 0) { return 1; } else if (x < 0) { return -1; } else { return 0; } }"
        )
        outer = prog.functions[0].body.statements[0]
        assert isinstance(outer.otherwise.statements[0], ast.If)

    def test_static_helper_parsed(self):
        prog = parse_minic("static int helper(int a) { return a; } int main() { return helper(1); }")
        assert [f.name for f in prog.functions] == ["helper", "main"]

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_minic("int f() {\nreturn + ; }")

    def test_operator_precedence(self):
        prog = parse_minic("int f() { return 1 + 2 * 3; }")
        expr = prog.functions[0].body.statements[0].value
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_while_break_continue(self):
        prog = parse_minic(
            "int f(int n) { while (1) { if (n > 5) { break; } n++; continue; } return n; }"
        )
        body = prog.functions[0].body.statements[0].body
        assert any(isinstance(s, ast.Continue) for s in body.statements)


class TestMiniCppParser:
    def test_std_sort_canonicalized(self):
        prog = parse_minicpp(
            "void f(int* a, int n) { std::sort(a, a + n); }"
        )
        stmt = prog.functions[0].body.statements[0]
        assert isinstance(stmt.expr, ast.Call) and stmt.expr.name == "sort"
        assert len(stmt.expr.args) == 2

    def test_unqualified_sort_with_using_namespace(self):
        prog = parse_minicpp(
            "using namespace std;\nvoid f(int* a, int n) { sort(a, a + n); }"
        )
        assert prog.functions[0].body.statements[0].expr.name == "sort"

    def test_std_max(self):
        prog = parse_minicpp("int f(int a, int b) { return std::max(a, b); }")
        expr = prog.functions[0].body.statements[0].value
        assert expr.name == "max"

    def test_cout_becomes_print(self):
        prog = parse_minicpp("int main() { std::cout << 5 << std::endl; return 0; }")
        assert isinstance(prog.functions[0].body.statements[0], ast.Print)

    def test_cout_unqualified(self):
        prog = parse_minicpp("using namespace std;\nint main() { cout << 5 << endl; return 0; }")
        assert isinstance(prog.functions[0].body.statements[0], ast.Print)

    def test_bad_sort_iterators_rejected(self):
        with pytest.raises(ParseError):
            parse_minicpp("void f(int* a, int* b, int n) { std::sort(a, b + n); }")


class TestMiniJavaParser:
    SRC = (
        "import java.util.Arrays;\n"
        "public class Main {\n"
        "    static int f(int[] a) {\n"
        "        return a.length;\n"
        "    }\n"
        "    public static void main(String[] args) {\n"
        "        int[] a = {1, 2, 3};\n"
        "        System.out.println(f(a));\n"
        "    }\n"
        "}\n"
    )

    def test_class_wrapper(self):
        prog = parse_minijava(self.SRC)
        assert [f.name for f in prog.functions] == ["f", "main"]

    def test_length_becomes_len(self):
        prog = parse_minijava(self.SRC)
        expr = prog.functions[0].body.statements[0].value
        assert isinstance(expr, ast.Call) and expr.name == "len"

    def test_main_has_no_params(self):
        prog = parse_minijava(self.SRC)
        assert prog.function("main").params == []

    def test_new_array(self):
        prog = parse_minijava(
            "public class Main { static int g() { int[] b = new int[5]; return b[0]; } }"
        )
        d = prog.functions[0].body.statements[0]
        assert isinstance(d.init, ast.NewArray)

    def test_math_max(self):
        prog = parse_minijava(
            "public class Main { static int g(int a, int b) { return Math.max(a, b); } }"
        )
        assert prog.functions[0].body.statements[0].value.name == "max"

    def test_arrays_sort_full(self):
        prog = parse_minijava(
            "public class Main { static void g(int[] a) { Arrays.sort(a); } }"
        )
        c = prog.functions[0].body.statements[0].expr
        assert c.name == "sort" and c.args[1].name == "len"

    def test_arrays_sort_range(self):
        prog = parse_minijava(
            "public class Main { static void g(int[] a, int n) { Arrays.sort(a, 0, n); } }"
        )
        c = prog.functions[0].body.statements[0].expr
        assert c.name == "sort" and isinstance(c.args[1], ast.Var)

    def test_boolean_type(self):
        prog = parse_minijava(
            "public class Main { static boolean g() { return true; } }"
        )
        assert prog.functions[0].return_type.name == "bool"


class TestInterpreter:
    def test_arith(self):
        prog = parse_minic('int main() { printf("%d\\n", 2 + 3 * 4); return 0; }')
        assert interpret(prog) == [14]

    def test_truncating_division(self):
        prog = parse_minic('int main() { printf("%d\\n", -7 / 2); return 0; }')
        assert interpret(prog) == [-3]

    def test_remainder_sign(self):
        prog = parse_minic('int main() { printf("%d\\n", -7 % 2); return 0; }')
        assert interpret(prog) == [-1]

    def test_while_loop(self):
        src = 'int main() { int i = 0; int s = 0; while (i < 5) { s += i; i++; } printf("%d\\n", s); return 0; }'
        assert interpret(parse_minic(src)) == [10]

    def test_function_call(self):
        src = "int sq(int x) { return x * x; } int main() { printf(\"%d\\n\", sq(9)); return 0; }"
        assert interpret(parse_minic(src)) == [81]

    def test_recursion_via_user_function(self):
        src = (
            "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } "
            'int main() { printf("%d\\n", fact(5)); return 0; }'
        )
        assert interpret(parse_minic(src)) == [120]

    def test_array_ops(self):
        src = 'int main() { int a[] = {3, 1, 2}; a[0] = a[1] + a[2]; printf("%d\\n", a[0]); return 0; }'
        assert interpret(parse_minic(src)) == [3]

    def test_out_of_bounds_raises(self):
        src = "int main() { int a[] = {1}; return a[5]; }"
        with pytest.raises(InterpreterError):
            interpret(parse_minic(src))

    def test_undefined_variable_raises(self):
        src = "int main() { return ghost; }"
        with pytest.raises(InterpreterError):
            interpret(parse_minic(src))

    def test_infinite_loop_guard(self):
        src = "int main() { while (1) { } return 0; }"
        with pytest.raises(InterpreterError, match="step budget"):
            Interpreter(parse_minic(src), max_steps=1000).run()

    def test_short_circuit_and(self):
        # a[5] would be out of bounds; && must not evaluate it
        src = "int main() { int a[] = {1}; int n = 1; if (n > 5 && a[5] > 0) { return 1; } return 0; }"
        interpret(parse_minic(src))  # should not raise

    def test_builtin_sort(self):
        src = (
            "public class Main { public static void main(String[] args) { "
            "int[] a = {3, 1, 2}; Arrays.sort(a); System.out.println(a[0]); } }"
        )
        assert interpret(parse_minijava(src)) == [1]

    def test_wrap64(self):
        assert wrap64(2**63) == -(2**63)
        assert wrap64(-(2**63) - 1) == 2**63 - 1

    def test_trunc_div_mod_identity(self):
        for a in (-17, -3, 0, 5, 23):
            for b in (-4, -1, 2, 7):
                assert trunc_div(a, b) * b + trunc_mod(a, b) == a


class TestGeneratorSemantics:
    """The load-bearing property: one (task, variant) is semantically
    identical across all three languages."""

    GEN = SolutionGenerator(seed=1234)

    @pytest.mark.parametrize("task", sorted(TASK_REGISTRY))
    def test_cross_language_equivalence(self, task):
        for variant in range(3):
            outputs = {}
            for lang in LANGUAGES:
                sf = self.GEN.generate(task, variant, lang)
                outputs[lang] = interpret(sf.program)
            assert outputs["c"] == outputs["cpp"] == outputs["java"], (
                f"{task} v{variant}: {outputs}"
            )

    @pytest.mark.parametrize("task", sorted(TASK_REGISTRY))
    def test_variants_parse_in_all_languages(self, task):
        for variant in range(3):
            for lang in LANGUAGES:
                sf = self.GEN.generate(task, variant, lang)
                assert sf.program.function("main") is not None
                assert len(sf.text) > 40

    def test_variants_structurally_differ(self):
        texts = {
            self.GEN.generate("sum_array", k, "c").text for k in range(6)
        }
        assert len(texts) >= 3  # naming/loop-style variation shows up

    def test_determinism(self):
        a = self.GEN.generate("gcd", 0, "java").text
        b = SolutionGenerator(seed=1234).generate("gcd", 0, "java").text
        assert a == b

    def test_different_seeds_differ(self):
        a = SolutionGenerator(seed=1).generate("sum_array", 0, "c").text
        b = SolutionGenerator(seed=2).generate("sum_array", 0, "c").text
        assert a != b

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError):
            self.GEN.generate("gcd", 0, "rust")

    def test_unknown_task_rejected(self):
        with pytest.raises(KeyError):
            self.GEN.generate("quantum_sort", 0, "c")

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        variant=st.integers(min_value=0, max_value=20),
    )
    def test_property_any_seed_equivalent(self, seed, variant):
        gen = SolutionGenerator(seed=seed)
        task = sorted(TASK_REGISTRY)[seed % len(TASK_REGISTRY)]
        outs = [interpret(gen.generate(task, variant, lang).program) for lang in LANGUAGES]
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0]) >= 1  # every program prints something


class TestLanguageRegistry:
    """One language registry: every layer reads it and rejects alike."""

    SUPPORTED = "supported: ['c', 'cpp', 'java']"

    def test_order_and_lowerers_match_registry(self):
        from repro.ir.lowering import LOWERERS

        assert LANGUAGES == ("c", "cpp", "java")
        assert set(LOWERERS) == set(LANGUAGES)

    def test_every_layer_rejects_unknown_language_alike(self):
        from repro.ir.lowering import lower_program
        from repro.pipeline import CompilationPipeline

        rejections = [
            lambda: SolutionGenerator().generate("gcd", 0, "rust"),
            lambda: CompilationPipeline().compile("fn main() {}", "rust"),
            lambda: CompilationPipeline().source_graph("fn main() {}", "rust"),
            lambda: lower_program(ast.Program([], language="rust")),
        ]
        for reject in rejections:
            with pytest.raises(ValueError) as exc:
                reject()
            assert str(exc.value) == f"unknown language 'rust'; {self.SUPPORTED}"

    @pytest.mark.parametrize("method", ["build", "build_parallel"])
    def test_corpus_builder_rejects_before_building(self, method, tmp_path):
        from repro.artifacts import ArtifactStore
        from repro.config import DataConfig
        from repro.data.corpus import CorpusBuilder

        store = ArtifactStore(tmp_path / "art")
        builder = CorpusBuilder(DataConfig(num_tasks=2, variants=1), store=store)
        with pytest.raises(ValueError, match=r"unknown language 'jav'; supported"):
            getattr(builder, method)(["c", "jav"])
        assert len(store) == 0

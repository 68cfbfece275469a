"""Tests for codegen, object encoding, the VM, and the decompiler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binary.codegen import CodegenError, compile_module
from repro.binary.decompiler import DecompileError, decompile, decompile_bytes
from repro.binary.isa import BinaryProgram, MachineInstr
from repro.binary.vm import VirtualMachine, VMError, run_binary
from repro.ir.lowering import lower_program
from repro.ir.passes import optimize
from repro.ir.verifier import verify_module
from repro.lang.generator import LANGUAGES, SolutionGenerator
from repro.lang.interp import interpret
from repro.lang.minic import parse_minic
from repro.lang.tasks import TASK_REGISTRY

GEN = SolutionGenerator(seed=99)


def _binary(src, level="O0", style="clang"):
    mod = lower_program(parse_minic(src))
    optimize(mod, level)
    return compile_module(mod, style=style)


class TestISA:
    def test_instruction_roundtrip(self):
        ins = MachineInstr("ADD", rd=3, rs=7, imm=-12345)
        assert MachineInstr.decode(ins.encode()) == ins

    def test_bad_opcode_rejected(self):
        with pytest.raises(ValueError):
            MachineInstr.decode(b"\xff\x00\x00\x00\x00\x00\x00\x00")

    def test_program_encode_decode(self):
        prog = _binary('int main() { printf("%d\\n", 42); return 0; }')
        restored = BinaryProgram.decode(prog.encode())
        assert [f.name for f in restored.functions] == [f.name for f in prog.functions]
        assert restored.externals == prog.externals
        assert len(restored.instructions) == len(prog.instructions)
        assert run_binary(restored) == [42]

    def test_magic_check(self):
        with pytest.raises(ValueError):
            BinaryProgram.decode(b"NOPE" + b"\x00" * 16)

    def test_size_bytes(self):
        prog = _binary("int main() { return 0; }")
        assert prog.size_bytes() == len(prog.encode())


class TestVM:
    def test_arith(self):
        assert run_binary(_binary('int main() { printf("%d\\n", 6 * 7); return 0; }')) == [42]

    def test_loop(self):
        src = 'int main() { int s = 0; for (int i = 1; i <= 10; i++) { s += i; } printf("%d\\n", s); return 0; }'
        assert run_binary(_binary(src)) == [55]

    def test_function_calls(self):
        src = (
            "int add(int a, int b) { return a + b; } "
            'int main() { printf("%d\\n", add(add(1, 2), 4)); return 0; }'
        )
        assert run_binary(_binary(src)) == [7]

    def test_recursion(self):
        src = (
            "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } "
            'int main() { printf("%d\\n", fib(10)); return 0; }'
        )
        assert run_binary(_binary(src)) == [55]

    def test_arrays(self):
        src = (
            "int main() { int a[5]; for (int i = 0; i < 5; i++) { a[i] = i * i; } "
            'printf("%d\\n", a[4]); return 0; }'
        )
        assert run_binary(_binary(src)) == [16]

    def test_array_across_calls(self):
        src = (
            "int first(int* a) { return a[0]; } "
            'int main() { int a[] = {9, 8}; printf("%d\\n", first(a)); return 0; }'
        )
        assert run_binary(_binary(src)) == [9]

    def test_negative_division(self):
        assert run_binary(_binary('int main() { printf("%d\\n", -9 / 2); return 0; }')) == [-4]

    def test_division_by_zero_traps(self):
        src = "int main() { int z = 0; return 1 / z; }"
        with pytest.raises(VMError):
            run_binary(_binary(src))

    def test_step_budget(self):
        prog = _binary("int main() { while (1) { } return 0; }")
        with pytest.raises(VMError, match="step budget"):
            VirtualMachine(prog, max_steps=1000).run()

    def test_java_heap_arrays(self):
        sf = GEN.generate("sum_array", 0, "java")
        mod = lower_program(sf.program)
        prog = compile_module(mod)
        assert run_binary(prog) == interpret(sf.program)


class TestCodegenParity:
    """VM output == AST interpreter for the corpus, at every opt level and
    with both backends."""

    @pytest.mark.parametrize("task", sorted(TASK_REGISTRY)[::2])
    def test_o0_all_languages(self, task):
        for lang in LANGUAGES:
            sf = GEN.generate(task, 0, lang)
            mod = lower_program(sf.program, name=sf.identifier)
            prog = compile_module(mod)
            assert run_binary(prog) == interpret(sf.program), sf.identifier

    @pytest.mark.parametrize("level", ["O1", "O2", "O3", "Oz"])
    def test_optimized_binaries(self, level):
        for task in ("sum_array", "gcd", "binary_search", "sort_median"):
            for lang in LANGUAGES:
                sf = GEN.generate(task, 1, lang)
                mod = lower_program(sf.program, name=sf.identifier)
                optimize(mod, level)
                prog = compile_module(mod)
                assert run_binary(prog) == interpret(sf.program), f"{sf.identifier}@{level}"

    def test_gcc_style_same_semantics(self):
        for task in ("max_subarray", "fibonacci"):
            sf = GEN.generate(task, 2, "cpp")
            mod = lower_program(sf.program)
            assert run_binary(compile_module(mod, style="gcc")) == interpret(sf.program)

    def test_gcc_binaries_bigger(self):
        sf = GEN.generate("sum_array", 0, "c")
        mod1 = lower_program(sf.program)
        mod2 = lower_program(sf.program)
        clang_size = compile_module(mod1, style="clang").size_bytes()
        gcc_size = compile_module(mod2, style="gcc").size_bytes()
        assert gcc_size > clang_size * 1.3  # paper measured ~1.7x after decomp

    def test_unknown_style_rejected(self):
        mod = lower_program(parse_minic("int main() { return 0; }"))
        with pytest.raises(CodegenError):
            compile_module(mod, style="icc")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2000))
    def test_property_random_binaries_match(self, seed):
        gen = SolutionGenerator(seed=seed)
        names = sorted(TASK_REGISTRY)
        task = names[seed % len(names)]
        lang = LANGUAGES[seed % 3]
        level = ["O0", "O1", "O2", "O3", "Oz"][seed % 5]
        style = ["clang", "gcc"][seed % 2]
        sf = gen.generate(task, seed % 4, lang)
        mod = lower_program(sf.program)
        optimize(mod, level)
        prog = compile_module(mod, style=style)
        assert run_binary(prog) == interpret(sf.program)


class TestDecompiler:
    def _decompiled(self, task="sum_array", lang="c", level="O0", style="clang"):
        sf = GEN.generate(task, 0, lang)
        mod = lower_program(sf.program, name=sf.identifier)
        optimize(mod, level)
        prog = compile_module(mod, style=style)
        return mod, decompile_bytes(prog.encode())

    def test_produces_verifiable_ir(self):
        _, dec = self._decompiled()
        verify_module(dec)

    def test_function_symbols_recovered(self):
        src_mod, dec = self._decompiled()
        src_names = {f.name for f in src_mod.defined_functions()}
        dec_names = {f.name for f in dec.defined_functions()}
        assert src_names == dec_names

    def test_types_are_lossy_i64(self):
        from repro.ir.printer import print_module

        _, dec = self._decompiled()
        text = print_module(dec)
        assert "i64" in text
        # source types are gone entirely from recovered function signatures
        assert "define i64" in text or "define void" not in text

    def test_decompiled_larger_than_source_ir(self):
        src_mod, dec = self._decompiled()
        assert dec.size() > src_mod.size()

    def test_gcc_decompiles_larger_than_clang(self):
        _, dec_clang = self._decompiled(style="clang")
        _, dec_gcc = self._decompiled(style="gcc")
        assert dec_gcc.size() > dec_clang.size() * 1.3

    def test_higher_opt_changes_decompiled_shape(self):
        _, dec_o0 = self._decompiled(level="O0")
        _, dec_o3 = self._decompiled(level="O3")
        blocks_o0 = sum(len(f.blocks) for f in dec_o0.defined_functions())
        blocks_o3 = sum(len(f.blocks) for f in dec_o3.defined_functions())
        assert blocks_o0 != blocks_o3

    def test_inttoptr_artifacts_present(self):
        from repro.ir.printer import print_module

        _, dec = self._decompiled(task="sort_median", lang="c")
        text = print_module(dec)
        assert "inttoptr" in text or "ptrtoint" in text

    def test_decompile_all_languages(self):
        for lang in LANGUAGES:
            _, dec = self._decompiled(lang=lang)
            verify_module(dec)
            assert dec.source_language == "decompiled"

    def test_externals_become_declarations(self):
        _, dec = self._decompiled(lang="java")
        decls = [f.name for f in dec.functions if f.is_declaration]
        assert any("java" in d for d in decls)


class TestMalformedBinaries:
    """Every malformed binary is a DecompileError, never a silent wrong
    answer or an IndexError/struct.error from deep inside the parser."""

    @pytest.fixture
    def program(self):
        sf = GEN.generate("sum_array", 0, "java")  # CALLX, CALL and LD/ST
        mod = lower_program(sf.program, name=sf.identifier)
        return compile_module(mod)

    def _first(self, program, op):
        return next(ins for ins in program.instructions if ins.op == op)

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8, b"junk!"])
    def test_trailing_bytes_rejected(self, program, extra):
        with pytest.raises(DecompileError, match="instruction stream"):
            decompile_bytes(program.encode() + extra)

    @pytest.mark.parametrize("cut", [1, 3, 8, 11])
    def test_truncated_stream_rejected(self, program, cut):
        with pytest.raises(DecompileError, match="instruction stream"):
            decompile_bytes(program.encode()[:-cut])

    @pytest.mark.parametrize("keep", [0, 3, 6, 10, 20])
    def test_truncated_header_rejected(self, program, keep):
        with pytest.raises(DecompileError):
            decompile_bytes(program.encode()[:keep])

    def test_bad_opcode_in_stream_rejected(self, program):
        raw = bytearray(program.encode())
        raw[-8] = 0xFF  # opcode byte of the last instruction
        with pytest.raises(DecompileError, match="bad opcode"):
            decompile_bytes(bytes(raw))

    @pytest.mark.parametrize("grow", [1, 40])
    def test_function_past_stream_rejected(self, program, grow):
        program.functions[-1].length += grow
        with pytest.raises(DecompileError, match="outside"):
            decompile_bytes(program.encode())

    def test_empty_function_rejected(self, program):
        program.functions[0].length = 0
        with pytest.raises(DecompileError, match="outside"):
            decompile(program)

    @pytest.mark.parametrize("op, index", [("CALLX", 999), ("CALLX", -1), ("CALL", 999), ("CALL", -2)])
    def test_call_index_out_of_range_rejected(self, program, op, index):
        self._first(program, op).imm = index
        with pytest.raises(DecompileError, match="index"):
            decompile_bytes(program.encode())

    @pytest.mark.parametrize("op, field", [("ADD", "rs"), ("ADD", "rd"), ("MOVI", "rd"), ("LD", "rd"), ("ST", "rs")])
    @pytest.mark.parametrize("reg", [12, 13, 255])
    def test_register_out_of_range_rejected(self, program, op, field, reg):
        setattr(self._first(program, op), field, reg)
        with pytest.raises(DecompileError, match="register"):
            decompile_bytes(program.encode())

    def test_callx_arity_beyond_registers_rejected(self, program):
        self._first(program, "CALLX").rs = 13
        with pytest.raises(DecompileError, match="register"):
            decompile_bytes(program.encode())

    def test_frame_alias_base_register_still_lifts(self, program):
        """r13 is the frame alias in LD/ST address bases, not a bad register."""
        assert any(i.op == "LD" and i.rs == 13 for i in program.instructions)
        assert any(i.op == "ST" and i.rd == 13 for i in program.instructions)
        decompile_bytes(program.encode())

    @pytest.mark.parametrize("spec", ["pad", "regrename", "pad@1.0+regrename@1.0"])
    def test_binary_transforms_stay_well_formed(self, spec):
        from repro.pipeline import CompilationPipeline

        pipeline = CompilationPipeline(transforms=spec)
        for task in ("sum_array", "gcd", "sort_median"):
            for lang in LANGUAGES:
                sf = GEN.generate(task, 0, lang)
                result = pipeline.compile(sf.text, lang, name=sf.identifier,
                                          opt_level="O1", program=sf.program)
                assert result.complete
                decompile_bytes(result.binary_bytes)

"""AST → IR lowering: the Clang / JLang front-end substitute.

Two lowerers share a structured-control-flow core but diverge exactly where
the paper says real front-ends diverge:

* :class:`ClangLowering` (C and C++) — direct loads/stores, stack arrays,
  and (for C++) *template instantiation*: ``std::sort``/``std::max``/...
  calls become calls to mangled ``_ZSt...`` functions whose bodies are
  generated into the module, so C++ IR carries library code inline.
* :class:`JLangLowering` (Java) — heap arrays via ``@java.newarray``,
  array lengths via ``@java.arraylength``, *bounds checks with throw blocks
  on every array access*, and library calls (``Arrays.sort``, ``Math.max``)
  that stay external declarations.  Java IR is therefore systematically
  larger and call-heavier than C/C++ IR for the same program — the size
  asymmetry behind the paper's Figure 4 case study.

Both emit Clang -O0 style code: every local lives in an ``alloca`` and is
loaded/stored around each use; the mem2reg pass promotes to SSA at -O1+.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.builder import IRBuilder
from repro.ir.module import Constant, Function, Module, Value
from repro.ir.types import I1, I32, VOID, IRType, PtrType
from repro.lang import ast
from repro.lang.generator import frontend


class LoweringError(ValueError):
    """Raised when an AST uses a construct the target front-end lacks."""


class _FunctionLowering:
    """Per-function lowering state."""

    def __init__(self, parent: "BaseLowering", fn: Function):  # noqa: D107
        self.parent = parent
        self.fn = fn
        self.builder = IRBuilder()
        # name -> (pointer value, is_array)
        self.slots: Dict[str, Tuple[Value, bool]] = {}
        # (break_target, continue_target) stack
        self.loop_stack: List[Tuple] = []
        self.terminated = False

    # ----------------------------------------------------------- plumbing
    def start_block(self, blk) -> None:
        self.builder.position(blk)
        self.terminated = False

    def finish_block(self) -> None:
        self.terminated = True

    def emit_fallthrough_ret(self) -> None:
        """Close a function whose body may fall off the end."""
        if not self.terminated and self.builder.block.terminator is None:
            if self.fn.return_type == VOID:
                self.builder.ret()
            else:
                self.builder.ret(Constant(0, self.fn.return_type))

    # --------------------------------------------------------- statements
    def lower_body(self, body: ast.Block) -> None:
        entry = self.fn.new_block("entry")
        self.start_block(entry)
        # O0 convention: spill parameters into allocas.
        for arg in self.fn.args:
            slot = self.builder.alloca(arg.type, name=arg.name)
            self.builder.store(arg, slot)
            self.slots[arg.name] = (slot, isinstance(arg.type, PtrType))
        self.lower_block(body)
        self.emit_fallthrough_ret()

    def lower_block(self, blk: ast.Block) -> None:
        for stmt in blk.statements:
            if self.terminated:
                return  # unreachable trailing statements are dropped
            self.lower_stmt(stmt)

    def lower_stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            self.lower_block(s)
        elif isinstance(s, ast.VarDecl):
            self.lower_decl(s)
        elif isinstance(s, ast.Assign):
            self.lower_assign(s)
        elif isinstance(s, ast.If):
            self.lower_if(s)
        elif isinstance(s, ast.While):
            self.lower_while(s)
        elif isinstance(s, ast.For):
            self.lower_for(s)
        elif isinstance(s, ast.Return):
            value = None
            if s.value is not None:
                value = self.as_int(self.lower_expr(s.value))
            self.builder.ret(value)
            self.finish_block()
        elif isinstance(s, ast.Break):
            if not self.loop_stack:
                raise LoweringError("break outside loop")
            self.builder.br(self.loop_stack[-1][0])
            self.finish_block()
        elif isinstance(s, ast.Continue):
            if not self.loop_stack:
                raise LoweringError("continue outside loop")
            self.builder.br(self.loop_stack[-1][1])
            self.finish_block()
        elif isinstance(s, ast.Print):
            value = self.as_int(self.lower_expr(s.value))
            self.parent.emit_print(self.builder, value)
        elif isinstance(s, ast.ExprStmt):
            self.lower_expr(s.expr, want_value=False)
        else:
            raise LoweringError(f"cannot lower {type(s).__name__}")

    def lower_decl(self, s: ast.VarDecl) -> None:
        if isinstance(s.type, ast.ArrayType):
            if isinstance(s.init, ast.NewArray):
                size = self.as_int(self.lower_expr(s.init.size))
                ptr = self.parent.emit_array_alloc(self.builder, size)
                self.slots[s.name] = (self._spill_ptr(ptr), True)
            elif isinstance(s.init, ast.ArrayLit):
                size = Constant(len(s.init.elements), I32)
                ptr = self.parent.emit_array_alloc(self.builder, size)
                slot = self._spill_ptr(ptr)
                self.slots[s.name] = (slot, True)
                for k, el in enumerate(s.init.elements):
                    val = self.as_int(self.lower_expr(el))
                    base = self.builder.load(slot)
                    addr = self.builder.gep(base, Constant(k, I32))
                    self.builder.store(val, addr)
            elif s.init is not None:
                ptr = self.lower_expr(s.init)
                self.slots[s.name] = (self._spill_ptr(ptr), True)
            else:
                raise LoweringError("array declaration requires an initializer")
            return
        slot = self.builder.alloca(I32, name=s.name)
        self.slots[s.name] = (slot, False)
        if s.init is not None:
            self.builder.store(self.as_int(self.lower_expr(s.init)), slot)

    def _spill_ptr(self, ptr: Value) -> Value:
        """Keep array pointers in allocas too (O0 style)."""
        slot = self.builder.alloca(ptr.type)
        self.builder.store(ptr, slot)
        return slot

    def lower_assign(self, s: ast.Assign) -> None:
        value = self.as_int(self.lower_expr(s.value))
        if isinstance(s.target, ast.Var):
            slot, is_array = self.slots.get(s.target.name, (None, False))
            if slot is None:
                raise LoweringError(f"assignment to undeclared {s.target.name}")
            self.builder.store(value, slot)
        elif isinstance(s.target, ast.Index):
            addr = self.lower_element_addr(s.target)
            self.builder.store(value, addr)
        else:
            raise LoweringError("bad assignment target")

    def lower_element_addr(self, target: ast.Index) -> Value:
        """Address of an array element, with front-end-specific checking."""
        base = self.lower_expr(target.base)
        index = self.as_int(self.lower_expr(target.index))
        return self.parent.emit_element_addr(self, base, index)

    # -------------------------------------------------------------- control
    def lower_if(self, s: ast.If) -> None:
        cond = self.as_bool(self.lower_expr(s.cond))
        then_blk = self.fn.new_block("if.then")
        merge_blk = self.fn.new_block("if.end")
        else_blk = self.fn.new_block("if.else") if s.otherwise is not None else merge_blk
        self.builder.condbr(cond, then_blk, else_blk)

        self.start_block(then_blk)
        self.lower_block(s.then)
        if not self.terminated:
            self.builder.br(merge_blk)
        if s.otherwise is not None:
            self.start_block(else_blk)
            self.lower_block(s.otherwise)
            if not self.terminated:
                self.builder.br(merge_blk)
        self.start_block(merge_blk)

    def lower_while(self, s: ast.While) -> None:
        header = self.fn.new_block("while.cond")
        body = self.fn.new_block("while.body")
        exit_blk = self.fn.new_block("while.end")
        self.builder.br(header)
        self.start_block(header)
        cond = self.as_bool(self.lower_expr(s.cond))
        self.builder.condbr(cond, body, exit_blk)
        self.start_block(body)
        self.loop_stack.append((exit_blk, header))
        self.lower_block(s.body)
        self.loop_stack.pop()
        if not self.terminated:
            self.builder.br(header)
        self.start_block(exit_blk)

    def lower_for(self, s: ast.For) -> None:
        if s.init is not None:
            self.lower_stmt(s.init)
        header = self.fn.new_block("for.cond")
        body = self.fn.new_block("for.body")
        step_blk = self.fn.new_block("for.inc")
        exit_blk = self.fn.new_block("for.end")
        self.builder.br(header)
        self.start_block(header)
        if s.cond is not None:
            cond = self.as_bool(self.lower_expr(s.cond))
            self.builder.condbr(cond, body, exit_blk)
        else:
            self.builder.br(body)
        self.start_block(body)
        self.loop_stack.append((exit_blk, step_blk))
        self.lower_block(s.body)
        self.loop_stack.pop()
        if not self.terminated:
            self.builder.br(step_blk)
        self.start_block(step_blk)
        if s.step is not None:
            self.lower_stmt(s.step)
        self.builder.br(header)
        self.start_block(exit_blk)

    # ---------------------------------------------------------- expressions
    BINOPS = {
        "+": "add",
        "-": "sub",
        "*": "mul",
        "/": "sdiv",
        "%": "srem",
        "&": "and",
        "|": "or",
        "^": "xor",
        "<<": "shl",
        ">>": "ashr",
    }
    CMPS = {"<": "slt", "<=": "sle", ">": "sgt", ">=": "sge", "==": "eq", "!=": "ne"}

    def lower_expr(self, e: ast.Expr, want_value: bool = True) -> Value:
        if isinstance(e, ast.IntLit):
            return Constant(e.value, I32)
        if isinstance(e, ast.BoolLit):
            return Constant(1 if e.value else 0, I1)
        if isinstance(e, ast.Var):
            slot, is_array = self.slots.get(e.name, (None, False))
            if slot is None:
                raise LoweringError(f"undefined variable {e.name}")
            return self.builder.load(slot)
        if isinstance(e, ast.BinOp):
            return self.lower_binop(e)
        if isinstance(e, ast.UnaryOp):
            if e.op == "-":
                val = self.as_int(self.lower_expr(e.operand))
                return self.builder.sub(Constant(0, I32), val)
            if e.op == "!":
                val = self.as_bool(self.lower_expr(e.operand))
                return self.builder.binary("xor", val, Constant(1, I1))
            raise LoweringError(f"unknown unary {e.op}")
        if isinstance(e, ast.Index):
            addr = self.lower_element_addr(e)
            return self.builder.load(addr)
        if isinstance(e, ast.NewArray):
            size = self.as_int(self.lower_expr(e.size))
            return self.parent.emit_array_alloc(self.builder, size)
        if isinstance(e, ast.Call):
            return self.parent.emit_call(self, e, want_value)
        raise LoweringError(f"cannot lower expression {type(e).__name__}")

    def lower_binop(self, e: ast.BinOp) -> Value:
        if e.op in ("&&", "||"):
            return self.lower_short_circuit(e)
        if e.op in self.CMPS:
            lhs = self.as_int(self.lower_expr(e.left))
            rhs = self.as_int(self.lower_expr(e.right))
            return self.builder.icmp(self.CMPS[e.op], lhs, rhs)
        if e.op in self.BINOPS:
            lhs = self.as_int(self.lower_expr(e.left))
            rhs = self.as_int(self.lower_expr(e.right))
            return self.builder.binary(self.BINOPS[e.op], lhs, rhs)
        raise LoweringError(f"unknown operator {e.op}")

    def lower_short_circuit(self, e: ast.BinOp) -> Value:
        """``&&``/``||`` become control flow + phi, as Clang emits."""
        lhs = self.as_bool(self.lower_expr(e.left))
        lhs_block = self.builder.block
        rhs_blk = self.fn.new_block("sc.rhs")
        merge_blk = self.fn.new_block("sc.end")
        if e.op == "&&":
            self.builder.condbr(lhs, rhs_blk, merge_blk)
            short_value = Constant(0, I1)
        else:
            self.builder.condbr(lhs, merge_blk, rhs_blk)
            short_value = Constant(1, I1)
        self.start_block(rhs_blk)
        rhs = self.as_bool(self.lower_expr(e.right))
        rhs_end = self.builder.block
        self.builder.br(merge_blk)
        self.start_block(merge_blk)
        return self.builder.phi(I1, [(short_value, lhs_block), (rhs, rhs_end)])

    # ------------------------------------------------------------ coercion
    def as_bool(self, value: Value) -> Value:
        """Coerce to i1 (non-zero test for ints)."""
        if value.type == I1:
            return value
        return self.builder.icmp("ne", value, Constant(0, value.type))

    def as_int(self, value: Value) -> Value:
        """Coerce to i32 (zext for bools, identity for pointers/ints)."""
        if value.type == I1:
            return self.builder.zext(value, I32)
        return value


class BaseLowering:
    """Shared module-level lowering driver; subclasses specialize idioms."""

    source_language = "?"
    print_callee = "print_i32"

    def __init__(self) -> None:  # noqa: D107
        self.module: Optional[Module] = None

    # ------------------------------------------------------------- driver
    def lower(self, program: ast.Program, name: str = "module") -> Module:
        """Lower a whole program to a fresh module."""
        self.module = Module(name, source_language=self.source_language)
        # Pre-scan signatures so forward/recursive calls get correct types.
        self._ast_returns = {
            f.name: (VOID if f.return_type == ast.ScalarType("void") else I32)
            for f in program.functions
        }
        self.begin_module(program)
        for f in program.functions:
            self.lower_function(f)
        self.end_module()
        return self.module

    def begin_module(self, program: ast.Program) -> None:
        """Hook: add runtime declarations."""

    def end_module(self) -> None:
        """Hook: add instantiated template bodies etc."""

    def lower_function(self, f: ast.Function) -> Function:
        """Lower one function definition."""
        arg_types = [
            PtrType(I32) if isinstance(p.type, ast.ArrayType) else I32
            for p in f.params
        ]
        ret = VOID if f.return_type == ast.ScalarType("void") else I32
        fn = Function(f.name, arg_types, [p.name for p in f.params], ret)
        self.module.add(fn)
        _FunctionLowering(self, fn).lower_body(f.body)
        return fn

    def declare(self, name: str, arg_types, ret) -> None:
        """Add an external declaration once."""
        if not self.module.has(name):
            self.module.add(
                Function(
                    name,
                    arg_types,
                    [f"a{i}" for i in range(len(arg_types))],
                    ret,
                    is_declaration=True,
                )
            )

    # ------------------------------------------------------ idiom hooks
    def emit_print(self, builder: IRBuilder, value: Value) -> None:
        """Output an integer."""
        self.declare(self.print_callee, [I32], VOID)
        builder.call(self.print_callee, [value], VOID)

    def emit_array_alloc(self, builder: IRBuilder, size: Value) -> Value:
        """Allocate an array of ``size`` i32s (stack for C/C++)."""
        return builder.alloca(I32, count=size)

    def emit_element_addr(self, fl: _FunctionLowering, base: Value, index: Value) -> Value:
        """Address of element (no checks for C/C++)."""
        return fl.builder.gep(base, index)

    def emit_call(self, fl: _FunctionLowering, e: ast.Call, want_value: bool) -> Value:
        """Lower a call; builtins are language-specific."""
        raise NotImplementedError


class ClangLowering(BaseLowering):
    """C front-end: no builtins — every callee is defined in the file."""

    source_language = "c"
    print_callee = "printf"

    def emit_call(self, fl: _FunctionLowering, e: ast.Call, want_value: bool) -> Value:
        if e.name in ("len", "sort", "max", "min", "abs", "swap"):
            raise LoweringError(f"C has no builtin {e.name!r}")
        args = [fl.as_int(fl.lower_expr(a)) for a in e.args]
        return fl.builder.call(e.name, args, self._ret_of(e.name))

    def _ret_of(self, name: str) -> IRType:
        if name in self._ast_returns:
            return self._ast_returns[name]
        try:
            return self.module.get(name).return_type
        except KeyError:
            return I32


# Itanium-style mangled names for the instantiated templates.
MANGLED_SORT = "_ZSt4sortIPiEvT_S1_"
MANGLED_MAX = "_ZSt3maxIiERKT_S2_S2_"
MANGLED_MIN = "_ZSt3minIiERKT_S2_S2_"
MANGLED_ABS = "_ZSt3absIiET_S0_"
MANGLED_SWAP = "_ZSt4swapIiEvRT_S1_"
CXX_PRINT = "_ZNSolsEi"  # std::ostream::operator<<(int)


class CppLowering(ClangLowering):
    """C++ front-end: std:: builtins instantiate template bodies in-module."""

    source_language = "cpp"
    print_callee = CXX_PRINT

    def __init__(self) -> None:  # noqa: D107
        super().__init__()
        self._needed_templates: set = set()

    def begin_module(self, program: ast.Program) -> None:
        self._needed_templates = set()

    def emit_call(self, fl: _FunctionLowering, e: ast.Call, want_value: bool) -> Value:
        mapping = {
            "sort": (MANGLED_SORT, VOID),
            "max": (MANGLED_MAX, I32),
            "min": (MANGLED_MIN, I32),
            "abs": (MANGLED_ABS, I32),
        }
        if e.name in mapping:
            callee, ret = mapping[e.name]
            self._needed_templates.add(e.name)
            args = []
            for a in e.args:
                val = fl.lower_expr(a)
                if val.type == I1:
                    val = fl.as_int(val)
                args.append(val)
            return fl.builder.call(callee, args, ret)
        if e.name == "len":
            raise LoweringError("C++ has no builtin len()")
        return super().emit_call(fl, e, want_value)

    def end_module(self) -> None:
        """Generate the instantiated template function bodies."""
        if "sort" in self._needed_templates:
            self._instantiate_sort()
        if "max" in self._needed_templates:
            self._instantiate_minmax(MANGLED_MAX, "sgt")
        if "min" in self._needed_templates:
            self._instantiate_minmax(MANGLED_MIN, "slt")
        if "abs" in self._needed_templates:
            self._instantiate_abs()

    def _instantiate_minmax(self, name: str, pred: str) -> None:
        fn = Function(name, [I32, I32], ["a", "b"], I32)
        self.module.add(fn)
        b = IRBuilder()
        entry = fn.new_block("entry")
        take_a = fn.new_block("take.a")
        take_b = fn.new_block("take.b")
        b.position(entry)
        cmp = b.icmp(pred, fn.args[0], fn.args[1])
        b.condbr(cmp, take_a, take_b)
        b.position(take_a)
        b.ret(fn.args[0])
        b.position(take_b)
        b.ret(fn.args[1])

    def _instantiate_abs(self) -> None:
        fn = Function(MANGLED_ABS, [I32], ["a"], I32)
        self.module.add(fn)
        b = IRBuilder()
        entry = fn.new_block("entry")
        neg = fn.new_block("neg")
        pos = fn.new_block("pos")
        b.position(entry)
        cmp = b.icmp("slt", fn.args[0], Constant(0, I32))
        b.condbr(cmp, neg, pos)
        b.position(neg)
        negated = b.sub(Constant(0, I32), fn.args[0])
        b.ret(negated)
        b.position(pos)
        b.ret(fn.args[0])

    def _instantiate_sort(self) -> None:
        """Instantiated ``std::sort`` on int pointers — an in-IR bubble sort.

        The call convention is (base_ptr, n); n was recovered from the
        ``first + n`` iterator form at parse time.
        """
        fn = Function(MANGLED_SORT, [PtrType(I32), I32], ["first", "n"], VOID)
        self.module.add(fn)
        b = IRBuilder()
        entry = fn.new_block("entry")
        outer_cond = fn.new_block("outer.cond")
        outer_body = fn.new_block("outer.body")
        inner_cond = fn.new_block("inner.cond")
        inner_body = fn.new_block("inner.body")
        do_swap = fn.new_block("do.swap")
        inner_inc = fn.new_block("inner.inc")
        outer_inc = fn.new_block("outer.inc")
        done = fn.new_block("done")

        base, n = fn.args
        b.position(entry)
        i_slot = b.alloca(I32, name="i")
        j_slot = b.alloca(I32, name="j")
        b.store(Constant(0, I32), i_slot)
        b.br(outer_cond)

        b.position(outer_cond)
        i_val = b.load(i_slot)
        c0 = b.icmp("slt", i_val, n)
        b.condbr(c0, outer_body, done)

        b.position(outer_body)
        b.store(Constant(0, I32), j_slot)
        b.br(inner_cond)

        b.position(inner_cond)
        j_val = b.load(j_slot)
        limit = b.sub(n, Constant(1, I32))
        c1 = b.icmp("slt", j_val, limit)
        b.condbr(c1, inner_body, outer_inc)

        b.position(inner_body)
        j_cur = b.load(j_slot)
        p0 = b.gep(base, j_cur)
        v0 = b.load(p0)
        j_next = b.add(j_cur, Constant(1, I32))
        p1 = b.gep(base, j_next)
        v1 = b.load(p1)
        c2 = b.icmp("sgt", v0, v1)
        b.condbr(c2, do_swap, inner_inc)

        b.position(do_swap)
        b.store(v1, p0)
        b.store(v0, p1)
        b.br(inner_inc)

        b.position(inner_inc)
        j2 = b.load(j_slot)
        b.store(b.add(j2, Constant(1, I32)), j_slot)
        b.br(inner_cond)

        b.position(outer_inc)
        i2 = b.load(i_slot)
        b.store(b.add(i2, Constant(1, I32)), i_slot)
        b.br(outer_cond)

        b.position(done)
        b.ret()


JAVA_NEWARRAY = "java.newarray"
JAVA_ARRAYLENGTH = "java.arraylength"
JAVA_ARRAYS_SORT = "java.util.Arrays.sort"
JAVA_MATH = {"max": "java.lang.Math.max", "min": "java.lang.Math.min", "abs": "java.lang.Math.abs"}
JAVA_PRINTLN = "java.io.PrintStream.println"
JAVA_THROW_OOB = "java.throw.ArrayIndexOutOfBounds"


class JLangLowering(BaseLowering):
    """Java front-end: runtime-managed arrays, bounds checks, external libs."""

    source_language = "java"
    print_callee = JAVA_PRINTLN

    def begin_module(self, program: ast.Program) -> None:
        self.declare(JAVA_NEWARRAY, [I32], PtrType(I32))
        self.declare(JAVA_ARRAYLENGTH, [PtrType(I32)], I32)
        self.declare(JAVA_THROW_OOB, [], VOID)

    def emit_array_alloc(self, builder: IRBuilder, size: Value) -> Value:
        """Java arrays come from the runtime, not the stack."""
        return builder.call(JAVA_NEWARRAY, [size], PtrType(I32))

    def emit_element_addr(self, fl: _FunctionLowering, base: Value, index: Value) -> Value:
        """Array access with a bounds check and throw block (JVM semantics)."""
        b = fl.builder
        length = b.call(JAVA_ARRAYLENGTH, [base], I32)
        nonneg = b.icmp("sge", index, Constant(0, I32))
        below = b.icmp("slt", index, length)
        ok = b.binary("and", nonneg, below)
        ok_blk = fl.fn.new_block("bc.ok")
        oob_blk = fl.fn.new_block("bc.throw")
        b.condbr(ok, ok_blk, oob_blk)
        fl.start_block(oob_blk)
        b.call(JAVA_THROW_OOB, [], VOID)
        b.unreachable()
        fl.start_block(ok_blk)
        return b.gep(base, index)

    def emit_call(self, fl: _FunctionLowering, e: ast.Call, want_value: bool) -> Value:
        b = fl.builder
        if e.name == "len":
            arr = fl.lower_expr(e.args[0])
            return b.call(JAVA_ARRAYLENGTH, [arr], I32)
        if e.name == "sort":
            arr = fl.lower_expr(e.args[0])
            hi = fl.as_int(fl.lower_expr(e.args[1]))
            self.declare(JAVA_ARRAYS_SORT, [PtrType(I32), I32, I32], VOID)
            return b.call(JAVA_ARRAYS_SORT, [arr, Constant(0, I32), hi], VOID)
        if e.name in JAVA_MATH:
            callee = JAVA_MATH[e.name]
            self.declare(callee, [I32] * len(e.args), I32)
            args = [fl.as_int(fl.lower_expr(a)) for a in e.args]
            return b.call(callee, args, I32)
        args = [fl.as_int(fl.lower_expr(a)) for a in e.args]
        return b.call(e.name, args, self._ast_returns.get(e.name, I32))


LOWERERS = {
    "c": ClangLowering,
    "cpp": CppLowering,
    "java": JLangLowering,
}


def lower_program(program: ast.Program, name: str = "module") -> Module:
    """Lower using the front-end matching ``program.language``."""
    lang = program.language or "c"
    frontend(lang)  # an unknown language fails like everywhere else
    return LOWERERS[lang]().lower(program, name=name)

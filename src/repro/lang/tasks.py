"""Task template library — the CLCDSA / POJ-104 corpus substitute.

Each :class:`Task` is a parameterized competitive-programming problem that
can be instantiated into many *solution variants* (different variable names,
loop styles, accumulation directions, manual-vs-library idioms, embedded
datasets) in any of the three mini-languages.  Solutions to the same task
are semantically equivalent *per variant seed* but structurally diverse —
the positive-pair signal GraphBinMatch must learn — while solutions to
different tasks compute different things — the negative-pair signal.

Randomness is drawn through named, order-independent streams so the same
``(task, variant)`` produces the same algorithmic choices in every language;
only language-conditioned idioms (``len(a)`` vs an explicit ``n``,
``std::sort`` vs a hand-rolled sort) differ, mirroring how real multilingual
solutions diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.lang import ast
from repro.lang.dsl import (
    add,
    array_lit,
    assign,
    block,
    call,
    decl,
    decl_array,
    div,
    eq,
    for_down,
    forto,
    func,
    ge,
    gt,
    idx,
    if_,
    land,
    le,
    lt,
    mod,
    mul,
    ne,
    neg,
    new_array,
    param,
    pr,
    ret,
    sub,
    v,
    while_,
    expr_stmt,
)
from repro.utils.rng import derive_rng

ARRAY_NAMES = ["a", "arr", "data", "nums", "vals", "xs"]
LOOP_NAMES = ["i", "j", "k", "idx", "p", "t"]
ACC_NAMES = ["s", "total", "acc", "res", "ans", "best"]
AUX_NAMES = ["tmp", "cur", "x", "w", "q", "h"]
LEN_NAMES = ["n", "m", "size", "cnt"]


class Spec:
    """Per-(task, variant, language) deterministic choice/data source.

    With ``independent=False`` (default) the random streams exclude the
    language, so the three renderings of a (task, variant) make identical
    choices and are *semantically equivalent* — the property the language
    substrate tests verify.  With ``independent=True`` the language enters
    the derivation: every language draws its own names, styles and data,
    modelling CLCDSA's independently-written solutions (two programmers
    solving the same problem share the algorithm, not the literals).
    """

    def __init__(
        self,
        seed: int,
        task: str,
        variant: int,
        lang: str,
        independent: bool = False,
    ):  # noqa: D107
        self.seed = seed
        self.task = task
        self.variant = variant
        self.lang = lang
        self.independent = independent
        self._names: Dict[str, str] = {}

    def _rng(self, key: str):
        if self.independent:
            return derive_rng(self.seed, self.task, self.variant, self.lang, key)
        return derive_rng(self.seed, self.task, self.variant, key)

    def choice(self, key: str, options: Sequence):
        """Draw one of ``options``; stable per (task, variant, key)."""
        r = self._rng("choice:" + key)
        return options[int(r.integers(0, len(options)))]

    def flag(self, key: str) -> bool:
        """Draw a boolean."""
        return bool(self.choice(key, [True, False]))

    def ints(self, key: str, n: int, lo: int, hi: int) -> List[int]:
        """Draw ``n`` integers in ``[lo, hi)``."""
        return self._rng("data:" + key).integers(lo, hi, size=n).tolist()

    def int(self, key: str, lo: int, hi: int) -> int:
        """Draw one integer in ``[lo, hi)``."""
        return int(self._rng("data:" + key).integers(lo, hi))

    def name(self, role: str, pool: Sequence[str]) -> str:
        """Pick a fresh identifier for ``role`` from ``pool`` (no collisions)."""
        if role in self._names:
            return self._names[role]
        taken = set(self._names.values())
        r = self._rng("name:" + role)
        order = list(r.permutation(len(pool)))
        for k in order:
            cand = pool[k]
            if cand not in taken:
                self._names[role] = cand
                return cand
        cand = pool[order[0]] + str(len(self._names))
        self._names[role] = cand
        return cand

    # conventional roles
    def arr(self) -> str:
        """Array variable name."""
        return self.name("arr", ARRAY_NAMES)

    def loop(self, which: str = "i") -> str:
        """Loop variable name (roles i/j/k are distinct)."""
        return self.name("loop:" + which, LOOP_NAMES)

    def acc(self, which: str = "acc") -> str:
        """Accumulator variable name."""
        return self.name("acc:" + which, ACC_NAMES)

    def aux(self, which: str = "aux") -> str:
        """Auxiliary variable name."""
        return self.name("aux:" + which, AUX_NAMES)

    def nvar(self) -> str:
        """Length parameter name."""
        return self.name("len", LEN_NAMES)


# --------------------------------------------------------------- helpers
def count_loop(
    sp: Spec,
    key: str,
    var: str,
    start,
    stop,
    body_stmts: List[ast.Stmt],
    order_free: bool = False,
):
    """A counting loop over [start, stop) in one of several surface forms.

    Style (``for`` vs ``while``) and — for order-insensitive bodies
    (``order_free=True``, e.g. commutative accumulations) — direction are
    independent variant choices.  A descending loop visits the same index
    set, but its comparison predicate and branch shape differ — the kind
    of structural divergence independently-written solutions show, which
    keeps feature-counting baselines (B2SFinder's cmp/branch features)
    from free-riding on template rigidity.
    """
    style = sp.choice("loopstyle:" + key, ["for", "while"])
    descending = order_free and sp.flag("loopdir:" + key)
    if descending:
        # i = stop-1; while (i >= start) { body; i-- }
        return [
            decl(var, sub(stop, 1)),
            while_(ge(v(var), start), block(*body_stmts, assign(var, sub(v(var), 1)))),
        ]
    if style == "for":
        return [forto(var, start, stop, block(*body_stmts))]
    return [
        decl(var, start),
        while_(lt(v(var), stop), block(*body_stmts, assign(var, add(v(var), 1)))),
    ]


def solver_array_signature(sp: Spec, arr: str):
    """Return (params, length_expr, call_args_builder) for an array solver.

    Java variants may drop the explicit length parameter and use
    ``a.length`` — the canonical cross-language signature divergence.
    """
    use_len = sp.lang == "java" and sp.flag("use_len")
    if use_len:
        params = [param(arr, array=True)]
        length = call("len", v(arr))

        def args(arr_var, n_value):
            return [v(arr_var)]

    else:
        n = sp.nvar()
        params = [param(arr, array=True), param(n)]
        length = v(n)

        def args(arr_var, n_value):
            return [v(arr_var), ast.IntLit(n_value)]

    return params, length, args


def minmax_expr(sp: Spec, key: str, op: str, a, b):
    """``max(a, b)`` either via the builtin or an explicit compare (variant)."""
    use_builtin = sp.flag("builtin:" + key)
    if use_builtin:
        return ("call", call(op, a, b))
    return ("if", (op, a, b))


@dataclass
class Task:
    """A named problem template with a solution-variant builder."""

    name: str
    description: str
    build: Callable[[Spec], ast.Program]


TASK_REGISTRY: Dict[str, Task] = {}


def _register(name: str, description: str):
    def deco(fn):
        TASK_REGISTRY[name] = Task(name, description, fn)
        return fn

    return deco


def _main_with_array(sp: Spec, solver: ast.Function, data: List[int], args_builder, extra_args=()):
    """Standard main: embed a literal dataset, call solver, print result."""
    arr_main = "input" if sp.lang == "java" else "buf"
    stmts: List[ast.Stmt] = [decl_array(arr_main, array_lit(data))]
    call_args = args_builder(arr_main, len(data))
    for extra in extra_args:
        call_args.append(ast.IntLit(extra))
    stmts.append(pr(ast.Call(solver.name, call_args)))
    stmts.append(ret(0))
    return func("main", [], "int", block(*stmts))


def _program(sp: Spec, functions: List[ast.Function]) -> ast.Program:
    return ast.Program(functions, language=sp.lang)


# ------------------------------------------------------------- the tasks
@_register("sum_array", "Sum the elements of an array")
def _sum_array(sp: Spec) -> ast.Program:
    arr, i, s = sp.arr(), sp.loop(), sp.acc()
    params, length, args_b = solver_array_signature(sp, arr)
    body = [decl(s, 0)]
    body += count_loop(sp, "main", i, 0, length, [assign(s, add(v(s), idx(arr, v(i))))], order_free=True)
    body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["sumArray", "total", "computeSum"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 14), -20, 40)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("max_element", "Find the maximum element of an array")
def _max_element(sp: Spec) -> ast.Program:
    arr, i, best = sp.arr(), sp.loop(), sp.acc()
    params, length, args_b = solver_array_signature(sp, arr)
    kind, payload = minmax_expr(sp, "mx", "max", idx(arr, v(i)), v(best))
    if kind == "call":
        update: List[ast.Stmt] = [assign(best, payload)]
    else:
        update = [if_(gt(idx(arr, v(i)), v(best)), block(assign(best, idx(arr, v(i)))))]
    body = [decl(best, idx(arr, 0))]
    body += count_loop(sp, "main", i, 1, length, update)
    body.append(ret(v(best)))
    solver = func(sp.choice("fname", ["maxOf", "largest", "findMax"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 14), -50, 99)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("min_element", "Find the minimum element of an array")
def _min_element(sp: Spec) -> ast.Program:
    arr, i, best = sp.arr(), sp.loop(), sp.acc()
    params, length, args_b = solver_array_signature(sp, arr)
    kind, payload = minmax_expr(sp, "mn", "min", idx(arr, v(i)), v(best))
    if kind == "call":
        update: List[ast.Stmt] = [assign(best, payload)]
    else:
        update = [if_(lt(idx(arr, v(i)), v(best)), block(assign(best, idx(arr, v(i)))))]
    body = [decl(best, idx(arr, 0))]
    body += count_loop(sp, "main", i, 1, length, update)
    body.append(ret(v(best)))
    solver = func(sp.choice("fname", ["minOf", "smallest", "findMin"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 14), -99, 50)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("count_even", "Count even elements of an array")
def _count_even(sp: Spec) -> ast.Program:
    arr, i, c = sp.arr(), sp.loop(), sp.acc()
    params, length, args_b = solver_array_signature(sp, arr)
    body = [decl(c, 0)]
    body += count_loop(
        sp,
        "main",
        i,
        0,
        length,
        [if_(eq(mod(idx(arr, v(i)), 2), 0), block(assign(c, add(v(c), 1))))],
    )
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["countEven", "evens", "numEven"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 8, 16), 0, 60)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("linear_search", "Index of the first occurrence of a key")
def _linear_search(sp: Spec) -> ast.Program:
    arr, i, key = sp.arr(), sp.loop(), sp.aux("key")
    params, length, args_b = solver_array_signature(sp, arr)
    params = params + [param(key)]
    early = sp.flag("early_return")
    if early:
        body: List[ast.Stmt] = []
        body += count_loop(
            sp, "main", i, 0, length,
            [if_(eq(idx(arr, v(i)), v(key)), block(ret(v(i))))],
        )
        body.append(ret(neg(1)))
    else:
        found = sp.acc("found")
        body = [decl(found, neg(1))]
        body += count_loop(
            sp, "main", i, 0, length,
            [if_(land(eq(idx(arr, v(i)), v(key)), eq(v(found), neg(1))),
                 block(assign(found, v(i))))],
        )
        body.append(ret(v(found)))
    solver = func(sp.choice("fname", ["find", "indexOf", "search"]), params, "int", block(*body))
    data = sp.ints("arr", 10, 0, 30)
    target = data[sp.int("pos", 0, 10)]
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b, extra_args=(target,))])


@_register("reverse_sum", "Reverse an array in place, then sum index*value")
def _reverse_sum(sp: Spec) -> ast.Program:
    arr, i, j, t = sp.arr(), sp.loop("i"), sp.loop("j"), sp.aux("t")
    s, k = sp.acc(), sp.loop("k")
    params, length, args_b = solver_array_signature(sp, arr)
    swap_body = [
        decl(t, idx(arr, v(i))),
        assign(idx(arr, v(i)), idx(arr, v(j))),
        assign(idx(arr, v(j)), v(t)),
        assign(i, add(v(i), 1)),
        assign(j, sub(v(j), 1)),
    ]
    body: List[ast.Stmt] = [
        decl(i, 0),
        decl(j, sub(length, 1)),
        while_(lt(v(i), v(j)), block(*swap_body)),
        decl(s, 0),
    ]
    body += count_loop(sp, "sum", k, 0, length, [assign(s, add(v(s), mul(v(k), idx(arr, v(k)))))], order_free=True)
    body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["revWeight", "flipScore", "reverseSum"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 12), 1, 25)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("fibonacci", "n-th Fibonacci number, iterative")
def _fibonacci(sp: Spec) -> ast.Program:
    n, i = sp.nvar(), sp.loop()
    a, b, t = sp.acc("a"), sp.acc("b"), sp.aux("t")
    body: List[ast.Stmt] = [decl(a, 0), decl(b, 1)]
    body += count_loop(
        sp, "main", i, 0, v(n),
        [decl(t, add(v(a), v(b))), assign(a, v(b)), assign(b, v(t))],
    )
    body.append(ret(v(a)))
    solver = func(sp.choice("fname", ["fib", "fibonacci", "fibo"]), [param(n)], "int", block(*body))
    arg = sp.int("n", 5, 25)
    main = func(
        "main", [], "int",
        block(pr(call(solver.name, arg)), ret(0)),
    )
    return _program(sp, [solver, main])


@_register("factorial", "n! iteratively")
def _factorial(sp: Spec) -> ast.Program:
    n, i, f = sp.nvar(), sp.loop(), sp.acc()
    down = sp.flag("count_down")
    if down:
        body = [decl(f, 1), for_down(i, v(n), 2, block(assign(f, mul(v(f), v(i)))))]
    else:
        body = [decl(f, 1)]
        body += count_loop(sp, "main", i, 2, add(v(n), 1), [assign(f, mul(v(f), v(i)))])
    body.append(ret(v(f)))
    solver = func(sp.choice("fname", ["fact", "factorial"]), [param(n)], "int", block(*body))
    arg = sp.int("n", 3, 13)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("gcd", "Greatest common divisor (Euclid)")
def _gcd(sp: Spec) -> ast.Program:
    x, y, t = sp.aux("x"), sp.aux("y"), sp.aux("t")
    style = sp.choice("style", ["mod", "sub"])
    if style == "mod":
        loop_body = block(decl(t, mod(v(x), v(y))), assign(x, v(y)), assign(y, v(t)))
        body = [while_(ne(v(y), 0), loop_body), ret(v(x))]
    else:
        body = [
            while_(
                ne(v(x), v(y)),
                block(
                    if_(gt(v(x), v(y)), block(assign(x, sub(v(x), v(y)))),
                        block(assign(y, sub(v(y), v(x))))),
                ),
            ),
            ret(v(x)),
        ]
    solver = func(sp.choice("fname", ["gcd", "hcf"]), [param(x), param(y)], "int", block(*body))
    a = sp.int("a", 20, 400)
    b = sp.int("b", 8, 300)
    main = func("main", [], "int", block(pr(call(solver.name, a, b)), ret(0)))
    return _program(sp, [solver, main])


@_register("count_primes", "Count primes in [2, n] by trial division")
def _count_primes(sp: Spec) -> ast.Program:
    n, i, j, c, flag = sp.nvar(), sp.loop("i"), sp.loop("j"), sp.acc(), sp.aux("flag")
    inner = block(
        if_(eq(mod(v(i), v(j)), 0), block(assign(flag, 0))),
    )
    body: List[ast.Stmt] = [decl(c, 0)]
    body += count_loop(
        sp, "outer", i, 2, add(v(n), 1),
        [
            decl(flag, 1),
            forto(j, 2, v(i), inner),
            if_(eq(v(flag), 1), block(assign(c, add(v(c), 1)))),
        ],
    )
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["countPrimes", "primesUpTo", "numPrimes"]), [param(n)], "int", block(*body))
    arg = sp.int("n", 10, 60)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("sum_digits", "Sum of decimal digits")
def _sum_digits(sp: Spec) -> ast.Program:
    x, s = sp.aux("x"), sp.acc()
    body = [
        decl(s, 0),
        while_(gt(v(x), 0), block(assign(s, add(v(s), mod(v(x), 10))), assign(x, div(v(x), 10)))),
        ret(v(s)),
    ]
    solver = func(sp.choice("fname", ["digitSum", "sumDigits"]), [param(x)], "int", block(*body))
    arg = sp.int("x", 100, 99999)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("power", "Integer exponentiation")
def _power(sp: Spec) -> ast.Program:
    base, exp, r, i = sp.aux("base"), sp.aux("exp"), sp.acc(), sp.loop()
    fast = sp.flag("fast_pow")
    if fast:
        body = [
            decl(r, 1),
            while_(
                gt(v(exp), 0),
                block(
                    if_(eq(mod(v(exp), 2), 1), block(assign(r, mul(v(r), v(base))))),
                    assign(base, mul(v(base), v(base))),
                    assign(exp, div(v(exp), 2)),
                ),
            ),
            ret(v(r)),
        ]
    else:
        body = [decl(r, 1)]
        body += count_loop(sp, "main", i, 0, v(exp), [assign(r, mul(v(r), v(base)))])
        body.append(ret(v(r)))
    solver = func(sp.choice("fname", ["power", "ipow", "expo"]), [param(base), param(exp)], "int", block(*body))
    b = sp.int("b", 2, 6)
    e_arg = sp.int("e", 3, 11)
    main = func("main", [], "int", block(pr(call(solver.name, b, e_arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("sort_median", "Sort an array, return the middle element")
def _sort_median(sp: Spec) -> ast.Program:
    arr, i, j, t = sp.arr(), sp.loop("i"), sp.loop("j"), sp.aux("t")
    params, length, args_b = solver_array_signature(sp, arr)
    manual = sp.lang == "c" or sp.flag("manual_sort")
    body: List[ast.Stmt] = []
    if manual and sp.lang != "c":
        # hand-rolled bubble sort even though the library exists
        body += _bubble_sort_stmts(arr, length, i, j, t)
    elif manual:
        body += _bubble_sort_stmts(arr, length, i, j, t)
    else:
        if sp.lang == "java" and len(params) == 1:
            body.append(expr_stmt(call("sort", v(arr), call("len", v(arr)))))
        else:
            body.append(expr_stmt(call("sort", v(arr), length)))
    body.append(ret(idx(arr, div(length, 2))))
    solver = func(sp.choice("fname", ["median", "midValue", "sortedMiddle"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 7, 13), 0, 90)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


def _bubble_sort_stmts(arr, length, i, j, t):
    inner = block(
        if_(
            gt(idx(arr, v(j)), idx(arr, add(v(j), 1))),
            block(
                decl(t, idx(arr, v(j))),
                assign(idx(arr, v(j)), idx(arr, add(v(j), 1))),
                assign(idx(arr, add(v(j), 1)), v(t)),
            ),
        )
    )
    return [forto(i, 0, length, block(forto(j, 0, sub(length, 1), inner)))]


@_register("second_largest", "Second-largest element of an array")
def _second_largest(sp: Spec) -> ast.Program:
    arr, i = sp.arr(), sp.loop()
    first, second = sp.acc("first"), sp.acc("second")
    params, length, args_b = solver_array_signature(sp, arr)
    update = [
        if_(
            gt(idx(arr, v(i)), v(first)),
            block(assign(second, v(first)), assign(first, idx(arr, v(i)))),
            block(
                if_(
                    land(gt(idx(arr, v(i)), v(second)), lt(idx(arr, v(i)), v(first))),
                    block(assign(second, idx(arr, v(i)))),
                )
            ),
        )
    ]
    body = [decl(first, neg(1000000)), decl(second, neg(1000000))]
    body += count_loop(sp, "main", i, 0, length, update)
    body.append(ret(v(second)))
    solver = func(sp.choice("fname", ["secondMax", "runnerUp"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 12), 0, 99)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("dot_product", "Dot product of two arrays")
def _dot_product(sp: Spec) -> ast.Program:
    a, b2 = sp.arr(), sp.name("arr2", ["b", "ys", "other", "second"])
    i, s, n = sp.loop(), sp.acc(), sp.nvar()
    body = [decl(s, 0)]
    body += count_loop(sp, "main", i, 0, v(n), [assign(s, add(v(s), mul(idx(a, v(i)), idx(b2, v(i)))))], order_free=True)
    body.append(ret(v(s)))
    solver = func(
        sp.choice("fname", ["dot", "inner", "dotProduct"]),
        [param(a, array=True), param(b2, array=True), param(n)],
        "int",
        block(*body),
    )
    count = sp.int("n", 5, 10)
    xs = sp.ints("xs", count, -9, 12)
    ys = sp.ints("ys", count, -6, 15)
    main = func(
        "main", [], "int",
        block(
            decl_array("u", array_lit(xs)),
            decl_array("w2", array_lit(ys)),
            pr(call(solver.name, v("u"), v("w2"), count)),
            ret(0),
        ),
    )
    return _program(sp, [solver, main])


@_register("prefix_sums", "Build prefix sums, return the last")
def _prefix_sums(sp: Spec) -> ast.Program:
    arr, i, pre = sp.arr(), sp.loop(), sp.name("arr2", ["pre", "sums", "ps"])
    params, length, args_b = solver_array_signature(sp, arr)
    body: List[ast.Stmt] = [
        decl_array(pre, new_array(length)),
        assign(idx(pre, 0), idx(arr, 0)),
    ]
    body += count_loop(
        sp, "main", i, 1, length,
        [assign(idx(pre, v(i)), add(idx(pre, sub(v(i), 1)), idx(arr, v(i))))],
    )
    body.append(ret(idx(pre, sub(length, 1))))
    solver = func(sp.choice("fname", ["prefixLast", "runningTotal"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 12), 1, 30)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("count_divisors", "Number of divisors of n")
def _count_divisors(sp: Spec) -> ast.Program:
    n, i, c = sp.nvar(), sp.loop(), sp.acc()
    body = [decl(c, 0)]
    body += count_loop(
        sp, "main", i, 1, add(v(n), 1),
        [if_(eq(mod(v(n), v(i)), 0), block(assign(c, add(v(c), 1))))],
    )
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["divisors", "countDiv", "tau"]), [param(n)], "int", block(*body))
    arg = sp.int("n", 12, 240)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("binary_search", "Binary search in a sorted array")
def _binary_search(sp: Spec) -> ast.Program:
    arr, key = sp.arr(), sp.aux("key")
    lo, hi, mid = sp.aux("lo"), sp.aux("hi"), sp.aux("mid")
    params, length, args_b = solver_array_signature(sp, arr)
    params = params + [param(key)]
    body = [
        decl(lo, 0),
        decl(hi, sub(length, 1)),
        while_(
            le(v(lo), v(hi)),
            block(
                decl(mid, div(add(v(lo), v(hi)), 2)),
                if_(
                    eq(idx(arr, v(mid)), v(key)),
                    block(ret(v(mid))),
                    block(
                        if_(
                            lt(idx(arr, v(mid)), v(key)),
                            block(assign(lo, add(v(mid), 1))),
                            block(assign(hi, sub(v(mid), 1))),
                        )
                    ),
                ),
            ),
        ),
        ret(neg(1)),
    ]
    solver = func(sp.choice("fname", ["bsearch", "binSearch", "locate"]), params, "int", block(*body))
    count = sp.int("n", 8, 14)
    data = sorted(set(sp.ints("arr", count, 0, 99)))
    target = data[sp.int("pos", 0, len(data))]
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b, extra_args=(target,))])


@_register("array_average", "Integer average of array elements")
def _array_average(sp: Spec) -> ast.Program:
    arr, i, s = sp.arr(), sp.loop(), sp.acc()
    params, length, args_b = solver_array_signature(sp, arr)
    body = [decl(s, 0)]
    body += count_loop(sp, "main", i, 0, length, [assign(s, add(v(s), idx(arr, v(i))))], order_free=True)
    body.append(ret(div(v(s), length)))
    solver = func(sp.choice("fname", ["average", "meanOf"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 5, 12), 0, 100)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("range_sum", "Sum of integers from a to b")
def _range_sum(sp: Spec) -> ast.Program:
    a, b2, s, i = sp.aux("a"), sp.aux("b"), sp.acc(), sp.loop()
    closed_form = sp.flag("closed_form")
    if closed_form:
        width = sub(v(b2), v(a))
        body = [ret(div(mul(add(v(a), v(b2)), add(width, 1)), 2))]
    else:
        body = [decl(s, 0)]
        body += count_loop(sp, "main", i, v(a), add(v(b2), 1), [assign(s, add(v(s), v(i)))], order_free=True)
        body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["rangeSum", "sumFromTo"]), [param(a), param(b2)], "int", block(*body))
    lo = sp.int("lo", 1, 40)
    hi = lo + sp.int("w", 3, 50)
    main = func("main", [], "int", block(pr(call(solver.name, lo, hi)), ret(0)))
    return _program(sp, [solver, main])


@_register("collatz_steps", "Collatz sequence length")
def _collatz(sp: Spec) -> ast.Program:
    x, c = sp.aux("x"), sp.acc()
    body = [
        decl(c, 0),
        while_(
            ne(v(x), 1),
            block(
                if_(
                    eq(mod(v(x), 2), 0),
                    block(assign(x, div(v(x), 2))),
                    block(assign(x, add(mul(3, v(x)), 1))),
                ),
                assign(c, add(v(c), 1)),
            ),
        ),
        ret(v(c)),
    ]
    solver = func(sp.choice("fname", ["collatz", "steps", "hailstone"]), [param(x)], "int", block(*body))
    arg = sp.int("x", 3, 50)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("count_occurrences", "Count occurrences of a key in an array")
def _count_occurrences(sp: Spec) -> ast.Program:
    arr, i, c, key = sp.arr(), sp.loop(), sp.acc(), sp.aux("key")
    params, length, args_b = solver_array_signature(sp, arr)
    params = params + [param(key)]
    body = [decl(c, 0)]
    body += count_loop(
        sp, "main", i, 0, length,
        [if_(eq(idx(arr, v(i)), v(key)), block(assign(c, add(v(c), 1))))],
    )
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["countOf", "occurrences", "freq"]), params, "int", block(*body))
    data = sp.ints("arr", 12, 0, 6)
    target = sp.int("key", 0, 6)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b, extra_args=(target,))])


@_register("max_subarray", "Maximum subarray sum (Kadane)")
def _max_subarray(sp: Spec) -> ast.Program:
    arr, i = sp.arr(), sp.loop()
    best, cur = sp.acc("best"), sp.acc("cur")
    params, length, args_b = solver_array_signature(sp, arr)
    use_builtin = sp.lang != "c" and sp.flag("builtin_max")
    if use_builtin:
        update = [
            assign(cur, call("max", idx(arr, v(i)), add(v(cur), idx(arr, v(i))))),
            assign(best, call("max", v(best), v(cur))),
        ]
    else:
        update = [
            assign(cur, add(v(cur), idx(arr, v(i)))),
            if_(lt(v(cur), idx(arr, v(i))), block(assign(cur, idx(arr, v(i))))),
            if_(gt(v(cur), v(best)), block(assign(best, v(cur)))),
        ]
    body = [decl(best, idx(arr, 0)), decl(cur, idx(arr, 0))]
    body += count_loop(sp, "main", i, 1, length, update)
    body.append(ret(v(best)))
    solver = func(sp.choice("fname", ["kadane", "maxSub", "bestRun"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 8, 14), -30, 30)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("is_sorted", "Check whether an array is non-decreasing")
def _is_sorted(sp: Spec) -> ast.Program:
    arr, i, ok = sp.arr(), sp.loop(), sp.acc("ok")
    params, length, args_b = solver_array_signature(sp, arr)
    body = [decl(ok, 1)]
    body += count_loop(
        sp, "main", i, 1, length,
        [if_(lt(idx(arr, v(i)), idx(arr, sub(v(i), 1))), block(assign(ok, 0)))],
    )
    body.append(ret(v(ok)))
    solver = func(sp.choice("fname", ["isSorted", "sortedCheck", "nonDecreasing"]), params, "int", block(*body))
    base = sp.ints("arr", sp.int("n", 6, 12), 0, 50)
    if sp.flag("actually_sorted"):
        base = sorted(base)
    return _program(sp, [solver, _main_with_array(sp, solver, base, args_b)])


@_register("digit_reverse", "Reverse the decimal digits of n")
def _digit_reverse(sp: Spec) -> ast.Program:
    x, r = sp.aux("x"), sp.acc()
    body = [
        decl(r, 0),
        while_(gt(v(x), 0), block(
            assign(r, add(mul(v(r), 10), mod(v(x), 10))),
            assign(x, div(v(x), 10)),
        )),
        ret(v(r)),
    ]
    solver = func(sp.choice("fname", ["revDigits", "reverseNum"]), [param(x)], "int", block(*body))
    arg = sp.int("x", 100, 99999)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("pair_sum_count", "Count index pairs whose values sum to k")
def _pair_sum_count(sp: Spec) -> ast.Program:
    arr, i, j, c, k = sp.arr(), sp.loop("i"), sp.loop("j"), sp.acc(), sp.aux("k")
    params, length, args_b = solver_array_signature(sp, arr)
    params = params + [param(k)]
    inner = block(
        if_(eq(add(idx(arr, v(i)), idx(arr, v(j))), v(k)), block(assign(c, add(v(c), 1))))
    )
    body = [
        decl(c, 0),
        forto(i, 0, length, block(forto(j, add(v(i), 1), length, inner))),
        ret(v(c)),
    ]
    solver = func(sp.choice("fname", ["pairCount", "twoSumCount"]), params, "int", block(*body))
    data = sp.ints("arr", 10, 0, 12)
    target = sp.int("k", 4, 18)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b, extra_args=(target,))])


@_register("modpow", "Modular exponentiation")
def _modpow(sp: Spec) -> ast.Program:
    base, exp, m, r = sp.aux("base"), sp.aux("exp"), sp.aux("m"), sp.acc()
    body = [
        decl(r, 1),
        assign(base, mod(v(base), v(m))),
        while_(
            gt(v(exp), 0),
            block(
                if_(eq(mod(v(exp), 2), 1), block(assign(r, mod(mul(v(r), v(base)), v(m))))),
                assign(exp, div(v(exp), 2)),
                assign(base, mod(mul(v(base), v(base)), v(m))),
            ),
        ),
        ret(v(r)),
    ]
    solver = func(
        sp.choice("fname", ["modpow", "powmod"]),
        [param(base), param(exp), param(m)],
        "int",
        block(*body),
    )
    b = sp.int("b", 2, 30)
    e2 = sp.int("e", 3, 20)
    m2 = sp.int("m", 7, 1000)
    main = func("main", [], "int", block(pr(call(solver.name, b, e2, m2)), ret(0)))
    return _program(sp, [solver, main])


@_register("lcm", "Least common multiple via GCD")
def _lcm(sp: Spec) -> ast.Program:
    x, y, t = sp.aux("x"), sp.aux("y"), sp.aux("t")
    gx, gy = sp.aux("gx"), sp.aux("gy")
    gcd_body = block(
        while_(ne(v(y), 0), block(decl(t, mod(v(x), v(y))), assign(x, v(y)), assign(y, v(t)))),
        ret(v(x)),
    )
    gcd_fn = func(sp.choice("gname", ["gcd", "hcf"]), [param(x), param(y)], "int", gcd_body)
    lcm_body = block(ret(div(mul(v(gx), v(gy)), call(gcd_fn.name, v(gx), v(gy)))))
    lcm_fn = func(sp.choice("fname", ["lcm", "lowestCommon"]), [param(gx), param(gy)], "int", lcm_body)
    a = sp.int("a", 4, 60)
    b = sp.int("b", 6, 80)
    main = func("main", [], "int", block(pr(call(lcm_fn.name, a, b)), ret(0)))
    return _program(sp, [gcd_fn, lcm_fn, main])


@_register("alternating_sum", "Sum with alternating signs")
def _alternating_sum(sp: Spec) -> ast.Program:
    arr, i, s, sign = sp.arr(), sp.loop(), sp.acc(), sp.aux("sign")
    params, length, args_b = solver_array_signature(sp, arr)
    use_sign_var = sp.flag("sign_var")
    if use_sign_var:
        body = [decl(s, 0), decl(sign, 1)]
        body += count_loop(
            sp, "main", i, 0, length,
            [assign(s, add(v(s), mul(v(sign), idx(arr, v(i))))), assign(sign, neg(v(sign)))],
        )
    else:
        body = [decl(s, 0)]
        body += count_loop(
            sp, "main", i, 0, length,
            [
                if_(
                    eq(mod(v(i), 2), 0),
                    block(assign(s, add(v(s), idx(arr, v(i))))),
                    block(assign(s, sub(v(s), idx(arr, v(i))))),
                )
            ],
        )
    body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["altSum", "zigzag"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 12), 0, 40)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("count_above", "Count elements above a threshold")
def _count_above(sp: Spec) -> ast.Program:
    arr, i, c, th = sp.arr(), sp.loop(), sp.acc(), sp.aux("th")
    params, length, args_b = solver_array_signature(sp, arr)
    params = params + [param(th)]
    body = [decl(c, 0)]
    body += count_loop(
        sp, "main", i, 0, length,
        [if_(gt(idx(arr, v(i)), v(th)), block(assign(c, add(v(c), 1))))],
    )
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["countAbove", "aboveThreshold"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 8, 15), 0, 100)
    threshold = sp.int("th", 20, 80)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b, extra_args=(threshold,))])


@_register("sum_of_squares", "Sum of squares of 1..n")
def _sum_of_squares(sp: Spec) -> ast.Program:
    n, i, s = sp.nvar(), sp.loop(), sp.acc()
    body = [decl(s, 0)]
    body += count_loop(sp, "main", i, 1, add(v(n), 1), [assign(s, add(v(s), mul(v(i), v(i))))], order_free=True)
    body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["squareSum", "sumSquares"]), [param(n)], "int", block(*body))
    arg = sp.int("n", 5, 40)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("min_diff_pair", "Smallest difference between any two elements")
def _min_diff_pair(sp: Spec) -> ast.Program:
    arr, i, j, best, d = sp.arr(), sp.loop("i"), sp.loop("j"), sp.acc(), sp.aux("d")
    params, length, args_b = solver_array_signature(sp, arr)
    use_abs = sp.lang != "c" and sp.flag("builtin_abs")
    if use_abs:
        diff_stmts = [decl(d, call("abs", sub(idx(arr, v(i)), idx(arr, v(j)))))]
    else:
        diff_stmts = [
            decl(d, sub(idx(arr, v(i)), idx(arr, v(j)))),
            if_(lt(v(d), 0), block(assign(d, neg(v(d))))),
        ]
    inner = block(*diff_stmts, if_(lt(v(d), v(best)), block(assign(best, v(d)))))
    body = [
        decl(best, 1000000),
        forto(i, 0, length, block(forto(j, add(v(i), 1), length, inner))),
        ret(v(best)),
    ]
    solver = func(sp.choice("fname", ["minGap", "closestPair"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 11), 0, 200)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("running_max_count", "How many times the running maximum changes")
def _running_max_count(sp: Spec) -> ast.Program:
    arr, i, best, c = sp.arr(), sp.loop(), sp.acc("best"), sp.acc("cnt")
    params, length, args_b = solver_array_signature(sp, arr)
    body = [decl(best, idx(arr, 0)), decl(c, 1)]
    body += count_loop(
        sp, "main", i, 1, length,
        [
            if_(
                gt(idx(arr, v(i)), v(best)),
                block(assign(best, idx(arr, v(i))), assign(c, add(v(c), 1))),
            )
        ],
    )
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["recordCount", "newHighs"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 8, 14), 0, 99)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("triangle_number", "n-th triangular number")
def _triangle_number(sp: Spec) -> ast.Program:
    n, i, s = sp.nvar(), sp.loop(), sp.acc()
    closed = sp.flag("closed_form")
    if closed:
        body = [ret(div(mul(v(n), add(v(n), 1)), 2))]
    else:
        body = [decl(s, 0)]
        body += count_loop(sp, "main", i, 1, add(v(n), 1), [assign(s, add(v(s), v(i)))], order_free=True)
        body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["triangle", "triNum"]), [param(n)], "int", block(*body))
    arg = sp.int("n", 4, 60)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("diag_sum", "Trace of a flattened square matrix")
def _diag_sum(sp: Spec) -> ast.Program:
    arr, i, s, n = sp.arr(), sp.loop(), sp.acc(), sp.nvar()
    body = [decl(s, 0)]
    body += count_loop(
        sp, "main", i, 0, v(n),
        [assign(s, add(v(s), idx(arr, add(mul(v(i), v(n)), v(i)))))],
    )
    body.append(ret(v(s)))
    solver = func(
        sp.choice("fname", ["trace", "diagSum"]),
        [param(arr, array=True), param(n)],
        "int",
        block(*body),
    )
    dim = sp.int("dim", 3, 6)
    data = sp.ints("mat", dim * dim, 0, 25)
    main = func(
        "main", [], "int",
        block(
            decl_array("m2", array_lit(data)),
            pr(call(solver.name, v("m2"), dim)),
            ret(0),
        ),
    )
    return _program(sp, [solver, main])


@_register("count_vowel_codes", "Count elements equal to any of a small set")
def _count_vowel_codes(sp: Spec) -> ast.Program:
    # models character-class counting (vowels as their codes)
    arr, i, c = sp.arr(), sp.loop(), sp.acc()
    params, length, args_b = solver_array_signature(sp, arr)
    codes = [97, 101, 105, 111, 117]
    cond = eq(idx(arr, v(i)), codes[0])
    for code in codes[1:]:
        from repro.lang.dsl import lor

        cond = lor(cond, eq(idx(arr, v(i)), code))
    body = [decl(c, 0)]
    body += count_loop(sp, "main", i, 0, length, [if_(cond, block(assign(c, add(v(c), 1))))], order_free=True)
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["vowels", "countVowels"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 10, 18), 97, 123)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("sum_between_minmax", "Sum of elements strictly between min and max")
def _sum_between(sp: Spec) -> ast.Program:
    arr, i = sp.arr(), sp.loop()
    lo, hi, s = sp.acc("lo"), sp.acc("hi"), sp.acc("s")
    params, length, args_b = solver_array_signature(sp, arr)
    body = [decl(lo, idx(arr, 0)), decl(hi, idx(arr, 0))]
    body += count_loop(
        sp, "scan", i, 1, length,
        [
            if_(lt(idx(arr, v(i)), v(lo)), block(assign(lo, idx(arr, v(i))))),
            if_(gt(idx(arr, v(i)), v(hi)), block(assign(hi, idx(arr, v(i))))),
        ],
    )
    j = sp.loop("j")
    body.append(decl(s, 0))
    body += count_loop(
        sp, "sum", j, 0, length,
        [
            if_(
                land(gt(idx(arr, v(j)), v(lo)), lt(idx(arr, v(j)), v(hi))),
                block(assign(s, add(v(s), idx(arr, v(j))))),
            )
        ],
    )
    body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["innerSum", "betweenSum"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 7, 13), 0, 60)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("leap_years", "Count leap years in [a, b]")
def _leap_years(sp: Spec) -> ast.Program:
    a, b2, c, y = sp.aux("a"), sp.aux("b"), sp.acc(), sp.loop()
    from repro.lang.dsl import lor

    is_leap = lor(
        land(eq(mod(v(y), 4), 0), ne(mod(v(y), 100), 0)),
        eq(mod(v(y), 400), 0),
    )
    body = [decl(c, 0)]
    body += count_loop(sp, "main", y, v(a), add(v(b2), 1), [if_(is_leap, block(assign(c, add(v(c), 1))))], order_free=True)
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["leapCount", "countLeap"]), [param(a), param(b2)], "int", block(*body))
    start = sp.int("start", 1900, 2000)
    end = start + sp.int("w", 10, 120)
    main = func("main", [], "int", block(pr(call(solver.name, start, end)), ret(0)))
    return _program(sp, [solver, main])


@_register("swap_even_odd", "Swap adjacent pairs then sum even indices")
def _swap_even_odd(sp: Spec) -> ast.Program:
    arr, i, t, s, j = sp.arr(), sp.loop("i"), sp.aux("t"), sp.acc(), sp.loop("j")
    params, length, args_b = solver_array_signature(sp, arr)
    body: List[ast.Stmt] = [
        decl(i, 0),
        while_(
            lt(add(v(i), 1), length),
            block(
                decl(t, idx(arr, v(i))),
                assign(idx(arr, v(i)), idx(arr, add(v(i), 1))),
                assign(idx(arr, add(v(i), 1)), v(t)),
                assign(i, add(v(i), 2)),
            ),
        ),
        decl(s, 0),
    ]
    body += count_loop(
        sp, "sum", j, 0, length,
        [if_(eq(mod(v(j), 2), 0), block(assign(s, add(v(s), idx(arr, v(j))))))],
    )
    body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["pairSwapSum", "shuffleSum"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 6, 12), 0, 50)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b)])


@_register("perfect_numbers", "Count perfect numbers up to n")
def _perfect_numbers(sp: Spec) -> ast.Program:
    n, i, j, s, c = sp.nvar(), sp.loop("i"), sp.loop("j"), sp.acc("s"), sp.acc("c")
    inner = block(if_(eq(mod(v(i), v(j)), 0), block(assign(s, add(v(s), v(j))))))
    body = [decl(c, 0)]
    body += count_loop(
        sp, "outer", i, 2, add(v(n), 1),
        [
            decl(s, 0),
            forto(j, 1, v(i), inner),
            if_(eq(v(s), v(i)), block(assign(c, add(v(c), 1)))),
        ],
    )
    body.append(ret(v(c)))
    solver = func(sp.choice("fname", ["perfects", "countPerfect"]), [param(n)], "int", block(*body))
    arg = sp.int("n", 10, 60)
    main = func("main", [], "int", block(pr(call(solver.name, arg)), ret(0)))
    return _program(sp, [solver, main])


@_register("clamp_sum", "Clamp all elements into a range, return the sum")
def _clamp_sum(sp: Spec) -> ast.Program:
    arr, i, s = sp.arr(), sp.loop(), sp.acc()
    lo_v, hi_v = sp.aux("lo"), sp.aux("hi")
    params, length, args_b = solver_array_signature(sp, arr)
    params = params + [param(lo_v), param(hi_v)]
    use_builtin = sp.lang != "c" and sp.flag("builtin_clamp")
    if use_builtin:
        update = [assign(s, add(v(s), call("max", v(lo_v), call("min", v(hi_v), idx(arr, v(i))))))]
    else:
        x = sp.aux("x")
        update = [
            decl(x, idx(arr, v(i))),
            if_(lt(v(x), v(lo_v)), block(assign(x, v(lo_v)))),
            if_(gt(v(x), v(hi_v)), block(assign(x, v(hi_v)))),
            assign(s, add(v(s), v(x))),
        ]
    body = [decl(s, 0)]
    body += count_loop(sp, "main", i, 0, length, update)
    body.append(ret(v(s)))
    solver = func(sp.choice("fname", ["clampSum", "boundedSum"]), params, "int", block(*body))
    data = sp.ints("arr", sp.int("n", 7, 13), -40, 120)
    lo = sp.int("lo", 0, 20)
    hi = lo + sp.int("w", 20, 60)
    return _program(sp, [solver, _main_with_array(sp, solver, data, args_b, extra_args=(lo, hi))])


ALL_TASK_NAMES = sorted(TASK_REGISTRY)

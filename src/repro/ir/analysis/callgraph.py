"""Call graph + interprocedural summaries propagated to fixpoint over SCCs.

Summaries answer the questions the graph builder and the verifier care
about: does calling ``f`` read or write memory, is it pure, and what is
the transitive set of functions it may reach?  Local facts come from one
scan per function; interprocedural effects propagate over Tarjan SCCs in
reverse topological order, with the members of each cycle unioned to a
shared fixpoint — mutual recursion converges in one step instead of
iterating instruction-level transfer functions.

Declarations (externals — the JLang runtime calls the decompiled side is
full of) are maximally conservative: they may read, write, and call
anything, and are never pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.ir.module import Module


@dataclass(frozen=True)
class FunctionSummary:
    """Flow-insensitive mod/ref facts for one function, callees included."""

    name: str
    defined: bool
    reads_memory: bool
    writes_memory: bool
    calls_external: bool
    may_call: FrozenSet[str]
    size: int

    @property
    def pure(self) -> bool:
        """No memory effects and no reachable external code."""
        return not (self.reads_memory or self.writes_memory or self.calls_external)

    def describe(self) -> str:
        """Stable one-line rendering (the ``callsummary`` node feature)."""
        flags = []
        if self.pure:
            flags.append("pure")
        if self.reads_memory:
            flags.append("reads")
        if self.writes_memory:
            flags.append("writes")
        if self.calls_external:
            flags.append("external")
        return (
            f"summary @{self.name} {'+'.join(flags) or 'none'}"
            f" calls={len(self.may_call)}"
        )


class CallGraph:
    """Who-calls-whom over one module, with derived summaries.

    ``callees[name]`` preserves call-site order (duplicates collapsed,
    first occurrence wins) so every traversal below is deterministic.
    """

    def __init__(self, module: Module):  # noqa: D107
        self.module = module
        self.callees: Dict[str, List[str]] = {}
        self.callers: Dict[str, List[str]] = {f.name: [] for f in module.functions}
        for fn in module.functions:
            out: List[str] = []
            if not fn.is_declaration:
                for instr in fn.instructions():
                    if instr.opcode == "call":
                        callee = instr.extra.get("callee", "")
                        if callee and callee not in out:
                            out.append(callee)
            self.callees[fn.name] = out
        for name, outs in self.callees.items():
            for callee in outs:
                if callee in self.callers and name not in self.callers[callee]:
                    self.callers[callee].append(name)

    # ------------------------------------------------------------------ SCC
    def sccs(self) -> List[List[str]]:
        """Strongly connected components in reverse topological order.

        Iterative Tarjan keyed on function order in the module, so the
        output (and everything derived from it) is process-independent.
        Edges to names with no module entry (unresolved callees) are
        ignored here and accounted for in the summaries instead.
        """
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        out: List[List[str]] = []
        counter = [0]

        known = {f.name for f in self.module.functions}

        def edges(name: str) -> List[str]:
            return [c for c in self.callees.get(name, []) if c in known]

        for root in (f.name for f in self.module.functions):
            if root in index:
                continue
            work: List[tuple] = [(root, iter(edges(root)))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack[root] = True
            while work:
                name, it = work[-1]
                advanced = False
                for child in it:
                    if child not in index:
                        index[child] = lowlink[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack[child] = True
                        work.append((child, iter(edges(child))))
                        advanced = True
                        break
                    if on_stack.get(child):
                        lowlink[name] = min(lowlink[name], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[name])
                if lowlink[name] == index[name]:
                    comp: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        comp.append(member)
                        if member == name:
                            break
                    out.append(sorted(comp))
        return out

    # ------------------------------------------------------------ summaries
    def summaries(self) -> Dict[str, FunctionSummary]:
        """Interprocedural mod/ref/purity facts, one fixpoint per SCC."""
        local: Dict[str, dict] = {}
        for fn in self.module.functions:
            facts = {
                "reads": False,
                "writes": False,
                "external": fn.is_declaration,
                "may_call": set(self.callees[fn.name]),
            }
            if not fn.is_declaration:
                for instr in fn.instructions():
                    if instr.opcode in ("load", "gep"):
                        facts["reads"] = True
                    elif instr.opcode in ("store", "alloca"):
                        facts["writes"] = True
                    elif instr.opcode == "call":
                        callee = instr.extra.get("callee", "")
                        if not callee or not self.module.has(callee):
                            facts["external"] = True
            local[fn.name] = facts

        # SCCs arrive callees-before-callers (reverse topological), so one
        # pass suffices; within an SCC, union the members to their mutual
        # fixpoint before folding callee effects in.
        resolved: Dict[str, dict] = {}
        for comp in self.sccs():
            merged = {
                "reads": False,
                "writes": False,
                "external": False,
                "may_call": set(),
            }
            for name in comp:
                facts = local[name]
                merged["reads"] |= facts["reads"]
                merged["writes"] |= facts["writes"]
                merged["external"] |= facts["external"]
                merged["may_call"] |= facts["may_call"]
            for callee in sorted(merged["may_call"]):
                if callee in comp:
                    continue
                sub = resolved.get(callee)
                if sub is None:
                    merged["external"] = True
                    continue
                merged["reads"] |= sub["reads"]
                merged["writes"] |= sub["writes"]
                merged["external"] |= sub["external"]
                merged["may_call"] |= sub["may_call"]
            for name in comp:
                resolved[name] = merged

        out: Dict[str, FunctionSummary] = {}
        for fn in self.module.functions:
            facts = resolved[fn.name]
            out[fn.name] = FunctionSummary(
                name=fn.name,
                defined=not fn.is_declaration,
                reads_memory=facts["reads"],
                writes_memory=facts["writes"],
                calls_external=facts["external"],
                may_call=frozenset(facts["may_call"] - {fn.name}),
                size=fn.size(),
            )
        return out


def call_graph(module: Module) -> CallGraph:
    """Convenience constructor mirroring the other analysis entry points."""
    return CallGraph(module)

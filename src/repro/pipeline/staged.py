"""The staged compilation pipeline: one implementation of §III's Table-I chain.

Every consumer of the paper's data pipeline — the corpus builder, the
user-facing :class:`~repro.core.pipeline.MatcherPipeline`, the CLI, the
benchmark harness — used to hand-roll the same six steps.  This module is
now the single owner of that chain, decomposed into named stages:

    parse → lower → optimize → [transform] → codegen → decompile → graph

(``transform`` — the seedable augmentation stage from
:mod:`repro.transform` — only runs when a transform chain is configured;
clean compilations are byte-identical to the pre-transform pipeline.)

Each stage is individually timed (cumulatively, in the pipeline's
:class:`~repro.utils.timing.Stats`), and a failing stage raises
:class:`StageFailure` carrying the partial result — so callers can report
exactly which artifacts exist instead of assuming all-or-nothing.

When constructed with an artifact ``store`` (see :mod:`repro.artifacts`),
:meth:`CompilationPipeline.compile` consults it before running any stage
and persists complete results after, making repeat compilations across
processes near-free.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.binary.codegen import compile_module
from repro.binary.decompiler import decompile_bytes
from repro.graphs.programl import ProgramGraph, build_graph
from repro.ir.lowering import lower_program
from repro.ir.module import Function, Module
from repro.ir.passes import optimize
from repro.ir.verifier import verify_all
from repro.lang.generator import frontend
from repro.transform import TransformSpec, chain_id, parse_transform_chain, split_by_level
from repro.utils.timing import Stats

T = TypeVar("T")

#: Bump when any stage's observable output changes; part of every artifact
#: key, so stale cache entries from an older pipeline never hit.
#: staged-2: the optional ``transform`` stage and transform-qualified keys.
#: staged-3: analysis-derived graph relations (``dataflow``/``callsummary``)
#: and feature-qualified keys (``ArtifactKey.graph_features``).
PIPELINE_VERSION = "staged-3"

STAGE_PARSE = "parse"
STAGE_LOWER = "lower"
STAGE_OPTIMIZE = "optimize"
STAGE_TRANSFORM = "transform"
STAGE_CODEGEN = "codegen"
STAGE_DECOMPILE = "decompile"
STAGE_GRAPH = "graph"
STAGES = (
    STAGE_PARSE,
    STAGE_LOWER,
    STAGE_OPTIMIZE,
    STAGE_CODEGEN,
    STAGE_DECOMPILE,
    STAGE_GRAPH,
)

#: Accepted spellings for a transform chain: a spec string
#: (``"deadcode@0.5~3+regrename"``), an iterable of specs, or None/"" for
#: the clean chain.
TransformChain = Union[str, Sequence[TransformSpec], None]


def normalize_transforms(transforms: TransformChain) -> Tuple[TransformSpec, ...]:
    """Coerce any accepted chain spelling to a validated spec tuple."""
    if transforms is None:
        return ()
    if isinstance(transforms, str):
        return parse_transform_chain(transforms)
    return tuple(
        s if isinstance(s, TransformSpec) else TransformSpec.parse(str(s))
        for s in transforms
    )


def parse_source(source_text: str, language: str):
    """The ``parse`` stage: front-end AST tagged with its language."""
    program = frontend(language).parse(source_text)
    program.language = language
    return program


class LazyModule(Module):
    """A module rebuilt by the pipeline's own stages on first access.

    The artifact store hands these out on warm loads instead of storing
    modules: a source module is ``parse`` + ``lower`` of its text, a
    decompiled module is ``decompile`` of its binary, and the entry holds
    both inputs.  Most consumers only read a sample's *graphs*, so the
    rebuild is paid only when someone reads the functions.  ``origin`` is
    plain data — the source text (a ``str``) or the binary (``bytes``) —
    so lazy modules pickle like plain ones, before or after the rebuild.
    """

    def __init__(self, name: str, source_language: str, origin: Union[str, bytes]):  # noqa: D107
        super().__init__(name, source_language=source_language)
        self._origin: Union[str, bytes, None] = origin

    @property
    def functions(self) -> List[Function]:  # type: ignore[override]
        """Function list, rebuilt from ``origin`` on first access.

        ``origin`` is dropped only after a rebuild succeeds: a rebuild that
        raises raises again on every read, and a reader racing a rebuild
        rebuilds too, rather than either seeing an empty module.
        """
        origin = self._origin
        if origin is not None:
            if isinstance(origin, bytes):
                module = decompile_bytes(origin, self.name)
            else:
                module = lower_program(
                    parse_source(origin, self.source_language), name=self.name
                )
            self._functions = module.functions
            self._origin = None
        return self._functions

    @functions.setter
    def functions(self, value: List[Function]) -> None:
        self._functions = value


def lazy_views(
    name: str, language: str, source_text: str, binary_bytes: bytes
) -> Tuple[LazyModule, LazyModule]:
    """The source and decompiled modules of one compile, as lazy shells.

    Named and tagged as the ``lower`` and ``decompile`` stages name and tag
    them, so a rebuild prints exactly like the eager module it replaces.
    """
    return (
        LazyModule(name, language, source_text),
        LazyModule(name + ".dec", "decompiled", binary_bytes),
    )


@dataclass
class CompilationResult:
    """Everything one trip through the pipeline produced.

    Field presence tracks :attr:`stages_completed`: a result rescued from a
    :class:`StageFailure` only populates the fields its completed stages
    own.  ``from_cache`` marks artifact-store hits.  The optimized
    binary-side module is not kept: it lives only between the ``lower``
    and ``codegen`` stages, and what it produced is ``binary_bytes``.
    """

    name: str
    language: str
    opt_level: str
    compiler: str
    source_text: str
    stages_completed: List[str] = field(default_factory=list)
    from_cache: bool = False
    #: Canonical spec strings of the transforms applied (empty = clean).
    transforms: List[str] = field(default_factory=list)
    program: Optional[object] = None  # lang.ast.Program; not persisted
    source_module: Optional[Module] = None
    source_graph: Optional[ProgramGraph] = None
    binary_bytes: Optional[bytes] = None
    decompiled_module: Optional[Module] = None
    decompiled_graph: Optional[ProgramGraph] = None

    @property
    def complete(self) -> bool:
        """True when every canonical stage ran.

        Membership, not list equality: transformed compilations record the
        optional ``transform`` stage between ``optimize`` and ``codegen``.
        """
        return set(STAGES) <= set(self.stages_completed)


class StageFailure(RuntimeError):
    """A pipeline stage raised (or was injected to fail).

    ``result`` is the partial :class:`CompilationResult` up to — but not
    including — the failed stage, so callers can count which artifacts
    really exist (the Table-I statistics fix).
    """

    def __init__(self, stage: str, result: CompilationResult, cause: Optional[BaseException] = None):  # noqa: D107
        detail = f": {cause}" if cause is not None else ""
        super().__init__(f"stage {stage!r} failed for {result.name!r}{detail}")
        self.stage = stage
        self.result = result


class CompilationPipeline:
    """Run the staged source→graphs chain, optionally through an artifact store.

    Parameters
    ----------
    store:
        Optional :class:`repro.artifacts.ArtifactStore`.  When set and
        :meth:`compile` is given a ``cache_key``, complete results are
        read from / written to it.
    timer:
        Shared :class:`~repro.utils.timing.Stats` accumulating per-stage
        wall clock and call counts across every compile this pipeline
        runs (one is created if omitted).
    fail_stage:
        Deterministic failure injection: every compile raises
        :class:`StageFailure` when it reaches this stage.  Models the
        paper's non-compilable submissions and backs the stage-accounting
        tests; leave ``None`` in normal use.
    transforms:
        Default transform chain (spec string or :class:`TransformSpec`
        sequence) applied by every :meth:`compile`; individual calls
        override it.  IR-level transforms run in the ``transform`` stage
        between ``optimize`` and ``codegen``; binary-level transforms
        rewrite the linked program inside ``codegen`` before encoding.
        The source-side view is never transformed — the robustness
        question is how *binaries* drift from clean sources.
    dataflow_edges:
        Emit the analysis-derived ``dataflow`` and ``callsummary`` graph
        relations (see :mod:`repro.ir.analysis`) in the ``graph`` stage.
        Off by default — the clean three-relation graphs stay
        byte-identical to earlier pipelines.  Cache keys must carry the
        matching :attr:`ArtifactKey.graph_features` qualifier.
    verify_passes:
        Debug flag: run the full IR verifier (structural + dataflow)
        after *every* optimization and transform pass, attributing any
        violation to the pass that introduced it.  ``None`` (default)
        reads the ``REPRO_VERIFY_PASSES`` environment variable.
    """

    version = PIPELINE_VERSION

    def __init__(
        self,
        store=None,
        timer: Optional[Stats] = None,
        fail_stage: Optional[str] = None,
        transforms: TransformChain = None,
        dataflow_edges: bool = False,
        verify_passes: Optional[bool] = None,
    ):  # noqa: D107
        self.store = store
        self.timer = timer or Stats()
        self.fail_stage = fail_stage
        self.transforms = normalize_transforms(transforms)
        self.dataflow_edges = dataflow_edges
        if verify_passes is None:
            verify_passes = os.environ.get("REPRO_VERIFY_PASSES", "") not in ("", "0")
        self.verify_passes = verify_passes

    @property
    def graph_features(self) -> str:
        """The :attr:`ArtifactKey.graph_features` value this pipeline produces."""
        return "dataflow" if self.dataflow_edges else ""

    @staticmethod
    def _check_language(language: str, program) -> None:
        # Raised before any stage runs: a caller naming a language we have
        # no front-end for is an API misuse (ValueError), not a pipeline
        # stage failing on valid input.
        if program is None:
            frontend(language)

    # ------------------------------------------------------------- stages
    def _run_stage(self, stage: str, result: CompilationResult, fn: Callable[[], T]) -> T:
        if self.fail_stage == stage:
            raise StageFailure(stage, result)
        try:
            with self.timer.span(stage):
                value = fn()
        except StageFailure:
            raise
        except Exception as exc:  # noqa: BLE001 - rewrapped with stage context
            raise StageFailure(stage, result, exc) from exc
        result.stages_completed.append(stage)
        return value

    def _parse(self, result: CompilationResult) -> None:
        if result.program is None:
            result.program = parse_source(result.source_text, result.language)

    def _lower(self, result: CompilationResult) -> Module:
        """Lower twice; keep the source view, return the binary-side module.

        Two independent lowerings: ``optimize`` mutates in place, and the
        source view must stay -O0 (the paper graphs unoptimized front-end
        IR on the source side).  The binary-side module is passed on as a
        local, so nothing holds it once ``codegen`` has encoded it.
        """
        result.source_module = lower_program(result.program, name=result.name)
        return lower_program(result.program, name=result.name + ".bin")

    def _optimize(self, module: Module, result: CompilationResult) -> None:
        optimize(module, result.opt_level, verify=self.verify_passes)

    def _transform(
        self, module: Module, result: CompilationResult, specs: Sequence[TransformSpec]
    ) -> None:
        # IR-level transforms only touch the *binary-side* module: the
        # source view stays clean, so robustness sweeps measure how far a
        # perturbed binary drifts from the unperturbed source corpus.
        for spec in specs:
            spec.transform.apply_ir(module, spec.rng(result.name), spec.intensity)
            if self.verify_passes:
                verify_all(module, context=f"after transform {spec.spec!r}")

    def _codegen(
        self, module: Module, result: CompilationResult, specs: Sequence[TransformSpec] = ()
    ) -> None:
        program = compile_module(module, style=result.compiler)
        # Binary-level transforms rewrite the linked program before it is
        # encoded — post-link, exactly where an obfuscator would sit.
        for spec in specs:
            spec.transform.apply_binary(program, spec.rng(result.name), spec.intensity)
        result.binary_bytes = program.encode()

    def _decompile(self, result: CompilationResult) -> None:
        result.decompiled_module = decompile_bytes(
            result.binary_bytes, result.name + ".dec"
        )

    def _graph(self, result: CompilationResult) -> None:
        result.source_graph = build_graph(
            result.source_module, name=result.name, dataflow=self.dataflow_edges
        )
        result.decompiled_graph = build_graph(
            result.decompiled_module,
            name=result.name + ".dec",
            dataflow=self.dataflow_edges,
        )

    # ------------------------------------------------------------ running
    def compile(
        self,
        source_text: str,
        language: str,
        name: str = "unit",
        opt_level: str = "Oz",
        compiler: str = "clang",
        *,
        program=None,
        cache_key=None,
        cache_lookup: bool = True,
        transforms: TransformChain = None,
    ) -> CompilationResult:
        """Run every stage (or load the stored result) for one source file.

        ``program`` optionally supplies an already-parsed AST (the corpus
        generator round-trips text through the front-end anyway), making
        the parse stage a recorded no-op.  ``cache_key`` is an
        :class:`repro.artifacts.ArtifactKey`; with a ``store`` configured,
        a hit skips every stage and a completed miss is persisted.
        ``cache_lookup=False`` skips the read (callers that already probed
        the store pass this so misses are not double-counted) while still
        persisting the result.  ``transforms`` overrides the pipeline's
        default chain for this compile (pass ``()`` or ``""`` to force a
        clean compile on a transform-configured pipeline); a ``cache_key``
        must be qualified with the same chain (``ArtifactKey.transforms``)
        — a mismatch raises here, because serving a clean cached artifact
        as a transformed result (or persisting a transformed result under
        the clean key) would silently corrupt the store.
        """
        self._check_language(language, program)
        chain = self.transforms if transforms is None else normalize_transforms(transforms)
        ir_specs, binary_specs = split_by_level(chain)
        if cache_key is not None:
            key_chain = getattr(cache_key, "transforms", None)
            if key_chain is not None and key_chain != chain_id(chain):
                raise ValueError(
                    f"cache_key names transform chain {key_chain!r} but this "
                    f"compile applies {chain_id(chain)!r}; qualify the key "
                    "with the same chain"
                )
            key_features = getattr(cache_key, "graph_features", None)
            if key_features is not None and key_features != self.graph_features:
                raise ValueError(
                    f"cache_key names graph features {key_features!r} but this "
                    f"pipeline emits {self.graph_features!r}; qualify the key "
                    "with the same features"
                )
        if cache_lookup and cache_key is not None and self.store is not None:
            with self.timer.span("store.load"):
                cached = self.store.get(cache_key)
            if cached is not None:
                cached.from_cache = True
                return cached
        result = CompilationResult(
            name=name,
            language=language,
            opt_level=opt_level,
            compiler=compiler,
            source_text=source_text,
            program=program,
            # Application order (IR-level first), matching chain_id's
            # canonical form — not necessarily the caller's spelling.
            transforms=[s.spec for s in ir_specs + binary_specs],
        )
        self._run_stage(STAGE_PARSE, result, lambda: self._parse(result))
        module = self._run_stage(STAGE_LOWER, result, lambda: self._lower(result))
        self._run_stage(STAGE_OPTIMIZE, result, lambda: self._optimize(module, result))
        if chain:
            self._run_stage(
                STAGE_TRANSFORM, result, lambda: self._transform(module, result, ir_specs)
            )
        self._run_stage(
            STAGE_CODEGEN, result, lambda: self._codegen(module, result, binary_specs)
        )
        self._run_stage(STAGE_DECOMPILE, result, lambda: self._decompile(result))
        self._run_stage(STAGE_GRAPH, result, lambda: self._graph(result))
        if cache_key is not None and self.store is not None and result.complete:
            with self.timer.span("store.save"):
                self.store.put(cache_key, result)
        return result

    # --------------------------------------------------------- fast paths
    def source_graph(self, source_text: str, language: str, name: str = "unit", *, program=None) -> ProgramGraph:
        """Source text → source-IR graph, skipping the whole binary half."""
        self._check_language(language, program)
        result = CompilationResult(
            name=name,
            language=language,
            opt_level="",
            compiler="",
            source_text=source_text,
            program=program,
        )
        self._run_stage(STAGE_PARSE, result, lambda: self._parse(result))

        def lower_source_only() -> None:
            result.source_module = lower_program(result.program, name=name)

        self._run_stage(STAGE_LOWER, result, lower_source_only)

        def graph_source_only() -> None:
            result.source_graph = build_graph(
                result.source_module, name=name, dataflow=self.dataflow_edges
            )

        self._run_stage(STAGE_GRAPH, result, graph_source_only)
        return result.source_graph

    def binary_graph(self, raw: bytes, name: str = "binary") -> ProgramGraph:
        """Binary bytes → decompiled-IR graph (the pipeline's back half).

        Runs with the cycle collector paused (:func:`collector_paused`).
        The lifted module lives only in :meth:`_lift_and_graph`'s frame, so
        it is already garbage when the pause ends and collects young.
        """
        with collector_paused(self.timer):
            return self._lift_and_graph(raw, name)

    def _lift_and_graph(self, raw: bytes, name: str) -> ProgramGraph:
        with self.timer.span(STAGE_DECOMPILE):
            module = decompile_bytes(raw, name)
        with self.timer.span(STAGE_GRAPH):
            return build_graph(module, name=name, dataflow=self.dataflow_edges)


# Pause bookkeeping, shared by every thread: the outermost pause records
# whether the collector was on and the last one out restores it.
_pause_lock = threading.RLock()
_pause_depth = 0
_pause_resumes = False


@contextmanager
def collector_paused(stats: Stats) -> Iterator[None]:
    """Pause the cycle collector for the block; collect the youngest after.

    IR is a dense web of tracked cycles (parent links, branch targets,
    phi operands): in a worker-sized heap, collections triggered while a
    module is being built cost more than building it.

    Re-entrant and thread-safe: a depth count under a lock, so nested or
    concurrent pauses disable the collector once and the last to leave
    restores it, whatever the block raised.  A collector the caller had
    disabled stays disabled and nothing is collected.  On a clean exit the
    last pause runs ``gc.collect(0)``: everything the block allocated is
    still in the youngest generation, so a young-only collection frees all
    of its cyclic garbage.  It also advances only the middle generation's
    count; ``collect(1)`` would advance the oldest's and bring the next
    full collection onto whatever runs after the block.  Whatever the
    block leaves reachable is promoted by this collection, so it should
    hand out only what its caller keeps (graphs, bytes): a module dropped
    after the block would be freed only by a full collection.  After an
    exception the traceback still holds the block's frames, so nothing is
    collected then.  The closing collection is timed as a ``gc.collect``
    span on the caller's ``stats``, so a breakdown of the block's cost
    adds up to its wall clock.

    Two callers wrap whole units of work whose IR dies inside the block:
    :meth:`CompilationPipeline.binary_graph` (the query front end; only
    the graph leaves) and the corpus builder's cold compile (graphs and
    bytes leave; the sample's modules are :class:`LazyModule` shells).
    Never wrap a call whose modules outlive it, such as a bare
    :meth:`CompilationPipeline.compile` kept by its caller, or a lazy
    module rebuild.
    """
    global _pause_depth, _pause_resumes
    with _pause_lock:
        if _pause_depth == 0:
            _pause_resumes = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    completed = False
    try:
        yield
        completed = True
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_resumes:
                if completed:
                    # The span opens before enable(): its own allocation
                    # would otherwise start the collection outside it.
                    with stats.span("gc.collect"):
                        gc.enable()
                        gc.collect(0)
                else:
                    gc.enable()

"""Corpus builder: source files → source IR graphs + decompiled-binary graphs.

Runs the paper's full data pipeline for every generated solution through
the shared :class:`~repro.pipeline.CompilationPipeline`:

  source text → front-end parse → IR (``#LLVM-IR``) → optimize →
  compile to binary (``#Binary Files``) → RetDec-substitute decompile
  (``#Decompiled LLVM-IR``) → ProGraML-substitute graphs.

A deterministic per-file "compile failure" models the paper's discarded
non-compilable submissions (Table I shows #IR < #Sources for every
language); failed files are counted but excluded downstream.  Table-I
statistics are stage-accurate: a sample only increments the counters for
the stages its pipeline run actually completed.

With an :class:`~repro.artifacts.ArtifactStore` attached (directly or via
``DataConfig.artifact_dir``), already-compiled samples load from disk —
skipping generation, parsing, optimization, codegen and decompilation
entirely — and :meth:`CorpusBuilder.build_parallel` fans the cold
compiles out over the process-wide warm worker pool
(:func:`repro.exec.pool.get_pool`) while keeping sample order (and
sample bytes) identical to the serial path.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import shutil
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro.lang
from repro.artifacts import ArtifactKey, ArtifactStore
from repro.config import DataConfig
from repro.graphs.programl import ProgramGraph
from repro.ir.module import Module
from repro.lang.generator import SolutionGenerator, frontend
from repro.lang.tasks import TASK_REGISTRY
from repro.pipeline import (
    STAGE_CODEGEN,
    STAGE_DECOMPILE,
    STAGE_LOWER,
    CompilationPipeline,
    CompilationResult,
    StageFailure,
    collector_paused,
    lazy_views,
)


@dataclass
class CodeSample:
    """One corpus entry: a solution with both source-IR and binary views.

    The two modules are :func:`~repro.pipeline.staged.lazy_views` shells
    over ``source_text`` and ``binary_bytes``, cold build or warm load
    alike: a corpus holds graphs and bytes, and only a caller that reads a
    module's functions pays for rebuilding it.
    """

    task: str
    variant: int
    language: str
    source_text: str
    source_module: Module = field(repr=False)
    source_graph: ProgramGraph = field(repr=False)
    binary_bytes: bytes = field(repr=False)
    decompiled_module: Module = field(repr=False)
    decompiled_graph: ProgramGraph = field(repr=False)
    opt_level: str = "Oz"
    compiler: str = "clang"

    @property
    def identifier(self) -> str:
        """Stable id like ``gcd/v2.java``."""
        return f"{self.task}/v{self.variant}.{self.language}"


def _compiles(seed: int, identifier: str, failure_pct: int) -> bool:
    digest = hashlib.sha256(f"{seed}:{identifier}".encode()).digest()
    return digest[0] % 100 >= failure_pct


@lru_cache(maxsize=1)
def _generator_fingerprint() -> str:
    """Content hash of the source-generation code (``repro.lang``).

    Part of every corpus artifact key: generation is not a pipeline stage,
    so ``PIPELINE_VERSION`` cannot invalidate cached entries when a task
    template or renderer changes — this does.
    """
    lang_dir = Path(repro.lang.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(lang_dir.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# Counter → pipeline stage that has to finish for it to count.  ``sources``
# is unconditional; the rest used to be incremented in lockstep after the
# whole chain returned, which over-counted whenever a late stage failed.
_STAGE_COUNTERS = (
    ("llvm_ir", STAGE_LOWER),
    ("binaries", STAGE_CODEGEN),
    ("decompiled", STAGE_DECOMPILE),
)


class CorpusBuilder:
    """Builds :class:`CodeSample` corpora from the solution generator.

    Parameters
    ----------
    config:
        Corpus coordinates (tasks, variants, seed, default opt/compiler).
    store:
        Optional artifact store; defaults to one rooted at
        ``config.artifact_dir`` when that is set.
    pipeline:
        Optional pre-built :class:`CompilationPipeline` (tests inject
        failure modes through this); defaults to one wired to ``store``.
    """

    def __init__(
        self,
        config: DataConfig,
        store: Optional[ArtifactStore] = None,
        pipeline: Optional[CompilationPipeline] = None,
    ):  # noqa: D107
        self.config = config
        self.generator = SolutionGenerator(
            seed=config.seed, independent=config.independent_solutions
        )
        if store is None and config.artifact_dir:
            store = ArtifactStore(config.artifact_dir)
        self.store = store
        self.pipeline = pipeline or CompilationPipeline(
            store=store, dataflow_edges=config.dataflow_edges
        )
        self.timer = self.pipeline.timer
        self.stats: Dict[str, Dict[str, int]] = {}

    def tasks(self) -> List[str]:
        """The task names this corpus covers."""
        return sorted(TASK_REGISTRY)[: self.config.num_tasks]

    # ------------------------------------------------------------ keying
    def _source_id(self) -> str:
        # The generator is deterministic in (seed, independent, task,
        # variant, language); identifying the source by its generation spec
        # lets warm builds skip rendering + parsing entirely.  The code
        # fingerprint covers the generator implementation itself (task
        # templates, renderers, front-ends), so editing any of them
        # invalidates old entries instead of silently serving stale text.
        return (
            f"gen:{self.config.seed}:{int(self.config.independent_solutions)}"
            f":{_generator_fingerprint()}"
        )

    def artifact_key(
        self,
        task: str,
        variant: int,
        language: str,
        opt_level: str,
        compiler: str,
        transforms: str = "",
    ) -> ArtifactKey:
        """The store key for one corpus sample.

        ``transforms`` names the transform-chain variant (see
        :mod:`repro.transform`); the default ``""`` keys the clean
        compilation the builder itself performs.  The robustness harness
        uses non-empty chains to persist transformed variants of the same
        corpus coordinates alongside the clean entries.
        """
        return ArtifactKey(
            task=task,
            variant=variant,
            language=language,
            opt_level=opt_level,
            compiler=compiler,
            source_id=self._source_id(),
            transforms=transforms,
            graph_features=self.pipeline.graph_features,
        )

    def _items(self, languages: Sequence[str]) -> List[Tuple[str, int, str]]:
        """Deterministic build order: task-major, then variant, then language.

        An unknown language raises ValueError here, before anything is built.
        """
        for lang in languages:
            frontend(lang)
        return [
            (task, variant, lang)
            for task in self.tasks()
            for variant in range(self.config.variants)
            for lang in languages
        ]

    # ---------------------------------------------------------- building
    def build(
        self,
        languages: Sequence[str],
        opt_level: Optional[str] = None,
        compiler: Optional[str] = None,
    ) -> List[CodeSample]:
        """Generate, compile, decompile and graph every solution."""
        opt_level = opt_level or self.config.opt_level
        compiler = compiler or self.config.compiler
        items = self._items(languages)
        samples: List[CodeSample] = []
        self.stats = {
            lang: {"sources": 0, "llvm_ir": 0, "binaries": 0, "decompiled": 0}
            for lang in languages
        }
        for task, variant, lang in items:
            self.stats[lang]["sources"] += 1
            identifier = f"{task}/v{variant}.{lang}"
            if not _compiles(
                self.config.seed, identifier, self.config.compile_failure_pct
            ):
                continue
            sample = self._build_one(task, variant, lang, opt_level, compiler)
            if sample is not None:
                samples.append(sample)
        return samples

    def _build_one(
        self, task: str, variant: int, lang: str, opt_level: str, compiler: str
    ) -> Optional[CodeSample]:
        """One sample through the shared pipeline (store-first); None on failure."""
        key = (
            self.artifact_key(task, variant, lang, opt_level, compiler)
            if self.store is not None
            else None
        )
        if key is not None:
            with self.timer.span("store.load"):
                cached = self.store.get(key)
            if cached is not None:
                self._count_stages(lang, cached.stages_completed)
                return self._sample_from_result(task, variant, lang, cached)
            # Miss (absent or unreadable entry): recompile, overwriting it.
        # Everything the compile builds but the sample (ASTs, all three IR
        # modules, the decompiler's intermediates) is cyclic garbage by the
        # time the pause ends, so it dies young instead of being promoted
        # by collections that run while it is still reachable.
        with collector_paused(self.timer):
            return self._compile_one(task, variant, lang, opt_level, compiler, key)

    def _compile_one(
        self,
        task: str,
        variant: int,
        lang: str,
        opt_level: str,
        compiler: str,
        key: Optional[ArtifactKey],
    ) -> Optional[CodeSample]:
        """Generate and compile one sample; the result dies with this frame."""
        sf = self.generator.generate(task, variant, lang)
        try:
            result = self.pipeline.compile(
                sf.text,
                lang,
                name=sf.identifier,
                opt_level=opt_level,
                compiler=compiler,
                program=sf.program,
                cache_key=key,
                # The caller already probed the store; don't count it twice.
                cache_lookup=False,
            )
        except StageFailure as failure:
            self._count_stages(lang, failure.result.stages_completed)
            return None
        self._count_stages(lang, result.stages_completed)
        return self._sample_from_result(task, variant, lang, result)

    def _count_stages(self, lang: str, stages_completed: Sequence[str]) -> None:
        completed = set(stages_completed)
        counters = self.stats.setdefault(
            lang, {"sources": 0, "llvm_ir": 0, "binaries": 0, "decompiled": 0}
        )
        for counter, stage in _STAGE_COUNTERS:
            if stage in completed:
                counters[counter] += 1

    def _sample_from_result(
        self, task: str, variant: int, lang: str, result: CompilationResult
    ) -> CodeSample:
        source_module, decompiled_module = lazy_views(
            result.name, lang, result.source_text, result.binary_bytes
        )
        return CodeSample(
            task=task,
            variant=variant,
            language=lang,
            source_text=result.source_text,
            source_module=source_module,
            source_graph=result.source_graph,
            binary_bytes=result.binary_bytes,
            decompiled_module=decompiled_module,
            decompiled_graph=result.decompiled_graph,
            opt_level=result.opt_level,
            compiler=result.compiler,
        )

    # ---------------------------------------------------------- parallel
    def build_parallel(
        self,
        languages: Sequence[str],
        opt_level: Optional[str] = None,
        compiler: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> List[CodeSample]:
        """Like :meth:`build`, with cold compiles fanned out over processes.

        Workers populate the (shared, atomically-written) artifact store;
        the parent then assembles the corpus with a plain warm
        :meth:`build`, so ordering, statistics and sample bytes are
        *identical* to the serial path.  Without a configured store a
        temporary one is used for the duration of the call.
        """
        opt_level = opt_level or self.config.opt_level
        compiler = compiler or self.config.compiler
        workers = workers if workers is not None else multiprocessing.cpu_count()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        items = self._items(languages)
        scratch: Optional[str] = None
        original_store, original_pipeline = self.store, self.pipeline
        if self.store is None:
            scratch = tempfile.mkdtemp(prefix="repro-artifacts-")
            self.store = ArtifactStore(scratch)
            self.pipeline = CompilationPipeline(
                store=self.store,
                timer=self.timer,
                dataflow_edges=self.config.dataflow_edges,
            )
        try:
            todo = [
                item
                for item in items
                if _compiles(
                    self.config.seed,
                    f"{item[0]}/v{item[1]}.{item[2]}",
                    self.config.compile_failure_pct,
                )
                and self.artifact_key(*item, opt_level, compiler) not in self.store
            ]
            if todo and workers > 1:
                # Function-local import: repro.exec imports repro.data.pairs
                # (via the runner), which imports this module — the pool is
                # only needed on the parallel path anyway.
                from repro.exec.pool import get_pool

                # Strided chunks over min(workers, len(todo)) are all
                # non-empty, so the pool never exceeds the requested
                # worker count and never holds idle processes.  The pool
                # itself is the process-wide warm one: repeated builds
                # (bench loops, multi-language corpora) reuse resident
                # workers instead of paying a fork+import per call.
                fan_out = min(workers, len(todo))
                payloads = [
                    ((self.config, str(self.store.root), todo[i::fan_out], opt_level, compiler),)
                    for i in range(fan_out)
                ]
                get_pool(fan_out).run(_compile_chunk, payloads)
            elif todo:
                _compile_chunk(
                    (self.config, str(self.store.root), todo, opt_level, compiler)
                )
            return self.build(languages, opt_level, compiler)
        finally:
            self.store, self.pipeline = original_store, original_pipeline
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)


def _compile_chunk(payload) -> int:
    """Worker entry point: compile a slice of corpus items into the store."""
    config, store_root, items, opt_level, compiler = payload
    builder = CorpusBuilder(config, store=ArtifactStore(store_root))
    built = 0
    for task, variant, lang in items:
        if builder._build_one(task, variant, lang, opt_level, compiler) is not None:
            built += 1
    return built


def corpus_statistics(builder: CorpusBuilder) -> Dict[str, Dict[str, int]]:
    """Table-I-style statistics recorded during the last :meth:`build`."""
    return builder.stats

"""Robustness evaluation: retrieval quality under binary transformations.

The paper's tables measure matching on *clean* compiler output.  Real
provenance and similarity tooling faces adversarial inputs: binaries that
were inlined differently, padded with dead code, instruction-substituted,
register-renamed or laid out in a different block order.  This harness
answers the table the paper does not have — a **robustness matrix** of
retrieval quality (MRR / Hit@k / MAP) per transform chain per intensity.

The evaluation is engineered around the same encode-once economics as the
serving layer:

* the **clean candidate corpus is embedded exactly once** into a
  :class:`~repro.index.ShardedEmbeddingIndex` persisted at ``index_root``
  — warm runs ``open()`` it and never re-encode a candidate;
* transformed query binaries are compiled through the staged pipeline
  with transform-qualified :class:`~repro.artifacts.ArtifactKey` entries,
  so warm runs load every variant from the artifact store instead of
  recompiling;
* only the transformed **query graphs** are re-embedded per cell — the
  O(Q) side of the O(Q + C) split.

``benchmarks/bench_robustness.py`` gates all three properties (plus
transform determinism) and records the matrix in
``benchmarks/perf/BENCH_robustness.json``; the CLI front-end is
``python -m repro robustness``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.artifacts import ArtifactStore
from repro.config import DataConfig
from repro.data.corpus import CodeSample, CorpusBuilder
from repro.eval.retrieval import RetrievalResult, evaluate_retrieval
from repro.graphs.programl import ProgramGraph
from repro.index import (
    EmbeddingIndex,
    ShardedEmbeddingIndex,
    graph_fingerprint,
    validate_mode,
)
from repro.index.sharded import MANIFEST_NAME
from repro.transform import TransformSpec, chain_id
from repro.utils.tables import Table

#: Chain names the CLI and bench sweep by default: every registered
#: transform alone, plus one representative stacked chain.
DEFAULT_CHAINS = (
    "deadcode",
    "instsub",
    "blockreorder",
    "regrename",
    "pad",
    "inline",
    "deadcode+regrename",
)

DEFAULT_INTENSITIES = (0.5, 1.0)

CLEAN = "clean"


def chain_specs(chain: str, intensity: float, seed: int) -> Tuple[TransformSpec, ...]:
    """Instantiate a ``+``-joined chain at one sweep intensity.

    Plain names (``"deadcode+regrename"``) take the sweep's ``intensity``
    and ``seed`` — the usual case, keeping the matrix two-dimensional.
    Spec-grammar decorations pin their own knob independently: ``@`` pins
    the intensity (``"deadcode@0.25"`` ignores the sweep intensity), ``~``
    pins the seed (``"deadcode~9"`` ignores the sweep seed but still
    sweeps intensity).  Unknown names and malformed specs raise
    :class:`~repro.transform.TransformError` here, before any compilation.
    """
    specs = []
    for part in chain.split("+"):
        part = part.strip()
        if not part:
            continue
        parsed = TransformSpec.parse(part)
        specs.append(
            TransformSpec(
                parsed.name,
                parsed.intensity if "@" in part else intensity,
                parsed.seed if "~" in part else seed,
            )
        )
    return tuple(specs)


@dataclass
class RobustnessCell:
    """One matrix cell: a transform chain at one intensity.

    ``spec`` records the canonical chain id actually compiled (empty for
    the clean baseline) — the ground truth when chain elements pin their
    own intensity/seed and the sweep labels alone would mislead.
    """

    chain: str  # display name ("clean" or e.g. "deadcode+regrename")
    intensity: float
    result: RetrievalResult
    spec: str = ""

    def to_dict(self) -> dict:
        """JSON-ready metrics (what the perf record persists).

        One ``hit<k>`` entry per rank the sweep actually computed — a
        rank not in ``ks`` is absent, never reported as a 0.0 that would
        read as catastrophic retrieval failure.
        """
        out = {
            "mrr": self.result.mrr,
            "map": self.result.mean_average_precision,
            "num_queries": self.result.num_queries,
        }
        for k in sorted(self.result.hit_at):
            out[f"hit{k}"] = self.result.hit_at[k]
        return out


@dataclass
class RobustnessReport:
    """The full sweep: clean baseline plus every (chain, intensity) cell."""

    cells: List[RobustnessCell] = field(default_factory=list)
    num_candidates: int = 0
    num_queries: int = 0

    @property
    def clean(self) -> RobustnessCell:
        """The untransformed baseline cell."""
        for cell in self.cells:
            if cell.chain == CLEAN:
                return cell
        raise ValueError("report has no clean baseline cell")

    def matrix(self) -> Dict[str, Dict[str, dict]]:
        """``{chain: {intensity: metrics}}`` — the Table-style matrix.

        Each metrics dict carries the canonical ``spec`` actually
        compiled, so pinned chain elements are unambiguous in the JSON.
        """
        out: Dict[str, Dict[str, dict]] = {}
        for cell in self.cells:
            d = cell.to_dict()
            if cell.spec:
                d["spec"] = cell.spec
            out.setdefault(cell.chain, {})[f"{cell.intensity:g}"] = d
        return out

    def render(self) -> str:
        """Human-readable robustness table, rows in sweep order (clean first)."""
        table = Table(
            f"Retrieval robustness: {self.num_queries} transformed queries "
            f"x {self.num_candidates} clean candidates",
            ["Transform", "Intensity", "MRR", "Hit@1", "Hit@5", "MAP"],
        )
        for cell in self.cells:
            hit_at = cell.result.hit_at

            def shown(k: int) -> object:
                return round(hit_at[k], 3) if k in hit_at else "-"

            table.add_row(
                cell.chain,
                f"{cell.intensity:g}",
                round(cell.result.mrr, 3),
                shown(1),
                shown(5),
                round(cell.result.mean_average_precision, 3),
            )
        return table.render()


class RobustnessHarness:
    """Sweep transform chains against a clean retrieval corpus.

    Parameters
    ----------
    trainer:
        A trained :class:`~repro.core.trainer.MatchTrainer`.
    config:
        Corpus coordinates (:class:`~repro.config.DataConfig`); the same
        generator determinism contract as every other workload.
    source_languages / query_language:
        Candidate corpus languages (source graphs, indexed clean) and the
        query-side language (compiled to binaries, transformed,
        decompiled, embedded per cell).
    store:
        Optional :class:`~repro.artifacts.ArtifactStore` shared by the
        clean corpus build *and* every transformed variant; warm runs
        recompile nothing.
    index_root:
        Optional directory for the persisted sharded clean index.  When
        it already holds an index for this model, it is opened instead of
        rebuilt — zero candidate encoder passes on warm runs.
    transform_seed:
        Seed handed to every :class:`~repro.transform.TransformSpec` the
        sweep instantiates.
    max_queries:
        Cap on the query set (0 = all query-language samples).
    mode / nprobe / quantizer_cells:
        ``mode="ann"`` scores every cell through the clean index's coarse
        quantizer (probing ``nprobe`` cells per query) instead of the
        exact sweep — requires ``index_root`` (the quantizer lives in the
        persisted manifest).  ``quantizer_cells`` sets how many k-means
        cells to train when the index is built here (0 = ``sqrt(C)``,
        clamped to the corpus).
    """

    def __init__(
        self,
        trainer,
        config: DataConfig,
        source_languages: Sequence[str] = ("java",),
        query_language: str = "c",
        store: Optional[ArtifactStore] = None,
        index_root=None,
        shard_size: int = 16,
        transform_seed: int = 0,
        max_queries: int = 0,
        mode: str = "exact",
        nprobe: int = 8,
        quantizer_cells: int = 0,
    ):  # noqa: D107
        if trainer.model is None:
            raise ValueError("trainer has no trained model")
        validate_mode(mode, nprobe)
        if mode == "ann" and index_root is None:
            raise ValueError(
                "mode='ann' needs index_root= (the coarse quantizer is "
                "persisted in the sharded index manifest)"
            )
        self.trainer = trainer
        self.config = config
        self.source_languages = list(source_languages)
        self.query_language = query_language
        self.store = store
        self.index_root = Path(index_root) if index_root is not None else None
        self.shard_size = shard_size
        self.transform_seed = transform_seed
        self.max_queries = max_queries
        self.mode = mode
        self.nprobe = nprobe
        self.quantizer_cells = quantizer_cells
        self.builder = CorpusBuilder(config, store=store)
        # One pipeline for clean corpus builds and transformed-query
        # compiles alike: shared store, shared timer.
        self.pipeline = self.builder.pipeline
        self._candidates: Optional[List[Tuple[ProgramGraph, str]]] = None
        self._candidate_keys: Optional[List[str]] = None
        self._query_samples: Optional[List[CodeSample]] = None
        self._index = None

    # ------------------------------------------------------------- corpus
    def _build_corpus(self) -> None:
        languages = list(self.source_languages)
        if self.query_language not in languages:
            languages.append(self.query_language)
        samples = self.builder.build(languages)
        self._candidates = [
            (s.source_graph, s.task)
            for s in samples
            if s.language in self.source_languages
        ]
        queries = [s for s in samples if s.language == self.query_language]
        if self.max_queries:
            queries = queries[: self.max_queries]
        self._query_samples = queries

    @property
    def candidates(self) -> List[Tuple[ProgramGraph, str]]:
        """Clean candidate ``(source graph, task)`` pairs, build order."""
        if self._candidates is None:
            self._build_corpus()
        return self._candidates

    @property
    def candidate_keys(self) -> List[str]:
        """Candidate graph fingerprints, hashed once for the whole sweep.

        Every matrix cell re-validates the clean index against the
        candidate corpus; hashing C graphs once here instead of once per
        cell keeps that check O(C) total rather than O(cells × C).
        """
        if self._candidate_keys is None:
            self._candidate_keys = [
                graph_fingerprint(g) for g, _ in self.candidates
            ]
        return self._candidate_keys

    @property
    def query_samples(self) -> List[CodeSample]:
        """Clean query-language samples (the transform substrate)."""
        if self._query_samples is None:
            self._build_corpus()
        return self._query_samples

    def clean_queries(self) -> List[Tuple[ProgramGraph, str]]:
        """Untransformed query ``(decompiled graph, task)`` pairs."""
        return [(s.decompiled_graph, s.task) for s in self.query_samples]

    # -------------------------------------------------------------- index
    def clean_index(self):
        """The clean candidate index: open the persisted one, else build.

        With an ``index_root``, the built index is sharded to disk so the
        next harness (or process) reuses the cached clean embeddings; the
        model fingerprint in the manifest guards against serving another
        checkpoint's embeddings.
        """
        if self._index is not None:
            return self._index
        if self.index_root is not None and (self.index_root / MANIFEST_NAME).exists():
            self._index = ShardedEmbeddingIndex.open(self.index_root, self.trainer)
            self._ensure_quantizer()
            return self._index
        index = EmbeddingIndex(self.trainer)
        index.add(
            [g for g, _ in self.candidates],
            metas=[{"task": task} for _, task in self.candidates],
        )
        if self.index_root is not None:
            ShardedEmbeddingIndex.from_index(
                index, self.index_root, self.shard_size, overwrite=True
            )
            self._index = ShardedEmbeddingIndex.open(self.index_root, self.trainer)
            self._ensure_quantizer()
        else:
            self._index = index
        return self._index

    def _ensure_quantizer(self) -> None:
        """In ann mode, make sure the opened index carries a quantizer.

        A persisted index built by an exact-mode run lacks one; training
        it here (and rewriting the manifest) upgrades the cache in place,
        so warm exact runs and later ann runs share one clean index.
        """
        if self.mode != "ann" or self._index.quantizer is not None:
            return
        cells = self.quantizer_cells
        if cells <= 0:
            cells = max(1, int(round(len(self._index) ** 0.5)))
        self._index.train_quantizer(min(cells, len(self._index)))

    # ------------------------------------------------------------ queries
    def transformed_queries(
        self, chain: str, intensity: float
    ) -> List[Tuple[ProgramGraph, str]]:
        """Compile every query sample under a transform chain.

        Each variant is keyed in the artifact store by its canonical
        chain id, so re-runs (and other processes) load the transformed
        compilation instead of redoing it.
        """
        specs = chain_specs(chain, intensity, self.transform_seed)
        canonical = chain_id(specs)
        out: List[Tuple[ProgramGraph, str]] = []
        for s in self.query_samples:
            key = None
            if self.store is not None:
                key = self.builder.artifact_key(
                    s.task, s.variant, s.language, s.opt_level, s.compiler,
                    transforms=canonical,
                )
            result = self.pipeline.compile(
                s.source_text,
                s.language,
                name=s.identifier,
                opt_level=s.opt_level,
                compiler=s.compiler,
                cache_key=key,
                transforms=specs,
            )
            out.append((result.decompiled_graph, s.task))
        return out

    # -------------------------------------------------------------- sweep
    def evaluate(
        self,
        chains: Sequence[str] = DEFAULT_CHAINS,
        intensities: Sequence[float] = DEFAULT_INTENSITIES,
        ks: Sequence[int] = (1, 3, 5, 10),
    ) -> RobustnessReport:
        """Run the full sweep: clean baseline plus every chain × intensity.

        Every cell scores through the one clean index —
        :func:`~repro.eval.retrieval.evaluate_retrieval`'s ``index=`` path
        verifies entry-by-entry that the index really is this candidate
        corpus under this model, so cached embeddings can never silently
        drift from the graphs they claim to represent.

        Chains whose elements pin their own intensity (``"deadcode@0.25"``)
        resolve to the same canonical spec at every sweep intensity; only
        the first occurrence is evaluated, so the matrix never repeats (or
        mislabels) a byte-identical cell.
        """
        index = self.clean_index()
        report = RobustnessReport(
            num_candidates=len(self.candidates),
            num_queries=len(self.query_samples),
        )
        clean = evaluate_retrieval(
            None, self.clean_queries(), self.candidates, ks=ks, index=index,
            candidate_keys=self.candidate_keys,
            mode=self.mode, nprobe=self.nprobe,
        )
        report.cells.append(RobustnessCell(CLEAN, 0.0, clean))
        seen = set()
        for chain in chains:
            for intensity in intensities:
                canonical = chain_id(
                    chain_specs(chain, intensity, self.transform_seed)
                )
                if canonical in seen:
                    continue
                seen.add(canonical)
                queries = self.transformed_queries(chain, intensity)
                result = evaluate_retrieval(
                    None, queries, self.candidates, ks=ks, index=index,
                    candidate_keys=self.candidate_keys,
                    mode=self.mode, nprobe=self.nprobe,
                )
                report.cells.append(
                    RobustnessCell(chain, float(intensity), result, spec=canonical)
                )
        return report

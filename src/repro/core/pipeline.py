"""End-to-end user-facing pipeline (Figure 1 of the paper).

``MatcherPipeline`` is what a downstream user touches: give it a trained
:class:`~repro.core.trainer.MatchTrainer` and it scores raw inputs —
source text in any supported language against binary bytes — running the
whole stack through the shared staged
:class:`~repro.pipeline.CompilationPipeline` (front-end → IR → graph on
the source side; disassemble → decompile → graph on the binary side).
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.artifacts import ArtifactKey, source_text_id
from repro.core.trainer import MatchTrainer
from repro.graphs.programl import ProgramGraph
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex
from repro.pipeline import CompilationPipeline


@dataclass
class CompiledViews:
    """Both views of one program: source-IR graph and binary."""

    source_graph: ProgramGraph
    binary_bytes: bytes
    decompiled_graph: ProgramGraph


def compile_to_views(
    source_text: str,
    language: str,
    opt_level: str = "Oz",
    compiler: str = "clang",
    name: str = "unit",
    store=None,
) -> CompiledViews:
    """Run the full staged pipeline on one source file.

    ``store`` optionally names an :class:`~repro.artifacts.ArtifactStore`;
    repeat compilations of the same text under the same conditions then
    load from disk instead of re-running every stage.
    """
    pipeline = CompilationPipeline(store=store)
    key = None
    if store is not None:
        key = ArtifactKey(
            task="", variant=-1, language=language, opt_level=opt_level,
            compiler=compiler, source_id=source_text_id(source_text),
        )
    result = pipeline.compile(
        source_text, language, name=name, opt_level=opt_level,
        compiler=compiler, cache_key=key,
    )
    return CompiledViews(result.source_graph, result.binary_bytes, result.decompiled_graph)


class MatcherPipeline:
    """Score raw (binary, source) inputs with a trained matcher."""

    def __init__(self, trainer: MatchTrainer):  # noqa: D107
        if trainer.model is None:
            raise ValueError("trainer has no trained model")
        self.trainer = trainer
        # Emit whatever edge schema the model was trained on: a trainer
        # configured with the analysis-derived relations needs query
        # graphs that actually carry them.
        dataflow = "dataflow" in tuple(getattr(trainer.config, "relations", ()))
        self.compiler = CompilationPipeline(dataflow_edges=dataflow)
        # Index trainers whose indexes already passed check_model against
        # ours; hashing every weight tensor is too expensive to repeat per
        # query.  Weak references, not ids: a collected trainer's id can be
        # reused by another model's trainer, which must then be checked.
        self._trusted_trainers: "weakref.WeakSet[MatchTrainer]" = weakref.WeakSet()

    def graph_of_source(self, text: str, language: str) -> ProgramGraph:
        """Source text → source-IR program graph (source-only fast path)."""
        return self.compiler.source_graph(text, language)

    def graph_of_binary(self, raw: bytes, name: str = "binary") -> ProgramGraph:
        """Binary bytes → decompiled-IR program graph."""
        return self.compiler.binary_graph(raw, name=name)

    @staticmethod
    def _candidates_tag(candidates: Sequence[Tuple[str, str]]) -> str:
        h = hashlib.sha256()
        for text, lang in candidates:
            h.update(lang.encode())
            h.update(b"\x00")
            h.update(text.encode())
            h.update(b"\x01")
        return h.hexdigest()[:16]

    def source_index(
        self, candidates: Sequence[Tuple[str, str]]
    ) -> ShardedEmbeddingIndex:
        """Encode candidate ``(source_text, language)`` files into an index.

        Build this once and pass it to :meth:`rank_sources` to amortize the
        encoder across many binary queries; entry ``i`` corresponds to
        ``candidates[i]`` (the index is tagged with a content hash of the
        candidate list, which :meth:`rank_sources` checks on reuse).
        """
        index = EmbeddingIndex(self.trainer)
        graphs = [self.graph_of_source(text, lang) for text, lang in candidates]
        index.add(
            graphs,
            metas=[
                {"candidate": i, "language": lang}
                for i, (_, lang) in enumerate(candidates)
            ],
        )
        index.tag = self._candidates_tag(candidates)
        return index

    def rank_sources(
        self,
        raw: bytes,
        candidates: Sequence[Tuple[str, str]],
        index: Optional[ShardedEmbeddingIndex] = None,
    ) -> List[Tuple[int, float]]:
        """Rank candidate ``(source_text, language)`` files for a binary.

        Returns ``(candidate_index, score)`` sorted by descending score —
        the reverse-engineering retrieval workflow from the paper's intro.
        Candidates are encoded once into an in-memory index (pass a
        prebuilt one from :meth:`source_index` to reuse it across queries)
        and each query runs one encoder forward plus the vectorized pair
        head, instead of re-encoding every pair from scratch.
        """
        index = self._checked_index(candidates, index)
        scores = index.scores(self.graph_of_binary(raw))
        order = np.argsort(-scores, kind="stable")
        return [(int(i), float(scores[i])) for i in order]

    def _checked_index(
        self,
        candidates: Sequence[Tuple[str, str]],
        index: Optional[ShardedEmbeddingIndex],
    ) -> ShardedEmbeddingIndex:
        """Build (or validate a caller-supplied) candidate index."""
        if index is None:
            return self.source_index(candidates)
        # An index built by a saved-then-reloaded checkpoint of this
        # model stays usable: check_model compares fingerprints.
        if index.trainer not in self._trusted_trainers:
            index.check_model(self.trainer)
            self._trusted_trainers.add(index.trainer)
        if len(index) != len(candidates):
            raise ValueError(
                f"index has {len(index)} entries for {len(candidates)} candidates"
            )
        if index.tag != self._candidates_tag(candidates):
            raise ValueError(
                "index does not match this candidate list (tag "
                f"{index.tag!r}); build it with source_index()"
            )
        return index

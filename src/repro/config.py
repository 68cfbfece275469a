"""Experiment and model presets.

``ModelConfig()``'s defaults are the hyper-parameters reported in §IV-D
(embedding 128, five GATv2 layers of 256, Adam lr 6.6e-5, vocab 2048).
``cpu_config`` is the scaled preset the benchmark harness trains on a CPU
in seconds; the scaling preserves architecture shape (same layer types,
same ratios), which is what the relative comparisons in the tables depend
on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

#: The paper's three structural graph relations (mirrors
#: ``repro.graphs.programl.RELATIONS`` without importing it — config must
#: stay dependency-free for pickling into worker processes).
BASE_RELATIONS: Tuple[str, ...] = ("control", "data", "call")
#: Plus the analysis-derived relations of ``dataflow_edges`` corpora.
EXTENDED_RELATIONS: Tuple[str, ...] = BASE_RELATIONS + ("dataflow", "callsummary")


@dataclass(frozen=True)
class ModelConfig:
    """GraphBinMatch hyper-parameters; the defaults are the paper's (§IV-D)."""

    embed_dim: int = 128
    hidden_dim: int = 256
    num_layers: int = 5
    heads: int = 1
    dropout: float = 0.2
    max_vocab: int = 2048
    learning_rate: float = 6.6e-5
    epochs: int = 40
    batch_pairs: int = 16
    use_positions: bool = True
    aggregate: str = "max"
    feature_mode: str = "full_text"  # or "text"
    pair_features: str = "concat"  # or "interaction"
    # Binary label smoothing (y -> y(1-s) + s/2).  Keeps the sigmoid scores
    # probability-calibrated instead of saturating at the ends, so the
    # paper's fixed 0.5 decision threshold stays meaningful after the model
    # starts to overfit the small training split.
    label_smoothing: float = 0.0
    grad_clip: float = 5.0
    seed: int = 0
    # Edge relations the GNN convolves over — one GATv2 per entry per
    # layer.  The default is the paper's three structural relations; use
    # EXTENDED_RELATIONS for corpora built with DataConfig.dataflow_edges.
    # Stored as a tuple so the frozen config stays hashable and its JSON
    # round-trip (lists) re-canonicalizes here.
    relations: Tuple[str, ...] = BASE_RELATIONS

    def __post_init__(self):  # noqa: D105
        object.__setattr__(self, "relations", tuple(self.relations))


@dataclass(frozen=True)
class DataConfig:
    """Corpus size / pipeline knobs."""

    num_tasks: int = 30
    variants: int = 4
    seed: int = 0
    opt_level: str = "Oz"  # paper: "0z is set as the default"
    compiler: str = "clang"
    compile_failure_pct: int = 10  # Table I: not every source yields IR
    max_pairs_per_task: int = 12
    # CLCDSA solutions are written independently per language: matching
    # pairs share the algorithm, not identifiers or literal data.  False
    # reproduces the lockstep rendering (all languages make identical
    # choices), which is only appropriate for substrate equivalence tests.
    independent_solutions: bool = True
    # Negative:positive ratio of the valid/test splits.  The paper keeps
    # every split balanced (§IV-B), which is the default; ratios above 1
    # model retrieval-flavoured deployments where non-matches dominate
    # (used by the stress tests and the retrieval example).
    eval_neg_ratio: float = 1.0
    # Root directory of a content-addressed artifact store shared across
    # processes; None disables persistence and every build compiles cold.
    artifact_dir: Optional[str] = None
    # Emit the analysis-derived dataflow/callsummary graph relations (see
    # repro.ir.analysis).  Rides in the pickled config, so parallel build
    # workers and the serial path produce identical graphs; artifact keys
    # carry the matching graph_features qualifier.
    dataflow_edges: bool = False


def cpu_config(seed: int = 0) -> ModelConfig:
    """CPU-scale preset used by tests and benches.

    Architecture shape follows the paper; dimensions are scaled down and
    ``pair_features="interaction"`` conditions the pair head so training
    converges in tens (not thousands) of CPU epochs — see DESIGN.md's
    substitution notes.
    """
    return ModelConfig(
        embed_dim=32,
        hidden_dim=48,
        num_layers=3,
        dropout=0.1,
        max_vocab=512,
        learning_rate=3e-3,
        epochs=30,
        batch_pairs=8,
        pair_features="interaction",
        seed=seed,
    )


def tiny_data_config(seed: int = 0) -> DataConfig:
    """Minimal corpus for unit tests."""
    return DataConfig(num_tasks=6, variants=2, seed=seed, max_pairs_per_task=4)


def scaled(config: ModelConfig, **kwargs) -> ModelConfig:
    """Return a modified copy of a config."""
    return replace(config, **kwargs)

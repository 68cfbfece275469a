"""Experiment runners — one entry point per paper table/figure.

These are the functions the benchmark harness calls; each builds a corpus,
constructs pairs, trains the system(s) and returns the metric rows the
corresponding table in the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import B2SFinder, BinPro, LICCA, XLIRModel
from repro.baselines.xlir import XLIRConfig
from repro.config import DataConfig, ModelConfig
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import MatchingPair, PairDataset, build_pairs
from repro.eval.metrics import ClassificationMetrics, classification_metrics
from repro.eval.threshold import best_threshold


@dataclass
class ExperimentResult:
    """Metrics plus raw scores for downstream analysis."""

    system: str
    metrics: ClassificationMetrics
    scores: np.ndarray
    labels: np.ndarray
    threshold: float = 0.5

    @property
    def row(self) -> Tuple[float, float, float]:
        """(precision, recall, f1) — the columns every table prints."""
        m = self.metrics
        return (m.precision, m.recall, m.f1)


# ---------------------------------------------------------------- corpora
def build_crosslang_dataset(
    data_cfg: DataConfig,
    binary_langs: Sequence[str],
    source_langs: Sequence[str],
) -> Tuple[PairDataset, CorpusBuilder]:
    """CLCDSA-style cross-language binary↔source pairs."""
    builder = CorpusBuilder(data_cfg)
    langs = sorted(set(binary_langs) | set(source_langs))
    samples = builder.build(langs)
    left = [s for s in samples if s.language in binary_langs]
    right = [s for s in samples if s.language in source_langs]
    dataset = build_pairs(
        left, right, "binary", "source", data_cfg.seed,
        max_pairs_per_task=data_cfg.max_pairs_per_task,
        eval_neg_ratio=data_cfg.eval_neg_ratio,
    )
    return dataset, builder


def build_source_source_dataset(
    data_cfg: DataConfig,
    left_langs: Sequence[str],
    right_langs: Sequence[str],
) -> Tuple[PairDataset, CorpusBuilder]:
    """CLCDSA-style cross-language source↔source pairs (Table VI)."""
    builder = CorpusBuilder(data_cfg)
    langs = sorted(set(left_langs) | set(right_langs))
    samples = builder.build(langs)
    left = [s for s in samples if s.language in left_langs]
    right = [s for s in samples if s.language in right_langs]
    dataset = build_pairs(
        left, right, "source", "source", data_cfg.seed,
        max_pairs_per_task=data_cfg.max_pairs_per_task,
        eval_neg_ratio=data_cfg.eval_neg_ratio,
    )
    return dataset, builder


def build_single_language_dataset(
    data_cfg: DataConfig,
    opt_level: str = "O0",
    compiler: str = "clang",
) -> Tuple[PairDataset, CorpusBuilder]:
    """POJ-104-style same-language (C++) binary↔source pairs (Tables IV/V)."""
    builder = CorpusBuilder(data_cfg)
    samples = builder.build(["cpp"], opt_level=opt_level, compiler=compiler)
    dataset = build_pairs(
        samples, samples, "binary", "source", data_cfg.seed,
        max_pairs_per_task=data_cfg.max_pairs_per_task,
        eval_neg_ratio=data_cfg.eval_neg_ratio,
    )
    return dataset, builder


# ---------------------------------------------------------------- systems
def _score_calibrated(
    system: str,
    dataset: PairDataset,
    score: Callable[[List[MatchingPair]], np.ndarray],
    threshold: float,
    calibrate: bool,
) -> ExperimentResult:
    """Pick the threshold on the valid split (if ``calibrate``), score test."""
    if calibrate:
        valid_scores = score(dataset.valid)
        valid_labels = np.asarray([p.label for p in dataset.valid])
        if len(valid_labels):
            threshold = best_threshold(valid_labels, valid_scores)
    scores = score(dataset.test)
    labels = np.asarray([p.label for p in dataset.test])
    metrics = classification_metrics(labels, scores >= threshold)
    return ExperimentResult(system, metrics, scores, labels, threshold)


def run_graphbinmatch(
    dataset: PairDataset,
    config: ModelConfig,
    threshold: float = 0.5,
    calibrate: bool = True,
    early_stopping: bool = True,
    trainer: Optional[MatchTrainer] = None,
) -> ExperimentResult:
    """Train GraphBinMatch and evaluate on the test split.

    Every system in the harness picks its decision threshold on the
    validation split (§V-A: "let GraphBinMatch decide the best threshold
    based on the given metric"), because at CPU scale no system's raw
    scores are absolutely calibrated to the paper's 0.5 cut.  Pass
    ``calibrate=False`` for the fixed-threshold protocol, and a pre-trained
    ``trainer`` to evaluate without retraining.
    """
    if trainer is None:
        trainer = MatchTrainer(config)
        trainer.train(dataset, early_stopping=early_stopping)
    return _score_calibrated(
        "GraphBinMatch", dataset, trainer.predict, threshold, calibrate
    )


def run_xlir(
    dataset: PairDataset,
    encoder: str,
    config: Optional[XLIRConfig] = None,
    calibrate: bool = True,
) -> ExperimentResult:
    """Train an XLIR variant (threshold calibrated on valid, like all systems)."""
    cfg = config or XLIRConfig()
    cfg = XLIRConfig(**{**cfg.__dict__, "encoder": encoder})
    model = XLIRModel(cfg)
    model.fit(dataset.train)
    return _score_calibrated(f"XLIR({encoder})", dataset, model.score, 0.5, calibrate)


def run_feature_baseline(
    dataset: PairDataset, name: str, calibrate: bool = True
) -> ExperimentResult:
    """Run BinPro / B2SFinder / LICCA (threshold calibrated on valid).

    Their raw similarity scores are not probability-calibrated (at a fixed
    0.5 cut they predict nothing at all), so like every other system they
    get a validation-picked threshold.
    """
    systems = {"BinPro": BinPro, "B2SFinder": B2SFinder, "LICCA": LICCA}
    model = systems[name]()
    model.fit(dataset.train)
    return _score_calibrated(name, dataset, model.score, 0.5, calibrate)

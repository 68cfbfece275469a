"""Tests for the pairing protocol: eval negative ratio, hard negatives,
and quantile-aware threshold calibration."""

import numpy as np
import pytest

from repro.config import DataConfig
from repro.data.corpus import CorpusBuilder
from repro.data.pairs import build_pairs, split_tasks
from repro.eval.threshold import _candidate_thresholds, best_threshold, sweep_thresholds


@pytest.fixture(scope="module")
def samples():
    # 12 tasks so the 6:2:2 split leaves >= 2 tasks in every split —
    # single-task eval splits cannot form cross-task negatives at all.
    cfg = DataConfig(num_tasks=12, variants=2, seed=3, compile_failure_pct=0)
    return CorpusBuilder(cfg).build(["c", "java"])


def _sides(samples):
    c = [s for s in samples if s.language == "c"]
    j = [s for s in samples if s.language == "java"]
    return c, j


class TestEvalNegRatio:
    def test_train_always_balanced(self, samples):
        c, j = _sides(samples)
        ds = build_pairs(c, j, "binary", "source", seed=0, eval_neg_ratio=3.0)
        labels = [p.label for p in ds.train]
        assert sum(labels) == len(labels) - sum(labels)

    def test_eval_ratio_applied(self, samples):
        c, j = _sides(samples)
        ds = build_pairs(c, j, "binary", "source", seed=0, eval_neg_ratio=3.0)
        for split in (ds.valid, ds.test):
            pos = sum(p.label for p in split)
            neg = len(split) - pos
            assert neg == pytest.approx(3 * pos, abs=1)

    def test_ratio_one_is_balanced_everywhere(self, samples):
        c, j = _sides(samples)
        ds = build_pairs(c, j, "binary", "source", seed=0, eval_neg_ratio=1.0)
        for split in (ds.train, ds.valid, ds.test):
            pos = sum(p.label for p in split)
            assert pos == pytest.approx(len(split) - pos, abs=1)


class TestHardNegatives:
    def test_negatives_are_cross_task(self, samples):
        c, j = _sides(samples)
        ds = build_pairs(c, j, "binary", "source", seed=0)
        for p in ds.train:
            if p.label == 0:
                assert p.task_left != p.task_right

    def test_hard_negatives_are_size_close(self, samples):
        """Train negatives must be closer in size than random cross-task
        pairs would be on average (half of them are mined by size)."""
        c, j = _sides(samples)
        ds = build_pairs(c, j, "binary", "source", seed=0)
        neg_gaps = [
            abs(p.left.num_nodes - p.right.num_nodes)
            for p in ds.train
            if p.label == 0
        ]
        # random cross-task expectation: average gap over all combos
        import itertools

        all_gaps = [
            abs(a.decompiled_graph.num_nodes - b.source_graph.num_nodes)
            for a, b in itertools.product(c, j)
            if a.task != b.task
        ]
        assert np.mean(neg_gaps) <= np.mean(all_gaps) + 1e-9

    def test_determinism(self, samples):
        c, j = _sides(samples)
        a = build_pairs(c, j, "binary", "source", seed=5)
        b = build_pairs(c, j, "binary", "source", seed=5)
        assert [(p.task_left, p.task_right, p.label) for p in a.train] == [
            (p.task_left, p.task_right, p.label) for p in b.train
        ]


class TestSplitTasks:
    def test_622_proportions(self):
        tr, va, te = split_tasks([f"t{i}" for i in range(20)], seed=1)
        assert (len(tr), len(va), len(te)) == (12, 4, 4)

    def test_disjoint(self):
        tr, va, te = split_tasks([f"t{i}" for i in range(10)], seed=2)
        assert not (set(tr) & set(va)) and not (set(va) & set(te)) and not (set(tr) & set(te))


class TestCandidateThresholds:
    def test_includes_midpoints(self):
        scores = np.array([0.90, 0.92, 0.99])
        cands = _candidate_thresholds(scores)
        assert 0.91 in np.round(cands, 2)

    def test_constant_scores_fall_back_to_grid(self):
        cands = _candidate_thresholds(np.full(5, 0.5))
        assert len(cands) == 19  # the coarse grid only

    def test_best_threshold_separates_narrow_band(self):
        """All scores in [0.9, 1.0]: a coarse grid cannot split them, the
        quantile-aware sweep can."""
        labels = np.array([0, 0, 0, 1, 1, 1])
        scores = np.array([0.91, 0.92, 0.93, 0.97, 0.98, 0.99])
        th = best_threshold(labels, scores)
        assert 0.93 < th < 0.97
        m = sweep_thresholds(labels, scores, [th])[0]
        assert m.f1 == 1.0

    def test_best_threshold_prefers_true_split_over_degenerate(self):
        labels = np.array([0] * 9 + [1] * 3)
        scores = np.concatenate([np.linspace(0.1, 0.5, 9), [0.8, 0.85, 0.9]])
        th = best_threshold(labels, scores)
        m = sweep_thresholds(labels, scores, [th])[0]
        assert m.precision == 1.0 and m.recall == 1.0

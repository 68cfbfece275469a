"""Tests for independent per-language solution rendering (CLCDSA realism).

With ``independent=True`` the three language renderings of a (task,
variant) stop sharing identifiers and literal data — matching pairs share
the *algorithm*, nothing else.  This is what keeps literal-matching
baselines (B2SFinder's constants feature) honest.
"""

import re

from repro.config import DataConfig
from repro.data.corpus import CorpusBuilder
from repro.lang.generator import SolutionGenerator
from repro.lang.interp import interpret

_INT_RE = re.compile(r"-?\b\d+\b")


def _literals(text: str) -> set:
    """Multi-digit integer literals (single digits are universal noise)."""
    return {m for m in _INT_RE.findall(text) if len(m.lstrip("-")) > 1}


class TestIndependentGeneration:
    def test_lockstep_shares_literals(self):
        gen = SolutionGenerator(seed=3, independent=False)
        c = gen.generate("sum_array", 0, "c")
        j = gen.generate("sum_array", 0, "java")
        assert _literals(c.text) == _literals(j.text)

    def test_independent_diverges_literals(self):
        gen = SolutionGenerator(seed=3, independent=True)
        diverged = 0
        for task in ("sum_array", "dot_product", "count_above", "linear_search"):
            c = gen.generate(task, 0, "c")
            j = gen.generate(task, 0, "java")
            if _literals(c.text) != _literals(j.text):
                diverged += 1
        assert diverged >= 3  # overwhelmingly different data

    def test_independent_same_language_unchanged_semantics(self):
        """Independence must not break single-language executability."""
        gen = SolutionGenerator(seed=3, independent=True)
        for lang in ("c", "cpp", "java"):
            sf = gen.generate("gcd", 1, lang)
            out = interpret(sf.program)
            assert len(out) == 1  # prints exactly the one result

    def test_independent_is_deterministic(self):
        a = SolutionGenerator(seed=5, independent=True).generate("fibonacci", 2, "cpp")
        b = SolutionGenerator(seed=5, independent=True).generate("fibonacci", 2, "cpp")
        assert a.text == b.text

    def test_independent_differs_from_lockstep(self):
        lock = SolutionGenerator(seed=5, independent=False).generate("fibonacci", 2, "java")
        ind = SolutionGenerator(seed=5, independent=True).generate("fibonacci", 2, "java")
        assert lock.text != ind.text

    def test_lockstep_cross_language_equivalence_still_holds(self):
        gen = SolutionGenerator(seed=9, independent=False)
        outs = {lang: interpret(gen.generate("max_element", 1, lang).program)
                for lang in ("c", "cpp", "java")}
        assert outs["c"] == outs["cpp"] == outs["java"]


class TestCorpusIndependence:
    def test_data_config_default_independent(self):
        assert DataConfig().independent_solutions is True

    def test_corpus_builder_honors_flag(self):
        on = CorpusBuilder(DataConfig(num_tasks=2, variants=1, independent_solutions=True))
        off = CorpusBuilder(DataConfig(num_tasks=2, variants=1, independent_solutions=False))
        assert on.generator.independent is True
        assert off.generator.independent is False

    def test_independent_corpus_builds_and_compiles(self):
        cfg = DataConfig(num_tasks=3, variants=1, seed=1, compile_failure_pct=0)
        samples = CorpusBuilder(cfg).build(["c", "java"])
        assert len(samples) == 6
        for s in samples:
            assert s.source_graph.num_nodes > 0
            assert s.decompiled_graph.num_nodes > 0

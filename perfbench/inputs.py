"""Seeded inputs of the four workloads.

Everything the program sees is made here — query binaries, index corpora,
pair datasets, corpus coordinates — with the program's own public front
half (generator, lowering, passes, codegen), never by the code paths being
measured.  The workload seed picks the sample: which query programs and in
what order, which synthetic or source candidates, the arrival schedule,
the training run's initialisation and shuffling, the corpus programs.
Where a seed would change the *cost* of the work rather than its content,
the seed draws from a fixed population instead (the query universe, the
training dataset), so runs with different seeds measure the same work.
The serving model does not follow the seed at all: every serve run scores
with the same small trained checkpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

import numpy as np

from repro.binary.codegen import compile_module
from repro.config import DataConfig, cpu_config, scaled
from repro.core.trainer import MatchTrainer
from repro.eval.experiments import build_crosslang_dataset
from repro.index import EmbeddingIndex, ShardedEmbeddingIndex
from repro.ir.lowering import lower_program
from repro.ir.passes import optimize
from repro.lang.generator import LANGUAGES, SolutionGenerator
from repro.lang.tasks import TASK_REGISTRY
from repro.pipeline import CompilationPipeline

#: The serving-scale model (same shape and size serve benches have used).
SERVE_MODEL = dict(hidden_dim=16, embed_dim=16, num_layers=1, batch_pairs=8)
MODEL_SEED = 7
OPT_LEVELS = ("O0", "O1", "O2", "O3", "Oz")
COMPILERS = ("clang", "gcc")

#: Source variants per (task, language) in the serve_unique index; query
#: binaries come from later variants, so no query is an indexed program.
INDEX_VARIANTS = 2
#: Query programs: their own generator seed and variant levels.
UNIVERSE_SEED = 0
UNIVERSE_VARIANTS = 16
#: serve_hot_large: synthetic candidates, as in bench_index_scale.
LARGE_INDEX_ENTRIES = 20480
LARGE_INDEX_CLUSTERS = 64
SHARD_ENTRIES = 4096

#: train_epochs: the fixed cross-language pair dataset and schedule.
TRAIN_TASKS = 12
TRAIN_EPOCHS = 6

#: corpus_build_cold: languages x (opt level, compiler style) per build.
CORPUS_TASKS = 28
CORPUS_COMBOS = (("O0", "clang"), ("O2", "gcc"), ("Oz", "clang"))


def serving_model() -> MatchTrainer:
    """A small trained matcher (fixed seed; two seconds of CPU)."""
    data_cfg = DataConfig(num_tasks=8, variants=2, seed=MODEL_SEED,
                          max_pairs_per_task=4)
    dataset, _ = build_crosslang_dataset(data_cfg, ["c"], ["java"])
    trainer = MatchTrainer(scaled(cpu_config(seed=MODEL_SEED), epochs=3,
                                  **SERVE_MODEL))
    trainer.train(dataset)
    return trainer


def source_index(trainer: MatchTrainer, seed: int, root: Path) -> int:
    """Sharded float32 index of real source graphs from every task template.

    Returns the entry count.
    """
    generator = SolutionGenerator(seed=seed, independent=True)
    pipeline = CompilationPipeline()
    graphs, metas = [], []
    for task in sorted(TASK_REGISTRY):
        for variant in range(INDEX_VARIANTS):
            for lang in LANGUAGES:
                sf = generator.generate(task, variant, lang)
                graphs.append(pipeline.source_graph(
                    sf.text, lang, name=sf.identifier, program=sf.program))
                metas.append({"id": sf.identifier})
    mono = EmbeddingIndex(trainer)
    mono.add(graphs, metas=metas)
    ShardedEmbeddingIndex.from_index(mono, root, 64)
    return len(graphs)


def synthetic_index(trainer: MatchTrainer, seed: int, root: Path) -> int:
    """Sharded float32 index of clustered synthetic embeddings.

    Unit-scale blobs keep the pair head off its saturated plateaus, as in
    ``bench_index_scale``; keys are unique hex strings like real
    fingerprints.  Returns the entry count.
    """
    dim = 2 * trainer.config.hidden_dim
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((LARGE_INDEX_CLUSTERS, dim)).astype(np.float32)
    assign = rng.integers(0, LARGE_INDEX_CLUSTERS, LARGE_INDEX_ENTRIES)
    rows = centers[assign] + 0.05 * rng.standard_normal(
        (LARGE_INDEX_ENTRIES, dim)).astype(np.float32)
    keys = [f"{seed & 0xffffffff:08x}{i:056x}" for i in range(LARGE_INDEX_ENTRIES)]
    metas = [{"id": f"synthetic/{i}"} for i in range(LARGE_INDEX_ENTRIES)]
    mono = EmbeddingIndex(trainer)
    mono.add_precomputed(keys, rows, metas)
    ShardedEmbeddingIndex.from_index(mono, root, SHARD_ENTRIES)
    return LARGE_INDEX_ENTRIES


@dataclass
class QueryBinary:
    """One query binary and the coordinates it was compiled from."""

    name: str
    raw: bytes


def _universe() -> List[Tuple[str, int, str, str, str]]:
    """Every query program a serve run may send: (task, variant, lang, opt, style).

    A fixed universe (its own generator seed, variants after the index's)
    from which each run's seed draws a sample: seeds change which programs
    are sent and in what order, while the mix of program sizes — which
    sets the per-request cost — stays that of the universe.
    """
    combos = [(opt, style) for opt in OPT_LEVELS for style in COMPILERS]
    coords = [(task, variant, lang)
              for task in sorted(TASK_REGISTRY)
              for variant in range(INDEX_VARIANTS, INDEX_VARIANTS + UNIVERSE_VARIANTS)
              for lang in LANGUAGES]
    return [coord + combos[i % len(combos)] for i, coord in enumerate(coords)]


def query_binaries(seed: int, count: int) -> List[QueryBinary]:
    """``count`` byte-distinct binaries drawn from :func:`_universe` by ``seed``.

    Each source is compiled once, so opt levels that collapse to the same
    code cannot repeat a query; graph-level distinctness is measured
    afterwards by fingerprint.
    """
    universe = _universe()
    if count > len(universe):
        raise ValueError(f"{count} queries asked of a {len(universe)}-program universe")
    generator = SolutionGenerator(seed=UNIVERSE_SEED, independent=True)
    out: List[QueryBinary] = []
    seen = set()
    for task, variant, lang, opt, style in random.Random(seed).sample(universe, len(universe)):
        if len(out) >= count:
            break
        sf = generator.generate(task, variant, lang)
        module = lower_program(sf.program, name=sf.identifier)
        optimize(module, opt)
        raw = compile_module(module, style=style).encode()
        if raw not in seen:
            seen.add(raw)
            out.append(QueryBinary(f"{sf.identifier}@{opt}/{style}", raw))
    return out


def by_size_strata(raws: List[bytes], count: int) -> List[bytes]:
    """``count`` of ``raws`` spread evenly over their sizes (binary length).

    Sorted by length and cut into ``count`` equal strata, each gives its
    middle element, so a run's sample has the population's size quantiles
    rather than a random draw's — the tail percentiles depend on the few
    largest programs sent.
    """
    ordered = sorted(raws, key=len)
    width = len(ordered) / count
    return [ordered[int((i + 0.5) * width)] for i in range(count)]


def hot_set(seed: int, size: int) -> List[bytes]:
    """``size`` query binaries at evenly spaced size quantiles of the universe."""
    return by_size_strata([q.raw for q in query_binaries(seed, 8 * size)], size)


def train_setup(seed: int) -> Tuple[object, object]:
    """The fixed ``train_epochs`` pair dataset, and a model config seeded by ``seed``.

    The seed drives weight initialisation, dropout and batch shuffling;
    the dataset stays fixed so every run trains on the same graphs.
    """
    data_cfg = DataConfig(num_tasks=TRAIN_TASKS, variants=2, seed=MODEL_SEED,
                          max_pairs_per_task=4)
    dataset, _ = build_crosslang_dataset(data_cfg, ["c", "cpp"], ["java"])
    config = scaled(cpu_config(seed=seed), epochs=TRAIN_EPOCHS, **SERVE_MODEL)
    return dataset, config


def corpus_config(seed: int) -> DataConfig:
    """The ``corpus_build_cold`` coordinates: every program compiles."""
    return DataConfig(num_tasks=CORPUS_TASKS, variants=1, seed=seed,
                      compile_failure_pct=0)

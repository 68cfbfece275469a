"""Binary provenance: which source file does this binary come from?

The paper's §I motivates matching by retrieval: given a binary (e.g. a
suspicious executable), rank a corpus of candidate *source* files — across
programming languages — by matching score.  This example trains a small
GraphBinMatch, saves/loads a checkpoint (the workflow a security team would
script), and reports ranked-retrieval quality.

Run:  python examples/binary_provenance.py

Set ``REPRO_SMOKE=1`` for the CI-sized run (smaller corpus, fewer epochs).
"""

import os

from repro.config import DataConfig, cpu_config, scaled
from repro.core.trainer import MatchTrainer
from repro.data.corpus import CorpusBuilder
from repro.eval.experiments import build_crosslang_dataset
from repro.eval.retrieval import evaluate_retrieval, retrieval_corpus_from_samples

SEED = 3
SMOKE = os.environ.get("REPRO_SMOKE") == "1"
TRAIN_TASKS = 6 if SMOKE else 12
CORPUS_TASKS = 6 if SMOKE else 10
EPOCHS = 2 if SMOKE else 10


def main() -> None:
    # 1. Train a compact matcher on cross-language binary<->source pairs.
    data_cfg = DataConfig(
        num_tasks=TRAIN_TASKS, variants=2, seed=SEED, max_pairs_per_task=4
    )
    dataset, _ = build_crosslang_dataset(data_cfg, ["c", "cpp"], ["java"])
    print(f"training pairs: {len(dataset.train)}")
    trainer = MatchTrainer(scaled(cpu_config(seed=SEED), epochs=EPOCHS))
    report = trainer.train(dataset, early_stopping=True)
    print(f"best epoch {report.best_epoch}, valid F1 {report.valid_f1:.2f}")

    # 2. Checkpoint round-trip — the artifact a deployment would ship.
    trainer.save("/tmp/provenance_model.npz")
    matcher = MatchTrainer.load("/tmp/provenance_model.npz")
    print("checkpoint reloaded")

    # 3. Fresh corpus: binaries we "found", sources we index.
    corpus_cfg = DataConfig(num_tasks=CORPUS_TASKS, variants=1, seed=SEED + 1)
    samples = CorpusBuilder(corpus_cfg).build(["c", "java"])
    binaries = retrieval_corpus_from_samples(
        [s for s in samples if s.language == "c"][:6], "binary"
    )
    sources = retrieval_corpus_from_samples(
        [s for s in samples if s.language == "java"], "source"
    )
    print(f"\nranking {len(sources)} Java sources for {len(binaries)} C binaries")

    result = evaluate_retrieval(matcher.predict, binaries, sources, ks=(1, 3, 5))
    print(f"MRR   = {result.mrr:.3f}")
    for k in (1, 3, 5):
        print(f"Hit@{k} = {result.hit_at[k]:.3f}")
    print(f"MAP   = {result.mean_average_precision:.3f}")

    # 4. Show one concrete ranking.
    from repro.eval.retrieval import rank_candidates

    ranked = rank_candidates(matcher.predict, binaries[0], sources)
    print(f"\nquery binary implements: {ranked.query_task}")
    print("top-5 retrieved sources:")
    for i, task in enumerate(ranked.ranked_tasks[:5], 1):
        marker = "<-- match" if task == ranked.query_task else ""
        print(f"  {i}. {task} {marker}")


if __name__ == "__main__":
    main()

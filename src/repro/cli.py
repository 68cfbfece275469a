"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   Render one solution (source text + IR + graph stats).
``train``      Build a CLCDSA-style dataset, train GraphBinMatch, save a
               checkpoint.
``evaluate``   Load a checkpoint and report P/R/F1 on a rebuilt test split.
``retrieve``   Retrieval demo: rank source candidates for binary queries.
``index``      Embedding-index retrieval: ``index build`` encodes a source
               corpus once into an index directory; ``index query`` ranks
               the indexed sources for a binary query via the pair head.
``corpus``     Staged compilation pipeline: ``corpus build`` compiles a
               corpus (optionally into a content-addressed artifact store,
               optionally in parallel) and reports Table-I stats plus
               per-stage timing; ``corpus stats`` prints store contents.
``serve``      Long-lived retrieval service: JSON-lines requests (base64
               binary bytes or source text) on stdin, ranked hits as
               JSON-lines on stdout, batching pipelined requests through
               one warm pipeline + index.
``experiment`` Cached training runs: ``experiment run`` fingerprints a
               (config, dataset) training run and loads it from a
               content-addressed model store instead of retraining —
               ``--seeds s1,s2,…`` trains a whole seed grid, ``--workers``
               fans its cold runs over the warm worker pool;
               ``experiment list`` prints a store's entries.
``robustness`` Retrieval robustness under binary transforms: sweep
               transform chains × intensities against a clean candidate
               index and print the robustness matrix.
``analyze``    Static-analysis report for one compiled solution: def-use
               chains, per-block liveness, interprocedural call summaries
               and verifier findings (``--json`` for tooling).
``transforms`` List the registered code transforms.
``tasks``      List the task templates the generator knows.

Everything is deterministic given ``--seed``; commands print the exact
configuration they resolved so runs are reproducible from the log alone.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

import numpy as np


def _intensity_arg(text: str) -> float:
    """argparse type for one transform intensity: finite, in [0, 1].

    Rejecting NaN / negative / out-of-range values at the CLI boundary —
    ``float("nan")`` parses fine and would otherwise flow into every
    site-count computation as a silent no-op.
    """
    from repro.transform import TransformError, validate_intensity

    try:
        return validate_intensity(text)
    except TransformError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _intensity_list_arg(text: str) -> List[float]:
    """argparse type for a comma list of intensities."""
    values = [_intensity_arg(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("need at least one intensity")
    return values


def _chain_list_arg(text: str) -> List[str]:
    """argparse type for a comma list of ``+``-stacked transform chains.

    Each chain element is either a bare transform name (takes the sweep's
    ``--intensities`` / ``--transform-seed``) or a full
    ``name[@intensity][~seed]`` spec (pinned as written).  Validated
    against the registry here, so a typo fails with the registered names
    listed instead of surfacing mid-sweep.
    """
    from repro.transform import TransformError, parse_transform_chain

    chains = [part.strip() for part in text.split(",") if part.strip()]
    if not chains:
        raise argparse.ArgumentTypeError("need at least one transform chain")
    for chain in chains:
        try:
            parse_transform_chain(chain)
        except TransformError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return chains


def _lang_list_arg(text: str) -> List[str]:
    """argparse type for a comma list of supported languages.

    A typo ('jav') or stray whitespace would otherwise survive into the
    corpus builder and fail (or build nothing) mid-run.
    """
    from repro.lang.generator import frontend

    langs = [part.strip() for part in text.split(",") if part.strip()]
    if not langs:
        raise argparse.ArgumentTypeError("need at least one language")
    for lang in langs:
        try:
            frontend(lang)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return langs


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (exposed for tests and docs)."""
    from repro.lang.generator import LANGUAGES

    p = argparse.ArgumentParser(
        prog="repro",
        description="GraphBinMatch reproduction: cross-language binary/source matching",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="render one solution and show its pipeline")
    g.add_argument("task", help="task template name (see `repro tasks`)")
    g.add_argument("--language", default="c", choices=LANGUAGES)
    g.add_argument("--variant", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--show-ir", action="store_true", help="print the lowered IR")

    t = sub.add_parser("train", help="train GraphBinMatch on a synthetic CLCDSA corpus")
    t.add_argument("--binary-langs", type=_lang_list_arg, default="c,cpp",
                   help="comma list, binary side")
    t.add_argument("--source-langs", type=_lang_list_arg, default="java",
                   help="comma list, source side")
    t.add_argument("--num-tasks", type=int, default=24)
    t.add_argument("--variants", type=int, default=2)
    t.add_argument("--epochs", type=int, default=30)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--output", default="graphbinmatch.npz", help="checkpoint path")

    e = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    e.add_argument("checkpoint")
    e.add_argument("--binary-langs", type=_lang_list_arg, default="c,cpp")
    e.add_argument("--source-langs", type=_lang_list_arg, default="java")
    e.add_argument("--num-tasks", type=int, default=24)
    e.add_argument("--variants", type=int, default=2)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--threshold", type=float, default=0.5)

    r = sub.add_parser("retrieve", help="rank source candidates for binary queries")
    r.add_argument("checkpoint")
    r.add_argument("--num-tasks", type=int, default=8)
    r.add_argument("--queries", type=int, default=5)
    r.add_argument("--seed", type=int, default=0)

    ix = sub.add_parser("index", help="build / query a persistent embedding index")
    ixsub = ix.add_subparsers(dest="index_command", required=True)
    ib = ixsub.add_parser("build", help="encode a source corpus into an index directory")
    ib.add_argument("checkpoint")
    ib.add_argument("--output", default="index", help="index directory")
    ib.add_argument("--languages", type=_lang_list_arg, default="java",
                    help="comma list, source side")
    ib.add_argument("--num-tasks", type=int, default=8)
    ib.add_argument("--variants", type=int, default=1)
    ib.add_argument("--seed", type=int, default=0)
    ib.add_argument("--shard-size", type=int, default=0, metavar="N",
                    help="N entries per shard (default: one shard holding "
                         "every entry)")
    ib.add_argument("--codec", default="float32",
                    choices=("float32", "int8", "fp16"),
                    help="shard storage codec; int8/fp16 write raw "
                         "memory-mapped .npy shards")
    ib.add_argument("--cells", type=int, default=0, metavar="K",
                    help="train a K-cell coarse quantizer for mode=ann "
                         "queries")
    iq = ixsub.add_parser("query", help="rank indexed sources for a binary query")
    iq.add_argument("checkpoint")
    iq.add_argument("index", help="index directory (from `index build`)")
    iq.add_argument("--task", default="gcd", help="task to compile as the query binary")
    iq.add_argument("--language", default="c", choices=LANGUAGES)
    iq.add_argument("--variant", type=int, default=0)
    iq.add_argument("--seed", type=int, default=0)
    iq.add_argument("--top-k", type=int, default=5)
    iq.add_argument("--mode", default="exact", choices=("exact", "ann"),
                    help="ann prunes to the quantizer's best cells before "
                         "exact rescoring (index must be built with --cells)")
    iq.add_argument("--nprobe", type=int, default=8, metavar="P",
                    help="cells probed per query in ann mode")

    c = sub.add_parser("corpus", help="build / inspect compiled corpora")
    csub = c.add_subparsers(dest="corpus_command", required=True)
    cb = csub.add_parser("build", help="run the staged pipeline over a corpus")
    cb.add_argument("--languages", type=_lang_list_arg, default="c,java",
                    help="comma list")
    cb.add_argument("--num-tasks", type=int, default=8)
    cb.add_argument("--variants", type=int, default=2)
    cb.add_argument("--seed", type=int, default=0)
    cb.add_argument("--opt-level", default="Oz",
                    choices=("O0", "O1", "O2", "O3", "Oz"))
    cb.add_argument("--compiler", default="clang", choices=("clang", "gcc"))
    cb.add_argument("--store", default=None, metavar="DIR",
                    help="artifact store root; repeat builds load from it")
    cb.add_argument("--parallel", type=int, default=0, metavar="N",
                    help="compile cold samples with N worker processes")
    cs = csub.add_parser("stats", help="show an artifact store's contents")
    cs.add_argument("store", metavar="DIR", help="artifact store root")

    sv = sub.add_parser(
        "serve", help="serve JSON-lines retrieval requests (stdin or socket)"
    )
    sv.add_argument("checkpoint")
    sv.add_argument("index", help="index directory (from `index build`)")
    sv.add_argument("--batch", "--max-batch", dest="batch", type=int, default=8,
                    metavar="N",
                    help="score up to N pipelined requests per batched pass")
    sv.add_argument("--top-k", type=int, default=5,
                    help="default hit-list size (requests override with 'k')")
    sv.add_argument("--socket", default=None, metavar="ADDR",
                    help="serve concurrent clients on a socket instead of "
                         "stdin: HOST:PORT (port 0 picks a free one) or "
                         "unix:PATH")
    sv.add_argument("--workers", type=int, default=2, metavar="N",
                    help="worker processes sharing the index (socket mode)")
    sv.add_argument("--max-delay-ms", type=float, default=10.0, metavar="MS",
                    help="micro-batch deadline: a buffered request waits at "
                         "most this long before its batch flushes")
    sv.add_argument("--queue-depth", type=int, default=64, metavar="N",
                    help="admitted-but-unanswered request bound; excess "
                         "load is shed with an 'overloaded' response")
    sv.add_argument("--mode", default="exact", choices=("exact", "ann"),
                    help="ann serves approximate top-k through the index's "
                         "coarse quantizer (built with --cells); exact is "
                         "the bit-parity reference")
    sv.add_argument("--nprobe", type=int, default=8, metavar="P",
                    help="cells probed per query in ann mode")
    sv.add_argument("--deadline-ms", type=float, default=0.0, metavar="MS",
                    help="per-request deadline (socket mode): a batch not "
                         "answered in time fails with a retryable error and "
                         "a hung worker is respawned; 0 disables")

    ex = sub.add_parser("experiment", help="fingerprinted, cached training runs")
    exsub = ex.add_subparsers(dest="experiment_command", required=True)
    xr = exsub.add_parser("run", help="train (or load) one experiment and evaluate it")
    xr.add_argument("--name", default="cli", help="display name stored with the run")
    xr.add_argument("--binary-langs", type=_lang_list_arg, default="c,cpp",
                    help="comma list, binary side")
    xr.add_argument("--source-langs", type=_lang_list_arg, default="java",
                    help="comma list, source side")
    xr.add_argument("--num-tasks", type=int, default=12)
    xr.add_argument("--variants", type=int, default=2)
    xr.add_argument("--epochs", type=int, default=12)
    xr.add_argument("--seed", type=int, default=0)
    xr.add_argument("--seeds", default=None, metavar="S1,S2,…",
                    help="comma list of model seeds: trains the whole grid "
                         "(one run per seed) instead of a single --seed run")
    xr.add_argument("--workers", type=int, default=0, metavar="N",
                    help="fan a --seeds grid's cold trainings over N warm "
                         "pool workers (0/1 = serial; results identical)")
    xr.add_argument("--store", default=os.environ.get("REPRO_MODEL_CACHE") or None,
                    metavar="DIR",
                    help="model store root (default: $REPRO_MODEL_CACHE); "
                         "omit to always train")
    xl = exsub.add_parser("list", help="show a model store's experiments")
    xl.add_argument("store", metavar="DIR", help="model store root")

    rb = sub.add_parser(
        "robustness", help="retrieval robustness under binary transforms"
    )
    rb.add_argument("checkpoint")
    rb.add_argument("--transforms", type=_chain_list_arg,
                    default=None, metavar="CHAINS",
                    help="comma list of transform chains; '+' stacks, and "
                         "an element written as name[@intensity][~seed] is "
                         "pinned instead of swept (default: every "
                         "registered transform plus deadcode+regrename)")
    rb.add_argument("--intensities", type=_intensity_list_arg,
                    default=None, metavar="LIST",
                    help="comma list of intensities in [0, 1] "
                         "(default: 0.5,1)")
    rb.add_argument("--source-langs", type=_lang_list_arg, default=["java"],
                    help="comma list, candidate side")
    rb.add_argument("--query-lang", default="c", choices=LANGUAGES)
    rb.add_argument("--num-tasks", type=int, default=8)
    rb.add_argument("--variants", type=int, default=1)
    rb.add_argument("--seed", type=int, default=0)
    rb.add_argument("--transform-seed", type=int, default=0,
                    help="seed for every transform spec in the sweep")
    rb.add_argument("--opt-level", default="Oz",
                    choices=("O0", "O1", "O2", "O3", "Oz"))
    rb.add_argument("--store", default=None, metavar="DIR",
                    help="artifact store root; transformed variants are "
                         "cached under transform-qualified keys")
    rb.add_argument("--index", default=None, metavar="DIR",
                    help="sharded clean-index directory; reused (cached "
                         "clean embeddings) when it already exists")
    rb.add_argument("--json", default=None, metavar="PATH",
                    help="also write the robustness matrix as JSON")
    rb.add_argument("--mode", default="exact", choices=("exact", "ann"),
                    help="score every cell through the clean index's "
                         "coarse quantizer instead of exactly (needs "
                         "--index for the persisted quantizer)")
    rb.add_argument("--nprobe", type=int, default=8, metavar="P",
                    help="cells probed per query in ann mode")
    rb.add_argument("--cells", type=int, default=0, metavar="K",
                    help="quantizer cells to train when the clean index "
                         "is built here (0 = sqrt of corpus size)")

    an = sub.add_parser(
        "analyze",
        help="static-analysis report for one compiled solution",
        description="Lower + optimize one generated solution, then dump "
        "def-use chains, per-block liveness, interprocedural call summaries "
        "and verifier findings from repro.ir.analysis.",
    )
    an.add_argument("task", help="task template name (see `repro tasks`)")
    an.add_argument("--language", default="c", choices=LANGUAGES)
    an.add_argument("--variant", type=int, default=0)
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--opt-level", default="Oz", choices=("O0", "O1", "O2", "O3", "Oz"))
    an.add_argument("--function", default=None, metavar="NAME",
                    help="restrict the per-function sections to one function")
    an.add_argument("--json", action="store_true",
                    help="machine-readable report on stdout")

    fs = sub.add_parser(
        "fsck",
        help="scan a store or index for corruption; quarantine and repair",
        description="Classify every entry of an artifact store, model "
        "store or sharded index as ok / corrupt / orphaned-tmp against its "
        "recorded sha256 checksum; an entry that records none is corrupt "
        "(older format: rebuild or retrain).  --quarantine moves "
        "corrupt entries aside and deletes writer residue; --repair "
        "additionally re-derives corrupt artifact-store entries through "
        "the content-addressed pipeline (bit-identical to the lost "
        "entry).  Exits 0 when the target is clean or fully healed.",
    )
    fs.add_argument("path", help="store root or index directory to scan")
    fs.add_argument(
        "--kind",
        default="auto",
        choices=("auto", "artifacts", "models", "index"),
        help="what lives at PATH (default: detect from its contents)",
    )
    fs.add_argument(
        "--quarantine",
        action="store_true",
        help="move corrupt entries to quarantine/ and delete orphaned temps",
    )
    fs.add_argument(
        "--repair",
        action="store_true",
        help="quarantine, then re-derive corrupt artifact entries",
    )
    fs.add_argument("--json", action="store_true", help="full report on stdout")

    sub.add_parser("transforms", help="list registered code transforms")
    sub.add_parser("tasks", help="list available task templates")
    return p


def _data_config(args, max_pairs: int = 4):
    from repro.config import DataConfig

    return DataConfig(
        num_tasks=args.num_tasks,
        variants=args.variants,
        seed=args.seed,
        max_pairs_per_task=max_pairs,
    )


def cmd_generate(args) -> int:
    """Render a solution and walk it through the full pipeline."""
    from repro.core.pipeline import compile_to_views
    from repro.lang.generator import SolutionGenerator

    gen = SolutionGenerator(seed=args.seed, independent=True)
    sf = gen.generate(args.task, args.variant, args.language)
    print(f"// {sf.identifier}")
    print(sf.text)
    views = compile_to_views(sf.text, sf.language, name=sf.identifier)
    print(f"\n# source graph: {views.source_graph.num_nodes} nodes, "
          f"{views.source_graph.num_edges} edges")
    print(f"# binary: {len(views.binary_bytes)} bytes")
    print(f"# decompiled graph: {views.decompiled_graph.num_nodes} nodes, "
          f"{views.decompiled_graph.num_edges} edges")
    if args.show_ir:
        from repro.ir.lowering import lower_program
        from repro.ir.printer import print_module

        print("\n; ---- front-end IR ----")
        print(print_module(lower_program(sf.program, name=sf.identifier)))
    return 0


def cmd_train(args) -> int:
    """Train on a synthetic cross-language corpus and save a checkpoint."""
    from repro.config import cpu_config, scaled
    from repro.core.trainer import MatchTrainer
    from repro.eval.experiments import build_crosslang_dataset

    dataset, _ = build_crosslang_dataset(
        _data_config(args),
        args.binary_langs,
        args.source_langs,
    )
    tr, va, te = dataset.sizes()
    print(f"dataset: train={tr} valid={va} test={te}")
    config = scaled(cpu_config(seed=args.seed), epochs=args.epochs)
    trainer = MatchTrainer(config)
    t0 = time.time()
    report = trainer.train(dataset, early_stopping=True)
    print(f"trained {args.epochs} epochs in {time.time() - t0:.0f}s; "
          f"best epoch {report.best_epoch} valid F1 {report.valid_f1:.2f}")
    trainer.save(args.output)
    print(f"checkpoint -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    """Evaluate a checkpoint against the (re-derived) test split."""
    from repro.core.trainer import MatchTrainer
    from repro.eval.experiments import build_crosslang_dataset
    from repro.eval.metrics import classification_metrics

    trainer = MatchTrainer.load(args.checkpoint)
    dataset, _ = build_crosslang_dataset(
        _data_config(args),
        args.binary_langs,
        args.source_langs,
    )
    scores = trainer.predict(dataset.test)
    labels = np.asarray([p.label for p in dataset.test])
    m = classification_metrics(labels, scores >= args.threshold)
    print(f"test pairs: {len(labels)}  threshold: {args.threshold}")
    print(f"precision={m.precision:.3f} recall={m.recall:.3f} f1={m.f1:.3f} "
          f"accuracy={m.accuracy:.3f}")
    return 0


def cmd_retrieve(args) -> int:
    """Retrieval demo: binary queries against a source corpus."""
    from repro.config import DataConfig
    from repro.core.trainer import MatchTrainer
    from repro.data.corpus import CorpusBuilder
    from repro.eval.retrieval import evaluate_retrieval, retrieval_corpus_from_samples

    trainer = MatchTrainer.load(args.checkpoint)
    cfg = DataConfig(num_tasks=args.num_tasks, variants=1, seed=args.seed)
    samples = CorpusBuilder(cfg).build(["c", "java"])
    queries = retrieval_corpus_from_samples(
        [s for s in samples if s.language == "c"][: args.queries], "binary"
    )
    candidates = retrieval_corpus_from_samples(
        [s for s in samples if s.language == "java"], "source"
    )
    # Passing the trainer itself (not trainer.predict) ranks through an
    # in-memory embedding index: O(Q+C) encoder forwards instead of O(Q×C).
    res = evaluate_retrieval(trainer, queries, candidates)
    print(f"queries: {res.num_queries}  candidates: {len(candidates)}")
    print(f"MRR={res.mrr:.3f}  Hit@1={res.hit_at[1]:.3f}  "
          f"Hit@5={res.hit_at[5]:.3f}  MAP={res.mean_average_precision:.3f}")
    return 0


def cmd_index(args) -> int:
    """Dispatch ``index build`` / ``index query``."""
    return _INDEX_COMMANDS[args.index_command](args)


def cmd_index_build(args) -> int:
    """Encode every source graph of a generated corpus into one index."""
    from repro.config import DataConfig
    from repro.core.trainer import MatchTrainer
    from repro.data.corpus import CorpusBuilder
    from repro.index import EmbeddingIndex, ShardedEmbeddingIndex

    trainer = MatchTrainer.load(args.checkpoint)
    cfg = DataConfig(num_tasks=args.num_tasks, variants=args.variants, seed=args.seed)
    samples = CorpusBuilder(cfg).build(args.languages)
    index = EmbeddingIndex(trainer)
    t0 = time.time()
    index.add(
        [s.source_graph for s in samples],
        metas=[
            {"id": s.identifier, "task": s.task, "language": s.language}
            for s in samples
        ],
    )
    # No --shard-size means one shard holding every entry; any other value
    # reaches from_index, so a negative size errors loudly.  overwrite:
    # rebuilds replace the old shard set.
    sharded = ShardedEmbeddingIndex.from_index(
        index,
        args.output,
        args.shard_size or max(len(index), 1),
        overwrite=True,
        codec=args.codec,
        cells=args.cells,
        quantizer_seed=args.seed,
    )
    print(f"indexed {len(index)} source graphs in {time.time() - t0:.1f}s "
          f"({index.cache_misses} encoded, {index.cache_hits} cache hits)")
    print(
        f"index -> {args.output} ({sharded.num_shards} shards, codec={args.codec}"
        + (f", {args.cells} cells)" if args.cells else ")")
    )
    return 0


def cmd_index_query(args) -> int:
    """Compile one solution to a binary and rank the indexed sources."""
    from repro.core.pipeline import compile_to_views
    from repro.core.trainer import MatchTrainer
    from repro.index import open_index
    from repro.lang.generator import SolutionGenerator

    trainer = MatchTrainer.load(args.checkpoint)
    index = open_index(args.index, trainer)
    gen = SolutionGenerator(seed=args.seed, independent=True)
    sf = gen.generate(args.task, args.variant, args.language)
    views = compile_to_views(sf.text, sf.language, name=sf.identifier)
    print(f"query: {sf.identifier} ({len(views.binary_bytes)} byte binary, "
          f"{views.decompiled_graph.num_nodes} node decompiled graph)")
    hits = index.topk(
        views.decompiled_graph, k=args.top_k, mode=args.mode, nprobe=args.nprobe
    )
    for rank, hit in enumerate(hits, 1):
        label = hit.meta.get("id", hit.key[:12])
        marker = " *" if hit.meta.get("task") == args.task else ""
        print(f"{rank:>3}. {hit.score:.4f}  {label}{marker}")
    return 0


def cmd_corpus(args) -> int:
    """Dispatch ``corpus build`` / ``corpus stats``."""
    return _CORPUS_COMMANDS[args.corpus_command](args)


def cmd_corpus_build(args) -> int:
    """Run the staged pipeline over a generated corpus and report stats."""
    from repro.artifacts import ArtifactStore
    from repro.config import DataConfig
    from repro.data.corpus import CorpusBuilder, corpus_statistics

    languages = args.languages
    cfg = DataConfig(
        num_tasks=args.num_tasks,
        variants=args.variants,
        seed=args.seed,
        opt_level=args.opt_level,
        compiler=args.compiler,
    )
    store = ArtifactStore(args.store) if args.store else None
    builder = CorpusBuilder(cfg, store=store)
    print(
        f"corpus: tasks={args.num_tasks} variants={args.variants} "
        f"languages={','.join(languages)} opt={args.opt_level} "
        f"compiler={args.compiler} seed={args.seed}"
    )
    t0 = time.time()
    if args.parallel > 1:
        samples = builder.build_parallel(languages, workers=args.parallel)
        mode = f"parallel x{args.parallel}"
    else:
        samples = builder.build(languages)
        mode = "serial"
    elapsed = time.time() - t0
    print(f"built {len(samples)} samples in {elapsed:.2f}s ({mode})")
    print("\nTable-I statistics (per language):")
    print(f"{'lang':<6} {'sources':>8} {'llvm_ir':>8} {'binaries':>9} {'decompiled':>11}")
    for lang, st in sorted(corpus_statistics(builder).items()):
        print(
            f"{lang:<6} {st['sources']:>8} {st['llvm_ir']:>8} "
            f"{st['binaries']:>9} {st['decompiled']:>11}"
        )
    if store is not None:
        s = store.stats()
        print(
            f"\nartifact store: {s['hits']} hits, {s['misses']} misses, "
            f"{s['entries']} entries, {s['bytes'] / 1024:.0f} KiB at {s['root']}"
        )
    print("\nper-stage wall clock:")
    print(builder.timer.report())
    return 0


def cmd_corpus_stats(args) -> int:
    """Print an artifact store's footprint."""
    from repro.artifacts import ArtifactStore

    store = ArtifactStore(args.store)
    s = store.stats()
    print(f"artifact store at {s['root']}")
    print(f"entries: {s['entries']}")
    print(f"size:    {s['bytes'] / 1024:.0f} KiB")
    return 0


def cmd_serve(args) -> int:
    """Serve JSON-lines retrieval requests: stdin until EOF, or a socket."""
    from repro.core.trainer import MatchTrainer
    from repro.index import open_index
    from repro.serve import RetrievalServer

    if args.socket is not None:
        return _serve_socket(args)
    trainer = MatchTrainer.load(args.checkpoint)
    index = open_index(args.index, trainer)
    server = RetrievalServer(
        trainer,
        index,
        batch_size=args.batch,
        default_k=args.top_k,
        mode=args.mode,
        nprobe=args.nprobe,
    )
    # Status goes to stderr: stdout is the JSON-lines response channel.
    print(
        f"serving {len(index)} entries across {index.num_shards} shards "
        f"(batch={args.batch}, top-k={args.top_k}, mode={args.mode})",
        file=sys.stderr,
    )
    stats = server.serve(sys.stdin, sys.stdout)
    print(
        f"served {stats['requests']} requests in {stats['batches']} batches "
        f"({stats['errors']} errors)",
        file=sys.stderr,
    )
    return 0


def _serve_socket(args) -> int:
    """Run the concurrent socket service until interrupted.

    ``SIGHUP`` hot-swaps the index (re-reads the manifest at the served
    path) without dropping in-flight queries; so does a
    ``{"control": "reload"}`` request on any connection.
    """
    import signal
    import threading

    from repro.serve import ServerConfig, create_server

    if not os.path.exists(args.checkpoint):
        print(f"serve: no checkpoint at {args.checkpoint}", file=sys.stderr)
        return 1
    addr = args.socket
    config = dict(
        checkpoint=args.checkpoint,
        index_path=args.index,
        workers=args.workers,
        max_batch=args.batch,
        max_delay_ms=args.max_delay_ms,
        queue_depth=args.queue_depth,
        default_k=args.top_k,
        mode=args.mode,
        nprobe=args.nprobe,
        batch_timeout_s=args.deadline_ms / 1000.0 if args.deadline_ms > 0 else None,
    )
    if addr.startswith("unix:"):
        config["unix_socket"] = addr[len("unix:"):]
    else:
        host, _, port = addr.rpartition(":")
        if not host or not port.isdigit():
            print(f"serve: --socket wants HOST:PORT or unix:PATH, got {addr!r}",
                  file=sys.stderr)
            return 1
        config["host"], config["port"] = host, int(port)
    server = create_server(ServerConfig(**config))
    stop = threading.Event()
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, lambda *_: server.reload_index())
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    server.start()
    bound = server.address
    shown = bound if isinstance(bound, str) else f"{bound[0]}:{bound[1]}"
    # Status goes to stderr, like stdin mode: parseable by wrapper scripts.
    print(
        f"serving on {shown} (workers={args.workers}, max-batch={args.batch}, "
        f"max-delay={args.max_delay_ms:g}ms, queue-depth={args.queue_depth}, "
        f"top-k={args.top_k}, mode={args.mode})",
        file=sys.stderr,
        flush=True,
    )
    try:
        stop.wait()
    finally:
        server.close()
        snap = server.stats_snapshot()
        print(
            f"served {snap['responses']} responses in {snap['batches']} batches "
            f"({snap['errors']} errors, {snap['shed']} shed, "
            f"{snap['worker_crashes']} worker crashes)",
            file=sys.stderr,
        )
    return 0


def cmd_experiment(args) -> int:
    """Dispatch ``experiment run`` / ``experiment list``."""
    return _EXPERIMENT_COMMANDS[args.experiment_command](args)


def cmd_experiment_run(args) -> int:
    """Train one experiment — or a seed grid — and evaluate each run."""
    from repro.config import cpu_config, scaled
    from repro.eval.experiments import build_crosslang_dataset, run_graphbinmatch
    from repro.exec import ExperimentSpec, ModelStore, run_experiment, run_grid

    dataset, _ = build_crosslang_dataset(
        _data_config(args),
        args.binary_langs,
        args.source_langs,
    )
    tr, va, te = dataset.sizes()
    print(f"dataset: train={tr} valid={va} test={te}")
    store = ModelStore(args.store) if args.store else None
    seeds = (
        [int(s) for s in args.seeds.split(",") if s.strip()]
        if args.seeds
        else [args.seed]
    )
    jobs = []
    for seed in seeds:
        config = scaled(cpu_config(seed=seed), epochs=args.epochs)
        name = args.name if len(seeds) == 1 else f"{args.name}-s{seed}"
        jobs.append((ExperimentSpec(name, config), dataset))
    if len(jobs) == 1 and args.workers <= 1:
        runs = [run_experiment(jobs[0][0], dataset, store=store)]
    else:
        runs = run_grid(jobs, store=store, workers=args.workers)
    for run in runs:
        source = "cache hit" if run.from_cache else "trained"
        print(f"experiment {run.fingerprint[:16]}: {source} in {run.seconds:.2f}s"
              + (f" (store: {store.root})" if store else " (no store)"))
        result = run_graphbinmatch(dataset, run.spec.config, trainer=run.trainer)
        m = result.metrics
        print(f"test [{run.spec.name}]: precision={m.precision:.3f} "
              f"recall={m.recall:.3f} f1={m.f1:.3f} "
              f"(threshold {result.threshold:.2f})")
    return 0


def cmd_experiment_list(args) -> int:
    """Print every experiment stored in a model store."""
    from repro.exec import ModelStore

    store = ModelStore(args.store)
    entries = store.entries()
    print(f"model store at {store.root}: {len(entries)} experiments")
    for e in entries:
        fp = e.get("fingerprint", "?")[:16]
        name = e.get("name", "?")
        epochs = e.get("epochs", "?")
        f1 = e.get("valid_f1")
        f1_s = f"{f1:.3f}" if isinstance(f1, (int, float)) else "?"
        secs = e.get("train_seconds")
        secs_s = f"{secs:.1f}s" if isinstance(secs, (int, float)) else "?"
        print(f"{fp}  {name:<20} epochs={epochs:<4} valid_f1={f1_s} "
              f"train={secs_s} {e['bytes'] / 1024:.0f} KiB")
    return 0


def cmd_robustness(args) -> int:
    """Sweep transform chains against a clean index and print the matrix."""
    import json

    from repro.artifacts import ArtifactStore
    from repro.config import DataConfig
    from repro.core.trainer import MatchTrainer
    from repro.eval.robustness import (
        DEFAULT_CHAINS,
        DEFAULT_INTENSITIES,
        RobustnessHarness,
    )

    chains = list(args.transforms) if args.transforms else list(DEFAULT_CHAINS)
    intensities = (
        list(args.intensities) if args.intensities else list(DEFAULT_INTENSITIES)
    )
    trainer = MatchTrainer.load(args.checkpoint)
    cfg = DataConfig(
        num_tasks=args.num_tasks,
        variants=args.variants,
        seed=args.seed,
        opt_level=args.opt_level,
    )
    harness = RobustnessHarness(
        trainer,
        cfg,
        source_languages=args.source_langs,
        query_language=args.query_lang,
        store=ArtifactStore(args.store) if args.store else None,
        index_root=args.index,
        transform_seed=args.transform_seed,
        mode=args.mode,
        nprobe=args.nprobe,
        quantizer_cells=args.cells,
    )
    print(
        f"robustness: tasks={args.num_tasks} variants={args.variants} "
        f"candidates={','.join(args.source_langs)} queries={args.query_lang} "
        f"opt={args.opt_level} seed={args.seed} "
        f"chains={','.join(chains)} "
        f"intensities={','.join(f'{i:g}' for i in intensities)}"
    )
    t0 = time.time()
    report = harness.evaluate(chains, intensities)
    print(f"swept {len(report.cells)} cells in {time.time() - t0:.1f}s\n")
    print(report.render())
    if args.store:
        s = harness.store.stats()
        print(f"\nartifact store: {s['hits']} hits, {s['misses']} misses")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.matrix(), fh, indent=2, sort_keys=True)
        print(f"matrix -> {args.json}")
    return 0


def _analyze_function_report(fn) -> dict:
    """Def-use chains + per-block liveness for one defined function."""
    from repro.ir.analysis import DefUseChains, liveness

    chains = DefUseChains.build(fn)
    analysis, result = liveness(fn)
    # Liveness facts are uid ints / ("arg", i) tokens; spell them the way
    # the printer does so the report reads like the IR dump.
    spelling = {("arg", a.index): a.short() for a in fn.args}
    for instr in fn.instructions():
        spelling[instr.uid] = instr.short()
    defuse = []
    for value in chains.definitions():
        uses = chains.users(value)
        if not uses:
            continue
        defuse.append({
            "def": value.short(),
            "uses": [
                {"user": u.user.short(), "opcode": u.user.opcode, "position": u.position}
                for u in uses
            ],
        })
    blocks = [
        {
            "label": blk.label,
            "live_in": [spelling.get(t, repr(t)) for t in analysis.live_in(result, blk)],
            "live_out": [spelling.get(t, repr(t)) for t in analysis.live_out(result, blk)],
        }
        for blk in fn.blocks
    ]
    return {
        "name": fn.name,
        "num_blocks": len(fn.blocks),
        "cross_block_edges": len(chains.cross_block_pairs()),
        "defuse": defuse,
        "liveness": blocks,
    }


def cmd_analyze(args) -> int:
    """Dump dataflow analyses + verifier findings for one compiled task."""
    import json

    from repro.ir.analysis import CallGraph, analyze_module
    from repro.ir.lowering import lower_program
    from repro.ir.passes.pipeline import optimize
    from repro.lang.generator import SolutionGenerator

    gen = SolutionGenerator(seed=args.seed, independent=True)
    sf = gen.generate(args.task, args.variant, args.language)
    module = lower_program(sf.program, name=sf.identifier)
    optimize(module, args.opt_level)

    functions = [
        fn for fn in module.defined_functions()
        if args.function is None or fn.name == args.function
    ]
    if args.function is not None and not functions:
        have = ", ".join(fn.name for fn in module.defined_functions())
        print(f"error: no defined function {args.function!r}; have: {have}",
              file=sys.stderr)
        return 1

    summaries = CallGraph(module).summaries()
    findings = analyze_module(module)
    report = {
        "module": sf.identifier,
        "opt_level": args.opt_level,
        "functions": [_analyze_function_report(fn) for fn in functions],
        "summaries": {
            name: {
                "defined": s.defined,
                "pure": s.pure,
                "reads_memory": s.reads_memory,
                "writes_memory": s.writes_memory,
                "calls_external": s.calls_external,
                "may_call": sorted(s.may_call),
                "size": s.size,
            }
            for name, s in sorted(summaries.items())
        },
        "findings": [
            {
                "severity": f.severity,
                "kind": f.kind,
                "function": f.function,
                "block": f.block,
                "instruction": f.instruction,
                "message": f.message,
            }
            for f in findings
        ],
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=False))
        return 0

    print(f"# {sf.identifier} @ {args.opt_level}")
    for fr in report["functions"]:
        print(f"\n@{fr['name']}: {fr['num_blocks']} blocks, "
              f"{fr['cross_block_edges']} cross-block def-use edges")
        for entry in fr["defuse"]:
            uses = ", ".join(
                f"{u['user']}({u['opcode']})#{u['position']}" for u in entry["uses"]
            )
            print(f"  {entry['def']} -> {uses}")
        for blk in fr["liveness"]:
            print(f"  {blk['label']}: live-in [{', '.join(blk['live_in'])}] "
                  f"live-out [{', '.join(blk['live_out'])}]")
    print("\n# call summaries")
    for name, s in sorted(summaries.items()):
        print(f"  {s.describe()}")
    print(f"\n# verifier findings: {len(findings)}")
    for f in findings:
        print(f"  {f.render()}")
    return 0


def cmd_transforms(_args) -> int:
    """List registered transforms (name, level, description)."""
    from repro.transform import TRANSFORM_REGISTRY

    for name in sorted(TRANSFORM_REGISTRY):
        t = TRANSFORM_REGISTRY[name]
        print(f"{name:<14} {t.level:<7} {t.description}")
    return 0


def cmd_tasks(_args) -> int:
    """List task templates."""
    from repro.lang.tasks import TASK_REGISTRY

    for name in sorted(TASK_REGISTRY):
        print(f"{name:<22} {TASK_REGISTRY[name].description}")
    return 0


def cmd_fsck(args) -> int:
    """Scan a store/index; exit 0 when clean (or fully healed)."""
    import json

    from repro.fsck import fsck

    try:
        report = fsck(
            args.path,
            kind=args.kind,
            quarantine=args.quarantine,
            repair=args.repair,
        )
    except ValueError as exc:
        print(f"fsck: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"fsck {report['kind']} at {report['path']}")
        for entry in report["entries"]:
            if entry["status"] == "ok":
                continue
            line = f"  {entry['status']:<13} {entry['file']}"
            if entry.get("action"):
                line += f"  [{entry['action']}]"
            if entry.get("detail"):
                line += f"  — {entry['detail']}"
            print(line)
        counts = report["counts"]
        print(
            f"  {counts['ok']} ok, {counts['corrupt']} corrupt, "
            f"{counts['orphaned-tmp']} orphaned-tmp"
            + ("" if report["clean"] else "  (problems remain)")
        )
    return 0 if report["clean"] else 1


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "retrieve": cmd_retrieve,
    "index": cmd_index,
    "corpus": cmd_corpus,
    "serve": cmd_serve,
    "experiment": cmd_experiment,
    "robustness": cmd_robustness,
    "analyze": cmd_analyze,
    "fsck": cmd_fsck,
    "transforms": cmd_transforms,
    "tasks": cmd_tasks,
}

_EXPERIMENT_COMMANDS = {
    "run": cmd_experiment_run,
    "list": cmd_experiment_list,
}

_INDEX_COMMANDS = {
    "build": cmd_index_build,
    "query": cmd_index_query,
}

_CORPUS_COMMANDS = {
    "build": cmd_corpus_build,
    "stats": cmd_corpus_stats,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

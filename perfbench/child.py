"""The training and corpus-building programs, run as their own processes.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py train  INPUT.pkl   # pickled (dataset, config)
    python3 perfbench/child.py corpus INPUT.json  # corpus coordinates + store dir

The process prints ``ready`` once it can do timed work (imports done,
inputs loaded), then one JSON result line, then blocks until its stdin is
closed — so the parent can read the process's peak memory from ``/proc``
while it still exists.
"""

from __future__ import annotations

import json
import pickle
import sys
import time


def _train(path: str) -> dict:
    from repro.core.trainer import MatchTrainer

    with open(path, "rb") as fh:  # written by this benchmark's parent process
        dataset, config = pickle.load(fh)
    print("ready", flush=True)
    started = time.perf_counter()
    report = MatchTrainer(config).train(dataset)
    return {
        "wall_s": time.perf_counter() - started,
        "epoch_losses": report.epoch_losses,
        "epoch_seconds": report.epoch_seconds,
        "timings": report.timings,
        "train_pairs": len(dataset.train),
    }


def _corpus(path: str) -> dict:
    from repro.artifacts import ArtifactStore
    from repro.config import DataConfig
    from repro.data.corpus import CorpusBuilder
    from repro.index import graph_fingerprint

    class StampedStore(ArtifactStore):
        """The artifact store, noting when each program's entry lands."""

        def put(self, key, result):
            path = super().put(key, result)
            self.stamps.append(time.perf_counter())
            return path

    with open(path) as fh:
        spec = json.load(fh)
    store = StampedStore(spec["store"])
    store.stamps = []
    builder = CorpusBuilder(DataConfig(**spec["config"]), store=store)
    print("ready", flush=True)
    started = time.perf_counter()
    samples = []
    for opt, compiler in spec["combos"]:
        samples.extend(builder.build(spec["languages"], opt_level=opt, compiler=compiler))
    build_s = time.perf_counter() - started
    return {
        "build_s": build_s,
        "programs": len(samples),
        "put_offsets": [t - started for t in store.stamps],
        "fingerprints": [
            [graph_fingerprint(s.source_graph), graph_fingerprint(s.decompiled_graph)]
            for s in samples
        ],
    }


def main(argv) -> int:
    """Run one program, print its result, wait for the parent to let go."""
    kind, path = argv
    result = {"train": _train, "corpus": _corpus}[kind](path)
    print(json.dumps(result), flush=True)
    sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

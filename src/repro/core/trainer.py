"""Training / evaluation loop for GraphBinMatch (§IV-D).

Adam + binary cross-entropy over balanced pair batches.  Each minibatch
batches both graphs of every pair into one disjoint-union graph so the
whole step is a single vectorized forward/backward.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.nn as nn
from repro.config import ModelConfig
from repro.core.model import GraphBinMatch
from repro.core.node_features import encode_nodes, encode_nodes_unique, train_tokenizer
from repro.data.pairs import MatchingPair, PairDataset
from repro.graphs.batch import batch_graphs
from repro.graphs.programl import ProgramGraph
from repro.nn.functional import clip_grad_norm
from repro.nn.tensor import no_grad
from repro.tokenize.tokenizer import IRTokenizer
from repro.utils.rng import derive_rng


def config_fingerprint(config: ModelConfig) -> str:
    """Stable content hash of a :class:`ModelConfig` (JSON over its fields)."""
    from dataclasses import asdict

    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class TrainReport:
    """Loss curve, final validation metrics and per-phase wall clock."""

    epoch_losses: List[float] = field(default_factory=list)
    valid_f1: float = 0.0
    valid_f1_curve: List[float] = field(default_factory=list)
    best_epoch: int = -1
    # Wall-clock seconds per training phase: "encode" (batch building and
    # tokenization, train + valid), "optimize" (clip + optimizer step),
    # "valid" (per-epoch early-stopping evaluation), "train" (the whole
    # epoch loop including forward/backward).
    timings: Dict[str, float] = field(default_factory=dict)
    epoch_seconds: List[float] = field(default_factory=list)
    # Early-stopping validation seconds *per epoch* (zeros when early
    # stopping is off).  ``epoch_seconds[i] - epoch_valid_seconds[i]`` is
    # the training-only epoch time — the number optimizer benchmarks
    # compare, since validation cost is identical across optimizer paths
    # and dominates the timer noise at CPU scale.
    epoch_valid_seconds: List[float] = field(default_factory=list)


def weighted_epoch_loss(batch_losses: Sequence[Tuple[float, int]]) -> float:
    """Pair-weighted mean of per-batch mean losses.

    Each entry is ``(mean loss over the batch, pairs in the batch)``.  A
    plain mean over batches would give the ragged final minibatch the same
    weight as a full one, biasing the reported curve toward whatever pairs
    land there; weighting by pair count makes the epoch number the true
    mean loss over all pairs.
    """
    total = sum(count for _, count in batch_losses)
    if total == 0:
        return 0.0
    return float(sum(loss * count for loss, count in batch_losses) / total)


class MatchTrainer:
    """Owns the model, tokenizer and optimization state."""

    def __init__(self, config: ModelConfig, tokenizer: Optional[IRTokenizer] = None):  # noqa: D107
        self.config = config
        self.tokenizer = tokenizer
        self.model: Optional[GraphBinMatch] = None
        self.optimizer: Optional[nn.Adam] = None
        # Optimizer state restored from a checkpoint, pending validation and
        # import by the next train() call (see save/load).
        self._restored_opt: Optional[dict] = None
        # Identity-keyed memo of encoded prediction batches: the validation
        # split is scored every epoch under early stopping and again by the
        # final/calibration passes, but its tokenization + graph batching
        # are pair-content functions — encode once, reuse everywhere.
        self._encoded_memo: List[Tuple[Sequence[MatchingPair], int, list]] = []

    # ------------------------------------------------------------- setup
    def fit_tokenizer(self, pairs: Sequence[MatchingPair]) -> IRTokenizer:
        """Train the tokenizer on the training pairs' graphs."""
        graphs = []
        for p in pairs:
            graphs.append(p.left)
            graphs.append(p.right)
        self.tokenizer = train_tokenizer(
            graphs, mode=self.config.feature_mode, max_vocab=self.config.max_vocab
        )
        return self.tokenizer

    def _ensure_model(self) -> GraphBinMatch:
        if self.model is None:
            if self.tokenizer is None:
                raise RuntimeError("call fit_tokenizer() first")
            self.model = GraphBinMatch(self.tokenizer.vocab_size, self.config)
        return self.model

    # ----------------------------------------------------------- batches
    def _encode_batch(self, pairs: Sequence[MatchingPair]):
        graphs = []
        for p in pairs:
            graphs.append(p.left)
            graphs.append(p.right)
        batch = batch_graphs(graphs)
        token_ids = encode_nodes(self.tokenizer, batch, self.config.feature_mode)
        labels = np.asarray([p.label for p in pairs], dtype=np.float32)
        return batch, token_ids, labels

    # ------------------------------------------------------------- train
    def _apply_restored_optimizer(self, optimizer: nn.Adam) -> None:
        """Import checkpointed Adam moments into a fresh optimizer.

        Resuming against a different architecture or configuration would
        replay moments onto the wrong weights, so both the parameter-layout
        and config fingerprints recorded at save time must match exactly.
        """
        restored = self._restored_opt
        if restored is None:
            return
        layout = self.model.layout_fingerprint()
        config_fp = config_fingerprint(self.config)
        if restored.get("layout") != layout or restored.get("config") != config_fp:
            raise ValueError(
                "refusing to resume: optimizer state was saved for "
                f"layout={restored.get('layout')}/config={restored.get('config')}, "
                f"model is layout={layout}/config={config_fp}"
            )
        optimizer.state_import(restored["state"])

    def train(
        self,
        dataset: PairDataset,
        early_stopping: bool = False,
        fused_optimizer: bool = True,
    ) -> TrainReport:
        """Run the full training schedule; returns the loss curve.

        Pairs are shuffled once and packed into fixed minibatches that are
        *encoded a single time* and reused every epoch (only the batch order
        is re-shuffled).  Tokenization, graph batching and the segment sorts
        are the dominant per-step overheads, so reusing the encoded batches
        cuts epoch time by an order of magnitude; the reduced shuffling is
        compensated by dropout noise and matters little at this data scale.
        The validation split is likewise encoded once and its batches reused
        by every early-stopping evaluation (and by the final / calibration
        passes through :meth:`predict`).

        With ``early_stopping=True`` the validation F1 is evaluated after
        every epoch and the best-scoring weights are restored at the end —
        the unseen-task split overfits quickly at CPU scale, so the last
        epoch is rarely the best one.

        ``fused_optimizer`` selects the :class:`~repro.nn.optim.ParameterArena`
        whole-buffer Adam + gradient clip (the default); ``False`` runs the
        per-parameter reference loop (same arithmetic, used by the parity
        benchmarks).  A trainer restored from a checkpoint that carried
        optimizer state resumes from those moments — fingerprint-validated —
        instead of silently resetting them.
        """
        from repro.eval.metrics import classification_metrics

        report = TrainReport()
        t_encode = time.perf_counter()
        if self.tokenizer is None:
            self.fit_tokenizer(dataset.train)
        model = self._ensure_model()
        rng = derive_rng(self.config.seed, "train-shuffle")
        pairs = list(dataset.train)
        bs = self.config.batch_pairs
        order = rng.permutation(len(pairs))
        encoded = [
            self._encode_batch([pairs[i] for i in order[start : start + bs]])
            for start in range(0, len(pairs), bs)
        ]
        valid_labels = np.asarray([p.label for p in dataset.valid])
        track_valid = early_stopping and len(valid_labels) > 0
        if track_valid:
            encoded_valid = self.encode_pairs(dataset.valid)
        report.timings["encode"] = time.perf_counter() - t_encode

        optimizer = nn.Adam(
            model.parameters(), lr=self.config.learning_rate, fused=fused_optimizer
        )
        self._apply_restored_optimizer(optimizer)
        self.optimizer = optimizer
        best_state = None
        best_f1 = -1.0
        t_optim = 0.0
        t_valid = 0.0
        t_train = time.perf_counter()
        for epoch in range(self.config.epochs):
            t_epoch = time.perf_counter()
            model.train()
            losses = []
            smooth = self.config.label_smoothing
            for bi in rng.permutation(len(encoded)):
                batch, token_ids, labels = encoded[bi]
                targets = labels * (1.0 - smooth) + 0.5 * smooth if smooth else labels
                optimizer.zero_grad()
                scores = model(batch, token_ids)
                loss = nn.binary_cross_entropy(scores, targets)
                loss.backward()
                t0 = time.perf_counter()
                if fused_optimizer:
                    optimizer.clip_grad_norm(self.config.grad_clip)
                else:
                    clip_grad_norm(model.parameters(), self.config.grad_clip)
                optimizer.step()
                t_optim += time.perf_counter() - t0
                losses.append((loss.item(), len(labels)))
            report.epoch_losses.append(weighted_epoch_loss(losses))
            v_epoch = 0.0
            if track_valid:
                t0 = time.perf_counter()
                valid_scores = self._predict_encoded(encoded_valid)
                f1 = classification_metrics(valid_labels, valid_scores >= 0.5).f1
                v_epoch = time.perf_counter() - t0
                t_valid += v_epoch
                report.valid_f1_curve.append(f1)
                if f1 > best_f1:
                    best_f1 = f1
                    best_state = model.state_dict()
                    # Snapshot the moments with the weights: restoring
                    # best-epoch weights but keeping last-epoch Adam state
                    # would hand a resumed run a trajectory that belongs to
                    # neither epoch.
                    best_opt_state = optimizer.state_export()
                    report.best_epoch = epoch
            report.epoch_seconds.append(time.perf_counter() - t_epoch)
            report.epoch_valid_seconds.append(v_epoch)
        report.timings["train"] = time.perf_counter() - t_train
        report.timings["optimize"] = t_optim
        report.timings["valid"] = t_valid
        if track_valid and best_state is not None:
            model.load_state_dict(best_state)
            optimizer.state_import(best_opt_state)

        valid_scores = self.predict(dataset.valid)
        if len(valid_labels):
            report.valid_f1 = classification_metrics(valid_labels, valid_scores >= 0.5).f1
        return report

    # ------------------------------------------------------ checkpointing
    def save(self, path, extra_meta: Optional[dict] = None) -> None:
        """Write model weights + tokenizer + config to one ``.npz`` file.

        When the trainer holds optimizer state (it trained in this process,
        or it restored moments from a checkpoint), the Adam ``t``/``m``/``v``
        ride along so a reloaded trainer resumes training instead of
        silently resetting the moments.  ``extra_meta`` entries are merged
        into the checkpoint metadata (the experiment runner stores its
        fingerprint and report there).
        """
        from dataclasses import asdict

        from repro.nn.serialize import save_state

        if self.model is None or self.tokenizer is None:
            raise RuntimeError("nothing to save: train() or fit_tokenizer() first")
        meta = {"config": asdict(self.config), "tokenizer": self.tokenizer.state()}
        if extra_meta:
            meta.update(extra_meta)
        extra_arrays: Dict[str, np.ndarray] = {}
        opt_state = None
        if self.optimizer is not None:
            opt_state = self.optimizer.state_export()
        elif self._restored_opt is not None:
            opt_state = self._restored_opt["state"]
        if opt_state is not None:
            meta["optimizer"] = {
                "algo": opt_state["algo"],
                "t": int(opt_state.get("t", 0)),
                "layout": self.model.layout_fingerprint(),
                "config": config_fingerprint(self.config),
            }
            for key in ("m", "v"):
                if key in opt_state:
                    extra_arrays[f"opt.{key}"] = np.asarray(opt_state[key])
        save_state(self.model, path, meta=meta, extra=extra_arrays or None)

    def save_bytes(self, extra_meta: Optional[dict] = None) -> bytes:
        """The checkpoint :meth:`save` would write, as in-memory bytes.

        Grid pool workers use this to hand a finished model back to the
        parent over a pipe — the parent commits it to the store, so worker
        processes never touch the store and a killed worker cannot leave
        it half-written.
        """
        import io

        buf = io.BytesIO()
        self.save(buf, extra_meta=extra_meta)
        return buf.getvalue()

    @classmethod
    def load(cls, path) -> "MatchTrainer":
        """Restore a trainer (model + tokenizer + optimizer state)."""
        from repro.nn.serialize import read_checkpoint

        meta, state, extra = read_checkpoint(path)
        return cls.from_checkpoint(cls.require_meta(meta, path), state, extra)

    @staticmethod
    def require_meta(meta: Optional[dict], origin) -> dict:
        """``meta`` when it is a matcher checkpoint's metadata, else ``ValueError``."""
        if meta is None or "config" not in meta or "tokenizer" not in meta:
            raise ValueError(f"{origin} has no GraphBinMatch metadata")
        return meta

    @classmethod
    def from_checkpoint(
        cls, meta: dict, state: Dict[str, np.ndarray], extra: Dict[str, np.ndarray]
    ) -> "MatchTrainer":
        """Build a trainer from a checkpoint already read by ``read_checkpoint``."""
        config = ModelConfig(**meta["config"])
        tokenizer = IRTokenizer.from_state(meta["tokenizer"])
        trainer = cls(config, tokenizer=tokenizer)
        trainer._ensure_model().load_state_dict(state)
        opt_meta = meta.get("optimizer")
        if opt_meta is not None:
            arrays = {
                key.split(".", 1)[1]: arr
                for key, arr in extra.items()
                if key.startswith("opt.")
            }
            trainer._restored_opt = {
                "layout": opt_meta.get("layout"),
                "config": opt_meta.get("config"),
                "state": {"algo": opt_meta["algo"], "t": opt_meta.get("t", 0), **arrays},
            }
        return trainer

    # --------------------------------------------------------- embeddings
    def encode_graphs(
        self, graphs: Sequence["ProgramGraph"], batch_size: int = 32
    ) -> np.ndarray:
        """Graph-level embeddings ``(G, 2H)``, each graph encoded exactly once.

        This is the siamese half of the matcher: the expensive part of a
        pairwise score is the GNN encoder, and ``score_from_embeddings`` only
        consumes the pooled embeddings.  Retrieval therefore encodes the
        corpus once through this API and re-runs just the pair head per
        query (see :mod:`repro.index`).  Runs in eval mode — BatchNorm uses
        running statistics and dropout is inert — so an embedding does not
        depend on which other graphs shared its batch and caching is exact.
        """
        model = self._ensure_model()
        model.eval()
        out: List[np.ndarray] = []
        with no_grad():
            for start in range(0, len(graphs), batch_size):
                chunk = graphs[start : start + batch_size]
                batch = batch_graphs(chunk)
                # Deduplicated token rows: the embed/reduce stage runs once
                # per distinct instruction shape, not once per node.
                tokens = encode_nodes_unique(
                    self.tokenizer, batch, self.config.feature_mode
                )
                out.append(model.encode_graphs(batch, tokens).data.copy())
        if not out:
            return np.zeros((0, 2 * self.config.hidden_dim), dtype=np.float32)
        return np.concatenate(out, axis=0)

    def score_embeddings(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Pair-head scores for pre-computed embedding rows, vectorized.

        ``left``/``right`` are ``(N, 2H)`` matrices (or single ``(2H,)``
        rows) from :meth:`encode_graphs`.  The rows are interleaved into the
        layout :meth:`GraphBinMatch.score_from_embeddings` expects, so both
        ``pair_features`` modes (``concat`` and ``interaction``) go through
        the same vectorized path as a full forward — only without the
        encoder.
        """
        left = np.atleast_2d(np.asarray(left, dtype=np.float32))
        right = np.atleast_2d(np.asarray(right, dtype=np.float32))
        if left.shape != right.shape:
            raise ValueError(f"embedding shapes differ: {left.shape} vs {right.shape}")
        if left.shape[0] == 0:
            return np.zeros(0, dtype=np.float32)
        model = self._ensure_model()
        model.eval()
        interleaved = np.empty((2 * left.shape[0], left.shape[1]), dtype=np.float32)
        interleaved[0::2] = left
        interleaved[1::2] = right
        from repro.nn.tensor import Tensor

        with no_grad():
            scores = model.score_from_embeddings(Tensor(interleaved))
        return np.atleast_1d(scores.data).astype(np.float32, copy=True)

    # ----------------------------------------------------------- predict
    def encode_pairs(
        self, pairs: Sequence[MatchingPair], batch_size: int = 32
    ) -> list:
        """Tokenize + batch a pair list once; memoized by list identity.

        The encoded batches are what :meth:`predict` consumes.  Early
        stopping scores the same validation list every epoch, and the
        calibration/test passes re-score the same split objects, so a small
        identity-keyed memo (the pair lists are built once per dataset and
        their *elements* never replaced in place) removes all repeat
        encoding work; growing or shrinking a memoized list is detected by
        the recorded length and re-encodes.
        """
        for entry_pairs, entry_len, entry_bs, encoded in self._encoded_memo:
            # The length recorded at encode time catches the common list
            # mutations (append/extend/del) that identity alone would miss.
            if entry_pairs is pairs and entry_bs == batch_size and entry_len == len(pairs):
                return encoded
        encoded = [
            self._encode_batch(pairs[start : start + batch_size])
            for start in range(0, len(pairs), batch_size)
        ]
        self._encoded_memo.append((pairs, len(pairs), batch_size, encoded))
        if len(self._encoded_memo) > 8:
            self._encoded_memo.pop(0)
        return encoded

    def _predict_encoded(self, encoded: list) -> np.ndarray:
        """Scores for pre-encoded batches (eval mode, no tape)."""
        model = self._ensure_model()
        model.eval()
        out: List[np.ndarray] = []
        with no_grad():
            for batch, token_ids, _ in encoded:
                scores = model(batch, token_ids)
                out.append(np.atleast_1d(scores.data))
        return np.concatenate(out) if out else np.zeros(0, dtype=np.float32)

    def predict(self, pairs: Sequence[MatchingPair], batch_size: int = 32) -> np.ndarray:
        """Matching scores in [0, 1] for a pair list."""
        return self._predict_encoded(self.encode_pairs(pairs, batch_size))

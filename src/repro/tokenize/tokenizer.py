"""Trainable tokenizer for LLVM-IR instruction text.

Mirrors what the paper uses its HuggingFace GPT tokenizer for: map each
node's instruction string to a sequence of integer ids with

* SSA variables (``%3``, ``%nums``) normalized to a ``[VAR]`` token,
* a frequency-capped vocabulary (paper: max 2048 entries),
* ``[PAD]``/``[UNK]`` specials,
* truncation length = mean sequence length rounded **up to the next power
  of two** (the paper's rule), applied with padding at encode time.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

PAD = "[PAD]"
UNK = "[UNK]"
VAR = "[VAR]"

_VAR_RE = re.compile(r"%[A-Za-z0-9_.]+")
_LABEL_RE = re.compile(r"label %[A-Za-z0-9_.]+")
_SPLIT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*|\d+|\[VAR\]|\[LBL\]|[^\sA-Za-z0-9_]")


def normalize_ir_text(text: str) -> str:
    """Replace SSA names and labels with placeholder tokens."""
    text = _LABEL_RE.sub("[LBL]", text)
    return _VAR_RE.sub(VAR, text)


def _word_tokens(text: str) -> List[str]:
    return _SPLIT_RE.findall(normalize_ir_text(text))


class IRTokenizer:
    """Frequency-capped word tokenizer over IR instruction strings."""

    #: Cross-call memo bound: IR instruction shapes are few in practice,
    #: but a hostile/endless stream must not grow the cache without bound.
    _CACHE_LIMIT = 1 << 16

    def __init__(self, max_vocab: int = 2048):  # noqa: D107
        self.max_vocab = max_vocab
        self.vocab: Dict[str, int] = {PAD: 0, UNK: 1, VAR: 2}
        self.truncation_length: int = 16
        self._trained = False
        self._encode_cache: Dict[str, List[int]] = {}

    # ---------------------------------------------------------- training
    def train(self, texts: Iterable[str]) -> "IRTokenizer":
        """Build the vocabulary and the power-of-two truncation length."""
        counts: Dict[str, int] = {}
        lengths: List[int] = []
        for text in texts:
            toks = _word_tokens(text)
            lengths.append(len(toks))
            for t in toks:
                counts.setdefault(t, 0)
                counts[t] += 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for word, _ in ranked:
            if len(self.vocab) >= self.max_vocab:
                break
            if word not in self.vocab:
                self.vocab[word] = len(self.vocab)
        mean_len = float(np.mean(lengths)) if lengths else 8.0
        self.truncation_length = _next_power_of_two(max(int(np.ceil(mean_len)), 2))
        self._trained = True
        self._encode_cache.clear()  # ids depend on the (new) vocabulary
        return self

    # ---------------------------------------------------------- encoding
    def encode(self, text: str) -> List[int]:
        """Token ids for one string (no padding).

        Results are memoized per distinct string — the vocabulary is
        frozen outside :meth:`train`, and a long-lived serving process
        sees the same instruction shapes over and over.  Callers must not
        mutate the returned list.
        """
        ids = self._encode_cache.get(text)
        if ids is None:
            unk = self.vocab[UNK]
            ids = [self.vocab.get(t, unk) for t in _word_tokens(text)]
            if len(self._encode_cache) >= self._CACHE_LIMIT:
                self._encode_cache.clear()
            self._encode_cache[text] = ids
        return ids

    def encode_unique(
        self, texts: Sequence[str], length: Optional[int] = None
    ) -> "Tuple[np.ndarray, np.ndarray]":
        """Deduplicated encode: ``(unique (U, L) id matrix, (N,) inverse)``.

        One row per distinct *truncated token-id row*, not per distinct
        text: SSA names make nearly every raw node string unique, but they
        all normalize to ``[VAR]``.  A decompiled query averages 1335
        nodes, 1158 distinct strings and only 70 distinct rows.  Each
        distinct string is still encoded once (a per-call text → row map);
        ``matrix[inverse]`` reconstructs the per-text rows.  Consumers
        that can work on unique rows directly
        (:meth:`GraphBinMatch.node_features`) skip the fan-out entirely.
        """
        length = length or self.truncation_length
        row_of_text: Dict[str, int] = {}
        row_of_ids: Dict[Tuple[int, ...], int] = {}
        rows: List[Tuple[int, ...]] = []
        # Collect inverse positions in a plain list: per-element numpy
        # assignment is ~10x slower than list.append on this hot path.
        positions: List[int] = []
        append = positions.append
        get = row_of_text.get
        for text in texts:
            j = get(text)
            if j is None:
                ids = tuple(self.encode(text)[:length])
                j = row_of_ids.get(ids)
                if j is None:
                    j = row_of_ids[ids] = len(rows)
                    rows.append(ids)
                row_of_text[text] = j
            append(j)
        inverse = np.asarray(positions, dtype=np.int64)
        mat = np.zeros((len(rows), length), dtype=np.int64)  # 0 == PAD
        for j, ids in enumerate(rows):
            mat[j, : len(ids)] = ids
        return mat, inverse

    def encode_batch(
        self, texts: Sequence[str], length: Optional[int] = None
    ) -> np.ndarray:
        """Encode many strings to a padded/truncated ``(N, L)`` id matrix."""
        mat, inverse = self.encode_unique(texts, length)
        return mat[inverse]

    @property
    def vocab_size(self) -> int:
        """Current vocabulary size (≤ max_vocab)."""
        return len(self.vocab)

    def state(self) -> dict:
        """Serializable tokenizer state."""
        return {
            "vocab": dict(self.vocab),
            "truncation_length": self.truncation_length,
            "max_vocab": self.max_vocab,
        }

    @classmethod
    def from_state(cls, state: dict) -> "IRTokenizer":
        """Restore from :meth:`state`."""
        tok = cls(max_vocab=state["max_vocab"])
        tok.vocab = dict(state["vocab"])
        tok.truncation_length = state["truncation_length"]
        tok._trained = True
        return tok


def _next_power_of_two(x: int) -> int:
    p = 1
    while p < x:
        p *= 2
    return p

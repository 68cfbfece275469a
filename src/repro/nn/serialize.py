"""Checkpointing: save/load module state and whole matchers to ``.npz``.

A checkpoint is a single compressed NumPy archive holding the flat
state-dict (parameters + buffers) plus JSON-encoded metadata (model config,
tokenizer state).  No pickle is involved, so checkpoints are portable and
safe to load from untrusted sources.  It is an entry in the store format
of :mod:`repro.utils.fsio`: the metadata member records ``payload_sha256``
over the arrays, which ``verify_reads`` and ``repro fsck`` check.  The
readers here return only the caller's metadata, without that field.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.nn.module import Module
from repro.utils.fsio import _META_KEY, entry_meta, verify_payload, write_entry

PathLike = Union[str, Path]

_EXTRA_PREFIX = "extra:"


def save_state(
    module: Module,
    path: PathLike,
    meta: Optional[dict] = None,
    extra: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Write a module's state-dict (and optional JSON metadata) to ``path``.

    ``extra`` arrays ride along under an ``extra:`` key prefix — outside
    the module state, which :func:`read_checkpoint` returns apart from
    them (optimizer moments use this; see ``MatchTrainer.save``).  The
    ``.npz`` extension is appended by NumPy if missing.  ``path`` may also
    be a binary file object (e.g. ``BytesIO``): grid workers serialize
    checkpoints to bytes and ship them to the parent's batched store
    writer instead of touching the store themselves.
    """
    state = module.state_dict()
    payload: Dict[str, np.ndarray] = dict(state)
    if extra is not None:
        for key, arr in extra.items():
            payload[f"{_EXTRA_PREFIX}{key}"] = np.asarray(arr)
    target = path if hasattr(path, "write") else str(path)
    write_entry(target, payload, meta or {}, compressed=True)


def read_checkpoint(
    path: PathLike, verify: bool = False
) -> Tuple[Optional[dict], Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Read a whole checkpoint in one pass: ``(meta, state, extra)``.

    The archive is opened once and each member inflated once.  ``meta``
    is the caller's metadata (or None), ``state`` the module state-dict
    and ``extra`` the :func:`save_state` ``extra`` arrays.  With
    ``verify`` the arrays must hash to the recorded ``payload_sha256``:
    ``ValueError`` on a mismatch or a missing checksum, ``KeyError`` when
    there is no metadata member at all.
    """
    with np.load(_resolve(path)) as archive:
        members = {k: archive[k] for k in archive.files}
    if verify:
        verify_payload(members, entry_meta(members))
    state: Dict[str, np.ndarray] = {}
    extra: Dict[str, np.ndarray] = {}
    for k, arr in members.items():
        if k.startswith(_EXTRA_PREFIX):
            extra[k[len(_EXTRA_PREFIX) :]] = arr
        elif k != _META_KEY:
            state[k] = arr
    return _caller_meta(members), state, extra


def read_meta(path: PathLike) -> Optional[dict]:
    """Read only the metadata of a checkpoint (cheap; no state is loaded)."""
    path = _resolve(path)
    with np.load(path) as archive:
        return _caller_meta(archive)


def _caller_meta(archive) -> Optional[dict]:
    """The metadata passed to :func:`save_state`, minus the checksum field."""
    if _META_KEY not in archive:
        return None
    meta = entry_meta(archive)
    meta.pop("payload_sha256", None)
    return meta or None


def _resolve(path: PathLike) -> str:
    p = str(path)
    if not p.endswith(".npz") and not Path(p).exists():
        candidate = p + ".npz"
        if Path(candidate).exists():
            return candidate
    return p

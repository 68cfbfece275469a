"""Module/Parameter abstractions mirroring ``torch.nn.Module``.

A :class:`Module` owns :class:`Parameter` leaves and child modules; it can
enumerate parameters recursively, switch train/eval mode, and serialize its
state to a flat ``dict`` of arrays.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable leaf tensor (``requires_grad=True`` by construction).

    A fused optimizer (:class:`repro.nn.optim.ParameterArena`) may attach
    :attr:`grad_buffer` — a preallocated view into its flat gradient
    buffer.  Backward then accumulates *directly into the arena*, so the
    optimizer's gather step has nothing left to copy.
    """

    def __init__(self, data, name: str = ""):  # noqa: D107
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)
        self.name = name
        self.grad_buffer: "np.ndarray | None" = None

    def _accumulate(self, grad: np.ndarray) -> None:
        buf = self.grad_buffer
        if buf is None:
            Tensor._accumulate(self, grad)
            return
        if self.grad is None:
            # Mirror the base path bit-for-bit: a zeroed buffer plus `+=`
            # (never `copyto`) keeps ±0.0 and dtype-promotion behavior
            # identical to the freshly-allocated-zeros reference.
            buf.fill(0.0)
            self.grad = buf
        self.grad += grad


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` discovers them recursively in a
    deterministic (attribute-insertion) order so optimizer state lines up
    across runs.
    """

    def __init__(self) -> None:  # noqa: D107
        self._params: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self.training = True

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Track a non-trainable array (e.g. BatchNorm running stats).

        Buffers are included in :meth:`state_dict` / :meth:`load_state_dict`
        but never receive gradients.  The attribute stays a plain ndarray.
        """
        self.__dict__.setdefault("_buffers", {})[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        elif key in self.__dict__.get("_buffers", {}):
            # Re-assigning a registered buffer keeps it tracked.
            self._buffers[key] = np.asarray(value)
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------ traversal
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for this module and children."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` for this module and children."""
        for name in self.__dict__.get("_buffers", {}):
            yield (f"{prefix}{name}", getattr(self, name))
        for name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """All parameters, depth-first, deterministic order."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def layout_fingerprint(self) -> str:
        """Content hash of the parameter *layout* (names, shapes, order).

        Two modules share a fingerprint exactly when a flat optimizer-state
        buffer (see :class:`repro.nn.optim.ParameterArena`) recorded against
        one can be replayed against the other.  Checkpoint resume validates
        this before importing saved Adam moments.
        """
        import hashlib

        h = hashlib.sha256()
        for name, p in self.named_parameters():
            h.update(name.encode("utf-8"))
            h.update(repr(tuple(p.data.shape)).encode("utf-8"))
        return h.hexdigest()[:16]

    # ----------------------------------------------------------- train/eval
    def train(self, mode: bool = True) -> "Module":
        """Set train/eval mode recursively (affects dropout)."""
        for mod in self.modules():
            mod.training = mode
        return self

    def eval(self) -> "Module":
        """Switch to inference mode."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -------------------------------------------------------- serialization
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name → array copy of all parameters and buffers."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[f"buffer:{name}"] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (strict shape check)."""
        own = dict(self.named_parameters())
        buf_names = [name for name, _ in self.named_buffers()]
        param_state = {k: v for k, v in state.items() if not k.startswith("buffer:")}
        buf_state = {k[len("buffer:") :]: v for k, v in state.items() if k.startswith("buffer:")}
        missing = (set(own) - set(param_state)) | (set(buf_names) - set(buf_state))
        unexpected = (set(param_state) - set(own)) | (set(buf_state) - set(buf_names))
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, arr in param_state.items():
            if own[name].data.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {own[name].data.shape} vs {arr.shape}"
                )
            own[name].data = np.asarray(arr, dtype=np.float32).copy()
        for name, arr in buf_state.items():
            parts = name.split(".")
            mod = self
            for part in parts[:-1]:
                mod = mod._modules[part]
            current = getattr(mod, parts[-1])
            if np.asarray(current).shape != arr.shape:
                raise ValueError(f"shape mismatch for buffer {name}")
            setattr(mod, parts[-1], np.asarray(arr).copy())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        """Subclasses implement the computation."""
        raise NotImplementedError


class ModuleList(Module):
    """An indexable container of sub-modules (like ``torch.nn.ModuleList``)."""

    def __init__(self, modules=()):  # noqa: D107
        super().__init__()
        self._items: List[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        """Add a module to the list."""
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise RuntimeError("ModuleList is a container; call its items instead")


class ModuleDict(Module):
    """A string-keyed container of sub-modules."""

    def __init__(self, modules: Dict[str, Module] | None = None):  # noqa: D107
        super().__init__()
        if modules:
            for k, v in modules.items():
                self[k] = v

    def __setitem__(self, key: str, module: Module) -> None:
        self._modules[key] = module

    def __getitem__(self, key: str) -> Module:
        return self._modules[key]

    def __contains__(self, key: str) -> bool:
        return key in self._modules

    def keys(self):
        """Keys of the contained modules."""
        return self._modules.keys()

    def items(self):
        """(key, module) pairs."""
        return self._modules.items()

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise RuntimeError("ModuleDict is a container; call its items instead")

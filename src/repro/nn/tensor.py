"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the PyTorch substitute for the reproduction: a tape-based
autograd engine whose :class:`Tensor` wraps a ``numpy.ndarray`` and records
the operations applied to it.  Calling :meth:`Tensor.backward` walks the tape
in reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

Design notes (per the hpc-parallel guides):

* all differentiable payloads are contiguous ``float32`` arrays; integer
  index tensors never require grad,
* every op's backward is fully vectorized — broadcasting is undone with a
  single ``sum``-based :func:`_unbroadcast`; scatter-style backwards use the
  sorted reducer in :mod:`repro.nn.segments` (``np.add.at`` remains only as
  the fallback for non-integer-array indices),
* the tape stores closures, not graphs of Python objects per element, so
  overhead is per-*operation* not per-*element*.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_grad_enabled = True


class no_grad:
    """Context manager disabling tape recording (inference mode)."""

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` (undoing NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum out leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if arr.dtype.kind == "f" and arr.dtype != np.dtype(dtype):
        arr = arr.astype(dtype)
    elif arr.dtype.kind in "iu" and dtype is np.float32:
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A NumPy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray``.  Floating data is stored as
        ``float32``.
    requires_grad:
        If True, gradients accumulate in :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind == "f" and arr.dtype != np.float32:
            arr = arr.astype(np.float32)
        elif arr.dtype.kind in "iub" and requires_grad:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ meta
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """NumPy dtype of the payload."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose of a 2-D tensor (differentiable)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the raw array (shared memory, do not mutate during training)."""
        return self.data

    def item(self) -> float:
        """Return the sole element as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(
            self.data
        )

    # ------------------------------------------------------------- autograd
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, dtype=np.float32)
        self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (use on scalar losses).  Gradients are
        *accumulated*: call :meth:`zero_grad` on parameters (or use an
        optimizer) between steps.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones(self.data.shape, dtype=np.float32)
        else:
            grad = np.asarray(grad, dtype=np.float32)

        # Topological order via iterative DFS (avoids recursion limits on
        # long LSTM tapes).
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is not None:
                node._backward_into(grads, node_grad)
            else:
                node._accumulate(node_grad)

    def _backward_into(self, grads: dict, node_grad: np.ndarray) -> None:
        """Run this node's backward closure, routing grads to parents."""
        contributions = self._backward(node_grad)
        for parent, contrib in zip(self._parents_all(), contributions):
            if contrib is None or not parent.requires_grad:
                continue
            contrib = np.asarray(contrib, dtype=np.float32)
            if parent._parents or parent._backward is not None:
                existing = grads.get(id(parent))
                if existing is None:
                    # Copy when the contribution aliases the incoming grad or
                    # is a view (e.g. broadcast_to): stored entries are
                    # accumulated in place and must own their memory.
                    if contrib is node_grad or contrib.base is not None:
                        contrib = contrib.copy()
                    grads[id(parent)] = contrib
                else:
                    existing += contrib
            else:
                parent._accumulate(contrib)

    def _parents_all(self) -> Tuple["Tensor", ...]:
        return self._parents

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other_t.data

        def backward(g: np.ndarray):
            return (
                _unbroadcast(g, self.data.shape),
                _unbroadcast(g, other_t.data.shape),
            )

        out = Tensor._make(out_data, (self, other_t), backward)
        if out.requires_grad:
            out._parents = (self, other_t)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray):
            return (-g,)

        out = Tensor._make(-self.data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data - other_t.data

        def backward(g: np.ndarray):
            return (
                _unbroadcast(g, self.data.shape),
                _unbroadcast(-g, other_t.data.shape),
            )

        out = Tensor._make(out_data, (self, other_t), backward)
        if out.requires_grad:
            out._parents = (self, other_t)
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other_t.data
        a_data, b_data = self.data, other_t.data

        def backward(g: np.ndarray):
            return (
                _unbroadcast(g * b_data, a_data.shape),
                _unbroadcast(g * a_data, b_data.shape),
            )

        out = Tensor._make(out_data, (self, other_t), backward)
        if out.requires_grad:
            out._parents = (self, other_t)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data / other_t.data
        a_data, b_data = self.data, other_t.data

        def backward(g: np.ndarray):
            return (
                _unbroadcast(g / b_data, a_data.shape),
                _unbroadcast(-g * a_data / (b_data * b_data), b_data.shape),
            )

        out = Tensor._make(out_data, (self, other_t), backward)
        if out.requires_grad:
            out._parents = (self, other_t)
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        base = self.data

        def backward(g: np.ndarray):
            return (g * exponent * base ** (exponent - 1),)

        out = Tensor._make(out_data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        a, b = self.data, other_t.data
        out_data = a @ b

        def backward(g: np.ndarray):
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                return (g @ b.T, np.outer(a, g))
            if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
                return (np.outer(g, b), a.T @ g)
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        out = Tensor._make(out_data, (self, other_t), backward)
        if out.requires_grad:
            out._parents = (self, other_t)
        return out

    # ------------------------------------------------------------ reshaping
    def reshape(self, *shape: int) -> "Tensor":
        """Differentiable reshape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray):
            return (g.reshape(original),)

        out = Tensor._make(out_data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def transpose(self, *axes: int) -> "Tensor":
        """Differentiable transpose; no axes means reverse all axes."""
        if not axes:
            axes_t = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_t = tuple(axes[0])
        else:
            axes_t = axes
        inverse = np.argsort(axes_t)
        out_data = self.data.transpose(axes_t)

        def backward(g: np.ndarray):
            return (g.transpose(inverse),)

        out = Tensor._make(out_data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def __getitem__(self, index) -> "Tensor":
        """Differentiable indexing (slices, integer arrays, masks)."""
        if isinstance(index, Tensor):
            index = index.data
        out_data = self.data[index]
        shape = self.data.shape

        if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
            # Row gather: backward is a sorted scatter-add, far faster than
            # the per-element np.add.at fallback below.
            def backward(g: np.ndarray):
                from repro.nn.segments import scatter_add_rows

                return (scatter_add_rows(shape[0], index, g),)

        else:

            def backward(g: np.ndarray):
                grad = np.zeros(shape, dtype=np.float32)
                np.add.at(grad, index, g)
                return (grad,)

        out = Tensor._make(out_data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    # ----------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable sum."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, shape).astype(np.float32),)
            g_exp = g
            if not keepdims:
                g_exp = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g_exp, shape).astype(np.float32),)

        out = Tensor._make(np.asarray(out_data, dtype=np.float32), (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable mean."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Differentiable max along ``axis`` (ties share the gradient)."""
        out_data = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == out_data).astype(np.float32)
        mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
        result = out_data if keepdims else np.squeeze(out_data, axis=axis)

        def backward(g: np.ndarray):
            g_exp = g if keepdims else np.expand_dims(g, axis=axis)
            return (g_exp * mask,)

        out = Tensor._make(result, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    # ---------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(g: np.ndarray):
            return (g * out_data,)

        out = Tensor._make(out_data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def log(self) -> "Tensor":
        """Elementwise natural log."""
        data = self.data

        def backward(g: np.ndarray):
            return (g / data,)

        out = Tensor._make(np.log(data), (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)

        def backward(g: np.ndarray):
            return (g * 0.5 / np.maximum(out_data, 1e-12),)

        out = Tensor._make(out_data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def tanh(self) -> "Tensor":
        """Elementwise tanh."""
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray):
            return (g * (1.0 - out_data * out_data),)

        out = Tensor._make(out_data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (numerically stable)."""
        x = self.data
        out_data = np.empty_like(x)
        pos = x >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out_data[~pos] = ex / (1.0 + ex)

        def backward(g: np.ndarray):
            return (g * out_data * (1.0 - out_data),)

        out = Tensor._make(out_data, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """Elementwise LeakyReLU — the paper's activation throughout."""
        slope = np.where(self.data > 0, 1.0, negative_slope).astype(np.float32)

        def backward(g: np.ndarray):
            return (g * slope,)

        out = Tensor._make(self.data * slope, (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def abs(self) -> "Tensor":
        """Elementwise absolute value (gradient is the sign; 0 at 0)."""
        sign = np.sign(self.data).astype(np.float32)

        def backward(g: np.ndarray):
            return (g * sign,)

        out = Tensor._make(np.abs(self.data), (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Differentiable clamp (zero gradient outside the range)."""
        mask = ((self.data >= low) & (self.data <= high)).astype(np.float32)

        def backward(g: np.ndarray):
            return (g * mask,)

        out = Tensor._make(np.clip(self.data, low, high), (self,), backward)
        if out.requires_grad:
            out._parents = (self,)
        return out


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    """All-zeros float32 tensor."""
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    """All-ones float32 tensor."""
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

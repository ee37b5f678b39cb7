"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the substrate that replaces ``torch.Tensor`` for the APPFL
reproduction.  It implements a small but complete dynamic computation graph:
each :class:`Tensor` produced by an operation records its parent tensors and
a backward closure that maps the upstream gradient to per-parent gradients.
Calling :meth:`Tensor.backward` performs a reverse topological traversal and
accumulates gradients into every tensor created with ``requires_grad=True``.

Only the operations required by the federated-learning workloads are
implemented (dense layers, convolution via im2col in :mod:`repro.nn.functional`,
pooling, ReLU, softmax cross-entropy, elementwise arithmetic and reductions),
but the graph machinery is generic and new ops can be added by following the
same pattern.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Grad mode is thread-local so parallel FL clients (each running forward and
# backward passes on its own model in a worker thread) cannot toggle each
# other's graph recording through ``no_grad``.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables graph construction (like ``torch.no_grad``)."""

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_STATE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations are being recorded on the autograd graph."""
    return getattr(_GRAD_STATE, "enabled", True)


def _as_array(data: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype != dtype:
            return data.astype(dtype)
        return data
    return np.asarray(data, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes that were broadcast to produce it."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# A backward function maps the upstream gradient to one gradient per parent
# (``None`` for parents that do not require grad).
BackwardFn = Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]


class Tensor:
    """A numpy-backed array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array data; copied only when a dtype conversion is required.
    requires_grad:
        If True, gradients are accumulated in :attr:`grad` during
        :meth:`backward`.
    dtype:
        Target dtype (default float64).  The float32 pipeline passes the run's
        configured dtype here so batches are not silently upcast.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op", "_grad_pinned", "_grad_seen", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None):
        self.data: np.ndarray = _as_array(data, np.float64 if dtype is None else dtype)
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[BackwardFn] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._op: str = ""
        self._grad_pinned: bool = False
        self._grad_seen: bool = False

    # ------------------------------------------------------------------ utils
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing the same data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        if self._grad_pinned and self.grad is not None:
            self.grad.fill(0.0)
        else:
            self.grad = None
        self._grad_seen = False

    def pin_grad(self, buffer: np.ndarray) -> None:
        """Accumulate gradients into ``buffer`` (a preallocated view) forever.

        Once pinned, ``zero_grad`` zero-fills the buffer instead of dropping it,
        so backward passes never allocate per-parameter gradient arrays.  Used
        by the flat-parameter engine (:class:`repro.core.base.ModelVectorizer`).
        ``grad`` is then never ``None``; consumers that need the seed's
        "received no gradient" signal (the optimizers) use :attr:`has_grad`.
        """
        self.grad = buffer
        self._grad_pinned = True
        self._grad_seen = False

    @property
    def has_grad(self) -> bool:
        """Whether a gradient has been accumulated since the last ``zero_grad``.

        Equivalent to ``grad is not None`` for ordinary tensors; for pinned
        gradient buffers (which always exist) it tracks whether any backward
        pass actually reached this tensor.
        """
        if self._grad_pinned:
            return self._grad_seen
        return self.grad is not None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, op={self._op!r})"

    def __len__(self) -> int:
        return len(self.data)

    # --------------------------------------------------------------- plumbing
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...], backward: BackwardFn, op: str) -> "Tensor":
        requires = any(p.requires_grad for p in parents) and is_grad_enabled()
        out = Tensor(data, requires_grad=requires, dtype=data.dtype if isinstance(data, np.ndarray) else None)
        if requires:
            out._backward = backward
            out._parents = parents
            out._op = op
        return out

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradients are accumulated (summed) into the ``grad`` attribute of every
        reachable tensor with ``requires_grad=True``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, self.data.dtype)
        if grad.shape != self.shape:
            grad = np.broadcast_to(grad, self.shape).astype(self.data.dtype)

        # Reverse topological order of the subgraph reachable from self.
        topo: List[Tensor] = []
        visited: set[int] = set()
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
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        pending: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # Leaf tensor: accumulate into .grad (a pinned flat-buffer view
                # when the parameter belongs to a flat-engine model).
                if node.grad is None:
                    node.grad = g.astype(node.data.dtype, copy=True)
                else:
                    node.grad += g
                node._grad_seen = True
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = pg

    # ----------------------------------------------------------- constructors
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, self.shape), _unbroadcast(-grad, other.shape))

        return Tensor._make(self.data - other.data, (self, other), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other, dtype=self.data.dtype) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return Tensor._make(self.data * other.data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return Tensor._make(self.data / other.data, (self, other), backward, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other, dtype=self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(self.data ** exponent, (self,), backward, "pow")

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

        def backward(grad: np.ndarray):
            ga = grad @ np.swapaxes(other.data, -1, -2)
            gb = np.swapaxes(self.data, -1, -2) @ grad
            return (_unbroadcast(ga, self.shape), _unbroadcast(gb, other.shape))

        return Tensor._make(self.data @ other.data, (self, other), backward, "matmul")

    # -------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                shape = list(self.shape)
                for ax in sorted(a % self.ndim for a in axes):
                    shape[ax] = 1
                g = g.reshape(shape)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            full = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == full).astype(self.data.dtype)
            mask /= mask.sum(axis=axis, keepdims=True)
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (mask * g,)

        return Tensor._make(data, (self,), backward, "max")

    # ------------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * data,)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad / self.data,)

        return Tensor._make(np.log(self.data), (self,), backward, "log")

    def relu(self) -> "Tensor":
        out = np.maximum(self.data, 0)

        def backward(grad: np.ndarray):
            # out > 0 exactly where data > 0 (-0 and NaN included): no mask kept.
            return (grad * (out > 0),)

        return Tensor._make(out, (self,), backward, "relu")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - data ** 2),)

        return Tensor._make(data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray):
            return (grad * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward, "sigmoid")

    # ------------------------------------------------------------------ shape
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._make(self.data.reshape(shape), (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))

        def backward(grad: np.ndarray):
            return (grad.transpose(inverse),)

        return Tensor._make(self.data.transpose(axes), (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(self.data[index], (self,), backward, "getitem")

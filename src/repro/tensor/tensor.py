"""The :class:`Tensor` class: a numpy array with a reverse-mode gradient tape.

The design follows the classic define-by-run model: every differentiable
operation returns a new :class:`Tensor` holding references to its parents
and a closure that accumulates gradients into them.  Calling
:meth:`Tensor.backward` on a scalar output topologically sorts the tape
and runs the closures in reverse.

The engine is deliberately small but covers everything the TP-GNN models
need: broadcasting arithmetic, matrix products, reductions over axes,
gating nonlinearities, softmax, indexing/slicing, concatenation and
stacking (needed for building node-embedding matrices edge by edge).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_STATE = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations record a gradient tape."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape construction.

    Used for evaluation loops, where building the graph would waste
    memory and time.  Mirrors ``torch.no_grad``.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Gradients flowing into a broadcast operand must be summed over the
    broadcast dimensions so the accumulated gradient has the operand's
    original shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    """Coerce scalars / lists / arrays to a float64 numpy array."""
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        When True, operations involving this tensor are recorded so that
        :meth:`backward` can compute ``d(output)/d(self)`` into
        :attr:`grad`.
    name:
        Optional human-readable label used in error messages and
        debugging output.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._backward: Callable[[Tensor], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of zeros with the given shape."""
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of ones with the given shape."""
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], Iterable[np.ndarray | None]],
    ) -> "Tensor":
        """Build an op result wired into the tape.

        ``backward`` receives the upstream gradient and must return one
        gradient array (or ``None``) per parent, already shaped like the
        corresponding parent.  Tape construction is skipped entirely when
        gradients are globally disabled or no parent requires them.
        """
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)

            # The closure takes its output tensor as an argument rather
            # than capturing it: a captured ``out`` would make every tape
            # node a reference cycle, left to the cyclic collector instead
            # of being freed as soon as the loss is dropped.
            def _run(out: Tensor) -> None:
                grads = backward(out.grad)
                for parent, grad in zip(out._parents, grads):
                    if grad is None or not parent.requires_grad:
                        continue
                    if parent.grad is None:
                        parent.grad = np.zeros_like(parent.data)
                    parent.grad += grad

            out._backward = _run
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
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

    def numpy(self) -> np.ndarray:
        """Return the raw numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a one-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor's data."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{flag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1.0, which is only valid for
            scalar outputs (e.g. a loss value).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        self.grad = _as_array(grad).reshape(self.data.shape)

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS: edge sequences in TP-GNN produce tapes thousands of
        # nodes deep, which would overflow Python's recursion limit.
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Operator overloads (implementations live in repro.tensor.ops)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.tensor import ops

        return ops.add(self, _ensure_tensor(other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        from repro.tensor import ops

        return ops.sub(self, _ensure_tensor(other))

    def __rsub__(self, other):
        from repro.tensor import ops

        return ops.sub(_ensure_tensor(other), self)

    def __mul__(self, other):
        from repro.tensor import ops

        return ops.mul(self, _ensure_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        from repro.tensor import ops

        return ops.div(self, _ensure_tensor(other))

    def __rtruediv__(self, other):
        from repro.tensor import ops

        return ops.div(_ensure_tensor(other), self)

    def __neg__(self):
        from repro.tensor import ops

        return ops.neg(self)

    def __pow__(self, exponent: float):
        from repro.tensor import ops

        return ops.power(self, float(exponent))

    def __matmul__(self, other):
        from repro.tensor import ops

        return ops.matmul(self, _ensure_tensor(other))

    def __getitem__(self, index):
        from repro.tensor import ops

        return ops.getitem(self, index)

    # ------------------------------------------------------------------
    # Method-style ops
    # ------------------------------------------------------------------
    def matmul(self, other) -> "Tensor":
        """Matrix product ``self @ other``."""
        return self.__matmul__(other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when None)."""
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``."""
        from repro.tensor import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view of this tensor."""
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        """Permute axes (reverse them when ``axes`` is None)."""
        from repro.tensor import ops

        return ops.transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        """Transpose of a 2-d tensor."""
        return self.transpose()

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        from repro.tensor import ops

        return ops.exp(self)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        from repro.tensor import ops

        return ops.log(self)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        from repro.tensor import ops

        return ops.power(self, 0.5)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        from repro.tensor import ops

        return ops.tanh(self)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        from repro.tensor import ops

        return ops.sigmoid(self)

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        from repro.tensor import ops

        return ops.relu(self)

    def sin(self) -> "Tensor":
        """Elementwise sine (used by Time2Vec)."""
        from repro.tensor import ops

        return ops.sin(self)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Softmax along ``axis``."""
        from repro.tensor import ops

        return ops.softmax(self, axis=axis)

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        from repro.tensor import ops

        return ops.absolute(self)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values into ``[low, high]`` (gradient is a pass-through mask)."""
        from repro.tensor import ops

        return ops.clip(self, low, high)


def _ensure_tensor(value) -> Tensor:
    """Wrap non-Tensor operands as constant tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)

"""Tensors, the gradient tape, and the multiply-add counter.

The autodiff model is a classic Wengert list: while a ``Tape`` is active,
every primitive records the tensors it read, the tensor it produced, and a
closure mapping the output gradient to input gradients.  ``backward`` pops
the list from the end.  Recording order is a topological order of the
computation (an input must exist before an op can consume it), so the reverse
replay is an exact reverse topological order and each node's output gradient
is complete before the node runs.  The replay consumes the tape: each node,
with its closure and the activations it holds, is dropped once it has run,
and each intermediate gradient as soon as its node has consumed it.  Only
leaf gradients are returned.

Only ``matmul``/``linear`` style primitives feed ``MADD_COUNTER`` (see
``ops``); the counter is one process-wide total, lock-protected.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
DEFAULT_DTYPE = np.float32


class Tensor:
    """A contiguous n-d float array, flagged when gradients should reach it.

    Values are immutable by convention once created.  The one sanctioned
    mutation is an optimizer update to a parameter buffer between steps;
    gradients live in the map ``backward`` returns, not on the tensor.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in SUPPORTED_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.dtype not in SUPPORTED_DTYPES:
            raise ContractError(
                f"unsupported element type {arr.dtype}; use float32 or float64"
            )
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


BackwardFn = Callable[[np.ndarray], Sequence["np.ndarray | None"]]
Node = tuple[tuple[Tensor, ...], Tensor, BackwardFn]


class Tape:
    """Ordered record of primitive applications, replayed in reverse.

    A tape is single-threaded: enter it as a context manager, run the forward
    computation inside, then call ``backward(loss, tape)``, which empties it.
    """

    def __init__(self):
        self._nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        stack.pop()
        return False

    def record(self, inputs: Sequence[Tensor], output: Tensor, backward_fn: BackwardFn) -> None:
        self._nodes.append((tuple(inputs), output, backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)


_LOCAL = threading.local()


def _tape_stack() -> list[Tape]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def from_op(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: BackwardFn) -> Tensor:
    """Wrap an op result, propagating requires_grad and recording the node.

    Nothing is recorded when no tape is active (inference) or when no input
    requires gradients (the node could never receive a pull).
    """
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs), dtype=data.dtype)
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(inputs, out, backward_fn)
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Gradients of a scalar ``loss`` with respect to the leaves of ``tape``.

    A leaf is a requires_grad input of a recorded node that no node on the
    tape produced: a parameter or an input.  Returns a map from every leaf to
    its gradient (zeros if the loss does not depend on it); intermediate
    tensors are not keys.  The replay consumes the tape, so ``len(tape)`` is
    0 afterwards.  Raises ``ContractError`` for a non-scalar loss and for a
    loss no node on the tape produced (including a second call on the same
    tape).
    """
    if not isinstance(loss, Tensor):
        raise ContractError(f"loss must be a Tensor, got {type(loss).__name__}")
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    nodes = tape._nodes
    produced = {id(output) for _, output, _ in nodes}
    if id(loss) not in produced:
        raise ContractError("loss was not recorded on this tape (or the tape was consumed)")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    while nodes:
        inputs, output, backward_fn = nodes.pop()
        for t in inputs:
            if t.requires_grad and id(t) not in produced:
                leaves.setdefault(id(t), t)
        out_grad = grads.pop(id(output), None)
        if out_grad is None:
            continue
        in_grads = backward_fn(out_grad)
        if len(in_grads) != len(inputs):
            raise ContractError(
                f"backward closure returned {len(in_grads)} gradients for "
                f"{len(inputs)} inputs"
            )
        for t, g in zip(inputs, in_grads):
            if g is None or not t.requires_grad:
                continue
            if g.shape != t.data.shape:
                raise ContractError(
                    f"gradient shape {g.shape} does not match tensor shape {t.data.shape}"
                )
            acc = grads.get(id(t))
            grads[id(t)] = g if acc is None else acc + g

    return {t: grads[tid] if tid in grads else np.zeros_like(t.data)
            for tid, t in leaves.items()}


class MAddCounter:
    """Lock-protected accumulator of multiply-add counts.

    Monotone non-decreasing between explicit resets.  Only matmul/linear
    primitives add to it; softmax, normalization, and elementwise work do not.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def add(self, count: int) -> None:
        count = int(count)
        if count < 0:
            raise ContractError(f"negative multiply-add count {count}")
        with self._lock:
            self._total += count

    def reset(self) -> None:
        with self._lock:
            self._total = 0

    @property
    def total(self) -> int:
        with self._lock:
            return self._total


MADD_COUNTER = MAddCounter()


def trunc_normal(rng: np.random.Generator, shape, std: float, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Normal(0, std) samples re-drawn (then clipped) to lie within 2 std."""
    out = rng.normal(0.0, std, size=shape)
    for _ in range(8):
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    np.clip(out, -2.0 * std, 2.0 * std, out=out)
    return out.astype(dtype)

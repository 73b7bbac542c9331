"""Tensors, the gradient tape, and the multiply-add counter.

The autodiff model is a classic Wengert list.  Every tensor gets a key at
birth, from one process-wide counter, and keeps it for life.  While a
``Tape`` is active, every primitive records a node holding a closure that
maps the output gradient to input gradients, the key of the tensor it
produced, and for each input its key and shape, or nothing when it needs no
gradient.  Nodes hold keys only, never a ``Tensor``, so an activation stays
alive only while some backward closure reads it; the tape keeps each leaf (a
parameter or an input) once, beside its nodes.  ``backward`` pops the list
from the end.  Recording order is a topological order of the computation (an
input must exist before an op can consume it), so the reverse replay is an
exact reverse topological order and each node's output gradient is complete
before the node runs.  The replay consumes the tape: each node, with its
closure and the activations it holds, is dropped once it has run, and each
intermediate gradient as soon as its node has consumed it.  Only leaf
gradients are returned.

``MADD_COUNTER`` is fed only by ``ops._gemm``, through which every forward
GEMM goes; like the tape stack it is per thread, so threads never count
each other's work.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
DEFAULT_DTYPE = np.float32

# One process-wide source of tensor keys: unique across tapes and threads, and,
# unlike id(), never reused after the tensor it names has died.
_KEYS = itertools.count()


class Tensor:
    """A contiguous n-d float array, flagged when gradients should reach it.

    Values are immutable by convention once created.  The one sanctioned
    mutation is an optimizer update to a parameter buffer between steps;
    gradients live in the map ``backward`` returns, not on the tensor.
    """

    __slots__ = ("data", "requires_grad", "_key")

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
        self.data = np.require(arr, requirements="C")   # keeps rank 0, unlike ascontiguousarray
        self.requires_grad = bool(requires_grad)
        self._key = next(_KEYS)   # fixed at birth; names this tensor on every tape

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
# What a node keeps of one input: None (no gradient) or its (key, shape).
NodeInput = "None | tuple[int, tuple[int, ...]]"
Node = tuple[tuple[NodeInput, ...], int, BackwardFn]


class Tape:
    """Ordered record of primitive applications, replayed in reverse.

    A tape is single-threaded: enter it as a context manager, run the forward
    computation inside, then call ``backward(loss, tape)``, which empties it.
    Each node holds its backward closure, its output's key and, per input,
    ``None`` or a ``(key, shape)`` pair.  A requires_grad input whose key the
    tape did not produce is a leaf, kept once in ``_leaves`` under its key.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._produced: set[int] = set()
        self._leaves: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _TAPES.stack
        if not stack or stack[-1] is not self:
            raise ContractError("tape stack corrupted: exited a tape that is not innermost")
        stack.pop()
        return False

    def record(self, inputs: Sequence[Tensor], output: Tensor, backward_fn: BackwardFn) -> None:
        """Append one node producing ``output``.

        A requires_grad input is kept as its key and shape, so the node keeps
        no array alive, and any other input as None.  A requires_grad input
        this tape did not produce is also kept, once, in ``_leaves``.
        """
        produced, leaves = self._produced, self._leaves
        refs = tuple((t._key, t.shape) if t.requires_grad else None for t in inputs)
        for t in inputs:
            if t.requires_grad and t._key not in produced:
                leaves.setdefault(t._key, t)
        produced.add(output._key)
        self._nodes.append((refs, output._key, backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)


class _TapeStack(threading.local):
    """The calling thread's active tapes, innermost last."""

    def __init__(self):
        self.stack: list[Tape] = []


_TAPES = _TapeStack()


def active_tape() -> Tape | None:
    stack = _TAPES.stack
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
    if loss._key not in tape._produced:
        raise ContractError("loss was not recorded on this tape (or the tape was consumed)")
    nodes, leaves = tape._nodes, tape._leaves
    tape._produced, tape._leaves = set(), {}

    grads: dict[int, np.ndarray] = {loss._key: np.ones_like(loss.data)}
    while nodes:
        refs, key, backward_fn = nodes.pop()
        out_grad = grads.pop(key, None)
        if out_grad is None:
            continue
        in_grads = backward_fn(out_grad)
        if len(in_grads) != len(refs):
            raise ContractError(
                f"backward closure returned {len(in_grads)} gradients for "
                f"{len(refs)} inputs"
            )
        for ref, g in zip(refs, in_grads):
            if g is None or ref is None:
                continue
            slot, shape = ref
            if g.shape != shape:
                raise ContractError(
                    f"gradient shape {g.shape} does not match tensor shape {shape}"
                )
            acc = grads.get(slot)
            grads[slot] = g if acc is None else acc + g

    return {t: grads[k] if k in grads else np.zeros_like(t.data) for k, t in leaves.items()}


class MAddCounter(threading.local):
    """Per-thread accumulator of multiply-add counts.

    Each thread sees only its own total, which starts at 0 and is monotone
    non-decreasing.  Only ``ops._gemm``, the forward GEMM, adds to it.  A
    backward closure's products, including a forward product it recomputes
    (``MultiHeadCore.mix``'s scores), are plain ``@`` and book nothing; the
    MLP node's backward recomputes GELU elementwise, which books nothing
    either.
    """

    _total = 0

    def add(self, count: int) -> None:
        count = int(count)
        if count < 0:
            raise ContractError(f"negative multiply-add count {count}")
        self._total += count

    @property
    def total(self) -> int:
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

"""Differentiable primitives.

Every function takes and returns ``Tensor``s, computes the forward value with
numpy, and registers a backward closure on the active tape (see ``tensor``).
Shape checks are strict: elementwise ops require identical shapes, batched
``matmul`` requires identical leading dims.  Operands of ``matmul``,
``linear``, ``add``, ``mul``, ``concat`` and ``layer_norm`` must share one
dtype; float32 is never silently promoted to float64.  Scalar constants are
plain python floats so float32 data stays float32.

Only ``matmul`` and ``linear`` feed the multiply-add counter: a matmul of
(m, k) @ (k, n) adds exactly m*k*n (times the batch size), a linear adds
(#tokens)*Cin*Cout.  Softmax, normalization, and elementwise work are
excluded from counting on purpose.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import ContractError, ShapeError
from .tensor import MADD_COUNTER, Tensor, active_tape, from_op

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SHORT_ROW = 16     # longest softmax row whose max is taken column by column
_LN_EPS = 1e-5      # added to the LayerNorm variance


def _same_dtype(op: str, *tensors: Tensor) -> None:
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ContractError(f"{op} operands mix dtypes {sorted(str(d) for d in dtypes)}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``a @ b``.

    ``a``: (..., m, k), ``b``: (..., k, n) with identical leading dims.
    Counts prod(leading)*m*k*n multiply-adds.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul operands do not align: {a.shape} @ {b.shape}")
    _same_dtype("matmul", a, b)
    data = a.data @ b.data
    m, k = int(a.shape[-2]), int(a.shape[-1])
    n = int(b.shape[-1])
    MADD_COUNTER.add(math.prod(a.shape[:-2]) * m * k * n)

    def backward_fn(g):
        return (g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g)

    return from_op(data, (a, b), backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: ``x @ w (+ b)``.

    ``x``: (..., Cin), ``w``: (Cin, Cout), ``b``: (Cout,).  Counts
    (#tokens)*Cin*Cout multiply-adds where #tokens = prod of leading dims.
    """
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be rank 2, got {w.shape}")
    if x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear operands do not align: {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} does not match weight {w.shape}")
    _same_dtype("linear", x, w, *(() if b is None else (b,)))
    cin, cout = int(w.shape[0]), int(w.shape[1])
    data = x.data @ w.data
    if b is not None:
        np.add(data, b.data, out=data)
    MADD_COUNTER.add(math.prod(x.shape[:-1]) * cin * cout)

    def backward_fn(g):
        gx = g @ w.data.T
        g2 = g.reshape(-1, cout)
        gw = x.data.reshape(-1, cin).T @ g2
        if b is None:
            return (gx, gw)
        return (gx, gw, g2.sum(axis=0))

    inputs = (x, w) if b is None else (x, w, b)
    return from_op(data, inputs, backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    _same_dtype("add", a, b)
    return from_op(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    _same_dtype("mul", a, b)
    return from_op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, factor) -> Tensor:
    """Multiply by a constant factor, which receives no gradient.

    ``factor`` is a python scalar, or an array of ``x``'s dtype that
    broadcasts to ``x``'s shape, such as a per-sample (B, 1, …, 1) mask.
    """
    if isinstance(factor, np.ndarray):
        if factor.dtype != x.dtype:
            raise ContractError(f"scale factor dtype {factor.dtype} differs from {x.dtype}")
        if factor.ndim > x.ndim or any(f not in (1, d) for f, d in
                                       zip(factor.shape[::-1], x.shape[::-1])):
            raise ShapeError(f"scale factor {factor.shape} does not broadcast to {x.shape}")
    else:
        factor = float(factor)
    return from_op(x.data * factor, (x,), lambda g: (g * factor,))


def expand(x: Tensor, batch: int) -> Tensor:
    """Repeat along a new leading axis: (...) → (batch, ...).

    The backward sums the gradient over the new axis.
    """
    batch = int(batch)
    if batch < 1:
        raise ShapeError(f"expand batch must be >= 1, got {batch}")
    data = np.broadcast_to(x.data, (batch, *x.shape))
    return from_op(data, (x,), lambda g: (g.sum(axis=0),))


def reshape(x: Tensor, shape) -> Tensor:
    """Row-major reindex to a new shape with the same number of elements."""
    try:
        data = x.data.reshape(shape)
    except ValueError as err:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}") from err
    in_shape = x.shape

    def backward_fn(g):
        return (np.reshape(g, in_shape),)

    return from_op(data, (x,), backward_fn)


def permute(x: Tensor, axes) -> Tensor:
    """Transpose to a new axis order; the result is materialized contiguously."""
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute axes {axes} invalid for rank {x.ndim}")
    data = np.ascontiguousarray(x.data.transpose(axes))
    inv = tuple(int(i) for i in np.argsort(axes))

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return from_op(data, (x,), backward_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate same-dtype tensors along an existing axis; other axes must agree."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    _same_dtype("concat", *tensors)
    ndim = tensors[0].ndim
    if not 0 <= axis < ndim:
        raise ShapeError(f"concat axis {axis} invalid for rank {ndim}")
    off_axis = {t.shape[:axis] + t.shape[axis + 1 :] for t in tensors}
    if len(off_axis) > 1 or any(t.ndim != ndim for t in tensors):
        raise ShapeError(f"concat shapes differ off axis {axis}: {[t.shape for t in tensors]}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return from_op(data, tuple(tensors), backward_fn)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """A contiguous slab ``[start, start+length)`` along ``axis``."""
    if not (0 <= axis < x.ndim):
        raise ShapeError(f"narrow axis {axis} invalid for rank {x.ndim}")
    if not (0 <= start and start + length <= x.shape[axis] and length > 0):
        raise ShapeError(
            f"narrow [{start}:{start + length}] out of range for axis {axis} of {x.shape}"
        )
    index = (slice(None),) * axis + (slice(start, start + length),)
    data = x.data[index]
    in_shape, dtype = x.shape, x.dtype

    def backward_fn(g):
        full = np.zeros(in_shape, dtype=dtype)
        full[index] = g
        return (full,)

    return from_op(data, (x,), backward_fn)


def _row_max(d: np.ndarray) -> np.ndarray:
    """Max over the last axis, keepdims.  The max is exact in any order, so a
    running ``np.maximum`` over the columns gives np.max's bits; on short rows
    (outlook attention's K² = 9) it is several times faster than the reduction.
    """
    n = d.shape[-1]
    if not 0 < n <= _SHORT_ROW:
        return np.max(d, axis=-1, keepdims=True)
    m = d[..., :1].copy()
    for i in range(1, n):
        np.maximum(m, d[..., i : i + 1], out=m)
    return m


def _softmax_array(d: np.ndarray) -> np.ndarray:
    """Forward kernel of ``softmax`` on a raw array; returns a new array."""
    s = d - _row_max(d)
    np.exp(s, out=s)
    np.divide(s, np.sum(s, axis=-1, keepdims=True), out=s)
    return s


def _softmax_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backward kernel of ``softmax``: the input gradient from its output ``s``."""
    dot = np.sum(g * s, axis=-1, keepdims=True)
    return s * (g - dot)


def softmax(x: Tensor) -> Tensor:
    """Exponential normalization along the last axis; each row sums to one.

    Computed as exp(x - max)/sum for overflow safety; ``-inf`` entries (used
    for masking) receive exactly zero weight.
    """
    s = _softmax_array(x.data)
    return from_op(s, (x,), lambda g: (_softmax_grad(s, g),))


def log_softmax(x: Tensor) -> Tensor:
    """Log of softmax along the last axis, computed stably as (x - max) - log(sum(exp))."""
    z = x.data - np.max(x.data, axis=-1, keepdims=True)
    out = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))

    def backward_fn(g):
        return (g - np.exp(out) * np.sum(g, axis=-1, keepdims=True),)

    return from_op(out, (x,), backward_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    Variance uses the biased (1/C) estimator plus 1e-5, so a constant row maps
    to beta exactly.
    """
    c = x.shape[-1] if x.ndim else 0
    if x.ndim < 1 or gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm shapes do not align: x {x.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    _same_dtype("layer_norm", x, gamma, beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu                 # centred here, normalized in place below
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def backward_fn(g):
        # gx = inv * (gg - m1 - xhat * m2), built in two buffers
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        t = gg * xhat
        m2 = np.mean(t, axis=-1, keepdims=True)
        np.subtract(gg, m1, out=gg)
        np.multiply(xhat, m2, out=t)
        np.subtract(gg, t, out=gg)
        np.multiply(inv, gg, out=gg)
        np.multiply(g, xhat, out=t)
        ggamma = t.reshape(-1, c).sum(axis=0)
        gbeta = g.reshape(-1, c).sum(axis=0)
        return (gg, ggamma, gbeta)

    return from_op(out, (x, gamma, beta), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact erf form: x * Phi(x).

    A recorded node keeps only the derivative Phi(x) + x * pdf(x), computed in
    the forward; an unrecorded call computes no derivative.
    """
    d = x.data
    phi = 0.5 * (1.0 + erf(d * _INV_SQRT2))
    deriv = None
    if x.requires_grad and active_tape() is not None:     # the node will be recorded
        deriv = phi + d * (np.exp(-0.5 * d * d) * _INV_SQRT_2PI)
    return from_op(d * phi, (x,), lambda g: (g * deriv,))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a rank-0 tensor."""
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)
    in_shape, dtype = x.shape, x.dtype

    def backward_fn(g):
        return (np.ones(in_shape, dtype=dtype) * g,)

    return from_op(data, (x,), backward_fn)


def avg_pool(x: Tensor, stride: int) -> Tensor:
    """Non-overlapping stride×stride mean over the two spatial axes.

    ``x``: (..., H, W, C) → (..., ceil(H/s), ceil(W/s), C).  The map is
    zero-padded at its far edges to whole s×s cells; edge cells divide by
    their in-bounds count, so the padding never enters a mean.  The backward
    spreads g / count evenly over each cell.
    """
    s = int(stride)
    if s < 1:
        raise ShapeError(f"avg_pool stride must be >= 1, got {s}")
    if x.ndim < 3:
        raise ShapeError(f"avg_pool expects (..., H, W, C), got {x.shape}")
    if s == 1:
        return x
    *lead, height, width, channels = x.shape
    h, w = -(-height // s), -(-width // s)
    counts_h = np.minimum(s, height - s * np.arange(h))
    counts_w = np.minimum(s, width - s * np.arange(w))
    counts = np.outer(counts_h, counts_w).astype(x.data.dtype)[:, :, None]
    padded = np.zeros((*lead, h * s, w * s, channels), dtype=x.data.dtype)
    padded[..., :height, :width, :] = x.data
    cells = np.moveaxis(padded.reshape(*lead, h, s, w, s, channels), (-4, -2), (0, 1))
    # builtin sum adds the s² cell slices one at a time in row-major order, so
    # the rounding is fixed; np.sum may pair entries up (it does for small C)
    out = sum(cells.reshape(s * s, *lead, h, w, channels)) / counts

    def backward_fn(g):
        gs = np.broadcast_to((g / counts)[..., :, None, :, None, :], (*lead, h, s, w, s, channels))
        gx = gs.reshape(*lead, h * s, w * s, channels)[..., :height, :width, :]
        return (np.ascontiguousarray(gx),)

    return from_op(out, (x,), backward_fn)

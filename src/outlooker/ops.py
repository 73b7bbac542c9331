"""Differentiable primitives.

Every function takes and returns ``Tensor``s, computes the forward value with
numpy, and registers a backward closure on the active tape (see ``tensor``).
Shape checks are strict: elementwise ops require identical shapes, batched
``matmul`` requires identical leading dims.  Operands of ``matmul``,
``linear``, ``add``, ``mul``, ``concat`` and ``layer_norm`` must share one
dtype; float32 is never silently promoted to float64.  Scalar constants are
plain python floats so float32 data stays float32.

Every forward GEMM in the package goes through ``_gemm``, the one place that
adds to the multiply-add counter; softmax, normalization, elementwise work
and backward GEMMs are not counted.  A forward product that a backward
closure recomputes (self-attention's scores) is a plain ``@`` there, so it
books nothing.  A product of a (..., k) array with a (k, n) matrix, forward
(``_gemm``) or backward (``linear``'s input gradient), is one BLAS call over
the flattened rows, not numpy's one call per leading index; the bits depend
on how many rows one call covers.

GELU's erf is the package's own, in numpy alone: a rational one in float32
(``_rational_erf``) and a piecewise polynomial one in float64 (``_erf64``),
so no float64 bit depends on an installed special-function library.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError, check_count
from .tensor import MADD_COUNTER, Tensor, active_tape, from_op

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SHORT_ROW = 16     # longest row whose max and sum are taken column by column
_LN_EPS = 1e-5      # added to the LayerNorm variance
_GELU_BLOCK_BYTES = 1 << 18    # per GELU scratch buffer: 65,536 float32 values
# |x| past which exp(-x²/2) is 0 in float32 and float64 (float64 underflows past
# 38.6); GELU's derivative clamps x to it before squaring, so x² cannot overflow
_GELU_EXP_BOUND = 40.0
# Eigen's generic_fast_erf_float: erf(z) = z·P(z²) / Q(z²) on |z| <= 4,
# coefficients from the highest power down
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)
# float64 erf, split as in Cody (Math. Comp. 23, 1969): z·P(z²) on |z| < 1,
# and 1 - exp(-z²)·R(2/(2 + z) - 15/32) on 1 <= z <= 6, in Numerical Recipes'
# erfc variable 2/(2 + z).  Highest power first; mpmath.chebyfit at 60 digits
# fitted P (degree 12) to erf(√w)/√w on w in [0, 1] and R (degree 16) to
# exp(z²)·erfc(z) on z in [1, 6].
_ERF64_P = (5.957176147748911e-11, -1.1372848856791674e-09, 1.4659775274047436e-08,
            -1.6350312701054695e-07, 1.6461000484121368e-06, -1.4925595266831182e-05,
            0.0001205533111164271, -0.000854832698083379, 0.0052239776248180145,
            -0.026866170645076792, 0.11283791670954879, -0.3761263890318375,
            1.1283791670955126)
_ERF64_R = (-0.07440021243346044, -0.004499390926450373, 0.07655637061309366,
            -0.04245814718892475, -0.046700085594944526, 0.07635917678696351,
            0.00524777777809581, -0.09467533673864598, 0.03718601619595371,
            0.11968288763488266, -0.08117396723069702, -0.2112053359431032,
            0.09378622022385959, 0.6222134178330684, 0.90781628059598,
            0.7957998587373288, 0.2296213198668404)
_ERF64_SHIFT = 15 / 32      # a binary fraction near the middle of 2/(2 + z)'s [1/4, 2/3]


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
    data = _gemm(a.data, b.data)

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
    data = _gemm(x.data, w.data)
    if b is not None:
        np.add(data, b.data, out=data)

    def backward_fn(g):
        g2 = g.reshape(-1, cout)
        gx = (g2 @ w.data.T).reshape(x.shape)
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
    check_count(batch, "expand batch", ShapeError)
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


def _row_sum(d: np.ndarray) -> np.ndarray:
    """Sum over the last axis, keepdims, with np.sum's bits.

    On a short row np.sum's per-row overhead dominates, so the columns are
    added whole, in the order of numpy's unrolled pairwise sum: below 8
    columns one by one; from 8 to 16, eight running sums r0..r7 (r_j plus
    column 8 + j when there are 16), then ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the remaining columns one at a time.  numpy adds each row's result
    to the identity 0, which turns −0.0 into +0.0; so does this.
    """
    n = d.shape[-1]
    if not 0 < n <= _SHORT_ROW:
        return np.sum(d, axis=-1, keepdims=True)
    cols = [d[..., i : i + 1] for i in range(n)]
    if n < 8:
        total = cols[0] + 0.0
        for c in cols[1:]:
            np.add(total, c, out=total)
        return total
    r = cols[:8] if n < 16 else [a + b for a, b in zip(cols[:8], cols[8:])]
    total, t = r[0] + r[1], r[2] + r[3]
    np.add(total, t, out=total)
    u = r[6] + r[7]
    np.add(r[4], r[5], out=t)
    np.add(t, u, out=t)
    np.add(total, t, out=total)
    for c in cols[n - n % 8 :]:
        np.add(total, c, out=total)
    np.add(total, 0.0, out=total)
    return total


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, booking its out.size * k multiply-adds on ``MADD_COUNTER``.

    A (..., k) ``a`` times a (k, n) matrix ``b`` is one BLAS call over the
    flattened (rows, k) rows, reshaped back to (..., n); numpy's matmul would
    make one call per leading index.
    """
    k = a.shape[-1]
    if b.ndim == 2 and a.ndim > 2:
        out = (a.reshape(-1, k) @ b).reshape(*a.shape[:-1], b.shape[1])
    else:
        out = a @ b
    MADD_COUNTER.add(out.size * k)
    return out


def _softmax_parts(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward kernel of ``softmax`` on a raw array: a new array s = exp(d - m) / r,
    with the row max m of ``d`` and the row sum r of exp(d - m), both keepdims."""
    m = _row_max(d)
    s = d - m
    np.exp(s, out=s)
    r = _row_sum(s)
    np.divide(s, r, out=s)
    return s, m, r


def _softmax_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Backward kernel of ``softmax``: the input gradient s·(g − Σ g·s) from its output ``s``.

    The product is written into the difference's buffer, so the kernel holds
    one new array of ``g``'s size, not two.
    """
    out = g - _row_sum(g * s)
    np.multiply(s, out, out=out)
    return out


def _check_rows(op: str, x: Tensor) -> None:
    """A row to normalize is the last axis, so it must exist and be non-empty."""
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"{op} needs a non-empty last axis, got shape {x.shape}")


def softmax(x: Tensor) -> Tensor:
    """Exponential normalization along the last axis; each row sums to one.

    Computed as exp(x - max)/sum for overflow safety; ``-inf`` entries (used
    for masking) receive exactly zero weight.
    """
    _check_rows("softmax", x)
    s = _softmax_parts(x.data)[0]
    return from_op(s, (x,), lambda g: (_softmax_grad(s, g),))


def log_softmax(x: Tensor) -> Tensor:
    """Log of softmax along the last axis, computed stably as (x - max) - log(sum(exp))."""
    _check_rows("log_softmax", x)
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
    _check_rows("layer_norm", x)
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


def _horner(z2: np.ndarray, coeffs, out: np.ndarray) -> None:
    """The polynomial with ``coeffs`` (highest power first) at ``z2``, into ``out``."""
    np.multiply(z2, coeffs[0], out=out)
    np.add(out, coeffs[1], out=out)
    for c in coeffs[2:]:
        np.multiply(out, z2, out=out)
        np.add(out, c, out=out)


def _rational_erf(z: np.ndarray, t: np.ndarray, u: np.ndarray) -> None:
    """erf(z) in place by Eigen's ``generic_fast_erf_float``; ``t``, ``u`` are scratch.

    z is clamped to [-4, 4], then erf(z) = z·P(z²) / Q(z²) is clipped to
    [-1, 1].  In float32 it is within 5e-7 of the exact erf; NaN stays NaN.
    """
    # the method with a positional ``out`` skips np.clip's per-call keyword dict
    z.clip(-4.0, 4.0, z)
    np.multiply(z, z, out=t)
    _horner(t, _ERF32_P, u)
    np.multiply(u, z, out=u)
    _horner(t, _ERF32_Q, z)
    np.divide(u, z, out=z)
    z.clip(-1.0, 1.0, z)


def _erf64(z: np.ndarray, t: np.ndarray, u: np.ndarray, v: np.ndarray,
           m: np.ndarray) -> None:
    """erf(z) in place for float64 ``z``; ``t``, ``u``, ``v`` are float64 scratch, ``m`` bool.

    |z| < 1 takes z·P(z²).  Elsewhere a = min(|z|, 6) and erf(z) =
    sign(z)·(1 - exp(-a²)·R(a)), which rounds to ±1 from |z| ≈ 5.92 on.
    Within 3 ulp of the exact erf; NaN stays NaN, ±0 and subnormals keep
    their sign, and no step overflows, so no floating-point warning is raised.
    """
    np.abs(z, out=t)
    np.greater_equal(t, 1.0, out=m)     # the tail's elements; NaN takes the near piece
    t.clip(1.0, 6.0, t)                 # a, kept inside R's fitted range
    np.multiply(t, t, out=u)
    np.negative(u, out=u)
    np.exp(u, out=u)
    np.add(t, 2.0, out=t)
    np.divide(2.0, t, out=t)
    np.subtract(t, _ERF64_SHIFT, out=t)
    _horner(t, _ERF64_R, v)
    np.multiply(u, v, out=u)            # erfc(a)
    np.subtract(1.0, u, out=u)
    np.copysign(u, z, out=u)
    z.clip(-1.0, 1.0, t)                # equals z wherever the near piece is kept
    np.multiply(t, t, out=v)
    _horner(v, _ERF64_P, z)
    np.multiply(z, t, out=z)
    np.copyto(z, u, where=m)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error linear unit, exact erf form: x * Phi(x), Phi(x) = (1 + erf(x/√2)) / 2.

    One pass over the flattened input in blocks of ``_GELU_BLOCK_BYTES``;
    every step writes into the preallocated output or into block-sized
    scratch: three buffers in float32, four and a bool mask in float64.  The
    dtype picks the erf, and neither's bits depend on the block.  float64
    uses ``_erf64``, a piecewise polynomial erf within 3 ulp of the exact
    one.  float32 uses ``_rational_erf``, a rational erf on x/√2 clamped to
    [-4, 4], within 5e-7 of the exact erf and clipped to [-1, 1].  So
    0 <= Phi <= 1 in both.

    A recorded node keeps only the derivative Phi(x) + x * pdf(x), computed in
    the forward; an unrecorded call computes no derivative.
    """
    out, deriv = np.empty_like(x.data), None
    if x.requires_grad and active_tape() is not None:     # the node will be recorded
        deriv = np.empty_like(x.data)
    d, out_flat = x.data.reshape(-1), out.reshape(-1)
    deriv_flat = None if deriv is None else deriv.reshape(-1)
    rational = d.dtype == np.float32
    block = max(1, min(d.size, _GELU_BLOCK_BYTES // d.itemsize))
    phi_buf, t_buf, u_buf = (np.empty(block, dtype=d.dtype) for _ in range(3))
    if not rational:
        v_buf, m_buf = np.empty(block, dtype=d.dtype), np.empty(block, dtype=bool)
    for start in range(0, d.size, block):
        stop = min(start + block, d.size)
        xb, n = d[start:stop], stop - start
        phi, t = phi_buf[:n], t_buf[:n]
        np.multiply(xb, _INV_SQRT2, out=phi)
        if rational:
            _rational_erf(phi, t, u_buf[:n])
        else:
            _erf64(phi, t, u_buf[:n], v_buf[:n], m_buf[:n])
        np.add(phi, 1.0, out=phi)
        np.multiply(phi, 0.5, out=phi)
        np.multiply(xb, phi, out=out_flat[start:stop])
        if deriv is not None:                          # phi + x * exp(-x²/2) / √(2π)
            xc = u_buf[:n]
            xb.clip(-_GELU_EXP_BOUND, _GELU_EXP_BOUND, xc)
            np.multiply(xc, -0.5, out=t)
            np.multiply(t, xc, out=t)
            np.exp(t, out=t)
            np.multiply(t, _INV_SQRT_2PI, out=t)
            np.multiply(xb, t, out=t)
            np.add(phi, t, out=deriv_flat[start:stop])
    return from_op(out, (x,), lambda g: (g * deriv,))


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
    check_count(stride, "avg_pool stride", ShapeError)
    s = stride
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

"""Token-mixing layers and the closed-form multiply-add model.

Four interchangeable layers over token maps.  Every layer accepts leading
(batch) axes before its (H, W, C) map or (L, C) list; an unbatched input is
the same code with no leading axes.

* ``OutlookAttention``: each window's K²×K² mixing weights are *predicted*
  by a linear map from the window's (pooled) center token, softmaxed over the
  source-slot axis, applied to unfolded values, and scatter-added back.
* ``LocalSelfAttention``: dot-product attention restricted to each token's
  K×K neighborhood (padded positions masked out of the softmax).
* ``SelfAttention``: full scaled dot-product attention over a flat list.
* ``Conv2d``: K×K cross-correlation, each window's K²·Cin row times the
  weight, over bands of windows so that no pass builds the whole stack.

``SelfAttention``, ``LocalSelfAttention`` and the class-attention block are
one ``MultiHeadCore``: ``attend`` projects q from the query tokens and k, v
from the attended ones, and ``mix`` attends over flat lists as one tape
node.  It copies the heads out contiguously, (..., heads, L, C/heads), and
keeps those copies and the softmax's row max and row sum, not the
(..., heads, Lq, Lk) softmax, which its backward rebuilds from them with
the forward's own steps, so every bit is the same.  The window layers make
no head copies: they unfold straight into the head-major (...,
windows, heads, K², C/heads) stack of ``windows``.  ``OutlookAttention``
mixes its values and folds them back from that layout in one tape node,
which walks the window grid in bands of whole window rows, last band
first, so neither pass holds the K²-wide stack; each window's product keeps
its shape and each token's terms are added in the whole-grid fold's order,
so the bands change no bit.  The local ``mix`` multiplies its key stack by
each token's one query, (K², dh) @ (dh, 1), and its value stack by the
masked softmax of those scores.

``_cost`` gives each layer kind's (parameters, multiply-adds) at stride 1 and
``madds`` its multiply-add half; ``measured_madds`` runs the instrumented
counter, which matches it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ShapeError, check_count
from .tensor import MADD_COUNTER, Tensor, from_op, trunc_normal
from .windows import (
    WindowGeometry,
    _fold_band,
    _unfold_band,
    check_heads,
    check_window,
    in_bounds_mask,
    unfold,
)

INIT_STD = 0.02
_PIECE_BYTES = 1 << 20     # largest band of windows one pass copies


def _param(rng, shape, dtype) -> Tensor:
    return Tensor(trunc_normal(rng, shape, INIT_STD, dtype), requires_grad=True)


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


class Module:
    """Base of every layer, block and model: parameters named by attribute path.

    A ``Tensor`` attribute is a parameter, named by its attribute; a Module
    attribute contributes its parameters under ``name.``, and a list of
    Modules under ``name.i.``.  Order is attribute assignment order in
    ``__init__`` (``vars`` keeps it), so ``stage1.2.mixer.w_v`` names the
    value projection of the third stage-1 block.

    A subclass's own ``forward`` is bound as its ``__call__`` too, the same
    function, so a wrapper of either method sees one call, not two nested.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "forward" in vars(cls):
            cls.__call__ = cls.forward

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                out.append((name, value))
            elif isinstance(value, Module):
                out += [(f"{name}.{k}", p) for k, p in value.named_params()]
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    out += [(f"{name}.{i}.{k}", p) for k, p in item.named_params()]
        return out

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_params()]


class MultiHeadCore(Module):
    """q/k/v/o projections (C×C, with bias); ``attend`` wraps them around ``mix``."""

    def __init__(self, rng, channels: int, heads: int, dtype=np.float32):
        check_heads(channels, heads)
        self.channels = channels
        self.heads = heads
        for name in ("q", "k", "v", "o"):
            setattr(self, f"w_{name}", _param(rng, (channels, channels), dtype))
            setattr(self, f"b_{name}", _zeros(channels, dtype))

    def attend(self, queries: Tensor, tokens: Tensor) -> Tensor:
        q = ops.linear(queries, self.w_q, self.b_q)
        k = ops.linear(tokens, self.w_k, self.b_k)
        v = ops.linear(tokens, self.w_v, self.b_v)
        return ops.linear(self.mix(q, k, v), self.w_o, self.b_o)

    def mix(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        """Multi-head softmax(q·kᵀ/√dh)·v as one tape node; q: (..., Lq, C), k and v: (..., Lk, C).

        The forward copies the heads out contiguously, q as (..., heads, Lq,
        dh), k as (..., heads, dh, Lk) and v as (..., heads, Lk, dh), takes
        the score product, scales it by 1/√dh, softmaxes it over Lk, takes
        the value product and merges the heads back to (..., Lq, C).  The
        node keeps the three head copies and the softmax's row max and row
        sum, (..., heads, Lq, 1) each, not the (..., heads, Lq, Lk) softmax
        itself: the backward rebuilds it with the forward's own steps, so it
        is the same array bit for bit, then runs the value and score
        products', the softmax's and the scale's backward kernels.  The
        rebuilt score product is plain ``@`` and books no multiply-adds.
        """
        heads = self.heads
        if not (2 <= q.ndim == k.ndim and q.shape[:-2] == k.shape[:-2] and k.shape == v.shape
                and q.shape[-1] == k.shape[-1] and k.shape[-1] % heads == 0):
            raise ShapeError(f"mix expects q (..., Lq, C) and k, v (..., Lk, C), C divisible "
                             f"by {heads} heads; got {q.shape}, {k.shape}, {v.shape}")
        ops._same_dtype("mix", q, k, v)
        *lead, length, channels = k.shape
        n, queries, dh = len(lead), q.shape[-2], channels // heads
        swap = (*range(n), n + 1, n, n + 2)      # (..., L, heads, dh) ↔ (..., heads, L, dh)
        to_keys, from_keys = (*range(n), n + 1, n + 2, n), (*range(n), n + 2, n, n + 1)
        factor = 1.0 / math.sqrt(dh)

        def heads_of(data, rows, axes):
            return np.ascontiguousarray(data.reshape(*lead, rows, heads, dh).transpose(axes))

        kt = heads_of(k.data, length, to_keys)
        qh = heads_of(q.data, queries, swap)
        s, row_max, row_sum = ops._softmax_parts(ops._gemm(qh, kt) * factor)
        vh = heads_of(v.data, length, swap)
        out = np.ascontiguousarray(ops._gemm(s, vh).transpose(swap)).reshape(q.shape)

        def backward_fn(g):
            go = heads_of(g, queries, swap)
            s = qh @ kt                          # the forward's softmax, step for step
            np.multiply(s, factor, out=s)
            np.subtract(s, row_max, out=s)
            np.exp(s, out=s)
            np.divide(s, row_sum, out=s)
            ga, gv = go @ vh.swapaxes(-1, -2), s.swapaxes(-1, -2) @ go
            gs = ops._softmax_grad(s, ga)
            del s, ga                # so at most three score-sized arrays live at once
            np.multiply(gs, factor, out=gs)
            gq, gk = gs @ kt.swapaxes(-1, -2), qh.swapaxes(-1, -2) @ gs
            return tuple(np.ascontiguousarray(t.transpose(axes)).reshape(*lead, rows, channels)
                         for t, axes, rows in ((gq, swap, queries), (gk, from_keys, length),
                                               (gv, swap, length)))

        return from_op(out, (q, k, v), backward_fn)


class OutlookAttention(Module):
    """Window attention whose mixing weights come from the center token.

    For every window center the layer maps the center token (the stride×stride
    mean-pooled token when stride > 1) to heads·K⁴ logits, reshapes them to
    heads × K² × K², softmaxes each row over the source slots, applies them to
    the unfolded value windows, and scatter-adds the K² result rows of every
    window back onto the full H×W grid before the output projection.
    The value projection carries no bias; the logit and output projections do.

    The paper's Algorithm 1 (unfold, softmax, product, fold) is one tape node,
    ``_outlook_core``, which keeps the values and the softmax output.
    """

    def __init__(self, rng, channels: int, heads: int, kernel: int = 3, stride: int = 1,
                 dtype=np.float32):
        check_heads(channels, heads)
        check_window(kernel, stride)
        self.channels = channels
        self.heads = heads
        self.kernel = kernel
        self.stride = stride
        k4 = kernel ** 4
        self.w_v = _param(rng, (channels, channels), dtype)
        self.w_a = _param(rng, (channels, heads * k4), dtype)
        self.b_a = _zeros(heads * k4, dtype)
        self.w_o = _param(rng, (channels, channels), dtype)
        self.b_o = _zeros(channels, dtype)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim < 3 or x.shape[-1] != self.channels:
            raise ShapeError(f"expected (..., H, W, {self.channels}), got {x.shape}")
        geom = WindowGeometry(*x.shape[-3:-1], self.kernel, self.stride)
        values = ops.linear(x, self.w_v)                      # (..., H, W, C)
        pooled = ops.avg_pool(x, self.stride)                 # identity at stride 1
        logits = ops.linear(pooled, self.w_a, self.b_a)       # (..., h, w, heads·K⁴)
        return ops.linear(_outlook_core(logits, values, geom, self.heads), self.w_o, self.b_o)


def _per_piece(n: int, unit_bytes: int) -> int:
    """How many of ``n`` units fit in ``_PIECE_BYTES``: at least 1, at most ``n``."""
    return min(n, max(1, _PIECE_BYTES // max(1, unit_bytes)))


def _row_bands(h: int, rows: int) -> list[slice]:
    """Bands of ``rows`` window rows over ``h`` window rows, last band first."""
    return [slice(a, min(a + rows, h)) for a in reversed(range(0, h, rows))]


def _outlook_core(logits: Tensor, values: Tensor, geom: WindowGeometry, heads: int) -> Tensor:
    """Algorithm 1's window step, fold(softmax(logits) @ unfold(values)), as one tape node.

    ``logits``: (..., h, w, N·K⁴) as the logit projection makes them, read as
    (..., windows, N, K², K²); ``values``: (..., H, W, C) → (..., H, W, C).
    The node keeps ``values`` and the softmax output.  Neither pass holds the
    K²-wide value stack: both walk the window grid in bands of whole window
    rows, each forward band's stack at most ``_PIECE_BYTES`` (or one window
    row, if that is larger).  Per band, the forward
    unfolds the values, multiplies them by the band's softmax rows and folds
    the product onto the output; the backward unfolds the incoming gradient
    (``gm``), folds ``sᵀ @ gm`` onto the value gradient, unfolds the values
    again for ``gm @ stackᵀ`` and writes the band's softmax backward.  The
    backward holds two stacks at once, so its bands have half the forward's
    window rows.

    The bands run from the last window row to the first.  A later window row
    reaches a token through a smaller slot row, so every token's terms are
    added in ``fold_array``'s slot order from the same zero; and each
    window's product keeps its (K², K²) @ (K², C/N) shape, since a band only
    changes how many of them one call covers.  So every number is the one
    the whole-stack composition gives, at any band count.
    """
    k2 = geom.kernel * geom.kernel
    *lead, _, _, channels = values.shape
    h, w = geom.out_height, geom.out_width
    logits_shape = logits.shape
    s = ops._softmax_parts(logits.data.reshape(*lead, geom.windows, heads, k2, k2))[0]
    band = _per_piece(h, math.prod(lead) * w * k2 * channels * values.dtype.itemsize)

    def cut(rows):                  # the band's windows on the window axis
        return (..., slice(rows.start * w, rows.stop * w), slice(None), slice(None), slice(None))

    vdata = values.data
    out = np.zeros(vdata.shape, dtype=vdata.dtype)
    for rows in _row_bands(h, band):
        _fold_band(out, ops._gemm(s[cut(rows)], _unfold_band(vdata, geom, heads, rows)),
                   geom, rows)

    def backward_fn(g):
        gv, gs = np.zeros(vdata.shape, dtype=vdata.dtype), np.empty_like(s)
        for rows in _row_bands(h, max(1, band // 2)):
            sb, gm = s[cut(rows)], _unfold_band(g, geom, heads, rows)
            _fold_band(gv, sb.swapaxes(-1, -2) @ gm, geom, rows)
            # the values' stack is a temporary, freed before the softmax backward
            gs[cut(rows)] = ops._softmax_grad(
                sb, gm @ _unfold_band(vdata, geom, heads, rows).swapaxes(-1, -2))
        return (gs.reshape(logits_shape), gv)

    return from_op(out, (logits, values), backward_fn)


class LocalSelfAttention(MultiHeadCore):
    """Dot-product attention restricted to each token's K×K neighborhood."""

    def __init__(self, rng, channels: int, heads: int, kernel: int = 3, dtype=np.float32):
        super().__init__(rng, channels, heads, dtype)
        check_window(kernel)
        self.kernel = kernel

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim < 3 or x.shape[-1] != self.channels:
            raise ShapeError(f"expected (..., H, W, {self.channels}), got {x.shape}")
        return self.attend(x, x)

    def mix(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        *lead, height, width, channels = q.shape
        geom = WindowGeometry(height, width, self.kernel)
        hw, n, k2 = height * width, self.heads, self.kernel * self.kernel
        dh = channels // n
        # each token is one query over its K² neighbors, so its projection
        # reshapes straight to head-major; the keys sit on the left of the
        # product, (K², dh) @ (dh, 1), so no head is transposed
        q = ops.reshape(q, (*lead, hw, n, dh, 1))
        keys = unfold(k, geom, n)                                    # (..., hw, N, K², dh)
        values = unfold(v, geom, n)
        scores = ops.scale(ops.matmul(keys, q), 1.0 / math.sqrt(dh))
        scores = ops.reshape(scores, (*lead, hw, n, 1, k2))
        # padded neighbors are struck from the softmax entirely
        neg = np.where(in_bounds_mask(geom), 0.0, -np.inf).astype(q.dtype)
        scores = ops.add(scores, Tensor(np.broadcast_to(neg[:, None, None, :], scores.shape)))
        out = ops.matmul(ops.softmax(scores), values)                # (..., hw, N, 1, dh)
        return ops.reshape(out, v.shape)


class SelfAttention(MultiHeadCore):
    """Scaled dot-product attention over a flat (..., L, C) token list."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim < 2 or x.shape[-1] != self.channels:
            raise ShapeError(f"expected (..., L, {self.channels}), got {x.shape}")
        return self.attend(x, x)


class Conv2d(Module):
    """K×K cross-correlation with zero padding ⌊K/2⌋ and bias, as one tape node.

    The node keeps the input and the weight; no pass builds the whole
    K²·Cin-wide window stack.  Both passes walk the window grid in bands of
    whole window rows, at most ``_PIECE_BYTES`` of stack each: the forward
    multiplies a band's windows (``_unfold_band``) by the weight in one BLAS
    call; the backward folds a band's g·Wᵀ onto the input gradient
    (``_fold_band``, the unfold's adjoint), last band first, which adds every
    token's terms in ``fold_array``'s slot order.  Before that, the weight
    gradient unfolds the input a group of kernel rows at a time
    (``_unfold_band``'s ``kernel_rows``) over the whole grid, each element one
    sum over all windows.  So every element is the same sum in the same order
    at any piece size.
    """

    def __init__(self, rng, kernel: int, cin: int, cout: int, stride: int = 1,
                 dtype=np.float32):
        check_window(kernel, stride)
        check_count(cin, "cin", ShapeError)
        check_count(cout, "cout", ShapeError)
        self.kernel = kernel
        self.cin = cin
        self.cout = cout
        self.stride = stride
        self.weight = _param(rng, (kernel, kernel, cin, cout), dtype)
        self.bias = _zeros(cout, dtype)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim < 3 or x.shape[-1] != self.cin:
            raise ShapeError(f"expected (..., H, W, {self.cin}), got {x.shape}")
        ops._same_dtype("conv", x, self.weight, self.bias)
        *lead, height, width, _ = x.shape
        geom = WindowGeometry(height, width, self.kernel, self.stride)
        k, cin, cout = self.kernel, self.cin, self.cout
        h, w, row = geom.out_height, geom.out_width, k * k * cin
        wmat = self.weight.data.reshape(row, cout)
        itemsize, xdata = x.dtype.itemsize, x.data
        bands = _row_bands(h, _per_piece(h, math.prod(lead) * w * row * itemsize))

        out = np.empty((*lead, h, w, cout), dtype=x.dtype)
        for rows in bands:
            out[..., rows, :, :] = ops._gemm(_unfold_band(xdata, geom, 1, rows).reshape(
                *lead, rows.stop - rows.start, w, row), wmat)
        out += self.bias.data
        weight_shape, needs_gx = self.weight.shape, x.requires_grad

        def backward_fn(g):
            g2 = g.reshape(-1, cout)
            gw = np.empty((row, cout), dtype=xdata.dtype)
            group = _per_piece(k, math.prod(lead) * h * w * k * cin * itemsize)
            for dp in range(0, k, group):
                lo, hi = dp * k * cin, min(dp + group, k) * k * cin
                stack = _unfold_band(xdata, geom, 1, slice(0, h), slice(dp, dp + group))
                gw[lo:hi] = stack.reshape(-1, hi - lo).T @ g2
                del stack
            gx = None
            if needs_gx:
                gx = np.zeros(xdata.shape, dtype=xdata.dtype)
                for rows in bands:
                    n = rows.stop - rows.start
                    part = g[..., rows, :, :].reshape(-1, cout) @ wmat.T
                    _fold_band(gx, part.reshape(*lead, n * w, 1, k * k, cin), geom, rows)
            return gx, gw.reshape(weight_shape), g2.sum(axis=0)

        return from_op(out, (x, self.weight, self.bias), backward_fn)


# ---------------------------------------------------------------------------
# analytic cost model


@dataclass(frozen=True)
class CostQuery:
    """Shape of a standalone stride-1 layer for the closed-form cost model."""

    height: int
    width: int
    channels: int
    kernel: int = 3
    heads: int = 6

    def __post_init__(self):
        for name in ("height", "width", "channels", "kernel", "heads"):
            check_count(getattr(self, name), f"CostQuery.{name}", ShapeError)


LAYER_KINDS = ("oa", "lsa", "sa", "conv")


def _oa_cost(tokens: int, windows: int, c: int, heads: int, k: int) -> tuple[int, int]:
    """(params, madds) of outlook attention over ``tokens`` positions, ``windows`` centers.

    Value (no bias) and output projections over every token, the logit projection
    and the K⁴·C window aggregation once per window (windows == tokens at stride 1).
    """
    k4 = k ** 4
    return (2 * c * c + c * heads * k4 + heads * k4 + c,
            2 * tokens * c * c + windows * c * heads * k4 + windows * k4 * c)


def _attention_cost(queries: int, tokens: int, span: int, c: int) -> tuple[int, int]:
    """``attend``: q, o over ``queries``, k, v over ``tokens``, two GEMMs over ``span``."""
    return 4 * (c * c + c), 2 * queries * c * c + 2 * tokens * c * c + 2 * queries * span * c


def _conv_cost(windows: int, k: int, cin: int, cout: int) -> tuple[int, int]:
    """K×K cross-correlation, one K²·Cin × Cout GEMM row per window; K = 1 is a linear."""
    return k * k * cin * cout + cout, windows * k * k * cin * cout


def _cost(query: CostQuery, kind: str) -> tuple[int, int]:
    """(params, madds) of the stride-1 layer ``build_layer(kind, query, …)`` makes."""
    hw, c = query.height * query.width, query.channels
    if kind == "sa":
        return _attention_cost(hw, hw, hw, c)
    if kind == "lsa":
        return _attention_cost(hw, hw, query.kernel * query.kernel, c)
    if kind == "oa":
        return _oa_cost(hw, hw, c, query.heads, query.kernel)
    if kind == "conv":
        return _conv_cost(hw, query.kernel, c, c)
    raise ShapeError(f"unknown layer kind {kind!r}; expected one of {LAYER_KINDS}")


def madds(query: CostQuery, kind: str) -> int:
    """Closed-form multiply-add count of one stride-1 layer forward pass.

    sa:  4·HWC² + 2·(HW)²·C
    lsa: 4·HWC² + 2·HW·K²·C
    oa:  HWC·(2C + N·K⁴) + HW·K⁴·C
    conv: HW·K²·C² (same-width cross-correlation)

    The attention formulas ignore softmax.  For oa, each location applies its
    heads' K²×K² weight maps to the K² value slots of its window, K⁴·C
    multiply-adds per location.  ``measured_madds`` reports what the
    instrumented counter sees, and agrees with these forms exactly.
    """
    return _cost(query, kind)[1]


def build_layer(kind: str, query: CostQuery, rng, dtype=np.float64):
    """Instantiate the layer a CostQuery describes (square-channel, stride 1)."""
    if kind == "oa":
        return OutlookAttention(rng, query.channels, query.heads, query.kernel, dtype=dtype)
    if kind == "lsa":
        return LocalSelfAttention(rng, query.channels, query.heads, query.kernel, dtype=dtype)
    if kind == "sa":
        return SelfAttention(rng, query.channels, query.heads, dtype=dtype)
    if kind == "conv":
        return Conv2d(rng, query.kernel, query.channels, query.channels, dtype=dtype)
    raise ShapeError(f"unknown layer kind {kind!r}; expected one of {LAYER_KINDS}")


def layer_input(kind: str, query: CostQuery, rng, dtype=np.float64) -> Tensor:
    shape = (
        (query.height * query.width, query.channels)
        if kind == "sa"
        else (query.height, query.width, query.channels)
    )
    return Tensor(rng.standard_normal(shape), dtype=dtype)


def measured_madds(layer, x: Tensor) -> int:
    """Multiply-adds accumulated by one forward pass of ``layer`` on ``x``."""
    start = MADD_COUNTER.total
    layer.forward(x)
    return MADD_COUNTER.total - start

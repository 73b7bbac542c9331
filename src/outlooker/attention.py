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
from the attended ones, and ``mix`` attends over flat lists, heads laid out
as (..., heads, L, C/heads) via ``split_heads``/``merge_heads``.  The window
layers make no head copies: they unfold straight into the head-major (...,
windows, heads, K², C/heads) stack of ``windows``.  ``OutlookAttention``
mixes its value stack and folds it back from that layout in one tape node,
which unfolds the values again in backward rather than keep the stack; the
local ``mix`` multiplies its key stack by each token's one query, (K², dh) @
(dh, 1), and its value stack by the masked softmax of those scores.

``_cost`` gives each layer kind's (parameters, multiply-adds) at stride 1 and
``madds`` its multiply-add half; ``measured_madds`` runs the instrumented
counter, which matches it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ShapeError
from .tensor import MADD_COUNTER, Tensor, from_op, trunc_normal
from .windows import (
    WindowGeometry,
    check_heads,
    check_window,
    fold_array,
    in_bounds_mask,
    padded_windows,
    unfold,
    unfold_array,
)

INIT_STD = 0.02
_PIECE_BYTES = 1 << 20     # largest band of windows the Conv2d forward copies


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
    """

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


def split_heads(t: Tensor, heads: int) -> Tensor:
    """(..., L, C) → (..., heads, L, C/heads)."""
    *lead, length, channels = t.shape
    n = len(lead)
    t = ops.reshape(t, (*lead, length, heads, channels // heads))
    return ops.permute(t, (*range(n), n + 1, n, n + 2))


def merge_heads(t: Tensor) -> Tensor:
    """(..., heads, L, dh) → (..., L, heads·dh); the inverse of ``split_heads``."""
    *lead, heads, length, dh = t.shape
    n = len(lead)
    t = ops.permute(t, (*range(n), n + 1, n, n + 2))
    return ops.reshape(t, (*lead, length, heads * dh))


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
        """Multi-head softmax(q·kᵀ/√dh)·v; q: (..., Lq, C), k and v: (..., Lk, C)."""
        *lead, length, channels = k.shape
        n = len(lead)
        dh = channels // self.heads
        keys = ops.reshape(k, (*lead, length, self.heads, dh))
        keys = ops.permute(keys, (*range(n), n + 1, n + 2, n))          # (..., heads, dh, Lk)
        scores = ops.scale(ops.matmul(split_heads(q, self.heads), keys), 1.0 / math.sqrt(dh))
        attn = ops.softmax(scores)
        return merge_heads(ops.matmul(attn, split_heads(v, self.heads)))


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
        *lead, height, width, _ = x.shape
        geom = WindowGeometry(height, width, self.kernel, self.stride)
        h, w = geom.out_height, geom.out_width
        k2 = self.kernel * self.kernel

        values = ops.linear(x, self.w_v)                      # (..., H, W, C)
        pooled = ops.avg_pool(x, self.stride)                 # identity at stride 1
        logits = ops.linear(pooled, self.w_a, self.b_a)       # (..., h, w, heads·K⁴)
        logits = ops.reshape(logits, (*lead, h * w, self.heads, k2, k2))
        return ops.linear(_outlook_core(logits, values, geom, self.heads), self.w_o, self.b_o)

    __call__ = forward


def _outlook_core(logits: Tensor, values: Tensor, geom: WindowGeometry, heads: int) -> Tensor:
    """Algorithm 1's window step, fold(softmax(logits) @ unfold(values)), as one tape node.

    ``logits``: (..., windows, N, K², K²), ``values``: (..., H, W, C) → (..., H, W, C).
    The node keeps ``values`` and the softmax output, not the K²-wide value
    stack.  Its backward makes the numpy calls of the four-op composition:
    the value gradient ``fold(sᵀ @ gm)`` first, freed before ``values`` is
    unfolded again for ``gm @ stackᵀ``, then the softmax backward.  The
    product adds its multiply-adds to the counter as ``ops.matmul`` does.
    """
    k2 = geom.kernel * geom.kernel
    s = ops._softmax_array(logits.data)
    mixed = s @ unfold_array(values.data, geom, heads)
    MADD_COUNTER.add(math.prod(s.shape[:-2]) * k2 * k2 * mixed.shape[-1])
    out = fold_array(mixed, geom, heads)
    vdata = values.data

    def backward_fn(g):
        gm = unfold_array(g, geom, heads)
        gv = fold_array(s.swapaxes(-1, -2) @ gm, geom, heads)
        gs = gm @ unfold_array(vdata, geom, heads).swapaxes(-1, -2)
        del gm             # freed before the softmax backward
        return (ops._softmax_grad(s, gs), gv)

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

    __call__ = forward

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

    __call__ = forward


class Conv2d(Module):
    """K×K cross-correlation with zero padding ⌊K/2⌋ and bias, as one tape node.

    The node keeps the input and the weight; no pass builds the whole
    K²·Cin-wide window stack.  With ``pieces`` = ⌈stack bytes / ``_PIECE_BYTES``⌉,
    the forward multiplies the windows of ⌈h/pieces⌉ output rows at a time by
    the weight.  The backward takes the kernel rows in min(K, pieces) groups and
    scatter-adds each group's input gradient in ``fold_array``'s slot order;
    each weight-gradient element stays one sum over all windows.  So every
    element is the same sum in the same order at any piece count.
    """

    def __init__(self, rng, kernel: int, cin: int, cout: int, stride: int = 1,
                 dtype=np.float32):
        check_window(kernel, stride)
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
        stack_rows = math.prod(lead) * geom.windows
        pieces = max(1, -(-stack_rows * row * x.dtype.itemsize // _PIECE_BYTES))
        MADD_COUNTER.add(stack_rows * row * cout)

        inner, view = padded_windows(lead, cin, geom, x.dtype)
        inner[...] = x.data
        out = np.empty((*lead, h, w, cout), dtype=x.dtype)
        band = -(-h // pieces)
        for a in range(0, h, band):
            rows = min(band, h - a)
            stack = np.ascontiguousarray(view[..., a : a + rows, :, 0, :, :, :])
            out[..., a : a + rows, :, :] = (
                stack.reshape(*lead, rows * w, row) @ wmat).reshape(*lead, rows, w, cout)
        out += self.bias.data
        xdata, weight_shape, needs_gx = x.data, self.weight.shape, x.requires_grad

        def backward_fn(g):
            g = g.reshape(*lead, geom.windows, cout)
            g2 = g.reshape(-1, cout)
            inner, view = padded_windows(lead, cin, geom, xdata.dtype)
            inner[...] = xdata
            if needs_gx:
                gx, gview = padded_windows(lead, cin, geom, xdata.dtype)
            gw = np.empty((row, cout), dtype=xdata.dtype)
            group = -(-k // min(k, pieces))
            for dp in range(0, k, group):
                krows = min(group, k - dp)
                lo, hi = dp * k * cin, (dp + krows) * k * cin
                if needs_gx:
                    part = (g @ wmat[lo:hi].T).reshape(*lead, h, w, krows, k, cin)
                    for i, dq in np.ndindex(krows, k):
                        gview[..., 0, dp + i, dq, :] += part[..., i, dq, :]
                    del part        # freed before the slab is copied
                slab = np.ascontiguousarray(view[..., 0, dp : dp + krows, :, :])
                gw[lo:hi] = slab.reshape(-1, hi - lo).T @ g2
                del slab
            return (np.ascontiguousarray(gx) if needs_gx else None,
                    gw.reshape(weight_shape), g2.sum(axis=0))

        return from_op(out, (x, self.weight, self.bias), backward_fn)

    __call__ = forward


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
            if getattr(self, name) < 1:
                raise ShapeError(f"CostQuery.{name} must be positive")


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

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
* ``Conv2d``: K×K cross-correlation, one GEMM over the unfolded windows.

``SelfAttention``, ``LocalSelfAttention`` and the class-attention block are
one ``MultiHeadCore``: ``attend`` projects q from the query tokens and k, v
from the attended ones, and ``mix`` attends over flat lists, heads laid out
as (..., heads, L, C/heads) via ``split_heads``/``merge_heads``.  The window
layers make no head copies: they unfold straight into the head-major (...,
windows, heads, K², C/heads) stack of ``windows``.  ``OutlookAttention``
mixes its value stack and folds it back from that layout; the local ``mix``
multiplies its key stack by each token's one query, (K², dh) @ (dh, 1), and
its value stack by the masked softmax of those scores.

``madds`` gives the closed-form cost of each layer kind at stride 1;
``measured_madds`` runs the instrumented counter, which matches it exactly.
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
    fold,
    fold_array,
    in_bounds_mask,
    unfold,
    unfold_array,
)

INIT_STD = 0.02


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
        stack = unfold(values, geom, self.heads)              # (..., h·w, heads, K², cn)

        pooled = ops.avg_pool(x, self.stride)                 # identity at stride 1
        logits = ops.linear(pooled, self.w_a, self.b_a)       # (..., h, w, heads·K⁴)
        attn = ops.softmax(ops.reshape(logits, (*lead, h * w, self.heads, k2, k2)))
        mixed = ops.matmul(attn, stack)                       # (..., h·w, heads, K², cn)
        return ops.linear(fold(mixed, geom, self.heads), self.w_o, self.b_o)

    __call__ = forward


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
    """K×K cross-correlation with zero padding ⌊K/2⌋ and bias.

    The forward is the GEMM of the unfolded window stack with the K²·Cin×Cout
    weight, recorded as one tape node.  The node keeps the input and the
    weight, not the stack: its backward re-unfolds the input for the weight
    gradient and folds the stack gradient back onto the input.
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
        k2, cin, cout = self.kernel * self.kernel, self.cin, self.cout
        shape = (*lead, geom.windows, k2 * cin)
        wmat = self.weight.data.reshape(k2 * cin, cout)
        data = unfold_array(x.data, geom).reshape(shape) @ wmat + self.bias.data
        MADD_COUNTER.add(math.prod(shape) * cout)
        xdata, weight_shape, needs_gx = x.data, self.weight.shape, x.requires_grad

        def backward_fn(g):
            g = g.reshape(*lead, geom.windows, cout)
            g2 = g.reshape(-1, cout)
            gx = None
            if needs_gx:
                gx = fold_array((g @ wmat.T).reshape(*lead, geom.windows, 1, k2, cin), geom)
            stack = unfold_array(xdata, geom).reshape(-1, k2 * cin)
            gw = (stack.T @ g2).reshape(weight_shape)
            return (gx, gw, g2.sum(axis=0))

        out = data.reshape(*lead, geom.out_height, geom.out_width, cout)
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


def _oa_madds(tokens: int, windows: int, c: int, heads: int, k: int) -> int:
    """Outlook attention over ``tokens`` positions with ``windows`` window centers.

    Value and output projections over every token, the logit projection and
    the K⁴·C window aggregation once per window (windows == tokens at stride 1).
    """
    k4 = k ** 4
    return 2 * tokens * c * c + windows * c * heads * k4 + windows * k4 * c


def _attention_madds(queries: int, tokens: int, span: int, c: int) -> int:
    """``attend``: q, o over ``queries``, k, v over ``tokens``, two GEMMs over ``span``."""
    return 2 * queries * c * c + 2 * tokens * c * c + 2 * queries * span * c


def _conv_madds(windows: int, k: int, cin: int, cout: int) -> int:
    """K×K cross-correlation: one K²·Cin × Cout GEMM row per window."""
    return windows * k * k * cin * cout


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
    hw = query.height * query.width
    c = query.channels
    k2 = query.kernel * query.kernel
    if kind == "sa":
        return _attention_madds(hw, hw, hw, c)
    if kind == "lsa":
        return _attention_madds(hw, hw, k2, c)
    if kind == "oa":
        return _oa_madds(hw, hw, c, query.heads, query.kernel)
    if kind == "conv":
        return _conv_madds(hw, query.kernel, c, c)
    raise ShapeError(f"unknown layer kind {kind!r}; expected one of {LAYER_KINDS}")


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

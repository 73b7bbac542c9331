"""Residual blocks: pre-norm token mixing + MLP, and stochastic depth.

``ResidualBlock`` wraps any token mixer: it computes ``x + mix(norm(x))``
followed by ``y + mlp(norm(y))`` on inputs with any leading (batch) axes.
The MLP is one tape node that keeps its input and its pre-activation and
recomputes GELU elementwise in backward, booking no multiply-adds there.
``OutlookerBlock`` and ``TransformerBlock`` are that block around outlook
attention and full self-attention; a stage-1 swap puts the layer that
``attention.build_layer`` makes in it.  ``ClassAttentionBlock`` updates only
the class token, attending over the class and patch tokens.

During training each residual branch can be dropped per sample (stochastic
depth): ``drop_path_masks`` draws every mask of a block stack up front, and a
block scales each branch along axis 0, the sample axis, by its mask, 0 or
1/(1-rate), so the expectation matches inference, where no mask is passed.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .attention import Module, MultiHeadCore, OutlookAttention, SelfAttention, _param, _zeros
from .errors import ContractError, ShapeError, check_count
from .tensor import Tensor, active_tape, from_op


def mlp_hidden(channels: int, ratio: float) -> int:
    """Hidden width ratio·C, required to be a finite, exact positive integer."""
    check_count(channels, "channels", ShapeError)
    hidden = channels * ratio
    rounded = int(round(hidden)) if np.isfinite(hidden) else 0
    if abs(hidden - rounded) > 1e-9 or rounded < 1:
        raise ShapeError(f"mlp ratio {ratio} times width {channels} is not a positive integer")
    return rounded


def check_drop_rate(rate: float) -> None:
    """Reject a drop-path rate outside [0, 1)."""
    if not (0.0 <= rate < 1.0):
        raise ContractError(f"drop rate must be in [0, 1), got {rate}")


def drop_path_masks(max_rate: float, depth: int, batch: int, rng) -> list[tuple]:
    """Every drop-path mask of a stack of ``depth`` residual blocks, in forward order.

    Block i drops at rate max_rate·i/(depth-1).  Each of its branches, the
    mixer's then the MLP's, draws ``batch`` float64 values from ``rng``: 0 with
    probability rate, else 1/(1-rate).  A block at rate 0 gets (None, None).
    """
    check_drop_rate(max_rate)
    masks = []
    for i in range(depth):
        rate = max_rate * i / max(depth - 1, 1)
        if rate == 0.0:
            masks.append((None, None))
        elif rng is None:
            raise ContractError("training forward with drop_path_rate > 0 needs an rng")
        else:
            masks.append(tuple((rng.random(batch) >= rate).astype(np.float64) / (1.0 - rate)
                               for _ in range(2)))
    return masks


class LayerNorm(Module):
    """Learnable scale/shift around last-axis normalization."""

    def __init__(self, channels: int, dtype=np.float32):
        check_count(channels, "channels", ShapeError)
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma, self.beta)


class Mlp(Module):
    """linear → gelu → linear as one tape node, hidden width = ratio × channels."""

    def __init__(self, rng, channels: int, ratio: float, dtype=np.float32):
        hidden = mlp_hidden(channels, ratio)
        self.w1 = _param(rng, (channels, hidden), dtype)
        self.b1 = _zeros(hidden, dtype)
        self.w2 = _param(rng, (hidden, channels), dtype)
        self.b2 = _zeros(channels, dtype)

    def forward(self, x: Tensor) -> Tensor:
        """fc2(gelu(fc1(x))) over the last axis of a (..., C) ``x``.

        The forward makes ``linear``'s and ``gelu``'s numpy calls in their
        order: fc1's product through ``ops._gemm`` and its bias added in
        place, GELU by ``ops._gelu_parts`` without its derivative, then fc2
        the same way.  The node keeps ``x`` and the pre-activation ``h``
        only; an untaped call drops ``h`` before fc2's product.  The backward
        recomputes GELU's output and derivative from ``h``, the same arrays
        bit for bit, then runs fc2's ``linear`` backward kernel, frees the
        GELU output, multiplies by the derivative and runs fc1's.  It books
        no multiply-adds.
        """
        w1, b1, w2, b2 = self.w1, self.b1, self.w2, self.b2
        if x.ndim < 1 or x.shape[-1] != w1.shape[0]:
            raise ShapeError(f"mlp input {x.shape} does not align with fc1 {w1.shape}")
        ops._same_dtype("mlp", x, w1, b1, w2, b2)
        h = ops._gemm(x.data, w1.data)
        np.add(h, b1.data, out=h)
        y = ops._gelu_parts(h, False)[0]
        if active_tape() is None:
            h = None                # no node will read it, so fc2's product runs without it
        out = ops._gemm(y, w2.data)
        np.add(out, b2.data, out=out)

        def backward_fn(g):
            y, deriv = ops._gelu_parts(h, True)
            gy, gw2, gb2 = ops._linear_grads(g, y, w2.data, True)
            del y
            np.multiply(gy, deriv, out=gy)
            del deriv
            return (*ops._linear_grads(gy, x.data, w1.data, True), gw2, gb2)

        return from_op(out, (x, w1, b1, w2, b2), backward_fn)


class ResidualBlock(Module):
    """Two pre-norm residual branches, ``mixer`` then an MLP, each scaled by its mask."""

    def __init__(self, mixer, rng, channels, mlp_ratio, dtype):
        self.norm1 = LayerNorm(channels, dtype=dtype)
        self.mixer = mixer
        self.norm2 = LayerNorm(channels, dtype=dtype)
        self.mlp = Mlp(rng, channels, mlp_ratio, dtype=dtype)

    def forward(self, x: Tensor, masks=(None, None)) -> Tensor:
        for norm, branch, mask in zip((self.norm1, self.norm2), (self.mixer, self.mlp), masks):
            t = branch(norm(x))
            if mask is not None:
                t = ops.scale(t, mask.astype(t.dtype).reshape((-1,) + (1,) * (t.ndim - 1)))
            x = ops.add(x, t)
        return x


class OutlookerBlock(ResidualBlock):
    """Outlook attention + MLP residual pair on a (..., H, W, C) map."""

    def __init__(self, rng, channels: int, heads: int, kernel: int = 3, stride: int = 1,
                 mlp_ratio: float = 3.0, dtype=np.float32):
        mixer = OutlookAttention(rng, channels, heads, kernel, stride, dtype=dtype)
        super().__init__(mixer, rng, channels, mlp_ratio, dtype)


class TransformerBlock(ResidualBlock):
    """Full self-attention + MLP residual pair on a (..., L, C) token list."""

    def __init__(self, rng, channels: int, heads: int, mlp_ratio: float = 3.0,
                 dtype=np.float32):
        mixer = SelfAttention(rng, channels, heads, dtype=dtype)
        super().__init__(mixer, rng, channels, mlp_ratio, dtype)


class ClassAttentionBlock(MultiHeadCore):
    """Updates the class token by attending over [class ∥ patch] tokens.

    Only the class token forms a query; patch tokens pass through unchanged.
    The class token takes the attention residual, then its own MLP residual.
    Class token (..., 1, C) and patches (..., L, C) share their leading axes.
    """

    def __init__(self, rng, channels: int, heads: int, mlp_ratio: float = 3.0,
                 dtype=np.float32):
        # assigned before the projections, so norm1.* leads the parameter order
        self.norm1 = LayerNorm(channels, dtype=dtype)
        super().__init__(rng, channels, heads, dtype)
        self.norm2 = LayerNorm(channels, dtype=dtype)
        self.mlp = Mlp(rng, channels, mlp_ratio, dtype=dtype)

    def forward(self, cls_token: Tensor, patches: Tensor) -> Tensor:
        if cls_token.ndim < 2 or cls_token.shape[-2:] != (1, self.channels):
            raise ShapeError(
                f"expected class token (..., 1, {self.channels}), got {cls_token.shape}")
        if (patches.ndim != cls_token.ndim or patches.shape[:-2] != cls_token.shape[:-2]
                or patches.shape[-1] != self.channels):
            raise ShapeError(f"expected patches (..., L, {self.channels}) with leading axes "
                             f"{cls_token.shape[:-2]}, got {patches.shape}")
        axis = cls_token.ndim - 2
        u = self.norm1(ops.concat([cls_token, patches], axis=axis))     # (..., L+1, C)
        cls = ops.add(cls_token, self.attend(ops.narrow(u, axis, 0, 1), u))
        return ops.add(cls, self.mlp(self.norm2(cls)))

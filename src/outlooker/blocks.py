"""Residual blocks: pre-norm token mixing + MLP, and stochastic depth.

``ResidualBlock`` wraps any token mixer: it computes ``x + mix(norm(x))``
followed by ``y + mlp(norm(y))`` on inputs with any leading (batch) axes.
``OutlookerBlock`` and ``TransformerBlock`` are that block around outlook
attention and full self-attention; a stage-1 swap puts the layer that
``attention.build_layer`` makes in it.  ``ClassAttentionBlock`` updates only
the class token, attending over the class and patch tokens.

During training each residual branch can be dropped per sample (stochastic
depth), and axis 0 of a block's input is the sample axis: a kept branch is
scaled by 1/(1-rate) so the expectation matches inference, where dropping is
disabled entirely.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .attention import Module, MultiHeadCore, OutlookAttention, SelfAttention, _param, _zeros
from .errors import ContractError, ShapeError
from .tensor import Tensor


def mlp_hidden(channels: int, ratio: float) -> int:
    """Hidden width ratio·C, required to be an exact integer."""
    hidden = channels * ratio
    rounded = int(round(hidden))
    if abs(hidden - rounded) > 1e-9 or rounded < 1:
        raise ShapeError(f"mlp ratio {ratio} times width {channels} is not a positive integer")
    return rounded


def check_drop_rate(rate: float) -> None:
    """Reject a drop-path rate outside [0, 1)."""
    if not (0.0 <= rate < 1.0):
        raise ContractError(f"drop rate must be in [0, 1), got {rate}")


def stochastic_depth_mask(rate: float, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Per-sample keep mask: 0 with probability ``rate``, else 1/(1-rate)."""
    rate = float(rate)
    check_drop_rate(rate)
    if batch < 1:
        raise ContractError(f"batch must be >= 1, got {batch}")
    keep = rng.random(batch) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


class LayerNorm(Module):
    """Learnable scale/shift around last-axis normalization."""

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gamma, self.beta)

    __call__ = forward


class Mlp(Module):
    """linear → gelu → linear, hidden width = ratio × channels."""

    def __init__(self, rng, channels: int, ratio: float, dtype=np.float32):
        hidden = mlp_hidden(channels, ratio)
        self.w1 = _param(rng, (channels, hidden), dtype)
        self.b1 = _zeros(hidden, dtype)
        self.w2 = _param(rng, (hidden, channels), dtype)
        self.b2 = _zeros(channels, dtype)

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(ops.gelu(ops.linear(x, self.w1, self.b1)), self.w2, self.b2)

    __call__ = forward


class ResidualBlock(Module):
    """Two pre-norm residual branches, ``mixer`` then an MLP, with optional drop."""

    def __init__(self, mixer, rng, channels, mlp_ratio, drop_path, dtype):
        self.norm1 = LayerNorm(channels, dtype=dtype)
        self.mixer = mixer
        self.norm2 = LayerNorm(channels, dtype=dtype)
        self.mlp = Mlp(rng, channels, mlp_ratio, dtype=dtype)
        check_drop_rate(drop_path)
        self.drop_path = float(drop_path)

    def _branch(self, t: Tensor, training: bool, rng) -> Tensor:
        if not training or self.drop_path == 0.0:
            return t
        if rng is None:
            raise ContractError("training forward with drop_path > 0 needs an rng")
        mask = stochastic_depth_mask(self.drop_path, t.shape[0], rng)
        return ops.scale(t, mask.astype(t.dtype).reshape((-1,) + (1,) * (t.ndim - 1)))

    def forward(self, x: Tensor, training: bool = False, rng=None) -> Tensor:
        y = ops.add(x, self._branch(self.mixer(self.norm1(x)), training, rng))
        return ops.add(y, self._branch(self.mlp(self.norm2(y)), training, rng))

    __call__ = forward


class OutlookerBlock(ResidualBlock):
    """Outlook attention + MLP residual pair on a (..., H, W, C) map."""

    def __init__(self, rng, channels: int, heads: int, kernel: int = 3, stride: int = 1,
                 mlp_ratio: float = 3.0, drop_path: float = 0.0, dtype=np.float32):
        mixer = OutlookAttention(rng, channels, heads, kernel, stride, dtype=dtype)
        super().__init__(mixer, rng, channels, mlp_ratio, drop_path, dtype)


class TransformerBlock(ResidualBlock):
    """Full self-attention + MLP residual pair on a (..., L, C) token list."""

    def __init__(self, rng, channels: int, heads: int, mlp_ratio: float = 3.0,
                 drop_path: float = 0.0, dtype=np.float32):
        mixer = SelfAttention(rng, channels, heads, dtype=dtype)
        super().__init__(mixer, rng, channels, mlp_ratio, drop_path, dtype)


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

    __call__ = forward


def drop_path_schedule(max_rate: float, depth: int) -> list[float]:
    """Linear ramp 0 → max_rate across a stack of ``depth`` blocks."""
    return [max_rate * i / max(depth - 1, 1) for i in range(depth)]

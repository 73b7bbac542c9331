"""Sliding-window extraction (unfold) and its adjoint scatter-add (fold).

A window geometry places K×K windows on an H×W token map with zero padding
``p`` (default ⌊K/2⌋, which centers each window on a token) and stride ``s``.
Window centers per axis: ⌊(extent + 2p − K)/s⌋ + 1.  Windows and the offsets
inside a window are both enumerated row-major, so stack row ``t = a·w + b``,
slot ``u = dp·K + dq`` holds the token at (a·s + dp − p, b·s + dq − p), or
zero when that index is out of bounds.  Leading axes before (H, W, C), such
as a batch axis, carry through unchanged.

``fold`` is the exact linear adjoint of ``unfold``: ⟨unfold(x), y⟩ =
⟨x, fold(y)⟩, which is also how the two ops provide each other's backward.
Only odd kernels are supported: an even window has no center token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ShapeError
from .tensor import Tensor, from_op


@dataclass(frozen=True)
class WindowGeometry:
    """K×K windows over an H×W map: odd kernel, zero padding, stride."""

    height: int
    width: int
    kernel: int
    stride: int = 1
    padding: int = None  # type: ignore[assignment]  # defaults to kernel // 2

    def __post_init__(self):
        if self.padding is None:
            object.__setattr__(self, "padding", self.kernel // 2)
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise GeometryError(f"kernel must be odd and positive, got K={self.kernel}")
        if self.stride < 1:
            raise GeometryError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise GeometryError(f"padding must be >= 0, got {self.padding}")
        if self.height < 1 or self.width < 1:
            raise GeometryError(f"map extent must be positive, got {self.height}x{self.width}")
        if self.kernel > self.height + 2 * self.padding or self.kernel > self.width + 2 * self.padding:
            raise GeometryError(
                f"kernel K={self.kernel} exceeds padded extent "
                f"{self.height + 2 * self.padding}x{self.width + 2 * self.padding}"
            )

    @property
    def out_height(self) -> int:
        return (self.height + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.width + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def windows(self) -> int:
        return self.out_height * self.out_width


def unfold_array(x: np.ndarray, geom: WindowGeometry) -> np.ndarray:
    """Forward kernel on a raw array: (..., H, W, C) → (..., windows, K², C)."""
    k, s, p = geom.kernel, geom.stride, geom.padding
    *lead, height, width, channels = x.shape
    padded = np.zeros((*lead, height + 2 * p, width + 2 * p, channels), dtype=x.dtype)
    padded[..., p : p + height, p : p + width, :] = x
    h, w = geom.out_height, geom.out_width
    out = np.empty((*lead, h, w, k * k, channels), dtype=x.dtype)
    for dp in range(k):
        for dq in range(k):
            rows = padded[..., dp : dp + s * (h - 1) + 1 : s, dq : dq + s * (w - 1) + 1 : s, :]
            out[..., dp * k + dq, :] = rows
    return out.reshape(*lead, h * w, k * k, channels)


def fold_array(y: np.ndarray, geom: WindowGeometry) -> np.ndarray:
    """Adjoint kernel on a raw array: (..., windows, K², C) → (..., H, W, C) by scatter-add."""
    k, s, p = geom.kernel, geom.stride, geom.padding
    h, w = geom.out_height, geom.out_width
    *lead, _, _, channels = y.shape
    grid = y.reshape(*lead, h, w, k, k, channels)
    padded = np.zeros((*lead, geom.height + 2 * p, geom.width + 2 * p, channels), dtype=y.dtype)
    for dp in range(k):
        for dq in range(k):
            padded[..., dp : dp + s * (h - 1) + 1 : s, dq : dq + s * (w - 1) + 1 : s, :] += (
                grid[..., dp, dq, :])
    return np.ascontiguousarray(padded[..., p : p + geom.height, p : p + geom.width, :])


def _check_map(x: Tensor, geom: WindowGeometry) -> None:
    if x.ndim < 3:
        raise ShapeError(f"expected a (..., H, W, C) token map, got {x.shape}")
    if x.shape[-3:-1] != (geom.height, geom.width):
        raise ShapeError(
            f"map extent {x.shape[-3]}x{x.shape[-2]} does not match geometry "
            f"{geom.height}x{geom.width}"
        )


def unfold(x: Tensor, geom: WindowGeometry) -> Tensor:
    """Extract every window as a stack row: (..., H, W, C) → (..., windows, K², C)."""
    _check_map(x, geom)
    data = unfold_array(x.data, geom)

    def backward_fn(g):
        return (fold_array(g, geom),)

    return from_op(data, (x,), backward_fn)


def fold(y: Tensor, geom: WindowGeometry) -> Tensor:
    """Scatter-add stack rows back onto the map: (..., windows, K², C) → (..., H, W, C)."""
    k = geom.kernel
    if y.ndim < 3 or y.shape[-3:-1] != (geom.windows, k * k):
        raise ShapeError(
            f"expected a (..., {geom.windows}, {k * k}, C) window stack, got {y.shape}"
        )
    data = fold_array(y.data, geom)

    def backward_fn(g):
        return (unfold_array(g, geom),)

    return from_op(data, (y,), backward_fn)


def in_bounds_mask(geom: WindowGeometry) -> np.ndarray:
    """Boolean (windows, K²) marking slots that map to real (unpadded) tokens."""
    ones = np.ones((geom.height, geom.width, 1), dtype=np.float64)
    return unfold_array(ones, geom)[:, :, 0] > 0.0

"""Sliding-window extraction (unfold) and its adjoint scatter-add (fold).

A window geometry places K×K windows on an H×W token map with stride ``s``
and zero padding ``p`` = ⌊K/2⌋, which centers each window on a token.
Window centers per axis: ⌈extent/s⌉, one per s×s cell, which is the grid of
``ops.avg_pool`` at the same stride.  Windows and the offsets inside a
window are both enumerated row-major, so stack row ``t = a·w + b``,
slot ``u = dp·K + dq`` holds the token at (a·s + dp − p, b·s + dq − p), or
zero when that index is out of bounds.  Leading axes before (H, W, C), such
as a batch axis, carry through unchanged.

The stack is head-major, (..., windows, N, K², C/N), the layout multi-head
attention multiplies: head ``n`` of a slot holds channels n·C/N to
(n + 1)·C/N of its token.  ``heads`` defaults to 1, which gives one
(K², C) block per window; a convolution reshapes it to a K²·C row.

Both kernels work through one strided view of the padded map, shaped
(..., h, w, N, K, K, C/N) with no copy: the view splits the channels as
(N, C/N) and puts the head axis before the window slots.  ``unfold`` is one
contiguous copy of that view, and ``fold`` scatter-adds each slot back
through it.  ``fold`` is the exact linear adjoint of ``unfold``:
⟨unfold(x), y⟩ = ⟨x, fold(y)⟩, which is also how the two ops provide each
other's backward.  Only odd kernels are supported: an even window has no
center token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GeometryError, ShapeError
from .tensor import Tensor, from_op


def check_window(kernel: int, stride: int = 1) -> None:
    """Reject an even or non-positive kernel and a stride below 1."""
    if kernel < 1 or kernel % 2 == 0:
        raise GeometryError(f"kernel must be odd and positive, got K={kernel}")
    if stride < 1:
        raise GeometryError(f"stride must be >= 1, got {stride}")


def check_heads(channels: int, heads: int) -> None:
    """Reject a head count that is not a positive divisor of the channels."""
    if heads < 1 or channels % heads != 0:
        raise ShapeError(f"channels {channels} not divisible by heads {heads}")


@dataclass(frozen=True)
class WindowGeometry:
    """K×K windows over an H×W map: odd kernel, stride, zero padding ⌊K/2⌋.

    Each axis has ⌈extent/stride⌉ window centers, at the tokens a·s.
    """

    height: int
    width: int
    kernel: int
    stride: int = 1

    def __post_init__(self):
        check_window(self.kernel, self.stride)
        if self.height < 1 or self.width < 1:
            raise GeometryError(f"map extent must be positive, got {self.height}x{self.width}")

    @property
    def padding(self) -> int:
        return self.kernel // 2

    @property
    def out_height(self) -> int:
        return -(-self.height // self.stride)

    @property
    def out_width(self) -> int:
        return -(-self.width // self.stride)

    @property
    def windows(self) -> int:
        return self.out_height * self.out_width


def _windows(padded: np.ndarray, geom: WindowGeometry, heads: int) -> np.ndarray:
    """Writeable view of every window of a padded map: (..., h, w, N, K, K, C/N).

    Window (a, b) starts at padded row a·s, column b·s; its last row is at most
    s·(⌈H/s⌉ − 1) + K − 1 ≤ H + K − 2, inside the H + K − 1 padded rows.
    """
    k, s = geom.kernel, geom.stride
    *lead, _, _, channels = padded.shape
    *lead_strides, row, col, chan = padded.strides
    cn = channels // heads
    shape = (*lead, geom.out_height, geom.out_width, heads, k, k, cn)
    return as_strided(padded, shape, (*lead_strides, s * row, s * col, cn * chan, row, col, chan))


def unfold_array(x: np.ndarray, geom: WindowGeometry, heads: int = 1) -> np.ndarray:
    """Forward kernel on a raw array: (..., H, W, C) → (..., windows, N, K², C/N)."""
    k2, p = geom.kernel * geom.kernel, geom.padding
    *lead, height, width, channels = x.shape
    padded = np.zeros((*lead, height + 2 * p, width + 2 * p, channels), dtype=x.dtype)
    padded[..., p : p + height, p : p + width, :] = x
    out = np.ascontiguousarray(_windows(padded, geom, heads))
    return out.reshape(*lead, geom.windows, heads, k2, channels // heads)


def fold_array(y: np.ndarray, geom: WindowGeometry, heads: int = 1) -> np.ndarray:
    """Adjoint kernel on a raw array: (..., windows, N, K², C/N) → (..., H, W, C)."""
    k, p = geom.kernel, geom.padding
    *lead, _, _, _, cn = y.shape
    grid = y.reshape(*lead, geom.out_height, geom.out_width, heads, k, k, cn)
    padded = np.zeros((*lead, geom.height + 2 * p, geom.width + 2 * p, heads * cn), dtype=y.dtype)
    view = _windows(padded, geom, heads)
    for dp, dq in np.ndindex(k, k):     # one slot at a time: its windows never overlap
        view[..., dp, dq, :] += grid[..., dp, dq, :]
    return np.ascontiguousarray(padded[..., p : p + geom.height, p : p + geom.width, :])


def _check_map(x: Tensor, geom: WindowGeometry, heads: int) -> None:
    if x.ndim < 3:
        raise ShapeError(f"expected a (..., H, W, C) token map, got {x.shape}")
    if x.shape[-3:-1] != (geom.height, geom.width):
        raise ShapeError(
            f"map extent {x.shape[-3]}x{x.shape[-2]} does not match geometry "
            f"{geom.height}x{geom.width}"
        )
    check_heads(x.shape[-1], heads)


def unfold(x: Tensor, geom: WindowGeometry, heads: int = 1) -> Tensor:
    """Extract every window as a stack row: (..., H, W, C) → (..., windows, N, K², C/N)."""
    _check_map(x, geom, heads)
    data = unfold_array(x.data, geom, heads)

    def backward_fn(g):
        return (fold_array(g, geom, heads),)

    return from_op(data, (x,), backward_fn)


def fold(y: Tensor, geom: WindowGeometry, heads: int = 1) -> Tensor:
    """Scatter-add stack rows back onto the map: (..., windows, N, K², C/N) → (..., H, W, C)."""
    want = (geom.windows, heads, geom.kernel * geom.kernel)
    if y.ndim < 4 or y.shape[-4:-1] != want:
        raise ShapeError(f"expected a (..., {', '.join(map(str, want))}, C) window stack, "
                         f"got {y.shape}")
    data = fold_array(y.data, geom, heads)

    def backward_fn(g):
        return (unfold_array(g, geom, heads),)

    return from_op(data, (y,), backward_fn)


def in_bounds_mask(geom: WindowGeometry) -> np.ndarray:
    """Boolean (windows, K²) marking slots that map to real (unpadded) tokens."""
    ones = np.ones((geom.height, geom.width, 1), dtype=np.float64)
    return unfold_array(ones, geom)[:, 0, :, 0] > 0.0

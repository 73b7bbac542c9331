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
(K², C) block per window, read by a convolution as one K²·C row.

One strided view decides that layout: over a zero-padded map it shapes the
windows (..., h, w, N, K, K, C/N) with no copy, splitting the channels as
(N, C/N) and putting the head axis before the window slots.
``_padded_slab`` is the one padding routine: it copies the map rows a band
of window rows reads into a zeroed slab.
The array kernels work on a band of window rows, so a caller can walk the
grid without holding the whole stack, as outlook attention's window core
and ``Conv2d`` do: ``_unfold_band`` copies a band's windows out of its
padded slab, and ``_fold_band`` scatter-adds a band's stack rows onto an
unpadded map slot by slot, skipping the windows whose slot lands in the
padding.  ``unfold_array`` and ``fold_array`` are their whole-grid case.
``fold`` is the exact linear adjoint of ``unfold``: ⟨unfold(x), y⟩ =
⟨x, fold(y)⟩, which is also how the two ops provide each other's backward.
Only odd kernels are supported: an even window has no center token.
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


def _window_view(padded: np.ndarray, geom: WindowGeometry, heads: int) -> np.ndarray:
    """Every window of a zero-padded (..., rows, W + 2p, C) map, with no copy.

    Shaped (..., h', w, N, K, K, C/N): window row a starts at the map's row
    a·s, and h' = (rows − K) // s + 1 window rows fit.
    """
    *lead, rows, _, channels = padded.shape
    *lead_strides, row, col, chan = padded.strides
    k, s, cn = geom.kernel, geom.stride, channels // heads
    shape = (*lead, (rows - k) // s + 1, geom.out_width, heads, k, k, cn)
    return as_strided(padded, shape, (*lead_strides, s * row, s * col, cn * chan, row, col, chan))


def _padded_slab(x: np.ndarray, geom: WindowGeometry, rows: slice) -> np.ndarray:
    """The zero-padded map rows that window rows ``rows`` read, copied from ``x``.

    (..., H, W, C) → (..., (n − 1)·s + K, W + 2p, C) for n window rows; the
    slab's first row is the map's row ``rows.start``·s − p.
    """
    *lead, height, width, channels = x.shape
    k, s, p, n = geom.kernel, geom.stride, geom.padding, rows.stop - rows.start
    top = rows.start * s - p
    slab = np.zeros((*lead, (n - 1) * s + k, width + 2 * p, channels), dtype=x.dtype)
    lo, hi = max(top, 0), min(top + slab.shape[-3], height)
    slab[..., lo - top : hi - top, p : p + width, :] = x[..., lo:hi, :, :]
    return slab


def _unfold_band(x: np.ndarray, geom: WindowGeometry, heads: int, rows: slice) -> np.ndarray:
    """The windows of window rows ``rows``: (..., H, W, C) → (..., rows·w, N, K², C/N)."""
    *lead, _, _, channels = x.shape
    n, k = rows.stop - rows.start, geom.kernel
    stack = np.ascontiguousarray(_window_view(_padded_slab(x, geom, rows), geom, heads))
    return stack.reshape(*lead, n * geom.out_width, heads, k * k, channels // heads)


def _fold_band(acc: np.ndarray, y: np.ndarray, geom: WindowGeometry, rows: slice) -> None:
    """Scatter-add the stack rows ``y`` of window rows ``rows`` onto the map ``acc``.

    ``acc``: a C-contiguous (..., H, W, C) map, added to in place; ``y``:
    (..., rows·w, N, K², C/N).  Each slot adds, in one in-place pass, the
    windows whose slot lands inside the map (one slot's windows never
    overlap), and the slots go in row-major order.  A later window row
    reaches a token through a smaller slot row, so folding bands from the
    last window row to the first adds every token's terms in the order of
    one whole-grid fold.
    """
    *lead, height, width, _ = acc.shape
    k, s, p = geom.kernel, geom.stride, geom.padding
    heads, cn = y.shape[-3], y.shape[-1]
    acc = acc.reshape(*lead, height, width, heads, cn)
    grid = y.reshape(*lead, rows.stop - rows.start, geom.out_width, heads, k, k, cn)

    def span(d, lo, hi, extent):
        # windows lo..hi-1 whose offset d lands in [0, extent), and the tokens it lands on
        first = max(lo, -(-(p - d) // s))
        count = max(0, min(hi, (extent - 1 - d + p) // s + 1) - first)
        start = first * s + d - p
        return slice(first - lo, first - lo + count), slice(start, start + count * s, s)

    row_spans = [span(d, rows.start, rows.stop, height) for d in range(k)]
    col_spans = [span(d, 0, geom.out_width, width) for d in range(k)]
    for dp, dq in np.ndindex(k, k):
        (ai, ri), (bi, ci) = row_spans[dp], col_spans[dq]
        acc[..., ri, ci, :, :] += grid[..., ai, bi, :, dp, dq, :]


def unfold_array(x: np.ndarray, geom: WindowGeometry, heads: int = 1) -> np.ndarray:
    """Forward kernel on a raw array: (..., H, W, C) → (..., windows, N, K², C/N)."""
    return _unfold_band(x, geom, heads, slice(0, geom.out_height))


def fold_array(y: np.ndarray, geom: WindowGeometry, heads: int = 1) -> np.ndarray:
    """Adjoint kernel on a raw array: (..., windows, N, K², C/N) → (..., H, W, C)."""
    *lead, _, _, _, cn = y.shape
    out = np.zeros((*lead, geom.height, geom.width, heads * cn), dtype=y.dtype)
    _fold_band(out, y, geom, slice(0, geom.out_height))
    return out


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

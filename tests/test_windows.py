"""Window geometry, unfold/fold, adjointness, coverage, bounds masks."""

import itertools

import numpy as np
import pytest

from outlooker import (
    Tape,
    Tensor,
    WindowGeometry,
    backward,
    fold,
    fold_array,
    in_bounds_mask,
    oracle_fold,
    oracle_unfold,
    ops,
    unfold,
    unfold_array,
)
from outlooker.errors import GeometryError, ShapeError
from outlooker.windows import _unfold_band


def random_geometries():
    cases = []
    rng = np.random.default_rng(7)
    for _ in range(40):
        kernel = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2, 3]))
        height = int(rng.integers(kernel, kernel + 9))
        width = int(rng.integers(kernel, kernel + 9))
        cases.append(WindowGeometry(height, width, kernel, stride))
    cases.append(WindowGeometry(28, 28, 3, 2))
    return cases


class TestWindowGeometry:
    def test_even_kernel_rejected(self):
        with pytest.raises(GeometryError):
            WindowGeometry(8, 8, 4)

    def test_bad_stride_rejected(self):
        with pytest.raises(GeometryError):
            WindowGeometry(8, 8, 3, stride=0)

    def test_empty_map_rejected(self):
        with pytest.raises(GeometryError):
            WindowGeometry(0, 8, 3)

    # a bool is an int subclass but never a count; a float is not one either
    @pytest.mark.parametrize("args", [(4.5, 4, 3), (4, 4.0, 3), (True, 4, 3), (4, 4, 3.0),
                                      (4, 4, True), (4, 4, 3, 1.5), (4, 4, 3, True)],
                             ids=["height_float", "width_float", "height_bool", "kernel_float",
                                  "kernel_bool", "stride_float", "stride_bool"])
    def test_non_count_rejected(self, args):
        with pytest.raises(GeometryError):
            WindowGeometry(*args)

    def test_numpy_int_counts_accepted(self):
        geom = WindowGeometry(np.int64(5), np.int32(4), np.int64(3), np.int64(2))
        x = np.arange(40.0).reshape(5, 4, 2)
        want = unfold_array(x, WindowGeometry(5, 4, 3, 2), 2)
        np.testing.assert_array_equal(unfold_array(x, geom, np.int64(2)), want)

    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_centers_match_avg_pool_grid(self, kernel, stride):
        # outlook attention predicts each window's weights from the pooled
        # token of its s×s cell, so the two grids must agree on every extent
        for height in range(1, 21):
            width = 21 - height
            geom = WindowGeometry(height, width, kernel, stride)
            pooled = ops.avg_pool(Tensor(np.zeros((height, width, 1))), stride)
            want = (-(-height // stride), -(-width // stride))
            assert (geom.out_height, geom.out_width) == want == pooled.shape[:2]

    def test_default_padding_preserves_grid_at_stride_one(self):
        geom = WindowGeometry(11, 7, 5)
        assert geom.padding == 2
        assert (geom.out_height, geom.out_width) == (11, 7)

    def test_table_grid_28_to_14(self):
        geom = WindowGeometry(28, 28, 3, stride=2)
        assert (geom.out_height, geom.out_width) == (14, 14)
        assert geom.windows == 196

    def test_offsets_row_major_slots(self):
        # slot k of window (i, j) reads padded[s*i + k // K, s*j + k % K]
        geom = WindowGeometry(4, 6, 3, stride=2)
        k, s, p = geom.kernel, geom.stride, geom.padding
        x = np.arange(1.0, 25.0).reshape(4, 6, 1)
        padded = np.pad(x[:, :, 0], p)
        windows = unfold_array(x, geom)[:, 0, :, 0].reshape(geom.out_height, geom.out_width, k * k)
        assert windows.shape[-1] == geom.kernel**2
        for i in range(geom.out_height):
            for j in range(geom.out_width):
                for slot in range(k * k):
                    want = padded[s * i + slot // k, s * j + slot % k]
                    assert windows[i, j, slot] == want


class TestUnfoldFoldValues:
    def test_corner_window_reads_padding_as_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        geom = WindowGeometry(2, 2, 3)
        windows = unfold_array(x, geom)
        assert windows.shape == (4, 1, 9, 1)
        np.testing.assert_allclose(windows[0, 0, :, 0], [0, 0, 0, 0, 1, 2, 0, 3, 4])

    def test_fold_of_unfolded_ones_counts_overlaps(self):
        geom = WindowGeometry(3, 3, 3)
        ones = np.ones((3, 3, 1))
        got = fold_array(unfold_array(ones, geom), geom)[:, :, 0]
        np.testing.assert_allclose(got, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_coverage_matches_fold_of_unfolded_ones(self):
        # per axis, count the (window, offset) pairs landing on each index;
        # the map's coverage is the outer product of the two counts
        def axis_counts(extent, out, geom):
            counts = np.zeros(extent)
            for i in range(out):
                for d in range(geom.kernel):
                    at = geom.stride * i + d - geom.padding
                    if 0 <= at < extent:
                        counts[at] += 1
            return counts

        for geom in random_geometries():
            ones = np.ones((geom.height, geom.width, 1))
            want = np.outer(
                axis_counts(geom.height, geom.out_height, geom),
                axis_counts(geom.width, geom.out_width, geom),
            )
            np.testing.assert_allclose(fold_array(unfold_array(ones, geom), geom)[:, :, 0], want)

    def test_unfold_stride_two_picks_even_centers(self):
        x = np.arange(16.0).reshape(4, 4, 1)
        geom = WindowGeometry(4, 4, 1, stride=2)
        windows = unfold_array(x, geom)
        np.testing.assert_allclose(windows[:, 0, 0, 0], [0.0, 2.0, 8.0, 10.0])

    def test_in_bounds_mask_corner(self):
        geom = WindowGeometry(2, 2, 3)
        mask = in_bounds_mask(geom)
        assert mask.shape == (4, 9)
        np.testing.assert_array_equal(
            mask[0], [False, False, False, False, True, True, False, True, True]
        )


class TestAdjointness:
    def test_inner_products_agree(self):
        rng = np.random.default_rng(42)
        for geom in random_geometries():
            x = rng.standard_normal((geom.height, geom.width, 3))
            y = rng.standard_normal((geom.windows, 1, geom.kernel**2, 3))
            lhs = float(np.sum(unfold_array(x, geom) * y))
            rhs = float(np.sum(x * fold_array(y, geom)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_unfold_backward_is_fold(self):
        rng = np.random.default_rng(3)
        geom = WindowGeometry(5, 4, 3, stride=2)
        x = Tensor(rng.standard_normal((5, 4, 2)), dtype=np.float64, requires_grad=True)
        probe = rng.standard_normal((geom.windows, 1, 9, 2))
        with Tape() as tape:
            y = unfold(x, geom)
            loss = ops.mul(y, Tensor(probe, dtype=np.float64))
            grads = backward(ops.sum_all(loss), tape)
        np.testing.assert_allclose(grads[x], fold_array(probe, geom), rtol=1e-12)

    def test_fold_backward_is_unfold(self):
        rng = np.random.default_rng(4)
        geom = WindowGeometry(5, 4, 3, stride=2)
        y = Tensor(rng.standard_normal((geom.windows, 1, 9, 2)), dtype=np.float64,
                   requires_grad=True)
        probe = rng.standard_normal((5, 4, 2))
        with Tape() as tape:
            x = fold(y, geom)
            grads = backward(ops.sum_all(ops.mul(x, Tensor(probe, dtype=np.float64))), tape)
        np.testing.assert_allclose(grads[y], unfold_array(probe, geom), rtol=1e-12)


class TestShapeChecks:
    def test_unfold_wrong_spatial_shape(self):
        geom = WindowGeometry(4, 4, 3)
        with pytest.raises(ShapeError):
            unfold(Tensor(np.zeros((5, 4, 2))), geom)

    def test_fold_wrong_window_count(self):
        geom = WindowGeometry(4, 4, 3)
        with pytest.raises(ShapeError):
            fold(Tensor(np.zeros((15, 1, 9, 2))), geom)

    @pytest.mark.parametrize("heads", [2.0, True, 0], ids=["float", "bool", "zero"])
    def test_unfold_non_count_heads(self, heads):
        with pytest.raises(ShapeError):
            unfold(Tensor(np.zeros((4, 4, 2))), WindowGeometry(4, 4, 3), heads)


class TestKernelRows:
    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["unbatched", "batched"])
    def test_selected_rows_are_the_whole_stacks_slots(self, kernel, stride, lead):
        # a band's kernel rows dp..dp+R-1 are byte-for-byte the slots
        # dp·K..(dp+R)·K of that band's windows in the whole-grid stack
        geom = WindowGeometry(9, 8, kernel, stride)
        h, w = geom.out_height, geom.out_width
        x = np.random.default_rng(kernel + 10 * stride).standard_normal((*lead, 9, 8, 6))
        x = x.astype(np.float32)
        for heads in (1, 3):
            whole = unfold_array(x, geom, heads)
            for rows in (slice(0, h), slice(1, 2), slice(h - 2, h)):
                band = whole[..., rows.start * w : rows.stop * w, :, :, :]
                for start in range(kernel):
                    for stop in range(start + 1, kernel + 2):    # a stop past K clamps
                        got = _unfold_band(x, geom, heads, rows, slice(start, stop))
                        want = np.ascontiguousarray(
                            band[..., start * kernel : min(stop, kernel) * kernel, :])
                        assert (got.shape, got.dtype) == (want.shape, want.dtype)
                        assert got.tobytes() == want.tobytes()


def _split(stack, heads):
    """(..., windows, K², C) → (..., windows, heads, K², C/heads): each head's channel slice."""
    *lead, windows, k2, channels = stack.shape
    split = stack.reshape(*lead, windows, k2, heads, channels // heads)
    return np.ascontiguousarray(np.moveaxis(split, -2, -3))


def _merge(stack):
    """The inverse of ``_split``."""
    *lead, windows, heads, k2, dh = stack.shape
    return np.ascontiguousarray(np.moveaxis(stack, -3, -2)).reshape(*lead, windows, k2, heads * dh)


def _oracle_unfold(x, geom):
    """``oracle_unfold`` over any leading axes: (..., H, W, C) → (..., windows, K², C)."""
    *lead, height, width, channels = x.shape
    maps = x.reshape(-1, height, width, channels)
    stacks = [oracle_unfold(m, geom.kernel, geom.stride) for m in maps]
    return np.stack(stacks).reshape(*lead, geom.windows, geom.kernel**2, channels)


def _oracle_fold(y, geom):
    """``oracle_fold`` over any leading axes: (..., windows, K², C) → (..., H, W, C)."""
    *lead, windows, k2, channels = y.shape
    stacks = y.reshape(-1, windows, k2, channels)
    maps = [oracle_fold(t, geom.height, geom.width, geom.kernel, geom.stride) for t in stacks]
    return np.stack(maps).reshape(*lead, geom.height, geom.width, channels)


def head_major_cases():
    # C = 6 splits into 1, 2, 3 or 6 heads
    return itertools.product(random_geometries(), [(), (2,)], [1, 2, 3, 6])


class TestHeadMajor:
    def test_unfold_equals_split_of_plain_stack(self):
        # the plain (windows, K², C) stack is the loop oracle's
        rng = np.random.default_rng(11)
        for geom, lead, heads in head_major_cases():
            x = rng.standard_normal((*lead, geom.height, geom.width, 6)).astype(np.float32)
            got = unfold_array(x, geom, heads)
            assert got.shape == (*lead, geom.windows, heads, geom.kernel**2, 6 // heads)
            np.testing.assert_array_equal(got, _split(_oracle_unfold(x, geom), heads))

    def test_fold_equals_fold_of_merged_stack(self):
        # the oracle adds a token's slots in another order, so it agrees to
        # rounding; the one-head kernel adds them in the same order, to the bit
        rng = np.random.default_rng(12)
        for geom, lead, heads in head_major_cases():
            shape = (*lead, geom.windows, heads, geom.kernel**2, 6 // heads)
            y = rng.standard_normal(shape)
            got = fold_array(y, geom, heads)
            np.testing.assert_allclose(got, _oracle_fold(_merge(y), geom), rtol=1e-12, atol=1e-12)
            y32 = y.astype(np.float32)
            got = fold_array(y32, geom, heads)
            assert got.dtype == np.float32
            one_head = _merge(y32)[..., None, :, :]
            np.testing.assert_array_equal(got, fold_array(one_head, geom))

    def test_inner_products_agree(self):
        rng = np.random.default_rng(13)
        for geom, lead, heads in head_major_cases():
            x = rng.standard_normal((*lead, geom.height, geom.width, 6))
            y = rng.standard_normal((*lead, geom.windows, heads, geom.kernel**2, 6 // heads))
            lhs = float(np.sum(unfold_array(x, geom, heads) * y))
            rhs = float(np.sum(x * fold_array(y, geom, heads)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_backward_is_the_other_kernel(self):
        rng = np.random.default_rng(14)
        geom = WindowGeometry(5, 4, 3, stride=2)
        x = Tensor(rng.standard_normal((2, 5, 4, 6)), dtype=np.float64, requires_grad=True)
        y = Tensor(rng.standard_normal((2, geom.windows, 3, 9, 2)), dtype=np.float64,
                   requires_grad=True)
        probe_x = rng.standard_normal(y.shape)
        probe_y = rng.standard_normal(x.shape)
        with Tape() as tape:
            loss = ops.add(ops.sum_all(ops.mul(unfold(x, geom, 3), Tensor(probe_x))),
                           ops.sum_all(ops.mul(fold(y, geom, 3), Tensor(probe_y))))
            grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[x], fold_array(probe_x, geom, 3))
        np.testing.assert_array_equal(grads[y], unfold_array(probe_y, geom, 3))

    def test_wrong_head_major_stack_shape(self):
        geom = WindowGeometry(4, 4, 3)
        for shape in [(16, 2, 9), (15, 2, 9, 3), (16, 3, 9, 2), (16, 2, 8, 3), (16, 9, 6)]:
            with pytest.raises(ShapeError):
                fold(Tensor(np.zeros(shape)), geom, 2)

    def test_heads_must_divide_channels(self):
        geom = WindowGeometry(4, 4, 3)
        for heads in (0, 4):
            with pytest.raises(ShapeError):
                unfold(Tensor(np.zeros((4, 4, 6))), geom, heads)

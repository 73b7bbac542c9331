"""Forward semantics of the differentiable ops (gradients live in checks)."""

import math

import numpy as np
import pytest
from scipy import special

from outlooker import MADD_COUNTER, Tape, Tensor, backward, ops
from outlooker.errors import ContractError, ShapeError


class TestMatmulLinear:
    def test_matmul_matches_numpy(self, rng):
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 5, 6))
        got = ops.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(got.data, a @ b, rtol=1e-12)

    def test_matmul_rejects_mismatched_leading_dims(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        b = Tensor(rng.standard_normal((3, 4, 5)))
        with pytest.raises(ShapeError):
            ops.matmul(a, b)

    def test_linear_bias_broadcast(self, rng):
        x = rng.standard_normal((7, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        got = ops.linear(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                         Tensor(b, dtype=np.float64))
        np.testing.assert_allclose(got.data, x @ w + b, rtol=1e-12)

    def test_linear_counts_tokens_times_cin_cout(self):
        x = Tensor(np.zeros((784, 192)))
        w = Tensor(np.zeros((192, 192)))
        b = Tensor(np.zeros(192))
        start = MADD_COUNTER.total
        ops.linear(x, w, b)
        assert MADD_COUNTER.total - start == 28_901_376


class TestElementwise:
    def test_add_sub_mul_require_same_shape(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
        for op in (ops.add, ops.mul):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_gelu_matches_erf_form(self, rng):
        x = rng.standard_normal((4, 6))
        got = ops.gelu(Tensor(x, dtype=np.float64)).data
        want = 0.5 * x * (1.0 + special.erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_float32_stays_float32(self, rng):
        x = Tensor(rng.standard_normal((3, 3)).astype(np.float32))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        for out in (ops.gelu(x), ops.softmax(x), ops.scale(x, 0.5),
                    ops.layer_norm(x, gamma, beta)):
            assert out.dtype == np.float32


class TestGeluNode:
    def test_taped_node_keeps_only_its_derivative(self, rng):
        x = Tensor(rng.standard_normal((4, 6)), dtype=np.float32, requires_grad=True)
        with Tape() as tape:
            ops.gelu(x)
        (_, _, backward_fn), = tape._nodes
        held = [c.cell_contents for c in backward_fn.__closure__ or ()]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert [a.shape for a in arrays] == [x.shape]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_gradient_bit_equal_to_erf_form(self, rng, dtype):
        d = rng.standard_normal((5, 7)).astype(dtype)
        g = rng.standard_normal((5, 7)).astype(dtype)
        x = Tensor(d, requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(ops.gelu(x), Tensor(g)))
        got = backward(loss, tape)[x]
        phi = 0.5 * (1.0 + special.erf(d * (1.0 / math.sqrt(2.0))))
        pdf = np.exp(-0.5 * d * d) * (1.0 / math.sqrt(2.0 * math.pi))
        want = g * (phi + d * pdf)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    def test_untaped_output_bit_equal_to_taped(self, rng):
        d = rng.standard_normal((3, 8)).astype(np.float32)
        untaped = ops.gelu(Tensor(d, requires_grad=True)).data
        with Tape() as tape:
            taped = ops.gelu(Tensor(d, requires_grad=True)).data
        assert len(tape) == 1
        np.testing.assert_array_equal(untaped, taped)


class TestDtypeContract:
    def test_float32_x_with_float64_w_rejected(self, rng):
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 5)), dtype=np.float64)
        with pytest.raises(ContractError):
            ops.linear(x, w)
        with pytest.raises(ContractError):
            ops.matmul(x, w)

    def test_elementwise_ops_reject_mixed_dtypes(self, rng):
        a = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal((2, 3)), dtype=np.float64)
        for op in (ops.add, ops.mul, lambda a, b: ops.concat([a, b])):
            with pytest.raises(ContractError):
                op(a, b)

    def test_layer_norm_rejects_mixed_dtypes(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), dtype=np.float64)
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        with pytest.raises(ContractError):
            ops.layer_norm(x, gamma, beta)


class TestScaleExpand:
    def test_scale_by_per_sample_mask(self, rng):
        x = rng.standard_normal((3, 2, 4)).astype(np.float32)
        mask = np.array([0.0, 2.0, 1.0], dtype=np.float32).reshape(3, 1, 1)
        got = ops.scale(Tensor(x), mask)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.data, x * mask)

    def test_scale_mask_contract(self, rng):
        x = Tensor(rng.standard_normal((3, 2, 4)).astype(np.float32))
        with pytest.raises(ContractError):
            ops.scale(x, np.ones((3, 1, 1), dtype=np.float64))
        with pytest.raises(ShapeError):
            ops.scale(x, np.ones((3, 2, 4, 1), dtype=np.float32))

    def test_expand_repeats_forward_and_sums_backward(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), dtype=np.float64, requires_grad=True)
        probe = rng.standard_normal((4, 2, 3))
        with Tape() as tape:
            y = ops.expand(x, 4)
            grads = backward(ops.sum_all(ops.mul(y, Tensor(probe, dtype=np.float64))), tape)
        np.testing.assert_array_equal(y.data, np.broadcast_to(x.data, (4, 2, 3)))
        np.testing.assert_allclose(grads[x], probe.sum(axis=0), rtol=1e-12)


class TestSoftmax:
    def test_rows_sum_to_one_float64(self, rng):
        x = ops.softmax(Tensor(rng.standard_normal((5, 9)), dtype=np.float64))
        np.testing.assert_allclose(x.data.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_rows_sum_to_one_float32(self, rng):
        x = ops.softmax(Tensor(20.0 * rng.standard_normal((5, 9)).astype(np.float32)))
        np.testing.assert_allclose(x.data.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 4))
        a = ops.softmax(Tensor(x, dtype=np.float64)).data
        b = ops.softmax(Tensor(x + 1000.0, dtype=np.float64)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_minus_inf_gets_zero_weight(self):
        x = np.array([[0.0, -np.inf, 0.0]])
        got = ops.softmax(Tensor(x, dtype=np.float64)).data
        np.testing.assert_allclose(got, [[0.5, 0.0, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 9, 16, 17, 196])
    def test_bit_equal_to_np_max_reference(self, rng, n, dtype):
        # rows up to 16 wide take their max column by column, longer rows
        # with np.max; both must give the reference's bits
        x = (10.0 * rng.standard_normal((4, 3, n))).astype(dtype)
        x[0, 0, : n // 2] = -np.inf         # masked slots, as in local self-attention
        x[1, 2, n - 1] = np.nan
        x[2, 1, n - 1] = 100.0              # a row whose max is its last entry
        before = x.copy()
        with np.errstate(invalid="ignore"):
            got = ops.softmax(Tensor(x)).data
            e = np.exp(x - np.max(x, axis=-1, keepdims=True))
            want = e / np.sum(e, axis=-1, keepdims=True)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        assert np.isnan(got[1, 2]).all() and not np.isnan(got[[0, 2, 3]]).any()
        np.testing.assert_array_equal(x, before)

    def test_log_softmax_consistent(self, rng):
        x = Tensor(rng.standard_normal((4, 7)), dtype=np.float64)
        np.testing.assert_allclose(np.exp(ops.log_softmax(x).data),
                                   ops.softmax(x).data, rtol=1e-12)


class TestLayerNorm:
    def test_frozen_pair_normalizes_to_unit(self):
        # the pair has unit variance, so only the 1e-5 added to it scales the result
        x = Tensor(np.array([[1.0, 3.0]]), dtype=np.float64)
        got = ops.layer_norm(x, Tensor(np.ones(2), dtype=np.float64),
                             Tensor(np.zeros(2), dtype=np.float64))
        np.testing.assert_allclose(got.data, [[-1.0, 1.0]] / np.sqrt(1.0 + 1e-5), atol=1e-12)

    def test_gamma_beta_affine(self, rng):
        x = rng.standard_normal((5, 8))
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        got = ops.layer_norm(Tensor(x, dtype=np.float64),
                             Tensor(gamma, dtype=np.float64),
                             Tensor(beta, dtype=np.float64)).data
        xhat = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(got, xhat * gamma + beta, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_bit_equal_to_closed_form(self, rng, dtype):
        d = rng.standard_normal((2, 5, 8)).astype(dtype)
        g = rng.standard_normal((2, 5, 8)).astype(dtype)
        x = Tensor(d, requires_grad=True)
        gamma, beta = (Tensor(rng.standard_normal(8), dtype=dtype, requires_grad=True)
                       for _ in range(2))
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(ops.layer_norm(x, gamma, beta), Tensor(g)))
        grads = backward(loss, tape)
        mu = d.mean(axis=-1, keepdims=True)
        xc = d - mu
        inv = 1.0 / np.sqrt(np.mean(xc * xc, axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        gg = g * gamma.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = np.mean(gg * xhat, axis=-1, keepdims=True)
        want = (inv * (gg - m1 - xhat * m2), (g * xhat).reshape(-1, 8).sum(axis=0),
                g.reshape(-1, 8).sum(axis=0))
        for got, expected in zip((grads[x], grads[gamma], grads[beta]), want):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, expected)


class TestShapeOps:
    def test_permute_then_inverse_roundtrips(self, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        t = ops.permute(Tensor(x, dtype=np.float64), (2, 0, 3, 1))
        assert t.shape == (4, 2, 5, 3)
        np.testing.assert_allclose(ops.permute(t, (1, 3, 0, 2)).data, x)

    def test_concat_narrow_roundtrip(self, rng):
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((3, 4))
        cat = ops.concat([Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64)], axis=0)
        np.testing.assert_allclose(ops.narrow(cat, 0, 2, 3).data, b)

    def test_concat_rejects_misaligned_shapes_and_axes(self):
        a = Tensor(np.zeros((2, 4)))
        for others, axis in [([Tensor(np.zeros((3, 5)))], 0),     # off-axis sizes differ
                             ([Tensor(np.zeros((3,)))], 0),       # ranks differ
                             ([Tensor(np.zeros((2, 4, 1)))], 1),
                             ([Tensor(np.zeros((2, 4)))], 2),     # axis out of range
                             ([Tensor(np.zeros((2, 4)))], -1)]:
            with pytest.raises(ShapeError):
                ops.concat([a, *others], axis=axis)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            ops.reshape(Tensor(np.ones((2, 3))), (4, 2))


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call", [
    lambda: ops.matmul(_zeros(3), _zeros(3, 2)),
    lambda: ops.linear(_zeros(2, 3), _zeros(3, 2, 1)),
    lambda: ops.linear(_zeros(2, 3), _zeros(4, 2)),
    lambda: ops.linear(_zeros(2, 3), _zeros(3, 2), _zeros(3)),
    lambda: ops.expand(_zeros(2), 0),
    lambda: ops.permute(_zeros(2, 3), (0, 0)),
    lambda: ops.concat([]),
    lambda: ops.narrow(_zeros(2, 3), 2, 0, 1),
    lambda: ops.narrow(_zeros(2, 3), 1, 2, 2),
    lambda: ops.layer_norm(_zeros(2, 3), _zeros(4), _zeros(3)),
    lambda: ops.avg_pool(_zeros(2, 2, 3), 0),
    lambda: ops.avg_pool(_zeros(2, 3), 2),
], ids=["matmul_rank1", "linear_rank3_weight", "linear_misaligned", "linear_bias_shape",
        "expand_zero", "permute_bad_axes", "concat_empty", "narrow_bad_axis",
        "narrow_bad_range", "layer_norm_gamma", "avg_pool_stride_zero", "avg_pool_rank2"])
def test_shape_contract_violation_raises(call):
    with pytest.raises(ShapeError):
        call()


class TestAvgPool:
    def test_stride_one_is_identity(self, rng):
        x = rng.standard_normal((4, 5, 3))
        np.testing.assert_allclose(ops.avg_pool(Tensor(x, dtype=np.float64), 1).data, x)

    def test_even_grid_means(self):
        x = np.arange(16.0, dtype=np.float64).reshape(4, 4, 1)
        got = ops.avg_pool(Tensor(x), 2).data
        want = np.array([[[2.5], [4.5]], [[10.5], [12.5]]])
        np.testing.assert_allclose(got, want)

    def test_ragged_edge_uses_in_bounds_counts(self):
        x = np.arange(9.0, dtype=np.float64).reshape(3, 3, 1)
        got = ops.avg_pool(Tensor(x), 2).data
        # cells: {0,1,3,4} {2,5} {6,7} {8}
        want = np.array([[[2.0], [3.5]], [[6.5], [8.0]]])
        assert got.shape == (2, 2, 1)
        np.testing.assert_allclose(got, want)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_batched_ragged_means_and_gradient(self, rng, stride):
        x = rng.standard_normal((2, 5, 7, 3))
        probe = rng.standard_normal((2, -(-5 // stride), -(-7 // stride), 3))
        xt = Tensor(x, dtype=np.float64, requires_grad=True)
        with Tape() as tape:
            got = ops.avg_pool(xt, stride)
            grads = backward(ops.sum_all(ops.mul(got, Tensor(probe, dtype=np.float64))), tape)
        assert got.shape == probe.shape
        want_grad = np.zeros_like(x)
        for a in range(probe.shape[1]):
            for b in range(probe.shape[2]):
                rows = slice(a * stride, (a + 1) * stride)
                cols = slice(b * stride, (b + 1) * stride)
                cell = x[:, rows, cols, :]
                count = cell.shape[1] * cell.shape[2]
                np.testing.assert_allclose(got.data[:, a, b], cell.sum(axis=(1, 2)) / count,
                                           rtol=1e-12)
                want_grad[:, rows, cols, :] = probe[:, a, b, None, None, :] / count
        np.testing.assert_allclose(grads[xt], want_grad, rtol=1e-12)

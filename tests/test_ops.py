"""Forward semantics of the differentiable ops (gradients live in checks)."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

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

    def test_linear_bits_do_not_depend_on_leading_axes(self, rng):
        # one BLAS call over the flattened rows, forward and backward: numpy's
        # matmul on the (8, 16, 16, 64) map would make one call per 16 rows
        x = rng.standard_normal((8, 16, 16, 64)).astype(np.float32)
        w = Tensor(rng.standard_normal((64, 48)), dtype=np.float32, requires_grad=True)
        b = Tensor(rng.standard_normal(48), dtype=np.float32, requires_grad=True)
        probe = rng.standard_normal((8, 16, 16, 48)).astype(np.float32)

        def run(shape):
            xt = Tensor(x.reshape(*shape, 64), requires_grad=True)
            with Tape() as tape:
                out = ops.linear(xt, w, b)
                loss = ops.sum_all(ops.mul(out, Tensor(probe.reshape(out.shape))))
            grads = backward(loss, tape)
            return out.data.reshape(-1, 48), grads[xt].reshape(-1, 64), grads[w], grads[b]

        for got, want in zip(run((8, 16, 16)), run((2048,))):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want)


class TestElementwise:
    def test_add_sub_mul_require_same_shape(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
        for op in (ops.add, ops.mul):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_gelu_matches_erf_form(self, rng):
        x = rng.standard_normal((4, 6))
        got = ops.gelu(Tensor(x, dtype=np.float64)).data
        want = 0.5 * x * (1.0 + _math_erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_float32_stays_float32(self, rng):
        x = Tensor(rng.standard_normal((3, 3)).astype(np.float32))
        gamma = Tensor(np.ones(3, dtype=np.float32))
        beta = Tensor(np.zeros(3, dtype=np.float32))
        for out in (ops.gelu(x), ops.softmax(x), ops.scale(x, 0.5),
                    ops.layer_norm(x, gamma, beta)):
            assert out.dtype == np.float32


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
ERF32_BOUND = 5e-7     # |rational erf - exact erf| in float32, fixed before measuring
ERF64_ULPS = 3         # |float64 erf - exact erf| in ulps, fixed before measuring


def _phi32(d):
    """The library's float32 Phi: (1 + erf(x/√2)) / 2 by its rational erf."""
    z = np.array(d * _INV_SQRT2)          # an array even at rank 0
    ops._rational_erf(z, np.empty_like(z), np.empty_like(z))
    return 0.5 * (1.0 + z)


def _math_erf(z):
    """math.erf over an array, as float64."""
    return np.frompyfunc(math.erf, 1, 1)(z).astype(np.float64)


def _erf64(z):
    """The library's float64 erf of ``z``, as a new array."""
    z = np.array(z, dtype=np.float64)     # an array even at rank 0
    ops._erf64(z, *(np.empty_like(z) for _ in range(3)), np.empty(z.shape, dtype=bool))
    return z


def _max_ulps(got, z):
    """The largest |got - erf(z)| in ulps of the exact erf, by mpmath at 40 digits."""
    worst = 0.0
    with mpmath.workdps(40):
        for g, x in zip(got.tolist(), z.tolist()):
            exact = mpmath.erf(x)
            exponent = mpmath.frexp(exact)[1] if exact else -1074
            ulp = mpmath.ldexp(1, max(exponent - 53, -1074))
            worst = max(worst, float(abs(g - exact) / ulp))
    return worst


def _phi64(d):
    """The library's float64 Phi: (1 + erf(x/√2)) / 2 by its own float64 erf."""
    return 0.5 * (1.0 + _erf64(np.asarray(d, dtype=np.float64) * _INV_SQRT2))


def _erf_form(d):
    """GELU's output and derivative as whole-array expressions over the float64 Phi."""
    phi = _phi64(d)
    return d * phi, phi + d * (np.exp(-0.5 * d * d) * _INV_SQRT_2PI)


def _gelu_and_derivative(make_input):
    """gelu of the tensor ``make_input()`` builds, and the derivative its node keeps."""
    with Tape() as tape:
        x = make_input()
        y = ops.gelu(x)
    (_, _, backward_fn) = tape._nodes[-1]
    (deriv,) = backward_fn(np.ones(x.shape, dtype=x.dtype))
    return x.data, y.data, deriv


class TestGeluKernel:
    def test_rational_erf_within_bound_of_float64(self):
        # steps of 1e-5 over [-8, 8], and the floats around the clamp at ±4
        z = np.linspace(-8, 8, 1_600_001, dtype=np.float32)
        four = np.float32([4, -4])
        z = np.concatenate([z, four, np.nextafter(four, 0), np.nextafter(four, 2 * four)])
        e = z.copy()
        ops._rational_erf(e, np.empty_like(z), np.empty_like(z))
        assert e.dtype == np.float32
        err = np.abs(e.astype(np.float64) - _math_erf(z.astype(np.float64)))
        assert err.max() <= ERF32_BOUND
        assert np.array_equal(e[-6:-4], [1.0, -1.0])

    def test_erf64_within_bound_of_mpmath(self):
        # steps of 8e-4 over [-8, 8], the pieces' edges 1 and 6 with the
        # floats on either side, and float64's extremes
        edges = np.array([1.0, 6.0])
        edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 8)])
        tiny = np.finfo(np.float64).smallest_subnormal
        z = np.concatenate([np.linspace(-8, 8, 20_001), edges, -edges,
                            [0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e, mirrored = _erf64(z), _erf64(-z)
            ends = _erf64([np.inf, -np.inf, np.nan])
        assert _max_ulps(e, z) <= ERF64_ULPS
        np.testing.assert_array_equal(ends, [1.0, -1.0, np.nan])
        assert np.array_equal(mirrored.view(np.uint64), (-e).view(np.uint64))
        assert np.array_equal(np.signbit(e), np.signbit(z))
        assert np.abs(e).max() <= 1.0

    def test_phi_within_unit_interval(self):
        big = np.finfo(np.float32).max
        x = np.concatenate([np.linspace(-12, 12, 240_001, dtype=np.float32),
                            np.float32([big, -big, 1e30, -1e30])])
        phi = _phi32(x)
        assert phi.min() >= 0.0 and phi.max() <= 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sign_follows_input(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.concatenate([np.linspace(-12, 12, 240_001),
                            [tiny, -tiny, 1e-30, -1e-30, 0.0, -0.0]]).astype(dtype)
        y = ops.gelu(Tensor(x)).data
        assert np.all((np.sign(y) == np.sign(x)) | (y == 0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_input_follows_erf_form(self, dtype):
        x = np.array([np.inf, -np.inf, np.nan], dtype=dtype)
        with np.errstate(invalid="ignore"):
            got = ops.gelu(Tensor(x)).data
            want = x * _phi64(x).astype(dtype)
        np.testing.assert_array_equal(got, [np.inf, np.nan, np.nan])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (0,), (3, 0, 2)])
    def test_rank_zero_and_empty_inputs(self, rng, dtype, shape):
        d = np.asarray(rng.standard_normal(shape), dtype=dtype)
        x = Tensor(d, requires_grad=True)
        with Tape() as tape:
            y = ops.gelu(x)
            loss = ops.sum_all(y)
        got = backward(loss, tape)[x]
        assert (y.shape, y.dtype, got.shape) == (shape, dtype, shape)
        phi = _phi32(d) if dtype == np.float32 else _phi64(d)
        np.testing.assert_array_equal(y.data, d * phi)


class TestGeluBlocks:
    # the library's block, over 196,625 values (float32: 3 blocks and a
    # remainder; float64: 6 and a remainder), and a 4 KiB block over 1,085
    CASES = [pytest.param(None, (5, 39325), id="library-block"),
             pytest.param(4096, (5, 7, 31), id="4KiB-block")]
    VIEWS = {
        "contiguous": lambda t: t,
        "expand": lambda t: ops.expand(t, 3),
        "narrow": lambda t: ops.narrow(t, t.ndim - 1, 2, t.shape[-1] - 5),
    }

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("block_bytes, shape", CASES)
    def test_float64_bit_equal_to_erf_form(self, rng, monkeypatch, view, block_bytes, shape):
        if block_bytes is not None:
            monkeypatch.setattr(ops, "_GELU_BLOCK_BYTES", block_bytes)
        base = Tensor(rng.standard_normal(shape), dtype=np.float64, requires_grad=True)
        d, out, deriv = _gelu_and_derivative(lambda: self.VIEWS[view](base))
        want_out, want_deriv = _erf_form(d)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(deriv, want_deriv)

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @pytest.mark.parametrize("block_bytes, shape", CASES)
    def test_float32_bit_equal_to_unblocked_kernel(self, rng, monkeypatch, view, block_bytes,
                                                   shape):
        base = Tensor(rng.standard_normal(shape), dtype=np.float32, requires_grad=True)

        def run(block):
            monkeypatch.setattr(ops, "_GELU_BLOCK_BYTES", block)
            return _gelu_and_derivative(lambda: self.VIEWS[view](base))

        d, out, deriv = run(block_bytes or ops._GELU_BLOCK_BYTES)
        _, want_out, want_deriv = run(d.nbytes)         # one block over the whole input
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(deriv, want_deriv)
        np.testing.assert_array_equal(out, d * _phi32(d))

    @staticmethod
    def _peaks(d):
        """gelu's traced peak above its input, untaped and taped."""
        x = Tensor(d, requires_grad=True)

        def peak(taped):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                if taped:
                    with Tape():
                        ops.gelu(x)
                else:
                    ops.gelu(x)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        return peak(taped=False), peak(taped=True)

    def test_peak_is_output_and_block_scratch(self, rng):
        # the stem's first GELU map; the old whole-array form held whole-map
        # temporaries beside its output
        d = rng.standard_normal((1, 112, 112, 64)).astype(np.float32)
        scratch, slack = 3 * ops._GELU_BLOCK_BYTES, 16 * 1024
        untaped, taped = self._peaks(d)
        assert untaped <= d.nbytes + scratch + slack
        assert taped <= 2 * d.nbytes + scratch + slack

    def test_float64_peak_is_output_and_block_scratch(self, rng):
        # the same map in float64: _erf64 adds a fourth float block and a
        # bool mask of one block's values (an eighth of a block's bytes)
        d = rng.standard_normal((1, 112, 112, 64))
        scratch, slack = 4 * ops._GELU_BLOCK_BYTES + ops._GELU_BLOCK_BYTES // 8, 16 * 1024
        untaped, taped = self._peaks(d)
        assert untaped <= d.nbytes + scratch + slack
        assert taped <= 2 * d.nbytes + scratch + slack


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
        # against the library's own Phi in each dtype
        phi = _phi32(d) if dtype == np.float32 else _phi64(d)
        pdf = np.exp(-0.5 * d * d) * _INV_SQRT_2PI
        want = g * (phi + d * pdf)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_huge_inputs_give_phi_without_overflow(self, dtype):
        # x² overflows long after exp(-x²/2) has reached 0; the derivative
        # clamps x before squaring, so it is exactly Phi(x), 1 or 0 here
        big = [1e20, 3e38] + ([1e308] if dtype == np.float64 else [])
        d = np.array(big + [-v for v in big], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, deriv = _gelu_and_derivative(lambda: Tensor(d, requires_grad=True))
        phi = _phi32(d) if dtype == np.float32 else _phi64(d)
        np.testing.assert_array_equal(phi, (d > 0).astype(dtype))
        np.testing.assert_array_equal(deriv, phi)

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_rows_bit_equal_to_np_sum_form(self, rng, dtype):
        # outlook attention's (..., windows, N, K², K²) logits, whole and as
        # one band of window rows; forward and backward against np.sum
        logits = (5.0 * rng.standard_normal((2, 49, 6, 9, 9))).astype(dtype)
        g = rng.standard_normal(logits.shape).astype(dtype)
        for x, gx in ((logits, g), (logits[:, 14:28], g[:, 14:28])):
            e = np.exp(x - np.max(x, axis=-1, keepdims=True))
            s = e / np.sum(e, axis=-1, keepdims=True)
            got = ops.softmax(Tensor(x)).data
            np.testing.assert_array_equal(got, s)
            want = s * (gx - np.sum(gx * s, axis=-1, keepdims=True))
            np.testing.assert_array_equal(ops._softmax_grad(s, gx), want)

    def test_log_softmax_consistent(self, rng):
        x = Tensor(rng.standard_normal((4, 7)), dtype=np.float64)
        np.testing.assert_allclose(np.exp(ops.log_softmax(x).data),
                                   ops.softmax(x).data, rtol=1e-12)

    @pytest.mark.parametrize("op", [ops.softmax, ops.log_softmax])
    @pytest.mark.parametrize("shape", [(), (3, 0)], ids=["rank0", "empty_row"])
    def test_rejects_input_without_a_row(self, op, shape):
        with pytest.raises(ShapeError, match="non-empty last axis"):
            op(Tensor(np.zeros(shape)))


class TestRowSum:
    """``_row_sum`` must give np.sum's bits; it fails if numpy's order changes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", range(1, 18))
    def test_bit_equal_to_np_sum(self, rng, n, dtype):
        shape = (64, 5, n)
        mags = 10.0 ** rng.uniform(-4.0, 4.0, shape)
        d = (rng.choice([-1.0, 1.0], shape) * mags).astype(dtype)
        d[rng.random(shape) < 0.1] = -0.0
        d[0] = -0.0                         # rows of ±0 alone
        d[1] = 0.0
        d[2, ::2] = -0.0
        for x in (d, d[:, 1:4]):            # contiguous, and a slice of the window axis
            want = np.sum(x, axis=-1, keepdims=True)
            got = ops._row_sum(x)
            assert got.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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
    lambda: ops.expand(_zeros(2), 2.5),
    lambda: ops.expand(_zeros(2), True),
    lambda: ops.permute(_zeros(2, 3), (0, 0)),
    lambda: ops.concat([]),
    lambda: ops.narrow(_zeros(2, 3), 2, 0, 1),
    lambda: ops.narrow(_zeros(2, 3), 1, 2, 2),
    lambda: ops.layer_norm(_zeros(2, 3), _zeros(4), _zeros(3)),
    lambda: ops.layer_norm(_zeros(3, 0), _zeros(0), _zeros(0)),
    lambda: ops.avg_pool(_zeros(2, 2, 3), 0),
    lambda: ops.avg_pool(_zeros(4, 4, 3), 2.7),
    lambda: ops.avg_pool(_zeros(4, 4, 3), True),
    lambda: ops.avg_pool(_zeros(2, 3), 2),
], ids=["matmul_rank1", "linear_rank3_weight", "linear_misaligned", "linear_bias_shape",
        "expand_zero", "expand_float", "expand_bool", "permute_bad_axes", "concat_empty",
        "narrow_bad_axis", "narrow_bad_range", "layer_norm_gamma", "layer_norm_empty_row",
        "avg_pool_stride_zero", "avg_pool_stride_float", "avg_pool_stride_bool",
        "avg_pool_rank2"])
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
        np.testing.assert_array_equal(ops.avg_pool(Tensor(x), np.int64(2)).data, got)

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

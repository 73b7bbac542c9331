"""Attention layers: shape contracts, identities, multi-head structure,
cost model (analytic and instrumented)."""

import math
import tracemalloc

import numpy as np
import pytest

from outlooker import (
    MADD_COUNTER,
    Conv2d,
    CostQuery,
    LocalSelfAttention,
    OutlookAttention,
    SelfAttention,
    Tape,
    Tensor,
    WindowGeometry,
    backward,
    build_layer,
    fold,
    fold_array,
    layer_input,
    madds,
    measured_madds,
    ops,
    unfold,
    unfold_array,
)
from outlooker import attention
from outlooker.attention import (
    _PIECE_BYTES,
    LAYER_KINDS,
    _cost,
    _oa_cost,
    merge_heads,
    split_heads,
)
from outlooker.errors import GeometryError, ShapeError


class TestConstruction:
    def test_heads_must_divide_channels(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            OutlookAttention(rng, 10, 4)
        with pytest.raises(ShapeError):
            SelfAttention(rng, 10, 4)

    @pytest.mark.parametrize("build, shape", [
        (lambda rng: OutlookAttention(rng, 8, 2), (6, 6, 4)),
        (lambda rng: OutlookAttention(rng, 8, 2), (6, 8)),
        (lambda rng: LocalSelfAttention(rng, 8, 2), (6, 6, 4)),
        (lambda rng: LocalSelfAttention(rng, 8, 2), (6, 8)),
        (lambda rng: SelfAttention(rng, 8, 2), (6, 4)),
        (lambda rng: SelfAttention(rng, 8, 2), (8,)),
        (lambda rng: Conv2d(rng, 3, 4, 8), (6, 6, 8)),
        (lambda rng: Conv2d(rng, 3, 4, 8), (6, 4)),
    ], ids=["oa_channels", "oa_rank", "lsa_channels", "lsa_rank", "sa_channels", "sa_rank",
            "conv_channels", "conv_rank"])
    def test_forward_rejects_wrong_shape(self, build, shape):
        layer = build(np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.zeros(shape, dtype=np.float32)))

    def test_even_kernel_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GeometryError):
            OutlookAttention(rng, 8, 2, kernel=2)
        with pytest.raises(GeometryError):
            Conv2d(rng, 2, 3, 8)
        with pytest.raises(GeometryError):
            LocalSelfAttention(rng, 8, 2, kernel=2)

    def test_stride_below_one_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(GeometryError):
            OutlookAttention(rng, 8, 2, stride=0)
        with pytest.raises(GeometryError):
            Conv2d(rng, 3, 3, 8, stride=0)

    def test_wa_parameter_count_at_example_width(self):
        layer = OutlookAttention(np.random.default_rng(0), 192, 6, 3)
        assert layer.w_a.size + layer.b_a.size == 93_798

    def test_forward_shapes(self, rng):
        def maps(*shape):   # the layers are float32, and ops never promote dtypes
            return Tensor(rng.standard_normal(shape), dtype=np.float32)

        oa = OutlookAttention(np.random.default_rng(0), 8, 2, 3)
        assert oa.forward(maps(5, 6, 8)).shape == (5, 6, 8)
        oa2 = OutlookAttention(np.random.default_rng(0), 8, 2, 3, stride=2)
        assert oa2.forward(maps(5, 6, 8)).shape == (5, 6, 8)
        lsa = LocalSelfAttention(np.random.default_rng(0), 8, 2, 3)
        assert lsa.forward(maps(5, 6, 8)).shape == (5, 6, 8)
        sa = SelfAttention(np.random.default_rng(0), 8, 2)
        assert sa.forward(maps(30, 8)).shape == (30, 8)
        conv = Conv2d(np.random.default_rng(0), 3, 8, 12)
        assert conv.forward(maps(5, 6, 8)).shape == (5, 6, 12)


class TestConvTapeNode:
    @pytest.mark.parametrize("kernel, stride, lead, size, cin, cout", [
        pytest.param(3, 1, (2,), (9, 10), 3, 8, id="3-1"),
        pytest.param(7, 2, (2,), (9, 10), 3, 8, id="7-2"),
        pytest.param(3, 1, (), (9, 10), 3, 8, id="unbatched"),
        pytest.param(5, 2, (3, 2), (7, 6), 4, 5, id="two-leading-axes"),
        # tiny's stem conv: a 4.7 MB stack, walked in several pieces both ways
        pytest.param(3, 1, (8,), (16, 16), 64, 64, id="tiny-stem"),
    ])
    def test_one_node_bit_equal_to_unfold_then_linear(self, rng, monkeypatch, kernel, stride,
                                                      lead, size, cin, cout):
        conv = Conv2d(np.random.default_rng(3), kernel, cin, cout, stride=stride)
        conv.bias.data[...] = rng.standard_normal(cout)
        x = Tensor(rng.standard_normal((*lead, *size, cin)), dtype=np.float32,
                   requires_grad=True)
        geom = WindowGeometry(*size, kernel, stride)
        probe = Tensor(rng.standard_normal((*lead, geom.out_height, geom.out_width, cout)),
                       dtype=np.float32)

        def composed(t):
            rows = kernel * kernel * cin
            flat = ops.reshape(unfold(t, geom), (*lead, geom.windows, rows))
            out = ops.linear(flat, ops.reshape(conv.weight, (rows, cout)), conv.bias)
            return ops.reshape(out, probe.shape)

        def run(forward):
            start = MADD_COUNTER.total
            with Tape() as tape:
                out = forward(x)
                nodes = len(tape)
                loss = ops.sum_all(ops.mul(out, probe))
            counted = MADD_COUNTER.total - start
            grads = backward(loss, tape)
            return out.data, [grads[t] for t in (x, conv.weight, conv.bias)], nodes, counted

        want_out, want_grads, want_nodes, want_counted = run(composed)
        # at the library's piece size, then at 4 KiB pieces: most bands are
        # one window row and every weight-gradient group one kernel row
        for piece_bytes in (_PIECE_BYTES, 4096):
            monkeypatch.setattr(attention, "_PIECE_BYTES", piece_bytes)
            out, grads, nodes, counted = run(conv.forward)
            assert (nodes, want_nodes) == (1, 5)
            assert counted == want_counted == (
                geom.windows * math.prod(lead) * kernel * kernel * cin * cout)
            np.testing.assert_array_equal(out, want_out)
            for got, want in zip(grads, want_grads):
                assert got.dtype == np.float32
                np.testing.assert_array_equal(got, want)

    def test_no_pass_allocates_the_whole_window_stack(self, rng):
        conv = Conv2d(np.random.default_rng(3), 5, 16, 16)
        x = Tensor(rng.standard_normal((2, 48, 48, 16)), dtype=np.float32, requires_grad=True)
        stack_bytes = 2 * 48 * 48 * 25 * 16 * 4       # 7.37 MB
        tracemalloc.start()
        try:
            with Tape() as tape:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                out = conv(x)
                forward_peak = tracemalloc.get_traced_memory()[1] - start
                loss = ops.sum_all(out)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            grads = backward(loss, tape)
            backward_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert grads[x].shape == x.shape
        assert forward_peak < stack_bytes / 2
        assert backward_peak < stack_bytes / 2

    def test_forward_holds_no_padded_copy(self, rng):
        # the stem's 3×3 conv: each band's windows are copied from a slab of
        # the rows they read; the loop may hold two bands' stacks and a slab
        conv = Conv2d(np.random.default_rng(3), 3, 64, 64)
        x = Tensor(rng.standard_normal((1, 112, 112, 64)), dtype=np.float32)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = conv(x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + 2.5 * _PIECE_BYTES

    def test_backward_holds_one_padded_input_and_one_slab(self, rng):
        # the stem's 3×3 conv: the weight gradient reads one padded copy of
        # the input a kernel row at a time, and it is freed before the input
        # gradient is folded band by band onto an unpadded map
        conv = Conv2d(np.random.default_rng(3), 3, 64, 64)
        x = Tensor(rng.standard_normal((1, 112, 112, 64)), dtype=np.float32,
                   requires_grad=True)
        probe = Tensor(rng.standard_normal((1, 112, 112, 64)), dtype=np.float32)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = ops.sum_all(ops.mul(conv(x), probe))
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            grads = backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert grads[x].shape == x.shape
        g_bytes = probe.data.nbytes
        padded_bytes = 114 * 114 * 64 * 4
        slab_bytes = 112 * 112 * 3 * 64 * 4            # one kernel row of the stack
        assert peak <= g_bytes + padded_bytes + slab_bytes + _PIECE_BYTES     # 17.22 MB


class TestEmptyBatch:
    @pytest.mark.parametrize("build, shape", [
        (lambda rng: OutlookAttention(rng, 8, 2), (0, 6, 6, 8)),
        (lambda rng: OutlookAttention(rng, 8, 2, stride=2), (0, 6, 6, 8)),
        (lambda rng: LocalSelfAttention(rng, 8, 2), (0, 6, 6, 8)),
        (lambda rng: SelfAttention(rng, 8, 2), (0, 36, 8)),
        (lambda rng: Conv2d(rng, 3, 8, 8), (0, 6, 6, 8)),
        (lambda rng: Conv2d(rng, 7, 8, 4, stride=2), (0, 6, 6, 8)),
    ], ids=["oa", "oa-s2", "lsa", "sa", "conv", "conv-7-s2"])
    def test_empty_output_and_gradients(self, build, shape):
        layer = build(np.random.default_rng(0))
        x = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
        with Tape() as tape:
            out = layer(x)
            loss = ops.sum_all(out)
        grads = backward(loss, tape)
        assert out.shape[0] == 0 and out.dtype == np.float32
        assert grads[x].shape == shape
        for p in layer.parameters():
            np.testing.assert_array_equal(grads[p], np.zeros_like(p.data))


class TestOutlookHeadMajor:
    @pytest.mark.parametrize("lead, size, channels, heads, kernel, stride, want_bands", [
        pytest.param((2,), (9, 10), 12, 3, 3, 1, 1, id="1-6"),
        pytest.param((2,), (9, 10), 12, 3, 3, 2, 1, id="2-7"),
        # bands of 7 window rows; the last band (walked first) has 5
        pytest.param((2,), (40, 41), 48, 3, 3, 1, 6, id="s1-short-last-band"),
        pytest.param((), (64, 60), 48, 3, 5, 1, 22, id="s1-k5-unbatched"),
        pytest.param((2,), (60, 50), 48, 6, 3, 2, 3, id="s2-batched"),
        pytest.param((3, 2), (30, 31), 48, 3, 5, 2, 8, id="s2-k5-two-leading-axes"),
        pytest.param((2,), (45, 44), 96, 3, 3, 3, 2, id="s3"),
        pytest.param((3, 2), (30, 31), 48, 3, 5, 3, 4, id="s3-k5-two-leading-axes"),
    ])
    def test_bit_equal_to_split_merge_composition(self, rng, lead, size, channels, heads,
                                                  kernel, stride, want_bands):
        # the layer walks its window core in bands of window rows, last band
        # first; the reference unfolds the whole one-head stack, reshaped to
        # (windows, K², C), splits the heads out of it and merges them back
        layer = OutlookAttention(np.random.default_rng(3), channels, heads, kernel,
                                 stride=stride)
        layer.b_a.data[...] = rng.standard_normal(layer.b_a.shape)
        shape = (*lead, *size, channels)
        x = Tensor(rng.standard_normal(shape), dtype=np.float32, requires_grad=True)
        probe = Tensor(rng.standard_normal(shape), dtype=np.float32)
        geom = WindowGeometry(*size, kernel, stride)
        k2 = kernel * kernel
        row_bytes = math.prod(lead) * geom.out_width * k2 * channels * 4
        assert -(-geom.out_height // max(1, _PIECE_BYTES // row_bytes)) == want_bands

        def composed(t):
            plain = ops.reshape(unfold(ops.linear(t, layer.w_v), geom),
                                (*lead, geom.windows, k2, channels))
            stack = split_heads(plain, heads)
            logits = ops.linear(ops.avg_pool(t, stride), layer.w_a, layer.b_a)
            attn = ops.softmax(ops.reshape(logits, (*lead, geom.windows, heads, k2, k2)))
            mixed = ops.reshape(merge_heads(ops.matmul(attn, stack)),
                                (*lead, geom.windows, 1, k2, channels))
            return ops.linear(fold(mixed, geom), layer.w_o, layer.b_o)

        def run(forward):
            start = MADD_COUNTER.total
            with Tape() as tape:
                out = forward(x)
                loss = ops.sum_all(ops.mul(out, probe))
                nodes = len(tape)
            counted = MADD_COUNTER.total - start
            grads = backward(loss, tape)
            return out.data, [grads[t] for t in (x, *layer.parameters())], nodes, counted

        out, grads, nodes, counted = run(layer.forward)
        want_out, want_grads, want_nodes, want_counted = run(composed)
        assert (nodes, want_nodes) == ((6, 16) if stride == 1 else (7, 17))
        assert counted == want_counted
        np.testing.assert_array_equal(out, want_out)
        for got, want in zip(grads, want_grads):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want)

    def test_no_pass_allocates_the_whole_window_stack(self, rng):
        # K = 5 and one head: the K²-wide stack outweighs the N·K⁴-wide
        # logits and softmax, which every pass holds
        layer = OutlookAttention(np.random.default_rng(3), 384, 1, 5)
        x = Tensor(rng.standard_normal((2, 24, 24, 384)), dtype=np.float32,
                   requires_grad=True)
        stack_bytes = 2 * 24 * 24 * 25 * 384 * 4      # 44.2 MB
        tracemalloc.start()
        try:
            with Tape() as tape:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                out = layer(x)
                forward_peak = tracemalloc.get_traced_memory()[1] - start
                loss = ops.sum_all(out)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            grads = backward(loss, tape)
            backward_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert grads[x].shape == x.shape
        assert forward_peak < stack_bytes / 2
        assert backward_peak < stack_bytes / 2

    @pytest.mark.parametrize("stride, size, channels, heads", [
        pytest.param(1, 24, 96, 3, id="1"),
        pytest.param(2, 24, 96, 3, id="2"),
        # d1's stage-1 layer at batch 2: three bands at stride 2
        pytest.param(2, 28, 192, 6, id="2-d1-batch2"),
    ])
    def test_core_keeps_no_value_stack(self, rng, stride, size, channels, heads):
        # the layer's window core is one node holding the values and the
        # softmax output; the public-op chain's matmul also holds the K²-wide
        # value stack
        layer = OutlookAttention(np.random.default_rng(3), channels, heads, 3, stride=stride)
        x = Tensor(rng.standard_normal((2, size, size, channels)), dtype=np.float32,
                   requires_grad=True)
        geom = WindowGeometry(size, size, 3, stride)

        def composed(t):
            stack = unfold(ops.linear(t, layer.w_v), geom, heads)
            logits = ops.linear(ops.avg_pool(t, stride), layer.w_a, layer.b_a)
            attn = ops.softmax(ops.reshape(logits, (2, geom.windows, heads, 9, 9)))
            return ops.linear(fold(ops.matmul(attn, stack), geom, heads), layer.w_o, layer.b_o)

        def measure(forward):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                with Tape() as tape:
                    loss = ops.sum_all(forward(x))
                retained = tracemalloc.get_traced_memory()[0] - start
                tracemalloc.reset_peak()
                grads = backward(loss, tape)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            return retained, peak, [grads[t] for t in (x, *layer.parameters())]

        retained, peak, grads = measure(layer.forward)
        want_retained, want_peak, want_grads = measure(composed)
        assert retained < want_retained
        assert peak <= want_peak
        for got, want in zip(grads, want_grads):
            np.testing.assert_array_equal(got, want)


class TestOutlookIdentities:
    def test_kernel_one_collapses_to_two_projections(self, rng):
        layer = OutlookAttention(np.random.default_rng(1), 6, 2, kernel=1, dtype=np.float64)
        x = Tensor(rng.standard_normal((4, 5, 6)), dtype=np.float64)
        got = layer.forward(x)
        want = ops.linear(ops.linear(x, layer.w_v), layer.w_o, layer.b_o)
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_zero_logits_on_single_token_average_to_ninth(self, rng):
        layer = OutlookAttention(np.random.default_rng(2), 4, 1, kernel=3, dtype=np.float64)
        layer.w_a.data[...] = 0.0
        layer.b_a.data[...] = 0.0
        x = Tensor(rng.standard_normal((1, 1, 4)), dtype=np.float64)
        got = layer.forward(x)
        scaled = ops.scale(ops.linear(x, layer.w_v), 1.0 / 9.0)
        want = ops.linear(scaled, layer.w_o, layer.b_o)
        np.testing.assert_allclose(got.data, want.data, atol=1e-12)

    def test_heads_read_disjoint_value_columns(self, rng):
        # zeroing one head's value columns zeroes exactly that head's
        # pre-projection output channels and leaves the other head's intact;
        # an identity output projection (b_o stays 0) exposes those channels
        base = OutlookAttention(np.random.default_rng(3), 8, 2, 3, dtype=np.float64)
        base.w_o.data[...] = np.eye(8)
        x = Tensor(rng.standard_normal((4, 4, 8)), dtype=np.float64)
        full = base.forward(x).data.copy()
        base.w_v.data[:, 4:] = 0.0
        cut = base.forward(x).data
        np.testing.assert_allclose(cut[:, :, 4:], 0.0, atol=1e-15)
        np.testing.assert_allclose(cut[:, :, :4], full[:, :, :4], atol=1e-15)

    def test_attention_rows_are_stochastic(self):
        # identity values on an all-ones map: a fully in-bounds window row
        # contributes exactly its softmax mass (1), a clipped row strictly
        # less, so the center token, covered by 9 interior windows, lands
        # on 9.0 exactly iff every row sums to one (identity output
        # projection, b_o stays 0)
        layer = OutlookAttention(np.random.default_rng(4), 4, 2, 3, dtype=np.float64)
        layer.w_v.data[...] = np.eye(4)
        layer.w_o.data[...] = np.eye(4)
        x = Tensor(np.ones((5, 5, 4)), dtype=np.float64)
        out = layer.forward(x).data
        geom = WindowGeometry(5, 5, 3)
        cov = fold_array(unfold_array(np.ones((5, 5, 1)), geom), geom)[:, :, 0]
        np.testing.assert_allclose(out[2, 2, :], 9.0, atol=1e-12)
        assert np.all(out <= cov[:, :, None] + 1e-12)


class TestStrideTwo:
    def test_matches_oracle_on_ragged_grid(self):
        from outlooker import oracle_outlook_attention

        rng = np.random.default_rng(5)
        layer = OutlookAttention(rng, 6, 2, 3, stride=2, dtype=np.float64)
        x = Tensor(rng.standard_normal((7, 5, 6)), dtype=np.float64)
        np.testing.assert_allclose(
            layer.forward(x).data, oracle_outlook_attention(x.data, layer), atol=1e-10
        )

    def test_output_keeps_full_resolution(self, rng):
        layer = OutlookAttention(np.random.default_rng(6), 4, 2, 3, stride=3)
        x = Tensor(rng.standard_normal((9, 8, 4)).astype(np.float32))
        assert layer.forward(x).shape == (9, 8, 4)


class TestHeadLayout:
    def test_split_puts_channel_slices_on_a_head_axis(self, rng):
        x = Tensor(rng.standard_normal((5, 4, 6)))                # (..., L, C)
        heads = split_heads(x, 3)
        assert heads.shape == (5, 3, 4, 2)
        for n in range(3):
            np.testing.assert_array_equal(heads.data[:, n], x.data[..., 2 * n:2 * n + 2])
        np.testing.assert_array_equal(merge_heads(heads).data, x.data)

    def test_self_attention_records_sixteen_nodes(self, rng):
        # 4 projections, the key reshape and permute, split q and v (2 each),
        # the score matmul, scale, softmax, the value matmul and the merge (2)
        layer = SelfAttention(np.random.default_rng(3), 12, 3)
        x = Tensor(rng.standard_normal((2, 7, 12)), dtype=np.float32, requires_grad=True)
        with Tape() as tape:
            layer.forward(x)
            assert len(tape) == 16


class TestLocalAttentionMask:
    def test_corner_token_ignores_padding(self):
        # with identical tokens everywhere, every in-bounds neighbor gets the
        # same score, so the corner output must equal the center output
        rng = np.random.default_rng(7)
        layer = LocalSelfAttention(rng, 4, 2, 3, dtype=np.float64)
        x = Tensor(np.tile(rng.standard_normal(4), (5, 5, 1)), dtype=np.float64)
        out = layer.forward(x).data
        np.testing.assert_allclose(out[0, 0], out[2, 2], atol=1e-12)


class TestLocalSelfAttentionHeadMajor:
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_fourteen_nodes_and_no_permute(self, rng, lead, monkeypatch):
        # 4 projections, the query reshape, 2 unfolds, the score matmul,
        # scale, reshape and mask add, softmax, the value matmul and reshape
        def no_permute(*args):
            raise AssertionError("local self-attention permuted a head")

        monkeypatch.setattr(ops, "permute", no_permute)
        layer = LocalSelfAttention(np.random.default_rng(3), 12, 3, 3)
        x = Tensor(rng.standard_normal((*lead, 5, 6, 12)), dtype=np.float32, requires_grad=True)
        with Tape() as tape:
            out = layer.forward(x)
            assert len(tape) == 14
            grads = backward(ops.sum_all(out), tape)
        assert out.shape == x.shape
        assert all(grads[p].dtype == np.float32 for p in (x, *layer.parameters()))

    def test_float32_matches_float64_oracle(self, rng):
        # the oracle casts the float32 parameters to float64 and loops over
        # every token, head and in-bounds neighbor
        from outlooker import oracle_local_self_attention

        layer = LocalSelfAttention(np.random.default_rng(4), 12, 3, 3)
        for p in layer.parameters():
            p.data[...] = 0.3 * rng.standard_normal(p.shape)
        x = rng.standard_normal((2, 6, 7, 12)).astype(np.float32)
        got = layer.forward(Tensor(x)).data
        want = np.stack([oracle_local_self_attention(m, layer) for m in x])
        assert got.dtype == np.float32
        bar = 16 * np.finfo(np.float32).eps * np.abs(want).max()
        assert np.abs(got - want).max() <= bar


class TestCostModel:
    def test_frozen_analytic_values(self):
        # 28·28·192·(2·192 + 6·3⁴) + 28·28·3⁴·192 = 130_959_360 + 12_192_768
        assert madds(CostQuery(28, 28, 192, 3, 6), "oa") == 143_152_128
        assert madds(CostQuery(14, 14, 384, 3, 12), "sa") == 145_108_992
        assert madds(CostQuery(28, 28, 384, 3, 12), "lsa") == 467_841_024

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeError):
            madds(CostQuery(4, 4, 8), "dense")
        with pytest.raises(ShapeError):
            build_layer("dense", CostQuery(4, 4, 8), np.random.default_rng(0))

    def test_query_validation(self):
        with pytest.raises(ShapeError):
            CostQuery(0, 4, 8)

    @pytest.mark.parametrize("kind", ["sa", "lsa", "oa", "conv"])
    def test_measured_equals_analytic_exactly(self, kind):
        rng = np.random.default_rng(8)
        query = CostQuery(12, 10, 16, 3, 4)
        layer = build_layer(kind, query, rng, dtype=np.float32)
        x = layer_input(kind, query, rng, dtype=np.float32)
        assert measured_madds(layer, x) == madds(query, kind)

    def test_oa_measured_exceeds_analytic_by_k4_minus_k2_sweep(self):
        # booking the aggregation as one K²·C sweep per location undercounts:
        # the layer multiplies a (K²×K²) matrix into K² value slots per
        # window, costing K⁴·C; the gap is exactly HW·C·(K⁴−K²)
        rng = np.random.default_rng(9)
        query = CostQuery(12, 10, 16, 3, 4)
        layer = build_layer("oa", query, rng, dtype=np.float32)
        x = layer_input("oa", query, rng, dtype=np.float32)
        hw, k2, c, n = 12 * 10, 9, 16, 4
        k2_sweep = hw * c * (2 * c + n * k2 * k2) + hw * k2 * c
        gap = hw * c * (k2 * k2 - k2)
        measured = measured_madds(layer, x)
        assert measured == k2_sweep + gap
        assert measured == madds(query, "oa")

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    @pytest.mark.parametrize("query", [CostQuery(4, 4, 8, 3, 2), CostQuery(6, 5, 12, 5, 3),
                                       CostQuery(2, 7, 16, 1, 4)], ids=str)
    def test_closed_form_params_equal_allocated(self, kind, query):
        layer = build_layer(kind, query, np.random.default_rng(0))
        assert _cost(query, kind)[0] == sum(p.size for p in layer.parameters())

    def test_oa_params_equal_allocated_at_stride_two(self):
        layer = OutlookAttention(np.random.default_rng(0), 12, 3, 3, stride=2)
        windows = WindowGeometry(7, 7, 3, 2).windows
        assert _oa_cost(49, windows, 12, 3, 3)[0] == sum(p.size for p in layer.parameters())

    def test_oa_cheaper_than_lsa_at_reference_width(self):
        for height, width in ((14, 14), (28, 28), (56, 56), (17, 31)):
            query = CostQuery(height, width, 384, 3, 6)
            assert madds(query, "oa") < madds(query, "lsa")

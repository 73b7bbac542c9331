"""Attention layers: shape contracts, identities, multi-head structure,
cost model (analytic and instrumented)."""

import math

import numpy as np
import pytest

from outlooker import (
    MADD_COUNTER,
    ClassAttentionBlock,
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
    fold_array,
    layer_input,
    madds,
    measured_madds,
    ops,
    unfold_array,
)
from outlooker.attention import (
    _PIECE_BYTES,
    LAYER_KINDS,
    _cost,
    _oa_cost,
)
from outlooker.errors import ContractError, GeometryError, ShapeError


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

    # a count is a positive int, never a float or a bool: window geometry
    # raises GeometryError, channel and head counts ShapeError
    @pytest.mark.parametrize("build, error", [
        (lambda rng: OutlookAttention(rng, 4, 2, 3.0), GeometryError),
        (lambda rng: OutlookAttention(rng, 4, 2, stride=True), GeometryError),
        (lambda rng: OutlookAttention(rng, 4.0, 2), ShapeError),
        (lambda rng: OutlookAttention(rng, 4, True), ShapeError),
        (lambda rng: LocalSelfAttention(rng, 4, 2, 3.0), GeometryError),
        (lambda rng: SelfAttention(rng, 4, 2.0), ShapeError),
        (lambda rng: SelfAttention(rng, 0, 1), ShapeError),
        (lambda rng: Conv2d(rng, 3, 2, 2, stride=2.0), GeometryError),
        (lambda rng: Conv2d(rng, 3.0, 2, 2), GeometryError),
        (lambda rng: Conv2d(rng, 3, -1, 4), ShapeError),
        (lambda rng: Conv2d(rng, 3, 0, 4), ShapeError),
        (lambda rng: Conv2d(rng, 3, 2, 0), ShapeError),
        (lambda rng: Conv2d(rng, 3, 2.0, 4), ShapeError),
        (lambda rng: Conv2d(rng, 3, True, 4), ShapeError),
    ], ids=["oa_kernel_float", "oa_stride_bool", "oa_channels_float", "oa_heads_bool",
            "lsa_kernel_float", "sa_heads_float", "sa_channels_zero", "conv_stride_float",
            "conv_kernel_float", "conv_cin_negative", "conv_cin_zero", "conv_cout_zero",
            "conv_cin_float", "conv_cin_bool"])
    def test_non_count_rejected(self, build, error):
        with pytest.raises(error):
            build(np.random.default_rng(0))

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
    def test_no_pass_allocates_the_whole_window_stack(self, rng, memory):
        conv = Conv2d(np.random.default_rng(3), 5, 16, 16)
        x = Tensor(rng.standard_normal((2, 48, 48, 16)), dtype=np.float32, requires_grad=True)
        stack_bytes = 2 * 48 * 48 * 25 * 16 * 4       # 7.37 MB
        with memory() as mem:
            with Tape() as tape:
                mem.mark()
                out = conv(x)
                forward_peak = mem.peak()
                loss = ops.sum_all(out)
            mem.mark()
            grads = backward(loss, tape)
            backward_peak = mem.peak()
        assert grads[x].shape == x.shape
        assert forward_peak < stack_bytes / 2
        assert backward_peak < stack_bytes / 2

    def test_forward_holds_no_padded_copy(self, rng, memory):
        # the stem's 3×3 conv: each band's windows are copied from a slab of
        # the rows they read; the loop may hold two bands' stacks and a slab
        conv = Conv2d(np.random.default_rng(3), 3, 64, 64)
        x = Tensor(rng.standard_normal((1, 112, 112, 64)), dtype=np.float32)
        with memory() as mem:
            out = conv(x)
            peak = mem.peak()
        assert peak <= out.data.nbytes + 2.5 * _PIECE_BYTES

    def test_backward_holds_one_padded_input_and_one_slab(self, rng, memory):
        # the stem's 3×3 conv: the weight gradient unfolds the input a kernel
        # row at a time, each row's stack from its own padded copy, and both
        # are freed before the input gradient is folded band by band onto an
        # unpadded map
        conv = Conv2d(np.random.default_rng(3), 3, 64, 64)
        x = Tensor(rng.standard_normal((1, 112, 112, 64)), dtype=np.float32,
                   requires_grad=True)
        probe = Tensor(rng.standard_normal((1, 112, 112, 64)), dtype=np.float32)
        with memory() as mem:
            with Tape() as tape:
                loss = ops.sum_all(ops.mul(conv(x), probe))
            mem.mark()
            grads = backward(loss, tape)
            peak = mem.peak()
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
    def test_no_pass_allocates_the_whole_window_stack(self, rng, memory):
        # K = 5 and one head: the K²-wide stack outweighs the N·K⁴-wide
        # logits and softmax, which every pass holds
        layer = OutlookAttention(np.random.default_rng(3), 384, 1, 5)
        x = Tensor(rng.standard_normal((2, 24, 24, 384)), dtype=np.float32,
                   requires_grad=True)
        stack_bytes = 2 * 24 * 24 * 25 * 384 * 4      # 44.2 MB
        with memory() as mem:
            with Tape() as tape:
                mem.mark()
                out = layer(x)
                forward_peak = mem.peak()
                loss = ops.sum_all(out)
            mem.mark()
            grads = backward(loss, tape)
            backward_peak = mem.peak()
        assert grads[x].shape == x.shape
        assert forward_peak < stack_bytes / 2
        assert backward_peak < stack_bytes / 2

    @pytest.mark.parametrize("stride, nodes", [(1, 4), (2, 5)])
    def test_layer_records_its_core_and_projections(self, rng, stride, nodes):
        # the value, logit and output projections and the window core, and
        # the pooling at stride 2
        layer = OutlookAttention(np.random.default_rng(3), 12, 3, 3, stride=stride)
        x = Tensor(rng.standard_normal((2, 9, 10, 12)), dtype=np.float32, requires_grad=True)
        with Tape() as tape:
            layer.forward(x)
            assert len(tape) == nodes


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


def _op_chain_mix(q, k, v, heads):
    """Multi-head attention as the chain of public ops that ``MultiHeadCore.mix`` replaces."""
    *lead, length, channels = k.shape
    n, dh = len(lead), channels // heads
    swap = (*range(n), n + 1, n, n + 2)        # (..., L, heads, dh) ↔ (..., heads, L, dh)

    def split(t):
        return ops.permute(ops.reshape(t, (*t.shape[:-1], heads, dh)), swap)

    keys = ops.permute(ops.reshape(k, (*lead, length, heads, dh)), (*range(n), n + 1, n + 2, n))
    attn = ops.softmax(ops.scale(ops.matmul(split(q), keys), 1.0 / math.sqrt(dh)))
    return ops.reshape(ops.permute(ops.matmul(attn, split(v)), swap), q.shape)


class TestHeadLayout:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("lead, queries, length", [
        pytest.param((2,), 7, 7, id="self-batched"),
        pytest.param((), 7, 7, id="self-unbatched"),
        pytest.param((2,), 20, 20, id="self-long-rows"),
        pytest.param((2,), 1, 8, id="class"),
    ])
    def test_node_bit_equal_to_op_chain(self, rng, dtype, lead, queries, length):
        # the one node against the reshape/permute/matmul/scale/softmax chain
        # it replaced: the output and the q, k and v gradients byte for byte,
        # and the same multiply-adds booked; rows of up to 16 scores take the
        # column-wise row max and sum, longer ones numpy's reductions
        layer = SelfAttention(np.random.default_rng(3), 12, 3, dtype=dtype)
        q, k, v = (Tensor(rng.standard_normal((*lead, rows, 12)), dtype=dtype, requires_grad=True)
                   for rows in (queries, length, length))
        probe = Tensor(rng.standard_normal((*lead, queries, 12)), dtype=dtype)

        def run(mix):
            start = MADD_COUNTER.total
            with Tape() as tape:
                out = mix(q, k, v)
                counted = MADD_COUNTER.total - start
                loss = ops.sum_all(ops.mul(out, probe))
            grads = backward(loss, tape)
            return counted, [out.data, *(grads[t] for t in (q, k, v))]

        counted, got = run(layer.mix)
        want_counted, want = run(lambda *qkv: _op_chain_mix(*qkv, 3))
        assert counted == want_counted == math.prod(lead) * 2 * queries * length * 12
        for a, b in zip(got, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.dtype == dtype
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("q_shape, kv_shapes", [
        ((2, 7, 12), ((3, 7, 12), (3, 7, 12))),     # leading axes differ
        ((2, 7, 12), ((2, 7, 12), (2, 6, 12))),     # k and v differ
        ((2, 7, 8), ((2, 7, 8), (2, 7, 8))),        # channels not divisible by 3 heads
        ((12,), ((7, 12), (7, 12))),                # q has no token axis
    ], ids=["lead", "kv", "heads", "rank"])
    def test_mix_rejects_misaligned_operands(self, q_shape, kv_shapes):
        layer = SelfAttention(np.random.default_rng(3), 12, 3)
        q, k, v = (Tensor(np.zeros(shape, dtype=np.float32)) for shape in (q_shape, *kv_shapes))
        with pytest.raises(ShapeError):
            layer.mix(q, k, v)

    def test_mix_rejects_mixed_dtypes(self):
        layer = SelfAttention(np.random.default_rng(3), 12, 3)
        q, k = (Tensor(np.zeros((7, 12), dtype=np.float32)) for _ in range(2))
        with pytest.raises(ContractError):
            layer.mix(q, k, Tensor(np.zeros((7, 12), dtype=np.float64)))

    def test_self_attention_records_five_nodes(self, rng):
        # the 4 projections and the one attention node
        layer = SelfAttention(np.random.default_rng(3), 12, 3)
        x = Tensor(rng.standard_normal((2, 7, 12)), dtype=np.float32, requires_grad=True)
        with Tape() as tape:
            layer.forward(x)
            assert len(tape) == 5

    def test_no_node_keeps_the_scores(self, rng, retained_tool):
        # the node keeps its head copies and the softmax's row max and sum;
        # the (..., heads, Lq, Lk) softmax is rebuilt in backward, so no
        # closure on the tape reaches an array of that shape, while the op
        # chain's softmax and matmul closures do
        walk = retained_tool.closure_arrays
        heads, scores = 3, {(3, 7, 7), (3, 1, 8)}
        sa = SelfAttention(np.random.default_rng(3), 12, heads)
        ca = ClassAttentionBlock(np.random.default_rng(4), 12, heads)
        x = Tensor(rng.standard_normal((2, 7, 12)), dtype=np.float32, requires_grad=True)
        cls = Tensor(rng.standard_normal((2, 1, 12)), dtype=np.float32, requires_grad=True)

        def held_shapes(forward):
            with Tape() as tape:
                forward()
                return [a.shape[-3:] for _, _, fn in tape._nodes for a in walk(fn)]

        held = held_shapes(lambda: (sa.forward(x), ca.forward(cls, x)))
        assert (heads, 7, 4) in held and (heads, 1, 1) in held    # q heads, class row stats
        assert not scores & set(held)
        chain = held_shapes(lambda: _op_chain_mix(x, x, x, heads))
        assert (heads, 7, 7) in chain


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

    @pytest.mark.parametrize("args", [(4, 4, 4.5, 3, 2), (4.0, 4, 8), (4, 4, 8, True),
                                      (4, 4, 8, 3, 2.0)],
                             ids=["channels_float", "height_float", "kernel_bool", "heads_float"])
    def test_query_non_count_rejected(self, args):
        with pytest.raises(ShapeError):
            CostQuery(*args)

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

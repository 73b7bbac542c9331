"""Residual blocks, MLP sizing, stochastic depth, class attention."""

import numpy as np
import pytest

from outlooker import (
    MADD_COUNTER,
    PRESETS,
    ClassAttentionBlock,
    Conv2d,
    LayerNorm,
    LocalSelfAttention,
    Mlp,
    ModelConfig,
    OutlookerBlock,
    ResidualBlock,
    Tape,
    Tensor,
    TransformerBlock,
    backward,
    build_model,
    drop_path_masks,
    mlp_hidden,
    ops,
)
from outlooker.attention import _attention_cost
from outlooker.errors import ContractError, ShapeError
from outlooker.oracle import finite_diff_grad, oracle_self_attention, relative_error


def reference_masks(max_rate, depth, batch, rng):
    """Per-block draws as each block once made them inside its own forward.

    Block i of ``depth`` drops at max_rate·i/max(depth-1, 1); a block at a
    rate above 0 draws its mixer's mask, then its MLP's, as
    ``rng.random(batch) >= rate`` scaled by 1/(1-rate).
    """
    masks = []
    for i in range(depth):
        rate = max_rate * i / max(depth - 1, 1)
        pair = []
        for _ in range(2):
            if rate == 0.0:
                pair.append(None)
                continue
            keep = rng.random(batch) >= rate
            pair.append(keep.astype(np.float64) / (1.0 - rate))
        masks.append(tuple(pair))
    return masks


def state(rng):
    return rng.bit_generator.state


class TestMlpSizing:
    def test_exact_ratios(self):
        assert mlp_hidden(192, 3.0) == 576
        assert mlp_hidden(384, 4.0) == 1536

    def test_fractional_hidden_rejected(self):
        with pytest.raises(ShapeError):
            mlp_hidden(10, 0.15)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ratio_rejected(self, ratio):
        with pytest.raises(ShapeError):
            mlp_hidden(192, ratio)

    @pytest.mark.parametrize("channels", [4.5, True, 0], ids=["float", "bool", "zero"])
    def test_non_count_channels_rejected(self, channels):
        with pytest.raises(ShapeError):
            mlp_hidden(channels, 2.0)
        with pytest.raises(ShapeError):
            Mlp(np.random.default_rng(0), channels, 2.0)

    def test_mlp_forward_matches_composition(self, rng):
        mlp = Mlp(np.random.default_rng(0), 8, 3.0, dtype=np.float64)
        x = Tensor(rng.standard_normal((5, 8)), dtype=np.float64)
        want = ops.linear(ops.gelu(ops.linear(x, mlp.w1, mlp.b1)), mlp.w2, mlp.b2)
        np.testing.assert_allclose(mlp.forward(x).data, want.data)


class TestStochasticDepth:
    def test_rate_zero_keeps_everything(self, rng):
        before = state(rng)
        assert drop_path_masks(0.0, 4, 16, rng) == [(None, None)] * 4
        assert state(rng) == before

    def test_values_are_zero_or_rescaled(self, rng):
        rate = 0.3
        _, masks = drop_path_masks(rate, 2, 4000, rng)
        keep = 1.0 / (1.0 - rate)
        for mask in masks:
            assert mask.dtype == np.float64 and mask.shape == (4000,)
            assert set(np.round(np.unique(mask), 10)) <= {0.0, round(keep, 10)}
            assert abs(mask.mean() - 1.0) < 0.05

    def test_rate_one_rejected(self, rng):
        with pytest.raises(ContractError):
            drop_path_masks(1.0, 4, 4, rng)

    def test_empty_batch_rejected(self, rng):
        # the model rejects a batch of 0 before it draws any mask
        model = build_model(PRESETS["tiny"], seed=0)
        before = state(rng)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((0, 32, 32, 3), dtype=np.float32), training=True, rng=rng)
        assert state(rng) == before

    def test_schedule_ramps_linearly(self, rng):
        # 64 samples: a mask at rate <= 0.3 keeps at least one of them
        masks = drop_path_masks(0.3, 4, 64, rng)
        assert masks[0] == (None, None)
        for (mix, mlp), rate in zip(masks[1:], (0.1, 0.2, 0.3)):
            np.testing.assert_allclose([mix.max(), mlp.max()], 1.0 / (1.0 - rate))
        assert drop_path_masks(0.5, 1, 4, rng) == [(None, None)]
        assert drop_path_masks(0.5, 0, 4, rng) == []

    @pytest.mark.parametrize("preset,batch", [("tiny", 8), ("d1", 2)])
    def test_draws_match_per_block_reference(self, preset, batch):
        config = PRESETS[preset]
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = drop_path_masks(config.drop_path_rate, config.total_layers, batch, got_rng)
        want = reference_masks(config.drop_path_rate, config.total_layers, batch, want_rng)
        assert len(got) == len(want) == config.total_layers
        for got_pair, want_pair in zip(got, want):
            for g, w in zip(got_pair, want_pair):
                assert (g is None and w is None) or g.tobytes() == w.tobytes()
        assert state(got_rng) == state(want_rng)

    def test_rate_zero_block_draws_nothing(self):
        # depth 3 at 0.3: block 0 draws nothing, blocks 1 and 2 two masks each
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        drop_path_masks(0.3, 3, 5, rng)
        twin.random(4 * 5)
        assert state(rng) == state(twin)


class TestLayerNormModule:
    def test_matches_op(self, rng):
        norm = LayerNorm(6, dtype=np.float64)
        x = Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
        want = ops.layer_norm(x, norm.gamma, norm.beta)
        np.testing.assert_allclose(norm(x).data, want.data)

    @pytest.mark.parametrize("channels", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_non_count_channels_rejected(self, channels):
        with pytest.raises(ShapeError):
            LayerNorm(channels)


@pytest.mark.parametrize(
    "build,shape",
    [
        (lambda rng: OutlookerBlock(rng, 8, 2, 3, 2, 3.0), (6, 6, 8)),
        (lambda rng: ResidualBlock(LocalSelfAttention(rng, 8, 2, 3, dtype=np.float32), rng, 8,
                                   3.0, np.float32), (6, 6, 8)),
        (lambda rng: ResidualBlock(Conv2d(rng, 3, 8, 8, dtype=np.float32), rng, 8, 3.0,
                                   np.float32), (6, 6, 8)),
        (lambda rng: TransformerBlock(rng, 8, 2, 3.0), (12, 8)),
    ],
)
class TestResidualBlocks:
    def test_shape_preserved(self, build, shape, rng):
        block = build(np.random.default_rng(0))
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        assert block.forward(x).shape == shape

    def test_inference_deterministic(self, build, shape, rng):
        block = build(np.random.default_rng(0))
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        a = block.forward(x).data
        b = block.forward(x, masks=(None, None)).data
        np.testing.assert_array_equal(a, b)


class TestDropPathPlumbing:
    def test_training_with_rate_requires_rng(self):
        with pytest.raises(ContractError):
            drop_path_masks(0.5, 2, 4, None)
        assert drop_path_masks(0.5, 1, 4, None) == [(None, None)]   # rate 0 draws nothing

    def test_training_without_rng_fails_before_the_stem(self, rng):
        model = build_model(PRESETS["tiny"], seed=0)
        images = rng.standard_normal((2, 32, 32, 3)).astype(np.float32)
        start = MADD_COUNTER.total
        with Tape() as tape:
            with pytest.raises(ContractError):
                model.forward(images, training=True)
            assert len(tape) == 0
        assert MADD_COUNTER.total == start

    def test_inference_leaves_the_generator_untouched(self, rng):
        model = build_model(PRESETS["tiny"], seed=0)
        images = rng.standard_normal((2, 32, 32, 3)).astype(np.float32)
        gen = np.random.default_rng(1)
        before = state(gen)
        got = model.forward(images, training=False, rng=gen).data
        assert state(gen) == before
        np.testing.assert_array_equal(got, model.forward(images).data)

    def test_dropped_branches_leave_identity(self, rng):
        block = TransformerBlock(np.random.default_rng(0), 8, 2, 3.0)
        x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        out = block.forward(x, masks=(np.zeros(4), np.zeros(4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_invalid_rate_rejected(self, rng):
        for rate in (1.0, -0.1, float("nan")):
            with pytest.raises(ContractError):
                drop_path_masks(rate, 4, 2, rng)
            with pytest.raises(ContractError):
                ModelConfig(drop_path_rate=rate)


@pytest.mark.parametrize("build,shape", [
    (lambda rng: OutlookerBlock(rng, 4, 2, 3, 1, 3.0, dtype=np.float64), (3, 3, 4)),
    (lambda rng: TransformerBlock(rng, 4, 2, 3.0, dtype=np.float64), (6, 4)),
], ids=["oblock", "tblock"])
def test_gradients_through_dropped_branches(build, shape):
    # sample 0 keeps only its MLP branch and sample 1 only its mixer branch,
    # each kept branch scaled by 1/(1-rate); the bar is criterion 5's
    rng = np.random.default_rng(11)
    block = build(rng)
    keep = 1.0 / (1.0 - 0.25)
    masks = (np.array([0.0, keep]), np.array([keep, 0.0]))
    x = Tensor(rng.standard_normal((2, *shape)), dtype=np.float64, requires_grad=True)
    tensors = [x] + block.parameters()
    base = [t.data.copy() for t in tensors]
    probe = rng.standard_normal((2, *shape))

    def f(arrays):
        for t, a in zip(tensors, arrays):
            t.data[...] = a
        return float(np.sum(block.forward(x, masks).data * probe))

    numeric = finite_diff_grad(f, base)
    for t, a in zip(tensors, base):
        t.data[...] = a
    with Tape() as tape:
        loss = ops.sum_all(ops.mul(block.forward(x, masks), Tensor(probe, dtype=np.float64)))
        grads = backward(loss, tape)
    analytic = [grads.get(t, np.zeros_like(t.data)) for t in tensors]
    assert max(relative_error(a, n, eps=1e-5) for a, n in zip(analytic, numeric)) <= 1e-4


class TestClassAttention:
    def test_updates_only_the_class_token(self, rng):
        block = ClassAttentionBlock(np.random.default_rng(0), 8, 2, 3.0, dtype=np.float64)
        cls_token = Tensor(rng.standard_normal((1, 8)), dtype=np.float64)
        patches = Tensor(rng.standard_normal((9, 8)), dtype=np.float64)
        out = block.forward(cls_token, patches)
        assert out.shape == (1, 8)
        assert not np.allclose(out.data, cls_token.data)

    def test_patch_permutation_equivariance_of_cls(self, rng):
        # the class token attends over an unordered set: permuting patches
        # must not change its update
        block = ClassAttentionBlock(np.random.default_rng(0), 8, 2, 3.0, dtype=np.float64)
        cls_token = Tensor(rng.standard_normal((1, 8)), dtype=np.float64)
        patches = rng.standard_normal((9, 8))
        out1 = block.forward(cls_token, Tensor(patches, dtype=np.float64)).data
        out2 = block.forward(cls_token, Tensor(patches[::-1].copy(), dtype=np.float64)).data
        np.testing.assert_allclose(out1, out2, atol=1e-12)

    def test_matches_loop_reference_float64(self, rng):
        # the class token's row of full self-attention over [cls; patches],
        # then the block's MLP residual; random biases and norm affines so
        # every parameter reaches the output
        block = ClassAttentionBlock(np.random.default_rng(0), 8, 2, 3.0, dtype=np.float64)
        for _, p in block.named_params():
            p.data[...] = rng.standard_normal(p.shape) * 0.5
        cls_token = Tensor(rng.standard_normal((1, 8)), dtype=np.float64)
        patches = Tensor(rng.standard_normal((9, 8)), dtype=np.float64)
        got = block.forward(cls_token, patches).data

        tokens = block.norm1(ops.concat([cls_token, patches], axis=0)).data
        cls = Tensor(cls_token.data + oracle_self_attention(tokens, block)[:1], dtype=np.float64)
        want = ops.add(cls, block.mlp(block.norm2(cls))).data
        assert relative_error(got, want) <= 1e-6

    def test_shape_contract(self, rng):
        block = ClassAttentionBlock(np.random.default_rng(0), 8, 2, 3.0)
        with pytest.raises(ShapeError):
            block.forward(Tensor(rng.standard_normal((2, 8)).astype(np.float32)),
                          Tensor(rng.standard_normal((9, 8)).astype(np.float32)))

    @pytest.mark.parametrize("patches", [(2, 9, 4), (3, 9, 8), (9, 8)],
                             ids=["channels", "leading_axes", "rank"])
    def test_patches_must_match_class_token(self, patches):
        block = ClassAttentionBlock(np.random.default_rng(0), 8, 2, 3.0)
        with pytest.raises(ShapeError):
            block.forward(Tensor(np.zeros((2, 1, 8), dtype=np.float32)),
                          Tensor(np.zeros(patches, dtype=np.float32)))

    def test_cost_is_one_query_attention_plus_one_mlp_row(self, rng):
        # per sample: q and o over the class token, k and v over all L+1
        # tokens, two (L+1)-wide GEMMs for the one query, and one MLP row
        batch, length, c = 2, 7, 12
        block = ClassAttentionBlock(np.random.default_rng(0), c, 3, 3.0)
        cls_token = Tensor(rng.standard_normal((batch, 1, c)), dtype=np.float32)
        patches = Tensor(rng.standard_normal((batch, length, c)), dtype=np.float32)
        start = MADD_COUNTER.total
        block.forward(cls_token, patches)
        per_sample = _attention_cost(1, length + 1, length + 1, c)[1] + 2 * c * mlp_hidden(c, 3.0)
        assert per_sample == 3_648
        assert MADD_COUNTER.total - start == batch * per_sample

    def test_records_fourteen_nodes(self, rng):
        # concat, norm, narrow, the 4 projections and the attention node,
        # residual add, norm, the 3 MLP nodes and the MLP residual add
        block = ClassAttentionBlock(np.random.default_rng(0), 12, 3, 3.0)
        cls_token = Tensor(rng.standard_normal((2, 1, 12)), dtype=np.float32, requires_grad=True)
        patches = Tensor(rng.standard_normal((2, 7, 12)), dtype=np.float32, requires_grad=True)
        with Tape() as tape:
            block.forward(cls_token, patches)
            assert len(tape) == 14

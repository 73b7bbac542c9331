"""Residual blocks, MLP sizing, stochastic depth, class attention."""

import numpy as np
import pytest

from outlooker import (
    MADD_COUNTER,
    ClassAttentionBlock,
    Conv2d,
    LayerNorm,
    LocalSelfAttention,
    Mlp,
    OutlookerBlock,
    ResidualBlock,
    Tape,
    Tensor,
    TransformerBlock,
    drop_path_schedule,
    mlp_hidden,
    ops,
    stochastic_depth_mask,
)
from outlooker.attention import _attention_cost
from outlooker.errors import ContractError, ShapeError
from outlooker.oracle import oracle_self_attention, relative_error


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

    def test_mlp_forward_matches_composition(self, rng):
        mlp = Mlp(np.random.default_rng(0), 8, 3.0, dtype=np.float64)
        x = Tensor(rng.standard_normal((5, 8)), dtype=np.float64)
        want = ops.linear(ops.gelu(ops.linear(x, mlp.w1, mlp.b1)), mlp.w2, mlp.b2)
        np.testing.assert_allclose(mlp.forward(x).data, want.data)


class TestStochasticDepth:
    def test_rate_zero_keeps_everything(self, rng):
        mask = stochastic_depth_mask(0.0, 16, rng)
        np.testing.assert_allclose(mask, np.ones(16))

    def test_values_are_zero_or_rescaled(self, rng):
        rate = 0.3
        mask = stochastic_depth_mask(rate, 4000, rng)
        keep = 1.0 / (1.0 - rate)
        assert set(np.round(np.unique(mask), 10)) <= {0.0, round(keep, 10)}
        assert abs(mask.mean() - 1.0) < 0.05

    def test_rate_one_rejected(self, rng):
        with pytest.raises(ContractError):
            stochastic_depth_mask(1.0, 4, rng)

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(ContractError):
            stochastic_depth_mask(0.1, 0, rng)

    def test_schedule_ramps_linearly(self):
        sched = drop_path_schedule(0.3, 4)
        np.testing.assert_allclose(sched, [0.0, 0.1, 0.2, 0.3])
        assert drop_path_schedule(0.5, 1) == [0.0]
        assert drop_path_schedule(0.0, 3) == [0.0, 0.0, 0.0]
        assert drop_path_schedule(0.5, 0) == []


class TestLayerNormModule:
    def test_matches_op(self, rng):
        norm = LayerNorm(6, dtype=np.float64)
        x = Tensor(rng.standard_normal((4, 6)), dtype=np.float64)
        want = ops.layer_norm(x, norm.gamma, norm.beta)
        np.testing.assert_allclose(norm(x).data, want.data)


@pytest.mark.parametrize(
    "build,shape",
    [
        (lambda rng: OutlookerBlock(rng, 8, 2, 3, 2, 3.0), (6, 6, 8)),
        (lambda rng: ResidualBlock(LocalSelfAttention(rng, 8, 2, 3, dtype=np.float32), rng, 8,
                                   3.0, 0.0, np.float32), (6, 6, 8)),
        (lambda rng: ResidualBlock(Conv2d(rng, 3, 8, 8, dtype=np.float32), rng, 8, 3.0, 0.0,
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
        a = block.forward(x, training=False).data
        b = block.forward(x, training=False).data
        np.testing.assert_array_equal(a, b)


class TestDropPathPlumbing:
    def test_training_with_rate_requires_rng(self, rng):
        block = TransformerBlock(np.random.default_rng(0), 8, 2, 3.0, drop_path=0.5)
        x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        with pytest.raises(ContractError):
            block.forward(x, training=True)

    def test_dropped_branches_leave_identity(self, rng):
        # rate ~ 1 - eps: both branches almost surely dropped
        block = TransformerBlock(np.random.default_rng(0), 8, 2, 3.0, drop_path=1.0 - 1e-9)
        x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        out = block.forward(x, training=True, rng=np.random.default_rng(1))
        np.testing.assert_allclose(out.data, x.data)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ContractError):
            TransformerBlock(np.random.default_rng(0), 8, 2, 3.0, drop_path=1.0)


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

    def test_records_twenty_five_nodes(self, rng):
        # concat, norm, narrow, the 16 attention nodes, residual add, norm,
        # the 3 MLP nodes and the MLP residual add
        block = ClassAttentionBlock(np.random.default_rng(0), 12, 3, 3.0)
        cls_token = Tensor(rng.standard_normal((2, 1, 12)), dtype=np.float32, requires_grad=True)
        patches = Tensor(rng.standard_normal((2, 7, 12)), dtype=np.float32, requires_grad=True)
        with Tape() as tape:
            block.forward(cls_token, patches)
            assert len(tape) == 25

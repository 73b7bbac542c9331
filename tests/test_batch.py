"""The batch axis: layers and blocks on (B, ...) inputs, per-sample drop path."""

import numpy as np
import pytest

from outlooker import (
    ClassAttentionBlock,
    Conv2d,
    LocalSelfAttention,
    OutlookAttention,
    OutlookerBlock,
    SelfAttention,
    Tensor,
    TransformerBlock,
    ops,
)
from outlooker.oracle import relative_error

BATCH = 3

# kind → (builder, per-sample input shape); every layer is float64
LAYERS = {
    "oa": (lambda rng: OutlookAttention(rng, 8, 2, 3, dtype=np.float64), (5, 6, 8)),
    "oa-s2": (lambda rng: OutlookAttention(rng, 8, 2, 3, stride=2, dtype=np.float64), (5, 6, 8)),
    "lsa": (lambda rng: LocalSelfAttention(rng, 8, 2, 3, dtype=np.float64), (5, 6, 8)),
    "sa": (lambda rng: SelfAttention(rng, 8, 2, dtype=np.float64), (7, 8)),
    "conv": (lambda rng: Conv2d(rng, 3, 8, 12, dtype=np.float64), (5, 6, 8)),
    "oblock": (lambda rng: OutlookerBlock(rng, 8, 2, 3, 2, 3.0, dtype=np.float64), (5, 6, 8)),
    "tblock": (lambda rng: TransformerBlock(rng, 8, 2, 3.0, dtype=np.float64), (7, 8)),
}


def _randomize(layer, rng):
    # random biases and norm affines, so every parameter reaches the output
    for _, p in layer.named_params():
        p.data[...] = rng.standard_normal(p.shape) * 0.5


@pytest.mark.parametrize("kind", sorted(LAYERS))
def test_batched_forward_equals_stacked_samples(kind, rng):
    build, shape = LAYERS[kind]
    layer = build(np.random.default_rng(0))
    _randomize(layer, rng)
    x = rng.standard_normal((BATCH, *shape))
    got = layer.forward(Tensor(x, dtype=np.float64)).data
    want = np.stack([layer.forward(Tensor(x[i], dtype=np.float64)).data for i in range(BATCH)])
    assert got.shape == want.shape
    assert relative_error(got, want) <= 1e-12


def test_batched_class_attention_equals_stacked_samples(rng):
    block = ClassAttentionBlock(np.random.default_rng(0), 8, 2, 3.0, dtype=np.float64)
    _randomize(block, rng)
    cls_token = rng.standard_normal((BATCH, 1, 8))
    patches = rng.standard_normal((BATCH, 9, 8))
    got = block.forward(Tensor(cls_token, dtype=np.float64),
                        Tensor(patches, dtype=np.float64)).data
    want = np.stack([block.forward(Tensor(cls_token[i], dtype=np.float64),
                                   Tensor(patches[i], dtype=np.float64)).data
                     for i in range(BATCH)])
    assert got.shape == (BATCH, 1, 8)
    assert relative_error(got, want) <= 1e-12


def test_identical_samples_get_independent_drop_path_masks(rng):
    # 16 copies of one sample at rate 0.5: each row must be one of the four
    # keep/drop outcomes of the two branches, and the rows must not all agree
    block = TransformerBlock(np.random.default_rng(0), 8, 2, 3.0, drop_path=0.5,
                             dtype=np.float64)
    _randomize(block, rng)
    sample = Tensor(rng.standard_normal((5, 8)), dtype=np.float64)
    x = Tensor(np.repeat(sample.data[None], 16, axis=0), dtype=np.float64)
    out = block.forward(x, training=True, rng=np.random.default_rng(3)).data

    outcomes = []
    for keep_mix in (0.0, 2.0):
        y = ops.add(sample, ops.scale(block.mixer(block.norm1(sample)), keep_mix))
        for keep_mlp in (0.0, 2.0):
            outcomes.append(ops.add(y, ops.scale(block.mlp(block.norm2(y)), keep_mlp)).data)
    picked = [next(i for i, want in enumerate(outcomes) if np.allclose(row, want, atol=1e-12))
              for row in out]
    assert len(set(picked)) > 1

"""Two-stage image classifiers: config, presets, builder, and accounting.

Pipeline (channels-last throughout, one batched pass over B images):

  images (B, S, S, 3)
    → stem: conv7×7/2, two conv3×3 (each LN+GELU), 4×4 patch projection → (B, S/8, S/8, C1)
    → stage 1: outlook-attention blocks (or local-attention / conv swaps)
    → 2×2 patch downsample → (B, S/16, S/16, C2) → flat (B, L, C2) + position table
    → stage 2: transformer blocks over the flat token lists
    → class token (B, 1, C2) updated by class-attention blocks → LayerNorm
    → linear head → logits (B, classes).

``count_params_config`` and ``analytic_madds`` account for the architecture
symbolically (no allocation): both sum one parts list, ``_parts``, priced by
the layer kinds' closed forms in ``attention``.  ``count_params`` counts an
instantiated model and matches the symbolic number exactly.
"""

from __future__ import annotations

import json
import typing
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import ops
from .attention import (Conv2d, CostQuery, Module, _attention_cost, _conv_cost, _cost, _oa_cost,
                        _param, _zeros, build_layer)
from .blocks import (
    ClassAttentionBlock,
    LayerNorm,
    Mlp,
    OutlookerBlock,
    ResidualBlock,
    TransformerBlock,
    check_drop_rate,
    drop_path_schedule,
    mlp_hidden,
)
from .errors import ContractError, ShapeError
from .tensor import Tensor
from .windows import WindowGeometry, check_heads, check_window

STAGE1_KINDS = ("outlook", "lsa", "conv")
STEM_HIDDEN = 64
STEM_PATCH = 4   # after the stride-2 conv, so the stem reduces the image 2·4 = 8×
DOWNSAMPLE = 2   # patch merge between the stages, so stage 2 sees the image 16× reduced


def _grids(size: int) -> tuple[int, int]:
    """Stage-1 and stage-2 grid sides of an S×S image: S/8 and S/16."""
    if size <= 0 or size % (2 * STEM_PATCH * DOWNSAMPLE) != 0:
        raise ShapeError(
            f"image size must be a positive multiple of 16 (8× patching then 2× downsample), "
            f"got {size}"
        )
    stage1 = size // (2 * STEM_PATCH)
    return stage1, stage1 // DOWNSAMPLE


@dataclass
class ModelConfig:
    """One architecture: stage widths/depths/heads plus training knobs."""

    image_size: int = 224
    num_classes: int = 1000
    stage1_dim: int = 192
    stage2_dim: int = 384
    num_outlookers: int = 4
    num_transformers: int = 14
    outlooker_heads: int = 6
    transformer_heads: int = 12
    kernel: int = 3
    stride: int = 2
    outlooker_mlp_ratio: float = 3.0
    transformer_mlp_ratio: float = 3.0
    num_class_blocks: int = 2
    drop_path_rate: float = 0.0
    stage1_kind: str = "outlook"

    def __post_init__(self):
        # each value must have its field's annotated type (an int passes as a
        # float); bool is an int subclass but never a count or a rate
        for f in fields(self):
            value, want = getattr(self, f.name), _FIELD_TYPES[f.name]
            allowed = (int, float) if want is float else want
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ContractError(f"{f.name} must be {want.__name__}, got {value!r}")
        if self.stage1_kind not in STAGE1_KINDS:
            raise ContractError(
                f"stage1_kind {self.stage1_kind!r} not one of {STAGE1_KINDS}"
            )
        for name, least in (("num_classes", 1), ("stage1_dim", 1), ("stage2_dim", 1),
                            ("num_outlookers", 0), ("num_transformers", 0),
                            ("num_class_blocks", 0)):
            if getattr(self, name) < least:
                raise ContractError(f"{name} must be >= {least}, got {getattr(self, name)}")
        _grids(self.image_size)   # rejects a size the stem and downsample cannot tile
        # the rules the layers enforce, checked before anything is priced or built
        check_window(self.kernel, self.stride)
        check_heads(self.stage1_dim, self.outlooker_heads)
        check_heads(self.stage2_dim, self.transformer_heads)
        mlp_hidden(self.stage1_dim, self.outlooker_mlp_ratio)
        mlp_hidden(self.stage2_dim, self.transformer_mlp_ratio)
        check_drop_rate(self.drop_path_rate)
        if self.stage1_dim * 2 != self.stage2_dim:
            warnings.warn(
                f"stage2_dim {self.stage2_dim} is not twice stage1_dim {self.stage1_dim}",
                stacklevel=2,
            )

    @property
    def stage1_grid(self) -> int:
        return _grids(self.image_size)[0]

    @property
    def stage2_grid(self) -> int:
        return _grids(self.image_size)[1]

    @property
    def total_layers(self) -> int:
        return self.num_outlookers + self.num_transformers

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ContractError("config JSON must be an object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ContractError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)


_FIELD_TYPES = typing.get_type_hints(ModelConfig)

PRESETS: dict[str, ModelConfig] = {
    "d1": ModelConfig(stage1_dim=192, stage2_dim=384, num_outlookers=4, num_transformers=14,
                      outlooker_heads=6, transformer_heads=12, outlooker_mlp_ratio=3.0,
                      transformer_mlp_ratio=3.0, drop_path_rate=0.1),
    "d2": ModelConfig(stage1_dim=256, stage2_dim=512, num_outlookers=6, num_transformers=18,
                      outlooker_heads=8, transformer_heads=16, outlooker_mlp_ratio=3.0,
                      transformer_mlp_ratio=3.0, drop_path_rate=0.2),
    "d3": ModelConfig(stage1_dim=256, stage2_dim=512, num_outlookers=8, num_transformers=28,
                      outlooker_heads=8, transformer_heads=16, outlooker_mlp_ratio=3.0,
                      transformer_mlp_ratio=3.0, drop_path_rate=0.5),
    "d4": ModelConfig(stage1_dim=384, stage2_dim=768, num_outlookers=8, num_transformers=28,
                      outlooker_heads=12, transformer_heads=16, outlooker_mlp_ratio=3.0,
                      transformer_mlp_ratio=3.0, drop_path_rate=0.5),
    "d5": ModelConfig(stage1_dim=384, stage2_dim=768, num_outlookers=12, num_transformers=36,
                      outlooker_heads=12, transformer_heads=16, outlooker_mlp_ratio=4.0,
                      transformer_mlp_ratio=4.0, drop_path_rate=0.75),
    "tiny": ModelConfig(image_size=32, num_classes=10, stage1_dim=16, stage2_dim=32,
                        num_outlookers=2, num_transformers=2, outlooker_heads=2,
                        transformer_heads=4, outlooker_mlp_ratio=3.0, transformer_mlp_ratio=3.0,
                        drop_path_rate=0.1),
}

# Published budgets for the d-presets: parameter counts within ±2%; multiply-adds
# at 224² within ±10% (d1, d2) and ±15% (d3-d5).
REFERENCE_PARAMS = {"d1": 26.6e6, "d2": 58.7e6, "d3": 86.3e6, "d4": 193e6, "d5": 296e6}
REFERENCE_MADDS = {"d1": 6.8e9, "d2": 14.1e9, "d3": 20.6e9, "d4": 43.8e9, "d5": 69.0e9}


class Stem(Module):
    """conv7×7/2 → two conv3×3 (LN+GELU after each conv) → 4×4 patch projection."""

    def __init__(self, rng, out_dim: int, dtype=np.float32):
        hidden = STEM_HIDDEN
        self.conv1 = Conv2d(rng, 7, 3, hidden, stride=2, dtype=dtype)
        self.norm1 = LayerNorm(hidden, dtype=dtype)
        self.conv2 = Conv2d(rng, 3, hidden, hidden, dtype=dtype)
        self.norm2 = LayerNorm(hidden, dtype=dtype)
        self.conv3 = Conv2d(rng, 3, hidden, hidden, dtype=dtype)
        self.norm3 = LayerNorm(hidden, dtype=dtype)
        self.proj_w = _param(rng, (STEM_PATCH ** 2 * hidden, out_dim), dtype)
        self.proj_b = _zeros(out_dim, dtype)

    def forward(self, x: Tensor) -> Tensor:
        # ``t`` is rebound after every op, so each 112² map is dropped as soon
        # as the next op has read it
        t = x
        for conv, norm in ((self.conv1, self.norm1), (self.conv2, self.norm2),
                           (self.conv3, self.norm3)):
            t = conv(t)
            t = norm(t)
            t = ops.gelu(t)
        t = patchify(t, STEM_PATCH)
        return ops.linear(t, self.proj_w, self.proj_b)

    __call__ = forward


def patchify(t: Tensor, patch: int) -> Tensor:
    """(B, H, W, C) → (B, H/p, W/p, p²·C) by non-overlapping row-major tiling.

    Any number of leading axes (including none) carries through.
    """
    *lead, height, width, channels = t.shape
    if height % patch or width % patch:
        raise ShapeError(f"map {height}x{width} not divisible by patch {patch}")
    n = len(lead)
    t = ops.reshape(t, (*lead, height // patch, patch, width // patch, patch, channels))
    t = ops.permute(t, (*range(n), n, n + 2, n + 1, n + 3, n + 4))
    return ops.reshape(t, (*lead, height // patch, width // patch, patch * patch * channels))


def _stage1_block(rng, config: ModelConfig, rate: float, dtype):
    c1, heads, ratio = config.stage1_dim, config.outlooker_heads, config.outlooker_mlp_ratio
    if config.stage1_kind == "outlook":
        return OutlookerBlock(rng, c1, heads, config.kernel, config.stride, ratio, rate, dtype)
    g1 = config.stage1_grid
    mixer = build_layer(config.stage1_kind, CostQuery(g1, g1, c1, config.kernel, heads), rng, dtype)
    return ResidualBlock(mixer, rng, c1, ratio, rate, dtype)


class TwoStageModel(Module):
    """Image classifier built from a ModelConfig (see module docstring)."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        c1, c2 = config.stage1_dim, config.stage2_dim
        rates = drop_path_schedule(config.drop_path_rate, config.total_layers)

        self.stem = Stem(rng, c1, dtype=dtype)
        self.stage1 = [
            _stage1_block(rng, config, rates[i], dtype) for i in range(config.num_outlookers)
        ]
        self.down_w = _param(rng, (DOWNSAMPLE ** 2 * c1, c2), dtype)
        self.down_b = _zeros(c2, dtype)
        grid2 = config.stage2_grid
        self.pos_embed = _param(rng, (grid2 * grid2, c2), dtype)
        self.stage2 = [
            TransformerBlock(rng, c2, config.transformer_heads, config.transformer_mlp_ratio,
                             rates[config.num_outlookers + i], dtype=dtype)
            for i in range(config.num_transformers)
        ]
        self.cls_token = _param(rng, (1, c2), dtype)
        self.class_blocks = [
            ClassAttentionBlock(rng, c2, config.transformer_heads,
                                config.transformer_mlp_ratio, dtype=dtype)
            for _ in range(config.num_class_blocks)
        ]
        self.final_norm = LayerNorm(c2, dtype=dtype)
        self.head_w = _param(rng, (c2, config.num_classes), dtype)
        self.head_b = _zeros(config.num_classes, dtype)

    def forward(self, images, training: bool = False, rng=None) -> Tensor:
        """(B, S, S, 3) images (Tensor or ndarray) → (B, num_classes) logits.

        The whole batch runs through one forward.  Raises ``ShapeError`` for
        a batch of 0 or any other resolution (the position table is not
        interpolated) and ``ContractError`` when an image holds NaN or ±inf.
        """
        if not isinstance(images, Tensor):
            images = Tensor(np.asarray(images), dtype=self.dtype)
        size = self.config.image_size
        if images.ndim != 4 or images.shape[1:] != (size, size, 3):
            raise ShapeError(
                f"expected (B, {size}, {size}, 3) images (the config's resolution; "
                f"position table is not interpolated), got {images.shape}"
            )
        if images.shape[0] == 0:
            raise ShapeError("expected at least one image, got a batch of 0")
        if not np.isfinite(images.data).all():
            raise ContractError("images contain NaN or infinite values")
        batch = images.shape[0]
        t = self.stem(images)
        for blk in self.stage1:
            t = blk.forward(t, training=training, rng=rng)
        t = ops.linear(patchify(t, DOWNSAMPLE), self.down_w, self.down_b)
        t = ops.reshape(t, (batch, self.config.stage2_grid ** 2, self.config.stage2_dim))
        t = ops.add(t, ops.expand(self.pos_embed, batch))
        for blk in self.stage2:
            t = blk.forward(t, training=training, rng=rng)
        cls = ops.expand(self.cls_token, batch)
        for blk in self.class_blocks:
            cls = blk.forward(cls, t)
        logits = ops.linear(self.final_norm(cls), self.head_w, self.head_b)
        return ops.reshape(logits, (batch, self.config.num_classes))

    __call__ = forward


def build_model(config: ModelConfig, seed: int = 0, dtype=np.float32) -> TwoStageModel:
    """Deterministically initialize a model from a config and seed."""
    return TwoStageModel(config, np.random.default_rng(seed), dtype=dtype)


def count_params(model: TwoStageModel) -> int:
    """Exact number of learnable scalars in an instantiated model."""
    return sum(p.size for p in model.parameters())


# ---------------------------------------------------------------------------
# symbolic accounting (no allocation)


def _block(channels: int, mixer: tuple[int, int], hidden: int, tokens: int) -> tuple[int, int]:
    """(params, madds) of a residual pair: two norms, ``mixer``, an MLP over ``tokens``."""
    up, down = _conv_cost(tokens, 1, channels, hidden), _conv_cost(tokens, 1, hidden, channels)
    return 4 * channels + mixer[0] + up[0] + down[0], mixer[1] + up[1] + down[1]


def _parts(config: ModelConfig, size: int) -> list[tuple[int, int, int]]:
    """(copies, params, madds) of each part of the model at S×S, in forward order.

    Each layer is priced by its kind's closed form from ``attention``: the conv
    form for the stem convs on the S/2 grid and, at K = 1, for every linear;
    ``_cost`` for a stage-1 swap, which ``build_layer`` builds; outlook attention
    at its stride-adjusted window count; the attention form over L tokens, and
    with one query for class attention, whose MLP runs over that one token.
    Norms, the position table and the class token add parameters only.
    """
    g1, g2 = _grids(size)
    hw1, length, half = g1 * g1, g2 * g2, (size // 2) ** 2
    c1, c2, k, heads = config.stage1_dim, config.stage2_dim, config.kernel, config.outlooker_heads
    if config.stage1_kind == "outlook":
        mixer = _oa_cost(hw1, WindowGeometry(g1, g1, k, config.stride).windows, c1, heads, k)
    else:
        mixer = _cost(CostQuery(g1, g1, c1, k, heads), config.stage1_kind)
    hidden1 = mlp_hidden(c1, config.outlooker_mlp_ratio)
    hidden2 = mlp_hidden(c2, config.transformer_mlp_ratio)
    return [
        (1, *_conv_cost(half, 7, 3, STEM_HIDDEN)),
        (2, *_conv_cost(half, 3, STEM_HIDDEN, STEM_HIDDEN)),
        (3, 2 * STEM_HIDDEN, 0),                                            # stem norms
        (1, *_conv_cost(hw1, 1, STEM_PATCH ** 2 * STEM_HIDDEN, c1)),       # stem projection
        (config.num_outlookers, *_block(c1, mixer, hidden1, hw1)),
        (1, *_conv_cost(length, 1, DOWNSAMPLE ** 2 * c1, c2)),             # downsample
        (1, length * c2, 0),                                                # position table
        (config.num_transformers,
         *_block(c2, _attention_cost(length, length, length, c2), hidden2, length)),
        (1, c2, 0),                                                         # class token
        (config.num_class_blocks,
         *_block(c2, _attention_cost(1, length + 1, length + 1, c2), hidden2, 1)),
        (1, 2 * c2, 0),                                                     # final norm
        (1, *_conv_cost(1, 1, c2, config.num_classes)),                     # head
    ]


def count_params_config(config: ModelConfig) -> int:
    """Exact parameter count straight from the config (matches count_params)."""
    return sum(copies * params for copies, params, _ in _parts(config, config.image_size))


def analytic_madds(config: ModelConfig, resolution: int | None = None) -> int:
    """Closed-form multiply-adds of one forward pass at a given resolution.

    Sums the parts list that ``count_params_config`` sums.  Softmax/norm work
    is excluded, exactly as in the instrumented counter.
    """
    size = config.image_size if resolution is None else int(resolution)
    return sum(copies * madds for copies, _, madds in _parts(config, size))

"""Sliding-window attention layers and two-stage image classifiers in numpy.

The package is self-contained: its own tape autodiff (`tensor`, `ops`),
window extract/scatter operators (`windows`), attention layers and a
closed-form cost model (`attention`), residual blocks (`blocks`), full
models with exact parameter accounting (`model`), loop-level references
(`oracle`), verification suites (`checks`), and a toy trainer (`train`).
"""

from .attention import (
    LAYER_KINDS,
    Conv2d,
    CostQuery,
    LocalSelfAttention,
    OutlookAttention,
    SelfAttention,
    build_layer,
    layer_input,
    madds,
    measured_madds,
)
from .blocks import (
    ClassAttentionBlock,
    LayerNorm,
    Mlp,
    OutlookerBlock,
    ResidualBlock,
    TransformerBlock,
    drop_path_masks,
    mlp_hidden,
)
from .checks import GRADCHECK_KINDS, ORACLE_KINDS, gradient_check, oracle_check
from .errors import ContractError, DivergenceError, GeometryError, ShapeError
from .model import (
    PRESETS,
    REFERENCE_MADDS,
    REFERENCE_PARAMS,
    ModelConfig,
    TwoStageModel,
    analytic_madds,
    build_model,
    count_params,
    count_params_config,
    patchify,
)
from .oracle import (
    OracleCase,
    OracleReport,
    finite_diff_grad,
    max_abs_error,
    oracle_conv,
    oracle_fold,
    oracle_local_self_attention,
    oracle_outlook_attention,
    oracle_self_attention,
    oracle_unfold,
    relative_error,
)
from .tensor import MADD_COUNTER, MAddCounter, Tape, Tensor, backward, trunc_normal
from .train import (AdamW, TrainRecord, accuracy, cross_entropy, gen_synthetic, train_step,
                    train_toy)
from .windows import WindowGeometry, fold, fold_array, in_bounds_mask, unfold, unfold_array

__version__ = "0.1.0"

__all__ = [
    "AdamW", "ClassAttentionBlock", "ContractError", "Conv2d", "CostQuery",
    "DivergenceError", "GRADCHECK_KINDS", "GeometryError", "LAYER_KINDS",
    "LayerNorm", "LocalSelfAttention", "MADD_COUNTER", "MAddCounter", "Mlp",
    "ModelConfig", "ORACLE_KINDS", "OracleCase", "OracleReport",
    "OutlookAttention", "OutlookerBlock", "PRESETS", "REFERENCE_MADDS",
    "REFERENCE_PARAMS", "ResidualBlock", "SelfAttention", "ShapeError", "Tape",
    "Tensor", "TrainRecord", "TransformerBlock", "TwoStageModel",
    "WindowGeometry", "accuracy", "analytic_madds", "backward", "build_layer",
    "build_model", "count_params", "count_params_config", "cross_entropy",
    "drop_path_masks", "finite_diff_grad", "fold", "fold_array",
    "gen_synthetic", "gradient_check", "in_bounds_mask", "layer_input", "madds",
    "max_abs_error", "measured_madds", "mlp_hidden", "oracle_check",
    "oracle_conv", "oracle_fold", "oracle_local_self_attention",
    "oracle_outlook_attention", "oracle_self_attention", "oracle_unfold",
    "patchify", "relative_error", "train_step", "train_toy",
    "trunc_normal", "unfold", "unfold_array",
]

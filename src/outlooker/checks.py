"""Verification suites: forward passes against references, gradients against
finite differences.

Both entry points return an :class:`~outlooker.oracle.OracleReport` so the
CLI and the tests share one pass/fail summary format.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .attention import (
    Conv2d,
    CostQuery,
    LocalSelfAttention,
    OutlookAttention,
    SelfAttention,
    build_layer,
    layer_input,
)
from .blocks import ClassAttentionBlock, OutlookerBlock, TransformerBlock
from .errors import ContractError
from .oracle import (
    OracleCase,
    OracleReport,
    finite_diff_grad,
    max_abs_error,
    oracle_conv,
    oracle_local_self_attention,
    oracle_outlook_attention,
    oracle_self_attention,
    relative_error,
)
from .tensor import Tape, Tensor, backward
from .windows import WindowGeometry, fold, unfold

ORACLE_KINDS = ("oa", "oa-s2", "lsa", "sa", "conv")

_ORACLE_FNS = {
    "oa": oracle_outlook_attention,
    "oa-s2": oracle_outlook_attention,
    "lsa": oracle_local_self_attention,
    "sa": oracle_self_attention,
    "conv": oracle_conv,
}


def _random_query(rng: np.random.Generator) -> CostQuery:
    # small on purpose: the references are quadruple loops
    height = int(rng.integers(3, 9))
    width = int(rng.integers(3, 9))
    heads = int(rng.choice([1, 2, 4]))
    per_head = int(rng.choice([2, 4]))
    kernel = int(rng.choice([1, 3, 5]))
    return CostQuery(height, width, heads * per_head, kernel, heads)


def oracle_check(
    seeds_per_kind: int = 20,
    tolerance: float = 1e-6,
    kinds: tuple[str, ...] = ORACLE_KINDS,
) -> OracleReport:
    """Compare every layer kind against its loop-level reference.

    Each (kind, seed) case draws its own geometry (height/width in 3..8,
    channels <= 16, kernel in {1, 3, 5}), builds the layer in float64, and
    checks the full forward output elementwise.  A case is seeded by its
    kind's place in ``ORACLE_KINDS``, so a run over a subset of ``kinds``
    checks the same cases as the full run does for those kinds.
    """
    report = OracleReport(tolerance=tolerance)
    for kind in kinds:
        if kind not in ORACLE_KINDS:
            raise ContractError(f"unknown oracle kind {kind!r}; expected {ORACLE_KINDS}")
        ki = ORACLE_KINDS.index(kind)
        for seed in range(seeds_per_kind):
            rng = np.random.default_rng([ki, seed])
            query = _random_query(rng)
            if kind == "oa-s2":
                layer = OutlookAttention(rng, query.channels, query.heads,
                                         query.kernel, stride=2, dtype=np.float64)
            else:
                layer = build_layer(kind, query, rng, dtype=np.float64)
            x = layer_input(kind, query, rng, dtype=np.float64)
            got = layer.forward(x).data
            want = _ORACLE_FNS[kind](x.data, layer)
            name = (f"{kind} {query.height}x{query.width} "
                    f"C{query.channels} N{query.heads} K{query.kernel}")
            report.add(name, seed, got, want)
    return report


GRADCHECK_KINDS = ("softmax", "log_softmax", "layer_norm", "gelu", "windows",
                   "avg_pool", "oa", "oa-s2", "lsa", "sa", "conv",
                   "oblock", "tblock", "cablock", "conv-s2")


def _gradcheck_setup(kind: str, rng: np.random.Generator):
    """Returns (tensors, rebuild); all tensors differentiated, float64."""

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), dtype=np.float64, requires_grad=True)

    if kind == "softmax":
        x = leaf(3, 5)
        return [x], lambda: ops.softmax(x)
    if kind == "log_softmax":
        x = leaf(3, 5)
        return [x], lambda: ops.log_softmax(x)
    if kind == "layer_norm":
        x, gamma, beta = leaf(4, 6), leaf(6), leaf(6)
        return [x, gamma, beta], lambda: ops.layer_norm(x, gamma, beta)
    if kind == "gelu":
        x = leaf(3, 4)
        return [x], lambda: ops.gelu(x)
    # window ops, layers and blocks run on a leading batch of two
    if kind == "windows":
        geom = WindowGeometry(5, 4, 3, stride=2)
        x = leaf(2, 5, 4, 3)
        return [x], lambda: fold(unfold(x, geom), geom)
    if kind == "avg_pool":
        x = leaf(2, 5, 6, 3)
        return [x], lambda: ops.avg_pool(x, 2)

    if kind == "cablock":
        layer = ClassAttentionBlock(rng, 4, 2, 3.0, dtype=np.float64)
        cls_token, patches = leaf(2, 1, 4), leaf(2, 5, 4)
        return ([cls_token, patches] + layer.parameters(),
                lambda: layer.forward(cls_token, patches))

    if kind == "oa":
        layer, shape = OutlookAttention(rng, 4, 2, 3, dtype=np.float64), (3, 3, 4)
    elif kind == "oa-s2":
        layer, shape = OutlookAttention(rng, 4, 2, 3, stride=2, dtype=np.float64), (4, 3, 4)
    elif kind == "lsa":
        layer, shape = LocalSelfAttention(rng, 4, 2, 3, dtype=np.float64), (3, 3, 4)
    elif kind == "sa":
        layer, shape = SelfAttention(rng, 4, 2, dtype=np.float64), (6, 4)
    elif kind == "conv":
        layer, shape = Conv2d(rng, 3, 3, 4, dtype=np.float64), (3, 3, 3)
    elif kind == "conv-s2":
        layer, shape = Conv2d(rng, 3, 3, 4, stride=2, dtype=np.float64), (4, 3, 3)
    elif kind == "oblock":
        layer, shape = OutlookerBlock(rng, 4, 2, 3, 1, 3.0, dtype=np.float64), (3, 3, 4)
    else:   # "tblock"
        layer, shape = TransformerBlock(rng, 4, 2, 3.0, dtype=np.float64), (6, 4)
    x = leaf(2, *shape)
    return [x] + layer.parameters(), lambda: layer.forward(x)


def gradient_check(
    seeds_per_kind: int = 10,
    tolerance: float = 1e-4,
    kinds: tuple[str, ...] = GRADCHECK_KINDS,
) -> OracleReport:
    """Check tape gradients of every op and layer kind by central differences.

    The probe loss is sum(output · fixed random weights), so every output
    coordinate influences the scalar with a distinct sensitivity.  Relative
    errors use a 1e-5 denominator floor: central differences of an O(1)-O(10)
    loss at h=1e-5 carry roundoff and truncation noise up to ~1e-9 absolute,
    so coordinates below the floor are effectively compared absolutely at
    the 1e-9 scale (floor × tolerance) instead of drowning in that noise.
    Cases are seeded by kind, as in ``oracle_check``.
    """
    report = OracleReport(tolerance=tolerance)
    for kind in kinds:
        if kind not in GRADCHECK_KINDS:
            raise ContractError(f"unknown gradcheck kind {kind!r}; expected {GRADCHECK_KINDS}")
        ki = GRADCHECK_KINDS.index(kind)
        for seed in range(seeds_per_kind):
            rng = np.random.default_rng([97 + ki, seed])
            tensors, rebuild = _gradcheck_setup(kind, rng)
            base = [t.data.copy() for t in tensors]
            probe = rng.standard_normal(rebuild().shape)

            def f(arrays, _tensors=tensors, _rebuild=rebuild, _probe=probe):
                for t, a in zip(_tensors, arrays):
                    t.data[...] = a
                return float(np.sum(_rebuild().data * _probe))

            numeric = finite_diff_grad(f, base)

            for t, a in zip(tensors, base):
                t.data[...] = a
            with Tape() as tape:
                loss = ops.sum_all(ops.mul(rebuild(), Tensor(probe, dtype=np.float64)))
                grads = backward(loss, tape)
            analytic = [grads.get(t, np.zeros_like(t.data)) for t in tensors]

            rel = max(relative_error(a, n, eps=1e-5)
                      for a, n in zip(analytic, numeric))
            abse = max(max_abs_error(a, n) for a, n in zip(analytic, numeric))
            report.add_case(OracleCase(kind, seed, abse, rel, rel <= tolerance))
    return report

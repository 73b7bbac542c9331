"""Acceptance gate: ten verifiable claims, each against a pinned tolerance.

Every test registers a one-line verdict with the ``acceptance`` fixture so
the run ends with a printed pass/fail table regardless of which tests fail.

Criterion 10 compares the instrumented counter with the closed-form layer
costs. Outlook attention applies K²×K² attention maps to K²-slot windows,
HW·K⁴·C multiply-adds, and its closed form books exactly that; a form that
counted the aggregation as one K²·C sweep per location would fall short by
HW·C·(K⁴ - K²), +8.19% at 28×28, C=192, N=6, K=3, and fail the 5% bar.
All three attention kinds agree with their formulas exactly.
"""

import dataclasses
import json
import time

import numpy as np
from click.testing import CliRunner

from outlooker import (
    PRESETS,
    CostQuery,
    Tensor,
    WindowGeometry,
    build_layer,
    build_model,
    count_params_config,
    fold_array,
    gradient_check,
    layer_input,
    madds,
    measured_madds,
    oracle_check,
    train_toy,
    unfold_array,
)
from outlooker.checks import GRADCHECK_KINDS
from outlooker.cli import main

PARAM_TARGETS = {"d1": 26.6e6, "d2": 58.7e6, "d3": 86.3e6, "d4": 193e6, "d5": 296e6}
MADD_TARGETS = {"d1": 6.8e9, "d2": 14.1e9, "d3": 20.6e9, "d4": 43.8e9, "d5": 69.0e9}
MADD_TOLERANCE = {"d1": 0.10, "d2": 0.10, "d3": 0.15, "d4": 0.15, "d5": 0.15}

# the published layout, restated here so the presets are checked against an
# independent copy rather than against the module's own constants
LAYOUTS = {
    "d1": (192, 384, 4, 14, 6, 12, 3.0, 3.0, 0.1),
    "d2": (256, 512, 6, 18, 8, 16, 3.0, 3.0, 0.2),
    "d3": (256, 512, 8, 28, 8, 16, 3.0, 3.0, 0.5),
    "d4": (384, 768, 8, 28, 12, 16, 3.0, 3.0, 0.5),
    "d5": (384, 768, 12, 36, 12, 16, 4.0, 4.0, 0.75),
}
LAYOUT_FIELDS = (
    "stage1_dim", "stage2_dim", "num_outlookers", "num_transformers",
    "outlooker_heads", "transformer_heads", "outlooker_mlp_ratio",
    "transformer_mlp_ratio", "drop_path_rate",
)
TOTAL_LAYERS = {"d1": 18, "d2": 24, "d3": 36, "d4": 36, "d5": 48}


def _inspect_json(name: str) -> dict:
    result = CliRunner().invoke(main, ["inspect", "--config", name, "--json"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_c01_parameter_budgets(acceptance):
    start = time.perf_counter()
    deviations = {}
    for name, target in PARAM_TARGETS.items():
        params = _inspect_json(name)["params"]
        deviations[name] = params / target - 1.0
    elapsed = time.perf_counter() - start
    worst = max(deviations.items(), key=lambda kv: abs(kv[1]))
    detail = (f"worst {worst[0]} {worst[1]:+.2%} (bar 2%), "
              f"all sizes in {elapsed:.1f}s (bar 10s)")
    ok = acceptance(1, "parameter budgets d1-d5",
                    max(abs(v) for v in deviations.values()) <= 0.02 and elapsed < 10.0,
                    detail)
    assert ok, detail


def test_c02_madd_budgets(acceptance):
    deviations = {}
    for name, target in MADD_TARGETS.items():
        blob = _inspect_json(name)
        assert blob["madds_resolution"] == 224
        deviations[name] = blob["madds"] / target - 1.0
    passed = all(abs(deviations[n]) <= MADD_TOLERANCE[n] for n in deviations)
    detail = ", ".join(f"{n} {d:+.2%}" for n, d in deviations.items())
    ok = acceptance(2, "multiply-add budgets at 224", passed,
                    detail + " (bars 10/10/15/15/15%)")
    assert ok, detail


def test_c03_cost_formulas(acceptance):
    rng = np.random.default_rng(7)
    mismatches = []
    for _ in range(20):
        h = int(rng.integers(2, 16))
        w = int(rng.integers(2, 16))
        c = int(rng.choice([16, 64, 192, 384]))
        k = int(rng.choice([1, 3, 5]))
        n = int(rng.choice([1, 2, 6, 12]))
        query = CostQuery(h, w, c, k, n)
        # the four closed forms, restated with bare arithmetic
        expected = {
            "sa": 4 * h * w * c * c + 2 * (h * w) ** 2 * c,
            "lsa": 4 * h * w * c * c + 2 * h * w * k * k * c,
            "oa": h * w * c * (2 * c + n * k ** 4) + h * w * k ** 4 * c,
            "conv": h * w * k * k * c * c,
        }
        for kind, want in expected.items():
            if madds(query, kind) != want:
                mismatches.append((kind, h, w, c, k, n))
    crossover_ok = all(
        madds(CostQuery(h, w, 384, 3, 6), "oa") < madds(CostQuery(h, w, 384, 3, 6), "lsa")
        for h, w in [(7, 9), (14, 14), (28, 28), (56, 56), (17, 31), (112, 112)]
    )
    detail = (f"{20 * 4 - len(mismatches)}/80 closed forms exact, "
              f"oa<lsa at C=384 K=3: {crossover_ok}")
    ok = acceptance(3, "cost formula fidelity", not mismatches and crossover_ok, detail)
    assert ok, detail


def test_c04_oracle_equivalence(acceptance):
    start = time.perf_counter()
    report = oracle_check(seeds_per_kind=100, tolerance=1e-6)
    elapsed = time.perf_counter() - start
    detail = (f"{len(report.cases)} cases, max rel err {report.max_rel_err:.2e} "
              f"(bar 1e-6), {elapsed:.1f}s (bar 60s)")
    ok = acceptance(4, "brute-force oracle equivalence",
                    report.passed and len(report.cases) >= 500 and elapsed < 60.0,
                    detail)
    assert ok, detail


def test_c05_gradient_correctness(acceptance):
    start = time.perf_counter()
    report = gradient_check(seeds_per_kind=10, tolerance=1e-4)
    elapsed = time.perf_counter() - start
    detail = (f"{len(GRADCHECK_KINDS)} kinds x 10 seeds, max rel err "
              f"{report.max_rel_err:.2e} (bar 1e-4), {elapsed:.0f}s (bar 300s)")
    ok = acceptance(5, "finite-difference gradients", report.passed and elapsed < 300.0,
                    detail)
    assert ok, detail


def test_c06_window_adjointness(acceptance):
    rng = np.random.default_rng(11)
    geoms = [WindowGeometry(28, 28, 3, 2)]
    for _ in range(30):
        kernel = int(rng.choice([1, 3, 5]))
        geoms.append(WindowGeometry(
            int(rng.integers(5, 21)), int(rng.integers(5, 21)),
            kernel, int(rng.choice([1, 2, 3])),
        ))
    worst = 0.0
    for geom in geoms:
        x = rng.standard_normal((geom.height, geom.width, 4))
        y = rng.standard_normal((geom.windows, 1, geom.kernel ** 2, 4))
        lhs = float(np.sum(unfold_array(x, geom) * y))
        rhs = float(np.sum(x * fold_array(y, geom)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    detail = f"{len(geoms)} geometries, worst residual {worst:.2e} (bar 1e-10)"
    ok = acceptance(6, "unfold/fold adjointness", worst <= 1e-10, detail)
    assert ok, detail


def test_c07_architecture_fidelity(acceptance):
    bad = []
    for name, cells in LAYOUTS.items():
        config = PRESETS[name]
        for field, want in zip(LAYOUT_FIELDS, cells):
            if getattr(config, field) != want:
                bad.append(f"{name}.{field}")
        if config.total_layers != TOTAL_LAYERS[name]:
            bad.append(f"{name}.total_layers")
        if (config.kernel, config.stride) != (3, 2):
            bad.append(f"{name}.kernel/stride")
    detail = "all preset cells match" if not bad else "mismatch: " + ", ".join(bad)
    ok = acceptance(7, "preset layout fidelity", not bad, detail)
    assert ok, detail


def test_c08_stage1_swaps(acceptance):
    rng = np.random.default_rng(0)
    params = {}
    ran = {}
    for kind in ("outlook", "lsa", "conv"):
        config = dataclasses.replace(PRESETS["d1"], stage1_kind=kind)
        params[kind] = count_params_config(config)
        model = build_model(config, seed=0)
        image = rng.standard_normal((1, 224, 224, 3)).astype(np.float32)
        logits = model.forward(Tensor(image, dtype=np.float32))
        ran[kind] = logits.shape == (1, 1000) and bool(np.isfinite(logits.data).all())
        del model
    values = sorted(params.values())
    spread = values[-1] / values[0] - 1.0
    passed = all(ran.values()) and spread <= 0.05
    detail = (", ".join(f"{k} {v:,}" for k, v in params.items())
              + f"; spread {spread:+.2%} (bar 5%), all forward passes finite")
    ok = acceptance(8, "stage-1 mixer swaps at d1 scale", passed, detail)
    assert ok, detail


def test_c09_toy_training(acceptance):
    start = time.perf_counter()
    first = train_toy(steps=500, seed=0)
    second = train_toy(steps=500, seed=0)
    elapsed = time.perf_counter() - start
    finite = all(np.isfinite(first.losses)) and all(np.isfinite(second.losses))
    passed = (first.train_accuracy >= 0.90 and second.train_accuracy >= 0.90
              and finite and first.losses == second.losses and elapsed < 300.0)
    detail = (f"accuracy {first.train_accuracy:.3f} (bar 0.90), final loss "
              f"{first.final_loss:.4f}, two identical runs in {elapsed:.0f}s (bar 300s)")
    ok = acceptance(9, "toy training determinism", passed, detail)
    assert ok, detail


def test_c10_measured_vs_analytic(acceptance):
    rng = np.random.default_rng(0)
    query = CostQuery(28, 28, 192, kernel=3, heads=6)
    deviations = {}
    for kind in ("sa", "lsa", "oa"):
        layer = build_layer(kind, query, rng)
        measured = measured_madds(layer, layer_input(kind, query, rng))
        deviations[kind] = measured / madds(query, kind) - 1.0
    worst = max(abs(v) for v in deviations.values())
    gap = 28 * 28 * 192 * (3 ** 4 - 3 ** 2)
    detail = (", ".join(f"{k} {v:+.4%}" for k, v in deviations.items())
              + f" (bar 5%); oa applies K^2xK^2 maps to K^2-slot windows, "
              f"HW*C*(K^4-K^2) = {gap:,} multiply-adds a K^2*C sweep would omit")
    ok = acceptance(10, "measured vs analytic layer cost", worst <= 0.05, detail)
    assert ok, detail

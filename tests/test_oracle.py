"""The reference implementations and the report/check machinery itself."""

import inspect
import json

import numpy as np
import pytest

from outlooker import (
    GRADCHECK_KINDS,
    ORACLE_KINDS,
    OracleCase,
    OracleReport,
    WindowGeometry,
    backward,
    finite_diff_grad,
    fold_array,
    gradient_check,
    max_abs_error,
    oracle_check,
    oracle_fold,
    oracle_unfold,
    relative_error,
    unfold_array,
)
from outlooker import checks
from outlooker import oracle as oracle_module
from outlooker.errors import ContractError


class TestOracleIndependence:
    def test_no_imports_from_implementation_modules(self):
        # the references earn their authority by sharing nothing with the
        # code under test beyond layer hyperparameters and raw arrays
        source = inspect.getsource(oracle_module)
        for banned in ("from .ops", "from .windows", "from .attention",
                       "from .blocks", "from .model", "from .tensor",
                       "from .checks", "from .train"):
            assert banned not in source, banned


class TestWindowOracles:
    @pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (3, 2), (5, 2), (5, 3)])
    def test_unfold_matches_vectorized(self, kernel, stride, rng):
        height, width = 7, 6
        geom = WindowGeometry(height, width, kernel, stride)
        x = rng.standard_normal((height, width, 3))
        np.testing.assert_allclose(
            oracle_unfold(x, kernel, stride)[:, None], unfold_array(x, geom)
        )

    @pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (3, 2), (5, 2)])
    def test_fold_matches_vectorized(self, kernel, stride, rng):
        height, width = 7, 6
        geom = WindowGeometry(height, width, kernel, stride)
        y = rng.standard_normal((geom.windows, 1, kernel * kernel, 3))
        np.testing.assert_allclose(
            oracle_fold(y[:, 0], height, width, kernel, stride),
            fold_array(y, geom),
        )


class TestErrorMetrics:
    def test_relative_error_floor(self):
        a = np.array([0.0])
        b = np.array([1e-14])
        assert relative_error(a, b) <= 1e-2  # floored at 1e-12 denominator
        assert relative_error(a, b, eps=1e-6) <= 1e-8

    def test_exact_match_is_zero(self, rng):
        x = rng.standard_normal((4, 4))
        assert relative_error(x, x) == 0.0
        assert max_abs_error(x, x) == 0.0

    def test_empty_arrays(self):
        empty = np.zeros((0,))
        assert relative_error(empty, empty) == 0.0
        assert max_abs_error(empty, empty) == 0.0


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        a = np.array([1.0, 2.0, 3.0])

        def f(arrays):
            (x,) = arrays
            return float(np.sum(a * x * x))

        x0 = np.array([0.5, -1.5, 2.0])
        (grad,) = finite_diff_grad(f, [x0])
        np.testing.assert_allclose(grad, 2.0 * a * x0, rtol=1e-8)

    def test_multiple_arrays(self):
        def f(arrays):
            x, y = arrays
            return float(np.sum(x * y))

        x0, y0 = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        gx, gy = finite_diff_grad(f, [x0, y0])
        np.testing.assert_allclose(gx, y0, rtol=1e-9)
        np.testing.assert_allclose(gy, x0, rtol=1e-9)


class TestReport:
    def test_aggregation_and_failure_counting(self):
        report = OracleReport(tolerance=1e-6)
        report.add("good", 0, np.ones(3), np.ones(3))
        report.add("bad", 1, np.ones(3), 1.1 * np.ones(3))
        assert not report.passed
        assert report.num_failed == 1
        assert report.seeds == [0, 1]
        assert report.max_rel_err > 1e-2

    def test_json_roundtrip(self):
        report = OracleReport(tolerance=1e-6)
        report.add("case", 3, np.ones(2), np.ones(2))
        blob = json.loads(report.to_json())
        assert blob["passed"] is True
        assert blob["cases"] == 1
        assert blob["case_list"][0]["seed"] == 3

    def test_table_has_summary_line(self):
        report = OracleReport(tolerance=1e-6)
        report.add_case(OracleCase("x", 0, 0.0, 0.0, True))
        assert "all passed" in report.format_table()


class TestSuites:
    def test_oracle_suite_smoke(self):
        report = oracle_check(seeds_per_kind=3)
        assert report.passed
        assert len(report.cases) == 15

    def test_a_subset_run_checks_the_full_runs_cases(self):
        # cases are seeded by kind, so a failure a full run reports can be
        # replayed with that one kind
        full = oracle_check(seeds_per_kind=2).cases
        for kind in ORACLE_KINDS:
            want = [c for c in full if c.name.split()[0] == kind]
            assert oracle_check(seeds_per_kind=2, kinds=(kind,)).cases == want
        full = gradient_check(seeds_per_kind=1).cases
        for kind in ("sa", GRADCHECK_KINDS[-1]):
            want = [c for c in full if c.name == kind]
            assert gradient_check(seeds_per_kind=1, kinds=(kind,)).cases == want

    @pytest.mark.parametrize("suite", [oracle_check, gradient_check])
    def test_unknown_kind_raises(self, suite):
        with pytest.raises(ContractError, match="unknown"):
            suite(1, kinds=("nope",))

    def test_gradient_suite_smoke(self):
        report = gradient_check(seeds_per_kind=1, kinds=("softmax", "windows", "sa"))
        assert report.passed

    def test_corrupt_gradients_are_caught(self, monkeypatch):
        # bend one coordinate of one tape gradient per case
        def bent_backward(loss, tape):
            grads = backward(loss, tape)
            leaf = next(iter(grads))
            grads[leaf] = grads[leaf].copy()
            grads[leaf].flat[0] += 0.5
            return grads

        monkeypatch.setattr(checks, "backward", bent_backward)
        report = gradient_check(seeds_per_kind=1, kinds=("sa",))
        assert not report.passed

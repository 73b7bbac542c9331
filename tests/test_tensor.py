"""Tensor container, tape recording, backward driver, counter, init."""

import threading

import numpy as np
import pytest

from outlooker import MADD_COUNTER, MAddCounter, Tape, Tensor, backward, trunc_normal
from outlooker import ops
from outlooker.errors import ContractError


class TestTensor:
    def test_defaults_to_float32(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.dtype == np.float32
        assert t.shape == (2, 2)
        assert not t.requires_grad

    def test_float64_preserved(self):
        t = Tensor(np.zeros((3,), dtype=np.float64))
        assert t.dtype == np.float64

    def test_explicit_dtype_wins(self):
        t = Tensor(np.zeros((3,), dtype=np.float64), dtype=np.float32)
        assert t.dtype == np.float32

    def test_rejects_integer_dtype(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros(3), dtype=np.int64)

    def test_item_requires_single_element(self):
        assert Tensor(np.array([2.5])).item() == pytest.approx(2.5)
        with pytest.raises(ContractError):
            Tensor(np.zeros((2, 2))).item()


class TestTapeAndBackward:
    def test_no_recording_without_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ops.scale(x, 2.0)
        np.testing.assert_allclose(y.data, 2.0 * np.ones(3))

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            y = ops.add(x, x)
            loss = ops.sum_all(y)
            grads = backward(loss, tape)
        np.testing.assert_allclose(grads[x], [2.0, 2.0])

    def test_chain_through_matmul(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(ops.matmul(a, b))
            grads = backward(loss, tape)
        np.testing.assert_allclose(grads[a], [[3.0, 4.0]])
        np.testing.assert_allclose(grads[b], [[1.0], [2.0]])

    def test_scalar_loss_required(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = ops.scale(x, 1.0)
            with pytest.raises(ContractError):
                backward(y, tape)

    def test_untouched_param_gets_zero_gradient(self):
        x = Tensor(np.ones(2), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        with Tape() as tape:
            first = ops.add(x, unused)
            loss = ops.sum_all(ops.mul(x, x))
            grads = backward(loss, tape)
        # `unused` participated in a recorded op off the loss path
        np.testing.assert_allclose(grads[unused], np.zeros(2))
        assert first.shape == (2,)

    def test_returns_leaf_gradients_only(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        with Tape() as tape:
            y = ops.linear(x, w, b)
            loss = ops.sum_all(y)
        grads = backward(loss, tape)
        assert set(grads) == {x, w, b}
        assert y not in grads and loss not in grads

    def test_backward_consumes_the_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(ops.scale(x, 2.0))
        assert len(tape) == 2
        backward(loss, tape)
        assert len(tape) == 0

    def test_second_backward_on_a_consumed_tape_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(ops.scale(x, 2.0))
        backward(loss, tape)
        with pytest.raises(ContractError):
            backward(loss, tape)

    def test_loss_computed_off_the_tape_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ops.sum_all(ops.scale(x, 2.0))
        with Tape() as tape:
            ops.sum_all(ops.scale(x, 3.0))
        with pytest.raises(ContractError):
            backward(loss, tape)

    def test_nested_tapes_restore_outer(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as outer:
            y = ops.scale(x, 2.0)
            with Tape() as inner:
                z = ops.scale(x, 5.0)
                grads_inner = backward(ops.sum_all(z), inner)
            loss = ops.sum_all(y)
            grads_outer = backward(loss, outer)
        np.testing.assert_allclose(grads_inner[x], [5.0])
        np.testing.assert_allclose(grads_outer[x], [2.0])


class TestMAddCounter:
    def test_counts_and_resets(self):
        counter = MAddCounter()
        counter.add(120)
        counter.add(7)
        assert counter.total == 127
        counter.reset()
        assert counter.total == 0

    def test_rejects_negative(self):
        counter = MAddCounter()
        with pytest.raises(ContractError):
            counter.add(-1)

    def test_matmul_counts_into_global(self):
        a = Tensor(np.zeros((4, 5)))
        b = Tensor(np.zeros((5, 6)))
        start = MADD_COUNTER.total
        ops.matmul(a, b)
        assert MADD_COUNTER.total - start == 120

    def test_thread_safety(self):
        counter = MAddCounter()

        def work():
            for _ in range(1000):
                counter.add(1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.total == 8000


class TestTruncNormal:
    def test_bounded_at_two_sigma(self, rng):
        sample = trunc_normal(rng, (2000,), std=0.02)
        assert sample.dtype == np.float32
        assert np.all(np.abs(sample) <= 2.0 * 0.02 + 1e-7)

    def test_mean_near_zero(self, rng):
        sample = trunc_normal(rng, (20000,), std=1.0)
        assert abs(float(sample.mean())) < 0.05

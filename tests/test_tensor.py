"""Tensor container, tape recording, backward driver, counter, init."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from outlooker import (
    MADD_COUNTER,
    MAddCounter,
    OutlookAttention,
    Tape,
    Tensor,
    backward,
    trunc_normal,
)
from outlooker import ops
from outlooker.attention import CostQuery, build_layer, layer_input, madds, measured_madds
from outlooker.errors import ContractError
from outlooker.tensor import from_op


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

    def test_rank_zero_kept(self):
        # a 0-d array stays rank 0, so sum_all's loss is a true scalar
        assert Tensor(np.float64(2.0)).shape == ()
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(ops.scale(x, 2.0))
            assert loss.shape == ()
            grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[x], np.full((3, 4), 2.0))

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

    def test_loss_must_be_a_tensor(self):
        with Tape() as tape:
            with pytest.raises(ContractError):
                backward(np.float32(1.0), tape)

    @pytest.mark.parametrize("closure", [lambda g: (g, g), lambda g: (g[:2],)],
                             ids=["arity", "shape"])
    def test_closure_returning_wrong_gradients_raises(self, closure):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(from_op(2.0 * x.data, (x,), closure))
            with pytest.raises(ContractError):
                backward(loss, tape)

    def test_exiting_an_outer_tape_first_raises(self):
        outer, inner = Tape(), Tape()
        with outer:
            with inner:
                with pytest.raises(ContractError):
                    outer.__exit__(None, None, None)

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


class TestTapeRetention:
    """A tape node keeps keys for intermediates; only closures keep arrays."""

    def test_intermediate_no_closure_reads_dies_while_the_tape_lives(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        with Tape() as tape:
            y = ops.scale(x, 0.5)
            probe = weakref.ref(y.data)
            s = ops.softmax(y)     # its backward reads its output, not y
            del y
            gc.collect()
            assert probe() is None
            assert len(tape) == 2
            grads = backward(ops.sum_all(ops.mul(s, s)), tape)
        assert grads[x].shape == (3, 4)

    @pytest.mark.parametrize("op, want", [
        (lambda t: ops.reshape(t, (12,)), np.full((3, 4), 0.5)),
        (lambda t: ops.narrow(t, 0, 1, 2), np.repeat([[0.0], [0.5], [0.5]], 4, axis=1)),
        (ops.sum_all, np.full((3, 4), 0.5)),
    ], ids=["reshape", "narrow", "sum_all"])
    def test_backward_that_reads_only_a_shape_keeps_no_array(self, op, want):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        with Tape() as tape:
            y = ops.scale(x, 0.5)
            probe = weakref.ref(y.data)
            loss = ops.sum_all(op(y))
            del y
            gc.collect()
            assert probe() is None
            grads = backward(loss, tape)
        np.testing.assert_array_equal(grads[x], want)

    def test_long_chain_with_reused_ids_is_exact(self):
        # each intermediate dies as soon as the next one exists, so CPython
        # hands its id() to a later tensor; node keys are never reused
        x = Tensor(np.ones(5, dtype=np.float32), requires_grad=True)
        ids = set()
        with Tape() as tape:
            t = x
            for _ in range(200):
                t = ops.scale(t, 1.01)
                ids.add(id(t))
            loss = ops.sum_all(t)
        assert len(ids) < 200
        grads = backward(loss, tape)
        want = np.ones(5, dtype=np.float32)
        for _ in range(200):
            want = want * 1.01
        assert grads[x].dtype == np.float32
        np.testing.assert_array_equal(grads[x], want)

    def test_node_keys_are_unique_across_threads(self):
        # more threads than cores, switching often, all drawing node keys
        x = Tensor(np.ones(2), requires_grad=True)
        keys = [[] for _ in range(4)]

        def work(out):
            with Tape():
                for _ in range(2000):
                    out.append(ops.scale(x, 2.0)._key)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in keys]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        drawn = [k for out in keys for k in out]
        assert len(drawn) == 8000 and len(set(drawn)) == 8000

    def test_two_threads_tape_and_backpropagate_independently(self, rng):
        layer = OutlookAttention(np.random.default_rng(0), 8, 2, 3)
        x = Tensor(rng.standard_normal((5, 6, 8)), dtype=np.float32, requires_grad=True)
        probe = Tensor(rng.standard_normal((5, 6, 8)), dtype=np.float32)
        leaves = [x] + layer.parameters()

        def step():
            with Tape() as tape:
                loss = ops.sum_all(ops.mul(layer.forward(x), probe))
            grads = backward(loss, tape)
            return [grads[t] for t in leaves]

        solo = step()
        barrier = threading.Barrier(2)
        runs = [[], []]

        def work(out):
            barrier.wait(timeout=60)
            for _ in range(20):
                out.append(step())

        threads = [threading.Thread(target=work, args=(out,)) for out in runs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for out in runs:
            assert len(out) == 20
            for grads in out:
                for got, want in zip(grads, solo):
                    np.testing.assert_array_equal(got, want)


class TestMAddCounter:
    def test_counts(self):
        counter = MAddCounter()
        counter.add(120)
        counter.add(7)
        assert counter.total == 127

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
        # each thread counts only its own adds; no thread sees another's
        counter = MAddCounter()
        seen = []

        def work():
            for _ in range(1000):
                counter.add(1)
            seen.append(counter.total)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1000] * 8
        assert counter.total == 0   # the main thread added nothing

    def test_concurrent_measured_madds_are_exact(self):
        query = CostQuery(12, 10, 16, 3, 4)
        layer = build_layer("oa", query, np.random.default_rng(0), dtype=np.float32)
        x = layer_input("oa", query, np.random.default_rng(1), dtype=np.float32)
        barrier = threading.Barrier(2)
        counts = [[], []]

        def work(out):
            barrier.wait(timeout=60)
            for _ in range(25):
                out.append(measured_madds(layer, x))

        threads = [threading.Thread(target=work, args=(out,)) for out in counts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert counts == [[madds(query, "oa")] * 25] * 2


class TestTruncNormal:
    def test_bounded_at_two_sigma(self, rng):
        sample = trunc_normal(rng, (2000,), std=0.02)
        assert sample.dtype == np.float32
        assert np.all(np.abs(sample) <= 2.0 * 0.02 + 1e-7)

    def test_mean_near_zero(self, rng):
        sample = trunc_normal(rng, (20000,), std=1.0)
        assert abs(float(sample.mean())) < 0.05

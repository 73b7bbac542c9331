"""Synthetic data, the loss, the optimizer, and the toy fit loop."""

import math

import numpy as np
import pytest

from outlooker import (
    AdamW,
    ContractError,
    DivergenceError,
    Tensor,
    cross_entropy,
    gen_synthetic,
    train_toy,
)


class TestSyntheticData:
    def test_shapes_and_dtypes(self):
        images, labels = gen_synthetic(num_classes=4, size=16, per_class=3)
        assert images.shape == (12, 16, 16, 3)
        assert images.dtype == np.float32
        assert labels.shape == (12,)
        assert labels.dtype == np.int64

    def test_classes_balanced(self):
        _, labels = gen_synthetic(num_classes=5, per_class=7)
        counts = np.bincount(labels, minlength=5)
        np.testing.assert_array_equal(counts, 7 * np.ones(5, dtype=np.int64))

    def test_deterministic_per_seed(self):
        a_img, a_lab = gen_synthetic(seed=3)
        b_img, b_lab = gen_synthetic(seed=3)
        np.testing.assert_array_equal(a_img, b_img)
        np.testing.assert_array_equal(a_lab, b_lab)

    def test_seed_changes_data(self):
        a_img, _ = gen_synthetic(seed=0)
        b_img, _ = gen_synthetic(seed=1)
        assert np.abs(a_img - b_img).max() > 0.1

    def test_noise_zero_repeats_template(self):
        images, labels = gen_synthetic(num_classes=2, per_class=3, noise=0.0)
        first = images[labels == 0]
        np.testing.assert_array_equal(first[0], first[1])

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -1.0])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(ContractError):
            gen_synthetic(num_classes=2, size=8, per_class=1, noise=noise)


class TestCrossEntropy:
    def test_uniform_logits_give_log_classes(self):
        logits = Tensor(np.zeros((4, 10)), dtype=np.float64)
        labels = np.array([0, 3, 7, 9])
        loss = cross_entropy(logits, labels)
        np.testing.assert_allclose(loss.item(), math.log(10.0), rtol=1e-12)

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss = cross_entropy(Tensor(logits, dtype=np.float64), np.array([1, 2]))
        assert loss.item() < 1e-12

    def test_rank_validation(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros(5)), np.array([0]))

    def test_empty_batch_rejected(self):
        # the mean over 0 examples would divide by zero
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((0, 3)), dtype=np.float64), np.zeros(0, dtype=int))

    def test_label_count_validation(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_classes_rejected(self, label):
        # numpy indexing would wrap -1 onto the last class and raise a bare
        # IndexError for 3
        logits = Tensor(np.array([[0.0, 1.0, 5.0]]), dtype=np.float64)
        with pytest.raises(ContractError):
            cross_entropy(logits, np.array([label]))

    @pytest.mark.parametrize("labels", [np.array([2.0]), np.array([True])], ids=["float", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # numpy would raise a bare IndexError for either as an index
        logits = Tensor(np.array([[0.0, 1.0, 5.0]]), dtype=np.float64)
        with pytest.raises(ContractError):
            cross_entropy(logits, labels)


class TestAdamW:
    def test_first_step_is_signed_lr(self):
        # with zero state, mhat/(sqrt(vhat)+eps) reduces to g/(|g|+eps)
        p = Tensor(np.array([1.0, -2.0]))
        opt = AdamW([p], lr=0.1)
        opt.step({p: np.array([3.0, -4.0])})
        np.testing.assert_allclose(p.data, [0.9, -1.9], rtol=1e-6)

    def test_decay_skips_vectors(self):
        vec = Tensor(np.ones(3))
        mat = Tensor(np.ones((3, 3)))
        opt = AdamW([vec, mat], lr=0.1, weight_decay=0.5)
        opt.step({vec: np.zeros(3), mat: np.zeros((3, 3))})
        # zero gradient leaves only the decay term
        np.testing.assert_allclose(vec.data, np.ones(3))
        np.testing.assert_allclose(mat.data, 0.95 * np.ones((3, 3)))

    def test_missing_grads_leave_param_unchanged(self):
        p = Tensor(np.ones(2))
        q = Tensor(np.ones(2))
        opt = AdamW([p, q], lr=0.1)
        opt.step({p: np.ones(2)})
        np.testing.assert_array_equal(q.data, np.ones(2))

    @pytest.mark.parametrize("grad", [
        np.ones((2, 3), dtype=np.float64),
        np.ones((), dtype=np.float32),
        np.ones(3, dtype=np.float32),
    ], ids=["float64", "scalar", "row"])
    def test_gradient_unlike_its_parameter_rejected(self, grad):
        # a cast would hide a dtype promotion, a broadcast a gradient of
        # another tensor; nothing is updated before the error
        p = Tensor(np.ones((2, 3)), dtype=np.float32)
        q = Tensor(np.ones(2), dtype=np.float32)
        opt = AdamW([q, p], lr=0.1)
        with pytest.raises(ContractError):
            opt.step({q: np.ones(2, dtype=np.float32), p: grad})
        np.testing.assert_array_equal(q.data, np.ones(2))
        assert opt.step_count == 0

    def test_validation(self):
        with pytest.raises(ContractError):
            AdamW([], lr=0.0)
        with pytest.raises(ContractError):
            AdamW([], lr=0.1, weight_decay=-1.0)

    @pytest.mark.parametrize("lr, weight_decay", [
        (math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, math.inf),
    ], ids=["lr-nan", "lr-inf", "decay-nan", "decay-inf"])
    def test_non_finite_hyperparameters_rejected(self, lr, weight_decay):
        with pytest.raises(ContractError):
            AdamW([], lr=lr, weight_decay=weight_decay)


class TestTrainToy:
    def test_short_run_record(self):
        record = train_toy(steps=4, per_class=2, seed=0)
        assert record.steps == 4
        assert len(record.losses) == 4
        assert all(math.isfinite(v) for v in record.losses)
        assert 0.0 <= record.train_accuracy <= 1.0
        assert record.seconds > 0
        assert record.final_loss == record.losses[-1]

    def test_deterministic(self):
        a = train_toy(steps=4, per_class=2, seed=1)
        b = train_toy(steps=4, per_class=2, seed=1)
        assert a.losses == b.losses
        assert a.train_accuracy == b.train_accuracy

    def test_divergence_is_reported(self):
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            train_toy(steps=10, lr=1e8, warmup=0, per_class=2, seed=0)

    def test_record_serializes(self):
        record = train_toy(steps=2, per_class=2, seed=0)
        blob = record.to_dict()
        assert blob["steps"] == 2
        assert len(blob["losses"]) == 2

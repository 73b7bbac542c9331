"""Toy training harness: synthetic data, cross-entropy, AdamW, fit loop.

The dataset is deliberately easy (each class is a fixed low-frequency
wave pattern plus Gaussian noise), so a small model separates it within
a few hundred steps.  The point is to exercise the whole stack end to
end (forward, tape, gradients, optimizer), not to benchmark learning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ContractError, DivergenceError
from .model import PRESETS, ModelConfig, TwoStageModel, build_model
from .tensor import Tape, Tensor, backward


def gen_synthetic(
    num_classes: int = 10,
    size: int = 32,
    per_class: int = 8,
    noise: float = 0.25,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced, shuffled (images, labels); images (N, size, size, 3) float32.

    Class templates are sums of three low-frequency plane waves with
    class-specific frequencies, phases, and channel amplitudes, standardized
    to zero mean and unit variance.  Same seed, same dataset.  Raises
    ``ContractError`` when ``noise`` is negative, NaN or infinite.
    """
    if not (math.isfinite(noise) and noise >= 0):
        raise ContractError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    templates = np.empty((num_classes, size, size, 3), dtype=np.float64)
    for c in range(num_classes):
        acc = np.zeros((size, size, 3))
        for _ in range(3):
            fy, fx = rng.integers(1, 4, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
            amp = rng.uniform(0.5, 1.0, size=3)
            angle = 2.0 * np.pi * (fy * yy + fx * xx) / size
            acc += np.sin(angle[..., None] + phase) * amp
        templates[c] = (acc - acc.mean()) / acc.std()

    total = num_classes * per_class
    labels = np.repeat(np.arange(num_classes), per_class).astype(np.int64)
    noisy = noise * rng.standard_normal((num_classes, per_class, size, size, 3))
    noisy += templates[:, None]
    images = noisy.reshape(total, size, size, 3).astype(np.float32)
    order = rng.permutation(total)
    return images[order], labels[order]


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of the true classes; scalar Tensor."""
    if logits.ndim != 2:
        raise ContractError(f"expected (B, classes) logits, got {logits.shape}")
    batch, classes = logits.shape
    if batch == 0:
        raise ContractError("expected at least one example, got a batch of 0")
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (batch,):
        raise ContractError(f"expected {batch} labels, got shape {labels.shape}")
    if ((labels < 0) | (labels >= classes)).any():
        raise ContractError(f"labels must lie in [0, {classes}), got {labels}")
    logp = ops.log_softmax(logits)
    pick = np.zeros((batch, classes), dtype=logits.data.dtype)
    pick[np.arange(batch), labels] = -1.0 / batch
    return ops.sum_all(ops.mul(logp, Tensor(pick, dtype=logits.data.dtype)))


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    The moment decay rates ``beta1``/``beta2`` and the denominator floor
    ``eps`` are fixed class constants.  Decay is applied directly to the
    weights (scaled by lr), not mixed into the gradient, and skips vectors:
    biases, norm scales, and other rank-1 parameters stay unregularized as is
    conventional.  ``ContractError`` is raised for an ``lr`` that is not finite
    and positive or a ``weight_decay`` that is not finite and >= 0, and by ``step``,
    before it changes anything, for a gradient unlike its parameter in shape or dtype.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Tensor], lr: float = 1e-3, weight_decay: float = 0.0):
        if not (math.isfinite(lr) and lr > 0):
            raise ContractError(f"lr must be finite and positive, got {lr}")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ContractError(f"weight_decay must be finite and >= 0, got {weight_decay}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        for p in self.params:
            g = grads.get(p)
            if g is not None and (g.shape != p.shape or g.dtype != p.dtype):
                raise ContractError(f"gradient {g.dtype}{g.shape} does not match "
                                    f"parameter {p.dtype}{p.shape}")
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for i, p in enumerate(self.params):
            g = grads.get(p)
            if g is None:
                continue
            m, v = self._m[i], self._v[i]
            # two scratch arrays instead of a temporary per operator; each
            # line keeps the operand order of the expression in its comment
            upd, den = np.empty_like(m), np.empty_like(m)
            np.multiply(g, 1.0 - self.beta1, out=upd)           # m = b1·m + (1-b1)·g
            np.multiply(m, self.beta1, out=m)
            np.add(m, upd, out=m)
            np.multiply(g, 1.0 - self.beta2, out=upd)           # v = b2·v + ((1-b2)·g)·g
            np.multiply(upd, g, out=upd)
            np.multiply(v, self.beta2, out=v)
            np.add(v, upd, out=v)
            if self.weight_decay and p.ndim >= 2:               # p -= (lr·wd)·p
                np.multiply(p.data, self.lr * self.weight_decay, out=upd)
                np.subtract(p.data, upd, out=p.data)
            np.divide(m, bc1, out=upd)                          # p -= lr·m̂ / (√v̂ + eps)
            np.multiply(upd, self.lr, out=upd)
            np.divide(v, bc2, out=den)
            np.sqrt(den, out=den)
            np.add(den, self.eps, out=den)
            np.divide(upd, den, out=upd)
            np.subtract(p.data, upd, out=p.data)


@dataclass
class TrainRecord:
    """What a fit run did: per-step losses and the final train accuracy."""

    steps: int
    losses: list[float] = field(default_factory=list)
    train_accuracy: float = 0.0
    seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else math.nan

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "final_loss": self.final_loss,
            "train_accuracy": self.train_accuracy,
            "seconds": round(self.seconds, 3),
            "losses": [round(v, 6) for v in self.losses],
        }


def accuracy(model: TwoStageModel, images: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of images whose argmax logit matches the label (one forward, no tape)."""
    logits = model.forward(Tensor(images, dtype=model.dtype))
    return int(np.sum(np.argmax(logits.data, axis=1) == labels)) / len(images)


def train_toy(
    config: ModelConfig | None = None,
    steps: int = 500,
    lr: float = 2e-3,
    batch_size: int = 8,
    weight_decay: float = 0.01,
    warmup: int = 50,
    per_class: int = 8,
    noise: float = 0.25,
    seed: int = 0,
    log_every: int = 0,
) -> TrainRecord:
    """Fit the tiny preset (or ``config``) on the synthetic set; returns a record.

    The learning rate ramps linearly over the first ``warmup`` steps; without
    the ramp, full-size Adam steps this early reliably stall the normalized
    attention stack near its saddle at chance-level loss.  Raises
    DivergenceError as soon as the loss stops being finite.  With the defaults
    the run is deterministic for a given seed.
    """
    config = PRESETS["tiny"] if config is None else config
    model = build_model(config, seed=seed)
    images, labels = gen_synthetic(config.num_classes, config.image_size,
                                   per_class=per_class, noise=noise, seed=seed)
    opt = AdamW(model.parameters(), lr=lr, weight_decay=weight_decay)
    rng = np.random.default_rng(seed + 1)

    record = TrainRecord(steps=steps)
    start = time.perf_counter()
    for step in range(steps):
        if warmup > 0:
            opt.lr = lr * min(1.0, (step + 1) / warmup)
        take = rng.choice(len(images), size=min(batch_size, len(images)), replace=False)
        with Tape() as tape:
            logits = model.forward(Tensor(images[take], dtype=model.dtype),
                                   training=True, rng=rng)
            loss = cross_entropy(logits, labels[take])
            value = float(loss.item())
            if not math.isfinite(value):
                raise DivergenceError(f"loss {value} at step {step}")
            grads = backward(loss, tape)
        opt.step(grads)
        record.losses.append(value)
        if log_every and (step + 1) % log_every == 0:
            print(f"step {step + 1:>4}  loss {value:.4f}")

    record.train_accuracy = accuracy(model, images, labels)
    record.seconds = time.perf_counter() - start
    return record

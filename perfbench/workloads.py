"""The benchmark's four workloads.

Each workload builds its model and inputs from the seed in ``setup`` and runs
one closed-loop step in ``step``; one client issues each step after the last
one ends.  A step raises ``GateError`` when its output fails a correctness
gate.  ``step`` takes a ``mark`` callback that it calls at the end of the
forward and of the backward pass, where the memory step reads traced memory.

``tail_percentile`` is the step-time percentile reported as the tail.  It is
fixed per workload, so that a faster commit is not measured at a more extreme
percentile than a slower one.  It is the highest multiple of 5 that leaves at
least ten samples beyond it in a 20-second run on a 2-vCPU machine; no
percentile does for ``d1-train-b2`` (about 8 steps), which reports its upper
quartile.

Every call into the library goes through a module or class attribute
(``train.cross_entropy``, ``tensor.backward``, ``model.forward``), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from outlooker import ops, tensor, train
from outlooker.attention import OutlookAttention
from outlooker.model import PRESETS, build_model
from outlooker.tensor import Tensor

# Largest allowed |float32 - float64| logit difference, in float32 epsilons
# of the largest reference logit; fixed before any run.
LOGIT_TOLERANCE_EPS = 100
D1_LR = 1e-4
D1_WEIGHT_DECAY = 0.01


class GateError(Exception):
    """A step's output failed a correctness gate."""


def no_mark(label: str) -> None:
    pass


def _check_finite(what: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise GateError(f"{what} is not finite")


class D1Infer:
    """d1 at 224², batch 1, forward without a tape."""

    name = "d1-infer-b1"
    images_per_step = 1
    warmup = 2
    tail_percentile = 75     # about 43 steps per run

    def setup(self, seed: int) -> None:
        self.model = build_model(PRESETS["d1"], seed=seed)
        size = self.model.config.image_size
        rng = np.random.default_rng(seed)
        self.images = Tensor(rng.standard_normal((1, size, size, 3)).astype(np.float32))
        self.reference = None

    def roots(self):
        return [("model", self.model)]

    def prepare(self, seed: int, warm_values: list) -> list[str]:
        """Forward a float64 build of the same seed; steps compare against it."""
        reference = build_model(PRESETS["d1"], seed=seed, dtype=np.float64)
        logits = reference.forward(Tensor(self.images.data, dtype=np.float64)).data
        if not np.all(np.isfinite(logits)):
            return ["float64 reference logits are not finite"]
        self.reference = logits
        scale = max(1.0, float(np.abs(logits).max()))
        self.tolerance = LOGIT_TOLERANCE_EPS * float(np.finfo(np.float32).eps) * scale
        return []

    def step(self, mark=no_mark):
        logits = self.model.forward(self.images)
        mark("forward")
        _check_finite("logits", logits.data)
        if self.reference is not None:
            err = float(np.abs(logits.data - self.reference).max())
            if err > self.tolerance:
                raise GateError(f"logits differ from the float64 build by {err:.3e} "
                                f"(tolerance {self.tolerance:.3e})")
        return None


class D1Train:
    """d1 at 224², batch 2: taped forward, backward, AdamW step."""

    name = "d1-train-b2"
    images_per_step = 2
    warmup = 2
    tail_percentile = 75     # about 8 steps per run

    def setup(self, seed: int) -> None:
        config = PRESETS["d1"]
        self.model = build_model(config, seed=seed)
        rng = np.random.default_rng(seed)
        shape = (self.images_per_step, config.image_size, config.image_size, 3)
        self.images = Tensor(rng.standard_normal(shape).astype(np.float32))
        self.labels = rng.integers(0, config.num_classes, size=self.images_per_step)
        self.opt = train.AdamW(self.model.parameters(), lr=D1_LR, weight_decay=D1_WEIGHT_DECAY)
        self.rng = np.random.default_rng(seed + 1)   # stochastic depth

    def roots(self):
        return [("model", self.model)]

    def prepare(self, seed: int, warm_values: list) -> list[str]:
        return []

    def step(self, mark=no_mark):
        with tensor.Tape() as tape:
            logits = self.model.forward(self.images, training=True, rng=self.rng)
            loss = train.cross_entropy(logits, self.labels)
        mark("forward")
        value = loss.item()
        if not math.isfinite(value):
            raise GateError(f"loss {value} is not finite")
        grads = tensor.backward(loss, tape)
        mark("backward")
        self.opt.step(grads)
        return value


class TinyTrain:
    """The ``train_toy`` loop, tiny preset, batch 8, run step by step from outside."""

    name = "tiny-train-b8"
    images_per_step = 8
    warmup = 5
    tail_percentile = 90     # about 190 steps per run

    def __init__(self):
        params = inspect.signature(train.train_toy).parameters
        self.hp = {k: p.default for k, p in params.items()
                   if k in ("lr", "weight_decay", "warmup", "per_class", "noise")}

    def setup(self, seed: int) -> None:
        config = PRESETS["tiny"]
        hp = self.hp
        self.model = build_model(config, seed=seed)
        self.data, self.labels = train.gen_synthetic(
            config.num_classes, config.image_size, per_class=hp["per_class"],
            noise=hp["noise"], seed=seed)
        self.opt = train.AdamW(self.model.parameters(), lr=hp["lr"],
                               weight_decay=hp["weight_decay"])
        self.rng = np.random.default_rng(seed + 1)
        self.count = 0

    def roots(self):
        return [("model", self.model)]

    def prepare(self, seed: int, warm_values: list) -> list[str]:
        """The library's own loop, same seed, must give the same losses bit for bit."""
        record = train.train_toy(steps=len(warm_values), batch_size=self.images_per_step,
                                 seed=seed)
        if record.losses != warm_values:
            return [f"train_toy losses {record.losses} differ from the stepped loop's "
                    f"{warm_values}"]
        return []

    def step(self, mark=no_mark):
        hp = self.hp
        if hp["warmup"] > 0:
            self.opt.lr = hp["lr"] * min(1.0, (self.count + 1) / hp["warmup"])
        take = self.rng.choice(len(self.data), size=min(self.images_per_step, len(self.data)),
                               replace=False)
        with tensor.Tape() as tape:
            logits = self.model.forward(Tensor(self.data[take], dtype=self.model.dtype),
                                        training=True, rng=self.rng)
            loss = train.cross_entropy(logits, self.labels[take])
            value = float(loss.item())
            if not math.isfinite(value):
                raise GateError(f"loss {value} is not finite")
            mark("forward")
            grads = tensor.backward(loss, tape)
            mark("backward")
        self.opt.step(grads)
        self.count += 1
        return value


class OALayer:
    """Outlook attention at d1 stage-1 width on a 56×56 map, stride 1 then 2."""

    name = "oa-layer"
    size = 56
    strides = (1, 2)
    images_per_step = len(strides)   # one forward+backward over one map is one image
    warmup = 2
    tail_percentile = 85     # about 88 steps per run

    def setup(self, seed: int) -> None:
        config = PRESETS["d1"]
        channels = config.stage1_dim
        # Same seed per stride, so both layers hold the same weights.
        self.layers = [OutlookAttention(np.random.default_rng(seed), channels,
                                        config.outlooker_heads, config.kernel, stride=s)
                       for s in self.strides]
        rng = np.random.default_rng(seed + 1)
        shape = (self.size, self.size, channels)
        self.x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        self.cotangent = Tensor(rng.standard_normal(shape).astype(np.float32))

    def roots(self):
        return [(f"oa.stride{s}", layer) for s, layer in zip(self.strides, self.layers)]

    def prepare(self, seed: int, warm_values: list) -> list[str]:
        return []

    def step(self, mark=no_mark):
        total = 0.0
        for layer in self.layers:
            with tensor.Tape() as tape:
                out = layer(self.x)
                loss = ops.sum_all(ops.mul(out, self.cotangent))
            mark("forward")
            _check_finite(f"stride-{layer.stride} output", out.data)
            grads = tensor.backward(loss, tape)
            mark("backward")
            _check_finite(f"stride-{layer.stride} input gradient", grads[self.x])
            total += loss.item()
        return total


WORKLOADS = {cls.name: cls for cls in (D1Infer, D1Train, TinyTrain, OALayer)}

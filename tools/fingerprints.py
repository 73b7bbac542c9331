#!/usr/bin/env python3
"""Bit-for-bit fingerprints of the model's numbers, as sha256 digests.

Run from the repository root, which holds ``src/outlooker``:

    python3 tools/fingerprints.py > fingerprints.json

It takes no options.  BLAS runs on one thread, so the digests depend only on
the code and the machine; compare two commits by running this on each, on
one machine, and diffing the output.  It prints one sorted JSON object:

* ``d1_logits``: a d1 forward at seed 0 on one 224² image;
* ``d1_logits_f64``: the same forward by a float64 build of d1 at seed 0, the
  reference perfbench's ``d1-infer-b1`` gate compares against;
* ``d1_named_params``: the name, shape and values of every d1 parameter;
* ``d1_analytic_madds``: ``analytic_madds(PRESETS["d1"], 224)``;
* ``tiny_b8_grads`` and ``d1_b2_grads``: every parameter gradient of one
  ``train.train_step`` of tiny at batch 8 and of d1 at batch 2;
* ``tiny_lsa_b8_grads`` and ``tiny_conv_b8_grads``: the same tiny batch-8
  step with local self-attention (the one user of the tensor-level
  ``windows.unfold``) or convolution as the stage-1 mixer;
* ``oa_layer``: the output, the input gradient and every parameter
  gradient (``w_v``, ``w_a``, ``b_a``, ``w_o``, ``b_o``) of
  ``OutlookAttention`` at stride 1 and at stride 2, on the shapes and seed
  of perfbench's ``oa-layer`` workload (d1's stage-1 layer on a 56² map);
* ``conv_layer``: the output and the input, weight and bias gradients of a
  3×3 ``Conv2d`` on a (2, 56, 56, 64) map and a 7×7 stride-2 one on a
  (2, 64, 64, 3) image, each walking its window grid in several bands;
* ``toy_trace``: the loss trace of ``train_toy(steps=500, seed=0)``.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP runtimes read these once, when numpy loads them.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from outlooker import (  # noqa: E402
    PRESETS,
    Conv2d,
    OutlookAttention,
    Tape,
    Tensor,
    analytic_madds,
    backward,
    build_model,
    ops,
)
from outlooker.train import train_step, train_toy  # noqa: E402

SEED = 0


def digest(named_arrays) -> str:
    """sha256 over each (name, array)'s name, dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for name, arr in named_arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def images(config, batch: int) -> tuple[Tensor, np.ndarray]:
    rng = np.random.default_rng(SEED)
    shape = (batch, config.image_size, config.image_size, 3)
    data = Tensor(rng.standard_normal(shape).astype(np.float32))
    return data, rng.integers(0, config.num_classes, size=batch)


class KeepGrads:
    """A stand-in optimizer for ``train_step``: it keeps the gradients and moves nothing."""

    step_count = 0

    def step(self, grads) -> None:
        self.grads = grads


def step_grads(config, batch: int) -> str:
    """Digest of every parameter gradient of one ``train_step`` with stochastic depth."""
    model = build_model(config, seed=SEED)
    x, labels = images(model.config, batch)
    opt = KeepGrads()
    train_step(model, opt, x, labels, np.random.default_rng(SEED + 1))
    return digest((name, opt.grads[p]) for name, p in model.named_params())


def oa_layer() -> str:
    """Digest of outlook attention's output and every gradient at strides 1 and 2."""
    config = PRESETS["d1"]
    channels = config.stage1_dim
    rng = np.random.default_rng(SEED + 1)
    shape = (56, 56, channels)
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    cotangent = Tensor(rng.standard_normal(shape).astype(np.float32))
    named = []
    for stride in (1, 2):
        layer = OutlookAttention(np.random.default_rng(SEED), channels,
                                 config.outlooker_heads, config.kernel, stride=stride)
        with Tape() as tape:
            out = layer(x)
            loss = ops.sum_all(ops.mul(out, cotangent))
        grads = backward(loss, tape)
        named += [(f"out_s{stride}", out.data), (f"dx_s{stride}", grads[x])]
        named += [(f"{name}_s{stride}", grads[p]) for name, p in layer.named_params()]
    return digest(named)


def conv_layer() -> str:
    """Digest of two convs' outputs and gradients, with the input requiring grad."""
    rng = np.random.default_rng(SEED + 2)
    named = []
    for kernel, stride, shape, cout in ((3, 1, (2, 56, 56, 64), 64), (7, 2, (2, 64, 64, 3), 64)):
        conv = Conv2d(np.random.default_rng(SEED), kernel, shape[-1], cout, stride=stride)
        conv.bias.data[...] = rng.standard_normal(cout)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            out = conv(x)
            cotangent = Tensor(rng.standard_normal(out.shape).astype(np.float32))
            loss = ops.sum_all(ops.mul(out, cotangent))
        grads = backward(loss, tape)
        tag = f"k{kernel}_s{stride}"
        named += [(f"out_{tag}", out.data), (f"dx_{tag}", grads[x])]
        named += [(f"{name}_{tag}", grads[p]) for name, p in conv.named_params()]
    return digest(named)


def main() -> None:
    d1 = build_model(PRESETS["d1"], seed=SEED)
    d1_f64 = build_model(PRESETS["d1"], seed=SEED, dtype=np.float64)
    image = images(d1.config, 1)[0]
    tiny = PRESETS["tiny"]
    out = {
        "d1_logits": digest([("logits", d1.forward(image).data)]),
        "d1_logits_f64": digest([("logits", d1_f64.forward(
            Tensor(image.data, dtype=np.float64)).data)]),
        "d1_named_params": digest((name, p.data) for name, p in d1.named_params()),
        "d1_analytic_madds": digest([("madds", np.int64(analytic_madds(PRESETS["d1"], 224)))]),
        "tiny_b8_grads": step_grads(tiny, 8),
        "tiny_lsa_b8_grads": step_grads(dataclasses.replace(tiny, stage1_kind="lsa"), 8),
        "tiny_conv_b8_grads": step_grads(dataclasses.replace(tiny, stage1_kind="conv"), 8),
        "d1_b2_grads": step_grads(PRESETS["d1"], 2),
        "oa_layer": oa_layer(),
        "conv_layer": conv_layer(),
        "toy_trace": digest([("losses", np.array(train_toy(steps=500, seed=SEED).losses))]),
    }
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()

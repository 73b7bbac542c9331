"""The module contract: parameters named by attribute path, in assignment order."""

from pathlib import Path

import numpy as np
import pytest

from outlooker import (
    PRESETS,
    AdamW,
    ClassAttentionBlock,
    OutlookerBlock,
    Tape,
    Tensor,
    backward,
    build_model,
    cross_entropy,
    ops,
    windows,
)
from outlooker.attention import Module
from outlooker.model import Stem

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

NORM = ["gamma", "beta"]
MLP = ["w1", "b1", "w2", "b2"]


def names(module):
    return [name for name, _ in module.named_params()]


def prefixed(prefix, suffixes):
    return [f"{prefix}.{s}" for s in suffixes]


def test_outlooker_block_order():
    block = OutlookerBlock(np.random.default_rng(0), 8, 2)
    assert names(block) == (prefixed("norm1", NORM)
                            + prefixed("mixer", ["w_v", "w_a", "b_a", "w_o", "b_o"])
                            + prefixed("norm2", NORM) + prefixed("mlp", MLP))


def test_class_attention_block_order():
    # norm1 is assigned before the inherited projections, so it comes first
    block = ClassAttentionBlock(np.random.default_rng(0), 8, 2)
    assert names(block) == (prefixed("norm1", NORM)
                            + ["w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o"]
                            + prefixed("norm2", NORM) + prefixed("mlp", MLP))


def test_stem_order():
    stem = Stem(np.random.default_rng(0), 16)
    want = []
    for i in (1, 2, 3):
        want += prefixed(f"conv{i}", ["weight", "bias"]) + prefixed(f"norm{i}", NORM)
    assert names(stem) == want + ["proj_w", "proj_b"]


def test_tiny_model_names_and_parameters_agree():
    model = build_model(PRESETS["tiny"], seed=0)
    got = names(model)
    assert len(got) == 112
    assert (got[0], got[-1]) == ("stem.conv1.weight", "head_b")
    assert "stage1.1.mixer.w_v" in got and "class_blocks.1.mlp.b2" in got
    assert [id(p) for p in model.parameters()] == [id(p) for _, p in model.named_params()]


def _tracer_namespace() -> dict:
    namespace: dict = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def _traced_classes():
    return [cls for cls, _ in _tracer_namespace()["MODULES"]]


def _forward_classes():
    """The tracer's classes and every package Module subclass that has a forward."""
    found, todo = set(_traced_classes()), [Module]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("outlooker.") and hasattr(sub, "forward"):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _forward_classes(), ids=lambda cls: cls.__name__)
def test_call_is_forward(cls):
    # the benchmark tracer wraps forward and __call__ separately; a __call__
    # that called forward would nest two spans of the same name
    assert cls.__call__ is cls.forward


def test_subclass_forward_is_bound_as_call():
    class Base(Module):
        def forward(self, x):
            return x + 1

    class Inherits(Base):
        pass

    class Overrides(Base):
        def forward(self, x):
            return x + 2

    assert Base.__call__ is Base.forward and Inherits.__call__ is Base.forward
    assert Overrides.__call__ is Overrides.forward
    assert (Base()(0), Inherits()(0), Overrides()(0)) == (1, 1, 2)


def test_tracer_patch_points_all_fire():
    # the benchmark tracer wraps library functions by name; a renamed or
    # re-signatured patch point would record no span or fail mid-step
    bench = _tracer_namespace()
    model = build_model(PRESETS["tiny"], seed=0)
    opt = AdamW(model.parameters(), lr=1e-3)
    images = np.random.default_rng(0).standard_normal((2, 32, 32, 3)).astype(np.float32)
    labels = np.array([0, 1])

    geom = windows.WindowGeometry(32, 32, 3)

    def step():
        with Tape() as tape:
            logits = model.forward(images, training=True, rng=np.random.default_rng(1))
            # outlook attention's window core and the attention mix are one
            # node each, calling no Tensor-level window op, matmul or
            # softmax, so the step drives those ops itself
            x = Tensor(images, requires_grad=True)
            folded = windows.fold(windows.unfold(x, geom), geom)
            attn = ops.softmax(ops.matmul(x, ops.permute(x, (0, 1, 3, 2))))
            loss = ops.add(cross_entropy(logits, labels),
                           ops.add(ops.sum_all(folded), ops.sum_all(attn)))
            nodes = len(tape)
            grads = backward(loss, tape)
        opt.step(grads)
        return nodes

    untraced_nodes = step()
    originals = (ops.softmax, windows.unfold, Tape.record)
    tracer = bench["Tracer"]([("model", model)])
    tracer.install()
    try:
        tracer.traced_step(step)()
    finally:
        tracer.uninstall()

    recorded = {span[bench["NAME"]] for span in tracer.spans}
    expected = ({f"ops.{op}" for op in bench["OPS"]}
                | {f"windows.{op}" for op in bench["WINDOWS"]}
                | {name for _, name in bench["MODULES"]})
    assert expected - recorded == set()
    assert tracer.nodes == untraced_nodes
    for now, then in zip((ops.softmax, windows.unfold, Tape.record), originals):
        assert now is then

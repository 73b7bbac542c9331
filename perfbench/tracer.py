"""Spans around calls into outlooker, recorded from outside the library.

``Tracer.install`` replaces public functions and methods of the library's
modules and classes with timing wrappers, and ``uninstall`` puts the
originals back; nothing under ``src/`` is edited.  Each span records its
name, phase (fwd or bwd), scope (the module path, e.g. ``stage1.2.mixer``),
start and end in ns, parent span and step id.  Spans stay in memory and are
written out once, as Chrome trace-event JSON, when the run ends.

Backward time is attributed by wrapping every backward closure as the tape
records it: the closure's span carries the name and scope of the op span
that was open at record time, plus the chain of enclosing spans, so a
block's backward time is the time of the closures recorded inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from outlooker import attention, blocks, model, ops, tensor, train, windows
from outlooker.attention import CostQuery, madds
from outlooker.model import analytic_madds

OPS = ("linear", "matmul", "softmax", "log_softmax", "layer_norm", "gelu", "permute",
       "reshape", "add", "scale", "mul", "concat", "narrow", "avg_pool", "sum_all")
WINDOWS = ("unfold", "fold")
MAC_OPS = ("linear", "matmul")
# Classes whose forward (and its __call__ alias) gets a span scoped to the
# instance's module path.  Their times are inclusive of the spans inside.
MODULES = (
    (attention.OutlookAttention, "attention.oa"),
    (attention.SelfAttention, "attention.sa"),
    (attention.Conv2d, "attention.conv"),
    (blocks.OutlookerBlock, "blocks.oblock"),
    (blocks.TransformerBlock, "blocks.tblock"),
    (blocks.ClassAttentionBlock, "blocks.cablock"),
    (blocks.Mlp, "blocks.mlp"),
    (model.Stem, "model.stem"),
    (model.TwoStageModel, "model.forward"),
)

NAME, PHASE, SCOPE, T0, T1, PARENT, STEP, MACS, ANALYTIC, BATCH, NBYTES, ENCLOSING = range(12)


def module_paths(roots) -> dict[int, str]:
    """id(module) → dotted path below its root, e.g. ``stage1.2.mixer``.

    ``roots`` is a list of (label, module); a root is known by its label and
    its children by attribute names and list indices, as in ``named_params``.
    """
    paths: dict[int, str] = {}

    def walk(obj, prefix):
        for name, value in vars(obj).items():
            items = enumerate(value) if isinstance(value, list) else [(None, value)]
            for i, item in items:
                if hasattr(item, "named_params") and id(item) not in paths:
                    path = ".".join(p for p in (prefix, name, None if i is None else str(i)) if p)
                    paths[id(item)] = path
                    walk(item, path)

    for label, obj in roots:
        paths[id(obj)] = label
        walk(obj, "")
    return paths


def _oa_analytic(args):
    layer, x = args[0], args[1]
    if layer.stride != 1:
        return 0, 1
    height, width, channels = x.shape
    return madds(CostQuery(height, width, channels, layer.kernel, layer.heads), "oa"), 1


def _model_analytic(args):
    net, images = args[0], args[1]
    batch = int(np.shape(images.data if isinstance(images, tensor.Tensor) else images)[0])
    return analytic_madds(net.config) * batch, batch


ANALYTIC_COUNTS = {"attention.oa": _oa_analytic, "model.forward": _model_analytic}


class Tracer:
    """Span recorder; install() patches the library, uninstall() restores it."""

    def __init__(self, roots):
        self.paths = module_paths(roots)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.nodes = 0
        self.step = -1
        self.steps = 0
        self._undo: list[tuple] = []

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module, fname, name, **span):
        """Wrap module.fname in a span, at every binding in outlooker's modules."""
        original = getattr(module, fname)
        wrapped = self._wrap(name, original, **span)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "outlooker" or mod_name.startswith("outlooker.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def _patch_method(self, cls, attrs, name, **span):
        for attr in attrs:
            self._set(cls, attr, self._wrap(name, getattr(cls, attr), **span))

    def install(self) -> None:
        for op in OPS:
            self._patch_function(ops, op, f"ops.{op}", macs=op in MAC_OPS)
        for op in WINDOWS:
            self._patch_function(windows, op, f"windows.{op}", nbytes=True)
        for cls, name in MODULES:
            self._patch_method(cls, ("forward", "__call__"), name, scope="instance", macs=True,
                               analytic=ANALYTIC_COUNTS.get(name))
        self._patch_method(train.AdamW, ("step",), "train.adamw", scope="own")
        self._patch_function(train, "cross_entropy", "train.cross_entropy", scope="own")
        self._patch_function(tensor, "backward", "tensor.backward", scope="own")
        self._set(tensor.Tape, "record", self._wrap_record(tensor.Tape.record))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own, value = self._undo.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, fn, scope="inherit", macs=False, analytic=None, nbytes=False):
        spans, stack, paths = self.spans, self.stack, self.paths
        clock = time.perf_counter_ns
        counter = tensor.MADD_COUNTER

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if scope == "instance":
                where = paths.get(id(args[0]), name)
            elif scope == "own":
                where = name
            else:
                where = spans[parent][SCOPE] if parent >= 0 else "bench"
            span = [name, "fwd", where, 0, 0, parent, self.step, 0, 0, 1, 0, ()]
            stack.append(len(spans))
            spans.append(span)
            m0 = counter.total if macs else 0
            span[T0] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[T1] = clock()
                stack.pop()
            if macs:
                span[MACS] = counter.total - m0
            if analytic is not None:
                span[ANALYTIC], span[BATCH] = analytic(args)
            if nbytes:
                span[NBYTES] = args[0].data.nbytes + out.data.nbytes
            return out

        return functools.update_wrapper(wrapper, fn)

    def _wrap_record(self, record):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def traced_record(tape, inputs, output, backward_fn):
            self.nodes += 1
            top = spans[stack[-1]] if stack else None
            name = top[NAME] if top else "untraced"
            where = top[SCOPE] if top else "bench"
            enclosing = tuple({spans[i][NAME] for i in stack})
            count_bytes = name.startswith("windows.")

            def traced_backward(g):
                parent = stack[-1] if stack else -1
                span = [name, "bwd", where, 0, 0, parent, self.step, 0, 0, 1, 0, enclosing]
                stack.append(len(spans))
                spans.append(span)
                span[T0] = clock()
                try:
                    grads = backward_fn(g)
                finally:
                    span[T1] = clock()
                    stack.pop()
                if count_bytes:
                    span[NBYTES] = g.nbytes + sum(r.nbytes for r in grads if r is not None)
                return grads

            return record(tape, inputs, output, traced_backward)

        return functools.update_wrapper(traced_record, record)

    def traced_step(self, step_fn):
        """step_fn wrapped in a top-level ``bench.step`` span with a fresh step id."""
        run = self._wrap("bench.step", step_fn, scope="own")

        def step(*args, **kwargs):
            self.step += 1
            self.steps += 1
            return run(*args, **kwargs)

        return step

    # -- aggregation ---------------------------------------------------

    def _self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[T1] - s[T0]
        return [s[T1] - s[T0] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, memory: dict, overhead_ms: float) -> dict[str, float]:
        """Per-layer numbers per traced step; 0 where the layer did not run."""
        n = max(self.steps, 1)
        self_ns = self._self_times()
        selfs = defaultdict(int)      # (name, phase) → self ns
        incl = defaultdict(int)       # (name, phase) → inclusive ns
        calls = defaultdict(int)
        macs = defaultdict(int)
        nbytes = defaultdict(int)
        measured_vs = defaultdict(lambda: [0, 0, 0])   # name → [macs, analytic, batch]
        for s, own in zip(self.spans, self_ns):
            name, phase, dur = s[NAME], s[PHASE], s[T1] - s[T0]
            selfs[name, phase] += own
            nbytes[name] += s[NBYTES]
            if phase == "fwd":
                incl[name, "fwd"] += dur
                calls[name] += 1
                macs[name] += s[MACS]
                if s[ANALYTIC]:
                    acc = measured_vs[name]
                    acc[0] += s[MACS]
                    acc[1] += s[ANALYTIC]
                    acc[2] += s[BATCH]
            else:
                for outer in s[ENCLOSING]:
                    incl[outer, "bwd"] += dur

        def ms(ns):
            return ns / n / 1e6

        def rate(name):
            ns = incl[name, "fwd"]
            return macs[name] / ns if ns else 0.0   # MAC per ns == GMAC/s

        def ratio(name):
            measured, analytic, _ = measured_vs[name]
            return measured / analytic if analytic else 0.0

        out = {
            "tensor.tape_nodes": self.nodes / n,
            "tensor.backward.self_ms": ms(selfs["tensor.backward", "fwd"]),
            "tensor.backward.peak_mb": memory["backward_peak_mb"],
        }
        for op in OPS:
            key = f"ops.{op}"
            out[f"{key}.calls"] = calls[key] / n
            out[f"{key}.fwd_ms"] = ms(selfs[key, "fwd"])
            out[f"{key}.bwd_ms"] = ms(selfs[key, "bwd"])
        for op in MAC_OPS:
            out[f"ops.{op}.gmacs_per_s"] = rate(f"ops.{op}")
        for op in WINDOWS:
            key = f"windows.{op}"
            out[f"{key}.calls"] = calls[key] / n
            out[f"{key}.fwd_ms"] = ms(selfs[key, "fwd"])
            out[f"{key}.bwd_ms"] = ms(selfs[key, "bwd"])
            out[f"{key}.computed_mb"] = nbytes[key] / n / 1e6
        for _, name in MODULES:
            if name == "model.forward":
                continue
            out[f"{name}.fwd_ms"] = ms(incl[name, "fwd"])
            out[f"{name}.bwd_ms"] = ms(incl[name, "bwd"])
            if name.startswith("attention."):
                out[f"{name}.gmacs_per_s"] = rate(name)
        out["attention.oa.madds_ratio"] = ratio("attention.oa")
        fwd = measured_vs["model.forward"]
        out["model.forward.madds"] = fwd[0] / fwd[2] if fwd[2] else 0.0
        out["model.forward.madds_ratio"] = ratio("model.forward")
        out["model.forward.retained_mb"] = memory["retained_mb"]
        out["train.adamw.step_ms"] = ms(selfs["train.adamw", "fwd"])
        out["train.cross_entropy.ms"] = ms(incl["train.cross_entropy", "fwd"])
        out["bench.trace_overhead_ms"] = overhead_ms
        return out

    def self_time_table(self, limit: int = 30) -> list[str]:
        """Rows of self time per step by (scope, span), largest first."""
        n = max(self.steps, 1)
        rows = defaultdict(lambda: [0, 0, 0])   # (scope, name) → [fwd ns, bwd ns, fwd calls]
        total = 0
        for s, own in zip(self.spans, self._self_times()):
            row = rows[s[SCOPE], s[NAME]]
            row[0 if s[PHASE] == "fwd" else 1] += own
            row[2] += s[PHASE] == "fwd"
            total += own
        ranked = sorted(rows.items(), key=lambda kv: -(kv[1][0] + kv[1][1]))
        lines = [f"  {'scope':<24} {'span':<22} {'fwd ms':>9} {'bwd ms':>9} {'calls':>7} "
                 f"{'share':>6}"]
        for (scope, name), (fns, bns, count) in ranked[:limit]:
            share = (fns + bns) / total if total else 0.0
            lines.append(f"  {scope:<24} {name:<22} {fns / n / 1e6:9.3f} {bns / n / 1e6:9.3f} "
                         f"{count / n:7.1f} {share:6.1%}")
        rest = ranked[limit:]
        if rest:
            ns = sum(r[0] + r[1] for _, r in rest)
            lines.append(f"  ({len(rest)} more rows, {ns / n / 1e6:.3f} ms per step, "
                         f"{ns / total if total else 0:.1%})")
        lines.append(f"  self time per traced step: {total / n / 1e6:.3f} ms "
                     f"over {self.steps} steps")
        return lines

    def write_chrome_trace(self, path, metadata: dict) -> None:
        base = min((s[T0] for s in self.spans), default=0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": f"outlooker perfbench {metadata.get('workload', '')}"}}]
        for i, s in enumerate(self.spans):
            args = {"id": i, "parent": s[PARENT], "step": s[STEP], "scope": s[SCOPE]}
            if s[MACS]:
                args["madds"] = s[MACS]
            if s[NBYTES]:
                args["computed_bytes"] = s[NBYTES]
            events.append({"name": s[NAME], "cat": s[PHASE], "ph": "X", "pid": 1, "tid": 1,
                           "ts": (s[T0] - base) / 1e3, "dur": (s[T1] - s[T0]) / 1e3,
                           "args": args})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata},
                      fh, separators=(",", ":"))

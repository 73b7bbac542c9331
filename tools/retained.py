#!/usr/bin/env python3
"""What one taped training forward leaves on the tape, per op kind.

Run from the repository root, which holds ``src/outlooker``:

    python3 tools/retained.py --config d1 --batch 2

It builds the preset's model at seed 0 and runs one taped forward and
cross-entropy loss on standard-normal images, with stochastic depth drawn as
in training.  Then it walks the backward closure of every tape node, in
recording order.  Each array a closure reaches, through its cells and
through Tensors, tuples, lists and nested functions, is counted by its base
buffer, once, under the first node that reaches it; parameters are left out.
It prints one row per op kind (the function that recorded the node): its
node count and the MB its nodes keep, largest first, then the totals.

With ``--peak`` it runs the same forward under ``tracemalloc``, started after
the model and the images are built, and prints the forward's traced peak.
Then it wraps every backward closure so that the traced peak is reset before
the closure runs and read after it, runs the backward, and prints the five
nodes with the highest peak: the node's index in recording order, its op kind
and its peak, counted from where tracing started.
"""

from __future__ import annotations

import argparse
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from outlooker import PRESETS, Tape, Tensor, backward, build_model  # noqa: E402
from outlooker.train import cross_entropy  # noqa: E402

SEED = 0


def closure_arrays(fn) -> list[np.ndarray]:
    """Every array ``fn``'s closure reaches, through Tensors, tuples, lists and functions."""
    found, seen, todo = [], set(), [fn]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, Tensor):
            todo.append(item.data)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif callable(item) and getattr(item, "__closure__", None):
            todo.extend(cell.cell_contents for cell in item.__closure__)
    return found


def base_of(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def op_kind(fn) -> str:
    """The function that recorded a node: ``linear`` for ``linear.<locals>.backward_fn``."""
    return fn.__qualname__.split(".<locals>")[0]


def retained(tape: Tape, exclude=()) -> tuple[Counter, Counter]:
    """(nodes, bytes) per op kind; each base buffer counted once, ``exclude``'s never."""
    seen = {id(base_of(t.data)) for t in exclude}
    nodes, held = Counter(), Counter()
    for _, _, fn in tape._nodes:
        kind = op_kind(fn)
        nodes[kind] += 1
        for arr in closure_arrays(fn):
            base = base_of(arr)
            if id(base) not in seen:
                seen.add(id(base))
                held[kind] += base.nbytes
    return nodes, held


def backward_peaks(tape: Tape, loss: Tensor) -> list[tuple[int, int, str]]:
    """(traced peak bytes, recording index, op kind) of each backward node that ran.

    Each closure on ``tape`` is wrapped to reset tracemalloc's peak before it
    runs and to read it after, so a node's peak is the highest traced memory
    while it ran.  Tracing must be on; the backward consumes ``tape``.
    """
    peaks = []

    def traced(index, fn):
        def run(g):
            tracemalloc.reset_peak()
            grads = fn(g)
            peaks.append((tracemalloc.get_traced_memory()[1], index, op_kind(fn)))
            return grads
        return run

    tape._nodes[:] = [(refs, key, traced(i, fn)) for i, (refs, key, fn) in enumerate(tape._nodes)]
    backward(loss, tape)
    return peaks


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default="d1", choices=sorted(PRESETS))
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--peak", action="store_true",
                        help="print the forward's traced peak and the five backward nodes "
                             "with the highest one, instead of the retained memory")
    args = parser.parse_args(argv)

    config = PRESETS[args.config]
    model = build_model(config, seed=SEED)
    rng = np.random.default_rng(SEED)
    images = Tensor(rng.standard_normal(
        (args.batch, config.image_size, config.image_size, 3)).astype(np.float32))
    labels = rng.integers(0, config.num_classes, size=args.batch)

    def taped_loss():
        with Tape() as tape:
            logits = model.forward(images, training=True, rng=np.random.default_rng(SEED + 1))
            return tape, cross_entropy(logits, labels)

    if args.peak:
        tracemalloc.start()
        try:
            tape, loss = taped_loss()
            forward_peak = tracemalloc.get_traced_memory()[1]
            peaks = sorted(backward_peaks(tape, loss), reverse=True)[:5]
        finally:
            tracemalloc.stop()
        print(f"forward peak {forward_peak / 1e6:.2f} MB")
        print(f"{'node':>6} {'op kind':<28} {'MB':>9}")
        for peak, index, kind in peaks:
            print(f"{index:>6} {kind:<28} {peak / 1e6:>9.2f}")
        return

    tape, _ = taped_loss()
    nodes, held = retained(tape, exclude=model.parameters())
    print(f"{'op kind':<28} {'nodes':>6} {'MB':>9}")
    for kind in sorted(nodes, key=lambda k: (-held[k], k)):
        print(f"{kind:<28} {nodes[kind]:>6} {held[kind] / 1e6:>9.3f}")
    print(f"{'total':<28} {sum(nodes.values()):>6} {sum(held.values()) / 1e6:>9.3f}")


if __name__ == "__main__":
    main()

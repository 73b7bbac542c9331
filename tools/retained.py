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
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from outlooker import PRESETS, Tape, Tensor, build_model  # noqa: E402
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", default="d1", choices=sorted(PRESETS))
    parser.add_argument("--batch", type=int, default=2)
    args = parser.parse_args(argv)

    config = PRESETS[args.config]
    model = build_model(config, seed=SEED)
    rng = np.random.default_rng(SEED)
    images = Tensor(rng.standard_normal(
        (args.batch, config.image_size, config.image_size, 3)).astype(np.float32))
    labels = rng.integers(0, config.num_classes, size=args.batch)
    with Tape() as tape:
        logits = model.forward(images, training=True, rng=np.random.default_rng(SEED + 1))
        cross_entropy(logits, labels)
        nodes, held = retained(tape, exclude=model.parameters())

    print(f"{'op kind':<28} {'nodes':>6} {'MB':>9}")
    for kind in sorted(nodes, key=lambda k: (-held[k], k)):
        print(f"{kind:<28} {nodes[kind]:>6} {held[kind] / 1e6:>9.3f}")
    print(f"{'total':<28} {sum(nodes.values()):>6} {sum(held.values()) / 1e6:>9.3f}")


if __name__ == "__main__":
    main()

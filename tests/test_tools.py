"""The scripts under tools/: the backward peak report of retained.py, fingerprints.py's steps."""

import numpy as np

from outlooker import PRESETS, Tape, Tensor, build_model
from outlooker.train import cross_entropy


def test_peak_report_lists_five_backward_nodes(capsys, retained_tool):
    retained_tool.main(["--config", "tiny", "--batch", "1", "--peak"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("forward peak ") and lines[0].endswith(" MB")
    assert lines[1].split() == ["node", "op", "kind", "MB"]
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == 5
    peaks = [float(row[-1]) for row in rows]
    assert peaks == sorted(peaks, reverse=True) and peaks[-1] > 0


def test_backward_peaks_reads_every_node_once(rng, retained_tool):
    # every recorded node runs once under its wrapper, and the backward
    # consumes the tape
    model = build_model(PRESETS["tiny"], seed=0)
    images = Tensor(rng.standard_normal((1, 32, 32, 3)).astype(np.float32))
    with Tape() as tape:
        loss = cross_entropy(model.forward(images), np.array([1]))
    kinds = [retained_tool.op_kind(fn) for _, _, fn in tape._nodes]
    peaks = retained_tool.backward_peaks(tape, loss)
    assert len(tape) == 0
    assert sorted((index, kind) for _, index, kind in peaks) == list(enumerate(kinds))
    assert "Mlp.forward" in kinds


def test_step_grads_digest_is_repeatable(fingerprints_tool):
    # one train_step of tiny at batch 2, twice, from the same seeds
    first = fingerprints_tool.step_grads(PRESETS["tiny"], 2)
    assert len(first) == 64 and set(first) <= set("0123456789abcdef")
    assert fingerprints_tool.step_grads(PRESETS["tiny"], 2) == first

"""Config plumbing, presets, model forward, parameter/cost accounting."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from outlooker import (
    MADD_COUNTER,
    PRESETS,
    ModelConfig,
    Tape,
    Tensor,
    analytic_madds,
    backward,
    build_model,
    count_params,
    count_params_config,
    cross_entropy,
    ops,
    patchify,
)
from outlooker.errors import ContractError, ShapeError
from outlooker.model import Stem


class TestModelConfig:
    def test_json_roundtrip(self):
        config = PRESETS["d1"]
        again = ModelConfig.from_json(json.dumps(dataclasses.asdict(config)))
        assert again == config

    def test_unknown_field_rejected(self):
        raw = dataclasses.asdict(PRESETS["tiny"])
        raw["flux_capacitance"] = 3
        with pytest.raises(ContractError):
            ModelConfig.from_json(json.dumps(raw))

    def test_patch_size_field_rejected(self):
        # the stem always reduces by 8x and the stage merge by 2x; the grids
        # follow from image_size alone, so neither retired field is accepted
        assert PRESETS["tiny"].stage1_grid == 32 // 8
        assert PRESETS["tiny"].stage2_grid == 32 // 16
        for field, value in (("patch_size", 8), ("downsample", 2)):
            raw = dataclasses.asdict(PRESETS["tiny"])
            raw[field] = value
            with pytest.raises(ContractError):
                ModelConfig.from_json(json.dumps(raw))

    @pytest.mark.parametrize("text", ["[]", "3", "null"])
    def test_json_that_is_not_an_object_rejected(self, text):
        with pytest.raises(ContractError):
            ModelConfig.from_json(text)

    def test_bad_stage1_kind_rejected(self):
        with pytest.raises(ContractError):
            ModelConfig(stage1_kind="dense")

    def test_image_size_must_be_multiple_of_16(self):
        for size in (100, 0, -16):
            with pytest.raises(ShapeError):
                ModelConfig(image_size=size)

    def test_unbalanced_widths_warn(self):
        with pytest.warns(UserWarning):
            ModelConfig(stage1_dim=192, stage2_dim=408)

    def test_grids(self):
        config = PRESETS["d1"]
        assert config.stage1_grid == 28
        assert config.stage2_grid == 14


class TestPresets:
    def test_total_layer_progression(self):
        got = tuple(PRESETS[n].total_layers for n in ("d1", "d2", "d3", "d4", "d5"))
        assert got == (18, 24, 36, 36, 48)


class TestParamAccounting:
    @pytest.mark.parametrize("name", ["tiny", "d1"])
    def test_symbolic_equals_allocated(self, name):
        config = PRESETS[name]
        assert count_params_config(config) == count_params(build_model(config, seed=0))

    @pytest.mark.parametrize("kind", ["lsa", "conv"])
    def test_symbolic_equals_allocated_for_swaps(self, kind):
        config = dataclasses.replace(PRESETS["tiny"], stage1_kind=kind)
        assert count_params_config(config) == count_params(build_model(config, seed=0))

    @pytest.mark.parametrize("kind", ["outlook", "lsa", "conv"])
    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_symbolic_equals_allocated_tiny_at_sizes(self, kind, size):
        config = dataclasses.replace(PRESETS["tiny"], stage1_kind=kind, image_size=size)
        assert count_params_config(config) == count_params(build_model(config, seed=0))

    def test_symbolic_count_frozen_d1(self):
        assert count_params_config(PRESETS["d1"]) == 26_265_664

    def test_swap_variants_stay_close(self):
        base = count_params_config(PRESETS["d1"])
        for kind in ("lsa", "conv"):
            variant = dataclasses.replace(PRESETS["d1"], stage1_kind=kind)
            ratio = count_params_config(variant) / base
            assert abs(ratio - 1.0) < 0.05, (kind, ratio)


class TestAnalyticMadds:
    def test_frozen_d1_at_224(self):
        # booking the outlook aggregation as a K²·C sweep would give
        # 6_832_639_488; K⁴·C adds 4 outlookers × 14² stride-2 windows ×
        # C=192 × (3⁴−3²) = 10_838_016; equals the counted d1 forward at 224²
        assert analytic_madds(PRESETS["d1"], 224) == 6_843_477_504

    @pytest.mark.parametrize("stage1_kind", ["outlook", "lsa", "conv"])
    def test_equals_counted_tiny_forward(self, stage1_kind):
        # the tiny preset runs outlook attention at stride 2, so this also
        # checks the closed form's stride-adjusted window count
        config = dataclasses.replace(PRESETS["tiny"], stage1_kind=stage1_kind)
        model = build_model(config, seed=0)
        images = np.random.default_rng(1).standard_normal(
            (1, config.image_size, config.image_size, 3))
        start = MADD_COUNTER.total
        model.forward(images)
        assert MADD_COUNTER.total - start == analytic_madds(config)

    def test_only_forward_gemms_book_multiply_adds(self, monkeypatch):
        # every booking goes through ops._gemm, and backward books nothing: a
        # taped batch-2 step moves the counter by the forward GEMMs alone
        booked = []
        gemm = ops._gemm

        def recording(a, b):
            out = gemm(a, b)
            booked.append(out.size * a.shape[-1])
            return out

        monkeypatch.setattr(ops, "_gemm", recording)
        config = PRESETS["tiny"]
        model = build_model(config, seed=0)
        rng = np.random.default_rng(1)
        images = Tensor(rng.standard_normal((2, config.image_size, config.image_size, 3)),
                        dtype=np.float32)
        start = MADD_COUNTER.total
        with Tape() as tape:
            logits = model.forward(images, training=True, rng=rng)
            loss = cross_entropy(logits, np.array([3, 7]))
        backward(loss, tape)
        assert MADD_COUNTER.total - start == sum(booked) == 2 * analytic_madds(config)

    def test_resolution_must_be_multiple_of_16(self):
        with pytest.raises(ShapeError):
            analytic_madds(PRESETS["d1"], 100)

    @pytest.mark.parametrize("resolution", [0, -16, -224])
    def test_non_positive_resolution_rejected(self, resolution):
        with pytest.raises(ShapeError):
            analytic_madds(PRESETS["d1"], resolution)

    def test_grows_with_resolution(self):
        lo = analytic_madds(PRESETS["d1"], 224)
        hi = analytic_madds(PRESETS["d1"], 448)
        assert hi > 4 * lo  # self-attention term grows faster than area


class TestPatchify:
    def test_tiles_row_major(self):
        x = Tensor(np.arange(16.0, dtype=np.float64).reshape(4, 4, 1))
        got = patchify(x, 2)
        assert got.shape == (2, 2, 4)
        np.testing.assert_allclose(got.data[0, 0], [0, 1, 4, 5])
        np.testing.assert_allclose(got.data[1, 1], [10, 11, 14, 15])

    def test_indivisible_extent_rejected(self):
        with pytest.raises(ShapeError):
            patchify(Tensor(np.zeros((5, 4, 1))), 2)

    @pytest.mark.parametrize("patch", [2.0, True, 0], ids=["float", "bool", "zero"])
    def test_non_count_patch_rejected(self, patch):
        with pytest.raises(ShapeError):
            patchify(Tensor(np.zeros((4, 4, 1))), patch)


class TestStem:
    def test_zero_image_maps_to_zero_tokens(self):
        stem = Stem(np.random.default_rng(0), 16)
        out = stem(Tensor(np.zeros((32, 32, 3), dtype=np.float32)))
        assert out.shape == (4, 4, 16)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-7)

    def test_eighth_resolution(self):
        stem = Stem(np.random.default_rng(0), 16)
        out = stem(Tensor(np.zeros((64, 64, 3), dtype=np.float32)))
        assert out.shape == (8, 8, 16)

    def test_untaped_forward_drops_each_map_once_read(self, rng):
        # a LayerNorm holds its input, a centred copy and its output; nothing
        # else of the 112² maps may stay alive beside them
        config = PRESETS["d1"]
        stem = Stem(np.random.default_rng(0), config.stage1_dim)
        size = config.image_size
        x = Tensor(rng.standard_normal((1, size, size, 3)), dtype=np.float32)
        stem_map = (size // 2) ** 2 * 64 * 4
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stem(x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * stem_map


class TestForward:
    def test_batch_shape_and_dtype(self, rng):
        model = build_model(PRESETS["tiny"], seed=0)
        logits = model.forward(rng.standard_normal((3, 32, 32, 3)))
        assert logits.shape == (3, 10)
        assert logits.dtype == np.float32

    def test_identical_rows_identical_logits(self, rng):
        model = build_model(PRESETS["tiny"], seed=0)
        one = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
        batch = np.repeat(one, 3, axis=0)
        logits = model.forward(batch).data
        np.testing.assert_array_equal(logits[0], logits[1])
        np.testing.assert_array_equal(logits[1], logits[2])

    def test_wrong_resolution_rejected(self, rng):
        model = build_model(PRESETS["tiny"], seed=0)
        with pytest.raises(ShapeError):
            model.forward(rng.standard_normal((1, 48, 48, 3)))

    def test_empty_batch_rejected_before_any_layer(self):
        model = build_model(PRESETS["tiny"], seed=0)
        start = MADD_COUNTER.total
        with pytest.raises(ShapeError):
            model.forward(np.zeros((0, 32, 32, 3), dtype=np.float32))
        assert MADD_COUNTER.total == start

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_rejected(self, bad, rng):
        model = build_model(PRESETS["tiny"], seed=0)
        images = rng.standard_normal((2, 32, 32, 3)).astype(np.float32)
        images[1, 5, 7, 2] = bad
        with pytest.raises(ContractError):
            model.forward(images)
        with pytest.raises(ContractError):
            model.forward(np.full((1, 32, 32, 3), bad, dtype=np.float32))

    def test_doubling_head_doubles_logits(self, rng):
        model = build_model(PRESETS["tiny"], seed=0)
        x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
        base = model.forward(x).data.copy()
        model.head_w.data *= 2.0
        np.testing.assert_allclose(model.forward(x).data, 2.0 * base, rtol=1e-6)

    def test_same_seed_same_model(self, rng):
        x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
        a = build_model(PRESETS["tiny"], seed=7).forward(x).data
        b = build_model(PRESETS["tiny"], seed=7).forward(x).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["lsa", "conv"])
    def test_stage1_swaps_run(self, kind, rng):
        config = dataclasses.replace(PRESETS["tiny"], stage1_kind=kind)
        model = build_model(config, seed=0)
        logits = model.forward(rng.standard_normal((2, 32, 32, 3)))
        assert logits.shape == (2, 10)
        assert np.all(np.isfinite(logits.data))


class TestGradientFlow:
    def test_tape_nodes_do_not_grow_with_batch(self, rng):
        # the batch is an array axis: one forward records the same ops for
        # one image as for eight
        model = build_model(PRESETS["tiny"], seed=0)
        counts = []
        for batch in (1, 8):
            x = rng.standard_normal((batch, 32, 32, 3)).astype(np.float32)
            with Tape() as tape:
                cross_entropy(model.forward(x, training=True, rng=np.random.default_rng(0)),
                              np.arange(batch) % 10)
            counts.append(len(tape))
        assert counts[0] == counts[1]

    def test_every_parameter_receives_gradient(self, rng):
        model = build_model(PRESETS["tiny"], seed=0)
        x = rng.standard_normal((4, 32, 32, 3)).astype(np.float32)
        labels = np.array([0, 3, 7, 9])
        with Tape() as tape:
            loss = cross_entropy(model.forward(x), labels)
            grads = backward(loss, tape)
        dead = [name for name, p in model.named_params()
                if float(np.abs(grads[p]).max()) == 0.0]
        assert dead == []

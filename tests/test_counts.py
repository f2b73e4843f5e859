"""One rule for every extent, count and seed, through the public entry points.

An integer is taken exactly up to 2**63; a float only when it is whole and
below 2**53; anything else raises the caller's error type. Huge counts go
only to entry points that allocate nothing from them: never to DepthBins,
BevGrid or `repeats`.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bevx import (
    BevGrid,
    CameraRig,
    ConfigError,
    DepthBins,
    GeometryError,
    SparseBinaryMatrix,
    UsageError,
    ValidationError,
    cost_model,
    generate_frustum,
    load_scene,
    scene_digest,
    scene_to_dict,
)
from bevx.bench import TransformSetting, run_bench, run_check
from test_geometry import simple_camera

BIG = 2**53 + 1  # the first integer that float64 cannot hold
# a whole float too large to stand for one count, a one-element sequence,
# and the first integer past int64
HUGE_BAD = [2.0**60, [5], 2**63]
HUGE_IDS = ["float-2**60", "list", "2**63"]


def rig(**extents):
    args = dict(feature_width=4, feature_height=4, image_stride=8)
    args.update(extents)
    return CameraRig((simple_camera(),), **args)


class TestExact:
    """Integers past 2**53 are counts, not floats: nothing rounds them."""

    def test_matrix_extent(self):
        m = SparseBinaryMatrix(1, BIG, [0, 0], [])
        assert m.cols == BIG and type(m.cols) is int

    def test_from_coo_extent(self):
        cols = 3074457345618258602  # (2**63 - 1) // 3, far past 2**53
        m = SparseBinaryMatrix.from_coo(3, cols, [2], [5])
        assert m.cols == cols
        assert m.row_offsets.tolist() == [0, 0, 0, 1]
        assert m.col_indices.tolist() == [5]

    def test_cost_model_extent(self):
        r = cost_model(BIG, 1, 1, 1, 1)
        assert r.flops_composed == 2 * BIG
        assert r.flops_reformulated == 2 * (BIG + 2)

    def test_setting_channels(self):
        s = TransformSetting("big", BIG, 1, 1, 1, 1)
        assert s.channels == BIG and type(s.channels) is int

    @pytest.mark.parametrize(
        "value", [np.int64(7), np.uint8(7), np.array(7), 7.0, np.float32(7.0)],
        ids=["int64", "uint8", "0-d", "float", "float32"],
    )
    def test_numpy_and_whole_float_counts_are_ints(self, value):
        assert rig(feature_width=value).feature_width == 7
        assert type(rig(feature_width=value).feature_width) is int

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1))
    @example(2**53 + 1)
    @example(2**63 - 1)
    def test_every_int64_extent_is_kept(self, n):
        assert SparseBinaryMatrix(1, n, [0, 0], []).cols == n


class TestRejected:
    """Each entry point raises its own error type for a bad count."""

    @pytest.mark.parametrize("bad", HUGE_BAD, ids=HUGE_IDS)
    def test_matrix(self, bad):
        with pytest.raises(ValidationError, match="cols"):
            SparseBinaryMatrix(1, bad, [0, 0], [])
        with pytest.raises(ValidationError, match="cols"):
            SparseBinaryMatrix.from_coo(1, bad, [], [])

    @pytest.mark.parametrize("bad", HUGE_BAD, ids=HUGE_IDS)
    def test_cost_model(self, bad):
        with pytest.raises(ValidationError, match="cost_model"):
            cost_model(80, 112, bad, 128, 128)

    @pytest.mark.parametrize("bad", HUGE_BAD, ids=HUGE_IDS)
    def test_setting(self, bad):
        with pytest.raises(ValidationError, match="channels"):
            TransformSetting("bad", bad, 16, 44, 128, 128)

    @pytest.mark.parametrize("bad", HUGE_BAD, ids=HUGE_IDS)
    def test_rig(self, bad):
        with pytest.raises(GeometryError, match="image_stride"):
            rig(image_stride=bad)

    @pytest.mark.parametrize("bad", HUGE_BAD, ids=HUGE_IDS)
    def test_reference_row(self, bad):
        with pytest.raises(GeometryError, match="reference_row"):
            generate_frustum(rig(), DepthBins(1, 5, 3), bad)

    @pytest.mark.parametrize("bad", HUGE_BAD, ids=HUGE_IDS)
    def test_check_request(self, small_config_path, bad):
        with pytest.raises(UsageError, match="seed"):
            run_check(small_config_path, trials=1, seed=bad)
        with pytest.raises(UsageError, match="trials"):
            run_check(small_config_path, trials=bad, seed=0)

    def test_run_request(self, small_config_path):
        with pytest.raises(UsageError, match="seed"):
            run_bench(small_config_path, ["S1"], ["matrixvt"], repeats=3, seed=2**63)
        with pytest.raises(UsageError, match="repeats"):
            run_bench(small_config_path, ["S1"], ["matrixvt"], repeats=[5])

    def test_one_element_sequences_are_not_counts(self):
        for bad in ([5], (5,), np.array([5])):
            with pytest.raises(GeometryError, match="bin count must be a whole number"):
                DepthBins(1.0, 5.0, bad)
            with pytest.raises(GeometryError, match="h_cells must be a whole number"):
                BevGrid(4.0, bad, 4)
            with pytest.raises(ValidationError, match="rows must be a whole number"):
                SparseBinaryMatrix(bad, 1, [0] * 6, [])

    def test_lower_bounds_are_named(self):
        with pytest.raises(GeometryError, match="feature_width must be positive"):
            rig(feature_width=0)
        with pytest.raises(GeometryError, match="bin count must be positive"):
            DepthBins(1.0, 5.0, 0)
        with pytest.raises(GeometryError, match="w_cells must be positive"):
            BevGrid(4.0, 4, 0)
        with pytest.raises(GeometryError, match="reference_row must be non-negative"):
            generate_frustum(rig(), DepthBins(1, 5, 3), -1)
        with pytest.raises(ValidationError, match="rows must be non-negative"):
            SparseBinaryMatrix(-1, 1, [0], [])
        with pytest.raises(ValidationError, match="cost_model: extent must be positive"):
            cost_model(80, 112, 44, 0, 128)


class TestConfigCounts:
    def test_whole_float_count_is_the_same_scene(self, rig_scene):
        doc = scene_to_dict(rig_scene)
        doc["depth"]["count"] = float(doc["depth"]["count"])
        assert scene_digest(load_scene(doc)) == scene_digest(rig_scene)
        assert scene_to_dict(load_scene(doc)) == scene_to_dict(rig_scene)

    @pytest.mark.parametrize("bad", [112.5, [112], 2.0**60], ids=["fraction", "list", "huge-float"])
    def test_bad_count_is_a_config_error(self, rig_scene, bad):
        doc = scene_to_dict(rig_scene)
        doc["feature_width"] = bad  # CameraRig allocates nothing from it
        with pytest.raises(ConfigError, match="feature_width"):
            load_scene(doc)

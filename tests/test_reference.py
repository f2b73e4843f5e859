import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevx import (
    BevGrid,
    Camera,
    CameraRig,
    DepthBins,
    FrustumGeometry,
    ShapeError,
    SparseBinaryMatrix,
    ValidationError,
    build_ftm,
    generate_frustum,
    lift,
    reference,
    splat_reference,
    vt_ftm,
)
from bevx.bench import PRESETS, setting_scene
from oracles import (
    cell_rect,
    densify,
    from_dense,
    ftm_loop,
    lift_loop,
    locate_scan,
    random_scene,
    splat_loop,
)


def single_ray_setup(n_d=8, d_min=1.0, d_max=9.0, extent=10.0, cells=20):
    """One camera, one feature column looking down ego +x."""
    stride = 4
    k = np.array([[10.0, 0.0, 0.5 * stride], [0.0, 10.0, 0.5 * stride], [0, 0, 1.0]])
    cam = Camera(k, np.eye(3), np.zeros(3))
    rig = CameraRig((cam,), 1, 1, stride)
    bins = DepthBins(d_min, d_max, n_d)
    grid = BevGrid(extent, cells, cells)
    return generate_frustum(rig, bins, 0), bins, grid


def frustum_at_cells(grid, targets):
    """One camera and one depth bin, one column per target: column k's ground
    point is the center of cell targets[k], or left of the grid when
    targets[k] < 0. Its lifted tensors are (len(targets), 1, C)."""
    points = np.zeros((1, len(targets), 1, 3))
    points[0, :, 0, 0] = -grid.extent - 1.0
    for k, t in enumerate(targets):
        if t >= 0:
            x0, y0, x1, y1 = cell_rect(grid, t)
            points[0, k, 0, :2] = (x0 + x1) / 2, (y0 + y1) / 2
    return FrustumGeometry(points)


def rel_err(a, b):
    den = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64)).max() / den


class TestLift:
    def test_one_hot_depth(self, rng):
        f = rng.random((5, 3), dtype=np.float32)
        d = np.zeros((5, 4), dtype=np.float32)
        d[:, 2] = 1.0
        out = lift(f, d)
        np.testing.assert_array_equal(out[:, 2, :], f)
        out[:, 2, :] = 0
        assert not out.any()

    def test_uniform_depth(self, rng):
        f = rng.random((4, 3), dtype=np.float32)
        d = np.full((4, 5), 1.0 / 5.0, dtype=np.float32)
        out = lift(f, d)
        for k in range(5):
            np.testing.assert_array_equal(out[:, k, :], f * np.float32(0.2))

    def test_matches_triple_loop_exactly(self, rng):
        f = rng.random((6, 4), dtype=np.float32)
        d = rng.random((6, 7), dtype=np.float32)
        np.testing.assert_array_equal(lift(f, d), lift_loop(f, d))

    def test_signed_zeros_and_subnormals_match_the_loop(self, rng):
        """Bit for bit once -0.0 is folded to +0.0: the batched product
        gives +0.0 where the loop gives -0.0 (a negative feature times a
        zero depth), and the two compare equal."""
        tiny = np.finfo(np.float32).smallest_subnormal
        f = rng.standard_normal((7, 9), dtype=np.float32)
        f[:, 0] = 0.0
        f[:, 1] = [tiny, -tiny, 3 * tiny, -1e-39, 1e-40, -1.0, 2.5]
        d = rng.random((7, 6), dtype=np.float32)
        d[:, 0] = 0.0
        d[1, :] = 0.0
        d[2, 1] = tiny
        d[3, 2] = 0.5
        out, loop = lift(f, d), lift_loop(f, d)
        assert np.array_equal(out, loop)
        assert np.signbit(loop[loop == 0]).any() and not np.signbit(out[out == 0]).any()
        zero = np.float32(0.0)
        assert np.array_equal((out + zero).view(np.uint32), (loop + zero).view(np.uint32))

    @pytest.mark.parametrize("setting", sorted(PRESETS))
    def test_equals_the_broadcast_product_on_every_setting(self, setting, rig_scene, rng):
        scene = setting_scene(rig_scene, PRESETS[setting])
        w = scene.rig.n_cameras * scene.rig.feature_width
        f = rng.random((w, PRESETS[setting].channels), dtype=np.float32) - 0.5
        d = rng.random((w, scene.bins.count), dtype=np.float32)
        out = lift(f, d)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, d[:, :, None] * f[:, None, :])

    @pytest.mark.parametrize("w, n_d, c", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)])
    def test_zero_extents(self, w, n_d, c):
        out = lift(np.ones((w, c)), np.ones((w, n_d)))
        assert out.shape == (w, n_d, c) and out.dtype == np.float32

    @pytest.mark.parametrize(
        "depth, feature, overflows",
        [
            # exactly FLT_MAX plus half an ulp, 2**128 - 2**103: rounds to inf
            (18631 * 2.0**52, 1801 * 2.0**51, True),
            (-18631 * 2.0**52, 1801 * 2.0**51, True),
            # exactly FLT_MAX, 2**128 - 2**104
            ((2**24 - 1) * 2.0**52, 2.0**52, False),
            ((2**24 - 1) * 2.0**52, -(2.0**52), False),
        ],
        ids=["past-max", "negative-past-max", "max", "negative-max"],
    )
    def test_float32_overflow_is_refused_before_the_product(self, depth, feature, overflows):
        with np.errstate(over="ignore"):
            product = np.float32(depth) * np.float32(feature)
        assert np.isinf(product) == overflows  # the bound is numpy's own rounding
        f = np.ones((3, 4), np.float32)
        d = np.full((3, 5), 0.5, np.float32)
        f[1, 2], d[1, 3] = feature, depth
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if overflows:
                with pytest.raises(ValidationError, match="^lift: float32 overflow"):
                    lift(f, d)
            else:
                out = lift(f, d)
                assert out[1, 3, 2] == product and np.isfinite(out).all()

    def test_linear_in_features(self, rng):
        f = rng.random((3, 2), dtype=np.float32)
        d = rng.random((3, 4), dtype=np.float32)
        np.testing.assert_allclose(
            lift(2.0 * f, d), 2.0 * lift(f, d), rtol=1e-6
        )

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            lift(rng.random((3, 2)), rng.random((4, 5)))
        with pytest.raises(ShapeError):
            lift(rng.random((3,)), rng.random((3, 5)))


class TestSplatReference:
    def test_all_points_outside(self, rng):
        fr, _, _ = single_ray_setup(d_min=100.0, d_max=200.0)
        grid = BevGrid(10.0, 4, 4)
        lifted = rng.random((1, 8, 3), dtype=np.float32)
        assert not splat_reference(lifted, fr, grid).any()

    def test_one_point_splat(self):
        fr, bins, grid = single_ray_setup()
        feats = np.array([[2.0, 5.0, 7.0]], dtype=np.float32)
        depth = np.zeros((1, 8), dtype=np.float32)
        depth[0, 3] = 1.0
        bev = splat_reference(lift(feats, depth), fr, grid)
        cell = locate_scan(grid, bins.centers[3], 0.0)
        nonzero = np.flatnonzero(bev.any(axis=1))
        assert nonzero.tolist() == [cell]
        np.testing.assert_array_equal(bev[cell], feats[0])

    def test_matches_sequential_oracle(self, rng):
        scene = random_scene(rng, n_cameras=2, w_i=5, h_i=3, n_d=6, grid_cells=10)
        fr = generate_frustum(scene.rig, scene.bins)
        lifted = rng.random((10, 6, 4), dtype=np.float32)
        got = splat_reference(lifted, fr, scene.grid)
        np.testing.assert_array_equal(got, splat_loop(lifted, fr, scene.grid))

    def test_all_absent(self, rng):
        grid = BevGrid(1.0, 2, 2)
        out = splat_reference(
            rng.random((5, 1, 2), dtype=np.float32), frustum_at_cells(grid, [-1] * 5), grid
        )
        assert out.shape == (4, 2) and not out.any()

    def test_identity_permutation(self, rng):
        grid = BevGrid(3.0, 2, 3)
        lifted = rng.random((6, 1, 3), dtype=np.float32)
        out = splat_reference(lifted, frustum_at_cells(grid, np.arange(6)), grid)
        np.testing.assert_array_equal(out, lifted[:, 0])

    def test_sequential_loop_oracle(self, rng):
        # 50 samples into 8 cells: most cells are hit repeatedly, some never
        grid = BevGrid(2.0, 2, 4)
        targets = rng.integers(-1, 8, size=50)
        fr = frustum_at_cells(grid, targets)
        lifted = rng.random((50, 1, 4), dtype=np.float32)
        np.testing.assert_array_equal(
            splat_reference(lifted, fr, grid), splat_loop(lifted, fr, grid)
        )

    def test_scatter_then_gather_permutation_is_identity(self, rng):
        grid = BevGrid(5.0, 2, 5)
        lifted = rng.random((10, 1, 3), dtype=np.float32)
        perm = rng.permutation(10)
        out = splat_reference(lifted, frustum_at_cells(grid, perm), grid)
        np.testing.assert_array_equal(out[perm], lifted[:, 0])

    def test_shape_mismatch(self, rng):
        fr, _, grid = single_ray_setup()
        with pytest.raises(ShapeError):
            splat_reference(rng.random((2, 8, 3), dtype=np.float32), fr, grid)

    def test_shares_no_sort_with_build_ftm(self, rng, monkeypatch):
        # the oracle lands its samples on every call and sorts nothing, so
        # it shares neither the kept matrix nor its sort with the routes
        scene = random_scene(rng, n_cameras=2, w_i=5, h_i=3, n_d=6, grid_cells=10)
        fr = generate_frustum(scene.rig, scene.bins)
        lifted = rng.random((10, 6, 4), dtype=np.float32)

        def no_sort(*args):
            raise AssertionError("splat_reference sorted its pairs into a matrix")

        monkeypatch.setattr(reference, "_from_pairs", no_sort)
        np.testing.assert_array_equal(
            splat_reference(lifted, fr, scene.grid), splat_loop(lifted, fr, scene.grid)
        )


class TestBuildFtm:
    def test_empty_overlap(self):
        fr, _, _ = single_ray_setup(d_min=100.0, d_max=200.0)
        grid = BevGrid(10.0, 4, 4)
        assert build_ftm(fr, grid).nnz == 0

    def test_distinct_cells_one_entry_per_column(self):
        # bin spacing 1.0 against 0.5 cells: every sample in its own cell
        fr, _, grid = single_ray_setup(n_d=8, d_min=1.0, d_max=9.0, cells=40)
        ftm = build_ftm(fr, grid)
        assert ftm.nnz == 8
        dense = densify(ftm)
        assert (dense.sum(axis=0) == 1).all()

    def test_matches_membership_loop(self, rng):
        scene = random_scene(rng, n_cameras=2, w_i=4, h_i=2, n_d=5, grid_cells=12)
        fr = generate_frustum(scene.rig, scene.bins)
        assert build_ftm(fr, scene.grid) == ftm_loop(fr, scene.grid)

    def test_columns_have_at_most_one_nonzero(self, rng):
        scene = random_scene(rng, n_cameras=3, w_i=6, h_i=2, n_d=8, grid_cells=16)
        fr = generate_frustum(scene.rig, scene.bins)
        ftm = build_ftm(fr, scene.grid)
        assert densify(ftm).sum(axis=0).max() <= 1


def ftm_from_coo(frustum, grid):
    """The exact matrix through the checking COO build over the landing."""
    n_cols = frustum.n_cameras * frustum.n_columns * frustum.n_depths
    return SparseBinaryMatrix.from_coo(grid.n_cells, n_cols, *frustum.landing(grid))


class TestBuildFtmFromLandingKeys:
    """build_ftm assembles its CSR from the landing's sorted keys, unchecked;
    it must be the matrix from_coo checks and builds from the same landing."""

    @pytest.mark.parametrize("setting", sorted(PRESETS))
    def test_bundled_rig(self, setting, rig_scene):
        scene = setting_scene(rig_scene, PRESETS[setting])
        fr = generate_frustum(scene.rig, scene.bins)
        assert build_ftm(fr, scene.grid) == ftm_from_coo(fr, scene.grid)

    def test_grid_that_no_sample_lands_in(self):
        # every bin lies past the grid's 10 m extent
        fr, _, _ = single_ray_setup(d_min=100.0, d_max=200.0)
        grid = BevGrid(10.0, 4, 4)
        ftm = build_ftm(fr, grid)
        assert ftm.nnz == 0 and ftm == ftm_from_coo(fr, grid)

    def test_keeps_the_matrix_of_the_last_grid(self, small_scene):
        fr = generate_frustum(small_scene.rig, small_scene.bins)
        grid = small_scene.grid
        other = BevGrid(grid.extent / 2, grid.h_cells, grid.w_cells)
        ftm = build_ftm(fr, grid)
        assert build_ftm(fr, BevGrid(grid.extent, grid.h_cells, grid.w_cells)) is ftm
        assert build_ftm(fr, other) is not ftm
        again = build_ftm(fr, grid)  # only the last grid's matrix is kept
        assert again is not ftm and again == ftm

    def test_one_frustum_over_two_grids(self, rng):
        scene = random_scene(rng, n_cameras=2, w_i=5, h_i=2, n_d=7, grid_cells=12)
        fr = generate_frustum(scene.rig, scene.bins)
        coarse = BevGrid(scene.grid.extent, 5, 5)
        for grid in (scene.grid, coarse, scene.grid, coarse):
            ftm = build_ftm(fr, grid)
            assert ftm == ftm_from_coo(fr, grid) == ftm_loop(fr, grid)
            assert ftm.shape == (grid.n_cells, fr.points_xyz.size // 3)


class TestVtFtm:
    def test_zero_lifted(self):
        fr, _, grid = single_ray_setup()
        ftm = build_ftm(fr, grid)
        assert not vt_ftm(np.zeros((1, 8, 3), dtype=np.float32), ftm).any()

    def test_identity_ftm_reshapes(self, rng):
        lifted = rng.random((3, 4, 2), dtype=np.float32)
        eye = SparseBinaryMatrix.from_coo(12, 12, np.arange(12), np.arange(12))
        np.testing.assert_array_equal(vt_ftm(lifted, eye), lifted.reshape(12, 2))

    def test_matches_splat(self, rng):
        scene = random_scene(rng, n_cameras=2, w_i=6, h_i=2, n_d=8, grid_cells=14)
        fr = generate_frustum(scene.rig, scene.bins)
        ftm = build_ftm(fr, scene.grid)
        f = rng.random((12, 5), dtype=np.float32)
        d = rng.random((12, 8), dtype=np.float32)
        lifted = lift(f, d)
        a = vt_ftm(lifted, ftm)
        b = splat_reference(lifted, fr, scene.grid)
        den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        assert (np.abs(a - b) / den).max() <= 1e-5

    # a (k, 1, n) lifted tensor has N_d = 1, so vt_ftm is the plain product
    # ftm @ lifted[:, 0]
    def test_permutation(self, rng):
        perm = np.array([2, 0, 1])
        s = SparseBinaryMatrix.from_coo(3, 3, np.arange(3), perm)
        b = rng.random((3, 1, 4), dtype=np.float32)
        np.testing.assert_array_equal(vt_ftm(b, s), b[perm, 0])

    def test_all_zero(self, rng):
        s = SparseBinaryMatrix(3, 5, np.zeros(4, np.int64), [])
        assert not vt_ftm(rng.random((5, 1, 2), dtype=np.float32), s).any()

    def test_low_density_matches_densified_matmul(self, rng):
        s = from_dense(rng.random((100, 200)) < 0.005)
        b = rng.random((200, 1, 8), dtype=np.float32)
        assert rel_err(vt_ftm(b, s), densify(s) @ b[:, 0]) <= 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([0.001, 0.01, 0.1]),
        st.integers(0, 999),
    )
    def test_matches_densified_matmul(self, m, k, density, seed):
        rng = np.random.default_rng(seed)
        s = from_dense(rng.random((m, k)) < density)
        b = rng.random((k, 1, 3), dtype=np.float32)
        assert rel_err(vt_ftm(b, s), densify(s) @ b[:, 0]) <= 1e-6

    def test_cols_mismatch(self, rng):
        ftm = SparseBinaryMatrix(2, 5, [0, 0, 0], [])
        with pytest.raises(ShapeError):
            vt_ftm(rng.random((2, 3, 2), dtype=np.float32), ftm)

    def test_shape_mismatch(self):
        s = SparseBinaryMatrix(2, 3, [0, 0, 0], [])
        with pytest.raises(ShapeError):
            vt_ftm(np.ones((4, 1, 2), dtype=np.float32), s)


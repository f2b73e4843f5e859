import functools
import io
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bevx import (
    BevGrid,
    Camera,
    CameraRig,
    DepthBins,
    FileFormatError,
    FrustumGeometry,
    RingRayPair,
    Scene,
    ShapeError,
    SparseBinaryMatrix,
    ValidationError,
    build_ftm,
    build_ring_ray,
    cost_model,
    effective_ftm,
    generate_frustum,
    lift,
    load_ring_ray,
    load_scene,
    save_ring_ray,
    scene_digest,
    splat_reference,
    vt_ftm,
    vt_matrixvt,
)
from bevx import reference, tensor_core, transform
from bevx.bench import PRESETS, flip_ring_bit, make_inputs, max_rel_diff, setting_scene
from bevx.fileio import _header, read_cache, write_cache
from bevx.tensor_core import _held_bytes
from oracles import (
    block_summed,
    bxc2_cache_bytes,
    bxc3_cache_bytes,
    csr_from_pairs,
    degenerate_scene,
    densify,
    dense_reformulated,
    entry_keys,
    from_dense,
    ftm_loop,
    frustum_per_point,
    locate_scan,
    older_cache_bytes,
    per_entry,
    plan_oracle,
    quarter_turned,
    random_scene,
    ring_ray_loop,
    row,
    rows_moved,
    shared_ring,
)

from test_fileio import sealed
from test_reference import single_ray_setup

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def recorded_csr_handles(monkeypatch):
    """The list that every scipy CSR matrix made from now on is appended to."""
    handles = []
    real = sp.csr_matrix

    def recorded(*args, **kwargs):
        handles.append(real(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(sp, "csr_matrix", recorded)
    return handles


@functools.lru_cache(maxsize=1)
def _saved_cache_bytes():
    """A geometric pair's cache file under digest "d", and the pair."""
    _, _, rr = build_pair(np.random.default_rng(9))
    buf = io.BytesIO()
    write_cache(buf, "d", rr.ring, rr.ray)
    return buf.getvalue(), (rr.ring, rr.ray)


def build_pair(rng, n_cameras=2, w_i=5, h_i=2, n_d=6, grid_cells=12):
    scene = random_scene(rng, n_cameras, w_i, h_i, n_d, grid_cells)
    fr = generate_frustum(scene.rig, scene.bins)
    return fr, scene.grid, build_ring_ray(fr, scene.grid)


class TestBuildRingRay:
    def test_single_ray_structure(self):
        fr, bins, grid = single_ray_setup()
        rr = build_ring_ray(fr, grid)
        cells_by_bin = [locate_scan(grid, c, 0.0) for c in bins.centers]
        traversed = sorted(set(c for c in cells_by_bin if c is not None))
        ray_cells = sorted(
            int(s) for s in range(grid.n_cells) if row(rr.ray, s).size
        )
        assert ray_cells == traversed
        # one column, so ray nonzero j is the j-th traversed cell, and its
        # ring row holds exactly the bins that land there
        for j, s in enumerate(traversed):
            bins = [d for d, c in enumerate(cells_by_bin) if c == s]
            assert row(rr.ring, j).tolist() == bins

    def test_opposite_cameras_have_disjoint_ray_columns(self):
        stride = 4
        k = np.array([[10.0, 0, 2.0], [0, 10.0, 2.0], [0, 0, 1.0]])
        fwd = Camera(k, np.eye(3), np.zeros(3))
        back = Camera(
            k,
            np.array([[-1.0, 0, 0], [0, -1.0, 0], [0, 0, 1.0]]),
            np.zeros(3),
        )
        rig = CameraRig((fwd, back), 1, 1, stride)
        bins = DepthBins(1, 9, 8)
        grid = BevGrid(10.0, 20, 20)
        rr = build_ring_ray(generate_frustum(rig, bins, 0), grid)
        ray = densify(rr.ray)
        assert not np.logical_and(ray[:, 0], ray[:, 1]).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_literal_loop(self, seed):
        rng = np.random.default_rng(seed)
        fr, grid, rr = build_pair(rng)
        ring, ray = ring_ray_loop(fr, grid)
        assert rr.ring == ring
        assert rr.ray == ray

    @pytest.mark.parametrize("ftm_first", [True, False], ids=["ftm-first", "ring-ray-first"])
    def test_shares_one_sort_with_build_ftm(self, ftm_first, monkeypatch):
        scene = random_scene(np.random.default_rng(4), n_cameras=3, w_i=6, n_d=7)
        fr = generate_frustum(scene.rig, scene.bins)
        sorts = []
        from_pairs = reference._from_pairs  # the sorting build build_ftm calls
        monkeypatch.setattr(
            reference, "_from_pairs", lambda *a: sorts.append(a) or from_pairs(*a)
        )
        if ftm_first:
            ftm = build_ftm(fr, scene.grid)
            rr = build_ring_ray(fr, scene.grid)
        else:
            rr = build_ring_ray(fr, scene.grid)
            ftm = build_ftm(fr, scene.grid)
        assert len(sorts) == 1
        assert ftm == ftm_loop(fr, scene.grid)
        assert (rr.ring, rr.ray) == ring_ray_loop(fr, scene.grid)

    def test_reads_the_kept_matrix_without_assembling_pairs(self, monkeypatch):
        # no pair is assembled again: the kept matrix's CSR arrays are read
        scene = random_scene(np.random.default_rng(5), n_cameras=3, w_i=6, n_d=7)
        fr = generate_frustum(scene.rig, scene.bins)
        ftm = build_ftm(fr, scene.grid)
        expected = ring_ray_loop(fr, scene.grid)

        def assemble(*args):
            raise AssertionError("build_ring_ray assembled a matrix from pairs")

        for module in (tensor_core, reference):
            monkeypatch.setattr(module, "_from_pairs", assemble)
        # transform imports no _from_pairs; one imported there must raise too
        monkeypatch.setattr(transform, "_from_pairs", assemble, raising=False)
        monkeypatch.setattr(SparseBinaryMatrix, "from_coo", assemble)
        rr = build_ring_ray(fr, scene.grid)
        assert build_ftm(fr, scene.grid) is ftm
        assert (rr.ring, rr.ray) == expected

    def test_pair_rows_must_match(self):
        a = SparseBinaryMatrix(2, 3, [0, 0, 0], [])
        b = SparseBinaryMatrix(3, 3, [0, 0, 0, 0], [])
        with pytest.raises(ShapeError):
            RingRayPair(a, b)

    def test_plan_column_ids_must_fit_int64(self):
        # plan column ids run to ray.cols * ring.cols - 1
        wide = SparseBinaryMatrix(1, 2**33, [0, 0], [])
        with pytest.raises(ShapeError, match="int64"):
            RingRayPair(wide, wide)
        narrow = SparseBinaryMatrix(1, 2**31, [0, 1], [2**31 - 1])
        rr = RingRayPair(narrow, SparseBinaryMatrix(1, 2**32 - 1, [0, 1], [7]))
        assert rr._plan.col_indices.tolist() == [7 * 2**31 + 2**31 - 1]
        assert rr._plan.col_indices.dtype == np.int64

    def test_ray_offsets_larger_than_memory_are_refused(self, memory_cap):
        # sized from the machine: the grid's cells alone need more int64 row
        # offsets than there is memory, though its edges and the frustum fit
        fr, _, _ = single_ray_setup()
        side = math.isqrt(memory_cap // 16) + 1
        with pytest.raises(ValidationError, match="exceed physical memory"):
            build_ring_ray(fr, BevGrid(10.0, side, side))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_ring_rows_other_than_ray_nnz_are_refused(self, extra):
        ray = from_dense([[1, 1, 0], [0, 0, 0], [0, 1, 0]])
        ring = from_dense(np.ones((ray.nnz + extra, 4)))
        with pytest.raises(ShapeError, match="one row per ray entry"):
            RingRayPair(ring, ray)
        RingRayPair(from_dense(np.ones((ray.nnz, 4))), ray)

    def test_ring_row_of_two_runs_is_stored_as_it_is(self, tmp_path):
        # bins 0 and 2 of ray nonzero (0, 1), with no bin 1 between them:
        # the ring keeps the gap, and so do the plan and the implied matrix
        ray = from_dense([[0, 1], [1, 0]])
        ring = from_dense([[1, 0, 1, 0], [0, 1, 0, 0]])
        rr = RingRayPair(ring, ray)
        assert row(rr.ring, 0).tolist() == [0, 2]
        assert rr._plan == plan_oracle(ring, ray)
        assert row(effective_ftm(rr), 0).tolist() == [4, 6]
        save_ring_ray(rr, tmp_path, "d")
        assert row(load_ring_ray(tmp_path, "d").ring, 0).tolist() == [0, 2]


class TestPlan:
    """The plan against `plan_oracle`, its first pass-by-pass form."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_on_geometric_pairs(self, seed):
        rng = np.random.default_rng(seed)
        _, _, rr = build_pair(rng, n_cameras=3, w_i=7, n_d=9, grid_cells=10)
        assert rr._plan == plan_oracle(rr.ring, rr.ray)

    def test_matches_oracle_on_the_bundled_rig(self, rig_scene):
        frustum = generate_frustum(rig_scene.rig, rig_scene.bins)
        rr = build_ring_ray(frustum, rig_scene.grid)
        assert rr._plan == plan_oracle(rr.ring, rr.ray)

    @pytest.mark.parametrize(
        "ring, ray",
        [
            # cell 1's ring row is empty under a two-entry ray row
            ([[1, 0, 1], [0, 0, 0], [0, 1, 1]], [[1, 0], [1, 1], [0, 1]]),
            ([[1, 1, 0], [0, 1, 1]], [[0, 0], [0, 0]]),  # an empty ray
            ([[0, 0], [0, 0]], [[1, 1, 1], [0, 1, 0]]),  # an empty ring
            (np.zeros((0, 2)), np.zeros((0, 3))),  # no cells
        ],
        ids=["empty-ring-row", "empty-ray", "empty-ring", "no-cells"],
    )
    def test_matches_oracle_on_hand_built_pairs(self, ring, ray):
        ray = from_dense(ray)
        rr = RingRayPair(per_entry(from_dense(ring), ray), ray)
        plan = rr._plan
        assert plan == plan_oracle(rr.ring, rr.ray)
        assert plan.shape == (rr.ray.nnz, rr.n_columns * rr.n_depths)


class TestVtMatrixvt:
    def test_zero_depths(self, rng):
        _, _, rr = build_pair(rng)
        f = rng.random((rr.n_columns, 4), dtype=np.float32)
        d = np.zeros((rr.n_columns, rr.n_depths), dtype=np.float32)
        assert not vt_matrixvt(f, d, rr).any()

    def test_all_ones_single_column(self, rng):
        # every plan row spans all N_d bins
        s, n_d = 6, 4
        ones_ring = from_dense(np.ones((s, n_d)))
        ones_ray = from_dense(np.ones((s, 1)))
        rr = RingRayPair(per_entry(ones_ring, ones_ray), ones_ray)
        f = rng.random((1, 3), dtype=np.float32)
        d = rng.random((1, n_d), dtype=np.float32)
        out = vt_matrixvt(f, d, rr)
        expect = d.sum() * f[0]
        np.testing.assert_allclose(out, np.broadcast_to(expect, (s, 3)), rtol=1e-6)

    def test_one_hot_single_ray_deposit(self):
        fr, bins, grid = single_ray_setup()
        rr = build_ring_ray(fr, grid)
        k = 5
        f = np.array([[2.0, 3.0]], dtype=np.float32)
        d = np.zeros((1, 8), dtype=np.float32)
        d[0, k] = 1.0
        bev = vt_matrixvt(f, d, rr)
        cell = locate_scan(grid, bins.centers[k], 0.0)
        assert np.flatnonzero(bev.any(axis=1)).tolist() == [cell]
        np.testing.assert_array_equal(bev[cell], f[0])

    def test_ray_patterned_handle_wraps_the_ray_own_arrays(self, rng, monkeypatch):
        _, _, rr = build_pair(rng)
        f = rng.random((rr.n_columns, 3), dtype=np.float32)
        d = rng.random((rr.n_columns, rr.n_depths), dtype=np.float32)
        handles = recorded_csr_handles(monkeypatch)
        vt_matrixvt(f, d, rr)
        assert "_scipy" not in vars(rr.ray)
        (handle,) = handles
        assert rr.ray.row_offsets.dtype == rr.ray.col_indices.dtype == np.int32
        assert np.shares_memory(handle.indptr, rr.ray.row_offsets)
        assert np.shares_memory(handle.indices, rr.ray.col_indices)

    def test_zero_extent_ray_handle_keeps_int64_arrays_past_2_31_columns(self, monkeypatch):
        """scipy narrows a zero-extent matrix's int64 arrays to int32
        copies, whose product fails past 2**31 columns: the handle wraps
        the ray's own arrays instead."""
        wide = np.zeros((2**31, 0), np.float32)
        rr = RingRayPair(SparseBinaryMatrix(0, 0, [0], []), SparseBinaryMatrix(0, 2**31, [0], []))
        handles = recorded_csr_handles(monkeypatch)
        assert vt_matrixvt(wide, wide, rr).shape == (0, 0)
        (handle,) = handles
        assert rr.ray.row_offsets.dtype == rr.ray.col_indices.dtype == np.int64
        assert handle.indptr is rr.ray.row_offsets and handle.indices is rr.ray.col_indices

    def test_matches_dense_oracle(self, rng):
        _, _, rr = build_pair(rng, n_cameras=2, w_i=6, h_i=2, n_d=10, grid_cells=14)
        f = rng.random((rr.n_columns, 3), dtype=np.float32)
        d = rng.random((rr.n_columns, rr.n_depths), dtype=np.float32)
        assert max_rel_diff(vt_matrixvt(f, d, rr), dense_reformulated(f, d, rr)) <= 1e-5

    def test_matches_ftm_over_effective(self, rng):
        _, _, rr = build_pair(rng, n_cameras=3, w_i=5, h_i=2, n_d=7, grid_cells=12)
        f = rng.random((rr.n_columns, 4), dtype=np.float32)
        d = rng.random((rr.n_columns, rr.n_depths), dtype=np.float32)
        via_eff = vt_ftm(lift(f, d), effective_ftm(rr))
        assert max_rel_diff(vt_matrixvt(f, d, rr), via_eff) <= 1e-5

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 500), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_bilinear(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        _, _, rr = build_pair(rng, n_cameras=1, w_i=4, h_i=2, n_d=5, grid_cells=8)
        f = rng.random((rr.n_columns, 3), dtype=np.float32)
        d = rng.random((rr.n_columns, rr.n_depths), dtype=np.float32)
        base = vt_matrixvt(f, d, rr)
        np.testing.assert_allclose(
            vt_matrixvt(np.float32(alpha) * f, d, rr),
            np.float32(alpha) * base,
            rtol=1e-4,
            atol=1e-6,
        )
        np.testing.assert_allclose(
            vt_matrixvt(f, np.float32(beta) * d, rr),
            np.float32(beta) * base,
            rtol=1e-4,
            atol=1e-6,
        )

    def test_corrupted_ring_still_matches_dense_oracle(self, rng):
        # a ring row emptied under a non-empty ray row is an empty plan row
        fr, grid, rr = build_pair(rng, n_cameras=1, w_i=4, h_i=2, n_d=6, grid_cells=10)
        bad = flip_ring_bit(rr, build_ftm(fr, grid))
        f = rng.random((bad.n_columns, 3), dtype=np.float32)
        d = rng.random((bad.n_columns, bad.n_depths), dtype=np.float32)
        assert max_rel_diff(vt_matrixvt(f, d, bad), dense_reformulated(f, d, bad)) <= 1e-5

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.integers(1, 12),
        n_d=st.integers(1, 6),
        w=st.integers(1, 5),
        ring_density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        ray_density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    )
    @example(seed=0, s=4, n_d=3, w=2, ring_density=1.0, ray_density=0.0)  # no ray
    @example(seed=0, s=1, n_d=3, w=2, ring_density=1.0, ray_density=1.0)  # one cell
    @example(seed=0, s=4, n_d=1, w=3, ring_density=1.0, ray_density=1.0)  # one bin
    @example(seed=0, s=6, n_d=4, w=3, ring_density=0.0, ray_density=1.0)  # no ring
    @example(seed=3, s=12, n_d=6, w=5, ring_density=0.3, ray_density=0.7)
    def test_hand_built_degenerate_pairs(self, seed, s, n_d, w, ring_density, ray_density):
        rng = np.random.default_rng(seed)
        ring = rng.random((s, n_d)) < ring_density
        ray = rng.random((s, w)) < ray_density
        ray_m = from_dense(ray)
        rr = RingRayPair(per_entry(from_dense(ring), ray_m), ray_m)
        f = rng.random((w, 3), dtype=np.float32)
        d = rng.random((w, n_d), dtype=np.float32)
        out = vt_matrixvt(f, d, rr)
        assert out.shape == (s, 3)
        assert max_rel_diff(out, dense_reformulated(f, d, rr)) <= 1e-5
        dead = ~ring.any(axis=1) | ~ray.any(axis=1)
        assert not out[dead].any()
        kron = (ray[:, :, None] & ring[:, None, :]).reshape(s, w * n_d)
        np.testing.assert_array_equal(densify(effective_ftm(rr)), kron)

    def test_shape_mismatch(self, rng):
        _, _, rr = build_pair(rng)
        with pytest.raises(ShapeError):
            vt_matrixvt(
                np.ones((rr.n_columns, 2)), np.ones((rr.n_columns, rr.n_depths + 1)), rr
            )

    @pytest.mark.parametrize(
        "features, depths",
        [((10,), (10, 6)), ((10, 2), (10,)), ((9, 2), (10, 6)), ((10, 2), (11, 6))],
        ids=["1-d-features", "1-d-depths", "fewer-features", "more-depths"],
    )
    def test_features_and_depths_must_be_2_d_of_one_length(self, rng, features, depths):
        _, _, rr = build_pair(rng)
        assert (rr.n_columns, rr.n_depths) == (10, 6)
        with pytest.raises(ShapeError) as info:
            vt_matrixvt(np.ones(features), np.ones(depths), rr)
        assert str(info.value) == f"vt_matrixvt: incompatible shapes {features} and {depths}"


@pytest.mark.parametrize("setting", sorted(PRESETS))
def test_every_scipy_handle_wraps_its_matrix_arrays(setting, rig_scene, monkeypatch):
    scene = setting_scene(rig_scene, PRESETS[setting])
    frustum = generate_frustum(scene.rig, scene.bins)
    ftm = build_ftm(frustum, scene.grid)
    rr = build_ring_ray(frustum, scene.grid)
    f, d = make_inputs(scene, 1, 0)
    vt_ftm(lift(f, d), ftm)
    handles = recorded_csr_handles(monkeypatch)
    vt_matrixvt(f, d, rr)
    (ray_handle,) = handles  # the plan's handle was made with the pair
    plan = rr._plan
    assert plan.row_offsets is rr.ring.row_offsets
    for handle, m in [(ftm._scipy, ftm), (plan._scipy, plan), (ray_handle, rr.ray)]:
        assert m.row_offsets.dtype == m.col_indices.dtype == np.int32
        assert np.shares_memory(handle.indptr, m.row_offsets)
        assert np.shares_memory(handle.indices, m.col_indices)
    # so the pair holds each of its arrays once, 4 bytes an entry: the
    # ring's, the ray's, and the plan's columns and unit values
    cells, ring, ray = rr.n_cells, rr.ring, rr.ray
    held = (ring.rows + 1 + ring.nnz) + (cells + 1 + ray.nnz) + 2 * ring.nnz
    assert _held_bytes(rr._buffers()) == 4 * held
    if setting == "S4":
        assert 4 * held <= 1.35e6


class TestEffectiveFtm:
    def test_zero_ring(self):
        ring = SparseBinaryMatrix(4, 3, np.zeros(5, np.int64), [])
        ray = from_dense(np.ones((4, 2)))
        assert effective_ftm(RingRayPair(per_entry(ring, ray), ray)).nnz == 0

    def test_single_ray_equals_exact(self):
        fr, _, grid = single_ray_setup()
        rr = build_ring_ray(fr, grid)
        assert effective_ftm(rr) == build_ftm(fr, grid)

    @pytest.mark.parametrize("seed", range(4))
    def test_containment(self, seed):
        rng = np.random.default_rng(seed)
        fr, grid, rr = build_pair(rng, n_cameras=3, w_i=6, h_i=2, n_d=8, grid_cells=16)
        exact = densify(build_ftm(fr, grid))
        implied = densify(effective_ftm(rr))
        assert (exact <= implied).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_passes_the_checking_constructor(self, seed):
        # effective_ftm stores arrays sliced from the plan without checking
        # them again; the checking constructor takes them as they are
        rng = np.random.default_rng(seed)
        _, _, rr = build_pair(rng, n_cameras=3, w_i=6, h_i=2, n_d=8, grid_cells=16)
        ring, ray = from_dense(rng.random((5, 3)) < 0.5), from_dense(rng.random((5, 4)) < 0.5)
        hand = RingRayPair(per_entry(ring, ray), ray)
        for pair in (rr, hand):
            m = effective_ftm(pair)
            assert SparseBinaryMatrix(*m.shape, m.row_offsets, m.col_indices) == m
            assert not m.row_offsets.flags.writeable and not m.col_indices.flags.writeable

    def test_matches_kronecker_definition(self, rng):
        # entry (s, w * N_d + d) is ray[s, w] times bin d of that nonzero's ring row
        _, _, rr = build_pair(rng, n_cameras=2, w_i=4, h_i=2, n_d=5, grid_cells=10)
        cells = np.repeat(np.arange(rr.n_cells), np.diff(rr.ray.row_offsets))
        expect = np.zeros((rr.n_cells, rr.n_columns, rr.n_depths), dtype=np.float32)
        expect[cells, rr.ray.col_indices] = densify(rr.ring)
        np.testing.assert_array_equal(
            densify(effective_ftm(rr)), expect.reshape(rr.n_cells, -1)
        )


def implied_chain(ftm, rr, n_d):
    """The implied matrices of the per-camera pair `rr` and of the shared
    ring rebuilt from `ftm` under the same ray, after checking exact <=
    per-camera implied <= shared implied entry by entry."""
    shared = RingRayPair(per_entry(shared_ring(ftm, n_d), rr.ray), rr.ray)
    per_camera, shared_implied = effective_ftm(rr), effective_ftm(shared)
    assert np.isin(entry_keys(ftm), entry_keys(per_camera)).all()
    assert np.isin(entry_keys(per_camera), entry_keys(shared_implied)).all()
    return per_camera, shared_implied


class TestPerCameraRing:
    """Exact <= per-camera implied <= shared implied on the bundled rig, and
    the spurious rate of each ring: (implied nnz - exact nnz) / implied nnz."""

    RATES = {  # setting: (per-camera, shared)
        "S1": (0.1042, 0.2247),
        "S2": (0.0006, 0.0552),
        "S3": (0.1902, 0.3148),
        "S4": (0.0011, 0.1094),
        "S5": (0.0011, 0.1094),
        "S6": (0.0041, 0.1412),
    }

    @pytest.mark.parametrize("setting", sorted(PRESETS))
    def test_chain_and_spurious_rates(self, setting, rig_scene):
        scene = setting_scene(rig_scene, PRESETS[setting])
        frustum = generate_frustum(scene.rig, scene.bins)
        ftm = build_ftm(frustum, scene.grid)
        rr = build_ring_ray(frustum, scene.grid)
        per_camera, shared = implied_chain(ftm, rr, scene.bins.count)
        rates = tuple(round((m.nnz - ftm.nnz) / m.nnz, 4) for m in (per_camera, shared))
        assert rates == self.RATES[setting]


def one_column_pair_is_exact(frustum, grid, rr):
    """Check that the pair of `frustum` seen as N_c * W_I one-column cameras
    implies exactly `build_ftm(frustum, grid)`, dtypes included, so its
    spurious rate is 0, and that its ray is the per-camera pair `rr`'s."""
    columns = FrustumGeometry(frustum.points_xyz.reshape(-1, 1, frustum.n_depths, 3))
    exact = build_ring_ray(columns, grid)
    ftm, implied = build_ftm(frustum, grid), effective_ftm(exact)
    assert implied == ftm
    assert implied.row_offsets.dtype == ftm.row_offsets.dtype
    assert implied.col_indices.dtype == ftm.col_indices.dtype
    assert transform._spurious_rate(transform._held(ftm, implied)) == 0.0
    assert exact.ray == rr.ray


@pytest.mark.parametrize("config", ["six_camera_rig.json", "pitched_rig.json"])
@pytest.mark.parametrize("setting", sorted(PRESETS))
def test_one_column_pair_is_the_exact_matrix(setting, config):
    scene = setting_scene(load_scene(CONFIGS / config), PRESETS[setting])
    frustum = generate_frustum(scene.rig, scene.bins)
    one_column_pair_is_exact(frustum, scene.grid, build_ring_ray(frustum, scene.grid))


@pytest.mark.parametrize("config", ["six_camera_rig.json", "pitched_rig.json"])
@pytest.mark.parametrize("setting", ["S1", "S4"])
def test_a_quarter_turn_of_the_rig_permutes_the_cells(setting, config):
    """A metamorphic relation: with the whole rig turned a quarter left,
    each frustum point (x, y) becomes (-y, x), and the exact pattern and
    the scatter, ftm and matrixvt outputs are the originals with their
    cells moved by `quarter_turned`'s permutation, bit for bit."""
    scene = setting_scene(load_scene(CONFIGS / config), PRESETS[setting])
    turned, cell = quarter_turned(scene)
    runs = []
    for sc in (scene, turned):
        frustum = generate_frustum(sc.rig, sc.bins)
        ftm = build_ftm(frustum, sc.grid)
        f, d = make_inputs(sc, PRESETS[setting].channels, 0)
        lifted = lift(f, d)
        outs = (
            splat_reference(lifted, frustum, sc.grid),
            vt_ftm(lifted, ftm),
            vt_matrixvt(f, d, build_ring_ray(frustum, sc.grid)),
        )
        runs.append((frustum.points_xyz, ftm, outs))
    (points, ftm, outs), (turned_points, turned_ftm, turned_outs) = runs
    x, y, z = np.moveaxis(points, -1, 0)
    np.testing.assert_array_equal(turned_points, np.stack([-y, x, z], axis=-1))
    assert turned_ftm == rows_moved(ftm, cell)
    assert turned_ftm.row_offsets.dtype == turned_ftm.col_indices.dtype == ftm.row_offsets.dtype
    for out, turned_out in zip(outs, turned_outs):
        assert out.any() and turned_out[cell].tobytes() == out.tobytes()


@pytest.mark.parametrize("config", ["six_camera_rig.json", "pitched_rig.json"])
@pytest.mark.parametrize("coarse, fine", [("S1", "S2"), ("S3", "S4")])
def test_a_grid_of_half_the_cell_size_sums_to_the_coarser_grid(coarse, fine, config):
    """A metamorphic relation: the fine setting is the coarse one with each
    cell split in 2 x 2 over the same extent, and halving a cell is exact,
    so the cell edges nest. The fine exact matrix summed over 2 x 2 cell
    blocks is the coarse one, every summed value 1. The fine scatter output
    summed the same way equals the coarse one up to float32 rounding: each
    cell adds its k positive samples in order, so, to first order, the two
    differ by at most 2 (k - 1) 2**-24 times the coarse value, with k the
    coarse cell's sample count."""
    runs = []
    for setting in (coarse, fine):
        scene = setting_scene(load_scene(CONFIGS / config), PRESETS[setting])
        frustum = generate_frustum(scene.rig, scene.bins)
        f, d = make_inputs(scene, 8, 3)
        runs.append((scene.grid, build_ftm(frustum, scene.grid),
                     splat_reference(lift(f, d), frustum, scene.grid)))
    (grid, ftm, out), (fine_grid, fine_ftm, fine_out) = runs
    assert fine_grid.extent == grid.extent and fine_grid.w_cells == 2 * grid.w_cells
    pattern, values = block_summed(fine_ftm, fine_grid.w_cells)
    assert pattern == ftm and np.all(values == 1)
    blocks = fine_out.reshape(grid.h_cells, 2, grid.w_cells, 2, -1)
    summed = blocks.sum(axis=(1, 3), dtype=np.float64).reshape(out.shape)
    k = np.diff(np.asarray(ftm.row_offsets, dtype=np.int64))
    bound = 2 * np.maximum(k - 1, 0)[:, None] * 2.0**-24 * out
    assert out.any() and np.all(np.abs(summed - out) <= bound)


class TestDegenerateRigs:
    """The three guarantees, the output shapes and the empty cells, on rigs
    built from geometry: a camera facing away from the grid, one depth
    bin, a one-cell grid, bins beyond the grid's extent, and cameras
    pitched down to near-vertical."""

    @settings(max_examples=40, deadline=None)
    @given(
        away=st.lists(st.booleans(), min_size=1, max_size=3),
        n_d=st.integers(1, 6),
        h_cells=st.integers(1, 6),
        w_cells=st.integers(1, 6),
        reach=st.floats(0.2, 4.0),
        pitch=st.floats(0.0, 89.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(away=[True], n_d=4, h_cells=4, w_cells=4, reach=2.0, pitch=0.0, seed=0)  # empty ray
    @example(away=[False, True], n_d=4, h_cells=4, w_cells=4, reach=2.0, pitch=0.0, seed=0)
    # one bin
    @example(away=[False, False], n_d=1, h_cells=4, w_cells=4, reach=0.8, pitch=0.0, seed=0)
    # one cell
    @example(away=[False, False], n_d=4, h_cells=1, w_cells=1, reach=0.8, pitch=0.0, seed=0)
    # past extent
    @example(away=[False, False], n_d=6, h_cells=4, w_cells=4, reach=4.0, pitch=0.0, seed=0)
    # near-vertical: each column's six bins land in one cell (two at pitch 0)
    @example(away=[False, True], n_d=6, h_cells=4, w_cells=4, reach=0.7, pitch=89.0, seed=0)
    def test_guarantees_hold(self, away, n_d, h_cells, w_cells, reach, pitch, seed):
        scene = degenerate_scene(away, n_d, h_cells, w_cells, reach, pitch=pitch)
        frustum = generate_frustum(scene.rig, scene.bins)
        np.testing.assert_allclose(
            frustum.points_xyz, frustum_per_point(scene.rig, scene.bins), rtol=0, atol=1e-12
        )
        ftm = build_ftm(frustum, scene.grid)
        assert ftm == SparseBinaryMatrix.from_coo(
            scene.grid.n_cells, ftm.cols, *frustum.landing(scene.grid)
        )
        rr = build_ring_ray(frustum, scene.grid)
        assert (rr.ring, rr.ray) == ring_ray_loop(frustum, scene.grid)
        one_column_pair_is_exact(frustum, scene.grid, rr)
        implied = effective_ftm(rr)
        f, d = make_inputs(scene, 3, seed)
        lifted = lift(f, d)
        outs = {
            "scatter": splat_reference(lifted, frustum, scene.grid),
            "ftm": vt_ftm(lifted, ftm),
            "implied": vt_ftm(lifted, implied),
            "matrixvt": vt_matrixvt(f, d, rr),
        }
        np.testing.assert_array_equal(outs["ftm"], outs["scatter"])
        assert max_rel_diff(outs["matrixvt"], outs["implied"]) <= 1e-5
        assert (densify(ftm) <= densify(implied)).all()
        implied_chain(ftm, rr, n_d)
        empty = np.diff(ftm.row_offsets) == 0
        for out in outs.values():
            assert out.shape == (scene.grid.n_cells, 3)
            assert not out[empty].any()
        ray = densify(rr.ray).reshape(rr.n_cells, len(away), scene.rig.feature_width)
        assert not ray[:, np.array(away, dtype=bool)].any()


@st.composite
def held_problems(draw):
    """(rows, cols, implied, exact): two sets of in-range (row, col) pairs.
    Some exact pairs are implied and some are not; `cols` is small, or so
    wide that rows * cols >= 2**63 once there are two rows or more."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.one_of(st.integers(0, 6), st.integers(2**62, 2**63 - 1)))
    if not rows or not cols:
        return rows, cols, set(), set()
    col = st.one_of(st.integers(0, min(cols, 6) - 1), st.integers(max(cols - 3, 0), cols - 1))
    pair = st.tuples(st.integers(0, rows - 1), col)
    implied = sorted(draw(st.sets(pair, max_size=20)))
    kept = draw(st.lists(st.booleans(), min_size=len(implied), max_size=len(implied)))
    exact = {p for p, k in zip(implied, kept) if k} | draw(st.sets(pair, max_size=6))
    return rows, cols, set(implied), exact


class TestHeld:
    @settings(max_examples=200, deadline=None)
    @given(held_problems())
    @example((0, 0, set(), set()))
    @example((0, 2**62, set(), set()))  # scipy's handle of it is int32
    @example((3, 4, set(), {(1, 2)}))  # nothing implied
    @example((3, 4, {(1, 2), (2, 0)}, set()))  # nothing exact
    @example((5, 2**62, {(0, 1), (4, 0)}, {(0, 0)}))  # no entry shared
    @example((5, 2**62, {(0, 1), (4, 0)}, {(4, 0), (2, 2**62 - 1)}))
    def test_matches_pair_set_oracle(self, problem):
        rows, cols, implied, exact = problem
        mask = transform._held(
            csr_from_pairs(exact, (rows, cols)), csr_from_pairs(implied, (rows, cols))
        )
        assert mask.dtype == bool
        assert mask.tolist() == [p in exact for p in sorted(implied)]


class TestCostModel:
    def test_headline_ratios(self):
        for h, w in ((128, 128), (64, 200)):
            r = cost_model(80, 112, 44, h, w)
            assert r.reduction_flops == pytest.approx(8960 / 193)
            assert 46.0 < r.reduction_flops < 46.5
            assert r.saving_memory == pytest.approx(1 - 156 / 4928)
            assert 0.96 <= r.saving_memory <= 0.97

    def test_unit_dims(self):
        r = cost_model(1, 1, 1, 4, 4)
        assert r.flops_composed == 2 * 16
        assert r.flops_reformulated == 6 * 16
        assert r.reduction_flops < 1

    def test_counts(self):
        r = cost_model(80, 112, 44, 128, 128)
        s = 128 * 128
        assert r.flops_composed == 2 * 44 * 80 * 112 * s
        assert r.flops_reformulated == 2 * (80 + 112 + 1) * 44 * s
        assert r.mem_params_full_ftm == 44 * 112 * s
        assert r.mem_params_ringray == (44 + 112) * s

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            cost_model(0, 112, 44, 128, 128)
        with pytest.raises(ValidationError):
            cost_model(80, 112, 44, -1, 128)

    @pytest.mark.parametrize(
        "bad", ["a", np.nan, np.inf, True, 2.5], ids=["str", "nan", "inf", "bool", "float"]
    )
    def test_extents_must_be_whole_numbers(self, bad):
        with pytest.raises(ValidationError, match="whole number"):
            cost_model(bad, 1, 1, 1, 1)


class TestCache:
    def test_round_trip(self, tmp_path, rng):
        _, _, rr = build_pair(rng)
        save_ring_ray(rr, tmp_path / "c", "digest-1")
        back = load_ring_ray(tmp_path / "c", "digest-1")
        assert back is not None
        assert back.ring == rr.ring and back.ray == rr.ray

    def test_digest_mismatch(self, tmp_path, rng):
        _, _, rr = build_pair(rng)
        save_ring_ray(rr, tmp_path / "c", "digest-1")
        assert load_ring_ray(tmp_path / "c", "other") is None

    def test_scene_differing_in_one_config_number_misses(self, tmp_path, rng):
        scene = random_scene(rng)
        rr = build_ring_ray(generate_frustum(scene.rig, scene.bins), scene.grid)
        save_ring_ray(rr, tmp_path, scene_digest(scene))
        bins, grid = scene.bins, scene.grid
        for other in (
            Scene(scene.rig, bins, BevGrid(grid.extent + 1.0, grid.h_cells, grid.w_cells)),
            Scene(scene.rig, DepthBins(bins.d_min, bins.d_max, bins.count + 1), grid),
        ):
            assert load_ring_ray(tmp_path, scene_digest(other)) is None
        assert load_ring_ray(tmp_path, scene_digest(scene)) == rr

    def test_missing(self, tmp_path):
        assert load_ring_ray(tmp_path / "nowhere", "d") is None

    def test_loaded_index_arrays_are_aligned(self, tmp_path, rng):
        # every field of the cache file starts at a multiple of 8 bytes, so
        # under a 64-character scene digest and a 1-character one alike each
        # record's words are aligned views of the file's bytes
        scene = random_scene(rng)
        rr = build_ring_ray(generate_frustum(scene.rig, scene.bins), scene.grid)
        for digest in (scene_digest(scene), "d"):
            save_ring_ray(rr, tmp_path / digest, digest)
            back = load_ring_ray(tmp_path / digest, digest)
            assert back == rr
            for m in (back.ring, back.ray):
                for a in (m.row_offsets, m.col_indices):
                    assert a.flags.aligned and not a.flags.writeable, digest

    @pytest.mark.parametrize("digest", ["d" * n for n in range(17)] + ["e" * 64])
    def test_load_makes_no_copy(self, tmp_path, rng, digest, monkeypatch):
        _, _, rr = build_pair(rng)
        save_ring_ray(rr, tmp_path, digest)
        files = []
        real = transform.read_cache

        def keeps_the_bytes(raw, *args):
            files.append(raw)
            return real(raw, *args)

        monkeypatch.setattr(transform, "read_cache", keeps_the_bytes)
        back = load_ring_ray(tmp_path, digest)
        assert back == rr
        (raw,) = files
        for m in (back.ring, back.ray):
            for a in (m.row_offsets, m.col_indices):
                assert a.dtype == np.int32
                assert a.flags.aligned and not a.flags.writeable
                assert np.shares_memory(a, np.frombuffer(raw, np.uint8))

    def test_older_layout_misses_and_the_next_save_replaces_it(self, tmp_path):
        ring = SparseBinaryMatrix(3, 2, [0, 1, 1, 3], [1, 0, 1])
        ray = SparseBinaryMatrix(3, 4, [0, 2, 2, 3], [0, 3, 2])
        old = older_cache_bytes("d", ring, ray)
        (tmp_path / "ringray.bxc").write_bytes(old)
        assert load_ring_ray(tmp_path, "d") is None
        rr = RingRayPair(per_entry(ring, ray), ray)
        save_ring_ray(rr, tmp_path, "d")
        assert (tmp_path / "ringray.bxc").read_bytes() != old
        assert load_ring_ray(tmp_path, "d") == rr

    def test_int64_layout_without_crc_misses_and_the_next_save_replaces_it(self, tmp_path, rng):
        # a file of the layout before the index dtype rule: "BXC3", int64
        # words and no crc, over the same per-entry ring
        _, _, rr = build_pair(rng)
        old = bxc3_cache_bytes("d", rr.ring, rr.ray)
        (tmp_path / "ringray.bxc").write_bytes(old)
        assert load_ring_ray(tmp_path, "d") is None
        save_ring_ray(rr, tmp_path, "d")
        raw = (tmp_path / "ringray.bxc").read_bytes()
        assert raw[:8] == b"BXC4\0\0\0\0" and len(raw) < len(old)
        assert load_ring_ray(tmp_path, "d") == rr

    def test_shared_ring_layout_misses_and_the_next_save_replaces_it(self, tmp_path, rng):
        # a file of the layout before per-entry rings: a shared (S, N_d)
        # ring under the BXC2 header, with the same BXS2 records
        scene = random_scene(rng)
        frustum = generate_frustum(scene.rig, scene.bins)
        rr = build_ring_ray(frustum, scene.grid)
        digest = scene_digest(scene)
        shared = shared_ring(build_ftm(frustum, scene.grid), scene.bins.count)
        old = bxc2_cache_bytes(digest, shared, rr.ray)
        (tmp_path / "ringray.bxc").write_bytes(old)
        assert load_ring_ray(tmp_path, digest) is None
        save_ring_ray(rr, tmp_path, digest)
        assert (tmp_path / "ringray.bxc").read_bytes()[:8] == b"BXC4\0\0\0\0"
        assert load_ring_ray(tmp_path, digest) == rr

    def test_save_dying_mid_write_keeps_the_old_pair(self, tmp_path, rng, monkeypatch):
        _, _, old = build_pair(rng)
        new = RingRayPair(from_dense(densify(old.ring) == 0), old.ray)
        slot = tmp_path / "c"
        save_ring_ray(old, slot, "old")
        real = transform.write_cache

        def dies_mid_write(f, *args):
            buf = io.BytesIO()
            real(buf, *args)
            f.write(buf.getvalue()[: buf.tell() // 2])
            raise OSError("simulated crash")

        monkeypatch.setattr(transform, "write_cache", dies_mid_write)
        with pytest.raises(OSError, match="simulated crash"):
            save_ring_ray(new, slot, "new")
        back = load_ring_ray(slot, "old")
        assert back is not None and back.ring == old.ring and back.ray == old.ray
        assert load_ring_ray(slot, "new") is None
        assert [p.name for p in slot.iterdir()] == ["ringray.bxc"]

    def test_save_racing_a_load_never_mixes_pairs(self, tmp_path, rng, monkeypatch):
        _, _, old = build_pair(rng)
        # same shapes as the old pair, different ring: a mix would load
        new = RingRayPair(from_dense(densify(old.ring) == 0), old.ray)
        slot = tmp_path / "c"
        save_ring_ray(old, slot, "old")
        real = transform.read_cache

        def save_lands_before_decode(*args):
            save_ring_ray(new, slot, "new")
            return real(*args)

        monkeypatch.setattr(transform, "read_cache", save_lands_before_decode)
        back = load_ring_ray(slot, "old")
        assert back is None or (back.ring == old.ring and back.ray == old.ray)
        monkeypatch.undo()
        back = load_ring_ray(slot, "new")
        assert back is not None and back.ring == new.ring and back.ray == new.ray

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, None), st.integers(0, 7)), min_size=1, max_size=3),
        st.integers(-16, 8),
    )
    def test_corrupted_bytes_read_as_the_saved_pair_or_a_miss(self, flips, resize):
        # bit flips anywhere in the file, then bytes cut off or appended:
        # the crc makes every change that decodes to another pair a miss
        raw, expected = _saved_cache_bytes()
        bad = bytearray(raw)
        for at, bit in flips:
            bad[at % len(bad)] ^= 1 << bit
        bad = bad[: len(bad) + resize] if resize < 0 else bad + bytes(resize)
        got = read_cache(bytes(bad), "d")
        assert got is None or got == expected

    def test_corrupt_matrix_file(self, tmp_path):
        # the crc matches the changed records, so the constructor's
        # column-range rule is what turns the file away
        ray = SparseBinaryMatrix(2, 3, [0, 2, 3], [0, 2, 1])
        ring = SparseBinaryMatrix(3, 4, [0, 1, 4, 6], [2, 0, 1, 3, 1, 2])
        save_ring_ray(RingRayPair(ring, ray), tmp_path, "d")
        path = tmp_path / "ringray.bxc"
        raw = bytearray(path.read_bytes())
        # the ray's last column id is its record's last int32 word: after the
        # header, the crc, the ring's record (header, 4 offsets, 6 ids, no
        # padding), the ray's record header, its 3 offsets and 2 ids
        at = len(_header("d")) + 8 + (32 + 4 * (4 + 6)) + 32 + 4 * (3 + 2)
        assert at + 4 == len(raw) and raw[at:] == np.array([1], "<i4").tobytes()
        raw[at:] = np.array([ray.cols], "<i4").tobytes()
        raw = sealed(raw, "d")
        with pytest.raises(FileFormatError) as info:
            read_cache(raw, "d")
        assert str(info.value).endswith("column index out of range")
        path.write_bytes(raw)
        assert load_ring_ray(tmp_path, "d") is None

    def test_repeated_ring_bin_under_a_valid_crc_misses(self, tmp_path):
        # the crc matches the changed records, so the constructor's row-order
        # rule is what turns the file away
        ray = SparseBinaryMatrix(2, 3, [0, 2, 3], [0, 2, 1])
        ring = SparseBinaryMatrix(3, 4, [0, 1, 4, 6], [2, 0, 1, 3, 1, 2])
        save_ring_ray(RingRayPair(ring, ray), tmp_path, "d")
        assert load_ring_ray(tmp_path, "d") == RingRayPair(ring, ray)
        path = tmp_path / "ringray.bxc"
        raw = bytearray(path.read_bytes())
        # ring row 1's bins 0, 1, 3 become 0, 0, 3: its first column id is
        # word 1 of the ids, after the header, the crc, the ring's record
        # header and its 4 int32 offsets
        at = len(_header("d")) + 8 + 32 + 4 * (4 + 1)
        assert raw[at : at + 8] == np.array([0, 1], "<i4").tobytes()
        raw[at + 4 : at + 8] = raw[at : at + 4]
        raw = sealed(raw, "d")
        with pytest.raises(FileFormatError) as info:
            read_cache(raw, "d")
        assert str(info.value).endswith("col_indices must strictly increase within a row")
        path.write_bytes(raw)
        assert load_ring_ray(tmp_path, "d") is None

    def test_pair_too_wide_for_its_plan_misses(self, tmp_path):
        # two valid records, but ray.cols * ring.cols passes 2**63
        wide = SparseBinaryMatrix(1, 2**33, [0, 0], [])
        with open(tmp_path / "ringray.bxc", "wb") as f:
            write_cache(f, "d", wide, wide)
        assert read_cache((tmp_path / "ringray.bxc").read_bytes(), "d") is not None
        assert load_ring_ray(tmp_path, "d") is None

    def test_wide_crafted_file_loads_in_a_small_multiple_of_its_size(self, tmp_path):
        # the crafted wide file of the shared layout (a 1-row ring and ray,
        # 2**17 entries each, whose plan took 2**34 entries), rebuilt with
        # the ring one row per ray entry: the plan is the ring's size
        n = 2**17
        ray = SparseBinaryMatrix(1, n, [0, n], np.arange(n))
        ring = SparseBinaryMatrix(n, n, np.arange(n + 1), np.arange(n))
        with open(tmp_path / "ringray.bxc", "wb") as f:
            write_cache(f, "d", ring, ray)
        size = (tmp_path / "ringray.bxc").stat().st_size
        tracemalloc.start()
        try:
            rr = load_ring_ray(tmp_path, "d")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rr is not None and rr._plan.nnz == n
        assert peak < 3 * size, (peak, size)

    def test_concurrent_saves_to_one_slot_never_mix(self, tmp_path, rng, monkeypatch):
        _, _, a = build_pair(rng)
        b = RingRayPair(from_dense(densify(a.ring) == 0), a.ray)
        barrier = threading.Barrier(2, timeout=30)
        real = transform.write_cache

        def meets_the_other_mid_write(f, *args):
            buf = io.BytesIO()
            real(buf, *args)
            raw = buf.getvalue()
            f.write(raw[: len(raw) // 2])
            f.flush()
            barrier.wait()
            f.write(raw[len(raw) // 2 :])

        monkeypatch.setattr(transform, "write_cache", meets_the_other_mid_write)
        errors = []

        def save(rr, digest):
            try:
                save_ring_ray(rr, tmp_path, digest)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=save, args=job) for job in ((a, "a"), (b, "b"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        monkeypatch.undo()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        loaded = load_ring_ray(tmp_path, "a"), load_ring_ray(tmp_path, "b")
        assert loaded in ((a, None), (None, b))
        assert [p.name for p in tmp_path.iterdir()] == ["ringray.bxc"]

    def test_every_prefix_and_trailing_bytes_miss(self, tmp_path):
        ring = SparseBinaryMatrix(3, 2, [0, 1, 1, 3], [1, 0, 1])
        ray = SparseBinaryMatrix(3, 4, [0, 2, 2, 3], [0, 3, 2])
        slot = tmp_path / "c"
        save_ring_ray(RingRayPair(per_entry(ring, ray), ray), slot, "d")
        path = slot / "ringray.bxc"
        raw = path.read_bytes()
        assert load_ring_ray(slot, "d") is not None
        for bad in [raw[:n] for n in range(len(raw))] + [raw + b"\x00"]:
            path.write_bytes(bad)
            assert load_ring_ray(slot, "d") is None, len(bad)

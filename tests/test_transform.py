import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bevx import (
    BevGrid,
    Camera,
    CameraRig,
    DepthBins,
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
    save_ring_ray,
    scene_digest,
    splat_reference,
    vt_ftm,
    vt_matrixvt,
)
from bevx import transform
from bevx.bench import flip_ring_bit, make_inputs, max_rel_diff
from oracles import (
    degenerate_scene,
    densify,
    dense_reformulated,
    from_dense,
    locate_scan,
    random_scene,
    ring_ray_loop,
    row,
)

from test_reference import single_ray_setup


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
        for d, s in enumerate(cells_by_bin):
            if s is None:
                continue
            assert d in row(rr.ring, s)
        for s in range(grid.n_cells):
            for d in row(rr.ring, s):
                assert cells_by_bin[int(d)] == s

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

    def test_pair_rows_must_match(self):
        a = SparseBinaryMatrix(2, 3, [0, 0, 0], [])
        b = SparseBinaryMatrix(3, 3, [0, 0, 0, 0], [])
        with pytest.raises(ShapeError):
            RingRayPair(a, b)


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
        rr = RingRayPair(ones_ring, ones_ray)
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

    def test_ray_index_arrays_come_with_the_plan(self, rng):
        _, _, rr = build_pair(rng)
        f = rng.random((rr.n_columns, 3), dtype=np.float32)
        d = rng.random((rr.n_columns, rr.n_depths), dtype=np.float32)
        vt_matrixvt(f, d, rr)
        assert "_scipy" not in vars(rr.ray)
        _, indptr, indices = rr._plan
        assert indptr.dtype == indices.dtype == np.int32
        np.testing.assert_array_equal(indptr, rr.ray.row_offsets)
        np.testing.assert_array_equal(indices, rr.ray.col_indices)

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
        _, _, rr = build_pair(rng, n_cameras=1, w_i=4, h_i=2, n_d=6, grid_cells=10)
        bad = flip_ring_bit(rr)
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
        rr = RingRayPair(
            from_dense(ring), from_dense(ray)
        )
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


class TestEffectiveFtm:
    def test_zero_ring(self):
        ring = SparseBinaryMatrix(4, 3, np.zeros(5, np.int64), [])
        ray = from_dense(np.ones((4, 2)))
        assert effective_ftm(RingRayPair(ring, ray)).nnz == 0

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

    def test_matches_kronecker_definition(self, rng):
        _, _, rr = build_pair(rng, n_cameras=2, w_i=4, h_i=2, n_d=5, grid_cells=10)
        ring = densify(rr.ring)
        ray = densify(rr.ray)
        expect = (ray[:, :, None] * ring[:, None, :]).reshape(rr.n_cells, -1)
        np.testing.assert_array_equal(densify(effective_ftm(rr)), expect)


class TestDegenerateRigs:
    """The three guarantees, the output shapes and the empty cells, on rigs
    built from geometry: a camera facing away from the grid, one depth
    bin, a one-cell grid, and bins beyond the grid's extent."""

    @settings(max_examples=40, deadline=None)
    @given(
        away=st.lists(st.booleans(), min_size=1, max_size=3),
        n_d=st.integers(1, 6),
        h_cells=st.integers(1, 6),
        w_cells=st.integers(1, 6),
        reach=st.floats(0.2, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(away=[True], n_d=4, h_cells=4, w_cells=4, reach=2.0, seed=0)  # empty ray
    @example(away=[False, True], n_d=4, h_cells=4, w_cells=4, reach=2.0, seed=0)
    @example(away=[False, False], n_d=1, h_cells=4, w_cells=4, reach=0.8, seed=0)  # one bin
    @example(away=[False, False], n_d=4, h_cells=1, w_cells=1, reach=0.8, seed=0)  # one cell
    @example(away=[False, False], n_d=6, h_cells=4, w_cells=4, reach=4.0, seed=0)  # past extent
    def test_guarantees_hold(self, away, n_d, h_cells, w_cells, reach, seed):
        scene = degenerate_scene(away, n_d, h_cells, w_cells, reach)
        frustum = generate_frustum(scene.rig, scene.bins)
        ftm = build_ftm(frustum, scene.grid)
        rr = build_ring_ray(frustum, scene.grid)
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
        empty = np.diff(ftm.row_offsets) == 0
        for out in outs.values():
            assert out.shape == (scene.grid.n_cells, 3)
            assert not out[empty].any()
        ray = densify(rr.ray).reshape(rr.n_cells, len(away), scene.rig.feature_width)
        assert not ray[:, np.array(away, dtype=bool)].any()


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

    def test_corrupt_matrix_file(self, tmp_path, rng):
        _, _, rr = build_pair(rng)
        save_ring_ray(rr, tmp_path / "c", "digest-1")
        path = tmp_path / "c" / "ringray.bxc"
        raw = bytearray(path.read_bytes())
        raw[-8:] = b"\xff" * 8  # the ray's last column index, out of range
        path.write_bytes(bytes(raw))
        assert load_ring_ray(tmp_path / "c", "digest-1") is None

    def test_every_prefix_and_trailing_bytes_miss(self, tmp_path):
        ring = SparseBinaryMatrix(3, 2, [0, 1, 1, 3], [1, 0, 1])
        ray = SparseBinaryMatrix(3, 4, [0, 2, 2, 3], [0, 3, 2])
        slot = tmp_path / "c"
        save_ring_ray(RingRayPair(ring, ray), slot, "d")
        path = slot / "ringray.bxc"
        raw = path.read_bytes()
        assert load_ring_ray(slot, "d") is not None
        for bad in [raw[:n] for n in range(len(raw))] + [raw + b"\x00"]:
            path.write_bytes(bad)
            assert load_ring_ray(slot, "d") is None, len(bad)

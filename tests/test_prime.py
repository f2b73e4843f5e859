import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

import bevx.prime
import bevx.tensor_core
from bevx import (
    BevGrid,
    Camera,
    CameraRig,
    DepthBins,
    PrimeAttention,
    RefineMap,
    Scene,
    ShapeError,
    ValidationError,
    full_vs_prime_ablation,
    generate_frustum,
    prime_depth,
    prime_feature,
)
from bevx.bench import run_check
from oracles import (
    identity_refine,
    lift_loop,
    one_hot,
    prime_depth_einsum,
    prime_feature_oneshot,
    random_scene,
    splat_loop,
    uniform,
)


def normalized_attention(rng, n_c, h_i, w_i):
    raw = rng.random((n_c, h_i, w_i), dtype=np.float32) + 1e-3
    return PrimeAttention(raw / raw.sum(axis=1, keepdims=True))


# (N_c, H_I, W_I, channels or bins): one row pools nothing; the rest are drawn
PRIME_SHAPES = [(1, 1, 1, 1), (3, 1, 5, 4)] + [
    tuple(int(n) for n in np.random.default_rng(seed).integers(1, (4, 9, 7, 11)))
    for seed in range(6)
]
LAYOUTS = pytest.mark.parametrize(
    "dtype, order",
    [(np.float32, "C"), (np.float64, "C"), (np.float32, "F"), (np.float64, "F")],
    ids=["f32-C", "f64-C", "f32-F", "f64-F"],
)


def narrow_scene(h_i=3):
    """Single camera, single column: the factorization is exact here."""
    stride = 4
    cy = (h_i / 2.0) * stride  # principal point on the middle row
    k = np.array([[10.0, 0.0, 0.5 * stride], [0.0, 10.0, cy], [0.0, 0.0, 1.0]])
    cam = Camera(k, np.eye(3), np.zeros(3))
    rig = CameraRig((cam,), 1, h_i, stride)
    return Scene(rig, DepthBins(1, 9, 8), BevGrid(10.0, 20, 20))


def not_before_the_checks(*args):
    """Stands in for work that must not start before the entry checks fail."""
    raise AssertionError("work started before the inputs were checked")


class TestPrimeAttention:
    def test_rejects_negative(self):
        w = np.full((1, 2, 3), 0.5, dtype=np.float32)
        w[0, 0, 0] = -0.5
        w[0, 1, 0] = 1.5
        with pytest.raises(ValidationError, match="non-negative"):
            PrimeAttention(w)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            PrimeAttention(np.full((1, 2, 3), 0.6, dtype=np.float32))

    @pytest.mark.parametrize("shape", [(0, 2, 3), (1, 0, 3), (1, 2, 0)])
    def test_rejects_empty(self, shape):
        with pytest.raises(ShapeError, match="non-empty"):
            PrimeAttention(np.zeros(shape, dtype=np.float32))

    def test_uniform_and_one_hot(self):
        u = uniform(2, 4, 3)
        assert u.weights.sum(axis=1) == pytest.approx(1.0)
        o = one_hot(2, 4, 3, row=1)
        assert o.weights[:, 1, :].min() == 1.0 and o.weights.sum() == 6.0


class TestPrimeDepth:
    def test_one_hot_selects_row(self, rng):
        d = rng.random((2, 4, 3, 5), dtype=np.float32)
        out = prime_depth(d, one_hot(2, 4, 3, row=2))
        np.testing.assert_allclose(out, d[:, 2], rtol=1e-6)

    def test_uniform_is_height_mean(self, rng):
        d = rng.random((1, 4, 3, 5), dtype=np.float32)
        out = prime_depth(d, uniform(1, 4, 3))
        np.testing.assert_allclose(out, d.mean(axis=1), rtol=1e-5)

    def test_loop_oracle(self, rng):
        n_c, h_i, w_i, n_d = 2, 3, 4, 5
        d = rng.random((n_c, h_i, w_i, n_d), dtype=np.float32)
        attn = normalized_attention(rng, n_c, h_i, w_i)
        out = prime_depth(d, attn)
        for n in range(n_c):
            for w in range(w_i):
                for k in range(n_d):
                    acc = 0.0
                    for h in range(h_i):
                        acc += float(attn.weights[n, h, w]) * float(d[n, h, w, k])
                    assert out[n, w, k] == pytest.approx(acc, rel=1e-5)

    def test_simplex_preserved(self, rng):
        n_c, h_i, w_i, n_d = 2, 5, 6, 9
        d = rng.random((n_c, h_i, w_i, n_d), dtype=np.float32) + 1e-3
        d /= d.sum(axis=3, keepdims=True)
        out = prime_depth(d, normalized_attention(rng, n_c, h_i, w_i))
        assert np.abs(out.sum(axis=2) - 1.0).max() <= 1e-5

    def test_linear_in_depth(self, rng):
        d = rng.random((1, 3, 2, 4), dtype=np.float32)
        attn = normalized_attention(rng, 1, 3, 2)
        np.testing.assert_allclose(
            prime_depth(3.0 * d, attn), 3.0 * prime_depth(d, attn), rtol=1e-5
        )

    def test_rejects_raw_weights(self, rng):
        # attention comes in one form, a PrimeAttention, as refine is a RefineMap
        d = rng.random((1, 2, 2, 3), dtype=np.float32)
        raw = np.full((1, 2, 2), 0.5, dtype=np.float32)
        with pytest.raises(ValidationError, match="^attn must be a PrimeAttention, got ndarray"):
            prime_depth(d, raw)

    @LAYOUTS
    @pytest.mark.parametrize("shape", PRIME_SHAPES + [(6, 32, 88, 112)], ids=str)
    def test_matches_einsum(self, rng, shape, dtype, order):
        # a batched matmul sums over rows in its own order: close, not bitwise
        n_c, h_i, w_i, _ = shape
        d = np.asarray(rng.random(shape) + 1e-3, dtype=dtype, order=order)
        attn = normalized_attention(rng, n_c, h_i, w_i)
        out = prime_depth(d, attn)
        assert out.dtype == np.float32 and out.shape == (n_c, w_i, shape[3])
        np.testing.assert_allclose(out, prime_depth_einsum(d, attn), rtol=1e-6, atol=0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            prime_depth(
                rng.random((1, 2, 3, 4), dtype=np.float32),
                uniform(1, 2, 4),
            )


class TestPrimeFeature:
    def test_constant_along_height_passes_through(self, rng):
        base = rng.random((2, 1, 4, 3), dtype=np.float32)
        f = np.broadcast_to(base, (2, 5, 4, 3)).copy()
        out = prime_feature(
            f, np.zeros((5, 4, 3), dtype=np.float32), identity_refine(3)
        )
        np.testing.assert_array_equal(out, base[:, 0])

    def test_loop_max_oracle(self, rng):
        f = rng.random((2, 4, 3, 5), dtype=np.float32)
        out = prime_feature(
            f, np.zeros((4, 3, 5), dtype=np.float32), identity_refine(5)
        )
        for n in range(2):
            for w in range(3):
                for c in range(5):
                    assert out[n, w, c] == max(f[n, h, w, c] for h in range(4))

    @LAYOUTS
    @pytest.mark.parametrize("shape", PRIME_SHAPES, ids=str)
    def test_bit_identical_to_one_shot_pool(self, rng, shape, dtype, order):
        f = np.asarray(rng.standard_normal(shape), dtype=dtype, order=order)
        e = np.asarray(rng.standard_normal(shape[1:]), dtype=dtype, order=order)
        c = shape[3]
        refine = RefineMap(
            rng.standard_normal((c + 1, c), dtype=np.float32),
            rng.standard_normal(c + 1, dtype=np.float32),
        )
        out = prime_feature(f, e, refine)
        ref = prime_feature_oneshot(f, e, refine)
        assert out.dtype == ref.dtype == np.float32 and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    def test_pools_without_a_full_height_temporary(self, rng):
        # S5's 32 rows; the one-shot (f + e).max(axis=1) held a copy of the
        # whole input, and the pooled row, its buffer and the refined output
        # are each 1/32 of it
        f = rng.random((6, 32, 44, 64), dtype=np.float32)
        e = rng.random(f.shape[1:], dtype=np.float32)
        refine = identity_refine(64)
        prime_feature(f, e, refine)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            prime_feature(f, e, refine)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < f.nbytes / 4

    def test_dominant_embedded_row_wins(self, rng):
        f = rng.random((1, 4, 3, 2), dtype=np.float32)
        e = np.zeros((4, 3, 2), dtype=np.float32)
        e[2] = 100.0
        out = prime_feature(f, e, identity_refine(2))
        np.testing.assert_allclose(out, f[:, 2] + 100.0, rtol=1e-6)

    def test_refine_applied(self, rng):
        f = rng.random((1, 2, 3, 4), dtype=np.float32)
        refine = RefineMap(
            rng.random((2, 4), dtype=np.float32), rng.random(2, dtype=np.float32)
        )
        out = prime_feature(f, np.zeros((2, 3, 4), dtype=np.float32), refine)
        pooled = f.max(axis=1)
        np.testing.assert_allclose(
            out, pooled @ refine.matrix.T + refine.bias, rtol=1e-5
        )

    def test_monotone_under_identity(self, rng):
        f = rng.random((1, 3, 2, 2), dtype=np.float32)
        zero = np.zeros((3, 2, 2), dtype=np.float32)
        ident = identity_refine(2)
        before = prime_feature(f, zero, ident)
        f2 = f.copy()
        f2[0, 1, 0, 1] += 0.7
        after = prime_feature(f2, zero, ident)
        assert (after >= before - 1e-7).all()

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            prime_feature(
                rng.random((1, 2, 3, 4), dtype=np.float32),
                np.zeros((2, 3, 5), dtype=np.float32),
                identity_refine(4),
            )
        with pytest.raises(ShapeError, match="no feature rows"):
            prime_feature(
                np.zeros((2, 0, 3, 4), dtype=np.float32),
                np.zeros((0, 3, 4), dtype=np.float32),
                identity_refine(4),
            )

    def test_refine_validation(self):
        with pytest.raises(ShapeError):
            RefineMap(np.ones((2, 3)), np.ones(3))

    def test_refine_of_other_channels_rejected_before_pooling(self, rng, monkeypatch):
        monkeypatch.setattr(bevx.prime, "_pool_feature", not_before_the_checks)
        refine = RefineMap(np.ones((2, 5), np.float32), np.zeros(2, np.float32))
        with pytest.raises(ShapeError, match=r"^prime_feature: incompatible shapes \(1, 2, 3, 4\)"):
            prime_feature(
                rng.random((1, 2, 3, 4), dtype=np.float32),
                np.zeros((2, 3, 4), dtype=np.float32),
                refine,
            )


CHUNK = bevx.tensor_core._FINITE_CHUNK


class TestPrimeFeatureFiniteness:
    """The pool proves the feature finite; the exact scan names the cause."""

    @pytest.mark.parametrize("shape", [(0, 2, 3, 4), (1, 2, 0, 4), (1, 2, 3, 0)], ids=str)
    def test_zero_size_extents_give_an_empty_pool(self, rng, shape):
        c = shape[3]
        refine = RefineMap(
            rng.standard_normal((c + 2, c), dtype=np.float32),
            rng.standard_normal(c + 2, dtype=np.float32),
        )
        f = np.zeros(shape, np.float32)
        e = np.zeros(shape[1:], np.float32)
        out = prime_feature(f, e, refine)
        ref = prime_feature_oneshot(f, e, refine)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "value, embed, gain",
        [(3e38, 3e38, 1.0), (-3e38, -3e38, 1.0), (2e38, 0.0, 4.0), (2e38, 0.0, -4.0)],
        ids=["embed+", "embed-", "refine+", "refine-"],
    )
    def test_float32_overflow_of_finite_inputs_is_refused(self, value, embed, gain):
        # the parent returned [inf] here; the overflow warning is silenced,
        # so under filterwarnings=error the ValidationError is what surfaces
        f = np.full((1, 2, 1, 1), value, np.float32)
        e = np.full((2, 1, 1), embed, np.float32)
        refine = RefineMap(np.full((1, 1), gain, np.float32), np.zeros(1, np.float32))
        with pytest.raises(ValidationError, match="^prime_feature: float32 overflow"):
            prime_feature(f, e, refine)

    def test_largest_float32_passes(self):
        big = np.finfo(np.float32).max
        f = np.array([big, -big], np.float32).reshape(1, 1, 1, 2)
        out = prime_feature(f, np.zeros((1, 1, 2), np.float32), identity_refine(2))
        assert out.tolist() == [[[big, -big]]]

    @pytest.mark.parametrize("row", [0, 1], ids=["row0", "hidden-middle-row"])
    def test_negative_inf_is_found_in_any_row(self, rng, row):
        # row 1's -inf is below row 2's values, so the max never sees it
        f = rng.random((2, 3, 4, 5), dtype=np.float32)
        f[:, 2] += 10.0
        f[1, row, 2, 3] = -np.inf
        with pytest.raises(ValidationError, match="^feature contains non-finite values$"):
            prime_feature(f, np.zeros((3, 4, 5), np.float32), identity_refine(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("at", [0, CHUNK - 1, CHUNK, 2 * CHUNK + 1, -1])
    def test_non_finite_found_across_scan_chunks(self, bad, at):
        # three whole scan chunks and a partial fourth
        f = np.ones((1, 3, CHUNK // 2 + 7, 2), np.float32)
        f.reshape(-1)[at] = bad
        with pytest.raises(ValidationError, match="^feature contains non-finite values$"):
            prime_feature(f, np.zeros(f.shape[1:], np.float32), identity_refine(2))

    def test_non_finite_feature_is_named_before_an_overflow(self):
        f = np.full((1, 2, 1, 2), 3e38, np.float32)
        f[0, 1, 0, 1] = np.nan
        e = np.full((2, 1, 2), 3e38, np.float32)
        with pytest.raises(ValidationError, match="^feature contains non-finite values$"):
            prime_feature(f, e, identity_refine(2))

    def test_non_finite_feature_is_named_before_a_shape_error(self):
        # the order of the checks before the pool stopped scanning the feature
        f = np.full((1, 2, 3, 4), np.nan, np.float32)
        with pytest.raises(ValidationError, match="^feature contains non-finite values$"):
            prime_feature(f, np.full((2, 3, 5), np.nan, np.float32), identity_refine(4))

    def test_a_finite_feature_is_not_scanned_on_its_own(self, rng, monkeypatch):
        f = rng.random((2, 3, 4, 5), dtype=np.float32)
        scanned = []

        def recording(arr):
            scanned.append(arr.size)
            return real(arr)

        real = bevx.tensor_core._all_finite
        monkeypatch.setattr(bevx.tensor_core, "_all_finite", recording)
        monkeypatch.setattr(bevx.prime, "_all_finite", recording)
        out = prime_feature(f, np.zeros((3, 4, 5), np.float32), identity_refine(5))
        assert f.size not in scanned and out.size in scanned

    def test_ablation_refine_overflow_is_refused(self, rng):
        scene = narrow_scene(h_i=3)
        depth = rng.random((1, 3, 1, 8), dtype=np.float32)
        depth /= depth.sum(axis=3, keepdims=True)
        refine = RefineMap(np.full((1, 1), 4.0, np.float32), np.zeros(1, np.float32))
        with pytest.raises(ValidationError, match="^ablation: float32 overflow"):
            full_vs_prime_ablation(
                scene,
                np.full((1, 3, 1, 1), 2e38, np.float32),
                depth,
                normalized_attention(rng, 1, 3, 1),
                refine,
                np.zeros((3, 1, 1), np.float32),
            )


class TestAblation:
    def test_degenerate_agreement(self, rng):
        scene = narrow_scene(h_i=3)
        c = 4
        feat = np.broadcast_to(
            rng.random((1, 1, 1, c), dtype=np.float32), (1, 3, 1, c)
        ).copy()
        depth = rng.random((1, 3, 1, 8), dtype=np.float32)
        depth /= depth.sum(axis=3, keepdims=True)
        attn = one_hot(1, 3, 1, row=1)  # the reference row
        report = full_vs_prime_ablation(
            scene, feat, depth, attn, identity_refine(c), np.zeros((3, 1, c), np.float32)
        )
        assert report.spurious_rate == 0.0  # factorization exact on this scene
        assert report.max_rel_diff <= 1e-5

    def test_random_inputs_reported_finite(self, rng):
        scene = narrow_scene(h_i=4)
        feat = rng.random((1, 4, 1, 3), dtype=np.float32)
        depth = rng.random((1, 4, 1, 8), dtype=np.float32)
        depth /= depth.sum(axis=3, keepdims=True)
        attn = normalized_attention(rng, 1, 4, 1)
        report = full_vs_prime_ablation(
            scene, feat, depth, attn, identity_refine(3), np.zeros((4, 1, 3), np.float32)
        )
        assert np.isfinite(report.max_rel_diff)
        assert report.max_rel_diff > 0.0
        assert 0.0 <= report.mean_rel_diff <= report.max_rel_diff
        assert report.bev_full.shape == report.bev_prime.shape

    def test_zero_feature_zero_discrepancy(self, rng):
        scene = narrow_scene(h_i=3)
        depth = rng.random((1, 3, 1, 8), dtype=np.float32)
        depth /= depth.sum(axis=3, keepdims=True)
        attn = normalized_attention(rng, 1, 3, 1)
        report = full_vs_prime_ablation(
            scene,
            np.zeros((1, 3, 1, 2), dtype=np.float32),
            depth,
            attn,
            identity_refine(2),
            np.zeros((3, 1, 2), dtype=np.float32),
        )
        assert report.max_rel_diff == 0.0 and report.mean_rel_diff == 0.0

    def test_random_refine_changes_channels(self, rng):
        scene = narrow_scene(h_i=3)
        feat = rng.random((1, 3, 1, 4), dtype=np.float32)
        depth = rng.random((1, 3, 1, 8), dtype=np.float32)
        depth /= depth.sum(axis=3, keepdims=True)
        attn = normalized_attention(rng, 1, 3, 1)
        refine = RefineMap(
            rng.random((2, 4), dtype=np.float32), rng.random(2, dtype=np.float32)
        )
        report = full_vs_prime_ablation(
            scene, feat, depth, attn, refine, np.zeros((3, 1, 4), np.float32)
        )
        assert report.bev_prime.shape[1] == 2

    def test_full_route_matches_row_loop_oracle(self, rng):
        """bev_full is the sum over feature rows of the loop oracles' lift
        and splat through that row's frustum."""
        n_c, w_i, h_i, n_d, c = 2, 4, 3, 5, 3
        scene = random_scene(rng, n_cameras=n_c, w_i=w_i, h_i=h_i, n_d=n_d, grid_cells=10)
        feat = rng.random((n_c, h_i, w_i, c), dtype=np.float32)
        depth = rng.random((n_c, h_i, w_i, n_d), dtype=np.float32)
        depth /= depth.sum(axis=3, keepdims=True)
        pos_embed = rng.random((h_i, w_i, c), dtype=np.float32)
        attn = normalized_attention(rng, n_c, h_i, w_i)
        refine = RefineMap(
            rng.random((c, c), dtype=np.float32), rng.random(c, dtype=np.float32)
        )
        report = full_vs_prime_ablation(scene, feat, depth, attn, refine, pos_embed)

        refined = (feat + pos_embed) @ refine.matrix.T + refine.bias
        weighted = attn.weights[..., None] * depth
        expect = np.zeros_like(report.bev_full)
        for h in range(h_i):
            lifted = lift_loop(
                refined[:, h].reshape(n_c * w_i, c), weighted[:, h].reshape(n_c * w_i, n_d)
            )
            expect += splat_loop(lifted, generate_frustum(scene.rig, scene.bins, h), scene.grid)
        assert expect.any()
        err = np.abs(report.bev_full - expect).max()
        assert err <= 1e-5 * np.abs(expect).max()

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 1, 3), (3, 1, 2, 1)])
    def test_pos_embed_of_another_shape_rejected_at_the_boundary(self, rng, shape):
        scene = narrow_scene(h_i=3)
        feat = rng.random((1, 3, 1, 2), dtype=np.float32)
        depth = rng.random((1, 3, 1, 8), dtype=np.float32)
        attn = normalized_attention(rng, 1, 3, 1)
        with pytest.raises(ShapeError, match="^ablation: incompatible shapes"):
            full_vs_prime_ablation(
                scene, feat, depth, attn, identity_refine(2), np.zeros(shape, np.float32)
            )

    def test_attention_of_one_row_rejected_before_any_frustum(self, rng, monkeypatch):
        # a (N_c, 1, W_I) attention broadcasts against the depths, so only an
        # entry check stops it before the full-height route runs
        monkeypatch.setattr(bevx.prime, "generate_frustum", not_before_the_checks)
        scene = narrow_scene(h_i=3)
        one_row = PrimeAttention(np.ones((1, 1, 1), np.float32))
        with pytest.raises(ShapeError, match=r"^ablation: incompatible shapes \(1, 1, 1\)"):
            full_vs_prime_ablation(
                scene,
                rng.random((1, 3, 1, 2), dtype=np.float32),
                rng.random((1, 3, 1, 8), dtype=np.float32),
                one_row,
                identity_refine(2),
                np.zeros((3, 1, 2), np.float32),
            )

    def test_refine_of_other_channels_rejected_at_the_boundary(self, rng, monkeypatch):
        monkeypatch.setattr(bevx.prime, "generate_frustum", not_before_the_checks)
        with pytest.raises(ShapeError, match=r"^ablation: incompatible shapes \(1, 3, 1, 2\)"):
            full_vs_prime_ablation(
                narrow_scene(h_i=3),
                rng.random((1, 3, 1, 2), dtype=np.float32),
                rng.random((1, 3, 1, 8), dtype=np.float32),
                normalized_attention(rng, 1, 3, 1),
                identity_refine(3),
                np.zeros((3, 1, 2), np.float32),
            )

    def test_each_row_frustum_is_built_once(self, rng, monkeypatch):
        rows = []
        real = bevx.prime.generate_frustum

        def counted(rig, bins, *row):
            rows.append(row)
            return real(rig, bins, *row)

        monkeypatch.setattr(bevx.prime, "generate_frustum", counted)
        h_i = 5
        full_vs_prime_ablation(
            narrow_scene(h_i=h_i),
            rng.random((1, h_i, 1, 2), dtype=np.float32),
            rng.random((1, h_i, 1, 8), dtype=np.float32),
            normalized_attention(rng, 1, h_i, 1),
            identity_refine(2),
            np.zeros((h_i, 1, 2), np.float32),
        )
        assert rows == [(h,) for h in range(h_i)]

    def test_spurious_rate_is_the_checkers(self, rig_config_path, rig_scene):
        rig = rig_scene.rig
        shape = (rig.n_cameras, rig.feature_height, rig.feature_width)
        n_d = rig_scene.bins.count
        report = full_vs_prime_ablation(
            rig_scene,
            np.zeros(shape + (1,), np.float32),
            np.full(shape + (n_d,), 1.0 / n_d, np.float32),
            uniform(*shape),
            identity_refine(1),
            np.zeros(shape[1:] + (1,), np.float32),
        )
        assert report.spurious_rate == run_check(rig_config_path, 1, 0).spurious_rate > 0.0


class TestPrimeBoundaries:
    """Attention is taken only as a PrimeAttention and refinement only as a
    RefineMap, at every public function of the module."""

    CALLS = {
        "prime_depth": lambda i: prime_depth(i["depth"], i["attn"]),
        "prime_feature": lambda i: prime_feature(i["feature"], i["pos_embed"], i["refine"]),
        "full_vs_prime_ablation": lambda i: full_vs_prime_ablation(narrow_scene(h_i=3), **i),
    }
    OTHER_FORMS = {
        "attn": (PrimeAttention, np.full((1, 3, 1), 1.0 / 3, np.float32)),
        "refine": (RefineMap, (np.eye(2, dtype=np.float32), np.zeros(2, np.float32))),
    }

    @pytest.mark.parametrize("raw", [True, False], ids=["raw", "none"])
    @pytest.mark.parametrize(
        "call, arg",
        [
            ("prime_depth", "attn"),
            ("prime_feature", "refine"),
            ("full_vs_prime_ablation", "attn"),
            ("full_vs_prime_ablation", "refine"),
        ],
    )
    def test_other_forms_rejected(self, rng, call, arg, raw):
        kind, raw_form = self.OTHER_FORMS[arg]
        inputs = dict(
            feature=rng.random((1, 3, 1, 2), dtype=np.float32),
            depth=rng.random((1, 3, 1, 8), dtype=np.float32),
            attn=uniform(1, 3, 1),
            refine=identity_refine(2),
            pos_embed=np.zeros((3, 1, 2), np.float32),
        )
        inputs[arg] = raw_form if raw else None
        with pytest.raises(ValidationError, match=f"^{arg} must be a {kind.__name__}, got "):
            self.CALLS[call](inputs)


def ablation_digest(report):
    """sha256 of an AblationReport: both BEVs (dtype, shape and bytes) and
    the three floats as little-endian doubles."""
    h = hashlib.sha256()
    for a in (report.bev_full, report.bev_prime):
        h.update(f"{a.dtype}{a.shape}:".encode() + np.ascontiguousarray(a).tobytes())
    h.update(struct.pack("<3d", report.mean_rel_diff, report.max_rel_diff, report.spurious_rate))
    return h.hexdigest()


def test_ablation_report_is_pinned():
    """One seeded report, bit for bit: restructuring the ablation must not
    move either BEV or any of its three figures."""
    rng = np.random.default_rng(18)
    n_c, w_i, h_i, n_d, c = 3, 6, 5, 7, 4
    scene = random_scene(rng, n_cameras=n_c, w_i=w_i, h_i=h_i, n_d=n_d, grid_cells=12)
    feat = rng.standard_normal((n_c, h_i, w_i, c), dtype=np.float32)
    depth = rng.random((n_c, h_i, w_i, n_d), dtype=np.float32) + 1e-3
    depth /= depth.sum(axis=3, keepdims=True)
    attn = normalized_attention(rng, n_c, h_i, w_i)
    refine = RefineMap(
        rng.standard_normal((c - 1, c), dtype=np.float32),
        rng.standard_normal(c - 1, dtype=np.float32),
    )
    report = full_vs_prime_ablation(
        scene, feat, depth, attn, refine, np.zeros((h_i, w_i, c), np.float32)
    )
    assert report.spurious_rate > 0.0 and report.bev_full.any()
    assert ablation_digest(report) == (
        "538f0b0608db86324574a54681dd7def9ac70786b24cac82e1ae83837f4138da"
    )

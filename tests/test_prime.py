import numpy as np
import pytest

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
from oracles import (
    identity_refine,
    lift_loop,
    one_hot,
    random_scene,
    splat_loop,
    uniform,
)


def normalized_attention(rng, n_c, h_i, w_i):
    raw = rng.random((n_c, h_i, w_i), dtype=np.float32) + 1e-3
    return PrimeAttention(raw / raw.sum(axis=1, keepdims=True))


def narrow_scene(h_i=3):
    """Single camera, single column: the factorization is exact here."""
    stride = 4
    cy = (h_i / 2.0) * stride  # principal point on the middle row
    k = np.array([[10.0, 0.0, 0.5 * stride], [0.0, 10.0, cy], [0.0, 0.0, 1.0]])
    cam = Camera(k, np.eye(3), np.zeros(3))
    rig = CameraRig((cam,), 1, h_i, stride)
    return Scene(rig, DepthBins(1, 9, 8), BevGrid(10.0, 20, 20))


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

    def test_accepts_raw_weights(self, rng):
        d = rng.random((1, 2, 2, 3), dtype=np.float32)
        raw = np.full((1, 2, 2), 0.5, dtype=np.float32)
        out = prime_depth(d, raw)
        np.testing.assert_allclose(out, 0.5 * d.sum(axis=1), rtol=1e-6)

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

    def test_refine_validation(self):
        with pytest.raises(ShapeError):
            RefineMap(np.ones((2, 3)), np.ones(3))


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
        report = full_vs_prime_ablation(scene, feat, depth, attn, identity_refine(c))
        assert report.spurious_rate == 0.0  # factorization exact on this scene
        assert report.max_rel_diff <= 1e-5

    def test_random_inputs_reported_finite(self, rng):
        scene = narrow_scene(h_i=4)
        feat = rng.random((1, 4, 1, 3), dtype=np.float32)
        depth = rng.random((1, 4, 1, 8), dtype=np.float32)
        depth /= depth.sum(axis=3, keepdims=True)
        attn = normalized_attention(rng, 1, 4, 1)
        report = full_vs_prime_ablation(scene, feat, depth, attn, identity_refine(3))
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
        report = full_vs_prime_ablation(scene, feat, depth, attn, refine)
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

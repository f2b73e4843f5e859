"""Height-axis compression of image features and categorical depths.

A full-height feature map (N_c, H_I, W_I, C) is expensive to transport to
BEV because every (row, column, bin) sample must be splatted. On flat-world
geometry each column maps to one ground ray, so the height axis mostly
carries redundancy. This module collapses it:

  * depths: a per-column attention over rows reduces (H_I, N_d) to (N_d,)
    by weighted sum, preserving the probability simplex. The sum is one
    batched matmul, (1, H_I) @ (H_I, N_d) per column: it equals the
    height-weighted sum within float32 rounding, but sums in its own order,
    so it is not bit-identical to an einsum;
  * features: an additive position embedding, a column-wise max-pool over
    rows, and a user-supplied linear refinement reduce (H_I, C) to (C',).
    The max-pool streams the rows through one reused (N_c, W_I, C) row
    buffer, so the embedded full-height tensor is never held; max is
    exact, so the output is bit-identical to pooling that tensor at once.
    The same pass proves the feature finite, so `prime_feature` does not
    scan it first (see `_pool_feature`).

Attention and refinement weights are inputs here, not learned, and each
public function takes them in one form: attention as a `PrimeAttention`,
refinement as a `RefineMap`. Every input is checked once, by
`prime_depth` or `prime_feature`. `full_vs_prime_ablation` quantifies what
the compression loses by running the full-height exact transform (per
feature row, `vt_matrixvt` over that row's exact ring/ray pair, summed) and
the compressed fast transform on the same inputs; it composes the two
public routes, so it checks only what they cannot: that the inputs match
the scene's rig.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BevxError, ShapeError, ValidationError
from .geometry import FrustumGeometry, _owned, _real, _require, generate_frustum
from .reference import build_ftm
from .tensor_core import DTYPE, _all_finite, _coerce, as_feature
from .transform import _held, _spurious_rate, build_ring_ray, effective_ftm, vt_matrixvt

__all__ = [
    "PrimeAttention",
    "RefineMap",
    "AblationReport",
    "prime_depth",
    "prime_feature",
    "full_vs_prime_ablation",
]

_SIMPLEX_TOL = 1e-5


def _kept(x, name):
    """`x` as the float32 array an attention or refine map keeps: real
    numbers only (`_real`), converted once under `geometry._owned`'s rule,
    and then proved finite, so the array that is checked is the array that
    is kept."""
    return as_feature(_owned(_real(x, name), DTYPE), name)


@dataclass(frozen=True, eq=False)
class PrimeAttention:
    """Per-column row weights, normalized over the height axis.

    weights[n, h, w] >= 0 and sum_h weights[n, h, w] == 1 within 1e-5.
    The attention keeps its weights as float32 under `geometry._owned`'s
    rule (`_kept`), so no write to the caller's array can move it off the
    simplex after it was checked. An attention compares and hashes by
    identity, as its array field would make a generated == ambiguous.
    """

    weights: np.ndarray  # (N_c, H_I, W_I)

    def __post_init__(self):
        w = _kept(self.weights, "attention")
        if w.ndim != 3 or not w.size:
            raise ShapeError(f"attention must be non-empty (N_c, H_I, W_I), got {w.shape}")
        if np.any(w < 0):
            raise ValidationError("attention weights must be non-negative")
        col_mass = w.sum(axis=1)
        if np.abs(col_mass - 1.0).max() > _SIMPLEX_TOL:
            raise ValidationError(
                "attention must sum to 1 over the height axis per column "
                f"(worst deviation {np.abs(col_mass - 1.0).max():.2e})"
            )
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True, eq=False)
class RefineMap:
    """Linear stand-in for the learned post-pool refinement: x -> matrix @ x + bias.

    Keeps both arrays as PrimeAttention keeps its weights, and compares
    and hashes by identity."""

    matrix: np.ndarray  # (C_out, C_in)
    bias: np.ndarray  # (C_out,)

    def __post_init__(self):
        m = _kept(self.matrix, "refine matrix")
        b = _kept(self.bias, "refine bias")
        if m.ndim != 2 or b.shape != (m.shape[0],):
            raise ShapeError.mismatch("refine", m.shape, b.shape)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "bias", b)

    def _apply(self, x):
        """x (..., C_in) -> (..., C_out); x is a checked float32 array."""
        return x @ self.matrix.T + self.bias


_OVERFLOW = "float32 overflow of finite inputs in the embedding add or the refine"


def _pool_feature(f, e, refine):
    """Embed, max-pool over rows and refine: (N_c, H_I, W_I, C) ->
    (N_c, W_I, C_out), where `f` is coerced but need not be scanned.

    The pool proves `f` finite as it reads it: the running max carries NaN
    and +inf, and the min of each embedded row, taken while the row is in
    cache, carries -inf (row 0 included). On a non-finite pool or output,
    the exact scan of `f` names the cause: a non-finite feature, or else a
    float32 overflow of finite values, each a ValidationError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pooled = f[:, 0] + e[0]
        if not pooled.size:
            return refine._apply(pooled)
        low = pooled.min()
        row = np.empty_like(pooled)
        for h in range(1, f.shape[1]):
            np.add(f[:, h], e[h], out=row)
            low = min(low, row.min())  # a NaN here rides the running max
            np.maximum(pooled, row, out=pooled)
        out = refine._apply(pooled)
    if not (math.isfinite(low) and math.isfinite(pooled.max()) and _all_finite(out)):
        as_feature(f, "feature")  # names a non-finite feature
        raise ValidationError(f"prime_feature: {_OVERFLOW}")
    return out


def prime_depth(depth, attn):
    """Attention-weighted sum of categorical depth over the height axis.

    out[n, w, d] = sum_h attn[n, h, w] * depth[n, h, w, d]. Rowwise-simplex
    inputs stay on the simplex because the attention is itself normalized.

    Args:
        depth: (N_c, H_I, W_I, N_d) categorical depth scores.
        attn: PrimeAttention with matching (N_c, H_I, W_I); any other value
            is a ValidationError.

    Returns:
        (N_c, W_I, N_d) compressed depth.
    """
    _require(attn, PrimeAttention, "attn")
    d = as_feature(depth, "depth")
    if d.ndim != 4 or d.shape[:3] != attn.weights.shape:
        raise ShapeError.mismatch("prime_depth", d.shape, attn.weights.shape)
    # per column, the (1, H_I) attention row times the (H_I, N_d) depths
    w = attn.weights.transpose(0, 2, 1)[:, :, None, :]
    return np.matmul(w, d.transpose(0, 2, 1, 3))[:, :, 0]


def prime_feature(feature, pos_embed, refine):
    """Position-embed, column max-pool over rows, then linearly refine.

    Args:
        feature: (N_c, H_I, W_I, C) image features.
        pos_embed: (H_I, W_I, C) additive embedding, shared across cameras.
        refine: RefineMap with C_in == C; any other value is a
            ValidationError.

    Returns:
        (N_c, W_I, C_out) compressed features.

    Raises:
        ValidationError: the feature or embedding holds a non-finite
            value, or finite inputs overflow float32 in the embedding add
            or the refine, so the output would not be finite.
    """
    _require(refine, RefineMap, "refine")
    f = _coerce(feature, "feature")  # proved finite by the pool that reads it
    try:
        e = as_feature(pos_embed, "pos_embed")
        if f.ndim != 4 or e.shape != f.shape[1:]:
            raise ShapeError.mismatch("prime_feature", f.shape, e.shape)
        if refine.matrix.shape[1] != f.shape[3]:
            raise ShapeError.mismatch("prime_feature", f.shape, refine.matrix.shape)
        if f.shape[1] == 0:
            raise ShapeError(f"prime_feature: no feature rows to pool in {f.shape}")
    except BevxError:
        as_feature(f, "feature")  # a non-finite feature is named first
        raise
    return _pool_feature(f, e, refine)


@dataclass(frozen=True, eq=False)
class AblationReport:
    """Per-cell disagreement between the full-height and compressed routes.

    bev_full is the exact full-height transform, bev_prime the compressed
    ring/ray one. rel[s] = max_c |full - prime| / max(max_c |full|,
    max_c |prime|) per BEV cell, 0 where both are zero (so also for zero
    channels); mean/max aggregate over cells. spurious_rate is the fraction
    of factorization-implied transport entries absent from the exact
    transport matrix of the middle row. A report compares and hashes by
    identity, as PrimeAttention does.
    """

    mean_rel_diff: float
    max_rel_diff: float
    spurious_rate: float
    bev_full: np.ndarray
    bev_prime: np.ndarray


def full_vs_prime_ablation(scene, feature, depth, attn, refine, pos_embed):
    """Run both pipelines on identical inputs and report the gap.

    Full route: per-pixel embedding + refinement, then for each feature row
    `vt_matrixvt` of the refined features and attention-weighted depths
    over that row's exact pair, summed into one float32 buffer in row
    order. The exact pair is `build_ring_ray` of the row's frustum seen as
    N_c * W_I one-column cameras, which implies exactly that row's
    `build_ftm`, so no lifted tensor is held and no sample is scattered.
    Compressed route: prime_feature / prime_depth, then the reformulated
    ring/ray transform through the middle-row frustum, the one the full
    route built for row H_I // 2.

    Inputs are checked once. This function checks only that the feature
    and depth match the rig's (N_c, H_I, W_I); prime_depth and
    prime_feature, called before any frustum is built, check `attn`,
    `refine` and `pos_embed` and prove every input finite, so their errors
    name them. The full-height refine is checked for float32 overflow on
    its own: it refines rows the max-pool drops.

    The discrepancy is a diagnostic, not a pass/fail quantity: it mixes the
    height compression itself with the factorization's spurious entries
    (reported separately as spurious_rate).

    Args:
        scene: geometry.Scene.
        feature: (N_c, H_I, W_I, C).
        depth: (N_c, H_I, W_I, N_d).
        attn: PrimeAttention of shape (N_c, H_I, W_I).
        refine: RefineMap with C_in == C.
        pos_embed: (H_I, W_I, C); pass zeros for no embedding.

    Returns:
        AblationReport.
    """
    rig, bins, grid = scene.rig, scene.bins, scene.grid
    f = _coerce(feature, "feature")  # proved finite by prime_depth / prime_feature below
    d = _coerce(depth, "depth")
    e = _coerce(pos_embed, "pos_embed")
    expected = (rig.n_cameras, rig.feature_height, rig.feature_width)
    if f.ndim != 4 or d.ndim != 4 or f.shape[:3] != expected or d.shape[:3] != expected:
        raise ShapeError.mismatch("ablation", f.shape, d.shape)
    n_w = rig.n_cameras * rig.feature_width
    pd = prime_depth(d, attn).reshape(n_w, -1)
    pf = prime_feature(f, e, refine).reshape(n_w, -1)

    middle = rig.feature_height // 2
    # row-major, so row h's (N_c, W_I, ·) block reshapes with no copy
    with np.errstate(over="ignore", invalid="ignore"):
        refined = refine._apply(f.swapaxes(0, 1) + e[:, None])
    if not _all_finite(refined):
        raise ValidationError(f"ablation: {_OVERFLOW}")
    weighted = attn.weights.swapaxes(0, 1)[..., None] * d.swapaxes(0, 1)
    bev_full = np.zeros((grid.n_cells, refined.shape[-1]), dtype=np.float32)
    for h in range(rig.feature_height):
        frustum = generate_frustum(rig, bins, h)
        # the row's exact pair: its frustum seen as N_c * W_I one-column cameras
        exact = build_ring_ray(FrustumGeometry(frustum.points_xyz.reshape(n_w, 1, -1, 3)), grid)
        bev_full += vt_matrixvt(refined[h].reshape(n_w, -1), weighted[h].reshape(n_w, -1), exact)
        if h == middle:
            reference = frustum

    rr = build_ring_ray(reference, grid)
    bev_prime = vt_matrixvt(pf, pd, rr)
    spurious = _spurious_rate(_held(build_ftm(reference, grid), effective_ftm(rr)))

    # per-cell maxima from 0, so zero channels give zero gaps
    gap = np.abs(bev_full - bev_prime).max(axis=1, initial=0.0)
    scale = np.maximum(
        np.abs(bev_full).max(axis=1, initial=0.0), np.abs(bev_prime).max(axis=1, initial=0.0)
    )
    rel = np.where(scale > 0, gap / np.maximum(scale, 1e-30), 0.0)
    return AblationReport(
        mean_rel_diff=float(rel.mean()),
        max_rel_diff=float(rel.max()),
        spurious_rate=float(spurious),
        bev_full=bev_full,
        bev_prime=bev_prime,
    )

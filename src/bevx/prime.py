"""Height-axis compression of image features and categorical depths.

A full-height feature map (N_c, H_I, W_I, C) is expensive to transport to
BEV because every (row, column, bin) sample must be splatted. On flat-world
geometry each column maps to one ground ray, so the height axis mostly
carries redundancy. This module collapses it:

  * depths: a per-column attention over rows reduces (H_I, N_d) to (N_d,)
    by weighted sum, preserving the probability simplex;
  * features: an additive position embedding, a column-wise max-pool over
    rows, and a user-supplied linear refinement reduce (H_I, C) to (C',).

Attention and refinement weights are inputs here, not learned.
`full_vs_prime_ablation` quantifies what the compression loses by running
the full-height reference (`lift` + `splat_reference` once per feature row,
summed) and the compressed fast transform on the same inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .geometry import generate_frustum
from .reference import build_ftm, lift, splat_reference
from .tensor_core import as_feature
from .transform import build_ring_ray, effective_ftm, vt_matrixvt

__all__ = [
    "PrimeAttention",
    "RefineMap",
    "AblationReport",
    "prime_depth",
    "prime_feature",
    "full_vs_prime_ablation",
]

_SIMPLEX_TOL = 1e-5


@dataclass(frozen=True)
class PrimeAttention:
    """Per-column row weights, normalized over the height axis.

    weights[n, h, w] >= 0 and sum_h weights[n, h, w] == 1 within 1e-5.
    """

    weights: np.ndarray  # (N_c, H_I, W_I)

    def __post_init__(self):
        w = as_feature(self.weights, "attention")
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


@dataclass(frozen=True)
class RefineMap:
    """Linear stand-in for the learned post-pool refinement: x -> matrix @ x + bias."""

    matrix: np.ndarray  # (C_out, C_in)
    bias: np.ndarray  # (C_out,)

    def __post_init__(self):
        m = as_feature(self.matrix, "refine matrix")
        b = as_feature(self.bias, "refine bias")
        if m.ndim != 2 or b.shape != (m.shape[0],):
            raise ShapeError.mismatch("refine", m.shape, b.shape)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "bias", b)

    def apply(self, x):
        """Apply along the last axis of x (..., C_in) -> (..., C_out)."""
        x = as_feature(x, "refine input")
        if x.shape[-1] != self.matrix.shape[1]:
            raise ShapeError.mismatch("refine.apply", x.shape, self.matrix.shape)
        return x @ self.matrix.T + self.bias


def prime_depth(depth, attn):
    """Attention-weighted sum of categorical depth over the height axis.

    out[n, w, d] = sum_h attn[n, h, w] * depth[n, h, w, d]. Rowwise-simplex
    inputs stay on the simplex because the attention is itself normalized.

    Args:
        depth: (N_c, H_I, W_I, N_d) categorical depth scores.
        attn: PrimeAttention with matching (N_c, H_I, W_I).

    Returns:
        (N_c, W_I, N_d) compressed depth.
    """
    d = as_feature(depth, "depth")
    if not isinstance(attn, PrimeAttention):
        attn = PrimeAttention(attn)
    if d.ndim != 4 or d.shape[:3] != attn.weights.shape:
        raise ShapeError.mismatch("prime_depth", d.shape, attn.weights.shape)
    return np.einsum("nhw,nhwd->nwd", attn.weights, d)


def prime_feature(feature, pos_embed, refine):
    """Position-embed, column max-pool over rows, then linearly refine.

    Args:
        feature: (N_c, H_I, W_I, C) image features.
        pos_embed: (H_I, W_I, C) additive embedding, shared across cameras.
        refine: RefineMap with C_in == C.

    Returns:
        (N_c, W_I, C_out) compressed features.
    """
    f = as_feature(feature, "feature")
    e = as_feature(pos_embed, "pos_embed")
    if f.ndim != 4 or e.shape != f.shape[1:]:
        raise ShapeError.mismatch("prime_feature", f.shape, e.shape)
    pooled = (f + e).max(axis=1)
    return refine.apply(pooled)


@dataclass(frozen=True)
class AblationReport:
    """Per-cell disagreement between the full-height and compressed routes.

    rel[s] = max_c |full - prime| / max(max_c |full|, max_c |prime|) per
    BEV cell, 0 where both are zero; mean/max aggregate over cells.
    spurious_rate is the fraction of factorization-implied transport entries
    absent from the exact transport matrix for this scene.
    """

    mean_rel_diff: float
    max_rel_diff: float
    spurious_rate: float
    bev_full: np.ndarray
    bev_prime: np.ndarray


def full_vs_prime_ablation(scene, feature, depth, attn, refine, pos_embed=None):
    """Run both pipelines on identical inputs and report the gap.

    Full route: per-pixel embedding + refinement, then for each feature row
    an attention-weighted `lift` and a `splat_reference` through that row's
    frustum, summed into one float32 buffer in row order; the full-height
    lifted tensor is never held.
    Compressed route: prime_feature / prime_depth, then the reformulated
    ring/ray transform through the middle-row frustum.

    The discrepancy is a diagnostic, not a pass/fail quantity: it mixes the
    height compression itself with the factorization's spurious entries
    (reported separately as spurious_rate).

    Args:
        scene: geometry.Scene.
        feature: (N_c, H_I, W_I, C).
        depth: (N_c, H_I, W_I, N_d).
        attn: PrimeAttention.
        refine: RefineMap.
        pos_embed: optional (H_I, W_I, C); zeros when omitted.

    Returns:
        AblationReport.
    """
    rig, bins, grid = scene.rig, scene.bins, scene.grid
    f = as_feature(feature, "feature")
    d = as_feature(depth, "depth")
    if not isinstance(attn, PrimeAttention):
        attn = PrimeAttention(attn)
    expected = (rig.n_cameras, rig.feature_height, rig.feature_width)
    if f.shape[:3] != expected or d.shape[:3] != expected:
        raise ShapeError.mismatch("ablation", f.shape, d.shape)
    if pos_embed is None:
        pos_embed = np.zeros(f.shape[1:], dtype=f.dtype)

    n_w = rig.n_cameras * rig.feature_width
    refined = refine.apply(f + pos_embed)
    weighted = attn.weights[..., None] * d
    bev_full = np.zeros((grid.n_cells, refined.shape[-1]), dtype=np.float32)
    for h in range(rig.feature_height):
        lifted = lift(refined[:, h].reshape(n_w, -1), weighted[:, h].reshape(n_w, -1))
        bev_full += splat_reference(lifted, generate_frustum(rig, bins, h), grid)

    pf = prime_feature(f, pos_embed, refine).reshape(n_w, -1)
    pd = prime_depth(d, attn).reshape(n_w, bins.count)
    frustum = generate_frustum(rig, bins)
    rr = build_ring_ray(frustum, grid)
    bev_prime = vt_matrixvt(pf, pd, rr)

    exact = build_ftm(frustum, grid)
    implied = effective_ftm(rr)
    spurious = (
        (implied.nnz - exact.nnz) / implied.nnz if implied.nnz else 0.0
    )

    gap = np.abs(bev_full - bev_prime).max(axis=1)
    scale = np.maximum(
        np.abs(bev_full).max(axis=1), np.abs(bev_prime).max(axis=1)
    )
    rel = np.where(scale > 0, gap / np.maximum(scale, 1e-30), 0.0)
    return AblationReport(
        mean_rel_diff=float(rel.mean()),
        max_rel_diff=float(rel.max()),
        spurious_rate=float(spurious),
        bev_full=bev_full,
        bev_prime=bev_prime,
    )

"""Ground-truth camera-to-BEV pipeline: lift, scatter splat, and the exact
sparse transport matrix.

Everything else in this package is validated against these routines;
`transform` holds the fast route. splat_reference is written for clarity
over speed and stays the oracle; lift is one batched BLAS product, at
about the cost of writing its output; build_ftm is the tuned, kept
per-scene product. Each route checks its inputs once and calls numpy or
scipy directly: the scatter is one `np.add.at`, the transport product one
scipy CSR matmul. build_ftm keeps the exact matrix of the last grid asked
for on the frustum, the one per-scene product that transform.build_ring_ray
decomposes, so a scene lands and sorts its samples once. splat_reference
lands them on every call, so the oracle shares nothing with the routes
gated against it. There is no full-height variant:
`prime.full_vs_prime_ablation` sums one exact ring/ray transform per
feature row instead.

Shape glossary: W = N_c * W_I flattened (camera, column) index, S = H_B * W_B
flattened BEV cell index, C = channels, N_d = depth bins. Lifted tensors are
(W, N_d, C); column j of the transport matrix is j = (n * W_I + w) * N_d + d
(depth fastest).
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError
from .geometry import BevGrid, FrustumGeometry, _require
from .tensor_core import DTYPE, SparseBinaryMatrix, _from_pairs, as_feature

__all__ = [
    "lift",
    "splat_reference",
    "build_ftm",
    "vt_ftm",
]


# a float32 product overflows exactly when its magnitude reaches FLT_MAX
# plus half an ulp, 2**128 - 2**104 + 2**103: that tie rounds to even, inf
_F32_OVERFLOW = 2.0**128 - 2.0**103


def lift(features, depths):
    """Outer-product lift: out[w, d, c] = depths[w, d] * features[w, c].

    One batched BLAS product: `np.matmul` of the depths padded to
    (W, N_d, 2) and the features padded to (W, 2, C), index 0 holding the
    inputs and index 1 zeros, so each entry is d * f + 0 * 0, one sgemm per
    column. (numpy has no BLAS path for an inner extent of 1, and a
    broadcast multiply runs one C-long loop per (column, bin) pair.) The
    values are exact, those of the broadcast product under any BLAS: the
    pad adds an exact zero, with alpha 1 and beta 0, and a BLAS that skips
    zero multipliers skips only the pad. A zero product is +0.0, where the
    broadcast product gave -0.0 for a negative feature times a zero depth;
    the two compare equal, and vt_ftm's and splat_reference's sums start
    at +0.0, so no output of theirs changes.

    Args:
        features: (W, C) per-column feature vectors.
        depths: (W, N_d) per-column categorical depth distributions.

    Returns:
        (W, N_d, C) lifted tensor.

    Raises:
        ValidationError: finite inputs whose product overflows float32.
            A product of two float32 values is exact in float64, so each
            column's largest one, max|d[w]| * max|f[w]|, is compared with
            the overflow bound before anything is allocated.
    """
    f = as_feature(features, "features")
    d = as_feature(depths, "depths")
    if f.ndim != 2 or d.ndim != 2:
        raise ShapeError(f"lift: expected 2-d inputs, got {f.shape} and {d.shape}")
    if f.shape[0] != d.shape[0]:
        raise ShapeError.mismatch("lift", f.shape, d.shape)
    peak = np.abs(d).max(axis=1, initial=0).astype(np.float64)
    peak *= np.abs(f).max(axis=1, initial=0)
    if np.any(peak >= _F32_OVERFLOW):
        raise ValidationError("lift: float32 overflow of finite inputs in the product")
    (w, n_d), c = d.shape, f.shape[1]
    d2 = np.zeros((w, n_d, 2), dtype=DTYPE)
    d2[:, :, 0] = d
    f2 = np.zeros((w, 2, c), dtype=DTYPE)
    f2[:, 0] = f
    return np.matmul(d2, f2)


def splat_reference(lifted, frustum, grid):
    """Scatter-add every lifted sample into its BEV cell.

    For each (camera, column, depth) sample that `frustum.landing(grid)`
    places inside the grid, the C-vector lifted[(n, w), d, :] is added to
    its cell. Accumulation runs in ascending sample order.

    Returns:
        (S, C) float32 BEV feature tensor.
    """
    _require(frustum, FrustumGeometry, "frustum")
    _require(grid, BevGrid, "grid")
    lifted = as_feature(lifted, "lifted")
    w = frustum.n_cameras * frustum.n_columns
    if lifted.ndim != 3 or lifted.shape[:2] != (w, frustum.n_depths):
        raise ShapeError.mismatch("splat", lifted.shape, (w, frustum.n_depths, "C"))
    values = lifted.reshape(w * frustum.n_depths, lifted.shape[2])
    cells, samples = frustum.landing(grid)
    out = np.zeros((grid.n_cells, values.shape[1]), dtype=DTYPE)
    # np.add.at applies updates in input order, matching the sequential oracle
    np.add.at(out, cells, values[samples])
    return out


def build_ftm(frustum, grid):
    """Exact transport matrix: entry (s, (n*W_I+w)*N_d+d) = 1 iff the sample
    (n, w, d) lands in cell s.

    The entries are the (cell, sample) pairs of `frustum.landing(grid)`:
    every column has at most one nonzero because the grid cells partition
    the plane, and samples outside the grid produce no entry. They go
    straight to tensor_core's `_from_pairs`, scipy's COO to CSR conversion,
    in the matrix's index dtype (int32 below 2**31), which `_scipy` wraps
    with no copy: the landing's ids are in range and hold no sample twice,
    so nothing from_coo checks needs checking again.

    The matrix of the last grid asked for is kept on the frustum, and a
    call with an equal grid returns that same object: the scene's one
    exact matrix, which transform.build_ring_ray decomposes.

    Returns:
        SparseBinaryMatrix of shape (S, W * N_d).
    """
    _require(frustum, FrustumGeometry, "frustum")
    _require(grid, BevGrid, "grid")
    kept = frustum.__dict__.get("_ftm")
    if kept is not None and kept[0] == grid:
        return kept[1]
    n_cols = frustum.n_cameras * frustum.n_columns * frustum.n_depths
    ftm = _from_pairs(grid.n_cells, n_cols, *frustum.landing(grid))
    object.__setattr__(frustum, "_ftm", (grid, ftm))  # the frustum is frozen
    return ftm


def vt_ftm(lifted, ftm):
    """Transport-matrix transform: BEV = ftm @ lifted reshaped to (W*N_d, C).

    Within each output row the addends accumulate in ascending column order,
    so results are reproducible.

    Returns:
        (S, C) float32 BEV feature tensor.
    """
    _require(ftm, SparseBinaryMatrix, "ftm")
    lifted = as_feature(lifted, "lifted")
    if lifted.ndim != 3 or lifted.shape[0] * lifted.shape[1] != ftm.cols:
        raise ShapeError.mismatch("vt_ftm", ftm.shape, lifted.shape)
    flat = lifted.reshape(ftm.cols, lifted.shape[2])
    return np.ascontiguousarray(ftm._scipy @ flat, dtype=DTYPE)

"""Ground-truth camera-to-BEV pipeline: lift, scatter splat, and the exact
sparse transport matrix.

Everything else in this package is validated against these routines. They
are written for clarity over speed; `transform` holds the fast route. Each
route checks its inputs once and calls numpy or scipy directly: the scatter
is one `np.add.at`, the transport product one scipy CSR matmul. There
is no full-height variant: a full-height map is one `lift` +
`splat_reference` per feature row, each through that row's frustum, summed
(see `prime.full_vs_prime_ablation`).

Shape glossary: W = N_c * W_I flattened (camera, column) index, S = H_B * W_B
flattened BEV cell index, C = channels, N_d = depth bins. Lifted tensors are
(W, N_d, C); column j of the transport matrix is j = (n * W_I + w) * N_d + d
(depth fastest).
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor_core import DTYPE, SparseBinaryMatrix, as_feature

__all__ = [
    "lift",
    "splat_reference",
    "build_ftm",
    "vt_ftm",
]


def lift(features, depths):
    """Outer-product lift: out[w, d, c] = depths[w, d] * features[w, c].

    Args:
        features: (W, C) per-column feature vectors.
        depths: (W, N_d) per-column categorical depth distributions.

    Returns:
        (W, N_d, C) lifted tensor.
    """
    f = as_feature(features, "features")
    d = as_feature(depths, "depths")
    if f.ndim != 2 or d.ndim != 2:
        raise ShapeError(f"lift: expected 2-d inputs, got {f.shape} and {d.shape}")
    if f.shape[0] != d.shape[0]:
        raise ShapeError.mismatch("lift", f.shape, d.shape)
    return d[:, :, None] * f[:, None, :]


def splat_reference(lifted, frustum, grid):
    """Scatter-add every lifted sample into its BEV cell.

    For each (camera, column, depth) sample that `grid.locate_many` lands
    inside the grid, the C-vector lifted[(n, w), d, :] is added to its cell.
    Accumulation runs in ascending sample order.

    Returns:
        (S, C) float32 BEV feature tensor.
    """
    lifted = as_feature(lifted, "lifted")
    w = frustum.n_cameras * frustum.n_columns
    if lifted.ndim != 3 or lifted.shape[:2] != (w, frustum.n_depths):
        raise ShapeError.mismatch("splat", lifted.shape, (w, frustum.n_depths, "C"))
    values = lifted.reshape(-1, lifted.shape[2])
    cells, samples = grid.locate_many(frustum.points.reshape(-1, 2))
    out = np.zeros((grid.n_cells, values.shape[1]), dtype=DTYPE)
    # np.add.at applies updates in input order, matching the sequential oracle
    np.add.at(out, cells, values[samples])
    return out


def build_ftm(frustum, grid):
    """Exact transport matrix: entry (s, (n*W_I+w)*N_d+d) = 1 iff the sample
    (n, w, d) lands in cell s.

    The entries are the (cell, sample) pairs of `grid.locate_many`: every
    column has at most one nonzero because the grid cells partition the
    plane, and samples outside the grid produce no entry.

    Returns:
        SparseBinaryMatrix of shape (S, W * N_d).
    """
    n_cols = frustum.n_cameras * frustum.n_columns * frustum.n_depths
    cells, samples = grid.locate_many(frustum.points.reshape(-1, 2))
    return SparseBinaryMatrix.from_coo(grid.n_cells, n_cols, cells, samples)


def vt_ftm(lifted, ftm):
    """Transport-matrix transform: BEV = ftm @ lifted reshaped to (W*N_d, C).

    Within each output row the addends accumulate in ascending column order,
    so results are reproducible.

    Returns:
        (S, C) float32 BEV feature tensor.
    """
    lifted = as_feature(lifted, "lifted")
    if lifted.ndim != 3 or lifted.shape[0] * lifted.shape[1] != ftm.cols:
        raise ShapeError.mismatch("vt_ftm", ftm.shape, lifted.shape)
    flat = lifted.reshape(-1, lifted.shape[2])
    return np.ascontiguousarray(ftm._scipy @ flat, dtype=DTYPE)

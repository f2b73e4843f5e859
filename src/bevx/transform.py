"""Ring/ray factorization of the camera-to-BEV transport.

The exact transport matrix (reference.build_ftm) is S x (W * N_d) and mostly
redundant: a BEV cell is described by which depth bins reach it (distance)
and which feature columns reach it (direction). This module factors it into

  * ring: S x N_d, ring[s, d] = 1 iff some column's sample at bin d lands in s
  * ray:  S x W,   ray[s, w] = 1 iff some bin of column w lands in s

and applies the pair with vt_matrixvt, which never materializes the lifted
tensor. Both factors meet in one plan matrix (RingRayPair._plan, built with
the pair), a binary (ray.nnz, W * N_d) CSR whose row for ray nonzero (s, w)
picks the depths of column w at the bins of ring row s. vt_matrixvt is two
sparse products over it: plan @ depths gives one weight per ray nonzero, and
the ray-patterned S x W matrix of those weights times the features gives the
BEV tensor. effective_ftm reads the transport matrix the pair implies off
the same plan; reference.vt_ftm over that matrix is the independent route
vt_matrixvt is gated against, and _spurious_rate is the share of its entries
the exact matrix lacks. cost_model is the closed-form cost of the paper's
naive pipeline next to the reformulated one.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import os
import uuid
import numpy as np
import scipy.sparse as sp

from .errors import FileFormatError, ShapeError, ValidationError
from .fileio import read_cache, write_cache
from .geometry import _fits_in_memory, _whole
from .tensor_core import DTYPE, SparseBinaryMatrix, as_feature

__all__ = [
    "RingRayPair",
    "CostReport",
    "build_ring_ray",
    "vt_matrixvt",
    "effective_ftm",
    "cost_model",
    "save_ring_ray",
    "load_ring_ray",
]


def _build_plan(ring, ray):
    """The execution plan of a pair: (plan, indptr, indices).

    `plan` is a binary (ray.nnz, W * N_d) matrix. Row j belongs to the
    j-th ray nonzero (cell s, column w), in ray CSR order, and holds the
    lifted source indices {w * N_d + d : d in ring row s}. Applied to the
    flattened (W, N_d) depths it gives each ray slot's depth mass; an
    empty ring row under a ray row (a hand-built pair; geometric pairs
    never do this) is an empty plan row, weight 0.

    `indptr` and `indices` are the ray's CSR index arrays in the dtype
    scipy keeps without a copy: int32, or int64 once ray.nnz or ray.cols
    reaches 2**31.
    """
    ray_len = np.diff(ray.row_offsets)
    # ring row length of each ray slot: the slots of cell s are its ray row
    row_len = np.repeat(np.diff(ring.row_offsets), ray_len)
    offsets = np.zeros(ray.nnz + 1, dtype=np.int64)
    np.cumsum(row_len, out=offsets[1:])
    # entry k of slot j is ring entry k + shift[j], shift = ring start - slot start
    shift = np.repeat(ring.row_offsets[:-1], ray_len)
    shift -= offsets[:-1]
    at = np.repeat(shift, row_len)
    at += np.arange(offsets[-1])
    cols = ring.col_indices[at]
    cols += np.repeat(ray.col_indices * ring.cols, row_len)
    # RingRayPair keeps ray.cols * ring.cols below 2**63, so nothing wraps
    plan = SparseBinaryMatrix._built(ray.nnz, ray.cols * ring.cols, offsets, cols)
    plan._scipy  # the product handle is part of the per-scene build
    index = np.int32 if max(ray.nnz, ray.cols) < 2**31 else np.int64
    return plan, ray.row_offsets.astype(index), ray.col_indices.astype(index)


@dataclass(frozen=True)
class RingRayPair:
    """Immutable ring (S x N_d) and ray (S x W) factor matrices.

    Built once per scene geometry, together with its execution plan
    (`_plan`, derived like BevGrid's edges, not a field), which every
    transform call reuses: a pair arrives ready to run, and no call pays
    for the plan. A pair whose plan would not fit in physical memory at
    8 bytes per entry is a ShapeError before anything is allocated.
    """

    ring: SparseBinaryMatrix
    ray: SparseBinaryMatrix

    def __post_init__(self):
        if self.ring.rows != self.ray.rows:
            raise ShapeError.mismatch("ring/ray", self.ring.shape, self.ray.shape)
        if self.ring.cols * self.ray.cols >= 2**63:
            raise ShapeError(
                f"ring/ray: {self.ray.cols} columns x {self.ring.cols} bins "
                "overflow the plan's int64 column ids"
            )
        # the plan has one entry per (ring entry, ray entry) of a cell: at
        # most ray.nnz * ring.cols, and exactly the dot of the row lengths,
        # taken in float64 (which cannot wrap) only when that bound is too big
        if not _fits_in_memory(8 * self.ray.nnz * self.ring.cols):
            entries = np.dot(
                np.diff(self.ring.row_offsets).astype(np.float64),
                np.diff(self.ray.row_offsets).astype(np.float64),
            )
            if not _fits_in_memory(8 * entries):
                raise ShapeError(
                    f"ring/ray: a plan of {entries:.4g} entries exceeds physical memory"
                )
        object.__setattr__(self, "_plan", _build_plan(self.ring, self.ray))

    @property
    def n_cells(self):
        return self.ring.rows

    @property
    def n_depths(self):
        return self.ring.cols

    @property
    def n_columns(self):
        return self.ray.cols


def build_ring_ray(frustum, grid):
    """Existential ring/ray factors of a frustum-to-grid mapping.

    ring[s, d] = 1 iff any (camera, column) sample at depth bin d falls in
    cell s; ray[s, (n, w)] = 1 iff any depth bin of that column falls in s.
    Both project the (cell, sample) pairs of `frustum.landing(grid)`, the
    entries of reference.build_ftm: sample j = (n * W_I + w) * N_d + d
    gives ring column j % N_d and ray column j // N_d.

    Returns:
        RingRayPair with ring (S, N_d) and ray (S, W).
    """
    n_w = frustum.n_cameras * frustum.n_columns
    n_d = frustum.n_depths
    cells, samples = frustum.landing(grid)
    ring = SparseBinaryMatrix.from_coo(grid.n_cells, n_d, cells, samples % n_d)
    ray = SparseBinaryMatrix.from_coo(grid.n_cells, n_w, cells, samples // n_d)
    return RingRayPair(ring, ray)


def vt_matrixvt(features, depths, rr):
    """Reformulated transform; no lifted tensor is ever materialized.

    Equivalent to reference.vt_ftm(lift(features, depths), effective_ftm(rr)),
    as two sparse products over the pair's plan: plan @ depths.ravel() gives,
    per ray nonzero (cell, column), the depth mass that cell collects from
    that column (ring contraction and ray mask in one step); the (S, W)
    matrix of those weights on the ray's pattern times the (W, C) features
    gives the BEV tensor.

    Input contract: any finite inputs, unchecked for sign or normalization;
    the 1e-5 agreement with vt_ftm over effective_ftm(rr) is claimed only
    for non-negative ones, whose sums cannot cancel.

    Args:
        features: (W, C) per-column features.
        depths: (W, N_d) per-column categorical depths.
        rr: RingRayPair.

    Returns:
        (S, C) BEV feature tensor.
    """
    f = as_feature(features, "features")
    d = as_feature(depths, "depths")
    if f.ndim != 2 or d.ndim != 2 or f.shape[0] != d.shape[0]:
        raise ShapeError.mismatch("vt_matrixvt", f.shape, d.shape)
    if d.shape != (rr.n_columns, rr.n_depths):
        raise ShapeError.mismatch(
            "vt_matrixvt", d.shape, (rr.n_columns, rr.n_depths)
        )
    plan, indptr, indices = rr._plan
    weights = plan._scipy @ d.ravel()
    effective = sp.csr_matrix((weights, indices, indptr), shape=rr.ray.shape)
    return np.ascontiguousarray(effective @ f, dtype=DTYPE)


def effective_ftm(rr):
    """The transport matrix the factorization implies: entry
    (s, w * N_d + d) = ring[s, d] * ray[s, w].

    A superset of the exact transport matrix for the same geometry: when two
    columns hit one cell at different bins, the cross combinations appear
    here but not in the exact matrix. The gap is a measurable diagnostic of
    factorization fidelity, not an error.

    Returns:
        SparseBinaryMatrix of shape (S, W * N_d).
    """
    plan = rr._plan[0]
    # plan rows follow ray CSR order, so cell s owns plan rows
    # ray.row_offsets[s]:ray.row_offsets[s + 1], ascending (w, d) within
    # sliced from the plan, which was built from a checked ring and ray
    return SparseBinaryMatrix._built(
        rr.n_cells,
        plan.cols,
        plan.row_offsets[rr.ray.row_offsets],
        plan.col_indices,
    )


def _spurious_rate(exact, rr):
    """The share of effective_ftm(rr)'s entries that `exact`, the scene's
    exact transport matrix, lacks; 0.0 for a pair that implies none.
    effective_ftm(rr) holds exactly the plan's entries, so it is not built."""
    implied = rr._plan[0].nnz
    return (implied - exact.nnz) / implied if implied else 0.0


@dataclass(frozen=True)
class CostReport:
    """Closed-form arithmetic and intermediate-parameter costs of the
    paper's naive pipeline (flops_composed, mem_params_full_ftm) and of its
    ring/ray reformulation (flops_reformulated, mem_params_ringray).

    Counts are per camera (extents C, N_d, W_I, H_B, W_B); flops count one
    multiply or add each; parameter counts are intermediate tensor elements.
    No route in this package runs the naive pipeline; these are model
    figures, not measurements.
    """

    flops_composed: int
    flops_reformulated: int
    mem_params_full_ftm: int
    mem_params_ringray: int

    @property
    def reduction_flops(self):
        return self.flops_composed / self.flops_reformulated

    @property
    def saving_memory(self):
        return 1.0 - self.mem_params_ringray / self.mem_params_full_ftm


def cost_model(c, n_d, w_i, h_b, w_b):
    """Closed-form cost model of the paper's naive pipeline against the
    ring/ray reformulation.

    naive: applying ring to the lifted tensor materializes an (S, W_I, C)
    intermediate and costs 2 * W_I * C * N_d * S flops;
    reformulated: 2 * (C + N_d + 1) * W_I * S flops (ring contraction, mask,
    feature multiply). Intermediate parameters drop from W_I * N_d * S (the
    full transport matrix) to (W_I + N_d) * S (the two factors).
    """
    c, n_d, w_i, h_b, w_b = (
        _whole(x, "cost_model: extent", 1, ValidationError)
        for x in (c, n_d, w_i, h_b, w_b)
    )
    s = h_b * w_b
    return CostReport(
        flops_composed=2 * w_i * c * n_d * s,
        flops_reformulated=2 * (c + n_d + 1) * w_i * s,
        mem_params_full_ftm=w_i * n_d * s,
        mem_params_ringray=(w_i + n_d) * s,
    )


_CACHE_FILE = "ringray.bxc"


def save_ring_ray(rr, directory, digest):
    """Cache a pair under a scene-config digest, as one file in `directory`
    that replaces the slot's file of any digest or layout.

    The file is written under a temp name of its own, unique to the call, and
    moved in by one os.replace, so a load sees the previous pair or a new
    one, never a mix, concurrent saves to one slot cannot write into each
    other's file, and a save that dies part-way (not a power loss: no fsync)
    leaves the previous pair.
    """
    path = Path(directory, _CACHE_FILE)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "wb") as f:
            write_cache(f, digest, rr.ring, rr.ray)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_ring_ray(directory, digest):
    """Load a cached pair with one read of the slot's file, as read-only int64
    views of its bytes; None when it is absent, saved under another digest or
    an older layout, truncated, oversized or inconsistent."""
    try:
        matrices = read_cache(Path(directory, _CACHE_FILE).read_bytes(), digest)
        return None if matrices is None else RingRayPair(*matrices)
    except (OSError, FileFormatError, ShapeError):
        return None

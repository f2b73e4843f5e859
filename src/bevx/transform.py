"""Ring/ray factorization of the camera-to-BEV transport.

The exact transport matrix (reference.build_ftm) is S x (W * N_d) and mostly
redundant: a BEV cell is described by which feature columns reach it
(direction) and, for each, which depth bins its camera reaches it at
(distance). This module factors it into

  * ray:  S x W, ray[s, w] = 1 iff some bin of column w lands in s
  * ring: ray.nnz x N_d, one row per ray nonzero (s, w) in ray CSR order,
    holding every bin at which some column of w's camera lands in s

so the ring is per camera, as the paper's FTM is: a row never takes a bin
that only another camera produces. build_ring_ray decomposes the exact
matrix that reference.build_ftm keeps on the frustum: it reads both
factors off that matrix's CSR arrays, as runs of equal column and of
equal camera within each row, so a scene that builds both lands and sorts
its samples once. vt_matrixvt applies the pair without
materializing the lifted tensor. Both factors meet in one plan matrix
(RingRayPair._plan, built with the pair): the ring with the columns of row
j shifted by w * N_d, a binary (ray.nnz, W * N_d) CSR that shares the
ring's row offsets and picks the depths of column w at the bins of its
ring row. vt_matrixvt is two sparse products over it: plan @ depths gives
one weight per ray nonzero, and the ray-patterned S x W matrix of those
weights times the features gives the BEV tensor. Every index array is
held once: the plan shares the ring's row offsets, and the plan's scipy
handle and vt_matrixvt's ray-patterned one wrap the plan's and the ray's
own arrays (SparseBinaryMatrix._handle), for every shape.
effective_ftm reads the transport matrix the pair implies off the same
plan; reference.vt_ftm over that matrix is the independent route
vt_matrixvt is gated against.
_held is the one comparison of that matrix with the exact one: the mask of
its entries that the exact matrix holds, read off one scipy sparse sum.
Containment (bench.run_check), _spurious_rate (the share of implied
entries the exact matrix lacks) and bench.flip_ring_bit all read it.
cost_model is the closed-form cost of the paper's naive pipeline next to
the reformulated one.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import os
import uuid
import numpy as np

from .errors import FileFormatError, ShapeError, ValidationError
from .fileio import read_cache, write_cache
from .geometry import _require, _whole
from .reference import build_ftm
from .tensor_core import (
    DTYPE,
    SparseBinaryMatrix,
    _index_dtype,
    as_feature,
)

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


def _run_starts(a):
    """Mask of the positions where the sorted array `a` takes a new value."""
    first = np.ones(a.shape[0], dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _build_plan(ring, ray):
    """The execution plan of a pair.

    A binary (ray.nnz, W * N_d) matrix: the ring with the columns of row j
    shifted by w * N_d, for the j-th ray nonzero (cell s, column w) in ray
    CSR order. It shares the ring's row offsets, and its scipy handle
    wraps its own arrays. Applied to the flattened (W, N_d) depths it gives
    each ray slot's depth mass; an empty ring row (a hand-built pair;
    geometric pairs never have one) is an empty plan row, weight 0.
    """
    rows, cols = ray.nnz, ray.cols * ring.cols
    # column ids w * N_d + d are below cols, which RingRayPair keeps below
    # 2**63, so they are computed in the plan's index dtype; N_d must fit it
    # too, for a ray with no columns makes cols 0
    dtype = _index_dtype(rows, max(cols, ring.cols), ring.nnz)
    counts = np.diff(ring.row_offsets)
    col_ids = np.repeat(ray.col_indices, counts).astype(dtype, copy=False)
    del counts  # before `_built` widens the offsets of an int64 plan
    col_ids *= ring.cols
    col_ids += ring.col_indices
    plan = SparseBinaryMatrix._built(rows, cols, ring.row_offsets, col_ids)
    plan._scipy  # the product handle is part of the per-scene build
    return plan


@dataclass(frozen=True)
class RingRayPair:
    """Immutable per-entry ring (ray.nnz x N_d) and ray (S x W) factors.

    Ring row j belongs to the j-th ray nonzero (cell s, column w) in ray CSR
    order and holds the depth bins that entry takes from column w. Built
    once per scene geometry, together with its execution plan (`_plan`,
    derived like BevGrid's edges, not a field), which every transform call
    reuses: a pair arrives ready to run, and no call pays for the plan. The
    plan holds exactly the ring's entries, so it is never larger than the
    pair, and it and every scipy handle over the pair wrap the pair's own
    index arrays (int32 below 2**31), each held once.
    """

    ring: SparseBinaryMatrix
    ray: SparseBinaryMatrix

    def __post_init__(self):
        _require(self.ring, SparseBinaryMatrix, "ring")
        _require(self.ray, SparseBinaryMatrix, "ray")
        if self.ring.cols * self.ray.cols >= 2**63:
            raise ShapeError(
                f"ring/ray: {self.ray.cols} columns x {self.ring.cols} bins "
                "overflow the plan's int64 column ids"
            )
        if self.ring.rows != self.ray.nnz:
            raise ShapeError(
                f"ring/ray: a ring of {self.ring.rows} rows under a ray of "
                f"{self.ray.nnz} entries; the ring has one row per ray entry"
            )
        object.__setattr__(self, "_plan", _build_plan(self.ring, self.ray))

    def _buffers(self):
        """The arrays the pair runs on: the ring's, the ray's and the
        plan's with its scipy handle."""
        ring, ray = self.ring, self.ray
        return (
            ring.row_offsets,
            ring.col_indices,
            ray.row_offsets,
            ray.col_indices,
            *self._plan._buffers(),
        )

    @property
    def n_cells(self):
        return self.ray.rows

    @property
    def n_depths(self):
        return self.ring.cols

    @property
    def n_columns(self):
        return self.ray.cols


def build_ring_ray(frustum, grid):
    """Per-camera ring/ray factors of a frustum-to-grid mapping.

    ray[s, w] = 1 iff some depth bin of column w lands in cell s. Ring row
    j, for the j-th ray nonzero (s, w) in CSR order, holds every bin d at
    which some column of w's camera n = w // W_I lands in s: the camera's
    depth band through s, so the pair implies only transport that camera
    could make. Both are a decomposition of the exact matrix,
    reference.build_ftm(frustum, grid), which the frustum keeps, so a scene
    that builds both lands and sorts its samples once. They are read off
    that matrix's CSR arrays as runs: within a row its column ids
    j = (n * W_I + w) * N_d + d ascend, so a run of equal j // N_d is a ray
    nonzero and a run of equal j // (W_I * N_d) is one camera's band, whose
    bins are the union over its columns. A run starts where its id changes
    or a row starts.

    A frustum of one-column cameras, points reshaped to (N_c * W_I, 1, N_d,
    3), gives the exact pair: each band is one column's own bins, so
    effective_ftm of it is build_ftm of the frustum, bit for bit, and its
    ray is the per-camera pair's.

    Returns:
        RingRayPair with ring (ray.nnz, N_d) and ray (S, W).
    """
    ftm = build_ftm(frustum, grid)  # which checks both arguments' types
    w_i, n_d = frustum.n_columns, frustum.n_depths
    col, offsets = ftm.col_indices, ftm.row_offsets
    n = col.shape[0]
    # row_first[p]: entry p starts a row; row_first[n] stands for the end
    row_first = np.zeros(n + 1, dtype=bool)
    row_first[offsets] = True
    # n * W_I + w, in int64: it becomes the band key band * N_d + bin below
    column = np.floor_divide(col, n_d, dtype=np.int64)
    first = np.empty(n + 1, dtype=bool)
    first[0] = True
    np.not_equal(column[1:], column[:-1], out=first[1:n])
    first |= row_first
    entry = np.flatnonzero(first[:n])  # where each ray nonzero starts
    # index[p]: the running count of ray nonzeros before entry p, written at
    # their starts and at n; every row offset is one of those positions
    index = np.empty(n + 1, dtype=np.int64)
    index[entry] = np.arange(entry.shape[0])
    index[n] = entry.shape[0]
    ray = SparseBinaryMatrix._built(
        grid.n_cells, frustum.n_cameras * w_i, index[offsets], column[entry]
    )
    # the ray is built, so `index` holds the bins and `column` becomes the
    # band key: the camera n, then the band id, the count of band starts
    bins = index[:n]
    np.multiply(column, n_d, out=bins)
    np.subtract(col, bins, out=bins)
    column //= w_i
    np.not_equal(column[1:], column[:-1], out=first[1:n])
    first |= row_first
    np.cumsum(first[:n], out=column)
    column -= 1
    band = column[entry]  # the band of each ray nonzero
    # band * N_d + bin, below nnz * N_d <= (N_c * W_I * N_d) * N_d, the
    # frustum's points times N_d, so inside int64: one stable sort merges
    # the ascending bin runs of a band's columns, and dropping the repeats
    # leaves each band's bins, its bands in order
    column *= n_d
    column += bins
    column.sort(kind="stable")
    key = column[_run_starts(column)]
    # each work array is dropped once spent: the ring's arrays and the
    # pair's plan reuse its memory, so the build's peak stays near what it
    # returns
    del row_first, first, column, entry, index, bins
    owner = key // n_d
    band_start = np.flatnonzero(np.append(_run_starts(owner), True))
    owner *= n_d
    key -= owner  # the bins
    # ring row j is its band's bins, key[lo:hi], gathered for every row
    lo = band_start[band]
    length = band_start[1:][band]
    del owner, band, band_start
    length -= lo
    ring_offsets = np.zeros(ray.nnz + 1, dtype=np.int64)
    np.cumsum(length, out=ring_offsets[1:])
    lo -= ring_offsets[:-1]
    at = np.repeat(lo, length)
    at += np.arange(ring_offsets[-1])
    # `_built` narrows the int64 work arrays to the matrices' index dtype
    ring = SparseBinaryMatrix._built(ray.nnz, n_d, ring_offsets, key[at])
    del lo, length, at, key
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
    _require(rr, RingRayPair, "rr")
    f = as_feature(features, "features")
    d = as_feature(depths, "depths")
    if f.ndim != 2 or d.ndim != 2 or f.shape[0] != d.shape[0]:
        raise ShapeError.mismatch("vt_matrixvt", f.shape, d.shape)
    if d.shape != (rr.n_columns, rr.n_depths):
        raise ShapeError.mismatch(
            "vt_matrixvt", d.shape, (rr.n_columns, rr.n_depths)
        )
    weights = rr._plan._scipy @ d.ravel()
    return np.ascontiguousarray(rr.ray._handle(weights) @ f, dtype=DTYPE)


def effective_ftm(rr):
    """The transport matrix the factorization implies: entry
    (s, w * N_d + d) = 1 iff ray[s, w] = 1 and d is in that ray nonzero's
    ring row.

    A superset of the exact transport matrix for the same geometry: when two
    columns of one camera hit one cell at different bins, the cross
    combinations appear here but not in the exact matrix. The gap is a
    measurable diagnostic of factorization fidelity, not an error.

    Returns:
        SparseBinaryMatrix of shape (S, W * N_d).
    """
    _require(rr, RingRayPair, "rr")
    plan = rr._plan
    # plan rows follow ray CSR order, so cell s owns plan rows
    # ray.row_offsets[s]:ray.row_offsets[s + 1], ascending (w, d) within;
    # sliced from the plan, which was built from a checked ring and ray
    return SparseBinaryMatrix._built(
        rr.n_cells,
        plan.cols,
        plan.row_offsets[rr.ray.row_offsets],
        plan.col_indices,
    )


def _held(exact, implied):
    """Which of `implied`'s entries (effective_ftm of a pair), in CSR order,
    `exact`, the scene's exact transport matrix, holds: a bool mask, and
    the one comparison of the two. `exact` is contained in `implied` when
    the mask holds exact.nnz entries. It is read off one sparse sum,
    implied + 2 * exact, whose values are 1 (implied only), 2 (exact only)
    or 3 (both), in row-major order. Matrices of different shapes are a
    ValidationError."""
    if exact.shape != implied.shape:
        raise ValidationError(
            f"an exact matrix of shape {exact.shape} against an implied "
            f"matrix of shape {implied.shape}"
        )
    both = (implied._scipy + 2 * exact._scipy).data
    return both[both != 2] == 3


def _spurious_rate(held):
    """The share of implied entries that the exact matrix lacks, from their
    `_held` mask: 0.0 when nothing is implied. It lies in [0, 1] also when
    containment fails; when it holds, it is
    (implied.nnz - exact.nnz) / implied.nnz."""
    if not held.size:
        return 0.0
    return (held.size - np.count_nonzero(held)) / held.size


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
    leaves the previous pair. A pair or a digest of another type is a
    ValidationError.
    """
    _require(rr, RingRayPair, "rr")
    _require(digest, str, "digest")
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
    """Load a cached pair with one read of the slot's file, as read-only
    views of its bytes (int32 words below 2**31, as the pair stores them);
    None when it is absent, saved under another digest or an older layout,
    fails its checksum, or is truncated, oversized or inconsistent. A
    digest that is not a str is a ValidationError."""
    _require(digest, str, "digest")
    try:
        matrices = read_cache(Path(directory, _CACHE_FILE).read_bytes(), digest)
        return None if matrices is None else RingRayPair(*matrices)
    except (OSError, FileFormatError, ShapeError):
        return None

"""Ring/ray factorization of the camera-to-BEV transport.

The exact transport matrix (reference.build_ftm) is S x (W * N_d) and mostly
redundant: a BEV cell is described by which feature columns reach it
(direction) and, for each, which depth bins its camera reaches it at
(distance). This module factors it into

  * ray:  S x W, ray[s, w] = 1 iff some bin of column w lands in s
  * ring: per ray nonzero (s, w), in ray CSR order, one interval of depth
    bins: from the least to the greatest bin at which some column of w's
    camera lands in s

so the ring is per camera, as the paper's FTM is: a row never takes a bin
that only another camera produces, and, as the paper's ring, each row is a
range of distances. A pair holds the ray and the first bin and length of
each interval; `RingRayPair.ring` rebuilds the binary (ray.nnz, N_d) ring
matrix from them on demand. build_ring_ray decomposes the exact matrix that
reference.build_ftm keeps on the frustum: it reads both factors off that
matrix's CSR arrays, as runs of equal column and of equal camera within
each row, so a scene that builds both lands and sorts its samples once.
vt_matrixvt applies the pair without materializing the lifted tensor: per
ray nonzero (s, w) it gathers the depth of column w at the interval's
first bin and adds its next bins for the few longer intervals, and the
ray-patterned S x W matrix of those weights, which wraps the ray's own
arrays (SparseBinaryMatrix._handle), times the features gives the BEV
tensor. effective_ftm expands the intervals into the transport matrix the
pair implies; reference.vt_ftm over that matrix is the independent route
vt_matrixvt is gated against.
_held is the one comparison of that matrix with the exact one: the mask of
its entries that the exact matrix holds, read off one scipy sparse sum.
Containment (bench.run_check), _spurious_rate (the share of implied
entries the exact matrix lacks) and bench.flip_ring_bit all read it.
cost_model is the closed-form cost of the paper's naive pipeline next to
the reformulated one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import os
import uuid
import numpy as np

from .errors import FileFormatError, ShapeError, ValidationError
from .fileio import read_cache, write_cache
from .geometry import _freeze, _frozen, _require, _whole
from .reference import build_ftm
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


def _intervals(ring):
    """The first bin and the length of each row of the binary matrix
    `ring`, (0, 0) for an empty row. Its bins strictly increase within a
    row, so a row is one run iff its last bin is its first plus its length
    minus 1; a row that is not is a ValidationError naming it."""
    offsets, bins = ring.row_offsets, ring.col_indices
    length = np.diff(offsets)
    if not ring.nnz:
        return np.zeros_like(length), length
    # an empty row reads a neighbour's bins here (clipped at either end):
    # its length tells it apart, and its first bin is set to 0 below; the
    # offsets are made take's index type once, for both reads
    at = offsets.astype(np.intp)
    first = bins.take(at[:-1], mode="clip")
    at -= 1
    span = bins.take(at[1:], mode="clip")
    span -= first
    span -= length  # -1 on a run, more on a row with a gap
    span[length == 0] = -1
    gapped = span != -1
    if gapped.any():
        raise ValidationError(f"ring row {gapped.argmax()} is not one run of consecutive bins")
    first[length == 0] = 0
    return first, length


def _runs(first, length):
    """The int64 CSR arrays of the rows that hold first[j], first[j] + 1,
    ..., first[j] + length[j] - 1: row offsets and column ids."""
    offsets = np.zeros(length.shape[0] + 1, dtype=np.int64)
    np.cumsum(length, out=offsets[1:])
    return offsets, np.repeat(first - offsets[:-1], length) + np.arange(offsets[-1])


@dataclass(frozen=True, init=False, eq=False)
class RingRayPair:
    """Immutable per-camera ring and ray (S x W) factors.

    `RingRayPair(ring, ray)` takes the ring as a binary (ray.nnz, N_d)
    matrix: row j, for the j-th ray nonzero (cell s, column w) in ray CSR
    order, holds the depth bins that entry takes from column w, one run of
    consecutive bins or none. A row with a gap is a ValidationError naming
    it. The pair keeps the ray and each row's first bin and length
    (`_first`, `_length`; 0 and 0 for an empty row), both at most N_d, in
    the narrowest signed dtype that holds N_d (int8 for up to 127 bins),
    and rebuilds `ring` from them on each read. Built once per scene
    geometry, it arrives ready to run: no transform call builds anything
    per scene. Pairs compare by value.
    """

    ray: SparseBinaryMatrix
    n_depths: int
    _first: np.ndarray = field(repr=False)
    _length: np.ndarray = field(repr=False)

    def __init__(self, ring, ray):
        _require(ring, SparseBinaryMatrix, "ring")
        _require(ray, SparseBinaryMatrix, "ray")
        if ring.cols * ray.cols >= 2**63:
            raise ShapeError(f"ring/ray: {ray.cols} columns x {ring.cols} bins overflow int64 ids")
        if ring.rows != ray.nnz:
            raise ShapeError(
                f"ring/ray: a ring of {ring.rows} rows under a ray of "
                f"{ray.nnz} entries; the ring has one row per ray entry"
            )
        self._hold(ray, ring.cols, *_intervals(ring))

    @classmethod
    def _built(cls, ray, n_depths, first, length):
        """A pair over intervals that this package has just built, frozen
        in place and not checked again."""
        return cls.__new__(cls)._hold(ray, n_depths, first, length)

    def _hold(self, ray, n_depths, first, length):
        # first bins and lengths lie in [0, N_d]: the narrowest signed
        # dtype that holds -N_d - 1 holds them, and adds to int64 as int64
        dtype = np.min_scalar_type(-n_depths - 1)
        first, length = _frozen(first, dtype), _frozen(length, dtype)
        _freeze(self, ray=ray, n_depths=n_depths, _first=first, _length=length)
        return self

    @property
    def ring(self):
        """The ring as a binary (ray.nnz, N_d) matrix, built on each read."""
        offsets, bins = _runs(self._first, self._length)
        return SparseBinaryMatrix._built(self.ray.nnz, self.n_depths, offsets, bins)

    def _starts(self):
        """Each ray nonzero's first bin as a column id of the implied
        matrix, w * N_d + first bin, in int64: below W * N_d < 2**63."""
        return self.ray.col_indices.astype(np.int64) * self.n_depths + self._first

    def _buffers(self):
        """The arrays the pair holds: the ray's and its intervals'."""
        return (self.ray.row_offsets, self.ray.col_indices, self._first, self._length)

    def __eq__(self, other):
        if not isinstance(other, RingRayPair):
            return NotImplemented
        return (self.n_depths, self.ray.shape) == (other.n_depths, other.ray.shape) and all(
            map(np.array_equal, self._buffers(), other._buffers())
        )

    def __hash__(self):
        return hash((self.ray, self.n_depths))

    @property
    def n_cells(self):
        return self.ray.rows

    @property
    def n_columns(self):
        return self.ray.cols


def build_ring_ray(frustum, grid):
    """Per-camera ring/ray factors of a frustum-to-grid mapping.

    ray[s, w] = 1 iff some depth bin of column w lands in cell s. Ring row
    j, for the j-th ray nonzero (s, w) in CSR order, is the hull of camera
    n = w // W_I's depth band through s: every bin from the least to the
    greatest at which some column of the camera lands in s, so the pair
    implies only transport that camera could make. On every scene measured
    the band has no gap and is its own hull; a hull can only add implied
    entries, so the exact matrix stays contained. Both are a decomposition
    of the exact matrix, reference.build_ftm(frustum, grid), which the
    frustum keeps, so a scene that builds both lands and sorts its samples
    once. They are read off that matrix's CSR arrays as runs: within a row
    its column ids j = (n * W_I + w) * N_d + d ascend, so a run of equal
    j // N_d is a ray nonzero and a run of equal j // (W_I * N_d) is one
    camera's band, whose hull is the least and the greatest bin of the
    run. A run starts where its id changes or a row starts.

    A frustum of one-column cameras, points reshaped to (N_c * W_I, 1, N_d,
    3), gives the exact pair: each band is one column's own bins, so
    effective_ftm of it is build_ftm of the frustum, bit for bit, and its
    ray is the per-camera pair's.

    Returns:
        RingRayPair with a ring of ray.nnz rows and ray (S, W).
    """
    ftm = build_ftm(frustum, grid)  # which checks both arguments' types
    w_i, n_d = frustum.n_columns, frustum.n_depths
    col, offsets = ftm.col_indices, ftm.row_offsets
    n = col.shape[0]
    # row_first[p]: entry p starts a row; row_first[n] stands for the end
    row_first = np.zeros(n + 1, dtype=bool)
    row_first[offsets] = True
    # n * W_I + w, in int64: it becomes the camera below
    column = np.floor_divide(col, n_d, dtype=np.int64)
    # first[p]: entry p starts a ray nonzero; entry 0 starts a row, as
    # row_offsets[0] is 0
    first = np.zeros(n + 1, dtype=bool)
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
    # the ray is built, so `column` becomes the camera and `first` marks
    # where a band starts; a band's hull runs from its least bin to its
    # greatest
    column //= w_i
    np.not_equal(column[1:], column[:-1], out=first[1:n])
    first |= row_first
    band_start = np.flatnonzero(first[:n])
    bins = col % n_d
    lo = np.minimum.reduceat(bins, band_start)
    hi = np.maximum.reduceat(bins, band_start)
    # a band starts where a ray nonzero does, so a running count of band
    # starts over the ray nonzeros gives each its band
    band = np.cumsum(first[entry]) - 1
    # each work array is dropped once spent, so the build's peak stays near
    # what it returns
    del row_first, column, first, entry, index, bins, band_start
    return RingRayPair._built(ray, n_d, lo[band], (hi - lo + 1)[band])


def vt_matrixvt(features, depths, rr):
    """Reformulated transform; no lifted tensor is ever materialized.

    Equivalent to reference.vt_ftm(lift(features, depths), effective_ftm(rr)):
    per ray nonzero (cell, column), the depth mass that cell collects from
    that column, its depths summed over the ring interval in bin order (the
    first bin's gathered for every nonzero, each next bin added for the
    nonzeros whose interval reaches it, one pass per bin of the longest
    interval: at most 3 on every preset); the (S, W) matrix of those
    weights on the ray's pattern times the (W, C) features gives the BEV
    tensor.

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
    at, length, flat = rr._starts(), rr._length, d.ravel()
    # an empty ring row (a hand-built pair's; geometric pairs have none)
    # weighs 0, as does every row of a pair with no bins
    weights = flat.take(at) if flat.size else np.zeros(at.shape, DTYPE)
    rows = np.flatnonzero(length != 1)
    weights[rows[length[rows] == 0]] = 0
    for k in range(1, int(length.max(initial=1))):
        rows = rows[length[rows] > k]
        weights[rows] += flat.take(at[rows] + k)
    return np.ascontiguousarray(rr.ray._handle(weights) @ f, dtype=DTYPE)


def effective_ftm(rr):
    """The transport matrix the factorization implies: entry
    (s, w * N_d + d) = 1 iff ray[s, w] = 1 and d is in that ray nonzero's
    ring interval.

    A superset of the exact transport matrix for the same geometry: when two
    columns of one camera hit one cell at different bins, the cross
    combinations appear here but not in the exact matrix. The gap is a
    measurable diagnostic of factorization fidelity, not an error.

    Returns:
        SparseBinaryMatrix of shape (S, W * N_d).
    """
    _require(rr, RingRayPair, "rr")
    ray = rr.ray
    offsets, ids = _runs(rr._starts(), rr._length)
    # ray nonzeros follow CSR order, so cell s owns the entries of ray
    # nonzeros ray.row_offsets[s]:ray.row_offsets[s + 1], ascending (w, d)
    return SparseBinaryMatrix._built(
        rr.n_cells, ray.cols * rr.n_depths, offsets[ray.row_offsets], ids
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
    leaves the previous pair. The file holds the ring as the binary matrix
    `rr.ring`, in `fileio`'s layout. A pair, a directory (str or
    os.PathLike) or a digest of another type is a ValidationError.
    """
    _require(rr, RingRayPair, "rr")
    _require(directory, (str, os.PathLike), "directory")
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
    """Load a cached pair with one read of the slot's file: its ray a
    read-only view of the file's bytes (int32 words below 2**31, as the
    pair stores them), its ring read into intervals. None when the file is
    absent, saved under another digest or an older layout, fails its
    checksum, or is truncated, oversized or inconsistent, a ring row with a
    gap included. A directory that is not a str or os.PathLike, or a
    digest that is not a str, is a ValidationError."""
    _require(directory, (str, os.PathLike), "directory")
    _require(digest, str, "digest")
    try:
        matrices = read_cache(Path(directory, _CACHE_FILE).read_bytes(), digest)
        return None if matrices is None else RingRayPair(*matrices)
    except (OSError, FileFormatError, ShapeError, ValidationError):
        return None

"""Dense float32 tensor and binary-sparse matrix types.

Dense feature tensors are plain C-contiguous float32 ndarrays (row-major,
last axis fastest), so reshapes between the tensor and matrix views used by
the transforms are zero-copy; `as_feature` coerces real numbers to one and
rejects non-finite values; any other input is refused by `geometry._real`,
the package's one admission rule for arrays of numbers. A caller that reads
the whole tensor anyway may coerce it with `_coerce`, prove it finite in
its own pass, and scan it with `_all_finite` only to name a failure. Sparse
matrices are CSR with implicit unit values: every transport matrix in this
package is binary, so no value array is stored. Their index arrays take one
dtype, `_index_dtype`: int32 while rows, cols and nnz are all below 2**31,
else int64. That is the dtype scipy picks for a matrix with no zero extent;
with one, scipy narrows by contents, and `_scipy` puts the matrix's arrays
back. So a `_scipy` handle wraps its matrix's own arrays, with no copy, for
every shape. They hold whole numbers only (`_index_array`), and ids in
range (`_in_range`, the one range rule of the constructor and from_coo). A
caller's array is kept under `geometry._owned`, the package's one ownership
rule: with no copy only when it views a cache file's bytes, else as a
frozen copy; arrays the package has just built are frozen in place
(`_built`).
A matrix is assembled from (row, col) pairs by scipy's own COO to CSR
conversion (`_from_pairs`), the one build for from_coo and build_ftm,
whose row offsets pass `geometry._require_memory`, the package's one
memory preflight, before they are allocated. The products over these
types live in the routes that own them (`reference`, `transform`), which
check their inputs once.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError, ValidationError
from .geometry import _frozen, _owned, _owner, _real, _require_memory, _whole

__all__ = [
    "DTYPE",
    "as_feature",
    "SparseBinaryMatrix",
]

DTYPE = np.float32
_FINITE_CHUNK = 1 << 18  # float32 values: 1 MB, well inside L2


def _coerce(x, name, convert=np.ascontiguousarray):
    """`x`, real numbers only (`geometry._real`), as a C-contiguous
    float32 ndarray, not scanned for non-finite values: by `convert`, which
    copies only when it must, or `geometry._owned`, whose array is the
    caller's to keep. A value past float32's range casts to +-inf with no
    overflow warning, for the finite scan that follows to name."""
    with np.errstate(over="ignore"):
        return convert(_real(x, name), dtype=DTYPE)


def _all_finite(arr):
    """Whether every value of the C-contiguous float array `arr` is finite.

    One pass: per 1 MB chunk, the dot product of the chunk with itself. A
    NaN or +-inf makes its square NaN or +inf, and squares are never
    negative, so nothing cancels it and the sum is not finite. A BLAS that
    skips zero multipliers cannot skip that term, since the value
    multiplies itself. A sum of finite squares can still overflow, so a
    chunk whose dot is not finite is settled by the exact test: one max and
    one min, which propagate NaN, and +-inf is its own max or min."""
    flat = arr.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, _FINITE_CHUNK):
            part = flat[start : start + _FINITE_CHUNK]
            if not math.isfinite(np.dot(part, part)) and not (
                math.isfinite(part.max()) and math.isfinite(part.min())
            ):
                return False
    return True


def as_feature(x, name="tensor"):
    """Coerce to a C-contiguous float32 ndarray (the dense tensor type).

    Only real numbers are accepted, as in `_coerce`, and a non-finite value
    is a ValidationError naming the tensor. The scan is `_all_finite`: it
    allocates nothing the size of the input.
    """
    arr = _coerce(x, name)
    if not _all_finite(arr):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _index_dtype(rows, cols, nnz):
    """The dtype of a rows x cols matrix's index arrays with nnz entries:
    int32 while all three are below 2**31, else int64, as scipy picks it
    for nonzero extents (with a zero extent it narrows by contents instead).
    Every stored value then fits: column ids are below cols and row offsets
    at most nnz. Arithmetic that can outgrow them (a pair's implied column
    ids w * N_d + d) runs in int64."""
    return np.int32 if max(rows, cols, nnz) < 2**31 else np.int64


def _index_array(a, name):
    """`a`, an index array, as a C-order int32 or int64 array: in its own
    dtype when it has one of those, so no value is narrowed before it is
    checked and no check needs an upcast copy; any other integer array as
    int64, and a float array only when every value is whole and below
    2**53 in magnitude, `_whole`'s rule (so NaN and +-inf are refused). A
    str, complex, object or ragged array (`geometry._real`), a bool array,
    or an unsigned value at or above 2**63 (which int64 would wrap), is a
    ValidationError naming the array; an empty list is an empty array."""
    a = _real(a, name)
    if a.dtype == np.int32 or a.dtype == np.int64:
        return np.ascontiguousarray(a)
    if a.dtype.kind == "u" and a.size and a.max() >= 2**63:
        raise ValidationError(f"{name} must be below 2**63, got {a.max()}")
    if a.dtype.kind in "iu" or (
        a.dtype.kind == "f" and np.all(np.abs(a) < 2**53) and np.all(a == np.trunc(a))
    ):
        return np.ascontiguousarray(a, dtype=np.int64)
    raise ValidationError(
        f"{name} must be whole numbers (a float only below 2**53), got a {a.dtype} array"
    )


def _from_pairs(rows, cols, row_ids, col_ids):
    """The matrix of (row, col) pairs already in range, duplicates collapsed,
    by scipy's COO to CSR conversion: built by this package, so `_built`,
    not checked again. Row offsets that would not fit in memory are a
    ValidationError before anything of their size is allocated."""
    # scipy's row offsets and room for one more array of their size, both
    # at most int64: 16 bytes a row
    _require_memory(16 * (rows + 1), f"the row offsets of a {rows}-row matrix", ValidationError)
    ones = np.ones(row_ids.shape[0], dtype=bool)
    m = sp.csr_matrix((ones, (row_ids, col_ids)), shape=(rows, cols))
    # merging duplicates can leave the ids a view of a longer array
    indices = m.indices if m.indices.base is None else m.indices.copy()
    return SparseBinaryMatrix._built(rows, cols, m.indptr, indices)


def _in_range(ids, bound, what):
    """Refuse ids outside [0, `bound`): a ValidationError naming `what`,
    the row or column ids of a matrix."""
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise ValidationError(f"{what} index out of range")


def _held_bytes(arrays):
    """The bytes that `arrays` hold, each buffer counted once: a view counts
    the whole array, or bytes object, that it views (`_owner`)."""
    return sum({id(owner): memoryview(owner).nbytes for owner in map(_owner, arrays)}.values())


class SparseBinaryMatrix:
    """CSR matrix whose stored entries are all exactly 1.

    Args:
        rows: number of rows.
        cols: number of columns.
        row_offsets: integer array of length rows+1, non-decreasing,
            starting at 0; row i owns
            col_indices[row_offsets[i]:row_offsets[i+1]].
        col_indices: integer array of column ids, strictly increasing
            within each row: scipy's canonical CSR format.

    Both take whole numbers only (`_index_array`), and their values are
    checked in the input's own int32 or int64 dtype, so nothing is narrowed
    before it is checked. Then each is kept under `geometry._owned` in
    `_index_dtype(rows, cols, nnz)`: int32 while rows, cols and nnz are all
    below 2**31, else int64. So a cache file's words are kept as views of
    its bytes, and any other caller's array as a frozen copy. `_scipy`
    wraps these same arrays, and the row order is asked of such a handle.
    """

    __slots__ = ("rows", "cols", "row_offsets", "col_indices", "__dict__")

    def __init__(self, rows, cols, row_offsets, col_indices):
        rows = _whole(rows, "rows", 0, ValidationError)
        cols = _whole(cols, "cols", 0, ValidationError)
        row_offsets = _index_array(row_offsets, "row_offsets")
        col_indices = _index_array(col_indices, "col_indices")
        if row_offsets.ndim != 1 or row_offsets.shape[0] != rows + 1:
            raise ValidationError(
                f"row_offsets must have length rows+1={rows + 1}, "
                f"got {row_offsets.shape}"
            )
        if row_offsets[0] != 0:
            raise ValidationError("row_offsets[0] must be 0")
        # compared, not differenced: an int32 difference could wrap
        if np.any(row_offsets[1:] < row_offsets[:-1]):
            raise ValidationError("row_offsets must be non-decreasing")
        if col_indices.ndim != 1 or col_indices.shape[0] != row_offsets[-1]:
            raise ValidationError(
                f"col_indices length {col_indices.shape[0]} != nnz "
                f"{int(row_offsets[-1])}"
            )
        _in_range(col_indices, cols, "column")
        self._store(rows, cols, row_offsets, col_indices, _owned)
        # Strictly increasing within each row is scipy's canonical format,
        # asked of a handle over the kept arrays, with no copy. scipy's C
        # loop reads col_indices[row_offsets[i]:row_offsets[i + 1]], so it
        # is memory-safe only on offsets proven monotone and ending at nnz,
        # as these are.
        if self.nnz and not self._handle(np.ones(self.nnz, dtype=bool)).has_canonical_format:
            raise ValidationError("col_indices must strictly increase within a row")

    def _store(self, rows, cols, row_offsets, col_indices, keep):
        # checked or built values fit the dtype, so narrowing is exact
        dtype = _index_dtype(rows, cols, col_indices.shape[0])
        self.rows = rows
        self.cols = cols
        self.row_offsets = keep(row_offsets, dtype)
        self.col_indices = keep(col_indices, dtype)

    @classmethod
    def _built(cls, rows, cols, row_offsets, col_indices):
        """A matrix over valid CSR arrays that this package has just built
        (C-order int32 or int64, owned by no caller): they are frozen in
        place, not checked again, and narrowed to `_index_dtype` if they
        are wider. Arrays from outside go through the constructor."""
        m = cls.__new__(cls)
        m._store(rows, cols, row_offsets, col_indices, _frozen)
        return m

    @property
    def nnz(self):
        return int(self.row_offsets[-1])

    @property
    def shape(self):
        return (self.rows, self.cols)

    @classmethod
    def from_coo(cls, rows, cols, row_ids, col_ids):
        """Build from unordered (row, col) pairs; duplicates collapse to 1.
        The ids take whole numbers only, as the constructor's arrays do.

        After the checks the pairs go to `_from_pairs`, scipy's COO to CSR
        conversion.
        """
        rows = _whole(rows, "rows", 0, ValidationError)
        cols = _whole(cols, "cols", 0, ValidationError)
        row_ids = _index_array(row_ids, "row_ids").ravel()
        col_ids = _index_array(col_ids, "col_ids").ravel()
        if row_ids.shape != col_ids.shape:
            raise ShapeError.mismatch("from_coo", row_ids.shape, col_ids.shape)
        _in_range(row_ids, rows, "row")
        _in_range(col_ids, cols, "column")
        return _from_pairs(rows, cols, row_ids, col_ids)

    def _handle(self, data):
        """A scipy CSR matrix on this matrix's pattern with values `data`,
        over the matrix's own index arrays, with no copy."""
        handle = sp.csr_matrix((data, self.col_indices, self.row_offsets), shape=self.shape)
        # scipy narrows a zero-extent matrix's arrays to int32 copies by
        # their contents, and products over those fail past 2**31: the
        # handle takes the matrix's own arrays instead
        handle.indices, handle.indptr = self.col_indices, self.row_offsets
        return handle

    @functools.cached_property
    def _scipy(self):
        # read-only execution handle; unit values materialized once
        return self._handle(np.ones(self.nnz, dtype=DTYPE))

    def _buffers(self):
        """The arrays the matrix runs on: its index arrays and those of its
        scipy handle, made if it was not yet."""
        handle = self._scipy
        return (
            self.row_offsets,
            self.col_indices,
            handle.data,
            handle.indices,
            handle.indptr,
        )

    def __eq__(self, other):
        if not isinstance(other, SparseBinaryMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
        )

    def __hash__(self):
        return hash((self.shape, self.nnz))

    def __repr__(self):
        return f"SparseBinaryMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

"""Dense float32 tensor and binary-sparse matrix types.

Dense feature tensors are plain C-contiguous float32 ndarrays (row-major,
last axis fastest), so reshapes between the tensor and matrix views used by
the transforms are zero-copy; `as_feature` coerces real numbers to one and
rejects any other input and non-finite values. A caller that reads the
whole tensor anyway may coerce it with `_coerce`, prove it finite in its
own pass, and scan it with `_all_finite` only to name a failure. Sparse
matrices are CSR with implicit unit values: every transport matrix in this
package is binary, so no value array is stored.
The products over these types live in the routes that own them
(`reference`, `transform`), which check their inputs once.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError, ValidationError
from .geometry import _fits_in_memory, _whole

__all__ = [
    "DTYPE",
    "as_feature",
    "SparseBinaryMatrix",
]

DTYPE = np.float32
_FINITE_CHUNK = 1 << 18  # float32 values: 1 MB, well inside L2


def _coerce(x, name):
    """`x` as a C-contiguous float32 ndarray, not scanned for non-finite
    values. Only real numbers are accepted: an input that is not a
    rectangular array of bool, int, uint or float values (a complex array,
    a string, a ragged list) is a ValidationError naming the tensor."""
    try:
        arr = np.asarray(x)
    except ValueError as exc:
        raise ValidationError(f"{name} is not an array of real numbers ({exc})") from None
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{name} is not an array of real numbers (dtype {arr.dtype})")
    return np.ascontiguousarray(arr, dtype=DTYPE)


def _all_finite(arr):
    """Whether every value of the C-contiguous float array `arr` is finite.

    One max and one min per 1 MB chunk, with no mask: max and min propagate
    NaN, and +-inf is its own max or min, so the answer is exact. The min
    reads a chunk the max has just left in cache."""
    flat = arr.reshape(-1)
    for start in range(0, flat.size, _FINITE_CHUNK):
        part = flat[start : start + _FINITE_CHUNK]
        if not (math.isfinite(part.max()) and math.isfinite(part.min())):
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


class SparseBinaryMatrix:
    """CSR matrix whose stored entries are all exactly 1.

    Args:
        rows: number of rows.
        cols: number of columns.
        row_offsets: int64 array of length rows+1, non-decreasing, starting
            at 0; row i owns col_indices[row_offsets[i]:row_offsets[i+1]].
        col_indices: int64 array of column ids, strictly increasing within
            each row.
    """

    __slots__ = ("rows", "cols", "row_offsets", "col_indices", "__dict__")

    def __init__(self, rows, cols, row_offsets, col_indices):
        rows = _whole(rows, "rows", 0, ValidationError)
        cols = _whole(cols, "cols", 0, ValidationError)
        row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        if row_offsets.ndim != 1 or row_offsets.shape[0] != rows + 1:
            raise ValidationError(
                f"row_offsets must have length rows+1={rows + 1}, "
                f"got {row_offsets.shape}"
            )
        if row_offsets[0] != 0:
            raise ValidationError("row_offsets[0] must be 0")
        if np.any(np.diff(row_offsets) < 0):
            raise ValidationError("row_offsets must be non-decreasing")
        if col_indices.ndim != 1 or col_indices.shape[0] != row_offsets[-1]:
            raise ValidationError(
                f"col_indices length {col_indices.shape[0]} != nnz "
                f"{int(row_offsets[-1])}"
            )
        if col_indices.size:
            if col_indices.min() < 0 or col_indices.max() >= cols:
                raise ValidationError("column index out of range")
            # strictly increasing within each row: decreases may only occur
            # at row boundaries. not_up[p] marks a non-increase from p-1 to p;
            # positions 0 and nnz are padding so every row start indexes it.
            not_up = np.zeros(col_indices.shape[0] + 1, dtype=bool)
            np.less_equal(col_indices[1:], col_indices[:-1], out=not_up[1:-1])
            not_up[row_offsets[1:-1]] = False
            if not_up.any():
                raise ValidationError("col_indices must strictly increase within a row")
        self._store(rows, cols, row_offsets, col_indices)

    def _store(self, rows, cols, row_offsets, col_indices):
        row_offsets.setflags(write=False)
        col_indices.setflags(write=False)
        self.rows = rows
        self.cols = cols
        self.row_offsets = row_offsets
        self.col_indices = col_indices

    @classmethod
    def _built(cls, rows, cols, row_offsets, col_indices):
        """A matrix over valid CSR arrays that this package has just built
        (C-order int64, owned by no caller): they are frozen, not checked
        again. Arrays from outside go through the constructor."""
        m = cls.__new__(cls)
        m._store(rows, cols, row_offsets, col_indices)
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

        Pairs are encoded as row * cols + col keys, sorted, and deduplicated
        by comparing neighbours. np.unique would give the same keys, but
        numpy 2.4.6 sends it through a hash table (`_unique_hash`): on the
        52k int64 keys of one S4 build it measured 9-11 ms against 0.4 ms
        for np.sort.
        """
        rows = _whole(rows, "rows", 0, ValidationError)
        cols = _whole(cols, "cols", 0, ValidationError)
        # the row offsets and the row counts: two int64 arrays of rows + 1
        if not _fits_in_memory(16 * (rows + 1)):
            raise ValidationError(
                f"from_coo: the row offsets of a {rows}-row matrix exceed physical memory"
            )
        row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        col_ids = np.asarray(col_ids, dtype=np.int64).ravel()
        if row_ids.shape != col_ids.shape:
            raise ShapeError.mismatch("from_coo", row_ids.shape, col_ids.shape)
        if row_ids.size:
            if row_ids.min() < 0 or row_ids.max() >= rows:
                raise ValidationError("row index out of range")
            if col_ids.min() < 0 or col_ids.max() >= cols:
                raise ValidationError("column index out of range")
            if rows * cols >= 2**63:
                raise ValidationError(
                    f"a {rows} x {cols} matrix has too many entries for int64 keys"
                )
            keys = np.sort(row_ids * np.int64(cols) + col_ids)
            first = np.ones(keys.shape[0], dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            row_ids, col_ids = np.divmod(keys[first], cols)
        else:
            col_ids = np.empty(0, dtype=np.int64)  # not the caller's array
        offsets = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_ids, minlength=rows), out=offsets[1:])
        return cls._built(rows, cols, offsets, col_ids)

    @functools.cached_property
    def _scipy(self):
        # read-only execution handle; unit values materialized once
        data = np.ones(self.nnz, dtype=DTYPE)
        return sp.csr_matrix(
            (data, self.col_indices, self.row_offsets), shape=self.shape
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

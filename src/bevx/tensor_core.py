"""Dense float32 tensor and binary-sparse matrix types.

Dense feature tensors are plain C-contiguous float32 ndarrays (row-major,
last axis fastest), so reshapes between the tensor and matrix views used by
the transforms are zero-copy; `as_feature` coerces to one and rejects
non-finite values. Sparse matrices are CSR with implicit unit values: every
transport matrix in this package is binary, so no value array is stored.
The products over these types live in the routes that own them
(`reference`, `transform`), which check their inputs once.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError, ValidationError
from .geometry import _numbers

__all__ = [
    "DTYPE",
    "as_feature",
    "SparseBinaryMatrix",
]

DTYPE = np.float32


def as_feature(x, name="tensor"):
    """Coerce to a C-contiguous float32 ndarray (the dense tensor type)."""
    arr = np.ascontiguousarray(x, dtype=DTYPE)
    if arr.size and not np.isfinite(arr).all():
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
        rows = _numbers(rows, "rows", whole=True, error=ValidationError)
        cols = _numbers(cols, "cols", whole=True, error=ValidationError)
        row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        if rows < 0 or cols < 0:
            raise ValidationError("matrix extents must be non-negative")
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
        row_offsets.setflags(write=False)
        col_indices.setflags(write=False)
        self.rows = rows
        self.cols = cols
        self.row_offsets = row_offsets
        self.col_indices = col_indices

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
        rows = _numbers(rows, "rows", whole=True, error=ValidationError)
        cols = _numbers(cols, "cols", whole=True, error=ValidationError)
        row_ids = np.asarray(row_ids, dtype=np.int64).ravel()
        col_ids = np.asarray(col_ids, dtype=np.int64).ravel()
        if row_ids.shape != col_ids.shape:
            raise ShapeError.mismatch("from_coo", row_ids.shape, col_ids.shape)
        if row_ids.size:
            if row_ids.min() < 0 or row_ids.max() >= rows:
                raise ValidationError("row index out of range")
            if col_ids.min() < 0 or col_ids.max() >= cols:
                raise ValidationError("column index out of range")
            keys = np.sort(row_ids * np.int64(cols) + col_ids)
            first = np.ones(keys.shape[0], dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            row_ids, col_ids = np.divmod(keys[first], cols)
        counts = np.bincount(row_ids, minlength=rows)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return cls(rows, cols, offsets, col_ids)

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

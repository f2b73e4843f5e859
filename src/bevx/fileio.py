r"""Byte layout of a ring/ray cache file; 8-byte little-endian integers, each field 8-aligned.

  file: "BXC3\0\0\0\0" | digest length | digest (UTF-8, zero-padded to 8k) | ring | ray
  record: "BXS2\0\0\0\0" | rows | cols | nnz | row_offsets x (rows+1) | col_indices x nnz

The ring record holds the per-entry ring, one row per ray nonzero, so its
rows equal the ray's nnz. A "BXC2" file holds the same two records over the
older shared (S, N_d) ring, and like any other header it reads as a miss.
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import FileFormatError
from .tensor_core import SparseBinaryMatrix

_RECORD_TAG = b"BXS2\0\0\0\0"


def _header(digest):
    key = digest.encode("utf-8")
    return b"BXC3\0\0\0\0" + struct.pack("<Q", len(key)) + key + bytes(-len(key) % 8)


def write_cache(f, digest, ring, ray):
    """Write the cache file of a ring/ray pair to the binary stream f."""
    f.write(_header(digest))
    for m in (ring, ray):
        f.write(_RECORD_TAG + struct.pack("<QQQ", m.rows, m.cols, m.nnz))
        f.write(m.row_offsets.astype("<i8", copy=False))
        f.write(m.col_indices.astype("<i8", copy=False))


def _read_sparse(raw, at):
    """The record that starts at byte `at`, and the byte after it."""
    if raw[at : at + 8] != _RECORD_TAG or len(raw) < at + 32:
        raise FileFormatError(f"bad magic or truncated header at byte {at}")
    rows, cols, nnz = struct.unpack_from("<QQQ", raw, at + 8)
    if max(rows, cols, nnz) > 2**40:
        raise FileFormatError(f"implausible header ({rows} x {cols}, {nnz} nnz)")
    end = at + 32 + 8 * (rows + 1 + nnz)
    if len(raw) < end:
        raise FileFormatError(f"expected at least {end} bytes, got {len(raw)}")
    # int64 views of the bytes; a word past 2**63 reads negative and fails
    words = np.frombuffer(raw, "<i8", rows + 1 + nnz, at + 32)
    try:
        return SparseBinaryMatrix(rows, cols, words[: rows + 1], words[rows + 1 :]), end
    except ValueError as exc:
        raise FileFormatError(f"inconsistent sparse payload: {exc}") from exc


def read_cache(raw, digest):
    """(ring, ray) as read-only int64 views of a cache file's bytes; None unless
    they start with the header of `digest`, compared before any decoding.
    Raises FileFormatError on a bad record or bytes past the ray record."""
    head = _header(digest)
    if not raw.startswith(head):
        return None
    ring, at = _read_sparse(raw, len(head))
    ray, at = _read_sparse(raw, at)
    if at != len(raw):
        raise FileFormatError(f"expected {at} bytes, got {len(raw)}")
    return ring, ray

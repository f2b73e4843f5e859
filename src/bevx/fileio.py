"""Byte layout of a ring/ray cache file; every integer is 8-byte little-endian.

  file: "BXC1" | digest length | digest (UTF-8) | BXS1 ring | BXS1 ray
  BXS1: "BXS1" | rows | cols | nnz | row_offsets x (rows+1) | col_indices x nnz
"""
from __future__ import annotations

import struct

import numpy as np

from .errors import FileFormatError
from .tensor_core import SparseBinaryMatrix


def _header(digest):
    key = digest.encode("utf-8")
    return b"BXC1" + struct.pack("<Q", len(key)) + key


def write_cache(f, digest, ring, ray):
    """Write the cache file of a ring/ray pair to the binary stream f."""
    f.write(_header(digest))
    for m in (ring, ray):
        f.write(b"BXS1" + struct.pack("<QQQ", m.rows, m.cols, m.nnz))
        f.write(np.concatenate((m.row_offsets, m.col_indices)).astype("<i8", copy=False))


def _read_sparse(raw, at):
    """The BXS1 record that starts at byte `at`, and the byte after it."""
    if raw[at : at + 4] != b"BXS1" or len(raw) < at + 28:
        raise FileFormatError(f"bad magic or truncated header at byte {at}")
    rows, cols, nnz = struct.unpack_from("<QQQ", raw, at + 4)
    if max(rows, cols, nnz) > 2**40:
        raise FileFormatError(f"implausible header ({rows} x {cols}, {nnz} nnz)")
    end = at + 28 + 8 * (rows + 1 + nnz)
    if len(raw) < end:
        raise FileFormatError(f"expected at least {end} bytes, got {len(raw)}")
    # int64 views of the bytes; a word past 2**63 reads negative and fails
    words = np.frombuffer(raw, "<i8", rows + 1 + nnz, at + 28)
    if not words.flags.aligned:  # e.g. the ray under a 64-character digest
        words = words.copy()  # gathers over an unaligned view run slower
    try:
        return SparseBinaryMatrix(rows, cols, words[: rows + 1], words[rows + 1 :]), end
    except ValueError as exc:
        raise FileFormatError(f"inconsistent sparse payload: {exc}") from exc


def read_cache(raw, digest):
    """(ring, ray) as read-only views of a cache file's bytes, or copies of
    a record whose words are not 8-byte aligned; None unless they start
    with the header of `digest`, compared before any decoding. Raises
    FileFormatError on a bad record or bytes past the ray record."""
    head = _header(digest)
    if not raw.startswith(head):
        return None
    ring, at = _read_sparse(raw, len(head))
    ray, at = _read_sparse(raw, at)
    if at != len(raw):
        raise FileFormatError(f"expected {at} bytes, got {len(raw)}")
    return ring, ray

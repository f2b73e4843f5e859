r"""Byte layout of a ring/ray cache file; header integers are 8-byte little-endian, each field 8-aligned.

  file: "BXC4\0\0\0\0" | digest length | digest (UTF-8, zero-padded to 8k) | crc | ring | ray
  record: "BXS3\0\0\0\0" | rows | cols | nnz | words, zero-padded to 8k
  words: row_offsets x (rows+1) | col_indices x nnz

`crc` is zlib.crc32 of everything after it, the two records. A record's
words are little-endian integers of the width its header implies by
tensor_core._index_dtype: 4 bytes while rows, cols and nnz are all below
2**31, else 8. That is the width the matrix stores, so a load is zero-copy.
The ring record holds the per-entry ring, one row per ray nonzero, so its
rows equal the ray's nnz. Older files ("BXC3", 8-byte words and no crc;
"BXC2", a shared (S, N_d) ring) read as a miss, like any other header.
"""
from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import FileFormatError
from .tensor_core import SparseBinaryMatrix, _index_dtype

_RECORD_TAG = b"BXS3\0\0\0\0"


def _header(digest):
    key = digest.encode("utf-8")
    return b"BXC4\0\0\0\0" + struct.pack("<Q", len(key)) + key + bytes(-len(key) % 8)


def _word(rows, cols, nnz):
    """The little-endian dtype of a record's words."""
    return np.dtype(_index_dtype(rows, cols, nnz)).newbyteorder("<")


def _records(ring, ray):
    """The byte chunks of the two records, views of the matrices' arrays."""
    chunks = []
    for m in (ring, ray):
        word = _word(m.rows, m.cols, m.nnz)
        chunks.append(_RECORD_TAG + struct.pack("<QQQ", m.rows, m.cols, m.nnz))
        chunks.append(m.row_offsets.astype(word, copy=False))
        chunks.append(m.col_indices.astype(word, copy=False))
        chunks.append(bytes(-word.itemsize * (m.rows + 1 + m.nnz) % 8))
    return chunks


def write_cache(f, digest, ring, ray):
    """Write the cache file of a ring/ray pair to the binary stream f."""
    chunks = _records(ring, ray)
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    f.write(_header(digest) + struct.pack("<Q", crc))
    for chunk in chunks:
        f.write(chunk)


def _read_sparse(raw, at):
    """The record that starts at byte `at`, and the byte after it."""
    if raw[at : at + 8] != _RECORD_TAG or len(raw) < at + 32:
        raise FileFormatError(f"bad magic or truncated header at byte {at}")
    rows, cols, nnz = struct.unpack_from("<QQQ", raw, at + 8)
    if max(rows, cols, nnz) > 2**40:
        raise FileFormatError(f"implausible header ({rows} x {cols}, {nnz} nnz)")
    word = _word(rows, cols, nnz)
    size = word.itemsize * (rows + 1 + nnz)
    end = at + 32 + size + (-size % 8)
    if len(raw) < end:
        raise FileFormatError(f"expected at least {end} bytes, got {len(raw)}")
    if any(raw[at + 32 + size : end]):
        raise FileFormatError(f"nonzero padding before byte {end}")
    # views of the bytes; a word past the signed range reads negative and fails
    words = np.frombuffer(raw, word, rows + 1 + nnz, at + 32)
    try:
        return SparseBinaryMatrix(rows, cols, words[: rows + 1], words[rows + 1 :]), end
    except ValueError as exc:
        raise FileFormatError(f"inconsistent sparse payload: {exc}") from exc


def read_cache(raw, digest):
    """(ring, ray) as read-only views of a cache file's bytes, in the width
    each matrix stores; None unless they start with the header of `digest`,
    compared before any decoding, and the crc matches the records. Raises
    FileFormatError on a bad record or bytes past the ray record, which
    only a file written with a matching crc can have."""
    head = _header(digest)
    at = len(head) + 8
    if not raw.startswith(head) or len(raw) < at:
        return None
    (crc,) = struct.unpack_from("<Q", raw, len(head))
    if zlib.crc32(memoryview(raw)[at:]) != crc:
        return None
    ring, at = _read_sparse(raw, at)
    ray, at = _read_sparse(raw, at)
    if at != len(raw):
        raise FileFormatError(f"expected {at} bytes, got {len(raw)}")
    return ring, ray

import io

import numpy as np
import pytest

from bevx import FileFormatError, SparseBinaryMatrix
from bevx.fileio import read_cache, write_cache
from oracles import from_dense


def encode(digest, ring, ray):
    buf = io.BytesIO()
    write_cache(buf, digest, ring, ray)
    return buf.getvalue()


class TestSparseFile:
    def test_round_trip(self, rng):
        ring = from_dense(rng.random((13, 29)) < 0.2)
        ray = from_dense(rng.random((13, 7)) < 0.5)
        assert read_cache(encode("d", ring, ray), "d") == (ring, ray)

    def test_empty_matrix(self):
        ring = SparseBinaryMatrix(3, 7, np.zeros(4, np.int64), [])
        ray = SparseBinaryMatrix(3, 2, [0, 1, 1, 2], [0, 1])
        back_ring, back_ray = read_cache(encode("d", ring, ray), "d")
        assert back_ring == ring and back_ring.nnz == 0 and back_ray == ray

    def test_bad_magic(self):
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = bytearray(encode("d", m, m))
        raw[13:17] = b"XXXX"  # the ring record's magic, after the 13-byte header
        with pytest.raises(FileFormatError, match="magic"):
            read_cache(bytes(raw), "d")

    def test_wrong_length(self, rng):
        m = from_dense(rng.random((5, 5)) < 0.5)
        raw = encode("d", m, m)
        with pytest.raises(FileFormatError, match="bytes"):
            read_cache(raw + b"\x00" * 8, "d")
        with pytest.raises(FileFormatError, match="bytes"):
            read_cache(raw[:-8], "d")

    def test_inconsistent_payload(self):
        # valid container, nonsense offsets: starts at 1 instead of 0
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = bytearray(encode("d", m, m))
        raw[41:49] = (1).to_bytes(8, "little")  # ring row_offsets[0]
        with pytest.raises(FileFormatError, match="inconsistent"):
            read_cache(bytes(raw), "d")

    def test_other_digest_or_magic_is_none(self):
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = encode("d", m, m)
        assert read_cache(raw, "e") is None
        assert read_cache(b"BXC2" + raw[4:], "d") is None

import io

import numpy as np
import pytest

from bevx import FileFormatError, SparseBinaryMatrix
from bevx.fileio import _header, read_cache, write_cache
from oracles import from_dense, older_cache_bytes

RECORD_HEADER = 32  # the 8-byte tag, then rows, cols and nnz


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
        at = len(_header("d"))  # the ring record's tag
        raw[at : at + 4] = b"XXXX"
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
        at = len(_header("d")) + RECORD_HEADER  # ring row_offsets[0]
        assert raw[at : at + 8] == bytes(8)
        raw[at : at + 8] = (1).to_bytes(8, "little")
        with pytest.raises(FileFormatError, match="inconsistent"):
            read_cache(bytes(raw), "d")

    def test_other_digest_or_magic_is_none(self):
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = encode("d", m, m)
        assert read_cache(raw, "e") is None
        assert read_cache(b"BXC2" + raw[4:], "d") is None
        assert read_cache(older_cache_bytes("d", m, m), "d") is None

    @pytest.mark.parametrize("digest", ["", "d", "1234567", "12345678", "ab" * 32])
    def test_nonzero_padding_is_rejected(self, digest):
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = encode(digest, m, m)
        ring_at = len(_header(digest))
        ray_at = ring_at + RECORD_HEADER + 8 * (3 + 2)
        assert ring_at % 8 == 0 and read_cache(raw, digest) is not None

        def flipped(i):
            bad = bytearray(raw)
            bad[i] = 1
            return bytes(bad)

        for i in range(16 + len(digest), ring_at):  # the digest's zero padding
            assert read_cache(flipped(i), digest) is None, i
        for at in (ring_at, ray_at):  # each record tag's zero padding
            for i in range(at + 4, at + 8):
                with pytest.raises(FileFormatError, match="magic"):
                    read_cache(flipped(i), digest)

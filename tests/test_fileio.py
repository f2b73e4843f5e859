import io
import struct
import zlib

import numpy as np
import pytest

from bevx import FileFormatError, SparseBinaryMatrix
from bevx.fileio import _header, read_cache, write_cache
from oracles import bxc2_cache_bytes, bxc3_cache_bytes, from_dense, older_cache_bytes

RECORD_HEADER = 32  # the 8-byte tag, then rows, cols and nnz
CRC = 8  # the crc field after the digest


def encode(digest, ring, ray):
    buf = io.BytesIO()
    write_cache(buf, digest, ring, ray)
    return buf.getvalue()


def sealed(raw, digest):
    """`raw` with its crc rewritten to match its records: a crafted file,
    which only the checked decode can reject."""
    at = len(_header(digest))
    crc = zlib.crc32(bytes(raw[at + CRC :]))
    return bytes(raw[:at]) + struct.pack("<Q", crc) + bytes(raw[at + CRC :])


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
        at = len(_header("d")) + CRC  # the ring record's tag
        raw[at : at + 4] = b"XXXX"
        assert read_cache(bytes(raw), "d") is None  # the crc no longer matches
        with pytest.raises(FileFormatError, match="magic"):
            read_cache(sealed(raw, "d"), "d")

    def test_wrong_length(self, rng):
        m = from_dense(rng.random((5, 5)) < 0.5)
        raw = encode("d", m, m)
        for bad in (raw + b"\x00" * 8, raw[:-8]):
            assert read_cache(bad, "d") is None
            with pytest.raises(FileFormatError, match="bytes"):
                read_cache(sealed(bad, "d"), "d")
        # cut inside the header or the crc: nothing to check the records by
        for n in range(len(_header("d")) + CRC):
            assert read_cache(raw[:n], "d") is None

    def test_inconsistent_payload(self):
        # valid container, nonsense offsets: starts at 1 instead of 0
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = bytearray(encode("d", m, m))
        at = len(_header("d")) + CRC + RECORD_HEADER  # ring row_offsets[0]
        assert raw[at : at + 4] == bytes(4)
        raw[at : at + 4] = (1).to_bytes(4, "little")
        assert read_cache(bytes(raw), "d") is None
        with pytest.raises(FileFormatError, match="inconsistent"):
            read_cache(sealed(raw, "d"), "d")

    @pytest.mark.parametrize("field", ["rows", "cols", "nnz"])
    def test_implausible_header_is_refused_before_any_word(self, field):
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = bytearray(encode("d", m, m))
        # the ring record's rows, cols and nnz follow its 8-byte tag
        at = len(_header("d")) + CRC + 8 + 8 * ["rows", "cols", "nnz"].index(field)
        raw[at : at + 8] = struct.pack("<Q", 2**40 + 1)
        assert read_cache(bytes(raw), "d") is None  # the crc no longer matches
        header = {"rows": 2, "cols": 3, "nnz": 2, field: 2**40 + 1}
        with pytest.raises(FileFormatError) as info:
            read_cache(sealed(raw, "d"), "d")
        want = "implausible header ({rows} x {cols}, {nnz} nnz)".format(**header)
        assert str(info.value) == want

    def test_other_digest_or_magic_is_none(self):
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = encode("d", m, m)
        assert read_cache(raw, "e") is None
        assert read_cache(b"BXC3" + raw[4:], "d") is None
        assert read_cache(older_cache_bytes("d", m, m), "d") is None
        assert read_cache(bxc2_cache_bytes("d", m, m), "d") is None
        assert read_cache(bxc3_cache_bytes("d", m, m), "d") is None

    def test_words_take_the_width_of_the_index_dtype(self):
        # int32 words (4 bytes) below 2**31; cols == 2**31 keeps int64, both
        # in memory and on disk, with a tiny nnz so nothing large is made
        narrow = SparseBinaryMatrix(2, 2**31 - 1, [0, 1, 2], [2**31 - 2, 0])
        wide = SparseBinaryMatrix(2, 2**31, [0, 1, 2], [2**31 - 1, 0])
        assert narrow.row_offsets.dtype == narrow.col_indices.dtype == np.int32
        assert wide.row_offsets.dtype == wide.col_indices.dtype == np.int64
        raw = encode("d", wide, narrow)
        # 5 words each: 40 bytes at 8, 20 at 4 padded to 24
        head = len(_header("d")) + CRC
        assert len(raw) == head + (RECORD_HEADER + 40) + (RECORD_HEADER + 24)
        ring, ray = read_cache(raw, "d")
        assert (ring, ray) == (wide, narrow)
        assert ring.row_offsets.dtype == ring.col_indices.dtype == np.int64
        assert ray.row_offsets.dtype == ray.col_indices.dtype == np.int32
        assert ring.col_indices.tolist() == [2**31 - 1, 0]

    @pytest.mark.parametrize("digest", ["", "d", "1234567", "12345678", "ab" * 32])
    def test_nonzero_padding_is_rejected(self, digest):
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        raw = encode(digest, m, m)
        ring_at = len(_header(digest)) + CRC
        # five int32 words, 20 bytes, padded to 24
        ray_at = ring_at + RECORD_HEADER + 24
        assert ring_at % 8 == 0 and read_cache(raw, digest) is not None

        def flipped(i):
            bad = bytearray(raw)
            bad[i] = 1
            return bytes(bad)

        for i in range(16 + len(digest), ring_at):  # the digest's zero padding
            assert read_cache(flipped(i), digest) is None, i
        for at in (ring_at, ray_at):  # each record tag's zero padding
            for i in range(at + 4, at + 8):
                assert read_cache(flipped(i), digest) is None
                with pytest.raises(FileFormatError, match="magic"):
                    read_cache(sealed(flipped(i), digest), digest)
        for end in (ray_at, len(raw)):  # each record's word padding
            for i in range(end - 4, end):
                assert read_cache(flipped(i), digest) is None
                with pytest.raises(FileFormatError, match="padding"):
                    read_cache(sealed(flipped(i), digest), digest)

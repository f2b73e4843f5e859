import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bevx import SparseBinaryMatrix, ValidationError, as_feature
from oracles import csr_from_pairs, csr_order_ok_isin, densify, from_dense, row


@st.composite
def coo_problems(draw):
    """(rows, cols, pairs): unsorted in-range COO pairs, duplicates likely."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return rows, cols, draw(st.lists(pair, max_size=40))


@st.composite
def csr_candidates(draw):
    """(rows, cols, offsets, indices) passing every constructor check except,
    possibly, within-row order; about half have each row sorted and unique."""
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(1, 5))
    row_lists = draw(
        st.lists(
            st.lists(st.integers(0, cols - 1), max_size=4),
            min_size=rows,
            max_size=rows,
        )
    )
    if draw(st.booleans()):
        row_lists = [sorted(set(r)) for r in row_lists]
    offsets = np.cumsum([0] + [len(r) for r in row_lists])
    return rows, cols, offsets, [c for r in row_lists for c in r]


class TestAsFeature:
    def test_converts_to_contiguous_float32(self):
        out = as_feature(np.arange(6, dtype=np.float64).reshape(2, 3)[:, ::-1])
        assert out.dtype == np.float32 and out.flags.c_contiguous

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            as_feature([1.0, np.nan])
        with pytest.raises(ValidationError):
            as_feature([np.inf])

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.int64, np.float16, np.float64])
    def test_accepts_every_real_dtype(self, dtype):
        out = as_feature(np.arange(3).astype(dtype))
        assert out.dtype == np.float32 and out.tolist() == np.arange(3).astype(dtype).tolist()


class TestSparseBinaryMatrix:
    def test_valid_construction(self):
        m = SparseBinaryMatrix(3, 4, [0, 2, 2, 3], [1, 3, 0])
        assert m.shape == (3, 4) and m.nnz == 3
        assert list(row(m, 0)) == [1, 3] and list(row(m, 1)) == []

    def test_densify_is_binary(self):
        m = SparseBinaryMatrix(2, 3, [0, 1, 3], [2, 0, 1])
        d = densify(m)
        assert set(np.unique(d)) <= {0.0, 1.0}
        assert d.tolist() == [[0, 0, 1], [1, 1, 0]]

    @pytest.mark.parametrize(
        "rows,cols,offsets,indices",
        [
            (2, 3, [0, 1], [0]),  # offsets wrong length
            (2, 3, [1, 1, 2], [0, 1]),  # offsets[0] != 0
            (2, 3, [0, 2, 1], [0, 1]),  # offsets decrease
            (2, 3, [0, 1, 2], [0, 3]),  # column out of range
            (2, 3, [0, 2, 2], [1, 1]),  # duplicate within row
            (2, 3, [0, 2, 2], [2, 1]),  # decreasing within row
            (2, 3, [0, 1, 2], [0]),  # col_indices shorter than nnz
            (3, 3, [0, 0, 0, 2], [1, 0]),  # decrease after leading empty rows
            (3, 3, [0, 2, 2, 2], [2, 2]),  # duplicate before trailing empty rows
            (4, 3, [0, 1, 1, 3, 3], [0, 2, 1]),  # decrease one past a start
            (2.5, 3, [0, 1, 1], [0]),  # fractional row count
            ("2", 3, [0, 1, 1], [0]),  # row count as a string
            (True, 3, [0, 1], [0]),  # row count as a bool
            (1, 3.7, [0, 1], [0]),  # fractional column count
        ],
    )
    def test_invalid_construction(self, rows, cols, offsets, indices):
        with pytest.raises(ValidationError):
            SparseBinaryMatrix(rows, cols, offsets, indices)

    @pytest.mark.parametrize(
        "rows, cols", [(2, 3.5), (2.5, 3), ("2", 3), (2, np.nan)],
        ids=["cols-float", "rows-float", "rows-str", "cols-nan"],
    )
    def test_from_coo_counts_must_be_whole(self, rows, cols):
        with pytest.raises(ValidationError, match="whole number"):
            SparseBinaryMatrix.from_coo(rows, cols, [0], [0])

    def test_row_boundary_decrease_is_legal(self):
        m = SparseBinaryMatrix(2, 3, [0, 2, 3], [1, 2, 0])
        assert densify(m).tolist() == [[0, 1, 1], [1, 0, 0]]

    @settings(max_examples=200, deadline=None)
    @given(coo_problems())
    @example((1, 1, []))
    @example((1, 1, [(0, 0), (0, 0)]))
    @example((3, 1, [(2, 0), (0, 0), (2, 0)]))
    def test_from_coo_matches_sorted_pair_set(self, problem):
        rows, cols, pairs = problem
        r = np.array([p[0] for p in pairs], dtype=np.int64)
        c = np.array([p[1] for p in pairs], dtype=np.int64)
        m = SparseBinaryMatrix.from_coo(rows, cols, r, c)
        assert m == csr_from_pairs(pairs, (rows, cols))

    @settings(max_examples=300, deadline=None)
    @given(csr_candidates())
    @example((4, 3, [0, 1, 1, 1, 2], [2, 0]))  # decrease at a start after empty rows
    @example((3, 3, [0, 0, 0, 2], [0, 1]))  # leading empty rows
    @example((3, 3, [0, 0, 0, 2], [1, 0]))
    @example((3, 3, [0, 1, 2, 2], [1, 0]))  # trailing empty rows
    @example((3, 3, [0, 2, 2, 2], [1, 0]))
    def test_order_check_matches_isin_rule(self, case):
        rows, cols, offsets, indices = case
        try:
            SparseBinaryMatrix(rows, cols, offsets, indices)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == csr_order_ok_isin(offsets, indices)

    def test_from_coo_dedups_and_sorts(self):
        m = SparseBinaryMatrix.from_coo(2, 4, [1, 0, 1, 1], [3, 2, 0, 3])
        assert m.nnz == 3
        assert list(row(m, 1)) == [0, 3]

    def test_from_dense_round_trip(self, rng):
        dense = (rng.random((7, 9)) < 0.3).astype(np.float32)
        m = from_dense(dense)
        np.testing.assert_array_equal(densify(m), dense)

    def test_equality(self):
        a = SparseBinaryMatrix(2, 2, [0, 1, 1], [0])
        b = SparseBinaryMatrix(2, 2, [0, 1, 1], [0])
        c = SparseBinaryMatrix(2, 2, [0, 1, 1], [1])
        assert a == b and a != c

    def test_from_coo_range_checks(self):
        with pytest.raises(ValidationError):
            SparseBinaryMatrix.from_coo(2, 2, [2], [0])
        with pytest.raises(ValidationError):
            SparseBinaryMatrix.from_coo(2, 2, [0], [-1])
        # row * cols + col keys would wrap past int64
        with pytest.raises(ValidationError, match="int64"):
            SparseBinaryMatrix.from_coo(3, 2**62, [1, 2], [0, 5])
        m = SparseBinaryMatrix.from_coo(3, 2**61, [2, 2, 0], [5, 2**61 - 1, 0])
        assert m.row_offsets.tolist() == [0, 1, 1, 3]
        assert m.col_indices.tolist() == [0, 5, 2**61 - 1]

    @pytest.mark.parametrize("shape", [(-1, 3), (3, -1)], ids=["rows", "cols"])
    def test_from_coo_rejects_negative_extents(self, shape):
        # with no pairs the sign is all there is to check; np.bincount would
        # otherwise reject a negative minlength with a raw ValueError
        with pytest.raises(ValidationError, match="non-negative"):
            SparseBinaryMatrix.from_coo(*shape, [], [])


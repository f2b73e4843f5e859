import functools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bevx.tensor_core
from bevx import ShapeError, SparseBinaryMatrix, ValidationError, as_feature
from bevx.tensor_core import _all_finite, _from_pairs, _held_bytes, _index_dtype
from oracles import (
    csr_from_pairs,
    csr_order_ok_isin,
    csr_rule_broken,
    densify,
    entry_keys,
    from_dense,
    row,
)


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


@st.composite
def constructor_inputs(draw):
    """(rows, cols, row_offsets, col_indices) for the checked constructor.
    The offsets run from 0 over drawn row lengths, or are those permuted,
    drawn freely after the 0, one short or one long. Each row's column ids
    are sorted and unique, as drawn, or sorted with a repeat, and take -1
    and cols too; now and then the last id is dropped. Each array is an
    int32 array, an int64 array or a Python list."""
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 5))
    wild = cols == 0 or draw(st.integers(0, 3)) == 0
    column = st.integers(-1, cols) if wild else st.integers(0, cols - 1)
    row_lists = draw(st.lists(st.lists(column, max_size=4), min_size=rows, max_size=rows))
    order = draw(st.sampled_from(["sorted", "drawn", "repeat"]))
    if order == "sorted":
        row_lists = [sorted(set(r)) for r in row_lists]
    elif order == "repeat":
        row_lists = [sorted(r + r[:1]) for r in row_lists]
    offsets = [0] + np.cumsum([len(r) for r in row_lists], dtype=int).tolist()
    indices = [c for r in row_lists for c in r]
    bent = draw(st.sampled_from(["built"] * 3 + ["permuted", "free", "short", "long"]))
    if bent == "permuted":
        offsets = draw(st.permutations(offsets))
    elif bent == "free":
        offsets = [0] + draw(st.lists(st.integers(-2, 8), min_size=rows, max_size=rows))
    elif bent == "short":
        offsets = offsets[:-1]
    elif bent == "long":
        offsets = offsets + offsets[-1:]
    if draw(st.integers(0, 9)) == 0:
        indices = indices[:-1]
    int32, int64 = (functools.partial(np.array, dtype=t) for t in (np.int32, np.int64))
    kinds = st.sampled_from([list, int32, int64])
    return rows, cols, draw(kinds)(offsets), draw(kinds)(indices)


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


CHUNK = bevx.tensor_core._FINITE_CHUNK
# three whole scan chunks and a partial fourth
SPAN = 3 * CHUNK + 123
# a chunk's first and last element, each chunk boundary +-1, the array's last
SCAN_POSITIONS = sorted(
    {0, CHUNK - 1, SPAN - 1}
    | {b + k for b in (CHUNK, 2 * CHUNK, 3 * CHUNK) for k in (-1, 0, 1)}
)


class TestFiniteScan:
    """as_feature's chunked scan, `_all_finite`, against np.isfinite."""

    @pytest.fixture(scope="class")
    def span(self):
        return np.random.default_rng(7).standard_normal(SPAN, dtype=np.float32)

    def test_clean_span_passes(self, span):
        out = as_feature(span)
        assert out is span  # a C-order float32 input is not copied

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("at", SCAN_POSITIONS)
    def test_non_finite_anywhere_is_found(self, span, bad, at):
        x = span.copy()
        x[at] = bad
        assert not _all_finite(x)
        with pytest.raises(ValidationError, match="^x contains non-finite values$"):
            as_feature(x.reshape(1, -1), "x")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_squares_that_overflow_fall_back_to_the_exact_test(self, bad):
        """A chunk of finite values whose dot with itself overflows is
        settled by max and min: finite, so the scan goes on to the next."""
        x = np.full(2 * CHUNK + 5, 1e30, np.float32)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(x[:CHUNK], x[:CHUNK]))
        assert _all_finite(x)
        x[CHUNK + 3] = bad
        assert not _all_finite(x)

    def test_float32_extremes_pass(self, span):
        x = span.copy()
        big = np.finfo(np.float32).max
        x[[0, CHUNK, SPAN - 1]] = big
        x[[1, CHUNK - 1, 2 * CHUNK]] = -big
        assert as_feature(x) is x
        assert as_feature([3.4e38, -3.4e38]).tolist() == np.float32([3.4e38, -3.4e38]).tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
            elements=st.floats(width=32),
        )
    )
    def test_raises_iff_not_all_finite(self, x):
        # a 3-value chunk puts chunk boundaries inside these small arrays
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bevx.tensor_core, "_FINITE_CHUNK", 3)
            try:
                as_feature(x)
            except ValidationError:
                assert not np.isfinite(x).all()
            else:
                assert np.isfinite(x).all()


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

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, np.float64])
    def test_index_arrays_are_int32_below_2_31(self, dtype):
        offsets, indices = np.array([0, 2, 3], dtype), np.array([0, 2, 1], dtype)
        m = SparseBinaryMatrix(2, 3, offsets, indices)
        assert m.row_offsets.dtype == m.col_indices.dtype == np.int32
        assert m.row_offsets.tolist() == [0, 2, 3] and m.col_indices.tolist() == [0, 2, 1]
        # a writeable input is copied, so the caller's array stays writeable
        assert not np.shares_memory(m.col_indices, indices)
        assert offsets.flags.writeable and indices.flags.writeable
        assert not m.row_offsets.flags.writeable and not m.col_indices.flags.writeable
        # a read-only input is copied too: only a view of bytes is kept as it is
        indices.setflags(write=False)
        kept = SparseBinaryMatrix(2, 3, offsets, indices)
        assert not np.shares_memory(kept.col_indices, indices)

    @pytest.mark.parametrize("cols, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
    def test_index_dtype_widens_at_2_31_columns(self, cols, dtype):
        for given in (np.int32, np.int64):
            m = SparseBinaryMatrix(1, cols, np.array([0, 1], given), np.array([5], given))
            assert m.row_offsets.dtype == m.col_indices.dtype == dtype
        m = _from_pairs(1, cols, np.array([0]), np.array([cols - 1]))
        assert m.row_offsets.dtype == m.col_indices.dtype == dtype
        assert m.col_indices.tolist() == [cols - 1] and entry_keys(m).tolist() == [cols - 1]

    @pytest.mark.parametrize(
        "rows, cols", [(0, 0), (0, 5), (5, 0), (0, 2**31), (0, 2**40), (3, 2**40)]
    )
    def test_scipy_handle_wraps_its_arrays_for_every_shape(self, rows, cols):
        """Also with a zero extent, where scipy narrows int64 arrays to int32
        copies by their contents: the handle holds the matrix's own arrays,
        and its product and sum run past 2**31 columns."""
        m = SparseBinaryMatrix(rows, cols, np.zeros(rows + 1, np.int64), [])
        handle = m._scipy
        assert handle.indptr is m.row_offsets and handle.indices is m.col_indices
        assert m.row_offsets.dtype == _index_dtype(rows, cols, 0)
        assert (handle @ np.zeros((cols, 0), np.float32)).shape == (rows, 0)
        assert (handle + 2 * handle).nnz == 0

    def test_int32_offsets_are_compared_not_differenced(self):
        # in int32 these offsets differ by 2**31 - 1, 1 (it wraps), 2**31 - 1
        # and 1, all positive, yet they decrease
        offsets = np.array([0, 2**31 - 1, -(2**31), -1, 0], np.int32)
        with pytest.raises(ValidationError, match="non-decreasing"):
            SparseBinaryMatrix(4, 3, offsets, np.array([], np.int32))

    def test_row_boundary_decrease_is_legal(self):
        m = SparseBinaryMatrix(2, 3, [0, 2, 3], [1, 2, 0])
        assert densify(m).tolist() == [[0, 1, 1], [1, 0, 0]]

    @settings(max_examples=200, deadline=None)
    @given(coo_problems())
    @example((1, 1, []))
    @example((1, 1, [(0, 0), (0, 0)]))
    @example((3, 1, [(2, 0), (0, 0), (2, 0)]))
    @example((3, 2**62, []))
    @example((3, 2**62, [(1, 0), (2, 5)]))  # rows * cols is past int64
    @example((3, 2**62, [(2, 2**62 - 1), (1, 0), (2, 5), (1, 0)]))
    def test_from_coo_matches_sorted_pair_set(self, problem):
        rows, cols, pairs = problem
        r = np.array([p[0] for p in pairs], dtype=np.int64)
        c = np.array([p[1] for p in pairs], dtype=np.int64)
        m = SparseBinaryMatrix.from_coo(rows, cols, r, c)
        assert m == csr_from_pairs(pairs, (rows, cols))
        dtype = _index_dtype(rows, cols, m.nnz)
        assert m.row_offsets.dtype == m.col_indices.dtype == dtype
        if rows * cols < 2**63:
            keys = np.unique([row * cols + col for row, col in pairs]).astype(np.int64)
            np.testing.assert_array_equal(entry_keys(m), keys)

    def test_from_coo_holds_exactly_its_entries(self):
        # the duplicates that scipy merges leave no slack in the kept ids
        m = SparseBinaryMatrix.from_coo(3, 4, [2, 0, 2, 2, 0, 2], [1, 3, 1, 1, 3, 0])
        assert m.nnz == 3
        assert _held_bytes([m.row_offsets, m.col_indices]) == 4 * (3 + 1 + m.nnz)

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

    @settings(max_examples=500, deadline=None)
    @given(constructor_inputs())
    @example((0, 0, [0], []))
    @example((2, 3, np.array([0, 2, 3], np.int32), np.array([2, 2, 0], np.int32)))  # a repeat
    @example((2, 3, np.array([0, 2, 3], np.int64), np.array([1, 0, 2], np.int64)))  # unsorted
    @example((2, 3, [0, 3, 2], [0, 1, 2]))  # offsets decrease
    @example((2, 3, [0, 1, 2], [-1, 0]))  # a negative id
    @example((2, 3, [0, 1, 2], [0, 3]))  # an id past the end
    def test_builds_what_the_oracle_accepts_or_names_its_first_broken_rule(self, case):
        """Any other exception, scipy's included, fails the test."""
        rows, cols, offsets, indices = case
        broken = csr_rule_broken(rows, cols, offsets, indices)
        if broken is not None:
            with pytest.raises(ValidationError) as info:
                SparseBinaryMatrix(rows, cols, offsets, indices)
            assert str(info.value) == broken
            return
        m = SparseBinaryMatrix(rows, cols, offsets, indices)
        assert m.shape == (rows, cols) and m.nnz == len(indices)
        assert m.row_offsets.tolist() == [int(x) for x in offsets]
        assert m.col_indices.tolist() == [int(x) for x in indices]
        assert m.row_offsets.dtype == m.col_indices.dtype == np.int32

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

    def test_from_coo_refuses_ids_of_different_shapes(self):
        with pytest.raises(ShapeError, match=r"^from_coo: incompatible shapes \(2,\) and \(1,\)$"):
            SparseBinaryMatrix.from_coo(2, 2, [0, 1], [0])
        # the ids are raveled first: only their sizes must agree
        m = SparseBinaryMatrix.from_coo(2, 2, [[0, 1]], [1, 0])
        assert m == SparseBinaryMatrix(2, 2, [0, 1, 2], [1, 0])

    def test_compares_unequal_to_another_type(self):
        m = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        assert m.__eq__((2, 3)) is NotImplemented
        assert m != "m" and m != m.row_offsets.tolist()

    def test_hash_and_repr(self):
        a = SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 1])
        b = SparseBinaryMatrix(2, 3, np.array([0, 1, 2], np.int64), np.array([0, 1], np.int64))
        assert a == b and hash(a) == hash(b) == hash(((2, 3), 2))
        assert len({a, b, SparseBinaryMatrix(2, 3, [0, 1, 2], [0, 2])}) == 2
        assert repr(a) == "SparseBinaryMatrix(2x3, nnz=2)"
        wide = SparseBinaryMatrix(0, 2**40, [0], [])
        assert repr(wide) == "SparseBinaryMatrix(0x1099511627776, nnz=0)"

    def test_from_coo_range_checks(self):
        with pytest.raises(ValidationError):
            SparseBinaryMatrix.from_coo(2, 2, [2], [0])
        with pytest.raises(ValidationError):
            SparseBinaryMatrix.from_coo(2, 2, [0], [-1])
        # rows * cols is past int64: the matrix builds, with int64 arrays
        m = SparseBinaryMatrix.from_coo(3, 2**62, [1, 2], [0, 5])
        assert m.row_offsets.tolist() == [0, 0, 1, 2] and m.col_indices.tolist() == [0, 5]
        assert m.row_offsets.dtype == m.col_indices.dtype == np.int64
        m = SparseBinaryMatrix.from_coo(3, 2**61, [2, 2, 0], [5, 2**61 - 1, 0])
        assert m.row_offsets.tolist() == [0, 1, 1, 3]
        assert m.col_indices.tolist() == [0, 5, 2**61 - 1]

    @pytest.mark.parametrize("shape", [(-1, 3), (3, -1)], ids=["rows", "cols"])
    def test_from_coo_rejects_negative_extents(self, shape):
        # with no pairs the sign is all there is to check; np.bincount would
        # otherwise reject a negative minlength with a raw ValueError
        with pytest.raises(ValidationError, match="non-negative"):
            SparseBinaryMatrix.from_coo(*shape, [], [])


    def test_from_coo_offsets_larger_than_physical_memory_are_refused(self, memory_cap):
        # sized from the machine so that the int64 offsets cannot fit; the
        # refusal comes before any array of that size exists
        rows = memory_cap // 16 + 1
        with pytest.raises(ValidationError, match="exceed physical memory"):
            SparseBinaryMatrix.from_coo(rows, 1, [], [])
        with pytest.raises(ValidationError, match="exceed physical memory"):
            SparseBinaryMatrix.from_coo(rows, 1, [rows - 1], [0])

    def test_offsets_past_the_address_space_limit_are_refused(self):
        # a child process caps its own address space (RLIMIT_AS) at what it
        # maps plus 512 MiB, below physical memory: the memory bound is the
        # smaller of the two, so offsets just past the cap are a typed
        # refusal before the allocation that would die in MemoryError
        resource = pytest.importorskip("resource")
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs /proc/self/statm to size the cap")
        if resource.getrlimit(resource.RLIMIT_AS)[1] != resource.RLIM_INFINITY:
            pytest.skip("the hard address-space limit is finite")
        child = textwrap.dedent(
            """
            import os, resource
            from bevx import SparseBinaryMatrix, ValidationError
            from bevx.geometry import _require_memory

            page = os.sysconf("SC_PAGE_SIZE")
            with open("/proc/self/statm") as f:
                cap = int(f.read().split()[0]) * page + 2**29
            physical = page * os.sysconf("SC_PHYS_PAGES")
            assert cap < physical, (cap, physical)
            resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))
            _require_memory(cap, "the cap", ValidationError)
            try:
                _require_memory(cap + 1, "the cap + 1 bytes", ValidationError)
            except ValidationError as exc:
                want = "the cap + 1 bytes exceed physical memory or the address-space limit"
                assert str(exc) == want, exc
            else:
                raise AssertionError("the cap + 1 bytes were not refused")
            rows = cap // 16 + 1
            try:
                SparseBinaryMatrix.from_coo(rows, 1, [rows - 1], [0])
            except ValidationError as exc:
                assert "address-space limit" in str(exc), exc
            else:
                raise AssertionError("offsets past the cap were allocated")
            print("refused")
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "refused\n"

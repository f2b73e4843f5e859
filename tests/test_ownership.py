"""One ownership rule for every array a type keeps (`geometry._owned`).

Each row of the table builds an object from a caller's array, in each of
four forms. The object changes no flag of the caller's arrays; a write to
the caller's array, to the writeable base under a read-only view of it, to
a read-only array whose owner turns writes back on, or through a view taken
before the array was frozen, changes nothing the object holds; and every
array the object keeps is read-only. Only a view of `bytes`, which numpy
never lets anyone write, is kept with no copy."""
import tracemalloc

import numpy as np
import pytest

from bevx import (
    Camera,
    FrustumGeometry,
    GeometryError,
    PrimeAttention,
    RefineMap,
    RingRayPair,
    SparseBinaryMatrix,
    ValidationError,
    prime_depth,
)
CAMERA = {
    "intrinsics": np.array([[10.0, 0.0, 2.0], [0.0, 10.0, 2.0], [0.0, 0.0, 1.0]]),
    "rotation": np.eye(3),
    "translation": np.zeros(3),
}
BIG = 2**31  # columns from which a matrix stores int64


def camera_row(name):
    return CAMERA[name], lambda a: Camera(**dict(CAMERA, **{name: a}))


def matrix_row(which, dtype):
    cols = 3 if dtype is np.int32 else BIG
    arrays = {
        "row_offsets": np.array([0, 2, 2], dtype),
        "col_indices": np.array([0, 2], dtype),
    }

    def make(a):
        return SparseBinaryMatrix(2, cols, **dict(arrays, **{which: a}))

    return arrays[which], make


def uniform_weights(n_c, h_i, w_i):
    return np.full((n_c, h_i, w_i), 1.0 / h_i, np.float32)


REFINE = {"matrix": np.eye(2, dtype=np.float32), "bias": np.zeros(2, np.float32)}


def refine_row(name):
    return REFINE[name], lambda a: RefineMap(**dict(REFINE, **{name: a}))


ROWS = {
    "camera-intrinsics": camera_row("intrinsics"),
    "camera-rotation": camera_row("rotation"),
    "camera-translation": camera_row("translation"),
    "frustum": (np.zeros((1, 2, 3, 3)), FrustumGeometry),
    "matrix-row_offsets-int32": matrix_row("row_offsets", np.int32),
    "matrix-col_indices-int32": matrix_row("col_indices", np.int32),
    "matrix-row_offsets-int64": matrix_row("row_offsets", np.int64),
    "matrix-col_indices-int64": matrix_row("col_indices", np.int64),
    "attention": (uniform_weights(2, 4, 3), PrimeAttention),
    "refine-matrix": refine_row("matrix"),
    "refine-bias": refine_row("bias"),
}


def kept_arrays(obj):
    """Every array the object keeps."""
    if isinstance(obj, SparseBinaryMatrix):
        return [obj.row_offsets, obj.col_indices]
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]


def writeable_form(value):
    """(caller's array, the array a caller writes into): the same array."""
    a = value.copy()
    return a, a


def read_only_view_form(value):
    """(a read-only view, its writeable base)."""
    base = value.copy()
    view = base.view()
    view.setflags(write=False)
    return view, base


def writes_turned_back_on_form(value):
    """(a read-only array that owns its data, the same array): its owner
    may turn writes back on."""
    a = value.copy()
    a.setflags(write=False)
    return a, a


def earlier_view_form(value):
    """(a read-only array, a writeable view taken before it was frozen)."""
    a = value.copy()
    early = a.view()
    a.setflags(write=False)
    return a, early


FORMS = {
    "writeable": writeable_form,
    "read-only-view": read_only_view_form,
    "writes-turned-back-on": writes_turned_back_on_form,
    "earlier-writeable-view": earlier_view_form,
}


@pytest.mark.parametrize("form", FORMS.values(), ids=FORMS.keys())
@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_kept_array_is_the_objects_own(row, form):
    value, make = ROWS[row]
    given, written = form(value)
    flags = (given.flags.writeable, written.flags.writeable)
    obj = make(given)
    held = kept_arrays(obj)
    assert held and all(not a.flags.writeable for a in held)
    before = [a.copy() for a in held]
    assert (given.flags.writeable, written.flags.writeable) == flags
    if not written.flags.writeable:
        written.setflags(write=True)  # the owner turns writes back on
    written += 1
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(held, before))


@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_bytes_view_is_kept_a_read_only_array_copied(row):
    value, make = ROWS[row]
    view = np.frombuffer(value.tobytes(), value.dtype).reshape(value.shape)
    assert any(np.shares_memory(held, view) for held in kept_arrays(make(view)))
    a = value.copy()
    a.setflags(write=False)
    assert not any(np.shares_memory(held, a) for held in kept_arrays(make(a)))


class NoBuffer:
    """An object numpy reads through `__array_interface__` alone: an array
    over it has an owner that exports no buffer."""

    def __init__(self, a):
        self.__array_interface__ = a.__array_interface__
        self.a = a


def test_an_array_over_an_owner_with_no_buffer_is_copied():
    points = np.zeros((1, 2, 3, 3))
    points.setflags(write=False)
    given = np.asarray(NoBuffer(points))
    fr = FrustumGeometry(given)
    assert not np.shares_memory(fr.points_xyz, points) and not fr.points_xyz.flags.writeable


def test_prime_depth_stays_on_the_simplex_after_the_callers_weights_change():
    n_c, h_i, w_i, n_d = 2, 4, 3, 5
    w = uniform_weights(n_c, h_i, w_i)
    attn = PrimeAttention(w)
    assert attn.weights is not w and w.flags.writeable
    w[:] = -7.0
    depth = np.full((n_c, h_i, w_i, n_d), 1.0 / n_d, np.float32)
    out = prime_depth(depth, attn)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
    np.testing.assert_allclose(out, 1.0 / n_d, atol=1e-6)


def test_prime_depth_stays_on_the_simplex_after_the_weights_turn_writeable():
    n_c, h_i, w_i, n_d = 2, 4, 3, 5
    w = uniform_weights(n_c, h_i, w_i)
    w.setflags(write=False)
    attn = PrimeAttention(w)
    w.setflags(write=True)
    w[:] = -7.0
    depth = np.full((n_c, h_i, w_i, n_d), 1.0 / n_d, np.float32)
    out = prime_depth(depth, attn)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
    np.testing.assert_allclose(out, 1.0 / n_d, atol=1e-6)


def test_a_float64_attention_is_converted_once():
    w = np.full((6, 32, 88), 1.0 / 32)
    tracemalloc.start()
    try:
        attn = PrimeAttention(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert attn.weights.dtype == np.float32
    assert peak < 1.5 * attn.weights.nbytes, (peak, attn.weights.nbytes)


class TestWholeIndexArrays:
    """Index arrays take whole numbers only, in the constructor and in
    from_coo; a float array only when every value is whole and below 2**53
    in magnitude."""

    @pytest.mark.parametrize(
        "offsets, indices, name",
        [
            ([0, 1.5, 2], [0, 1], "row_offsets"),
            ([0, 1, 2], [0.9, 1.2], "col_indices"),
            (["0", "1", "2"], [0, 1], "row_offsets"),
            ([0, 1, 2], [0, np.nan], "col_indices"),
            ([0, 1, 2], [0, np.inf], "col_indices"),
            ([0, 1, 2], [0, 2.0**53], "col_indices"),
            ([0, 1, 2], np.array([False, True]), "col_indices"),
            ([0, 1, 2], np.array([0, 1], complex), "col_indices"),
            (np.array([0, 1, 2], object), [0, 1], "row_offsets"),
            ([0, 1, 2], [[0], [1, 2]], "col_indices"),
            (None, [0, 1], "row_offsets"),
        ],
        ids=["half-offset", "fractional-cols", "str", "nan", "inf", "2**53",
             "bool", "complex", "object", "ragged", "none"],
    )
    def test_constructor_refuses_other_values(self, offsets, indices, name):
        with pytest.raises(ValidationError, match=name):
            SparseBinaryMatrix(2, 3, offsets, indices)

    @pytest.mark.parametrize(
        "row_ids, col_ids, name",
        [([0.5, 1.7], [0, 1], "row_ids"), ([0, 1], ["0", "1"], "col_ids"),
         ([0, 1], [np.nan, 1], "col_ids"), ([True, False], [0, 1], "row_ids")],
        ids=["fractional-rows", "str", "nan", "bool"],
    )
    def test_from_coo_refuses_other_values(self, row_ids, col_ids, name):
        with pytest.raises(ValidationError, match=name):
            SparseBinaryMatrix.from_coo(2, 3, row_ids, col_ids)

    @pytest.mark.parametrize(
        "offsets, indices, name",
        [([0, 2**63], [0], "row_offsets"), ([0, 1], [2**64 - 1], "col_indices")],
        ids=["offset-2**63", "col-2**64-1"],
    )
    def test_constructor_refuses_unsigned_values_int64_would_wrap(self, offsets, indices, name):
        offsets, indices = np.array(offsets, np.uint64), np.array(indices, np.uint64)
        with pytest.raises(ValidationError, match=rf"{name} must be below 2\*\*63"):
            SparseBinaryMatrix(1, 3, offsets, indices)

    @pytest.mark.parametrize(
        "row_ids, col_ids, name",
        [([2**63], [0], "row_ids"), ([0], [2**64 - 1], "col_ids")],
        ids=["row-2**63", "col-2**64-1"],
    )
    def test_from_coo_refuses_unsigned_values_int64_would_wrap(self, row_ids, col_ids, name):
        row_ids, col_ids = np.array(row_ids, np.uint64), np.array(col_ids, np.uint64)
        with pytest.raises(ValidationError, match=rf"{name} must be below 2\*\*63"):
            SparseBinaryMatrix.from_coo(1, 3, row_ids, col_ids)

    def test_unsigned_values_below_2_63_are_checked_as_ids(self):
        big = np.array([2**63 - 1], np.uint64)
        with pytest.raises(ValidationError, match="column index out of range"):
            SparseBinaryMatrix(1, 3, np.array([0, 1], np.uint64), big)
        with pytest.raises(ValidationError, match="row index out of range"):
            SparseBinaryMatrix.from_coo(1, 3, big, np.array([0], np.uint64))

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.int16, np.uint32, np.uint64, np.float32, np.float64]
    )
    def test_whole_values_of_any_real_dtype_are_taken(self, dtype):
        m = SparseBinaryMatrix(2, 3, np.array([0, 2, 3], dtype), np.array([0, 2, 1], dtype))
        assert m.row_offsets.tolist() == [0, 2, 3] and m.col_indices.tolist() == [0, 2, 1]
        coo = SparseBinaryMatrix.from_coo(2, 3, np.array([1, 0], dtype), np.array([2, 1], dtype))
        assert coo.row_offsets.tolist() == [0, 1, 2] and coo.col_indices.tolist() == [1, 2]

    def test_empty_lists_are_taken(self):
        assert SparseBinaryMatrix(0, 3, [0], []).nnz == 0
        assert SparseBinaryMatrix.from_coo(2, 3, [], []).nnz == 0


@pytest.mark.parametrize(
    "points, why",
    [(np.array([[[["1", "2", "3"]]]]), "dtype <U1"), (np.zeros((1, 1, 1, 3), bool), "dtype bool"),
     (np.zeros((1, 1, 1, 3), complex), "dtype complex128"),
     ([[[[0.0, 0.0, 0.0], [0.0]]]], "setting an array element with a sequence.*"),
     (None, "dtype object")],
    ids=["str", "bool", "complex", "ragged", "none"],
)
def test_frustum_takes_real_numbers_only(points, why):
    # `_real`'s wording, and bool refused too, as for a Camera
    want = rf"^points_xyz is not an array of real numbers \({why}\)$"
    with pytest.raises(GeometryError, match=want):
        FrustumGeometry(points)


def test_frustum_takes_integer_points_as_float64():
    fr = FrustumGeometry(np.ones((1, 2, 3, 3), np.int64))
    assert fr.points_xyz.dtype == np.float64 and fr.points_xyz.sum() == 18.0


class TestRingRayPairFactors:
    RAY = SparseBinaryMatrix(1, 1, [0, 1], [0])
    RING = SparseBinaryMatrix(1, 2, [0, 1], [1])

    @pytest.mark.parametrize("bad", ["x", np.eye(2), None], ids=["str", "ndarray", "none"])
    def test_a_factor_that_is_not_a_matrix_is_refused(self, bad):
        with pytest.raises(ValidationError, match="ring must be a SparseBinaryMatrix"):
            RingRayPair(bad, self.RAY)
        with pytest.raises(ValidationError, match="ray must be a SparseBinaryMatrix"):
            RingRayPair(self.RING, bad)

    def test_matrices_are_taken(self):
        assert RingRayPair(self.RING, self.RAY).n_depths == 2

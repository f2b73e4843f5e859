import hashlib
import io
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from bevx import (
    BevGrid,
    Camera,
    CameraRig,
    ConfigError,
    DepthBins,
    FrustumGeometry,
    GeometryError,
    Scene,
    ShapeError,
    build_ftm,
    generate_frustum,
    load_scene,
    reference,
    scene_digest,
    scene_to_dict,
)
from bevx.bench import PRESETS, setting_scene
from oracles import (
    cell_rect,
    entry_keys,
    frustum_per_point,
    grid_edges,
    locate_scan,
    locate_scan_pure,
    project_to_pixel,
    random_scene,
    synthetic_scene_dict,
    x_max,
    y_max,
)
from test_public_surface import NOT_REAL


def simple_camera(f=10.0, cx=2.0, cy=2.0, rotation=None, translation=(0, 0, 0)):
    k = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
    r = np.eye(3) if rotation is None else rotation
    return Camera(k, r, np.asarray(translation, dtype=float))


def yaw(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestDepthBins:
    def test_default_rig_range(self):
        bins = DepthBins(2, 58, 112)
        assert bins.centers[0] == pytest.approx(2.25)
        assert np.diff(bins.centers) == pytest.approx(0.5)
        assert bins.centers[111] == pytest.approx(57.75)

    def test_single_bin_midpoint(self):
        assert DepthBins(0, 1, 1).centers.tolist() == [0.5]

    def test_errors(self):
        with pytest.raises(GeometryError):
            DepthBins(2, 58, 0)
        with pytest.raises(GeometryError):
            DepthBins(58, 2, 4)

    def test_equal_configs_compare_equal_and_hash(self):
        a, b = DepthBins(2, 58, 112), DepthBins(2.0, 58.0, 112.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != DepthBins(2, 58, 111)
        assert (a.d_min, a.count) == (2.0, 112) and type(a.count) is int


BAD_NUMBERS = [np.nan, np.inf, -np.inf, 0, -3]
BAD_IDS = ["nan", "inf", "-inf", "zero", "negative"]
VALID = {
    DepthBins: {"d_min": 2.0, "d_max": 58.0, "count": 8},
    BevGrid: {"extent": 4.0, "h_cells": 4, "w_cells": 4},
}


@pytest.mark.parametrize("bad", BAD_NUMBERS, ids=BAD_IDS)
@pytest.mark.parametrize(
    "cls, name",
    [(DepthBins, "d_min"), (DepthBins, "d_max"), (DepthBins, "count"),
     (BevGrid, "extent"), (BevGrid, "h_cells"), (BevGrid, "w_cells")],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_constructor_rejects_bad_numbers(cls, name, bad):
    """Non-finite numbers, non-positive extents and cell counts, and counts
    below 1 fail at construction. A zero or negative d_min below d_max is a
    valid range (bins may start at or behind the camera center)."""
    args = dict(VALID[cls], **{name: bad})
    if name == "d_min" and np.isfinite(bad):
        assert np.isfinite(cls(**args).centers).all()
        return
    with pytest.raises(GeometryError):
        cls(**args)


@pytest.mark.parametrize(
    "cls, name", [(DepthBins, "count"), (BevGrid, "h_cells"), (BevGrid, "w_cells")]
)
def test_counts_must_be_whole(cls, name):
    with pytest.raises(GeometryError, match="whole number"):
        cls(**dict(VALID[cls], **{name: 2.5}))


CAMERA_FIELDS = {"intrinsics": (0, 2), "rotation": (1, 0), "translation": (2,)}


def bad_camera_value(name, bad):
    """simple_camera's `name` array with one entry set to `bad`, or `bad`
    itself when it is not a number."""
    cam = simple_camera()
    if not isinstance(bad, float):
        return bad
    value = getattr(cam, name).copy()
    value[CAMERA_FIELDS[name]] = bad
    return value


@pytest.mark.parametrize(
    "bad",
    [np.nan, np.inf, -np.inf, np.zeros(4), "0 0 1", True, None,
     [1.0] * 8, [1.0] * 10, np.zeros((3, 4)).tolist(), [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]],
    ids=["nan", "inf", "-inf", "wrong-shape", "str", "bool", "none",
         "8-entries", "10-entries", "3x4", "ragged"],
)
@pytest.mark.parametrize("name", sorted(CAMERA_FIELDS))
def test_camera_rejects_bad_arrays(name, bad):
    """Every camera array must be finite numbers of its shape."""
    cam = simple_camera()
    args = dict(intrinsics=cam.intrinsics, rotation=cam.rotation, translation=cam.translation)
    args[name] = bad_camera_value(name, bad)
    with pytest.raises(GeometryError, match="finite numbers"):
        Camera(**args)


BAD_EXTENTS = {"fraction": 44.5, "str": "44", "bool": True, "zero": 0, "nan": np.nan}
BAD_RIG_FIELDS = [
    pytest.param(name, bad, None, id=f"{name}-{key}")
    for name in ("feature_width", "feature_height", "image_stride")
    for key, bad in BAD_EXTENTS.items()
] + [
    pytest.param("cameras", ("x",), r"cameras\[0\]", id="cameras-str"),
    pytest.param("cameras", (simple_camera(), None), r"cameras\[1\]", id="cameras-none"),
    pytest.param("cameras", 5, "sequence of Camera", id="cameras-int"),
    pytest.param("cameras", simple_camera(), "sequence of Camera", id="cameras-camera"),
]


@pytest.mark.parametrize("name,bad,match", BAD_RIG_FIELDS)
def test_rig_rejects_bad_extents(name, bad, match):
    """Extents must be whole numbers >= 1, and every camera a Camera."""
    args = dict(cameras=(simple_camera(),), feature_width=4, feature_height=4, image_stride=8)
    args[name] = bad
    with pytest.raises(GeometryError, match=match):
        CameraRig(**args)


class TestCamera:
    def test_valid(self):
        cam = simple_camera()
        assert cam.intrinsics[0, 0] == 10.0

    def test_stores_read_only_copies(self):
        k, r, t = np.diag([10.0, 10.0, 1.0]), np.eye(3), np.zeros(3)
        cam = Camera(k, r, t)
        assert k.flags.writeable and r.flags.writeable and t.flags.writeable
        assert not cam.translation.flags.writeable

    def test_compares_unequal_to_another_type(self):
        cam = simple_camera()
        assert cam.__eq__("camera") is NotImplemented
        assert cam != "camera" and cam != cam.rotation.tolist()

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(GeometryError, match="orthonormal"):
            simple_camera(rotation=np.eye(3) * 1.001)

    def test_rejects_bad_bottom_row(self):
        k = np.array([[10.0, 0, 2], [0, 10.0, 2], [0, 0.1, 1]])
        with pytest.raises(GeometryError, match="bottom row"):
            Camera(k, np.eye(3), np.zeros(3))

    def test_rejects_non_positive_focal(self):
        k = np.array([[-10.0, 0, 2], [0, 10.0, 2], [0, 0, 1]])
        with pytest.raises(GeometryError, match="focal"):
            Camera(k, np.eye(3), np.zeros(3))

    @pytest.mark.parametrize("focal", [-10.0, 0.0])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 1)])
    def test_rejects_non_positive_focal_entry(self, entry, focal):
        k = np.array([[10.0, 0, 2], [0, 10.0, 2], [0, 0, 1]])
        k[entry] = focal
        with pytest.raises(GeometryError, match="focal"):
            Camera(k, np.eye(3), np.zeros(3))

    def test_rejects_bad_shapes(self):
        with pytest.raises(GeometryError):
            Camera(np.eye(2), np.eye(3), np.zeros(3))

    def test_rig_validation(self):
        with pytest.raises(GeometryError, match="at least one"):
            CameraRig((), 4, 4, 8)
        with pytest.raises(GeometryError, match="positive"):
            CameraRig((simple_camera(),), 0, 4, 8)


CAMERA_VALUES = {  # whole numbers, so every dtype below holds them exactly
    "intrinsics": np.array([[500.0, 1.0, 352.0], [0.0, 499.0, 128.0], [0.0, 0.0, 1.0]]),
    "rotation": np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
    "translation": np.array([1.0, -2.0, 3.0]),
}


def read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


CAMERA_FORMS = {
    "list": lambda a: a.ravel().tolist(),
    "tuple": lambda a: tuple(a.ravel().tolist()),
    "nested-list": lambda a: a.tolist(),
    "c-float64": np.ascontiguousarray,
    "f-float64": np.asfortranarray,
    "float32": lambda a: a.astype(np.float32),
    "int64": lambda a: a.astype(np.int64),
    "read-only": read_only,
}


class TestCameraParsing:
    """Every form of a Camera field takes one path to the same stored array,
    and the checks on its Python floats keep numpy's tolerance rule
    |x - y| <= 1e-6 + 1e-5 * |y|."""

    @pytest.mark.parametrize("form", sorted(CAMERA_FORMS))
    @pytest.mark.parametrize("name", sorted(CAMERA_VALUES))
    def test_every_form_stores_the_same_bytes(self, name, form):
        value = CAMERA_FORMS[form](CAMERA_VALUES[name])
        cam = Camera(**dict(CAMERA_VALUES, **{name: value}))
        stored = getattr(cam, name)
        expected = np.asarray(value, np.float64).reshape(CAMERA_VALUES[name].shape)
        assert stored.dtype == np.float64 and stored.shape == expected.shape
        assert stored.tobytes() == expected.tobytes()
        assert not stored.flags.writeable and stored.flags.owndata and stored.flags.c_contiguous
        if isinstance(value, np.ndarray):
            assert stored is not value
            assert value.flags.writeable == (form != "read-only")

    @pytest.mark.parametrize(
        "row, ok",
        [((0.0, 5e-7, 1.0), True), ((0.0, 2e-6, 1.0), False),
         ((5e-7, 0.0, 1.0), True), ((-2e-6, 0.0, 1.0), False),
         ((0.0, 0.0, 1.0 + 1.0e-5), True), ((0.0, 0.0, 1.0 + 1.2e-5), False),
         ((0.0, 0.0, 1.0 - 1.0e-5), True), ((0.0, 0.0, 1.0 - 1.2e-5), False)],
    )
    def test_bottom_row_tolerance(self, row, ok):
        k = CAMERA_VALUES["intrinsics"].copy()
        k[2] = row
        if ok:
            Camera(k, np.eye(3), np.zeros(3))
        else:
            with pytest.raises(GeometryError, match="bottom row must be"):
                Camera(k, np.eye(3), np.zeros(3))

    @pytest.mark.parametrize("excess, ok", [(1.05e-5, True), (1.15e-5, False), (-1.05e-5, True), (-1.15e-5, False)])
    def test_gram_diagonal_tolerance(self, excess, ok):
        # R^T R = (1 + excess) I
        r = Rotation.from_euler("zyx", [30, 10, -5], degrees=True).as_matrix()
        r = r * np.sqrt(1.0 + excess)
        assert abs(np.diag(r.T @ r) - (1.0 + excess)).max() < 1e-12
        self._check_rotation(r, ok)

    @pytest.mark.parametrize("off, ok", [(0.9e-6, True), (1.1e-6, False), (-0.9e-6, True), (-1.1e-6, False)])
    @pytest.mark.parametrize("entry", [(0, 1), (0, 2), (1, 2)])
    def test_gram_off_diagonal_tolerance(self, entry, off, ok):
        # column m of R gains `off` times the unit vector of column n, so
        # (R^T R)[m, n] = off and the diagonal moves by off**2 only
        m, n = entry
        r = np.eye(3)
        r[n, m] = off
        gram = r.T @ r
        assert gram[m, n] == gram[n, m] == off
        self._check_rotation(r, ok)

    @pytest.mark.parametrize(
        "mirror",
        [
            np.diag([1.0, 1.0, -1.0]),
            np.eye(3)[[1, 0, 2]],  # a swap of two axes
            Rotation.from_euler("z", 35, degrees=True).as_matrix() @ np.diag([1.0, -1.0, 1.0]),
        ],
        ids=["diag", "permutation", "yawed"],
    )
    def test_reflection_is_refused(self, mirror):
        # R^T R = I holds for these as well; only the determinant is -1
        assert np.allclose(mirror.T @ mirror, np.eye(3)) and np.linalg.det(mirror) < 0
        with pytest.raises(GeometryError, match=r"^rotation is a reflection \(determinant -1\)$"):
            Camera(CAMERA_VALUES["intrinsics"], mirror, np.zeros(3))
        doc = synthetic_scene_dict(n_cameras=2)
        doc["cameras"][1]["rotation"] = mirror.ravel().tolist()
        with pytest.raises(ConfigError, match=r"cameras\[1\].*reflection"):
            load_scene(doc)

    def test_proper_rotations_are_accepted(self, rig_scene):
        rotations = [
            np.eye(3),
            CAMERA_VALUES["rotation"],
            Rotation.from_euler("zyx", [30, 10, -5], degrees=True).as_matrix(),
            np.eye(3)[[1, 2, 0]],  # a cyclic permutation
            *(cam.rotation for cam in rig_scene.rig.cameras),
        ]
        for r in rotations:
            Camera(CAMERA_VALUES["intrinsics"], r, np.zeros(3))

    @staticmethod
    def _check_rotation(r, ok):
        if ok:
            Camera(CAMERA_VALUES["intrinsics"], r, np.zeros(3))
        else:
            with pytest.raises(GeometryError, match="rotation is not orthonormal within 1e-6"):
                Camera(CAMERA_VALUES["intrinsics"], r, np.zeros(3))


def perturbed_docs(doc, rng, n):
    """`n` copies of a scene dict, each camera's mount height moved by up to
    0.2 m and its yaw turned by up to about 2 degrees. Only IEEE arithmetic
    on Python floats, no trig or BLAS call, so every platform makes the
    same bytes: the turn's cosine and sine come from t = tan(yaw / 2)."""
    docs = []
    for _ in range(n):
        new = json.loads(json.dumps(doc))
        for cam in new["cameras"]:
            cam["translation"][2] += rng.uniform(-0.2, 0.2)
            t = rng.uniform(-0.0175, 0.0175)
            c, s = (1.0 - t * t) / (1.0 + t * t), 2.0 * t / (1.0 + t * t)
            top, mid, bottom = (cam["rotation"][i:i + 3] for i in (0, 3, 6))
            cam["rotation"] = (
                [c * a - s * b for a, b in zip(top, mid)]
                + [s * a + c * b for a, b in zip(top, mid)]
                + bottom
            )
        docs.append(new)
    return docs


SCENE_DIGESTS_SHA256 = "260b16589d491943fd45b0b4d8ad498e909c09b1968be474310ddee379826014"


def test_scene_digests_are_pinned(rig_config_path, rig_scene):
    """One sha256 over the scene_digest of the bundled rig, S1-S6 and 100
    seeded rigs with perturbed height and yaw: parsing, the stored arrays
    and scene_to_dict keep every digest byte."""
    with open(rig_config_path, encoding="utf-8") as f:
        doc = json.load(f)
    scenes = [rig_scene] + [setting_scene(rig_scene, PRESETS[s]) for s in sorted(PRESETS)]
    scenes += [load_scene(d) for d in perturbed_docs(doc, random.Random(2301), 100)]
    h = hashlib.sha256()
    for scene in scenes:
        h.update(scene_digest(scene).encode())
    assert h.hexdigest() == SCENE_DIGESTS_SHA256


class TestGenerateFrustum:
    def test_frustum_copies_caller_points(self):
        p = np.zeros((1, 2, 3, 3))
        fr = FrustumGeometry(p)
        assert p.flags.writeable and not fr.points_xyz.flags.writeable
        p[...] = 1.0
        assert not fr.points_xyz.any()

    @pytest.mark.parametrize("shape", [(1, 2, 3, 2), (2, 3, 3), (1, 1, 2, 3, 3)])
    def test_frustum_refuses_points_that_are_not_4_d_with_3_coordinates(self, shape):
        with pytest.raises(ShapeError) as info:
            FrustumGeometry(np.zeros(shape))
        assert str(info.value) == f"points_xyz must be (N_c, W_I, N_d, 3), got {shape}"

    def test_frustum_keeps_an_owned_frozen_array(self, small_scene):
        # a caller's read-only array is copied: its owner may turn writes back on
        p = np.zeros((1, 2, 3, 3))
        p.setflags(write=False)
        assert not np.shares_memory(FrustumGeometry(p).points_xyz, p)
        fr = generate_frustum(small_scene.rig, small_scene.bins)
        assert fr.points_xyz.flags.owndata and not fr.points_xyz.flags.writeable

    def test_frustum_compares_and_hashes_by_identity(self, small_scene):
        fr = generate_frustum(small_scene.rig, small_scene.bins)
        twin = generate_frustum(small_scene.rig, small_scene.bins)
        assert fr.points_xyz.tobytes() == twin.points_xyz.tobytes()
        assert fr == fr and fr != twin
        assert len({fr}) == 1 and len({fr, twin}) == 2

    def test_landing_is_locate_many(self, small_scene):
        fr = generate_frustum(small_scene.rig, small_scene.bins)
        grid = small_scene.grid
        other = BevGrid(grid.extent / 2, grid.h_cells, grid.w_cells)
        for g in (grid, other):
            cells, inside = fr.landing(g)
            want_cells, want_inside = g.locate_many(fr.points.reshape(-1, 2))
            np.testing.assert_array_equal(cells, want_cells)
            np.testing.assert_array_equal(inside, want_inside)
            # nothing is kept: each call lands the samples afresh
            assert fr.landing(g)[0] is not cells
        assert set(vars(fr)) == {"points_xyz"}  # no per-grid state

    def test_landing_keys_are_sorted_once_per_grid(self, small_scene, monkeypatch):
        # build_ftm keeps the exact matrix of the last grid, whose entries
        # are the landing's (cell, sample) pairs, sorted by one CSR build
        fr = generate_frustum(small_scene.rig, small_scene.bins)
        grid = small_scene.grid
        other = BevGrid(grid.extent / 2, grid.h_cells, grid.w_cells)
        builds = []
        from_pairs = reference._from_pairs
        monkeypatch.setattr(
            reference, "_from_pairs", lambda *a: builds.append(a) or from_pairs(*a)
        )
        n_samples = fr.points_xyz.size // 3
        for g in (grid, other, grid):
            ftm = build_ftm(fr, g)
            cells, inside = fr.landing(g)
            np.testing.assert_array_equal(entry_keys(ftm), np.sort(cells * n_samples + inside))
            assert not ftm.row_offsets.flags.writeable
            assert not ftm.col_indices.flags.writeable
            assert build_ftm(fr, BevGrid(g.extent, g.h_cells, g.w_cells)) is ftm
        assert len(builds) == 3  # the frustum keeps the last grid's matrix only

    @pytest.mark.parametrize("setting", sorted(PRESETS))
    def test_matches_per_point_oracle_on_the_bundled_rig(self, setting, rig_scene):
        scene = setting_scene(rig_scene, PRESETS[setting])
        points = generate_frustum(scene.rig, scene.bins).points_xyz
        want = frustum_per_point(scene.rig, scene.bins)
        np.testing.assert_allclose(points, want, rtol=0, atol=1e-12)

    def test_principal_column_maps_to_forward_axis(self):
        # principal point at the column-0 center: u = 0.5 * stride = cx
        stride = 4
        cam = simple_camera(cx=0.5 * stride, cy=0.5 * stride)
        rig = CameraRig((cam,), 1, 1, stride)
        bins = DepthBins(1, 9, 4)
        pts = generate_frustum(rig, bins, 0).points_xyz[0, 0]
        np.testing.assert_allclose(pts[:, 0], bins.centers, atol=1e-12)
        np.testing.assert_allclose(pts[:, 1], 0.0, atol=1e-12)

    def test_yaw_90_maps_to_lateral_axis(self):
        stride = 4
        cam = simple_camera(
            cx=0.5 * stride, cy=0.5 * stride, rotation=yaw(np.pi / 2)
        )
        rig = CameraRig((cam,), 1, 1, stride)
        bins = DepthBins(1, 9, 4)
        pts = generate_frustum(rig, bins, 0).points_xyz[0, 0]
        np.testing.assert_allclose(pts[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(pts[:, 1], bins.centers, atol=1e-12)

    def test_default_reference_row_is_middle(self):
        rig = CameraRig((simple_camera(cx=8, cy=8),), 4, 5, 4)
        bins = DepthBins(1, 5, 3)
        default = generate_frustum(rig, bins)
        explicit = generate_frustum(rig, bins, 2)
        np.testing.assert_array_equal(default.points_xyz, explicit.points_xyz)

    def test_frustum_larger_than_physical_memory_is_refused(self, memory_cap):
        # sized from the machine: the points alone need more than there is
        rig = CameraRig((simple_camera(),), memory_cap // 24 + 1, 1, 4)
        with pytest.raises(GeometryError, match="exceed physical memory"):
            generate_frustum(rig, DepthBins(1, 5, 1))

    def test_reference_row_out_of_range(self):
        rig = CameraRig((simple_camera(),), 4, 4, 4)
        bins = DepthBins(1, 5, 3)
        with pytest.raises(GeometryError, match="reference_row"):
            generate_frustum(rig, bins, 4)

    @pytest.mark.parametrize("row", [2.5, True, "1"], ids=["float", "bool", "str"])
    def test_reference_row_must_be_whole(self, row):
        rig = CameraRig((simple_camera(),), 4, 4, 4)
        with pytest.raises(GeometryError, match="reference_row must be a whole number"):
            generate_frustum(rig, DepthBins(1, 5, 3), row)

    def test_singular_intrinsics(self):
        # positive focals but linearly dependent first two rows
        k = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(GeometryError, match="singular"):
            Camera(k, np.eye(3), np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_reprojection_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        stride = 8
        w_i, h_i, n_d = 6, 4, 5
        img_w, img_h = w_i * stride, h_i * stride
        k = np.array(
            [
                [rng.uniform(40, 200), 0.0, img_w / 2 + rng.uniform(-3, 3)],
                [0.0, rng.uniform(40, 200), img_h / 2 + rng.uniform(-3, 3)],
                [0.0, 0.0, 1.0],
            ]
        )
        r = Rotation.random(random_state=int(seed)).as_matrix()
        t = rng.uniform(-3, 3, size=3)
        cam = Camera(k, r, t)
        rig = CameraRig((cam,), w_i, h_i, stride)
        bins = DepthBins(rng.uniform(1, 3), rng.uniform(10, 40), n_d)
        row = int(rng.integers(0, h_i))
        fr = generate_frustum(rig, bins, row)
        pixels, forward = project_to_pixel(cam, fr.points_xyz[0])
        u = (np.arange(w_i) + 0.5) * stride
        v = (row + 0.5) * stride
        assert np.abs(pixels[..., 0] - u[:, None]).max() < 1e-4
        assert np.abs(pixels[..., 1] - v).max() < 1e-4
        np.testing.assert_allclose(forward, np.broadcast_to(bins.centers, (w_i, n_d)), rtol=1e-9)

    def test_collinearity_per_column(self, rng):
        scene = random_scene(rng, n_cameras=3, w_i=6, h_i=4, n_d=12)
        fr = generate_frustum(scene.rig, scene.bins)
        pts = fr.points_xyz
        for n in range(3):
            for w in range(6):
                p = pts[n, w]
                d0 = p[-1] - p[0]
                d0 /= np.linalg.norm(d0)
                rel = p[1:] - p[0]
                cross = np.linalg.norm(np.cross(rel, d0), axis=-1)
                assert cross.max() < 1e-6

    def test_range_non_decreasing_for_origin_camera(self):
        cam = simple_camera(f=8.0, cx=6.0, cy=6.0)
        rig = CameraRig((cam,), 3, 3, 4)
        bins = DepthBins(1, 20, 10)
        fr = generate_frustum(rig, bins)
        norms = np.linalg.norm(fr.points, axis=-1)
        assert (np.diff(norms, axis=-1) >= -1e-12).all()


class TestBevGrid:
    def test_default_rig_cell_size(self):
        grid = BevGrid(51.2, 128, 128)
        assert grid.cell_size == pytest.approx(0.8)
        assert grid.n_cells == 128 * 128

    def test_tiny_grid_tiles_extent(self):
        grid = BevGrid(1, 2, 2)
        assert grid.cell_size == 1.0 and grid.n_cells == 4
        rects = [cell_rect(grid, i) for i in range(4)]
        assert rects[0] == (-1.0, -1.0, 0.0, 0.0)
        assert rects[3] == (0.0, 0.0, 1.0, 1.0)

    def test_origin_cell_on_even_grid(self):
        for cells in (2, 4, 128):
            grid = BevGrid(5.0, cells, cells)
            x0, y0, _, _ = cell_rect(grid, grid.locate_many([[0.0, 0.0]])[0][0])
            assert x0 == 0.0 and y0 == 0.0

    def test_non_square_grid_tiles_exactly(self):
        grid = BevGrid(8.0, 6, 4)
        assert grid.cell_size == pytest.approx(4.0)
        assert x_max(grid) - grid.x_min == pytest.approx(grid.w_cells * grid.cell_size)
        assert y_max(grid) - grid.y_min == pytest.approx(grid.h_cells * grid.cell_size)

    def test_edges_larger_than_physical_memory_are_refused(self, memory_cap):
        with pytest.raises(GeometryError, match="exceed physical memory"):
            BevGrid(10.0, memory_cap // 8, 4)
        with pytest.raises(GeometryError, match="exceed physical memory"):
            DepthBins(1, 5, memory_cap // 8)

    def test_zero_cells_rejected(self):
        with pytest.raises(GeometryError):
            BevGrid(1.0, 0, 4)
        with pytest.raises(GeometryError):
            BevGrid(0.0, 4, 4)

    def test_locate_outside_is_absent(self):
        grid = BevGrid(2.0, 4, 4)
        # the right edge is exclusive
        cells, inside = grid.locate_many([[3.0, 0.0], [0.0, -2.5], [2.0, 0.0]])
        assert cells.tolist() == [] and inside.tolist() == []

    @pytest.mark.parametrize(
        "xy, shape",
        [([0.0, 0.0], (2,)), ([[0.0, 0.0, 0.0]], (1, 3)), (np.zeros((2, 2, 2)), (2, 2, 2))],
        ids=["1-d", "3-columns", "3-d"],
    )
    def test_locate_refuses_points_that_are_not_p_by_2(self, xy, shape):
        with pytest.raises(ShapeError) as info:
            BevGrid(2.0, 4, 4).locate_many(xy)
        assert str(info.value) == f"locate_many: expected (p, 2) points, got {shape}"

    @pytest.mark.parametrize("kind", sorted(NOT_REAL))
    def test_locate_refuses_points_that_are_not_real_numbers(self, kind):
        # a complex point loses no imaginary part, and a string or ragged
        # list is a typed error, not a bare ValueError
        with pytest.raises(GeometryError, match=r"^xy is not an array of real numbers \("):
            BevGrid(2.0, 4, 4).locate_many(NOT_REAL[kind]((3, 2)))

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_locate_takes_bool_and_int_points_as_their_float_copies(self, dtype):
        grid = BevGrid(2.0, 4, 4)
        xy = np.array([[0, 1], [1, 0], [-2, 1], [1, 2], [0, 0], [-3, 5]]).astype(dtype)
        got, want = grid.locate_many(xy), grid.locate_many(xy.astype(np.float64))
        assert all(np.array_equal(g, w) for g, w in zip(got, want)) and want[1].size

    def test_locate_boundary_goes_to_positive_side(self):
        grid = BevGrid(2.0, 4, 4)
        (s,), _ = grid.locate_many([[0.0, -1.0]])
        x0, y0, _, _ = cell_rect(grid, s)
        assert x0 == 0.0 and y0 == -1.0

    @staticmethod
    def edge_probes(edges):
        """Every edge, the doubles just below and above it, NaN and +-inf."""
        return np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
             [np.nan, np.inf, -np.inf]]
        )

    # 51.3 * 2 / 127 is not a double, so edges and guesses both round
    LOCATE_GRIDS = [(3.5, 7, 5), (51.3, 131, 127)]

    def test_locate_matches_scan_oracle(self, rng):
        for shape in self.LOCATE_GRIDS:
            grid = BevGrid(*shape)
            xe, ye = grid_edges(grid)
            px, py = self.edge_probes(xe), self.edge_probes(ye)
            reach = 1.5 * max(-grid.x_min, -grid.y_min)
            pts = np.concatenate([
                rng.uniform(-reach, reach, size=(10_000, 2)),
                np.stack([px, rng.uniform(grid.y_min, y_max(grid), px.size)], axis=1),
                np.stack([rng.uniform(grid.x_min, x_max(grid), py.size), py], axis=1),
                np.stack([rng.permutation(px)[: py.size // 2], py[: py.size // 2]], axis=1),
            ])
            cells, inside = grid.locate_many(pts)
            got = dict(zip(inside.tolist(), cells.tolist()))
            for i, (x, y) in enumerate(pts):
                assert got.get(i) == locate_scan(grid, x, y), (shape, x, y)

    @pytest.mark.parametrize("shape", LOCATE_GRIDS)
    def test_locate_equals_binary_search(self, shape):
        # every pairing of the edge probes against searchsorted over the edges
        grid = BevGrid(*shape)
        xe, ye = grid_edges(grid)
        x, y = (a.ravel() for a in np.meshgrid(self.edge_probes(xe), self.edge_probes(ye)))
        ix = np.searchsorted(xe, x, side="right") - 1
        iy = np.searchsorted(ye, y, side="right") - 1
        ok = (ix >= 0) & (ix < grid.w_cells) & (iy >= 0) & (iy < grid.h_cells)
        cells, inside = grid.locate_many(np.stack([x, y], axis=1))
        np.testing.assert_array_equal(inside, np.flatnonzero(ok))
        np.testing.assert_array_equal(cells, (iy * grid.w_cells + ix)[ok])

    def test_scan_oracle_matches_pure_python(self, rng):
        grid = BevGrid(2.0, 3, 4)
        for x, y in rng.uniform(-3, 3, size=(200, 2)):
            assert locate_scan(grid, x, y) == locate_scan_pure(grid, x, y)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_partition_property(self, x, y):
        grid = BevGrid(6.0, 5, 8)
        inside = grid.x_min <= x < x_max(grid) and grid.y_min <= y < y_max(grid)
        cells, found = grid.locate_many([[x, y]])
        assert found.tolist() == ([0] if inside else [])
        if inside:
            x0, y0, x1, y1 = cell_rect(grid, cells[0])
            assert x0 <= x < x1 and y0 <= y < y1

    def test_cell_rect_bad_index(self):
        grid = BevGrid(1.0, 2, 2)
        with pytest.raises(IndexError):
            cell_rect(grid, 4)


class TestSceneConfig:
    def test_round_trip(self, small_scene):
        doc = scene_to_dict(small_scene)
        again = load_scene(doc)
        assert scene_to_dict(again) == doc
        assert scene_digest(again) == scene_digest(small_scene)

    def test_load_from_file_object(self, tmp_path):
        doc = synthetic_scene_dict(n_cameras=1, feature_width=4, feature_height=2)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        assert load_scene(path).rig.n_cameras == 1
        assert load_scene(str(path)) == load_scene(doc)

    @pytest.mark.parametrize(
        "source", [0, 2.5, None, b"scene.json", io.StringIO("{}")],
        ids=["fd-0", "float", "none", "bytes", "file-object"],
    )
    def test_rejects_non_path_source(self, source):
        with pytest.raises(ConfigError, match="must be a path or a dict"):
            load_scene(source)

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"cameras": [')
        with pytest.raises(ConfigError, match="truncated.json: not JSON"):
            load_scene(path)

    def test_digest_changes_with_content(self):
        a = load_scene(synthetic_scene_dict(n_cameras=2))
        b = load_scene(synthetic_scene_dict(n_cameras=3))
        assert scene_digest(a) != scene_digest(b)

    def test_whole_float_extents_digest_like_json(self, rig_scene):
        rig = rig_scene.rig
        built = CameraRig(
            rig.cameras, float(rig.feature_width), rig.feature_height, rig.image_stride
        )
        assert type(built.feature_width) is int
        again = Scene(built, rig_scene.bins, rig_scene.grid)
        assert scene_digest(again) == scene_digest(rig_scene)

    def test_scenes_compare_and_hash_by_value(self, rig_config_path):
        a, b = load_scene(rig_config_path), load_scene(rig_config_path)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        with open(rig_config_path, encoding="utf-8") as f:
            doc = json.load(f)
        doc["cameras"][3]["translation"][1] += 1e-3
        assert load_scene(doc) != a

    def test_missing_field(self):
        doc = synthetic_scene_dict(n_cameras=1)
        del doc["depth"]
        with pytest.raises(ConfigError, match="depth"):
            load_scene(doc)

    def test_bad_camera_wrapped(self):
        doc = synthetic_scene_dict(n_cameras=1)
        doc["cameras"][0]["rotation"] = [2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0]
        with pytest.raises(ConfigError, match=r"cameras\[0\]"):
            load_scene(doc)

    def test_cameras_must_be_nonempty(self):
        doc = synthetic_scene_dict(n_cameras=1)
        doc["cameras"] = []
        with pytest.raises(ConfigError):
            load_scene(doc)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            load_scene(path)

    def test_random_scenes_round_trip(self, rng):
        for _ in range(20):
            scene = random_scene(rng, grid_cells=int(rng.integers(1, 20)))
            again = load_scene(json.loads(json.dumps(scene_to_dict(scene))))
            assert again.bins == scene.bins and again.grid == scene.grid
            np.testing.assert_array_equal(again.bins.centers, scene.bins.centers)
            assert (again.grid.x_min, again.grid.y_min, again.grid.cell_size) == (
                scene.grid.x_min, scene.grid.y_min, scene.grid.cell_size
            )
            assert scene_digest(again) == scene_digest(scene)

    def test_digest_sees_every_grid_and_bin_number(self, rig_scene):
        base = scene_digest(rig_scene)
        bins, grid = rig_scene.bins, rig_scene.grid
        variants = [
            (DepthBins(bins.d_min + 0.2, bins.d_max, bins.count), grid),
            (DepthBins(bins.d_min, bins.d_max + 0.2, bins.count), grid),
            (DepthBins(bins.d_min, bins.d_max, bins.count + 1), grid),
            (bins, BevGrid(grid.extent + grid.cell_size, grid.h_cells, grid.w_cells)),
            (bins, BevGrid(grid.extent, grid.h_cells + 3, grid.w_cells)),
            (bins, BevGrid(grid.extent, grid.h_cells, grid.w_cells + 3)),
        ]
        digests = {scene_digest(Scene(rig_scene.rig, b, g)) for b, g in variants}
        assert len(digests) == len(variants) and base not in digests

    def test_scene_fields(self, small_scene):
        assert isinstance(small_scene, Scene)
        assert small_scene.rig.feature_width == 8
        assert small_scene.bins.count == 16
        assert small_scene.grid.h_cells == 24

import io
import json

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
    generate_frustum,
    load_scene,
    scene_digest,
    scene_to_dict,
)
from oracles import (
    cell_rect,
    grid_edges,
    locate_scan,
    locate_scan_pure,
    project_to_pixel,
    random_scene,
    synthetic_scene_dict,
    x_max,
    y_max,
)


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
    "bad", [np.nan, np.inf, -np.inf, np.zeros(4), "0 0 1"],
    ids=["nan", "inf", "-inf", "wrong-shape", "str"],
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

    def test_rejects_bad_shapes(self):
        with pytest.raises(GeometryError):
            Camera(np.eye(2), np.eye(3), np.zeros(3))

    def test_rig_validation(self):
        with pytest.raises(GeometryError, match="at least one"):
            CameraRig((), 4, 4, 8)
        with pytest.raises(GeometryError, match="positive"):
            CameraRig((simple_camera(),), 0, 4, 8)


class TestGenerateFrustum:
    def test_frustum_copies_caller_points(self):
        p = np.zeros((1, 2, 3, 3))
        fr = FrustumGeometry(p)
        assert p.flags.writeable and not fr.points_xyz.flags.writeable
        p[...] = 1.0
        assert not fr.points_xyz.any()

    def test_frustum_keeps_an_owned_frozen_array(self, small_scene):
        p = np.zeros((1, 2, 3, 3))
        p.setflags(write=False)
        assert FrustumGeometry(p).points_xyz is p
        fr = generate_frustum(small_scene.rig, small_scene.bins)
        assert fr.points_xyz.flags.owndata and not fr.points_xyz.flags.writeable

    def test_landing_is_locate_many_kept_for_the_last_grid(self, small_scene):
        fr = generate_frustum(small_scene.rig, small_scene.bins)
        grid = small_scene.grid
        other = BevGrid(grid.extent / 2, grid.h_cells, grid.w_cells)
        for g in (grid, other):
            cells, inside = fr.landing(g)
            want_cells, want_inside = g.locate_many(fr.points.reshape(-1, 2))
            np.testing.assert_array_equal(cells, want_cells)
            np.testing.assert_array_equal(inside, want_inside)
            assert not cells.flags.writeable and not inside.flags.writeable
            same = BevGrid(g.extent, g.h_cells, g.w_cells)
            assert fr.landing(same)[0] is cells
        assert fr.landing(grid)[0] is not cells

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

"""Pinhole camera rigs, depth-bin discretization, frustum rays, and BEV grids.

A Scene is its config: DepthBins and BevGrid hold only the numbers of the
config's `depth` and `bev` blocks and derive the rest, so scene_to_dict
inverts load_scene and scene_digest covers every field. Each type checks
and normalises its own numbers (`_numbers` for floats, `_whole` for every
count of the package), so a Scene built in code and one loaded from JSON
compare, hash and digest alike.

Conventions:
  * Intrinsics K act in the optical frame: +x right, +y down, +z forward
    (the optical axis). Pixel (u, v) back-projects along K^-1 (u, v, 1).
  * Extrinsic rotations map the camera *body* frame (+x forward, +y left,
    +z up) into the ego frame, so a camera with identity rotation looks
    down ego +x. The fixed optical-to-body permutation is applied
    internally.
  * Depth bins measure the planar (forward-axis) depth of a point, not its
    Euclidean range.
  * BEV cells are half-open rectangles [x0, x1) x [y0, y1); the flattened
    cell index is row-major with y selecting the row: h_b * w_cells + w_b.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GeometryError, ShapeError

__all__ = [
    "Camera",
    "CameraRig",
    "DepthBins",
    "BevGrid",
    "FrustumGeometry",
    "Scene",
    "generate_frustum",
    "load_scene",
    "scene_to_dict",
    "scene_digest",
]

# optical (right, down, forward) -> body (forward, left, up)
_OPT_TO_BODY = np.array(
    [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
)

_ORTHO_TOL = 1e-6


def _near(a, b):
    """np.allclose(a, b, atol=_ORTHO_TOL) for a finite b, without its overhead."""
    return bool((np.abs(a - b) <= _ORTHO_TOL + 1e-5 * np.abs(b)).all())


def _readonly(a):
    """`a` as a read-only float64 C-order array. An array that already is
    one and owns its data is returned as it is; anything else is copied, so
    the caller's array stays writable."""
    if (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.flags.c_contiguous
        and a.flags.owndata
        and not a.flags.writeable
    ):
        return a
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


def _numbers(value, what, shape=()):
    """`value` as read-only finite float64 values of `shape`, or as a float
    when `shape == ()`; anything else, including a str or bool, raises
    GeometryError naming `what`."""
    try:
        raw = np.asarray(value)
        arr = raw.astype(np.float64).reshape(shape)
        flat = arr.ravel().tolist()  # python floats: cheaper than ufuncs here
        ok = raw.dtype.kind in "iuf" and all(map(math.isfinite, flat))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        kind = f"{shape} finite numbers" if shape else "a finite number"
        raise GeometryError(f"{what} must be {kind}, got {value!r}")
    if shape:
        arr.setflags(write=False)
        return arr
    return flat[0]


def _whole(value, what, least, error=GeometryError):
    """`value`, an extent, count or seed, as an int in [least, 2**63), or
    `error` naming `what`. An integer (int, numpy integer or 0-d integer
    array) is taken exactly; a float only when it is whole and below 2**53
    in magnitude, past which floats skip integers. bool, str, None,
    non-finite values and sequences, even one-element ones, are rejected."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]  # the numpy scalar
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        n = int(value)
    elif isinstance(value, (float, np.floating)) and abs(value) < 2**53 and value % 1 == 0:
        n = int(value)
    else:
        raise error(f"{what} must be a whole number (a float only below 2**53), got {value!r}")
    if n < least:
        bound = {0: "non-negative", 1: "positive"}.get(least, f">= {least}")
        raise error(f"{what} must be {bound}, got {n}")
    if n >= 2**63:
        raise error(f"{what} must be below 2**63, got {n}")
    return n


def _fits_in_memory(nbytes):
    """Whether `nbytes` (an int, or a float64 where an int could be huge)
    fits in this host's physical memory, a measurement and not a setting.
    A build that would not fit is refused with its module's typed error
    before anything is allocated, and does not die in a MemoryError."""
    return nbytes <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _freeze(obj, **values):
    """Set attributes of a frozen dataclass from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class Camera:
    """One pinhole camera: intrinsics plus body-to-ego pose.

    Each array is stored as read-only float64 and must be finite. Cameras
    compare and hash by the bytes of their three arrays, so equal configs
    give equal cameras, rigs and scenes.

    Args:
        intrinsics: 3x3 pixel matrix (or its 9 entries row-major); bottom
            row must be (0, 0, 1), the focal entries positive, and the
            matrix non-singular.
        rotation: 3x3 orthonormal matrix, camera body frame -> ego frame.
        translation: camera center in the ego frame, meters.
    """

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        k = _numbers(self.intrinsics, "intrinsics", (3, 3))
        r = _numbers(self.rotation, "rotation", (3, 3))
        t = _numbers(self.translation, "translation", (3,))
        if not _near(k[2], np.array([0.0, 0.0, 1.0])):
            raise GeometryError(f"intrinsics bottom row must be (0,0,1), got {k[2]}")
        if k[0, 0] <= 0 or k[1, 1] <= 0:
            raise GeometryError("intrinsics focal entries must be positive")
        # cofactor determinant in python floats: np.linalg.det costs ~5 us,
        # a sixth of a Camera, and load_scene builds every camera of a fleet
        (a, b, c), (d, e, f), (g, h, i) = k.tolist()
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) < 1e-12:
            raise GeometryError("intrinsics are singular")
        if not _near(r.T @ r, np.eye(3)):
            raise GeometryError("rotation is not orthonormal within 1e-6")
        _freeze(self, intrinsics=k, rotation=r, translation=t)

    def _bytes(self):
        return self.intrinsics.tobytes() + self.rotation.tobytes() + self.translation.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Camera):
            return NotImplemented
        return self._bytes() == other._bytes()

    def __hash__(self):
        return hash(self._bytes())


@dataclass(frozen=True)
class CameraRig:
    """All cameras of one scene plus the shared feature-grid metadata."""

    cameras: tuple
    feature_width: int
    feature_height: int
    image_stride: int

    def __post_init__(self):
        try:
            cameras = tuple(self.cameras)
        except TypeError:
            raise GeometryError(
                f"cameras must be a sequence of Camera, got {self.cameras!r}"
            ) from None
        if not cameras:
            raise GeometryError("rig needs at least one camera")
        for i, cam in enumerate(cameras):
            if not isinstance(cam, Camera):
                raise GeometryError(f"cameras[{i}] must be a Camera, got {cam!r}")
        extents = {
            name: _whole(getattr(self, name), name, 1)
            for name in ("feature_width", "feature_height", "image_stride")
        }
        _freeze(self, cameras=cameras, **extents)

    @property
    def n_cameras(self):
        return len(self.cameras)


@dataclass(frozen=True)
class DepthBins:
    """`count` uniform depth bins over [d_min, d_max], in meters: the
    config's `depth` block. Bin i is centered at d_min + (i + 0.5) * step,
    step = (d_max - d_min) / count; `centers` is derived, not a field."""

    d_min: float
    d_max: float
    count: int
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d_min, d_max = _numbers(self.d_min, "d_min"), _numbers(self.d_max, "d_max")
        count = _whole(self.count, "bin count", 1)
        if not d_min < d_max:
            raise GeometryError(f"need d_min < d_max, got [{d_min}, {d_max}]")
        # the centers and their temporaries: a few float64 values per bin
        if not _fits_in_memory(32 * count):
            raise GeometryError(f"{count} depth bins exceed physical memory")
        step = (d_max - d_min) / count
        centers = _readonly(d_min + (np.arange(count) + 0.5) * step)
        _freeze(self, d_min=d_min, d_max=d_max, count=count, centers=centers)


@dataclass(frozen=True)
class BevGrid:
    """Square half-open cells around the ego origin: the config's `bev` block.

    `extent` is the half-width in meters along x, so cell_size = 2 * extent /
    w_cells; the y span is h_cells cells centered on the origin ([-extent,
    extent) when h_cells == w_cells). cell_size, x_min and y_min are derived.
    """

    extent: float
    h_cells: int
    w_cells: int
    cell_size: float = field(init=False, repr=False, compare=False)
    x_min: float = field(init=False, repr=False, compare=False)
    y_min: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        extent = _numbers(self.extent, "extent")
        h_cells = _whole(self.h_cells, "h_cells", 1)
        w_cells = _whole(self.w_cells, "w_cells", 1)
        if not extent > 0:
            raise GeometryError(f"extent must be positive, got {extent}")
        # the edges and their temporaries: a few float64 values per edge
        if not _fits_in_memory(32 * (max(h_cells, w_cells) + 1)):
            raise GeometryError(f"{h_cells} x {w_cells} cell edges exceed physical memory")
        cell_size = 2.0 * extent / w_cells
        x_min, y_min = -extent, -(cell_size * h_cells / 2.0)
        x_edges = _readonly(x_min + np.arange(w_cells + 1) * cell_size)
        y_edges = _readonly(y_min + np.arange(h_cells + 1) * cell_size)
        _freeze(self, extent=extent, h_cells=h_cells, w_cells=w_cells)
        _freeze(self, cell_size=cell_size, x_min=x_min, y_min=y_min)
        _freeze(self, _x_edges=x_edges, _y_edges=y_edges)

    @property
    def n_cells(self):
        return self.h_cells * self.w_cells

    def locate_many(self, xy):
        """Where the (x, y) points land: `(cells, inside)`, where `inside`
        holds the ascending indices of the points inside the grid and
        `cells` the flattened cell of each. A point outside the grid is in
        neither; one on an interior edge goes to the cell on its positive
        side."""
        xy = np.asarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ShapeError(f"locate_many: expected (p, 2) points, got {xy.shape}")
        x, y = xy[:, 0], xy[:, 1]
        xe, ye = self._x_edges, self._y_edges
        # NaN and +-inf fail one of these comparisons, so they stay outside
        inside = np.flatnonzero((x >= xe[0]) & (x < xe[-1]) & (y >= ye[0]) & (y < ye[-1]))
        ix = self._bin_of(x[inside], xe)
        iy = self._bin_of(y[inside], ye)
        return iy * self.w_cells + ix, inside

    def _bin_of(self, v, edges):
        """searchsorted(edges, v, "right") - 1 for values in [edges[0],
        edges[-1]), without a binary search.

        The guess floor((v - edges[0]) / cell_size) differs from the true
        bin by rounding only: about n_cells * 2**-52 cells, far below one
        cell. So it is off by at most one bin, and one comparison with the
        stored edges in each direction makes it exact for every value."""
        i = ((v - edges[0]) / self.cell_size).astype(np.int64)
        np.clip(i, 0, edges.shape[0] - 2, out=i)
        i -= edges[i] > v
        i += edges[i + 1] <= v
        return i


@dataclass(frozen=True)
class FrustumGeometry:
    """Ego-frame ground coordinates of every (camera, column, depth) sample."""

    points_xyz: np.ndarray  # (N_c, W_I, N_d, 3)

    def __post_init__(self):
        p = _readonly(self.points_xyz)
        if p.ndim != 4 or p.shape[3] != 3:
            raise ShapeError(f"points_xyz must be (N_c, W_I, N_d, 3), got {p.shape}")
        object.__setattr__(self, "points_xyz", p)

    @property
    def points(self):
        """Ground-plane (x, y) samples, shape (N_c, W_I, N_d, 2)."""
        return self.points_xyz[..., :2]

    def landing(self, grid):
        """`grid.locate_many` over every sample, flattened in (camera,
        column, depth) order: the read-only `(cells, inside)` pair, where
        sample j = (n * W_I + w) * N_d + d. The pair of the last grid asked
        for is kept, so every build over one frustum and grid lands its
        samples once."""
        memo = self.__dict__.get("_landing")
        if memo is not None and memo[0] == grid:
            return memo[1]
        # a (p, 2) view of the x, y columns: no copy of the points
        cells, inside = grid.locate_many(self.points_xyz.reshape(-1, 3)[:, :2])
        cells.setflags(write=False)
        inside.setflags(write=False)
        object.__setattr__(self, "_landing", (grid, (cells, inside)))
        return cells, inside

    @property
    def n_cameras(self):
        return self.points_xyz.shape[0]

    @property
    def n_columns(self):
        return self.points_xyz.shape[1]

    @property
    def n_depths(self):
        return self.points_xyz.shape[2]


def generate_frustum(rig, bins, reference_row=None):
    """Back-project one pixel row of every camera through all depth bins.

    For camera n and feature column w, the source pixel is
    u = (w + 0.5) * stride, v = (reference_row + 0.5) * stride. The pixel ray
    K^-1 (u, v, 1) is scaled so its forward (optical-axis) component equals
    each bin center, then moved to the ego frame.

    Args:
        rig: CameraRig.
        bins: DepthBins.
        reference_row: feature row defining each column's ground ray;
            defaults to the middle row floor(H_I / 2).

    Returns:
        FrustumGeometry with points of shape (N_c, W_I, N_d, 3).
    """
    if reference_row is None:
        reference_row = rig.feature_height // 2
    reference_row = _whole(reference_row, "reference_row", 0)
    if reference_row >= rig.feature_height:
        raise GeometryError(
            f"reference_row {reference_row} out of range "
            f"[0, {rig.feature_height})"
        )
    w_i = rig.feature_width
    n_d = bins.count
    # the points, plus one camera's body points and their rotated copy
    if not _fits_in_memory(24 * w_i * n_d * (rig.n_cameras + 2)):
        raise GeometryError(
            f"generate_frustum: {rig.n_cameras} x {w_i} x {n_d} float64 points "
            "exceed physical memory"
        )
    u = (np.arange(w_i) + 0.5) * rig.image_stride
    v = (reference_row + 0.5) * rig.image_stride
    pixels = np.stack([u, np.full(w_i, v), np.ones(w_i)])  # (3, W_I)

    points = np.empty((rig.n_cameras, w_i, n_d, 3))
    for n, cam in enumerate(rig.cameras):
        rays = np.linalg.solve(cam.intrinsics, pixels)  # optical frame, z == 1
        rays /= rays[2]
        rays_body = _OPT_TO_BODY @ rays  # (3, W_I), forward component == 1
        # (W_I, N_d, 3): scale each unit-forward ray by the bin centers
        pts_body = rays_body.T[:, None, :] * bins.centers[None, :, None]
        points[n] = pts_body @ cam.rotation.T + cam.translation
    points.setflags(write=False)  # owned and frozen: FrustumGeometry keeps it
    return FrustumGeometry(points)


@dataclass(frozen=True)
class Scene:
    """A camera rig plus the depth and BEV discretizations used with it."""

    rig: CameraRig
    bins: DepthBins
    grid: BevGrid


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise ConfigError(f"{where}: missing field '{key}'")
    return mapping[key]


def _build(make, where, mapping, *keys):
    """make(*fields) from the `keys` of one config block; a GeometryError
    becomes a ConfigError naming the block."""
    values = [_require(mapping, key, where) for key in keys]
    try:
        return make(*values)
    except GeometryError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_scene(source):
    """Load a Scene from a config path (str or os.PathLike) or a parsed dict;
    any other source, or a file that is not JSON, raises ConfigError.

    The document layout is::

        {"cameras": [{"intrinsics": [9 floats], "rotation": [9 floats],
                      "translation": [3 floats]}, ...],
         "feature_width": int, "feature_height": int, "image_stride": int,
         "depth": {"min": m, "max": m, "count": n},
         "bev": {"extent": m, "h_cells": n, "w_cells": n}}

    Only the layout is checked here: the raw values go to the geometry
    constructors, which check their own numbers, and their GeometryError
    comes back as a ConfigError naming the block and the field.
    """
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise ConfigError(f"{os.fspath(source)}: not JSON: {exc}") from None
    else:
        raise ConfigError(
            f"scene config must be a path or a dict, got {type(source).__name__}"
        )

    cam_docs = _require(doc, "cameras", "scene config")
    if not isinstance(cam_docs, list) or not cam_docs:
        raise ConfigError("scene config: 'cameras' must be a non-empty list")
    cameras = tuple(
        _build(Camera, f"cameras[{i}]", cd, "intrinsics", "rotation", "translation")
        for i, cd in enumerate(cam_docs)
    )
    rig = _build(
        lambda *extents: CameraRig(cameras, *extents), "scene config", doc,
        "feature_width", "feature_height", "image_stride",
    )
    depth = _require(doc, "depth", "scene config")
    bins = _build(DepthBins, "depth", depth, "min", "max", "count")
    bev = _require(doc, "bev", "scene config")
    grid = _build(BevGrid, "bev", bev, "extent", "h_cells", "w_cells")
    return Scene(rig, bins, grid)


def scene_to_dict(scene):
    """Inverse of load_scene, suitable for json.dump. Every field of a Scene
    is a config number, so the dict holds the whole scene: load_scene
    rebuilds it and scene_digest covers all of it."""
    return {
        "cameras": [
            {
                "intrinsics": [float(x) for x in cam.intrinsics.ravel()],
                "rotation": [float(x) for x in cam.rotation.ravel()],
                "translation": [float(x) for x in cam.translation],
            }
            for cam in scene.rig.cameras
        ],
        "feature_width": scene.rig.feature_width,
        "feature_height": scene.rig.feature_height,
        "image_stride": scene.rig.image_stride,
        "depth": {
            "min": scene.bins.d_min,
            "max": scene.bins.d_max,
            "count": scene.bins.count,
        },
        "bev": {
            "extent": scene.grid.extent,
            "h_cells": scene.grid.h_cells,
            "w_cells": scene.grid.w_cells,
        },
    }


def scene_digest(scene):
    """Stable SHA-256 of a Scene's config; used to detect stale matrix caches."""
    blob = json.dumps(scene_to_dict(scene), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

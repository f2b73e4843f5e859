"""Pinhole camera rigs, depth-bin discretization, frustum rays, and BEV grids.

A Scene is its config: DepthBins and BevGrid hold only the numbers of the
config's `depth` and `bev` blocks and derive the rest, so scene_to_dict
inverts load_scene and scene_digest covers every field. Each type checks
and normalises its own numbers (`_numbers` for floats, `_whole` for every
count of the package), so a Scene built in code and one loaded from JSON
compare, hash and digest alike. The package's other refusal rules live
here too, each one helper raising the caller's error type: `_require` for
an argument's type, `_real` for an array of numbers and `_require_memory`
for an allocation.

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

try:
    import resource
except ImportError:  # no address-space limit to read on this platform
    resource = None

import numpy as np

from .errors import ConfigError, GeometryError, ShapeError, ValidationError

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
_OPT_TO_BODY = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])

_ORTHO_TOL = 1e-6


def _parsed(value, what, shape):
    """`value` parsed once into the C-order float64 array of `shape` that
    `_owned` keeps for it and the same values as a flat list of Python
    floats. Every form (list, tuple or numpy array of any real dtype and
    order) takes this path; anything else, non-finite or mis-sized, raises
    GeometryError."""
    try:
        raw = np.asarray(value)
        if raw.dtype.kind in "iuf":
            arr = _owned(raw.reshape(shape), np.float64)
            flat = arr.ravel().tolist()
            if all(map(math.isfinite, flat)):
                return arr, flat
    except (TypeError, ValueError, OverflowError):
        pass
    kind = f"{shape} finite numbers" if shape else "a finite number"
    raise GeometryError(f"{what} must be {kind}, got {value!r}")


def _numbers(value, what):
    """`value`, one finite number, as a Python float. A real scalar skips the
    0-d array, any other form goes through `_parsed`: both take what numpy
    reads as a finite real (an int only in [-2**63, 2**64)), no bool or str."""
    real = isinstance(value, float) or (isinstance(value, np.generic) and value.dtype.kind in "iuf")
    if real or (isinstance(value, int) and type(value) is not bool and -(2**63) <= value < 2**64):
        x = float(value)
        if math.isfinite(x):
            return x
    return _parsed(value, what, ())[1][0]


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


def _require(value, kind, name, error=ValidationError):
    """The one type check of an argument that must be a `kind`: any other
    value is an `error` naming `name`, a GeometryError for this module's
    types."""
    if not isinstance(value, kind):
        raise error(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _real(x, name, error=ValidationError, kinds="biuf"):
    """`x` as an ndarray of real numbers, in its own dtype and order, the
    package's one admission rule for arrays of numbers: an input that is
    not a rectangular array of bool, int, uint or float values (a complex
    array, a string, an object array, a ragged list) is an `error` naming
    `name`. A caller that also refuses bool passes `kinds="iuf"`."""
    try:
        arr = np.asarray(x)
        why = f"dtype {arr.dtype}"
    except ValueError as exc:  # ragged
        arr, why = None, exc
    if arr is None or arr.dtype.kind not in kinds:
        raise error(f"{name} is not an array of real numbers ({why})")
    return arr


def _require_memory(nbytes, what, error):
    """Refuse an allocation of `nbytes` that does not fit in the memory this
    process may use: the smaller of the host's physical memory and the
    finite soft address-space limit (RLIMIT_AS, where the platform has
    one), both read when asked and neither a setting of this package. A
    build that would not fit is an `error` naming `what` before anything is
    allocated, and does not die in a MemoryError."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if resource is not None:
        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            limit = min(limit, soft)
    if nbytes > limit:
        raise error(f"{what} exceed physical memory or the address-space limit")


def _freeze(obj, **values):
    """Set attributes of a frozen dataclass from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _owner(a):
    """The object whose memory the array `a` views: the end of its `.base`
    chain, an array that owns its data or the bytes (or other buffer) that
    the chain's last array views."""
    while getattr(a, "base", None) is not None:
        a = a.base
    return a


def _owned(a, dtype):
    """The array a type keeps for the caller's array `a`, the one ownership
    rule of the package. `a` is kept as it is only when it views a `bytes`
    object (a cache file's words), already has `dtype` and is C-order:
    numpy never lets such an array, or any view of it, be written. Any
    other caller's array is copied once, in `dtype`, and the copy frozen,
    since numpy lets the owner of a read-only array turn writes back on and
    a view taken before it was frozen still writes into it. So the caller's
    arrays stay as they were, and no write to them changes what was kept.
    Arrays the package has just built take `_frozen` instead."""
    if isinstance(_owner(a), bytes) and a.dtype == dtype and a.flags.c_contiguous:
        return a
    return _frozen(np.array(a, dtype=dtype, order="C"), dtype)


def _frozen(a, dtype):
    """`a`, an array this package has just built (or already keeps
    frozen), in `dtype` and frozen in place: copied only when its dtype
    changes. No caller holds it, so no copy is needed to own it."""
    a = a.astype(dtype, copy=False)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Camera:
    """One pinhole camera: intrinsics plus body-to-ego pose.

    Each array is kept as float64 under `_owned`'s rule and must be
    finite. Cameras compare and hash by the bytes of their three arrays, so
    equal configs give equal cameras, rigs and scenes. The checks run on the
    Python floats `_parsed` returns: an entry x with target y in {0, 1}
    passes when |x - y| <= 1e-6 + 1e-5 * |y|, np.allclose's rule. Numpy
    calls on 21 numbers cost most of a Camera; without them load_scene of
    the bundled rig takes about 0.20 ms, not 0.33 ms (2-vCPU VM).

    Args:
        intrinsics: 3x3 pixel matrix (or its 9 entries row-major); bottom
            row must be (0, 0, 1), the focal entries positive, and the
            matrix non-singular.
        rotation: 3x3 proper rotation, camera body frame -> ego frame:
            orthonormal with determinant +1 (a reflection is refused).
        translation: camera center in the ego frame, meters.
    """

    intrinsics: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        k, (a, b, c, d, e, f, g, h, i) = _parsed(self.intrinsics, "intrinsics", (3, 3))
        r, rot = _parsed(self.rotation, "rotation", (3, 3))
        t, _ = _parsed(self.translation, "translation", (3,))
        if max(abs(g), abs(h)) > _ORTHO_TOL or abs(i - 1.0) > _ORTHO_TOL + 1e-5:
            raise GeometryError(f"intrinsics bottom row must be (0,0,1), got {k[2]}")
        if a <= 0 or e <= 0:
            raise GeometryError("intrinsics focal entries must be positive")
        if abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) < 1e-12:
            raise GeometryError("intrinsics are singular")
        for m, n in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):  # R^T R is symmetric
            dot = rot[m] * rot[n] + rot[m + 3] * rot[n + 3] + rot[m + 6] * rot[n + 6]
            if not abs(dot - (m == n)) <= _ORTHO_TOL + 1e-5 * (m == n):
                raise GeometryError("rotation is not orthonormal within 1e-6")
        # an orthonormal matrix has determinant +1 or -1; -1 mirrors the camera
        (p, q, s), (u, v, w), (x, y, z) = rot[0:3], rot[3:6], rot[6:9]
        if p * (v * z - w * y) - q * (u * z - w * x) + s * (u * y - v * x) < 0:
            raise GeometryError("rotation is a reflection (determinant -1)")
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
            _require(cam, Camera, f"cameras[{i}]", GeometryError)
        names = ("feature_width", "feature_height", "image_stride")
        extents = {name: _whole(getattr(self, name), name, 1) for name in names}
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
        _require_memory(32 * count, f"{count} depth bins", GeometryError)
        step = (d_max - d_min) / count
        centers = _frozen(d_min + (np.arange(count) + 0.5) * step, np.float64)
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
        _require_memory(
            32 * (max(h_cells, w_cells) + 1), f"{h_cells} x {w_cells} cell edges", GeometryError
        )
        cell_size = 2.0 * extent / w_cells
        x_min, y_min = -extent, -(cell_size * h_cells / 2.0)
        x_edges = _frozen(x_min + np.arange(w_cells + 1) * cell_size, np.float64)
        y_edges = _frozen(y_min + np.arange(h_cells + 1) * cell_size, np.float64)
        _freeze(self, extent=extent, h_cells=h_cells, w_cells=w_cells, cell_size=cell_size,
                x_min=x_min, y_min=y_min, _x_edges=x_edges, _y_edges=y_edges)

    @property
    def n_cells(self):
        return self.h_cells * self.w_cells

    def locate_many(self, xy):
        """Where the (x, y) points land: `(cells, inside)`, where `inside`
        holds the ascending indices of the points inside the grid and
        `cells` the flattened cell of each. A point outside the grid is in
        neither; one on an interior edge goes to the cell on its positive
        side."""
        xy = np.asarray(_real(xy, "xy", GeometryError), dtype=np.float64)
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


@dataclass(frozen=True, eq=False)
class FrustumGeometry:
    """Ego-frame ground coordinates of every (camera, column, depth) sample.

    The points are real numbers (`_real`, no bool, as for a Camera), kept as
    float64 under `_owned`'s rule, so a caller's array is copied;
    generate_frustum hands over the points it has just built with no copy.
    A frustum compares and hashes by identity: reference.build_ftm keeps
    the exact matrix of its last grid on it, so two frusta with equal
    points are still two per-scene products."""

    points_xyz: np.ndarray  # (N_c, W_I, N_d, 3)

    def __post_init__(self):
        p = _owned(_real(self.points_xyz, "points_xyz", GeometryError, "iuf"), np.float64)
        if p.ndim != 4 or p.shape[3] != 3:
            raise ShapeError(f"points_xyz must be (N_c, W_I, N_d, 3), got {p.shape}")
        object.__setattr__(self, "points_xyz", p)

    @property
    def points(self):
        """Ground-plane (x, y) samples, shape (N_c, W_I, N_d, 2)."""
        return self.points_xyz[..., :2]

    def landing(self, grid):
        """`grid.locate_many` over every sample, flattened in (camera,
        column, depth) order: the `(cells, inside)` pair, where sample
        j = (n * W_I + w) * N_d + d. Nothing is kept: reference.build_ftm
        keeps the exact matrix built from it."""
        # a (p, 2) view of the x, y columns: no copy of the points
        return grid.locate_many(self.points_xyz.reshape(-1, 3)[:, :2])

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
    u = (w + 0.5) * stride, v = (reference_row + 0.5) * stride. Its pixel
    ray K^-1 (u, v, 1), scaled to a unit forward (optical-axis) component,
    is rotated into the ego frame once per camera. Rotation is linear, so
    R (c r) = c (R r): the sample at bin center c is the rotated ray scaled
    by c, plus the camera's translation, and each of x, y and z is one
    broadcast multiply-add over every (camera, column, bin).

    Args:
        rig: CameraRig.
        bins: DepthBins.
        reference_row: feature row defining each column's ground ray;
            defaults to the middle row floor(H_I / 2).

    Returns:
        FrustumGeometry with points of shape (N_c, W_I, N_d, 3).
    """
    _require(rig, CameraRig, "rig", GeometryError)
    _require(bins, DepthBins, "bins", GeometryError)
    if reference_row is None:
        reference_row = rig.feature_height // 2
    reference_row = _whole(reference_row, "reference_row", 0)
    if reference_row >= rig.feature_height:
        raise GeometryError(
            f"reference_row {reference_row} out of range "
            f"[0, {rig.feature_height})"
        )
    n_c, w_i, n_d = rig.n_cameras, rig.feature_width, bins.count
    # the points, every camera's rotated rays, the pixels and one solve
    _require_memory(
        24 * w_i * (n_c * n_d + n_c + 2),
        f"generate_frustum: {n_c} x {w_i} x {n_d} float64 points",
        GeometryError,
    )
    u = (np.arange(w_i) + 0.5) * rig.image_stride
    v = (reference_row + 0.5) * rig.image_stride
    pixels = np.stack([u, np.full(w_i, v), np.ones(w_i)])  # (3, W_I)

    rays = np.empty((n_c, 3, w_i))  # each camera's rays, in the ego frame
    for n, cam in enumerate(rig.cameras):
        optical = np.linalg.solve(cam.intrinsics, pixels)
        optical /= optical[2]  # unit forward (optical-axis) component
        rays[n] = cam.rotation @ (_OPT_TO_BODY @ optical)
    translation = np.array([cam.translation for cam in rig.cameras])  # (N_c, 3)
    points = np.empty((n_c, w_i, n_d, 3))
    for k in range(3):
        axis = points[..., k]
        np.multiply(rays[:, k, :, None], bins.centers, out=axis)
        axis += translation[:, k, None, None]
    frustum = FrustumGeometry.__new__(FrustumGeometry)  # built here, so kept with no copy
    _freeze(frustum, points_xyz=_frozen(points, np.float64))
    return frustum


@dataclass(frozen=True)
class Scene:
    """A camera rig plus the depth and BEV discretizations used with it;
    a field of another type is a GeometryError naming it."""

    rig: CameraRig
    bins: DepthBins
    grid: BevGrid

    def __post_init__(self):
        _require(self.rig, CameraRig, "rig", GeometryError)
        _require(self.bins, DepthBins, "bins", GeometryError)
        _require(self.grid, BevGrid, "grid", GeometryError)


def _field(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise ConfigError(f"{where}: missing field '{key}'")
    return mapping[key]


def _build(make, where, mapping, *keys):
    """make(*fields) from the `keys` of one config block; a GeometryError
    becomes a ConfigError naming the block."""
    values = [_field(mapping, key, where) for key in keys]
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

    cam_docs = _field(doc, "cameras", "scene config")
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
    depth = _field(doc, "depth", "scene config")
    bins = _build(DepthBins, "depth", depth, "min", "max", "count")
    bev = _field(doc, "bev", "scene config")
    grid = _build(BevGrid, "bev", bev, "extent", "h_cells", "w_cells")
    return Scene(rig, bins, grid)


def scene_to_dict(scene):
    """Inverse of load_scene, suitable for json.dump. Every field of a Scene
    is a config number, so the dict holds the whole scene: load_scene
    rebuilds it and scene_digest covers all of it."""
    return {
        "cameras": [
            {k: getattr(cam, k).ravel().tolist() for k in ("intrinsics", "rotation", "translation")}
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

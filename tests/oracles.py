"""Independent brute-force oracles used across the test suite.

Everything here is written as plain loops, exhaustive scans or direct numpy
over the public fields of the library's data types. It builds those types
but calls no library function or method (test_public_surface checks this),
so it shares no code path with the implementations it validates.
"""
import numpy as np

from bevx import (
    BevGrid,
    Camera,
    CameraRig,
    DepthBins,
    PrimeAttention,
    RefineMap,
    Scene,
    SparseBinaryMatrix,
)


def csr_from_pairs(pairs, shape):
    """CSR container from an iterable of (row, col), built by hand."""
    pairs = sorted(set((int(r), int(c)) for r, c in pairs))
    offsets = np.zeros(shape[0] + 1, dtype=np.int64)
    for r, _ in pairs:
        offsets[r + 1] += 1
    offsets = np.cumsum(offsets)
    cols = np.array([c for _, c in pairs], dtype=np.int64)
    return SparseBinaryMatrix(shape[0], shape[1], offsets, cols)


def from_dense(dense):
    """Binary CSR matrix of the nonzeros of a 2-D array."""
    dense = np.asarray(dense)
    assert dense.ndim == 2
    return csr_from_pairs(zip(*np.nonzero(dense)), dense.shape)


def densify(m, dtype=np.float32):
    """Dense 0/1 array of a binary CSR matrix."""
    out = np.zeros((m.rows, m.cols), dtype=dtype)
    out[np.repeat(np.arange(m.rows), np.diff(m.row_offsets)), m.col_indices] = 1
    return out


def row(m, i):
    """Column ids of row i of a binary CSR matrix."""
    return m.col_indices[m.row_offsets[i] : m.row_offsets[i + 1]]


def csr_order_ok_isin(row_offsets, col_indices):
    """The within-row order rule in its original np.isin form: every
    position where col_indices fails to increase must be an interior row
    start."""
    row_offsets = np.asarray(row_offsets, dtype=np.int64)
    bad = np.flatnonzero(np.diff(np.asarray(col_indices, dtype=np.int64)) <= 0) + 1
    return bool(np.isin(bad, row_offsets[1:-1]).all())


def grid_edges(grid):
    """Cell edges rebuilt from the public grid fields (same arithmetic)."""
    xe = grid.x_min + np.arange(grid.w_cells + 1) * grid.cell_size
    ye = grid.y_min + np.arange(grid.h_cells + 1) * grid.cell_size
    return xe, ye


def x_max(grid):
    """Right edge of the grid's last column."""
    return float(grid_edges(grid)[0][-1])


def y_max(grid):
    """Top edge of the grid's last row."""
    return float(grid_edges(grid)[1][-1])


def cell_rect(grid, index):
    """(x0, y0, x1, y1) of the flattened cell index."""
    xe, ye = grid_edges(grid)
    h_b, w_b = divmod(int(index), grid.w_cells)
    if not 0 <= h_b < grid.h_cells:
        raise IndexError(f"cell index {index} out of range")
    return float(xe[w_b]), float(ye[h_b]), float(xe[w_b + 1]), float(ye[h_b + 1])


def locate_scan(grid, x, y):
    """Exhaustive half-open rectangle scan over all cells; None if outside."""
    xe, ye = grid_edges(grid)
    hit_x = np.flatnonzero((x >= xe[:-1]) & (x < xe[1:]))
    hit_y = np.flatnonzero((y >= ye[:-1]) & (y < ye[1:]))
    if hit_x.size == 0 or hit_y.size == 0:
        return None
    assert hit_x.size == 1 and hit_y.size == 1
    return int(hit_y[0]) * grid.w_cells + int(hit_x[0])


def locate_scan_pure(grid, x, y):
    """Pure-python rectangle scan via cell_rect; anchors locate_scan."""
    hits = []
    for s in range(grid.n_cells):
        x0, y0, x1, y1 = cell_rect(grid, s)
        if x0 <= x < x1 and y0 <= y < y1:
            hits.append(s)
    assert len(hits) <= 1
    return hits[0] if hits else None


def ring_ray_loop(frustum, grid):
    """Literal triple loop over (camera, column, bin) with scan membership."""
    ring_pairs = []
    ray_pairs = []
    n_c, w_i, n_d = frustum.n_cameras, frustum.n_columns, frustum.n_depths
    for n in range(n_c):
        for w in range(w_i):
            for d in range(n_d):
                x, y = frustum.points[n, w, d]
                s = locate_scan(grid, float(x), float(y))
                if s is not None:
                    ring_pairs.append((s, d))
                    ray_pairs.append((s, n * w_i + w))
    ring = csr_from_pairs(ring_pairs, (grid.n_cells, n_d))
    ray = csr_from_pairs(ray_pairs, (grid.n_cells, n_c * w_i))
    return ring, ray


def ftm_loop(frustum, grid):
    """Exact transport matrix by exhaustive membership loop."""
    n_c, w_i, n_d = frustum.n_cameras, frustum.n_columns, frustum.n_depths
    pairs = []
    for n in range(n_c):
        for w in range(w_i):
            for d in range(n_d):
                x, y = frustum.points[n, w, d]
                s = locate_scan(grid, float(x), float(y))
                if s is not None:
                    pairs.append((s, (n * w_i + w) * n_d + d))
    return csr_from_pairs(pairs, (grid.n_cells, n_c * w_i * n_d))


def splat_loop(lifted, frustum, grid):
    """Sequential per-point accumulation in ascending sample order."""
    n_c, w_i, n_d = frustum.n_cameras, frustum.n_columns, frustum.n_depths
    out = np.zeros((grid.n_cells, lifted.shape[2]), dtype=np.float32)
    for n in range(n_c):
        for w in range(w_i):
            for d in range(n_d):
                x, y = frustum.points[n, w, d]
                s = locate_scan(grid, float(x), float(y))
                if s is not None:
                    out[s] += lifted[n * w_i + w, d]
    return out


def dense_reformulated(features, depths, rr):
    """The reformulated transform evaluated densely: contract depths with
    the dense ring, mask by the dense ray, multiply by the features. Reads
    ring and ray directly, never the execution plan vt_matrixvt uses."""
    return ((densify(rr.ring) @ depths.T) * densify(rr.ray)) @ features


def lift_loop(features, depths):
    w, c = features.shape
    _, n_d = depths.shape
    out = np.zeros((w, n_d, c), dtype=np.float32)
    for i in range(w):
        for d in range(n_d):
            for ch in range(c):
                out[i, d, ch] = np.float32(depths[i, d]) * np.float32(
                    features[i, ch]
                )
    return out


def yaw_camera(rng, img_w, img_h):
    """Random yaw-only camera with jittered intrinsics, near the ego origin."""
    yaw = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(yaw), np.sin(yaw)
    fx = (img_w / 2.0) / np.tan(np.radians(rng.uniform(40.0, 110.0)) / 2.0)
    fy = fx * rng.uniform(0.8, 1.2)
    k = np.array(
        [
            [fx, 0.0, img_w / 2.0 + rng.uniform(-2.0, 2.0)],
            [0.0, fy, img_h / 2.0 + rng.uniform(-2.0, 2.0)],
            [0.0, 0.0, 1.0],
        ]
    )
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    t = np.array([rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(1.0, 2.0)])
    return Camera(k, r, t)


def degenerate_scene(away, n_d=4, h_cells=4, w_cells=4, reach=2.0, w_i=3):
    """A rig built from geometry for the degenerate cases.

    One 90-degree camera per entry of `away`, yaws spread evenly. An away
    camera sits past the grid's corner, facing outward, so none of its
    samples lands (its ray columns are empty); the others sit at the
    origin. `n_d` bins run from 1 m to `reach` times the 10 m extent
    (past the grid when reach > 1), over an h_cells x w_cells grid.
    """
    extent, stride = 10.0, 4
    half = w_i * stride / 2.0
    k = np.array([[half, 0.0, half], [0.0, half, stride / 2.0], [0.0, 0.0, 1.0]])
    corner = np.hypot(extent, extent * h_cells / w_cells)
    cameras = []
    for n, out in enumerate(away):
        yaw = 2.0 * np.pi * n / len(away)
        c, s = np.cos(yaw), np.sin(yaw)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        t = (corner + 1.0) * np.array([c, s, 0.0]) if out else np.array([0.0, 0.0, 1.5])
        cameras.append(Camera(k, r, t))
    rig = CameraRig(tuple(cameras), w_i, 1, stride)
    return Scene(rig, DepthBins(1.0, reach * extent, n_d), BevGrid(extent, h_cells, w_cells))


def random_scene(rng, n_cameras=2, w_i=8, h_i=4, n_d=8, grid_cells=16, stride=8):
    """Random outward-looking rig plus matching bins and grid."""
    img_w, img_h = w_i * stride, h_i * stride
    cams = tuple(yaw_camera(rng, img_w, img_h) for _ in range(n_cameras))
    rig = CameraRig(cams, w_i, h_i, stride)
    d_min = rng.uniform(1.0, 3.0)
    bins = DepthBins(d_min, d_min + rng.uniform(8.0, 25.0), n_d)
    grid = BevGrid(rng.uniform(8.0, 20.0), grid_cells, grid_cells)
    return Scene(rig, bins, grid)


def uniform(n_cameras, h_i, w_i):
    """Attention that weighs every feature row of a column equally."""
    return PrimeAttention(np.full((n_cameras, h_i, w_i), 1.0 / h_i, dtype=np.float32))


def one_hot(n_cameras, h_i, w_i, row):
    """Attention that picks one feature row in every column."""
    w = np.zeros((n_cameras, h_i, w_i), dtype=np.float32)
    w[:, row, :] = 1.0
    return PrimeAttention(w)


def identity_refine(channels):
    """The refinement that maps every feature vector to itself."""
    return RefineMap(np.eye(channels, dtype=np.float32), np.zeros(channels, np.float32))


def project_to_pixel(cam, points_ego):
    """Forward pinhole projection of ego-frame points.

    Returns the (..., 2) pixel coordinates and the (...,) planar depth of
    each point along the optical axis.
    """
    body = (np.asarray(points_ego, dtype=np.float64) - cam.translation) @ cam.rotation
    # body (forward, left, up) -> optical (right, down, forward)
    optical = np.stack([-body[..., 1], -body[..., 2], body[..., 0]], axis=-1)
    uvw = optical @ cam.intrinsics.T
    return uvw[..., :2] / uvw[..., 2:3], optical[..., 2]


def synthetic_scene_dict(
    n_cameras=6,
    feature_width=44,
    feature_height=16,
    image_stride=16,
    hfov_deg=70.0,
    radius=1.0,
    d_min=2.0,
    d_max=58.0,
    n_bins=112,
    bev_extent=51.2,
    bev_cells=128,
):
    """Config dict for an outward-facing ring of identical cameras."""
    img_w = feature_width * image_stride
    img_h = feature_height * image_stride
    fx = (img_w / 2.0) / np.tan(np.radians(hfov_deg) / 2.0)
    intrinsics = [fx, 0.0, img_w / 2.0, 0.0, fx, img_h / 2.0, 0.0, 0.0, 1.0]
    cameras = []
    for n in range(n_cameras):
        yaw = 2.0 * np.pi * n / n_cameras
        c, s = np.cos(yaw), np.sin(yaw)
        cameras.append(
            {
                "intrinsics": intrinsics,
                "rotation": [c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0],
                "translation": [radius * c, radius * s, 1.5],
            }
        )
    return {
        "cameras": cameras,
        "feature_width": feature_width,
        "feature_height": feature_height,
        "image_stride": image_stride,
        "depth": {"min": d_min, "max": d_max, "count": n_bins},
        "bev": {"extent": bev_extent, "h_cells": bev_cells, "w_cells": bev_cells},
    }

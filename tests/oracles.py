"""Independent brute-force oracles used across the test suite.

Everything here is written as plain loops or exhaustive scans so it shares
no code path with the library implementations it validates.
"""
import numpy as np

from bevx import (
    Camera,
    CameraRig,
    Scene,
    SparseBinaryMatrix,
    make_bev_grid,
    make_depth_bins,
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
        x0, y0, x1, y1 = grid.cell_rect(s)
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
    return ((rr.ring.densify() @ depths.T) * rr.ray.densify()) @ features


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


def random_scene(rng, n_cameras=2, w_i=8, h_i=4, n_d=8, grid_cells=16, stride=8):
    """Random outward-looking rig plus matching bins and grid."""
    img_w, img_h = w_i * stride, h_i * stride
    cams = tuple(yaw_camera(rng, img_w, img_h) for _ in range(n_cameras))
    rig = CameraRig(cams, w_i, h_i, stride)
    d_min = rng.uniform(1.0, 3.0)
    bins = make_depth_bins(d_min, d_min + rng.uniform(8.0, 25.0), n_d)
    grid = make_bev_grid(rng.uniform(8.0, 20.0), grid_cells, grid_cells)
    return Scene(rig, bins, grid)

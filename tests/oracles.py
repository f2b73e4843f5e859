"""Independent brute-force oracles used across the test suite.

Everything here is written as plain loops, exhaustive scans or direct numpy
over the public fields of the library's data types. It builds those types
but calls no library function or method (test_public_surface checks this),
so it shares no code path with the implementations it validates.
"""
import struct

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


def older_cache_bytes(digest, ring, ray):
    """A ring/ray cache file in the older, unaligned layout, which the reader
    must take as a miss: 4-byte tags, an unpadded digest and 28-byte record
    headers."""
    key = digest.encode("utf-8")
    out = b"BXC1" + struct.pack("<Q", len(key)) + key
    for m in (ring, ray):
        out += b"BXS1" + struct.pack("<QQQ", m.rows, m.cols, m.nnz)
        out += np.concatenate((m.row_offsets, m.col_indices)).astype("<i8").tobytes()
    return out


def bxc2_cache_bytes(digest, ring, ray):
    """A ring/ray cache file in the layout before per-entry rings, which the
    reader must take as a miss: the "BXC2" header over the same two 8-aligned
    "BXS2" records, the ring one row per cell."""
    key = digest.encode("utf-8")
    out = b"BXC2\0\0\0\0" + struct.pack("<Q", len(key)) + key + bytes(-len(key) % 8)
    for m in (ring, ray):
        out += b"BXS2\0\0\0\0" + struct.pack("<QQQ", m.rows, m.cols, m.nnz)
        out += np.concatenate((m.row_offsets, m.col_indices)).astype("<i8").tobytes()
    return out


def bxc3_cache_bytes(digest, ring, ray):
    """A ring/ray cache file in the layout before the index dtype rule,
    which the reader must take as a miss: the "BXC3" header, no crc, and
    "BXS2" records of int64 words."""
    key = digest.encode("utf-8")
    out = b"BXC3\0\0\0\0" + struct.pack("<Q", len(key)) + key + bytes(-len(key) % 8)
    for m in (ring, ray):
        out += b"BXS2\0\0\0\0" + struct.pack("<QQQ", m.rows, m.cols, m.nnz)
        out += np.concatenate((m.row_offsets, m.col_indices)).astype("<i8").tobytes()
    return out


def csr_order_ok_isin(row_offsets, col_indices):
    """The within-row order rule in its original np.isin form: every
    position where col_indices fails to increase must be an interior row
    start."""
    row_offsets = np.asarray(row_offsets, dtype=np.int64)
    bad = np.flatnonzero(np.diff(np.asarray(col_indices, dtype=np.int64)) <= 0) + 1
    return bool(np.isin(bad, row_offsets[1:-1]).all())


def csr_rule_broken(rows, cols, row_offsets, col_indices):
    """The message of the first CSR rule that the arrays break, in the order
    the constructor checks them, or None when they are a valid matrix:
    plain loops over Python ints."""
    offsets, ids = [int(x) for x in row_offsets], [int(x) for x in col_indices]
    if len(offsets) != rows + 1:
        return f"row_offsets must have length rows+1={rows + 1}, got ({len(offsets)},)"
    if offsets[0] != 0:
        return "row_offsets[0] must be 0"
    if any(a > b for a, b in zip(offsets, offsets[1:])):
        return "row_offsets must be non-decreasing"
    if len(ids) != offsets[-1]:
        return f"col_indices length {len(ids)} != nnz {offsets[-1]}"
    if any(not 0 <= c < cols for c in ids):
        return "column index out of range"
    for lo, hi in zip(offsets, offsets[1:]):
        if any(a >= b for a, b in zip(ids[lo:hi], ids[lo + 1 : hi])):
            return "col_indices must strictly increase within a row"
    return None


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


def frustum_per_point(rig, bins, row=None):
    """The (N_c, W_I, N_d, 3) frustum points of feature row `row` (the
    middle one by default), moved to the ego frame point by point: each
    camera's body-frame points, its unit-forward pixel rays scaled by every
    bin center, times the rotation's transpose, plus the translation
    (pts_body @ R.T + t)."""
    row = rig.feature_height // 2 if row is None else row
    stride, w_i = rig.image_stride, rig.feature_width
    pixels = np.stack(
        [(np.arange(w_i) + 0.5) * stride, np.full(w_i, (row + 0.5) * stride), np.ones(w_i)]
    )
    to_body = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    points = np.empty((len(rig.cameras), w_i, bins.centers.shape[0], 3))
    for n, cam in enumerate(rig.cameras):
        rays = np.linalg.solve(cam.intrinsics, pixels)
        rays_body = to_body @ (rays / rays[2])  # (3, W_I), forward component 1
        pts_body = rays_body.T[:, None, :] * bins.centers[None, :, None]
        points[n] = pts_body @ cam.rotation.T + cam.translation
    return points


def ring_ray_loop(frustum, grid):
    """Literal triple loop over (camera, column, bin) with scan membership.

    The ray holds (s, n * W_I + w) for every sample of column w of camera n
    that lands in cell s. The ring has one row per ray nonzero, in CSR
    order: every bin at which some column of that nonzero's camera lands
    in its cell."""
    ray_pairs = []
    bands = {}  # (cell, camera) -> bins
    n_c, w_i, n_d = frustum.n_cameras, frustum.n_columns, frustum.n_depths
    for n in range(n_c):
        for w in range(w_i):
            for d in range(n_d):
                x, y = frustum.points[n, w, d]
                s = locate_scan(grid, float(x), float(y))
                if s is not None:
                    bands.setdefault((s, n), set()).add(d)
                    ray_pairs.append((s, n * w_i + w))
    ray = csr_from_pairs(ray_pairs, (grid.n_cells, n_c * w_i))
    entries = sorted(set(ray_pairs))
    ring_pairs = [(j, d) for j, (s, w) in enumerate(entries) for d in bands[s, w // w_i]]
    ring = csr_from_pairs(ring_pairs, (len(entries), n_d))
    return ring, ray


def per_entry(shared_ring, ray):
    """The per-entry ring of a shared (S, N_d) ring under `ray`: row j, for
    the j-th ray nonzero (s, w) in CSR order, is shared ring row s. A pair
    built from it implies what the shared ring and the ray implied."""
    cells = np.repeat(np.arange(ray.rows), np.diff(ray.row_offsets))
    pairs = [(j, d) for j, s in enumerate(cells) for d in row(shared_ring, s)]
    return csr_from_pairs(pairs, (ray.nnz, shared_ring.cols))


def shared_ring(ftm, n_d):
    """The ring all cameras share, rebuilt from the exact matrix: row s holds
    every bin d at which any column's sample lands in cell s."""
    cells = np.repeat(np.arange(ftm.rows), np.diff(ftm.row_offsets))
    return csr_from_pairs(zip(cells, ftm.col_indices % n_d), (ftm.rows, n_d))


def entry_keys(m):
    """Row-major keys row * cols + col of every entry of a binary CSR matrix."""
    rows = np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.row_offsets))
    return rows * m.cols + m.col_indices


def plan_oracle(ring, ray):
    """The ring/ray plan by its definition, entry by entry: row j, for the
    j-th ray nonzero (s, w) in CSR order, holds w * N_d + d for each d in
    ring row j. Built through the checking constructor."""
    pairs = [
        (j, int(w) * ring.cols + int(d))
        for j, w in enumerate(ray.col_indices)
        for d in row(ring, j)
    ]
    return csr_from_pairs(pairs, (ray.nnz, ray.cols * ring.cols))


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


def full_height_bev(scene, feature, depth, attn, refine, pos_embed):
    """The ablation's full-height BEV, as lift and scatter per feature row:
    each row's samples refined[n, h, w] * weighted[n, h, w, d], refined by
    `refine` after the embedding add and weighted by the attention, are
    added in ascending sample order to the cells their row's points
    (`frustum_per_point`) land in, found by searchsorted over the half-open
    cell edges. Vectorized per row, so it runs on a full rig, where
    lift_loop and splat_loop would be slow."""
    grid = scene.grid
    xe, ye = grid_edges(grid)
    refined = (feature + pos_embed) @ refine.matrix.T + refine.bias
    weighted = attn.weights[..., None] * depth
    out = np.zeros((grid.n_cells, refined.shape[-1]), dtype=np.float32)
    for h in range(feature.shape[1]):
        xy = frustum_per_point(scene.rig, scene.bins, h)[..., :2].reshape(-1, 2)
        ix = np.searchsorted(xe, xy[:, 0], side="right") - 1
        iy = np.searchsorted(ye, xy[:, 1], side="right") - 1
        inside = (ix >= 0) & (ix < grid.w_cells) & (iy >= 0) & (iy < grid.h_cells)
        lifted = weighted[:, h, :, :, None] * refined[:, h, :, None, :]
        values = lifted.reshape(-1, out.shape[1])[inside]
        np.add.at(out, (iy * grid.w_cells + ix)[inside], values)
    return out


def dense_reformulated(features, depths, rr):
    """The reformulated transform evaluated densely: contract each ray
    nonzero's dense ring row with its column's depths, place the weights on
    the ray's (S, W) pattern, multiply by the features. Reads ring and ray
    directly, never the execution plan vt_matrixvt uses."""
    columns = rr.ray.col_indices
    cells = np.repeat(np.arange(rr.ray.rows), np.diff(rr.ray.row_offsets))
    weights = np.zeros(rr.ray.shape, dtype=np.float32)
    weights[cells, columns] = (densify(rr.ring) * depths[columns]).sum(axis=1)
    return weights @ features


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


def pitch_down(pitch):
    """The rotation that pitches a camera down by `pitch` degrees about its
    body y axis, applied on the right of its rotation."""
    cp, sp = np.cos(np.radians(pitch)), np.sin(np.radians(pitch))
    return np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])


# a quarter turn left about the ego z axis, (x, y, z) -> (-y, x, z): its
# products with a rotation or a point only move and negate entries, exactly
QUARTER_TURN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def quarter_turned(scene):
    """`scene` with the whole rig turned a quarter left, and where each
    cell of its square grid goes: (turned scene, cell), where cell[s] is
    the cell that cell s turns into. Every camera's rotation and
    translation is left-multiplied by QUARTER_TURN, so a frustum point
    (x, y) becomes (-y, x) and cell (iy, ix) becomes (ix, W_B - 1 - iy)."""
    rig, grid = scene.rig, scene.grid
    assert grid.h_cells == grid.w_cells
    cameras = tuple(
        Camera(cam.intrinsics, QUARTER_TURN @ cam.rotation, QUARTER_TURN @ cam.translation)
        for cam in rig.cameras
    )
    turned = CameraRig(cameras, rig.feature_width, rig.feature_height, rig.image_stride)
    iy, ix = np.divmod(np.arange(grid.h_cells * grid.w_cells), grid.w_cells)
    return Scene(turned, scene.bins, grid), ix * grid.w_cells + (grid.w_cells - 1 - iy)


def rows_moved(m, to):
    """The binary CSR matrix whose row to[i] is row i of `m`, for a
    permutation `to` of its rows, gathered by hand."""
    order = np.argsort(to)  # order[k]: the row of m that lands at row k
    starts = np.asarray(m.row_offsets[:-1], dtype=np.int64)[order]
    counts = np.diff(np.asarray(m.row_offsets, dtype=np.int64))[order]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    at = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
    return SparseBinaryMatrix(m.rows, m.cols, offsets, m.col_indices[at])


def degenerate_scene(away, n_d=4, h_cells=4, w_cells=4, reach=2.0, w_i=3, pitch=0.0):
    """A rig built from geometry for the degenerate cases.

    One 90-degree camera per entry of `away`, yaws spread evenly, each
    pitched down by `pitch` degrees about its body y axis. An away camera
    sits past the grid's corner, facing outward, so none of its samples
    lands (its ray columns are empty); the others sit at the origin. `n_d`
    bins run from 1 m to `reach` times the 10 m extent (past the grid when
    reach > 1), over an h_cells x w_cells grid.
    """
    extent, stride = 10.0, 4
    half = w_i * stride / 2.0
    k = np.array([[half, 0.0, half], [0.0, half, stride / 2.0], [0.0, 0.0, 1.0]])
    corner = np.hypot(extent, extent * h_cells / w_cells)
    down = pitch_down(pitch)
    cameras = []
    for n, out in enumerate(away):
        yaw = 2.0 * np.pi * n / len(away)
        c, s = np.cos(yaw), np.sin(yaw)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ down
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


def prime_feature_oneshot(feature, pos_embed, refine):
    """Prime feature pooling in one shot: the whole full-height embedded
    tensor at once, max over rows, then the refine map's fields applied."""
    f = np.ascontiguousarray(feature, dtype=np.float32)
    e = np.ascontiguousarray(pos_embed, dtype=np.float32)
    return (f + e).max(axis=1) @ refine.matrix.T + refine.bias


def prime_depth_einsum(depth, attn):
    """Prime depth pooling as the einsum of its definition."""
    return np.einsum("nhw,nhwd->nwd", attn.weights, np.asarray(depth, dtype=np.float32))


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


def block_summed(m, w_cells):
    """`m`, a binary CSR matrix whose rows are the cells of a grid `w_cells`
    wide, summed over 2 x 2 cell blocks, counted by hand: (pattern,
    values), the summed matrix's pattern on the grid of half the cells
    each way, where fine cell (iy, ix) is in coarse cell (iy // 2,
    ix // 2), and its stored values in the pattern's order."""
    h_cells = m.rows // w_cells
    assert h_cells * w_cells == m.rows and h_cells % 2 == w_cells % 2 == 0
    fine = np.repeat(np.arange(m.rows), np.diff(np.asarray(m.row_offsets, dtype=np.int64)))
    iy, ix = np.divmod(fine, w_cells)
    coarse = (iy // 2) * (w_cells // 2) + ix // 2
    keys, values = np.unique(coarse * m.cols + m.col_indices, return_counts=True)
    rows = m.rows // 4
    offsets = np.searchsorted(keys // m.cols, np.arange(rows + 1))
    return SparseBinaryMatrix(rows, m.cols, offsets, keys % m.cols), values

"""The benchmark's workloads.

Each workload makes its inputs from the seed (not timed), and offers:

  * `bring_up(tr)`  the per-scene work a user pays before the first frame
                    (timed as `setup_s`); returns the state it built, which
                    `adopt(state)` makes the one the ops use;
  * `op(tr, i)`     one op: a frame, or a scene visit (timed as a latency
                    sample);
  * `check(i, r)`   the correctness gate for op i, run outside the timed
                    region; returns an error string or None;
  * `census(tr, steady)`  the per-scene library calls once on the
                    workload's base scene, returning the structure counts.
                    In the traced run (`steady` not None) it also makes
                    every per-frame call, so that the kernels the
                    workload's ops do not call get steady times too.

Every library call goes through `tr.call` with the `<module>.<function>`
name, so the traced run records one span per call. The library is only
used through its public functions.
"""
from __future__ import annotations

import copy
import math
import shutil
from dataclasses import dataclass

import numpy as np

from bevx import (
    PrimeAttention,
    RefineMap,
    build_ftm,
    build_ring_ray,
    effective_ftm,
    generate_frustum,
    lift,
    load_ring_ray,
    load_scene,
    prime_depth,
    prime_feature,
    save_ring_ray,
    scene_digest,
    scene_to_dict,
    splat_reference,
    vt_ftm,
    vt_matrixvt,
)
from bevx.bench import PRESETS, REL_TOL, setting_scene
from tracing import Tracer

POOL_FRAMES = 4
# every op's output is compared bit for bit, on every 16th BEV row, with the
# fully verified output of the same pool frame
FINGERPRINT_STRIDE = 16
SIMPLEX_TOL = 1e-5
# the gate recomputes an output this many channels at a time (the routes are
# linear per channel), so that checking adds little to the peak RSS
CHECK_CHANNELS = 32
F32 = 4  # bytes


@dataclass
class Frame:
    """Full-height inputs of one frame."""

    feature: np.ndarray  # (N_c, H_I, W_I, C)
    depth: np.ndarray  # (N_c, H_I, W_I, N_d), each pixel on the simplex


@dataclass
class PrimeWeights:
    attn: PrimeAttention
    pos_embed: np.ndarray
    refine: RefineMap


def make_frame(rng, scene, channels):
    rig = scene.rig
    shape = (rig.n_cameras, rig.feature_height, rig.feature_width)
    feature = rng.random(shape + (channels,), dtype=np.float32)
    depth = rng.random(shape + (scene.bins.count,), dtype=np.float32) + 1e-3
    depth /= depth.sum(axis=3, keepdims=True)
    return Frame(feature, depth)


def make_prime_weights(rng, scene, channels):
    """Attention, position embedding and refine map, fixed for the run.

    All non-negative, so the compressed inputs stay positive: the 1e-5
    agreement between the factorized routes is claimed for positive inputs.
    """
    rig = scene.rig
    n_c, h, w = rig.n_cameras, rig.feature_height, rig.feature_width
    raw = rng.random((n_c, h, w), dtype=np.float32) + 1e-3
    return PrimeWeights(
        PrimeAttention(raw / raw.sum(axis=1, keepdims=True)),
        0.1 * rng.random((h, w, channels), dtype=np.float32),
        RefineMap(
            rng.random((channels, channels), dtype=np.float32) / channels,
            0.1 * rng.random(channels, dtype=np.float32),
        ),
    )


def compress(tr, frame, weights, tag=""):
    """prime_depth and prime_feature, reshaped to per-column (W, ·) inputs."""
    d = tr.call("prime.prime_depth", prime_depth, frame.depth, weights.attn, tag=tag)
    f = tr.call(
        "prime.prime_feature",
        prime_feature,
        frame.feature,
        weights.pos_embed,
        weights.refine,
        tag=tag,
    )
    n_w = d.shape[0] * d.shape[1]
    return f.reshape(n_w, -1), d.reshape(n_w, -1)


def contained(exact, implied):
    """True iff every entry of `exact` is an entry of `implied`."""
    if exact.shape != implied.shape:
        return False

    def keys(m):
        # strictly increasing: CSR rows ascend, and columns ascend in a row
        rows = np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.row_offsets))
        return rows * m.cols + m.col_indices

    small, big = keys(exact), keys(implied)
    if small.size == 0:
        return True
    pos = np.minimum(np.searchsorted(big, small), big.size - 1)
    return big.size > 0 and bool(np.array_equal(big[pos], small))


def max_rel_diff(a, b, floor=1e-6, rows=4096):
    """Largest |a-b| / max(|a|, |b|, floor), as bevx.bench.max_rel_diff
    defines it, but in float32 and over blocks of rows so that the
    temporaries stay in cache: the difference of two close float32 values
    is exact, and the float64 version is several times slower here."""
    worst = 0.0
    for r0 in range(0, a.shape[0], rows):
        x, y = a[r0 : r0 + rows], b[r0 : r0 + rows]
        den = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.float32(floor))
        worst = max(worst, float((np.abs(x - y) / den).max(initial=0.0)))
    return worst


def channel_slices(c):
    return [slice(c0, min(c0 + CHECK_CHANNELS, c)) for c0 in range(0, c, CHECK_CHANNELS)]


def rel_diff_vs_implied(out, f, d, implied, slices):
    """Max relative difference, over the given channel slices, of a
    vt_matrixvt output from vt_ftm over the matrix the factorization
    implies: the same transform by another route."""
    return max(
        max_rel_diff(out[:, sl], vt_ftm(lift(f[:, sl], d), implied)) for sl in slices
    )


def equals_splat(out, f, d, frustum, grid):
    """True iff an exact-route output is bit-identical to the scatter oracle."""
    return all(
        np.array_equal(out[:, sl], splat_reference(lift(f[:, sl], d), frustum, grid))
        for sl in channel_slices(f.shape[1])
    )


def census(tr, scene, channels, slot, kernels=None):
    """Make the per-scene calls once on `scene`; return structure counts.

    kernels: None, or (frame, weights, steady) to also make every per-frame
    call; each kernel's first call (for a transform, the plan-building one)
    is tagged `first` and followed by `steady` further calls on the same
    inputs.
    """
    rig, bins, grid = scene.rig, scene.bins, scene.grid
    digest = scene_digest(scene)
    frustum = tr.call("geometry.generate_frustum", generate_frustum, rig, bins)
    ftm = tr.call("reference.build_ftm", build_ftm, frustum, grid)
    built = tr.call("transform.build_ring_ray", build_ring_ray, frustum, grid)
    tr.call("transform.save_ring_ray", save_ring_ray, built, slot, digest)
    rr = tr.call("transform.load_ring_ray", load_ring_ray, slot, digest)
    if rr != built:
        raise RuntimeError("census: cache-loaded ring/ray differs from the built pair")
    if kernels is not None:
        frame, weights, steady = kernels
        for k in range(1 + steady):
            f, d = compress(tr, frame, weights, tag="first" if k == 0 else "")
        for k in range(1 + steady):
            tag = "first" if k == 0 else ""
            tr.call("transform.vt_matrixvt", vt_matrixvt, f, d, rr, tag=tag)
        lifted = tr.call("reference.lift", lift, f, d)
        for k in range(1 + steady):
            tag = "first" if k == 0 else ""
            tr.call("reference.vt_ftm", vt_ftm, lifted, ftm, tag=tag)
    implied = effective_ftm(rr)
    if not contained(ftm, implied):
        raise RuntimeError("census: exact matrix not contained in effective_ftm")
    cache_bytes = sum(p.stat().st_size for p in slot.iterdir())
    shutil.rmtree(slot)
    n_w = rig.n_cameras * rig.feature_width
    return {
        "ftm_nnz": ftm.nnz,
        "ring_nnz": rr.ring.nnz,
        "ray_nnz": rr.ray.nnz,
        "implied_nnz": implied.nnz,
        "cells": grid.n_cells,
        "cells_hit": int(np.count_nonzero(np.diff(ftm.row_offsets))),
        "columns": n_w,
        "depth_bins": bins.count,
        "channels": channels,
        "frustum_points": rig.n_cameras * rig.feature_width * bins.count,
        "cache_bytes": cache_bytes,
    }


def spmm_counts(structure, route):
    """Computed (not measured) work of the route's one sparse-dense product.

    matrixvt multiplies an (S x W) matrix with ray.nnz entries by (W, C)
    features; the exact route multiplies the (S x W*N_d) ftm by the
    (W*N_d, C) lifted tensor. Bytes are a lower bound: the dense input and
    the output touched once, plus 4-byte values, 4-byte column indices and
    S + 1 4-byte row offsets.
    """
    c, s = structure["channels"], structure["cells"]
    if route == "matrixvt":
        nnz, k_rows = structure["ray_nnz"], structure["columns"]
    else:
        nnz = structure["ftm_nnz"]
        k_rows = structure["columns"] * structure["depth_bins"]
    out_bytes = s * c * F32
    return {
        "flops": 2 * nnz * c,
        "bytes": out_bytes + k_rows * c * F32 + nnz * 2 * F32 + (s + 1) * F32,
        "out_bytes": out_bytes,
    }


@dataclass
class FrameResult:
    frame: int
    f: np.ndarray
    d: np.ndarray
    out: np.ndarray


class FrameWorkload:
    """S5 per-frame path on a seeded pool of distinct full-height frames.

    route "matrixvt": prime_depth -> prime_feature -> vt_matrixvt.
    route "exact":    prime_depth -> prime_feature -> lift -> vt_ftm.
    Both routes draw the same pool and weights from the same seed.
    """

    setting = "S5"
    cache_hits = 0
    cache_misses = 0

    def __init__(self, route, config, seed, workdir):
        self.route = route
        self.spmm_route = route
        self.scene = setting_scene(load_scene(config), PRESETS[self.setting])
        self.digest = scene_digest(self.scene)
        self.workdir = workdir
        self.channels = channels = PRESETS[self.setting].channels
        rng = np.random.default_rng(seed)
        self.weights = make_prime_weights(rng, self.scene, channels)
        self.pool = [make_frame(rng, self.scene, channels) for _ in range(POOL_FRAMES)]
        self.pool_bytes = sum(fr.feature.nbytes + fr.depth.nbytes for fr in self.pool)
        self._first_inputs = compress(Tracer(), self.pool[0], self.weights)
        self._fingerprints = {}
        self._implied = None
        self.max_rel_diff = 0.0

    def bring_up(self, tr):
        rig, bins, grid = self.scene.rig, self.scene.bins, self.scene.grid
        frustum = tr.call("geometry.generate_frustum", generate_frustum, rig, bins)
        f, d = self._first_inputs
        if self.route == "matrixvt":
            rr = tr.call("transform.build_ring_ray", build_ring_ray, frustum, grid)
            tr.call("transform.vt_matrixvt", vt_matrixvt, f, d, rr, tag="first")
            return frustum, rr
        ftm = tr.call("reference.build_ftm", build_ftm, frustum, grid)
        lifted = tr.call("reference.lift", lift, f, d)
        tr.call("reference.vt_ftm", vt_ftm, lifted, ftm, tag="first")
        return frustum, ftm

    def adopt(self, state):
        self.frustum, transport = state
        if self.route == "matrixvt":
            self.rr = transport
            self._implied = None
        else:
            self.ftm = transport

    def has_next(self, i):
        return True

    def at_boundary(self, i):
        return True

    def op(self, tr, i):
        p = i % POOL_FRAMES
        f, d = compress(tr, self.pool[p], self.weights)
        if self.route == "matrixvt":
            out = tr.call("transform.vt_matrixvt", vt_matrixvt, f, d, self.rr)
        else:
            lifted = tr.call("reference.lift", lift, f, d)
            out = tr.call("reference.vt_ftm", vt_ftm, lifted, self.ftm)
        return FrameResult(p, f, d, out)

    def check(self, i, r):
        expected = (self.scene.grid.n_cells, r.f.shape[1])
        if r.out.shape != expected or r.out.dtype != np.float32:
            return f"output {r.out.shape} {r.out.dtype}, expected {expected} float32"
        dev = float(np.abs(r.d.sum(axis=1) - 1.0).max())
        if dev > SIMPLEX_TOL:
            return f"compressed depth left the simplex by {dev:.2e}"
        sample = r.out[::FINGERPRINT_STRIDE]
        known = self._fingerprints.get(r.frame)
        if known is not None:
            if not np.array_equal(sample, known):
                return f"frame {r.frame}: output differs from its verified output"
            return None
        if self.route == "matrixvt":
            if self._implied is None:
                self._implied = effective_ftm(self.rr)
            slices = channel_slices(self.channels)
            rel = rel_diff_vs_implied(r.out, r.f, r.d, self._implied, slices)
            self.max_rel_diff = max(self.max_rel_diff, rel)
            if rel > REL_TOL:
                return f"vt_matrixvt vs vt_ftm(effective_ftm): rel diff {rel:.3e}"
        elif not equals_splat(r.out, r.f, r.d, self.frustum, self.scene.grid):
            return "vt_ftm is not bit-identical to splat_reference"
        self._fingerprints[r.frame] = sample.copy()
        return None

    def census(self, tr, steady):
        kernels = None if steady is None else (self.pool[0], self.weights, steady)
        return census(tr, self.scene, self.channels, self.workdir / "census", kernels)


@dataclass
class Visit:
    rig: int
    hit: bool
    ftm: object
    rr: object
    f: np.ndarray
    d: np.ndarray
    out: np.ndarray


class SceneChurn:
    """Per-scene bring-up over a seeded fleet of perturbed S4 rigs.

    Rigs come in blocks of BLOCK_RIGS; the 3 visits of each rig in a block
    are shuffled within the block, and the loop only stops at a block
    boundary, so exactly one visit in three misses the cache. A block's
    cache slots are deleted once its visits are done.
    """

    setting = "S4"
    VISITS = 3
    BLOCK_RIGS = 4

    def __init__(self, config, seed, visits, workdir):
        self.config = config
        self.spmm_route = "matrixvt"
        self.scene = setting_scene(load_scene(config), PRESETS[self.setting])
        self.digest = scene_digest(self.scene)
        self.workdir = workdir
        self.cache_root = workdir / "cache"
        self.channels = channels = PRESETS[self.setting].channels
        rng = np.random.default_rng(seed)
        base = scene_to_dict(self.scene)
        n_rigs = self.BLOCK_RIGS * math.ceil(visits / self.VISITS / self.BLOCK_RIGS)
        self.fleet_docs = [_perturbed(base, rng) for _ in range(n_rigs)]
        self.order = np.concatenate(
            [
                rng.permutation(np.repeat(np.arange(b, b + self.BLOCK_RIGS), self.VISITS))
                for b in range(0, n_rigs, self.BLOCK_RIGS)
            ]
        )
        n_w = self.scene.rig.n_cameras * self.scene.rig.feature_width
        n_d = self.scene.bins.count
        self.inputs = []
        for _ in range(POOL_FRAMES):
            f = rng.random((n_w, channels), dtype=np.float32)
            d = rng.random((n_w, n_d), dtype=np.float32) + 1e-3
            self.inputs.append((f, d / d.sum(axis=1, keepdims=True)))
        self.weights = make_prime_weights(rng, self.scene, channels)
        self.census_frame = make_frame(rng, self.scene, channels)
        self.pool_bytes = sum(f.nbytes + d.nbytes for f, d in self.inputs)
        self.fleet = None
        self._fresh = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.max_rel_diff = 0.0

    def bring_up(self, tr):
        tr.call("geometry.load_scene", load_scene, self.config)
        return [tr.call("geometry.load_scene", load_scene, doc) for doc in self.fleet_docs]

    def adopt(self, fleet):
        self.fleet = fleet

    def has_next(self, i):
        return i < len(self.order)

    def at_boundary(self, i):
        return i % (self.VISITS * self.BLOCK_RIGS) == 0

    def op(self, tr, i):
        rig = int(self.order[i])
        scene = self.fleet[rig]
        digest = tr.call("geometry.scene_digest", scene_digest, scene)
        frustum = tr.call(
            "geometry.generate_frustum", generate_frustum, scene.rig, scene.bins
        )
        ftm = tr.call("reference.build_ftm", build_ftm, frustum, scene.grid)
        slot = self.cache_root / f"rig-{rig}"
        rr = tr.call("transform.load_ring_ray", load_ring_ray, slot, digest)
        hit = rr is not None
        if not hit:
            tr.tag_last("miss")
            rr = tr.call("transform.build_ring_ray", build_ring_ray, frustum, scene.grid)
            tr.call("transform.save_ring_ray", save_ring_ray, rr, slot, digest)
        f, d = self.inputs[i % POOL_FRAMES]
        out = tr.call("transform.vt_matrixvt", vt_matrixvt, f, d, rr, tag="first")
        return Visit(rig, hit, ftm, rr, f, d, out)

    def check(self, i, v):
        """Gate one visit, then retire the block's cache slots at its end."""
        if v.hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
            self._fresh[v.rig] = v.rr
        implied = effective_ftm(v.rr)
        if not contained(v.ftm, implied):
            err = "exact matrix not contained in effective_ftm(ring/ray)"
        elif v.hit and v.rr != self._fresh.get(v.rig):
            err = "cache-loaded ring/ray differs from the freshly built pair"
        else:
            # one channel slice per visit, in turn, keeps the gate cheaper
            # than the visit; the slices share every sparse weight
            slices = channel_slices(self.channels)
            rel = rel_diff_vs_implied(
                v.out, v.f, v.d, implied, [slices[i % len(slices)]]
            )
            self.max_rel_diff = max(self.max_rel_diff, rel)
            err = None if rel <= REL_TOL else f"vt_matrixvt rel diff {rel:.3e}"
        block = self.VISITS * self.BLOCK_RIGS
        if (i + 1) % block == 0:
            for rig in np.unique(self.order[i + 1 - block : i + 1]):
                shutil.rmtree(self.cache_root / f"rig-{rig}", ignore_errors=True)
                self._fresh.pop(int(rig), None)
        return err

    def census(self, tr, steady):
        kernels = None if steady is None else (self.census_frame, self.weights, steady)
        return census(tr, self.scene, self.channels, self.workdir / "census", kernels)


def _perturbed(doc, rng):
    """A copy of a scene dict with each camera's mount height moved by up to
    0.2 m and its yaw turned by up to 2 degrees."""
    doc = copy.deepcopy(doc)
    for cam in doc["cameras"]:
        cam["translation"][2] += float(rng.uniform(-0.2, 0.2))
        yaw = np.radians(rng.uniform(-2.0, 2.0))
        c, s = np.cos(yaw), np.sin(yaw)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        rot = turn @ np.reshape(cam["rotation"], (3, 3))
        cam["rotation"] = [float(x) for x in rot.ravel()]
    return doc


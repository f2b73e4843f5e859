"""Benchmark and verification harness for the BEV transform backends.

`run_bench` times each backend of `_ROUTES` on named transformation settings
and reports median/p10/p90 wall-clock latency. A table entry holds the
backend's per-scene build, run off the clock (the transport matrices depend
only on geometry), its timed per-frame call, and the `cost_model` count it
reports as `intermediate_params`: closed-form per camera with W_I =
feature_width, not measured. At S1 that is 44 * 112 * 16,384 = 80,740,352
for `scatter`/`ftm` and (44 + 112) * 16,384 = 2,555,904 for `matrixvt`.
`BenchRecord` is the CSV schema.

`run_check` is the equivalence suite: on freshly drawn random inputs it
asserts that the exact-matrix route matches the scatter reference and that
the reformulated route matches the exact-matrix route over the
factorization-implied matrix, each within 1e-5 relative, and that the exact
transport matrix is contained in the implied one.
"""
from __future__ import annotations

import csv
import io
import json
import time
from collections import namedtuple
from dataclasses import asdict, astuple, dataclass, fields
from typing import Optional, get_type_hints

import numpy as np

from ..errors import FileFormatError, UsageError, ValidationError
from ..geometry import (
    BevGrid,
    Camera,
    CameraRig,
    DepthBins,
    Scene,
    generate_frustum,
    load_scene,
)
from ..prime import PrimeAttention, RefineMap, prime_depth, prime_feature
from ..reference import build_ftm, lift, splat_reference, vt_ftm
from ..tensor_core import SparseBinaryMatrix
from ..transform import (
    RingRayPair,
    build_ring_ray,
    cost_model,
    effective_ftm,
    vt_matrixvt,
)

__all__ = [
    "TransformSetting",
    "BenchRecord",
    "CheckReport",
    "PRESETS",
    "BACKENDS",
    "CSV_FIELDS",
    "setting_scene",
    "make_inputs",
    "run_bench",
    "run_check",
    "emit_csv",
    "parse_csv",
    "emit_json",
    "flip_ring_bit",
    "max_rel_diff",
]

REL_TOL = 1e-5


@dataclass(frozen=True)
class TransformSetting:
    """One benchmark point: image feature extents mapped to a BEV size."""

    name: str
    channels: int
    feature_height: int
    feature_width: int
    bev_h: int
    bev_w: int
    n_cameras: int = 6
    depth_bins: int = 112

    def __post_init__(self):
        if any(d < 1 for d in astuple(self)[1:]):
            raise ValidationError(f"setting {self.name}: extents must be positive")


# Built-in ladder from small features / small grid to large / large. All use
# 6 cameras and 112 depth bins; S-numbers grow in feature and grid size.
PRESETS = {
    s.name: s
    for s in (
        TransformSetting("S1", 80, 16, 44, 128, 128),
        TransformSetting("S2", 80, 16, 44, 256, 256),
        TransformSetting("S3", 80, 32, 88, 128, 128),
        TransformSetting("S4", 80, 32, 88, 256, 256),
        TransformSetting("S5", 256, 32, 88, 256, 256),
        TransformSetting("S6", 256, 64, 176, 256, 256),
    )
}


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row; the fields, in order, are the columns."""

    setting: str
    backend: str
    median_s: float
    p10_s: float
    p90_s: float
    intermediate_params: int
    repeats: int


CSV_FIELDS = tuple(f.name for f in fields(BenchRecord))


def _build_ring_ray(frustum, grid):
    rr = build_ring_ray(frustum, grid)
    rr._plan  # build the reusable execution plan outside the timed region
    return rr


# build(frustum, grid) -> built; run(features, depths, built); params(cost).
# Lambdas look up module globals when called, so a patched build_ftm is used.
_Route = namedtuple("_Route", "build run params")
_ROUTES = {
    "scatter": _Route(
        lambda frustum, grid: (frustum, grid),
        lambda f, d, built: splat_reference(lift(f, d), *built),
        lambda cost: cost.mem_params_full_ftm,
    ),
    "ftm": _Route(
        lambda frustum, grid: build_ftm(frustum, grid),
        lambda f, d, ftm: vt_ftm(lift(f, d), ftm),
        lambda cost: cost.mem_params_full_ftm,
    ),
    "matrixvt": _Route(
        _build_ring_ray, vt_matrixvt, lambda cost: cost.mem_params_ringray
    ),
}

BACKENDS = tuple(_ROUTES)


def max_rel_diff(a, b, floor=1e-6):
    """Largest elementwise |a-b| / max(|a|, |b|, floor).

    The floor keeps cells that both routes leave (numerically) empty from
    dominating the ratio.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"max_rel_diff: shapes {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / den).max())


def setting_scene(scene, setting):
    """Rescale a scene's cameras and grids to a benchmark setting.

    Intrinsics scale with the feature extents (same stride, higher image
    resolution); extrinsics, depth range, and BEV extent stay fixed.
    """
    rig = scene.rig
    if setting.n_cameras != rig.n_cameras:
        raise UsageError(
            f"setting {setting.name} expects {setting.n_cameras} cameras, "
            f"config has {rig.n_cameras}"
        )
    sx = setting.feature_width / rig.feature_width
    sy = setting.feature_height / rig.feature_height
    scale = np.diag([sx, sy, 1.0])
    cameras = tuple(
        Camera(scale @ cam.intrinsics, cam.rotation, cam.translation)
        for cam in rig.cameras
    )
    return Scene(
        CameraRig(
            cameras, setting.feature_width, setting.feature_height, rig.image_stride
        ),
        DepthBins(scene.bins.d_min, scene.bins.d_max, setting.depth_bins),
        BevGrid(scene.grid.extent, setting.bev_h, setting.bev_w),
    )


def make_inputs(setting, seed):
    """Deterministic positive inputs: uniform features, categorical depths."""
    rng = np.random.default_rng(seed)
    w = setting.n_cameras * setting.feature_width
    features = rng.random((w, setting.channels), dtype=np.float32)
    depths = rng.random((w, setting.depth_bins), dtype=np.float32) + 1e-3
    depths /= depths.sum(axis=1, keepdims=True)
    return features, depths


def _resolve_settings(settings):
    out = []
    for s in settings:
        if isinstance(s, TransformSetting):
            out.append(s)
        elif s in PRESETS:
            out.append(PRESETS[s])
        else:
            raise UsageError(
                f"unknown setting {s!r}; valid: {', '.join(sorted(PRESETS))}"
            )
    if not out:
        raise UsageError("no settings requested")
    return out


def _check_backends(backends):
    backends = list(backends)
    for b in backends:
        if b not in BACKENDS:
            raise UsageError(f"unknown backend {b!r}; valid: {', '.join(BACKENDS)}")
    if not backends:
        raise UsageError("no backends requested")
    return backends


def _prepare(scene, setting, backends, seed):
    adapted = setting_scene(scene, setting)
    frustum = generate_frustum(adapted.rig, adapted.bins)
    built = {
        b: route.build(frustum, adapted.grid)
        for b, route in _ROUTES.items()
        if b in backends
    }
    return setting, make_inputs(setting, seed), built


def run_bench(config, settings, backends, repeats=20, seed=0, warmup=2):
    """Time each (setting, backend) pair; returns records in request order.

    Matrix construction and input generation happen up front, one setting
    after another; every timed call runs alone. The first `warmup` calls per
    backend are discarded.
    """
    if repeats < 3:
        raise UsageError(f"repeats must be >= 3, got {repeats}")
    if warmup < 0:
        raise UsageError(f"warmup must be >= 0, got {warmup}")
    settings = _resolve_settings(settings)
    backends = _check_backends(backends)
    scene = load_scene(config)

    prepared = [_prepare(scene, s, backends, seed) for s in settings]

    records = []
    for s, (features, depths), built in prepared:
        cost = cost_model(s.channels, s.depth_bins, s.feature_width, s.bev_h, s.bev_w)
        for backend in backends:
            route = _ROUTES[backend]
            for _ in range(warmup):
                route.run(features, depths, built[backend])
            times = np.empty(repeats)
            for i in range(repeats):
                t0 = time.perf_counter()
                route.run(features, depths, built[backend])
                times[i] = time.perf_counter() - t0
            p10, med, p90 = np.percentile(times, [10, 50, 90]).tolist()
            params = int(route.params(cost))
            records.append(
                BenchRecord(s.name, backend, med, p10, p90, params, repeats)
            )
    return records


def flip_ring_bit(rr, k=None):
    """Return a copy of the pair with one ring nonzero removed.

    Used to prove the checker notices a corrupted matrix: dropping any ring
    entry breaks the containment of the exact transport matrix.
    """
    ring = rr.ring
    if ring.nnz == 0:
        raise ValidationError("ring has no nonzeros to flip")
    k = ring.nnz // 2 if k is None else int(k)
    if not 0 <= k < ring.nnz:
        raise ValidationError(f"nonzero index {k} out of range [0, {ring.nnz})")
    row = int(np.searchsorted(ring.row_offsets, k, side="right")) - 1
    offsets = ring.row_offsets.copy()
    offsets[row + 1 :] -= 1
    cols = np.delete(ring.col_indices, k)
    return RingRayPair(
        SparseBinaryMatrix(ring.rows, ring.cols, offsets, cols), rr.ray
    )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of the equivalence suite. All maxima are over every trial."""

    trials: int
    passed: bool
    max_ftm_vs_scatter: float
    max_matrixvt_vs_effective: float
    containment_ok: bool
    spurious_rate: float
    failed_trial_seed: Optional[int]
    failure: Optional[str]

    def lines(self):
        def verdict(v):
            return "PASS" if v else "FAIL"

        out = [
            f"check: containment            spurious rate {self.spurious_rate:.4f}  "
            + verdict(self.containment_ok)
        ]
        if self.failure == "containment":
            out.append("check: equivalence trials     not run (containment failed)")
            return out
        out += [
            f"check: ftm-vs-scatter         max rel diff {self.max_ftm_vs_scatter:.3e}  "
            + verdict(self.max_ftm_vs_scatter <= REL_TOL),
            f"check: matrixvt-vs-effective  max rel diff {self.max_matrixvt_vs_effective:.3e}  "
            + verdict(self.max_matrixvt_vs_effective <= REL_TOL),
        ]
        return out


def _containment_ok(exact, implied):
    # exact <= implied elementwise, checked sparsely: their difference may
    # not contain a positive exact-only entry
    diff = exact._scipy - implied._scipy
    diff.eliminate_zeros()
    return diff.nnz == 0 or float(diff.data.max()) <= 0.0


def run_check(config, trials, seed, channels=8, corrupt_ring=False):
    """Cross-validate every transform route on random inputs.

    First the exact transport matrix must be contained in the
    factorization-implied one; if it is not, no trial runs. Per trial:
    fresh attention, full-height depths and features are drawn and
    compressed; then the exact-matrix transform must match the scatter
    reference (ftm-vs-scatter), and the reformulated transform must match
    the exact-matrix transform applied to the implied matrix
    (matrixvt-vs-effective). Stops at the first failing trial and records
    its seed.
    """
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if channels < 1:
        raise UsageError(f"channels must be >= 1, got {channels}")
    scene = load_scene(config)
    rig, bins, grid = scene.rig, scene.bins, scene.grid
    frustum = generate_frustum(rig, bins)
    ftm = build_ftm(frustum, grid)
    rr = build_ring_ray(frustum, grid)
    if corrupt_ring:
        rr = flip_ring_bit(rr)
    implied = effective_ftm(rr)
    containment = _containment_ok(ftm, implied)
    spurious = (implied.nnz - ftm.nnz) / implied.nnz if implied.nnz else 0.0

    n_c, h_i, w_i = rig.n_cameras, rig.feature_height, rig.feature_width
    n_w, n_d = n_c * w_i, bins.count
    refine = RefineMap.identity(channels)
    zero_embed = np.zeros((h_i, w_i, channels), dtype=np.float32)

    rng = np.random.default_rng(seed)
    trial_seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=trials)]
    maxima = {"ftm-vs-scatter": 0.0, "matrixvt-vs-effective": 0.0}
    failed_seed = None
    failure = None
    if not containment:
        failure = "containment"
    else:
        for ts in trial_seeds:
            trng = np.random.default_rng(ts)
            attn_raw = trng.random((n_c, h_i, w_i), dtype=np.float32) + 1e-3
            attn = PrimeAttention(attn_raw / attn_raw.sum(axis=1, keepdims=True))
            depth_raw = trng.random((n_c, h_i, w_i, n_d), dtype=np.float32) + 1e-3
            depth_full = depth_raw / depth_raw.sum(axis=3, keepdims=True)
            feat_full = trng.random((n_c, h_i, w_i, channels), dtype=np.float32)

            d = prime_depth(depth_full, attn).reshape(n_w, n_d)
            f = prime_feature(feat_full, zero_embed, refine).reshape(n_w, channels)
            lifted = lift(f, d)

            checks = (
                (
                    "ftm-vs-scatter",
                    vt_ftm(lifted, ftm),
                    splat_reference(lifted, frustum, grid),
                ),
                ("matrixvt-vs-effective", vt_matrixvt(f, d, rr), vt_ftm(lifted, implied)),
            )
            for key, lhs, rhs in checks:
                rel = max_rel_diff(lhs, rhs)
                maxima[key] = max(maxima[key], rel)
                if rel > REL_TOL and failure is None:
                    failure = key
            if failure is not None:
                failed_seed = ts
                break

    return CheckReport(
        trials=trials,
        passed=containment and failure is None,
        max_ftm_vs_scatter=maxima["ftm-vs-scatter"],
        max_matrixvt_vs_effective=maxima["matrixvt-vs-effective"],
        containment_ok=containment,
        spurious_rate=float(spurious),
        failed_trial_seed=failed_seed,
        failure=failure,
    )


def emit_csv(records):
    """Records as CSV text: fixed header, repr-exact floats, trailing newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow(repr(v) if isinstance(v, float) else v for v in astuple(r))
    return buf.getvalue()


def parse_csv(text):
    """Inverse of emit_csv; raises FileFormatError on a malformed document."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise FileFormatError("empty benchmark CSV") from None
    if tuple(header) != CSV_FIELDS:
        raise FileFormatError(f"unexpected CSV header {header}")
    types = get_type_hints(BenchRecord).values()
    records = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_FIELDS):
            raise FileFormatError(f"bad CSV row {row}")
        try:
            records.append(BenchRecord(*(t(cell) for t, cell in zip(types, row))))
        except ValueError as exc:
            raise FileFormatError(f"bad CSV row {row}: {exc}") from None
    return records


def emit_json(records):
    """Records as a JSON array of objects, keyed like the CSV fields."""
    return json.dumps([asdict(r) for r in records], indent=2) + "\n"

"""Benchmark and verification harness for the BEV transform backends.

`run_bench` times each backend of `_ROUTES` on named transformation settings
and reports median/p10/p90 wall-clock latency. A table entry holds the
backend's per-scene build, run off the clock (the transport matrices depend
only on geometry), its timed per-frame call, and the `cost_model` count it
reports as `intermediate_params`: closed-form per camera with W_I =
feature_width, not measured. At S1 that is 44 * 112 * 16,384 = 80,740,352
for `scatter`/`ftm` and (44 + 112) * 16,384 = 2,555,904 for `matrixvt`.
`BenchRecord` is the CSV schema.

`run_check` is the equivalence suite. It builds the same `_ROUTES` entries
`run_bench` times, checks that the exact transport matrix is contained in the
factorization-implied one, and then, on inputs drawn by `make_inputs` (the
generator `run_bench` uses), runs each gate: a route against a reference
route, within 1e-5 relative. A non-finite difference fails its gate.
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
    Scene,
    _freeze,
    _numbers,
    generate_frustum,
    load_scene,
)
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
_REL_FLOOR = 1e-6


def _at_least(value, what, least):
    """A request's count as an int: a whole number >= `least`, or UsageError."""
    value = _numbers(value, what, whole=True, error=UsageError)
    if value < least:
        raise UsageError(f"{what} must be >= {least}, got {value}")
    return value


@dataclass(frozen=True)
class TransformSetting:
    """One benchmark point: image feature extents mapped to a BEV size. The
    cameras and depth bins are the config's."""

    name: str
    channels: int
    feature_height: int
    feature_width: int
    bev_h: int
    bev_w: int

    def __post_init__(self):
        extents = {
            f.name: _numbers(
                getattr(self, f.name), f"setting {self.name}: {f.name}",
                whole=True, error=ValidationError,
            )
            for f in fields(self)[1:]
        }
        if min(extents.values()) < 1:
            raise ValidationError(f"setting {self.name}: extents must be positive")
        _freeze(self, **extents)


# Built-in ladder from small features / small grid to large / large, over
# the config's cameras and depth bins (6 and 112 on the bundled rig);
# S-numbers grow in feature and grid size.
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
        build_ring_ray, vt_matrixvt, lambda cost: cost.mem_params_ringray
    ),
}

BACKENDS = tuple(_ROUTES)


def max_rel_diff(a, b):
    """Largest elementwise |a-b| / max(|a|, |b|, _REL_FLOOR).

    The floor keeps cells that both routes leave (numerically) empty from
    dominating the ratio. A non-finite entry in either input gives nan.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValidationError(f"max_rel_diff: shapes {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), _REL_FLOOR)
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf are nan
        return float((np.abs(a - b) / den).max())


def setting_scene(scene, setting):
    """Rescale a scene's cameras and BEV grid to a benchmark setting.

    Intrinsics scale with the feature extents (same stride, higher image
    resolution); the cameras' count and extrinsics, the depth bins and the
    BEV extent are the config's, so every setting runs on any rig.
    """
    rig = scene.rig
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
        scene.bins,
        BevGrid(scene.grid.extent, setting.bev_h, setting.bev_w),
    )


def make_inputs(scene, channels, seed):
    """Deterministic positive inputs for a scene: uniform (W, channels)
    features and categorical (W, N_d) depths, W = cameras * feature width."""
    rng = np.random.default_rng(seed)
    w = scene.rig.n_cameras * scene.rig.feature_width
    features = rng.random((w, channels), dtype=np.float32)
    depths = rng.random((w, scene.bins.count), dtype=np.float32) + 1e-3
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


def _build(scene, backends):
    """The frustum, then each requested route's per-scene `build`, by name."""
    frustum = generate_frustum(scene.rig, scene.bins)
    return {
        b: route.build(frustum, scene.grid)
        for b, route in _ROUTES.items()
        if b in backends
    }


def run_bench(config, settings, backends, repeats=20, seed=0, warmup=2):
    """Time each (setting, backend) pair; returns records in request order.

    Matrix construction and input generation happen up front, one setting
    after another; every timed call runs alone. The first `warmup` calls per
    backend are discarded.
    """
    repeats = _at_least(repeats, "repeats", 3)
    warmup = _at_least(warmup, "warmup", 0)
    seed = _at_least(seed, "seed", 0)
    settings = _resolve_settings(settings)
    backends = _check_backends(backends)
    scene = load_scene(config)

    prepared = []
    for s in settings:
        adapted = setting_scene(scene, s)
        inputs = make_inputs(adapted, s.channels, seed)
        prepared.append((s, inputs, _build(adapted, backends)))

    records = []
    for s, (features, depths), built in prepared:
        cost = cost_model(s.channels, scene.bins.count, s.feature_width, s.bev_h, s.bev_w)
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


def flip_ring_bit(rr):
    """Return a copy of the pair with its middle ring nonzero removed.

    Used to prove the checker notices a corrupted matrix: dropping any ring
    entry breaks the containment of the exact transport matrix.
    """
    ring = rr.ring
    if ring.nnz == 0:
        raise ValidationError("ring has no nonzeros to flip")
    k = ring.nnz // 2
    row = int(np.searchsorted(ring.row_offsets, k, side="right")) - 1
    offsets = ring.row_offsets.copy()
    offsets[row + 1 :] -= 1
    cols = np.delete(ring.col_indices, k)
    return RingRayPair(
        SparseBinaryMatrix(ring.rows, ring.cols, offsets, cols), rr.ray
    )


@dataclass(frozen=True)
class CheckReport:
    """Outcome of the equivalence suite. `maxima` maps each gate to its
    largest relative difference over the trials run, and is empty when
    containment failed; `failure` is "containment" or the first failing gate."""

    trials: int
    spurious_rate: float
    maxima: dict
    failure: Optional[str]
    failed_trial_seed: Optional[int]

    @property
    def containment_ok(self):
        return self.failure != "containment"

    @property
    def passed(self):
        return self.failure is None

    def lines(self):
        verdict = {True: "PASS", False: "FAIL"}.get
        rows = {
            "containment": f"spurious rate {self.spurious_rate:.4f}  "
            + verdict(self.containment_ok)
        }
        for name, rel in self.maxima.items():
            rows[name] = f"max rel diff {rel:.3e}  " + verdict(rel <= REL_TOL)
        if not self.containment_ok:
            rows["equivalence trials"] = "not run (containment failed)"
        return [f"check: {name:<22} {text}" for name, text in rows.items()]


def _containment_ok(exact, implied):
    # exact <= implied elementwise, checked sparsely: their difference may
    # not contain a positive exact-only entry
    diff = exact._scipy - implied._scipy
    diff.eliminate_zeros()
    return diff.nnz == 0 or float(diff.data.max()) <= 0.0


def run_check(config, trials, seed, corrupt_ring=False):
    """Cross-validate the `_ROUTES` entries `run_bench` times, built the same way.

    First the exact transport matrix must be contained in the
    factorization-implied one; if it is not, no trial runs. Per trial:
    `make_inputs(scene, 8, trial_seed)` draws 8-channel features and
    depths, and each gate runs a route and its reference route on them:
    `ftm` against `scatter` (ftm-vs-scatter), and `matrixvt` against `ftm`
    over the implied matrix (matrixvt-vs-effective). A gate fails above
    1e-5 relative or on a non-finite difference, which any non-finite
    route output gives. Stops at the first failing trial and records its
    seed. `trials` must be >= 1 and `seed` >= 0, else UsageError.
    """
    trials = _at_least(trials, "trials", 1)
    seed = _at_least(seed, "seed", 0)
    scene = load_scene(config)
    built = _build(scene, BACKENDS)
    rr = flip_ring_bit(built["matrixvt"]) if corrupt_ring else built["matrixvt"]
    implied = effective_ftm(rr)
    exact = built["ftm"]
    spurious = (implied.nnz - exact.nnz) / implied.nnz if implied.nnz else 0.0
    # name: ((route, its build), (reference route, its build))
    gates = {
        "ftm-vs-scatter": (("ftm", exact), ("scatter", built["scatter"])),
        "matrixvt-vs-effective": (("matrixvt", rr), ("ftm", implied)),
    }

    if not _containment_ok(exact, implied):
        return CheckReport(trials, spurious, {}, "containment", None)

    trial_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)
    maxima = dict.fromkeys(gates, 0.0)
    for ts in trial_seeds.tolist():
        f, d = make_inputs(scene, 8, ts)
        for name, routes in gates.items():
            lhs, rhs = (_ROUTES[route].run(f, d, on) for route, on in routes)
            # np.maximum keeps a nan, where max(0.0, nan) would drop it
            maxima[name] = float(np.maximum(maxima[name], max_rel_diff(lhs, rhs)))
        # every earlier trial passed, so a maximum that fails is this trial's
        failure = next((n for n, rel in maxima.items() if not rel <= REL_TOL), None)
        if failure is not None:
            return CheckReport(trials, spurious, maxima, failure, ts)
    return CheckReport(trials, spurious, maxima, None, None)


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

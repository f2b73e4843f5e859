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
`emit_check_json` writes its `CheckReport`, the check's one record, as JSON:
`trial_seeds` lists the seeds of the trials run, `scene_digest` is the
digest of the scene that was checked, and the structure counts (`ftm_nnz`,
`ring_nnz`, `ray_nnz`, `implied_nnz`, `ftm_bytes`, `pair_bytes`,
`empty_cell_share`) say what was built. Containment, `spurious_rate` and
`flip_ring_bit` all read one mask, `transform._held`: which implied
entries the exact matrix holds.
Containment holds when that mask counts `ftm_nnz` entries. `spurious_rate`
is the share of implied entries the exact matrix lacks, in [0, 1]; whenever
containment holds it is `(implied_nnz - ftm_nnz) / implied_nnz`.
"""
from __future__ import annotations

import csv
import io
import json
import math
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
    _real,
    _whole,
    generate_frustum,
    load_scene,
    scene_digest,
)
from ..reference import build_ftm, lift, splat_reference, vt_ftm
from ..tensor_core import SparseBinaryMatrix, _held_bytes
from ..transform import (
    RingRayPair,
    _held,
    _spurious_rate,
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
    "emit_check_json",
    "flip_ring_bit",
    "max_rel_diff",
]

REL_TOL = 1e-5
_REL_FLOOR = 1e-6


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
        what = f"setting {self.name}: "
        extents = {
            f.name: _whole(getattr(self, f.name), what + f.name, 1, ValidationError)
            for f in fields(self)[1:]
        }
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
    dominating the ratio. A non-finite entry in either input gives nan;
    an input that is not an array of real numbers (`geometry._real`) is a
    ValidationError naming it.
    """
    a = np.asarray(_real(a, "a"), dtype=np.float64)
    b = np.asarray(_real(b, "b"), dtype=np.float64)
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


def _time_setting(scene, s, backends, repeats, seed):
    """The records of one setting: its inputs and matrices are built off the
    clock, then each backend is warmed up by two untimed calls and timed."""
    adapted = setting_scene(scene, s)
    features, depths = make_inputs(adapted, s.channels, seed)
    built = _build(adapted, backends)
    cost = cost_model(s.channels, scene.bins.count, s.feature_width, s.bev_h, s.bev_w)
    records = []
    for backend in backends:
        route = _ROUTES[backend]
        for _ in range(2):
            route.run(features, depths, built[backend])
        times = np.empty(repeats)
        for i in range(repeats):
            t0 = time.perf_counter()
            route.run(features, depths, built[backend])
            times[i] = time.perf_counter() - t0
        p10, med, p90 = np.percentile(times, [10, 50, 90]).tolist()
        params = int(route.params(cost))
        records.append(BenchRecord(s.name, backend, med, p10, p90, params, repeats))
    return records


def run_bench(config, settings, backends, repeats=20, seed=0):
    """Time each (setting, backend) pair; returns records in request order.

    One setting at a time is built, warmed up and timed, so only its inputs
    and matrices are held; every timed call runs alone.
    """
    repeats = _whole(repeats, "repeats", 3, UsageError)
    seed = _whole(seed, "seed", 0, UsageError)
    settings = _resolve_settings(settings)
    backends = _check_backends(backends)
    scene = load_scene(config)
    return [r for s in settings for r in _time_setting(scene, s, backends, repeats, seed)]


def flip_ring_bit(rr, exact):
    """Return a copy of the pair with one ring bin that `exact`, the scene's
    exact transport matrix, holds removed: the middle such (ray entry, bin).

    Used to prove the checker notices a corrupted matrix. Not every ring
    entry is exact: a row holds the bins of its camera's other columns too.
    An exact one, (cell s, column w, bin d), is implied only by the ring row
    of ray entry (s, w), so dropping it always breaks containment. The
    exact bins are those of `transform._held`'s mask; a pair with none, as
    when `exact` is empty, is a ValidationError, and so is any pair that
    `_held` refuses. The bin is deleted from the ring's CSR arrays: its
    column id goes, and every row offset past it drops by one.
    """
    # the implied matrix's entries are the ring's, in ring order
    held = np.flatnonzero(_held(exact, effective_ftm(rr)))
    if held.size == 0:
        raise ValidationError("the exact matrix holds no ring bin to flip")
    ring, at = rr.ring, held[held.size // 2]
    offsets = ring.row_offsets - (ring.row_offsets > at)
    ring = SparseBinaryMatrix._built(
        ring.rows, ring.cols, offsets, np.delete(ring.col_indices, at)
    )
    return RingRayPair(ring, rr.ray)


@dataclass(frozen=True)
class CheckReport:
    """The one record of a `run_check`: `maxima` maps each gate to its
    largest relative difference over the trials run (empty when containment
    failed), `failure` is "containment" or the first failing gate, and
    `trial_seeds` are the input seeds, drawn from `seed`, of the trials run.
    The last seven fields say what was built: the nnz of the exact matrix,
    of the checked pair's ring and ray and of the matrix they imply, the
    bytes that the exact matrix and the pair hold, and the share of BEV
    cells that no sample lands in. A byte count counts each buffer once and
    includes the scipy handle the object runs on: the exact matrix's own,
    and the pair's plan's (`RingRayPair._buffers`). `lines` prints none of
    them; they are in the JSON report."""

    trials: int
    spurious_rate: float
    maxima: dict
    failure: Optional[str]
    seed: int
    trial_seeds: tuple
    scene_digest: str
    ftm_nnz: int
    ring_nnz: int
    ray_nnz: int
    implied_nnz: int
    ftm_bytes: int
    pair_bytes: int
    empty_cell_share: float

    @property
    def passed(self):
        return self.failure is None

    @property
    def failed_trial_seed(self):
        return None if self.failure in (None, "containment") else self.trial_seeds[-1]

    def lines(self):
        """All that `bevx-bench check` prints: a line per check, then the result."""
        contained = self.failure != "containment"
        verdict = {True: "PASS", False: "FAIL"}.get
        rows = {
            "containment": f"spurious rate {self.spurious_rate:.4f}  "
            + verdict(contained)
        }
        for name, rel in self.maxima.items():
            rows[name] = f"max rel diff {rel:.3e}  " + verdict(rel <= REL_TOL)
        if not contained:
            rows["equivalence trials"] = "not run (containment failed)"
        result = f"PASS ({self.trials} trials, seed {self.seed})"
        if not self.passed:
            seed = self.failed_trial_seed
            at_seed = "" if seed is None else f", first failing trial seed {seed}"
            result = f"FAIL in {self.failure}{at_seed}"
        lines = [f"check: {name:<22} {text}" for name, text in rows.items()]
        return lines + [f"result: {result}"]


def run_check(config, trials, seed, corrupt_ring=False):
    """Cross-validate the `_ROUTES` entries `run_bench` times, built the same way.

    First the exact transport matrix must be contained in the
    factorization-implied one: `_held`'s mask of the implied entries it
    holds must count all of its entries. If not, no trial runs. Per trial:
    `make_inputs(scene, 8, trial_seed)` draws 8-channel features and
    depths, and each gate runs a route and its reference route on them:
    `ftm` against `scatter` (ftm-vs-scatter), and `matrixvt` against `ftm`
    over the implied matrix (matrixvt-vs-effective). A gate fails above
    1e-5 relative or on a non-finite difference, which any non-finite
    route output gives. Stops at the first failing trial. `trials` must be
    >= 1 and `seed` >= 0, else UsageError.
    """
    trials = _whole(trials, "trials", 1, UsageError)
    seed = _whole(seed, "seed", 0, UsageError)
    scene = load_scene(config)
    built = _build(scene, BACKENDS)
    exact = built["ftm"]
    rr = flip_ring_bit(built["matrixvt"], exact) if corrupt_ring else built["matrixvt"]
    implied = effective_ftm(rr)
    held = _held(exact, implied)
    # name: ((route, its build), (reference route, its build))
    gates = {
        "ftm-vs-scatter": (("ftm", exact), ("scatter", built["scatter"])),
        "matrixvt-vs-effective": (("matrixvt", rr), ("ftm", implied)),
    }

    maxima, failure, trial_seeds = {}, "containment", []
    if np.count_nonzero(held) == exact.nnz:
        maxima, failure = dict.fromkeys(gates, 0.0), None
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            trial_seeds.append(int(rng.integers(0, 2**63 - 1)))
            f, d = make_inputs(scene, 8, trial_seeds[-1])
            for name, routes in gates.items():
                lhs, rhs = (_ROUTES[route].run(f, d, on) for route, on in routes)
                # np.maximum keeps a nan, where max(0.0, nan) would drop it
                maxima[name] = float(np.maximum(maxima[name], max_rel_diff(lhs, rhs)))
            # every earlier trial passed, so a maximum that fails is this trial's
            failure = next((n for n, rel in maxima.items() if not rel <= REL_TOL), None)
            if failure is not None:
                break
    empty_cells = int(np.count_nonzero(np.diff(exact.row_offsets) == 0))
    return CheckReport(
        trials,
        _spurious_rate(held),
        maxima,
        failure,
        seed,
        tuple(trial_seeds),
        scene_digest(scene),
        exact.nnz,
        rr.ring.nnz,
        rr.ray.nnz,
        implied.nnz,
        _held_bytes(exact._buffers()),
        _held_bytes(rr._buffers()),
        empty_cells / exact.rows,
    )


def emit_check_json(report):
    """A `run_check` report as JSON text: its fields, `failed_trial_seed`,
    `passed` and the gate tolerance. JSON has no nan, so a nan maximum is
    written as null."""
    doc = asdict(report)
    doc["maxima"] = {
        name: None if math.isnan(rel) else rel for name, rel in report.maxima.items()
    }
    doc.update(
        failed_trial_seed=report.failed_trial_seed,
        passed=report.passed,
        rel_tol=REL_TOL,
    )
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


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

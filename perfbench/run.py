#!/usr/bin/env python3
"""bevx benchmark: one workload per process, one caller thread, closed loop.

    python3 perfbench/run.py --workload frame_matrixvt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in a fresh child process, one after
another. A run prints a report (every metric by name with its unit), a
provenance line, and as its last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics; with `--trace 1` they are the per-layer
metrics of a traced run, whose spans go to `perfbench/out/`.

Exit codes: 0 all ops correct, 1 an op failed its correctness check or
raised, 2 the bevx sources or the bundled config are missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
CONFIG = ROOT / "configs" / "six_camera_rig.json"
WORKLOADS = ("frame_matrixvt", "frame_exact", "scene_churn")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread. On a 2-vCPU VM a 2-thread sgemm waits whenever the
# host has the second vCPU descheduled: the (528 x 80) @ (80 x 80) refine
# product in prime_feature was seen to go from 0.1 ms to 48 ms that way.
BLAS_THREADS = 1

BRING_UPS = 15  # setup_s is the median of this many bring-ups
CENSUS_ROUNDS = 5  # traced run only
CENSUS_STEADY = 3  # steady calls after each kernel's first call in a census round
MIN_OPS = 200  # so that >= 10 samples lie above latency_p95_ms
LOOP_CAP_S = 120  # keeps a run well inside 180 s even if ops get slow
CHILD_TIMEOUT_S = 600
# scene_churn's fleet holds enough rigs for this many visits per second of
# the run: about 2.5x the visit rate when the benchmark was written
CHURN_VISITS_PER_S = 50

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "prime.depth_ms": "ms",
    "prime.feature_ms": "ms",
    "prime.minflt_per_op": "count",
    "transform.vt_matrixvt_ms": "ms",
    "transform.vt_matrixvt_minflt": "count",
    "transform.first_call_ms": "ms",
    "transform.build_ring_ray_ms": "ms",
    "transform.save_ring_ray_ms": "ms",
    "transform.load_ring_ray_ms": "ms",
    "transform.cache_hits": "count",
    "transform.cache_misses": "count",
    "transform.ring_nnz": "count",
    "transform.ray_nnz": "count",
    "transform.implied_nnz": "count",
    "transform.useful_pair_ratio": "ratio",
    "reference.lift_ms": "ms",
    "reference.vt_ftm_ms": "ms",
    "reference.vt_ftm_minflt": "count",
    "reference.build_ftm_ms": "ms",
    "reference.ftm_nnz": "count",
    "reference.lift_bytes": "B",
    "geometry.generate_frustum_ms": "ms",
    "geometry.frustum_points": "count",
    "tensor_core.spmm_flops": "flop",
    "tensor_core.spmm_bytes_computed": "B",
    "tensor_core.out_bytes": "B",
    "tensor_core.empty_cell_share": "ratio",
    "fileio.cache_bytes": "B",
    "trace.overhead_ms": "ms",
    "ops.first_minflt": "count",
    "ops.steady_minflt": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_blas_threads():
    """Fix the BLAS/OpenMP pool sizes; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import bevx from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "bevx" / "__init__.py").is_file() or not CONFIG.is_file():
        sys.stderr.write(f"bevx sources or {CONFIG.name} not found under {ROOT}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bevx

    if Path(bevx.__file__).resolve().parent != (src / "bevx").resolve():
        sys.stderr.write(f"imported bevx from {bevx.__file__}, not from {src}\n")
        sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def percentile(xs, q):
    import numpy as np

    return float(np.percentile(xs, q)) if xs else float("nan")


def measure(wl, seconds, trace):
    """Bring up, take the census, then run ops in a closed loop.

    The ops use the first bring-up. The other bring-ups are spread evenly
    over the loop and discarded, so that the median in setup_s spans the
    same stretch of time as the ops do and not just its first seconds.
    In the traced run every other op is traced, so the untraced ops of the
    same run give the tracing overhead.
    """
    from tracing import Tracer, minflt

    tr = Tracer(enabled=trace)
    setup = []

    def bring_up():
        tr.enabled = trace
        tr.op = f"setup-{len(setup)}"
        t0 = time.perf_counter()
        state = tr.call("perfbench.bring_up", wl.bring_up, tr)
        setup.append(time.perf_counter() - t0)
        tr.enabled = False
        return state

    wl.adopt(bring_up())
    rounds, steady = (CENSUS_ROUNDS, CENSUS_STEADY) if trace else (1, None)
    tr.enabled = trace
    for k in range(rounds):
        tr.op = f"census-{k}"
        structure = tr.call("perfbench.census", wl.census, tr, steady)

    lat = {True: [], False: []}
    faults, failures = [], []
    busy_ns = 0
    n = 0
    start = time.perf_counter()
    while wl.has_next(n):
        res = err = None
        elapsed = time.perf_counter() - start
        if len(setup) < BRING_UPS and elapsed >= seconds * len(setup) / BRING_UPS:
            bring_up()
            continue
        if elapsed >= LOOP_CAP_S or (
            elapsed >= seconds and n >= MIN_OPS and wl.at_boundary(n)
        ):
            break
        traced = trace and n % 2 == 0
        tr.enabled = traced
        tr.op = f"op-{n}"
        f0 = minflt()
        t0 = time.perf_counter_ns()
        try:
            res = tr.call("perfbench.op", wl.op, tr, n)
        except Exception:  # a raising op counts as failed; the loop goes on
            err = traceback.format_exc(limit=3)
        t1 = time.perf_counter_ns()
        f1 = minflt()
        tr.enabled = False
        busy_ns += t1 - t0
        faults.append(f1 - f0)
        if res is not None:
            err = wl.check(n, res)
        if err:
            failures.append({"op": n, "error": err})
        else:
            lat[traced].append((t1 - t0) / 1e6)
        n += 1
    while len(setup) < BRING_UPS:
        bring_up()
    return {
        "setup": setup,
        "structure": structure,
        "lat": lat,
        "faults": faults,
        "failures": failures,
        "attempted": n,
        "busy_s": busy_ns / 1e9,
        "spans": tr.spans,
    }


def end_to_end(m):
    ok = m["lat"][False]
    return {
        "latency_p50_ms": percentile(ok, 50),
        "latency_p95_ms": percentile(ok, 95),
        "throughput_per_s": len(ok) / m["busy_s"] if m["busy_s"] else 0.0,
        "setup_s": median(m["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def structure_metrics(wl, s):
    from workloads import spmm_counts

    spmm = spmm_counts(s, wl.spmm_route)
    return {
        "transform.ring_nnz": s["ring_nnz"],
        "transform.ray_nnz": s["ray_nnz"],
        "transform.implied_nnz": s["implied_nnz"],
        "transform.useful_pair_ratio": s["ftm_nnz"] / s["implied_nnz"],
        "reference.ftm_nnz": s["ftm_nnz"],
        "reference.lift_bytes": s["columns"] * s["depth_bins"] * s["channels"] * 4,
        "geometry.frustum_points": s["frustum_points"],
        "tensor_core.spmm_flops": spmm["flops"],
        "tensor_core.spmm_bytes_computed": spmm["bytes"],
        "tensor_core.out_bytes": spmm["out_bytes"],
        "tensor_core.empty_cell_share": 1.0 - s["cells_hit"] / s["cells"],
        "fileio.cache_bytes": s["cache_bytes"],
    }


def layer_metrics(wl, m):
    """Per-layer metrics from the spans of a traced run.

    A `*_ms` metric is the median self time of the untagged spans of that
    call (plan-building first calls and cache misses are left out), over
    bring-ups, census rounds and traced ops. For a call the ops make, the
    ops outnumber the rest; the others only run in bring-ups and census.
    """
    from tracing import self_times

    spans = m["spans"]
    selfs = self_times(spans)
    by = defaultdict(list)
    census_mvt = defaultdict(lambda: {"first": [], "": []})
    for s, (ns, flt) in zip(spans, selfs):
        by[(s.name, s.tag)].append((ns / 1e6, flt))
        if s.name == "transform.vt_matrixvt" and s.op.startswith("census-"):
            census_mvt[s.op][s.tag].append(ns / 1e6)

    def ms(name):
        return median([t for t, _ in by[(name, "")]])

    def flt(name):
        return median([f for _, f in by[(name, "")]])

    lat = m["lat"]
    out = {
        "prime.depth_ms": ms("prime.prime_depth"),
        "prime.feature_ms": ms("prime.prime_feature"),
        "prime.minflt_per_op": flt("prime.prime_depth") + flt("prime.prime_feature"),
        "transform.vt_matrixvt_ms": ms("transform.vt_matrixvt"),
        "transform.vt_matrixvt_minflt": flt("transform.vt_matrixvt"),
        # per census round: the first call minus the steady calls that
        # follow it on the same inputs, so that only the plan build differs
        "transform.first_call_ms": median(
            [r["first"][0] - median(r[""]) for r in census_mvt.values()]
        ),
        "transform.build_ring_ray_ms": ms("transform.build_ring_ray"),
        "transform.save_ring_ray_ms": ms("transform.save_ring_ray"),
        "transform.load_ring_ray_ms": ms("transform.load_ring_ray"),
        "transform.cache_hits": wl.cache_hits,
        "transform.cache_misses": wl.cache_misses,
        "reference.lift_ms": ms("reference.lift"),
        "reference.vt_ftm_ms": ms("reference.vt_ftm"),
        "reference.vt_ftm_minflt": flt("reference.vt_ftm"),
        "reference.build_ftm_ms": ms("reference.build_ftm"),
        "geometry.generate_frustum_ms": ms("geometry.generate_frustum"),
        "trace.overhead_ms": percentile(lat[True], 50) - percentile(lat[False], 50),
    }
    out.update(fault_metrics(m))
    out.update(structure_metrics(wl, m["structure"]))
    return out


def fault_metrics(m):
    """Minor faults of the first op and the median of the ops after it."""
    return {
        "ops.first_minflt": m["faults"][0] if m["faults"] else float("nan"),
        "ops.steady_minflt": median(m["faults"][1:]),
    }


def lscpu_caches():
    try:
        proc = subprocess.run(
            ["lscpu"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "LC_ALL": "C"},
        )
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in proc.stdout.splitlines():
        key, _, value = line.partition(":")
        if key.strip().endswith("cache"):
            caches[key.strip()] = value.strip()
    return caches


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(args, wl):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setting": wl.setting,
        "config_digest": wl.digest,
        "loop": "closed, 1 caller thread",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads_env": {
            var: os.environ.get(var) for var in ("BEVX_THREADS",) + THREAD_VARS
        },
        "git_revision": git_revision(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "input_pool_bytes": wl.pool_bytes,
        "cpu_caches": lscpu_caches(),
    }


def make_workload(name, seed, seconds, workdir):
    from workloads import FrameWorkload, SceneChurn

    if name == "frame_matrixvt":
        return FrameWorkload("matrixvt", CONFIG, seed, workdir)
    if name == "frame_exact":
        return FrameWorkload("exact", CONFIG, seed, workdir)
    visits = max(MIN_OPS, math.ceil(seconds * CHURN_VISITS_PER_S))
    return SceneChurn(CONFIG, seed, visits, workdir)


def run_one(args):
    set_blas_threads()
    import_library()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = make_workload(args.workload, args.seed, args.seconds, workdir)
        m = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(m["failures"])
    attempted = m["attempted"]
    if args.trace:
        values, units = layer_metrics(wl, m), LAYER_UNITS
    else:
        values, units = end_to_end(m), E2E_UNITS
    report = dict(values)
    report.update(
        ops_attempted=attempted,
        ops_failed=failed,
        ops_failed_share=failed / attempted if attempted else 1.0,
        max_rel_diff=wl.max_rel_diff,
    )
    if not args.trace:
        report.update(fault_metrics(m))
        report.update(structure_metrics(wl, m["structure"]))
    report_units = {
        **LAYER_UNITS,
        **E2E_UNITS,
        "ops_attempted": "count",
        "ops_failed": "count",
        "ops_failed_share": "ratio",
        "max_rel_diff": "ratio",
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in report.items():
        print(f"{name:34s} {value!r:>24} {report_units[name]}")
    for f in m["failures"][:5]:
        print(f"FAILED op {f['op']}: {f['error']}", file=sys.stderr)
    prov = provenance(args, wl)
    print("provenance " + json.dumps(prov))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracing import write_spans

        write_spans(OUT_DIR / f"{stem}-spans.jsonl", m["spans"])
    correct = failed == 0 and attempted > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(
            {
                "result": result,
                "report": report,
                "provenance": prov,
                "setup_s_samples": m["setup"],
                "latency_ms": {"untraced": m["lat"][False], "traced": m["lat"][True]},
                "minflt_per_op": m["faults"],
                "failures": m["failures"],
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process, so warmup cannot leak between them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2:
            return 2
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = None
        if proc.returncode or res is None:
            code = max(code, proc.returncode or 1)
        if res is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

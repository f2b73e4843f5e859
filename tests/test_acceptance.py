"""End-to-end acceptance gates.

Each test asserts one headline guarantee and reports a PASS/FAIL line with
the measured margin through the `record_acceptance` helper; the collected
lines print as a summary block at the end of the run.
"""
import time

import numpy as np
import pytest

from bevx import (
    PrimeAttention,
    build_ftm,
    build_ring_ray,
    cost_model,
    effective_ftm,
    generate_frustum,
    lift,
    prime_depth,
    splat_reference,
    vt_ftm,
    vt_matrixvt,
)
from bevx.bench import max_rel_diff, parse_csv, run_bench
from bevx.bench.cli import main
from conftest import record_acceptance
from oracles import densify, dense_reformulated, random_scene, ring_ray_loop

REL_TOL = 1e-5


@pytest.fixture(scope="module")
def equivalence_sweep():
    """A1/A2 shared sweep: >=100 random scenes spanning the stated extents."""
    rng = np.random.default_rng(20260826)
    combos = [
        (w_i, n_d, cells)
        for w_i in (8, 44)
        for n_d in (16, 112)
        for cells in (16, 128)
    ]
    t0 = time.perf_counter()
    trials = 0
    max_mvt_vs_dense = 0.0
    max_ftm_vs_splat = 0.0
    for rep in range(13):
        for w_i, n_d, cells in combos:
            scene = random_scene(
                rng, n_cameras=6, w_i=w_i, h_i=2, n_d=n_d, grid_cells=cells
            )
            frustum = generate_frustum(scene.rig, scene.bins)
            rr = build_ring_ray(frustum, scene.grid)
            ftm = build_ftm(frustum, scene.grid)

            w = 6 * w_i
            channels = int(rng.integers(3, 9))
            features = rng.random((w, channels), dtype=np.float32)
            depths = rng.random((w, n_d), dtype=np.float32) + 1e-3
            depths /= depths.sum(axis=1, keepdims=True)
            lifted = lift(features, depths)

            max_mvt_vs_dense = max(
                max_mvt_vs_dense,
                max_rel_diff(
                    vt_matrixvt(features, depths, rr),
                    dense_reformulated(features, depths, rr),
                ),
            )
            max_ftm_vs_splat = max(
                max_ftm_vs_splat,
                max_rel_diff(
                    vt_ftm(lifted, ftm), splat_reference(lifted, frustum, scene.grid)
                ),
            )
            trials += 1
    elapsed = time.perf_counter() - t0
    return trials, max_mvt_vs_dense, max_ftm_vs_splat, elapsed


@pytest.fixture(scope="module")
def small_scene_sweep():
    """A5/A6 shared sweep: >=20 random small scenes with exhaustive oracles."""
    rng = np.random.default_rng(97)
    t0 = time.perf_counter()
    results = []
    for trial in range(22):
        n_c = int(rng.integers(1, 4))
        w_i = int(rng.choice([4, 8, 16]))
        if n_c * w_i > 64:
            w_i = 64 // n_c
        n_d = int(rng.choice([4, 8, 16, 32]))
        cells = int(rng.choice([8, 16, 32]))
        scene = random_scene(
            rng, n_cameras=n_c, w_i=w_i, h_i=2, n_d=n_d, grid_cells=cells
        )
        frustum = generate_frustum(scene.rig, scene.bins)
        rr = build_ring_ray(frustum, scene.grid)
        oracle_ring, oracle_ray = ring_ray_loop(frustum, scene.grid)
        ftm = build_ftm(frustum, scene.grid)
        implied = effective_ftm(rr)
        results.append(
            {
                "ring_exact": rr.ring == oracle_ring,
                "ray_exact": rr.ray == oracle_ray,
                "contained": bool(
                    (densify(ftm) <= densify(implied)).all()
                ),
                "spurious": (implied.nnz - ftm.nnz) / implied.nnz
                if implied.nnz
                else 0.0,
            }
        )
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_a1_reformulated_matches_dense_oracle(equivalence_sweep):
    trials, mvt_diff, _, elapsed = equivalence_sweep
    ok = trials >= 100 and mvt_diff <= REL_TOL and elapsed <= 120.0
    record_acceptance(
        "A1",
        ok,
        f"matrixvt vs dense oracle max rel diff {mvt_diff:.3e} <= 1e-5 "
        f"over {trials} random scenes in {elapsed:.1f}s",
    )


def test_a2_exact_matrix_matches_scatter(equivalence_sweep):
    trials, _, ftm_diff, elapsed = equivalence_sweep
    ok = trials >= 100 and ftm_diff <= REL_TOL and elapsed <= 120.0
    record_acceptance(
        "A2",
        ok,
        f"ftm vs scatter max rel diff {ftm_diff:.3e} <= 1e-5 "
        f"over the same {trials} scenes",
    )


def test_a3_headline_cost_ratios():
    cost = cost_model(80, 112, 44, 128, 128)
    red = cost.reduction_flops
    save = cost.saving_memory
    ok = 46.0 < red < 46.5 and 0.96 <= save <= 0.97
    record_acceptance(
        "A3",
        ok,
        f"flops reduction {red:.4f} (= 8960/193) in (46.0, 46.5), "
        f"memory saving {save:.4f} in [0.96, 0.97]",
    )


def test_a4_parameter_reduction_ratios():
    ratios = {}
    for w_i in (44, 88):
        cost = cost_model(80, 112, w_i, 128, 128)
        ratios[w_i] = cost.mem_params_full_ftm / cost.mem_params_ringray
    ok = (
        float(f"{ratios[44]:.3g}") == 31.6
        and float(f"{ratios[88]:.3g}") == 49.3
        and abs(ratios[88] - 49.28) < 5e-3
    )
    record_acceptance(
        "A4",
        ok,
        f"param ratio {ratios[44]:.4f} -> 31.6 (width 44), "
        f"{ratios[88]:.4f} -> 49.28 (width 88), 3 significant figures",
    )


def test_a5_builder_matches_exhaustive_loop(small_scene_sweep):
    results, elapsed = small_scene_sweep
    exact = sum(r["ring_exact"] and r["ray_exact"] for r in results)
    ok = exact == len(results) >= 20 and elapsed <= 60.0
    record_acceptance(
        "A5",
        ok,
        f"ring/ray bit-for-bit equal to the exhaustive loop on "
        f"{exact}/{len(results)} small scenes in {elapsed:.1f}s",
    )


def test_a6_containment_with_spurious_rate(small_scene_sweep):
    results, _ = small_scene_sweep
    contained = sum(r["contained"] for r in results)
    rates = [r["spurious"] for r in results]
    ok = contained == len(results)
    record_acceptance(
        "A6",
        ok,
        f"exact matrix contained in implied one on {contained}/{len(results)} "
        f"scenes; spurious-entry rate mean {np.mean(rates):.4f}, "
        f"max {max(rates):.4f}",
    )


def test_a7_compressed_depth_stays_on_simplex():
    rng = np.random.default_rng(7)
    n_c, h_i, w_i, n_d = 1, 8, 1000, 16
    depth = rng.random((n_c, h_i, w_i, n_d), dtype=np.float32) + 1e-3
    depth /= depth.sum(axis=3, keepdims=True)
    attn = rng.random((n_c, h_i, w_i), dtype=np.float32) + 1e-3
    attn /= attn.sum(axis=1, keepdims=True)
    sums = prime_depth(depth, PrimeAttention(attn)).sum(axis=2)
    worst = float(np.abs(sums - 1.0).max())
    ok = sums.shape == (n_c, w_i) and worst <= 1e-5
    record_acceptance(
        "A7",
        ok,
        f"all {w_i} compressed depth columns sum to 1 within {worst:.3e}",
    )


def test_a8_reformulated_at_least_twice_as_fast(rig_config_path):
    records = run_bench(
        rig_config_path, ["S1", "S3"], ["matrixvt", "ftm"], repeats=20, seed=0
    )
    medians = {(r.setting, r.backend): r.median_s for r in records}
    speedups = {
        s: medians[(s, "ftm")] / medians[(s, "matrixvt")] for s in ("S1", "S3")
    }
    ok = all(
        medians[(s, "matrixvt")] < medians[(s, "ftm")] and speedups[s] >= 2.0
        for s in ("S1", "S3")
    )
    record_acceptance(
        "A8",
        ok,
        f"matrixvt over ftm speedup {speedups['S1']:.2f}x (S1), "
        f"{speedups['S3']:.2f}x (S3), 20 repeats each; gate is >= 2x",
    )


def test_a9_cli_exit_codes_and_csv_round_trip(rig_config_path, tmp_path, capsys):
    clean = main(["check", "--config", rig_config_path, "--trials", "5"])
    flipped = main(
        ["check", "--config", rig_config_path, "--trials", "5", "--flip-ring-bit"]
    )
    capsys.readouterr()  # the check subcommand prints its own report

    out = tmp_path / "bench.csv"
    ran = main(
        [
            "run",
            "--config", rig_config_path,
            "--settings", "S1",
            "--backends", "matrixvt,ftm",
            "--repeats", "3",
            "--out", str(out),
        ]
    )
    text = out.read_text()
    records = parse_csv(text)
    round_trips = [(r.setting, r.backend) for r in records] == [
        ("S1", "matrixvt"),
        ("S1", "ftm"),
    ]
    ok = clean == 0 and flipped == 1 and ran == 0 and round_trips
    record_acceptance(
        "A9",
        ok,
        f"check exit codes {clean}/{flipped} (pristine/flipped), "
        f"run CSV parsed back to {len(records)} records",
    )

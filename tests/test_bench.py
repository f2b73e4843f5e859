import gc
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from bevx import (
    ConfigError,
    FileFormatError,
    GeometryError,
    SparseBinaryMatrix,
    UsageError,
    ValidationError,
    build_ftm,
    cost_model,
    effective_ftm,
    load_scene,
    scene_digest,
    scene_to_dict,
)
from bevx import bench
from bevx.bench import (
    BACKENDS,
    CSV_FIELDS,
    PRESETS,
    BenchRecord,
    TransformSetting,
    emit_csv,
    emit_json,
    flip_ring_bit,
    make_inputs,
    max_rel_diff,
    parse_csv,
    run_bench,
    run_check,
    setting_scene,
)
from bevx.bench.cli import main
from bevx.geometry import generate_frustum
from bevx.transform import RingRayPair, build_ring_ray
from oracles import degenerate_scene, entry_keys
from test_public_surface import NOT_REAL

SMALL = TransformSetting("T-small", 4, 4, 8, 24, 24)
SMALLER = TransformSetting("T-tiny", 3, 2, 8, 16, 16)


class TestSettings:
    def test_preset_ladder(self):
        assert set(PRESETS) == {"S1", "S2", "S3", "S4", "S5", "S6"}
        s1 = PRESETS["S1"]
        assert (s1.channels, s1.feature_height, s1.feature_width) == (80, 16, 44)
        assert (s1.bev_h, s1.bev_w) == (128, 128)
        assert PRESETS["S6"].channels == 256 and PRESETS["S6"].feature_width == 176

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValidationError, match="positive"):
            TransformSetting("bad", 0, 16, 44, 128, 128)
        for channels in ("8", 2.5, True, None):
            with pytest.raises(ValidationError, match="channels must be a whole"):
                TransformSetting("bad", channels, 16, 44, 128, 128)
        whole = TransformSetting("ok", 8.0, np.int64(16), 44, 128, 128)
        assert whole.channels == 8 and type(whole.channels) is int
        assert type(whole.feature_height) is int


class TestMaxRelDiff:
    def test_identical_is_zero(self, rng):
        a = rng.random((5, 3))
        assert max_rel_diff(a, a.copy()) == 0.0

    def test_known_ratio(self):
        a = np.array([2.0, 8.0])
        b = np.array([2.0, 10.0])
        assert max_rel_diff(a, b) == pytest.approx(0.2)

    def test_floor_guards_near_zero(self):
        a = np.array([0.0])
        b = np.array([1e-9])
        assert max_rel_diff(a, b) <= 1e-3

    @pytest.mark.parametrize("kind", sorted(NOT_REAL))
    @pytest.mark.parametrize("arg", ["a", "b"])
    def test_refuses_inputs_that_are_not_real_numbers(self, arg, kind):
        args = {"a": np.ones((3, 2)), "b": np.ones((3, 2)), arg: NOT_REAL[kind]((3, 2))}
        with pytest.raises(ValidationError, match=rf"^{arg} is not an array of real numbers \("):
            max_rel_diff(**args)

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_takes_bool_and_int_inputs_as_their_float_copies(self, dtype):
        a = np.array([0, 1, 2, -3]).astype(dtype)
        b = np.array([1, 1, 5, 0]).astype(dtype)
        want = max_rel_diff(a.astype(np.float64), b.astype(np.float64))
        assert want > 0 and max_rel_diff(a, b) == want
        assert max_rel_diff(a, b.astype(np.float64)) == want


class TestInputs:
    def test_deterministic_per_seed(self, small_scene):
        f1, d1 = make_inputs(small_scene, 4, seed=5)
        f2, d2 = make_inputs(small_scene, 4, seed=5)
        f3, _ = make_inputs(small_scene, 4, seed=6)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(d1, d2)
        assert not np.array_equal(f1, f3)

    def test_shapes_and_simplex(self, small_scene):
        f, d = make_inputs(small_scene, 4, seed=0)
        w = small_scene.rig.n_cameras * small_scene.rig.feature_width
        assert f.shape == (w, 4)
        assert d.shape == (w, small_scene.bins.count)
        assert d.min() > 0.0
        np.testing.assert_allclose(d.sum(axis=1), 1.0, atol=1e-5)

    @pytest.mark.parametrize(
        "channels, seed, message",
        [
            (8, "x", "seed must be a whole number (a float only below 2**53), got 'x'"),
            (8, -1, "seed must be non-negative, got -1"),
            (-1, 0, "channels must be non-negative, got -1"),
            (2.5, 0, "channels must be a whole number (a float only below 2**53), got 2.5"),
        ],
        ids=["seed-str", "seed-negative", "channels-negative", "channels-fraction"],
    )
    def test_counts_are_whole_and_non_negative(self, small_scene, channels, seed, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make_inputs(small_scene, channels, seed)

    def test_a_whole_float_count_is_its_int(self, small_scene):
        f, d = make_inputs(small_scene, 8.0, np.float64(3.0))
        f8, d8 = make_inputs(small_scene, 8, 3)
        assert f.tobytes() == f8.tobytes() and d.tobytes() == d8.tobytes()
        assert make_inputs(small_scene, 0, 0)[0].shape == (d.shape[0], 0)

    def test_inputs_past_memory_are_refused_before_they_are_drawn(self, small_scene, memory_cap):
        w, n_d = make_inputs(small_scene, 1, 0)[1].shape
        with pytest.raises(
            ValidationError,
            match=re.escape(f"make_inputs: {w} x ({2**40} + {n_d}) float32 values exceed physical"),
        ):
            make_inputs(small_scene, 2**40, 0)


class TestSettingScene:
    def test_presets_keep_the_config_cameras_and_bins(
        self, small_scene, small_config_path, capsys
    ):
        adapted = setting_scene(small_scene, PRESETS["S1"])
        assert adapted.rig.n_cameras == small_scene.rig.n_cameras == 2
        assert adapted.bins == small_scene.bins
        assert adapted.rig.feature_width == 44 and adapted.grid.n_cells == 128 * 128
        argv = ["run", "--config", small_config_path, "--settings", "S1", "--repeats", "3"]
        assert main(argv) == 0
        assert [r.setting for r in parse_csv(capsys.readouterr().out)] == ["S1", "S1"]

    def test_rescales_intrinsics_and_grids(self, small_scene):
        doubled = TransformSetting("T-2x", 4, 8, 16, 48, 48)
        adapted = setting_scene(small_scene, doubled)
        src = small_scene.rig.cameras[0].intrinsics
        dst = adapted.rig.cameras[0].intrinsics
        assert dst[0, 0] == pytest.approx(2.0 * src[0, 0])  # fx tracks width
        assert dst[1, 2] == pytest.approx(2.0 * src[1, 2])  # cy tracks height
        assert dst[2, 2] == 1.0
        assert adapted.rig.image_stride == small_scene.rig.image_stride
        assert adapted.bins.count == small_scene.bins.count
        assert adapted.bins.d_min == small_scene.bins.d_min
        assert adapted.grid.n_cells == 48 * 48
        assert adapted.grid.x_min == small_scene.grid.x_min

    def test_pinned_scene_digests(self, rig_scene):
        """Config digests of the bundled rig and every preset. Cache files
        on disk are keyed by these; a change to scene_to_dict that moves
        one silently invalidates every saved pair."""
        s1 = "0fb90bed7af85d870e7e86f07922eff0725807337bd637b338f66fe9cbf3bfe6"
        s45 = "f7f4fc617513ccaea36364b4d67ad3eee107d7b3d9e8fe6cb8c17c2d4d12e84d"
        expected = {
            "S1": s1,
            "S2": "ca0fb6a67332f6310ad6c9ce1dcb1e963393952981a0111d68211cad7ad537a7",
            "S3": "ff1b53c778f8a2f0b1e843151af1cf71d96d40b7536c818014ebd2b17a8ac7d2",
            "S4": s45,
            "S5": s45,
            "S6": "c019dcdf476d08bf728d386914e52784e98e3b553cc1920c336176d510708819",
        }
        assert scene_digest(rig_scene) == s1
        got = {
            name: scene_digest(setting_scene(rig_scene, PRESETS[name])) for name in expected
        }
        assert got == expected

    def test_s4_structure_counts(self, rig_scene):
        """Pinned nnz of every per-scene matrix on the bundled rig at S4
        (S5 shares its grid, width and bins): a faster builder must not
        move any of them."""
        adapted = setting_scene(rig_scene, PRESETS["S4"])
        frustum = generate_frustum(adapted.rig, adapted.bins)
        ftm = build_ftm(frustum, adapted.grid)
        rr = build_ring_ray(frustum, adapted.grid)
        assert ftm.nnz == 52_212
        assert rr.ring.nnz == 52_272
        assert rr.ray.nnz == 52_176
        assert effective_ftm(rr).nnz == 52_272
        assert np.count_nonzero(np.diff(ftm.row_offsets)) == 38_352
        assert ftm.rows == 65_536


class TestRunBench:
    def test_records_cover_request_in_order(self, small_config_path):
        records = run_bench(
            small_config_path,
            [SMALL, SMALLER],
            list(BACKENDS),
            repeats=4,
        )
        expect = [(s.name, b) for s in (SMALL, SMALLER) for b in BACKENDS]
        assert [(r.setting, r.backend) for r in records] == expect
        for r in records:
            assert r.repeats == 4
            assert 0.0 <= r.p10_s <= r.median_s <= r.p90_s

    def test_backend_table_order(self):
        assert BACKENDS == ("scatter", "ftm", "matrixvt")

    def test_intermediate_params_match_cost_model(self, small_config_path, small_scene):
        records = run_bench(small_config_path, [SMALL], list(BACKENDS), repeats=3)
        cost = cost_model(
            SMALL.channels, small_scene.bins.count, SMALL.feature_width,
            SMALL.bev_h, SMALL.bev_w,
        )
        by_backend = {r.backend: r.intermediate_params for r in records}
        assert by_backend["scatter"] == cost.mem_params_full_ftm
        assert by_backend["ftm"] == cost.mem_params_full_ftm
        assert by_backend["matrixvt"] == cost.mem_params_ringray

    @pytest.mark.parametrize(
        "backends,builds", [(["scatter"], 0), (["scatter", "ftm"], 1)], ids=["scatter", "both"]
    )
    def test_ftm_built_only_for_ftm_backend(self, small_config_path, monkeypatch, backends, builds):
        calls = []
        monkeypatch.setattr(
            "bevx.bench.build_ftm", lambda *a: calls.append(a) or build_ftm(*a)
        )
        run_bench(small_config_path, [SMALL], backends, repeats=3)
        assert len(calls) == builds

    def test_unknown_setting_rejected(self, small_config_path):
        with pytest.raises(UsageError, match="unknown setting"):
            run_bench(small_config_path, ["S99"], ["matrixvt"], repeats=3)

    def test_unknown_backend_rejected(self, small_config_path):
        with pytest.raises(UsageError, match="unknown backend"):
            run_bench(small_config_path, [SMALL], ["cuda"], repeats=3)

    @pytest.mark.parametrize(
        "settings, backends, message",
        [
            (["S99"], ["matrixvt"], "unknown setting 'S99'; valid: S1, S2, S3, S4, S5, S6"),
            ([], ["matrixvt"], "no settings requested"),
            (["S1"], ["cuda"], "unknown backend 'cuda'; valid: scatter, ftm, matrixvt"),
            (["S1"], [], "no backends requested"),
            ([SMALL], [SMALL], f"unknown backend {SMALL!r}; valid: scatter, ftm, matrixvt"),
            ([["S1"]], ["matrixvt"], "unknown setting ['S1']; valid: S1, S2, S3, S4, S5, S6"),
            (None, ["matrixvt"], "settings must be a non-str iterable, got NoneType"),
            ("S1", ["matrixvt"], "settings must be a non-str iterable, got str"),
            (["S1"], 0, "backends must be a non-str iterable, got int"),
            (["S1"], np.array("ftm"), "backends must be a non-str iterable, got ndarray"),
        ],
        ids=[
            "unknown-setting", "no-setting", "unknown-backend", "no-backend",
            "setting-as-backend", "unhashable-setting", "settings-none", "settings-str",
            "backends-int", "backends-0d-array",
        ],
    )
    def test_names_are_refused_by_one_rule(self, settings, backends, message):
        """The message is whole; the rule runs before the config is read."""
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            run_bench("no-such-config.json", settings, backends, repeats=3)

    def test_settings_and_backends_are_taken_in_request_order(self, small_config_path):
        """Any iterable of names but a str: here a generator and a dict view."""
        settings = (s for s in (SMALLER, "S1", SMALLER))
        records = run_bench(small_config_path, settings, {"matrixvt": 0, "ftm": 0}.keys(), repeats=3)
        assert [(r.setting, r.backend) for r in records] == [
            (s, b) for s in ("T-tiny", "S1", "T-tiny") for b in ("matrixvt", "ftm")
        ]

    def test_holds_one_setting_at_a_time(self, small_config_path, monkeypatch):
        # each setting is built, warmed up and timed before the next is built,
        # so no earlier setting's pair is alive at a build
        real = bench._build
        pairs = []

        def build(scene, backends):
            gc.collect()
            assert all(ref() is None for ref in pairs)
            built = real(scene, backends)
            pairs.append(weakref.ref(built["matrixvt"]))
            return built

        monkeypatch.setattr(bench, "_build", build)
        records = run_bench(small_config_path, [SMALL, SMALLER], ["matrixvt"], repeats=3)
        assert [r.setting for r in records] == ["T-small", "T-tiny"]
        assert len(pairs) == 2

    def test_too_few_repeats_rejected(self, small_config_path):
        with pytest.raises(UsageError, match="repeats"):
            run_bench(small_config_path, [SMALL], ["matrixvt"], repeats=2)


class TestCsvJson:
    RECORD = BenchRecord("S1", "matrixvt", 0.125, 0.1, 0.15625, 193, 20)

    def test_empty_is_header_only(self):
        assert emit_csv([]) == ",".join(CSV_FIELDS) + "\n"

    def test_golden_csv(self):
        assert emit_csv([self.RECORD]) == (
            "setting,backend,median_s,p10_s,p90_s,intermediate_params,repeats\n"
            "S1,matrixvt,0.125,0.1,0.15625,193,20\n"
        )

    def test_round_trip_exact(self):
        noisy = BenchRecord("S2", "ftm", 0.1 + 1e-17, 1 / 3, 2 / 3, 4928, 5)
        text = emit_csv([self.RECORD, noisy])
        assert parse_csv(text) == [self.RECORD, noisy]

    def test_bad_header_rejected(self):
        with pytest.raises(FileFormatError, match="header"):
            parse_csv("a,b,c\n1,2,3\n")

    def test_empty_text_rejected(self):
        with pytest.raises(FileFormatError, match="empty"):
            parse_csv("")

    def test_short_row_rejected(self):
        text = ",".join(CSV_FIELDS) + "\nS1,matrixvt,0.1\n"
        with pytest.raises(FileFormatError, match="bad CSV row"):
            parse_csv(text)

    def test_non_numeric_rejected(self):
        text = ",".join(CSV_FIELDS) + "\nS1,matrixvt,fast,0.1,0.2,193,20\n"
        with pytest.raises(FileFormatError, match="bad CSV row"):
            parse_csv(text)

    def test_records_may_be_any_iterable(self):
        noisy = BenchRecord("S2", "ftm", 0.1 + 1e-17, 1 / 3, 2 / 3, 4928, 5)
        for emit in (emit_csv, emit_json):
            want = emit([self.RECORD, noisy])
            assert emit(r for r in (self.RECORD, noisy)) == want
            assert emit({0: self.RECORD, 1: noisy}.values()) == want

    def test_json_mirrors_fields(self):
        payload = json.loads(emit_json([self.RECORD]))
        assert payload == [
            {
                "setting": "S1",
                "backend": "matrixvt",
                "median_s": 0.125,
                "p10_s": 0.1,
                "p90_s": 0.15625,
                "intermediate_params": 193,
                "repeats": 20,
            }
        ]


# two-camera rigs where every ring row holds several bins: a one-cell grid
# (four bins each) and a near-vertical rig (three bins each)
NO_ONE_BIN_ROW = {
    "one-cell": dict(away=[False, False], n_d=4, h_cells=1, w_cells=1, reach=0.8),
    "near-vertical": dict(away=[False, True], n_d=6, reach=0.7, pitch=89.0),
}


def exact_and_pair(scene):
    frustum = generate_frustum(scene.rig, scene.bins)
    return build_ftm(frustum, scene.grid), build_ring_ray(frustum, scene.grid)


class TestFlipRingBit:
    def test_removes_one_nonzero(self, small_scene):
        ftm, rr = exact_and_pair(small_scene)
        flipped = flip_ring_bit(rr, ftm)
        assert flipped.ring.nnz == rr.ring.nnz - 1
        assert flipped.ray == rr.ray
        assert isinstance(flipped.ring, SparseBinaryMatrix)

    @pytest.mark.parametrize("setting", [None, *sorted(PRESETS)])
    def test_flipped_pair_fails_containment(self, setting, rig_scene):
        # not every ring entry is exact, but the removed one is
        scene = rig_scene if setting is None else setting_scene(rig_scene, PRESETS[setting])
        ftm, rr = exact_and_pair(scene)
        exact = entry_keys(ftm)
        assert np.isin(exact, entry_keys(effective_ftm(rr))).all()
        assert not np.isin(exact, entry_keys(effective_ftm(flip_ring_bit(rr, ftm)))).all()

    def test_pairs_without_a_one_bin_row_fail_containment(self):
        for rig in NO_ONE_BIN_ROW.values():
            ftm, rr = exact_and_pair(degenerate_scene(**rig))
            assert (np.diff(rr.ring.row_offsets) > 1).all()
            flipped = effective_ftm(flip_ring_bit(rr, ftm))
            missing = ~np.isin(entry_keys(ftm), entry_keys(flipped))
            assert missing.sum() == 1  # one exact entry, the removed bin's

    def test_removes_the_middle_exact_bin(self):
        # ray entry (cell 0, column 0) holds bins 0, 1 and 2, entry (cell 1,
        # column 0) bin 1. Of the exact bins, 0 and 1 of the first entry and
        # 1 of the second, the middle is bin 1 of the first entry, inside its
        # run: only the bins at an end of a run are flipped, so the ring
        # keeps no gap, and the middle of those is the second entry's
        ray = SparseBinaryMatrix(2, 1, [0, 1, 2], [0, 0])
        rr = RingRayPair(SparseBinaryMatrix(2, 3, [0, 3, 4], [0, 1, 2, 1]), ray)
        exact = SparseBinaryMatrix(2, 3, [0, 2, 3], [0, 1, 1])
        assert flip_ring_bit(rr, exact).ring == SparseBinaryMatrix(2, 3, [0, 3, 3], [0, 1, 2])
        # with bins 0 and 1 of the first entry exact, its first bin goes
        exact = SparseBinaryMatrix(2, 3, [0, 2, 2], [0, 1])
        assert flip_ring_bit(rr, exact).ring == SparseBinaryMatrix(2, 3, [0, 2, 3], [1, 2, 1])
        # with only its bin 1 exact, no end bin is exact
        exact = SparseBinaryMatrix(2, 3, [0, 1, 1], [1])
        with pytest.raises(ValidationError, match="no ring bin to flip at an end of its run"):
            flip_ring_bit(rr, exact)

    def test_pair_whose_keys_would_wrap_is_refused(self):
        # implied entries (0, 1) and (4, 0): a key 4 * 2**62 + 0 would wrap
        # to 0, that of exact entry (0, 0), yet the two matrices share no
        # entry, so there is no bin to flip
        ray = SparseBinaryMatrix(5, 2**61, [0, 1, 1, 1, 1, 2], [0, 0])
        ring = SparseBinaryMatrix(2, 2, [0, 1, 2], [1, 0])
        exact = SparseBinaryMatrix(5, 2**62, [0, 1, 1, 1, 1, 1], [0])
        with pytest.raises(ValidationError, match="no ring bin to flip"):
            flip_ring_bit(RingRayPair(ring, ray), exact)

    def test_pair_past_int64_extents_is_flipped(self):
        # the same pair against an exact matrix holding implied entry (4, 0):
        # ring row 1's one bin is dropped
        ray = SparseBinaryMatrix(5, 2**61, [0, 1, 1, 1, 1, 2], [0, 0])
        ring = SparseBinaryMatrix(2, 2, [0, 1, 2], [1, 0])
        exact = SparseBinaryMatrix(5, 2**62, [0, 0, 0, 0, 0, 1], [0])
        flipped = flip_ring_bit(RingRayPair(ring, ray), exact)
        assert flipped.ring == SparseBinaryMatrix(2, 2, [0, 1, 1], [1])
        assert flipped.ray == ray

    def test_pair_whose_exact_matrix_is_empty_is_refused(self):
        # an away camera lands nothing: empty exact matrix, empty ray
        ftm, rr = exact_and_pair(degenerate_scene([True]))
        assert ftm.nnz == 0
        with pytest.raises(ValidationError, match="no ring bin to flip"):
            flip_ring_bit(rr, ftm)

    def test_exact_matrix_of_another_shape_is_refused(self, small_scene):
        ftm, rr = exact_and_pair(small_scene)
        offsets = np.append(ftm.row_offsets, ftm.nnz)  # one more, empty row
        other = SparseBinaryMatrix(ftm.rows + 1, ftm.cols, offsets, ftm.col_indices)
        with pytest.raises(ValidationError, match="shape"):
            flip_ring_bit(rr, other)


class TestRunCheck:
    def test_passes_on_consistent_scene(self, small_config_path):
        report = run_check(small_config_path, trials=5, seed=3)
        assert report.passed
        assert report.failure is None and report.failed_trial_seed is None
        assert len(report.trial_seeds) == 5 and report.seed == 3
        assert report.maxima["ftm-vs-scatter"] <= 1e-5
        assert report.maxima["matrixvt-vs-effective"] <= 1e-5
        assert 0.0 <= report.spurious_rate < 1.0
        lines = report.lines()
        assert [line.split()[1] for line in lines[:-1]] == [
            "containment",
            "ftm-vs-scatter",
            "matrixvt-vs-effective",
        ]
        assert all(line.endswith("PASS") for line in lines[:-1])
        assert lines[-1] == "result: PASS (5 trials, seed 3)"

    @pytest.mark.parametrize("corrupt", [False, True], ids=["pass", "flip-ring-bit"])
    def test_reports_the_bytes_held_in_closed_form(self, rig_config_path, corrupt):
        # the bundled rig is S1. Every buffer counted once: the exact
        # matrix's offsets and columns and its scipy handle's values, 4
        # bytes an entry (int32 ids, float32 unit values); the ray's offsets
        # and columns, 4 bytes an entry, and a first bin and a length per
        # ray entry, 1 byte each for the rig's 112 bins
        report = run_check(rig_config_path, trials=1, seed=0, corrupt_ring=corrupt)
        cells = 128 * 128
        assert report.ftm_bytes == 4 * ((cells + 1) + 2 * report.ftm_nnz)
        ray = (cells + 1) + report.ray_nnz
        assert report.pair_bytes == 4 * ray + 2 * report.ray_nnz

    def test_deterministic_given_seed(self, small_config_path):
        a = run_check(small_config_path, trials=3, seed=11)
        b = run_check(small_config_path, trials=3, seed=11)
        assert a == b

    def test_corrupted_ring_fails_containment(self, small_config_path):
        report = run_check(small_config_path, trials=3, seed=3, corrupt_ring=True)
        assert not report.passed
        assert report.failure == "containment"
        assert report.trial_seeds == () and report.failed_trial_seed is None
        lines = report.lines()
        assert "FAIL" in lines[0]
        assert "not run" in lines[1]
        assert lines[2:] == ["result: FAIL in containment"]

    def test_containment_failure_records_no_seeds_at_any_trial_count(
        self, small_config_path
    ):
        # no trial runs, so no seed is drawn or held, however many were asked for
        tracemalloc.start()
        try:
            report = run_check(small_config_path, trials=10**6, seed=3, corrupt_ring=True)
            doc = json.loads(bench.emit_check_json(report))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.trial_seeds == () and doc["trial_seeds"] == []
        assert doc["trials"] == 10**6
        assert peak < 2_000_000  # 10**6 int64 seeds alone take 8 MB

    def test_failing_trial_stops_the_suite(
        self, small_config_path, monkeypatch, capsys
    ):
        # matrixvt is off by 1e-3 relative on its second call only, so the
        # second trial fails matrixvt-vs-effective and no third trial runs
        calls = []
        route = bench._ROUTES["matrixvt"]

        def perturbed(f, d, rr):
            calls.append(None)
            out = route.run(f, d, rr)
            return out * np.float32(1.001) if len(calls) == 2 else out

        monkeypatch.setitem(bench._ROUTES, "matrixvt", route._replace(run=perturbed))
        first, second = np.random.default_rng(3).integers(0, 2**63 - 1, size=4)[:2].tolist()

        report = run_check(small_config_path, trials=4, seed=3)
        assert len(calls) == 2
        assert report.failure == "matrixvt-vs-effective"
        assert report.failed_trial_seed == second
        assert report.trial_seeds == (first, second)
        assert not report.passed
        assert set(report.maxima) == {"ftm-vs-scatter", "matrixvt-vs-effective"}
        assert report.maxima["ftm-vs-scatter"] <= 1e-5
        assert report.maxima["matrixvt-vs-effective"] == pytest.approx(1e-3, rel=0.01)
        lines = report.lines()
        assert lines[1].endswith("PASS")
        assert lines[2].startswith("check: matrixvt-vs-effective  max rel diff 9.99")
        assert lines[2].endswith("  FAIL")
        assert lines[3] == (
            f"result: FAIL in matrixvt-vs-effective, first failing trial seed {second}"
        )

        calls.clear()
        argv = ["check", "--config", small_config_path, "--trials", "4", "--seed", "3"]
        assert main(argv) == 1
        assert len(calls) == 2
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_output_fails_closed(
        self, bad, small_config_path, monkeypatch, capsys, tmp_path
    ):
        # one non-finite cell in matrixvt's output: its difference is nan,
        # which no "rel > tolerance" comparison can see
        route = bench._ROUTES["matrixvt"]

        def poisoned(f, d, rr):
            out = route.run(f, d, rr)
            out[0, 0] = bad
            return out

        monkeypatch.setitem(bench._ROUTES, "matrixvt", route._replace(run=poisoned))
        first = int(np.random.default_rng(3).integers(0, 2**63 - 1, size=2)[0])

        report = run_check(small_config_path, trials=2, seed=3)
        assert report.failure == "matrixvt-vs-effective"
        assert report.failed_trial_seed == first
        assert report.trial_seeds == (first,)
        assert not report.passed
        lines = report.lines()
        assert lines[2] == "check: matrixvt-vs-effective  max rel diff nan  FAIL"
        assert lines[3] == (
            f"result: FAIL in matrixvt-vs-effective, first failing trial seed {first}"
        )

        argv = ["check", "--config", small_config_path, "--trials", "2", "--seed", "3"]
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines() == lines

        path = tmp_path / "check.json"
        assert main(argv + ["--json", str(path)]) == 1
        doc = json.loads(path.read_text())
        assert doc["maxima"]["matrixvt-vs-effective"] is None
        assert doc["failure"] == "matrixvt-vs-effective" and doc["passed"] is False
        assert doc["failed_trial_seed"] == first and doc["trial_seeds"] == [first]

    def test_passes_on_a_degenerate_rig(self, tmp_path, capsys):
        # one camera faces away from a one-cell grid, and the bins reach
        # past the grid's extent
        scene = degenerate_scene([False, True], n_d=4, h_cells=1, w_cells=1, reach=3.0)
        config = tmp_path / "degenerate.json"
        config.write_text(json.dumps(scene_to_dict(scene)))
        assert main(["check", "--config", str(config), "--trials", "3"]) == 0
        assert capsys.readouterr().out.endswith("result: PASS (3 trials, seed 7)\n")

    def test_rejects_zero_trials(self, small_config_path):
        with pytest.raises(UsageError, match="trials"):
            run_check(small_config_path, trials=0, seed=0)


class TestCli:
    def test_run_writes_csv_and_json(self, rig_config_path, tmp_path):
        out = tmp_path / "bench.csv"
        jout = tmp_path / "bench.json"
        code = main(
            [
                "run",
                "--config", rig_config_path,
                "--settings", "S1",
                "--backends", "matrixvt",
                "--repeats", "3",
                "--out", str(out),
                "--json", str(jout),
            ]
        )
        assert code == 0
        records = parse_csv(out.read_text())
        assert [(r.setting, r.backend) for r in records] == [("S1", "matrixvt")]
        assert json.loads(jout.read_text())[0]["setting"] == "S1"

    def test_run_defaults_to_stdout(self, rig_config_path, capsys):
        code = main(
            [
                "run",
                "--config", rig_config_path,
                "--settings", "S1",
                "--backends", "matrixvt",
                "--repeats", "3",
            ]
        )
        assert code == 0
        parsed = parse_csv(capsys.readouterr().out)
        assert parsed[0].backend == "matrixvt"

    def test_run_has_no_warmup_option(self, small_config_path, capsys):
        # every backend gets two untimed calls; the count is not an option
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", small_config_path, "--warmup", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --warmup 0" in capsys.readouterr().err

    def test_check_passes(self, small_config_path, capsys):
        code = main(
            ["check", "--config", small_config_path, "--trials", "3", "--seed", "2"]
        )
        assert code == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_check_flip_ring_bit_fails(self, small_config_path, capsys):
        code = main(
            [
                "check",
                "--config", small_config_path,
                "--trials", "3",
                "--flip-ring-bit",
            ]
        )
        assert code == 1
        assert "result: FAIL in containment" in capsys.readouterr().out

    @pytest.mark.parametrize("rig", sorted(NO_ONE_BIN_ROW))
    def test_check_flip_ring_bit_fails_without_a_one_bin_row(self, rig, tmp_path, capsys):
        path = tmp_path / "rig.json"
        path.write_text(json.dumps(scene_to_dict(degenerate_scene(**NO_ONE_BIN_ROW[rig]))))
        argv = ["check", "--config", str(path), "--trials", "2"]
        assert main(argv) == 0
        assert main(argv + ["--flip-ring-bit"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "result: FAIL in containment"

    @pytest.mark.parametrize("rig", sorted(NO_ONE_BIN_ROW))
    def test_check_spurious_rate_of_a_flipped_pair_is_a_share(self, rig, tmp_path, capsys):
        # the per-camera ring is exact on these rigs, so the flipped pair
        # implies fewer entries than the exact matrix holds
        scene = degenerate_scene(**NO_ONE_BIN_ROW[rig])
        path, report = tmp_path / "rig.json", tmp_path / "check.json"
        path.write_text(json.dumps(scene_to_dict(scene)))
        argv = ["check", "--config", str(path), "--trials", "2", "--flip-ring-bit"]
        assert main(argv + ["--json", str(report)]) == 1
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("check: containment") and "spurious rate -" not in line
        doc = json.loads(report.read_text())
        assert doc["implied_nnz"] < doc["ftm_nnz"]
        assert 0.0 <= doc["spurious_rate"] <= 1.0

        ftm, rr = exact_and_pair(scene)
        implied = entry_keys(effective_ftm(flip_ring_bit(rr, ftm)))
        spurious = ~np.isin(implied, entry_keys(ftm))
        assert doc["spurious_rate"] == spurious.sum() / implied.size

    @pytest.mark.parametrize(
        "extra, code", [([], 0), (["--flip-ring-bit"], 1)], ids=["pass", "flip-ring-bit"]
    )
    def test_check_json(self, extra, code, small_config_path, tmp_path, capsys):
        argv = ["check", "--config", small_config_path, "--trials", "3", "--seed", "2"]
        argv += extra
        assert main(argv) == code
        text = capsys.readouterr().out
        path = tmp_path / "check.json"
        assert main(argv + ["--json", str(path)]) == code
        assert capsys.readouterr().out == text

        doc = json.loads(path.read_text())
        report = run_check(small_config_path, trials=3, seed=2, corrupt_ring=bool(extra))
        seeds = np.random.default_rng(2).integers(0, 2**63 - 1, size=3).tolist()
        assert doc == {
            "trials": 3,
            "spurious_rate": report.spurious_rate,
            "maxima": report.maxima,
            "failure": report.failure,
            "failed_trial_seed": None,
            "passed": code == 0,
            "rel_tol": 1e-5,
            "seed": 2,
            "trial_seeds": [] if code else seeds,  # the seeds of the trials that ran
            "scene_digest": scene_digest(load_scene(small_config_path)),
            "ftm_nnz": report.ftm_nnz,
            "ring_nnz": report.ring_nnz,
            "ray_nnz": report.ray_nnz,
            "implied_nnz": report.implied_nnz,
            "ftm_bytes": report.ftm_bytes,
            "pair_bytes": report.pair_bytes,
            "empty_cell_share": report.empty_cell_share,
        }
        # the implied entries the exact matrix lacks, over implied nnz: the
        # flipped pair lacks one exact entry, so it shares ftm_nnz - 1
        shared = doc["ftm_nnz"] - (1 if code else 0)
        assert doc["spurious_rate"] == (
            (doc["implied_nnz"] - shared) / doc["implied_nnz"]
        )
        if code:
            assert doc["failure"] == "containment" and doc["maxima"] == {}
        else:
            assert set(doc["maxima"]) == {"ftm-vs-scatter", "matrixvt-vs-effective"}

    def test_unknown_backend_is_usage_error(self, small_config_path, capsys):
        # a removed backend's name must fail like any other unknown name
        for backend in ("cuda", "ringray_composed"):
            code = main(
                [
                    "run",
                    "--config", small_config_path,
                    "--backends", backend,
                    "--repeats", "3",
                ]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert f"unknown backend {backend!r}" in err
            assert "valid: scatter, ftm, matrixvt" in err

    def test_unknown_setting_is_usage_error(self, small_config_path, capsys):
        code = main(["run", "--config", small_config_path, "--settings", "S1,S99"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unknown setting 'S99'; valid: S1, S2, S3, S4, S5, S6\n"
        )

    def test_out_of_memory_exits_two(self, small_config_path, monkeypatch, capsys):
        # a request past every preflight that still runs out of memory is a
        # bad request, exit 2, not an equivalence mismatch, exit 1
        def run_check(*args):
            raise MemoryError("Unable to allocate 2.00 GiB")

        monkeypatch.setattr("bevx.bench.cli.run_check", run_check)
        assert main(["check", "--config", small_config_path, "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "2.00 GiB" in err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        # load_scene's ConfigError names the path and the OS reason
        missing = tmp_path / "nope.json"
        code = main(["check", "--config", str(missing)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize(
        "edit, command, options, error",
        [
            ((("feature_width",), "abc"), "check", {}, ConfigError),
            ((("feature_width",), 44.5), "check", {}, ConfigError),
            ((("depth", "count"), "many"), "check", {}, ConfigError),
            ((("cameras",), [1]), "check", {}, ConfigError),
            ((("bev", "extent"), None), "check", {}, ConfigError),
            ((("cameras", 0, "intrinsics"), "x"), "check", {}, ConfigError),
            ((("depth",), 5), "check", {}, ConfigError),
            # positive focals and a (0, 0, 1) bottom row, but singular
            ((("cameras", 0, "intrinsics"), [10, 10, 5, 10, 10, 5, 0, 0, 1]), "check", {},
             ConfigError),
            # orthonormal, but a mirror: determinant -1
            ((("cameras", 0, "rotation"), [1, 0, 0, 0, 1, 0, 0, 0, -1]), "check", {},
             ConfigError),
            (None, "check", {"trials": 2.5}, UsageError),
            (None, "check", {"trials": "3"}, UsageError),
            (None, "run", {"repeats": 3.5}, UsageError),
            (None, "check", {"seed": -1}, UsageError),
            (None, "check", {"seed": 2.5}, UsageError),
            (None, "run", {"seed": -1}, UsageError),
            (None, "run", {"seed": 2.5}, UsageError),
            ("bad-json", "check", {}, ConfigError),
            ("not-a-path", "run", {}, ConfigError),
            # refused from the shapes, before the frustum or a CSR is allocated
            ((("feature_width",), 2**40), "check", {}, GeometryError),
            ((("bev", "h_cells"), 2**40), "check", {}, ConfigError),
            ((("bev",), {"extent": 12.0, "h_cells": 2**20, "w_cells": 2**20}), "check", {},
             ValidationError),
        ],
        ids=[
            "width-str", "width-float", "count-str", "camera-int", "extent-null",
            "intrinsics-str", "depth-int", "intrinsics-singular", "rotation-mirrored",
            "trials-float", "trials-str", "repeats-float",
            "check-seed-neg", "check-seed-float", "run-seed-neg", "run-seed-float",
            "bad-json", "not-a-path", "width-oversized", "edges-oversized",
            "cells-oversized",
        ],
    )
    def test_bad_request_is_typed_error_and_exits_two(
        self, edit, command, options, error, small_config_path, rig_config_path,
        tmp_path, capsys, memory_cap,
    ):
        # run uses the six-camera rig, so the preset S1 itself is valid
        source = small_config_path if command == "check" else rig_config_path
        with open(source, encoding="utf-8") as f:
            doc = json.load(f)
        if isinstance(edit, tuple):
            (*parents, last), value = edit
            target = doc
            for key in parents:
                target = target[key]
            target[last] = value
        config = tmp_path / "scene.json"
        config.write_text('{"cameras": [' if edit == "bad-json" else json.dumps(doc))
        # file descriptor 0 is a path to open(), but not to load_scene
        source = 0 if edit == "not-a-path" else str(config)
        with pytest.raises(error):
            if command == "check":
                run_check(source, **{"trials": 1, "seed": 0, **options})
            else:
                run_bench(source, ["S1"], ["matrixvt"], **{"repeats": 3, **options})
        if edit == "not-a-path" or any(isinstance(v, str) for v in options.values()):
            return  # every command-line value is a string; "3" is a valid count there
        argv = [command, "--config", str(config)]
        argv += ["--trials", "1"] if command == "check" else ["--repeats", "3"]
        for name, value in options.items():
            argv += [f"--{name}", str(value)]
        if all(isinstance(value, int) for value in options.values()):
            assert main(argv) == 2
        else:  # argparse itself rejects a non-integer count
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, expected, code",
        [
            (
                ["--trials", "5"],
                [
                    "check: containment            spurious rate 0.1042  PASS",
                    "check: ftm-vs-scatter         max rel diff 0.000e+00  PASS",
                    None,
                    "result: PASS (5 trials, seed 7)",
                ],
                0,
            ),
            (
                ["--trials", "2", "--flip-ring-bit"],
                [
                    "check: containment            spurious rate 0.1042  FAIL",
                    "check: equivalence trials     not run (containment failed)",
                    "result: FAIL in containment",
                ],
                1,
            ),
        ],
        ids=["trials-5", "flip-ring-bit"],
    )
    def test_check_golden_on_bundled_rig(
        self, argv, expected, code, rig_config_path, capsys
    ):
        assert main(["check", "--config", rig_config_path, *argv]) == code
        out = capsys.readouterr().out.splitlines()
        assert len(out) == len(expected)
        for line, want in zip(out, expected):
            if want is not None:
                assert line == want
                continue
            # the last bits of this gate's value depend on summation order
            pattern = r"check: matrixvt-vs-effective  max rel diff (\d\.\d{3}e-\d\d)  PASS"
            m = re.fullmatch(pattern, line)
            assert m is not None, line
            assert float(m.group(1)) <= 1e-5

    @pytest.mark.parametrize(
        "extra",
        [[], ["--parallel", "2"], ["--cache", "cache-dir"]],
        ids=["no-subcommand", "parallel", "cache"],
    )
    def test_missing_subcommand_exits_two(self, extra, small_config_path):
        # the removed run options are unknown to argparse, like any other
        argv = ["run", "--config", small_config_path, *extra] if extra else []
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

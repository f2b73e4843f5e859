import json

import numpy as np
import pytest

from bevx import load_scene
from oracles import synthetic_scene_dict

ACCEPTANCE_LINES = []


def record_acceptance(tag, ok, detail):
    """Append one pass/fail summary line and enforce the criterion."""
    ACCEPTANCE_LINES.append(f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag} failed: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def rig_config_path():
    import pathlib

    return str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "six_camera_rig.json")


@pytest.fixture(scope="session")
def rig_scene(rig_config_path):
    return load_scene(rig_config_path)


@pytest.fixture(scope="session")
def small_config_path(tmp_path_factory):
    """A 2-camera, low-resolution scene config file for fast CLI tests."""
    doc = synthetic_scene_dict(
        n_cameras=2,
        feature_width=8,
        feature_height=4,
        image_stride=8,
        d_min=1.0,
        d_max=9.0,
        n_bins=16,
        bev_extent=12.0,
        bev_cells=24,
    )
    path = tmp_path_factory.mktemp("configs") / "small_rig.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="session")
def small_scene(small_config_path):
    return load_scene(small_config_path)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

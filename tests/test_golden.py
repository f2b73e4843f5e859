"""Golden digests of every per-scene build on the bundled rig.

The frustum landing, `build_ftm`, the ring/ray pair, its plan and the
cache file are pure functions of the scene, and each must stay bit-for-bit
the same when the code that builds them is rewritten for speed. Each entry
below is the sha256 of one product's arrays (or bytes), for settings S1-S6.
"""
import hashlib

import numpy as np
import pytest

from bevx import build_ftm, build_ring_ray, generate_frustum, save_ring_ray, scene_digest
from bevx.bench import PRESETS, setting_scene


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode() + b":" + np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _csr(m):
    return _sha(m.row_offsets, m.col_indices)


def digests(scene, tmp_path):
    frustum = generate_frustum(scene.rig, scene.bins)
    ftm = build_ftm(frustum, scene.grid)
    rr = build_ring_ray(frustum, scene.grid)
    plan, indptr, indices = rr._plan
    save_ring_ray(rr, tmp_path, scene_digest(scene))
    return {
        "ftm": _csr(ftm),
        "ring": _csr(rr.ring),
        "ray": _csr(rr.ray),
        "plan": _csr(plan),
        "plan_index": _sha(indptr, indices),
        "cache": hashlib.sha256((tmp_path / "ringray.bxc").read_bytes()).hexdigest(),
    }


GOLDEN = {
    "S1": {
        "ftm": "de008167b6571b0e4f962d0de63773fed1d3fe5c63582accb5607fb1991faf2e",
        "ring": "8cb5d61e186a89b23180f9d06ef1d3d167c68bea66b79bb6c356fd44896bfe35",
        "ray": "59987152120d30c736419c90e927405e8b3bf155fa9703b97133119c0c9809f9",
        "plan": "e0de69f3507268bf5bc1a9726e7527625f82b7a54ab8c23fc0916f2c95ba088f",
        "plan_index": "307428163daab858e7105449e596d4c5dff1b677bb36ab10cf2252e0f8e07d2b",
        "cache": "d1c461ffcce0edae123ac1ef5adfeedb605703f87ceabe6fd872ff4b7139d265",
    },
    "S2": {
        "ftm": "1abe147b8041e3387e48e7e8f296782bf1bf3fdf2b82a0c8070f404cbde4e366",
        "ring": "d7b7a77eabf227bd7e6d5669e5f24b532ea5af4f0c70a0181e97765e76840f4f",
        "ray": "4c770b7a3778c1215caf41eb85835e588bddccf15e29e4020587139f66a3a250",
        "plan": "1cf134adeed093be95ca40b5797b8410f309c138752e3261ed0a15620f683ce9",
        "plan_index": "72d8d8b9199d6a9bf059a86eea001bdec01a00e0ee9e50b5dfe621efd095bdfc",
        "cache": "6f7d8c78963f1859150d43895551b98a8cb2c5cd0c344b30817e79e34472be75",
    },
    "S3": {
        "ftm": "d6d6569947f2c509805e3e9cc09d0f8d512b5d1673e82a2ed526dd7429c02a87",
        "ring": "8b1b28df4d63a800ceb34797280f2ef1dbdae76831f62a2828274a9f5063a031",
        "ray": "74644252878212dd315d1b80648a6db0e84eef27de44a1a1552785d083ed204b",
        "plan": "b3da2945b516ac01f19e3c69d8125b071ab7ddbea0de8f71564712c4dfd18720",
        "plan_index": "1dee48d770dd07c8cf722e8748dc2387466436bd13b37741971117e9770e7f8a",
        "cache": "a913da39c597edb58db3aaf1f8e31a9da8af491c8ca5b53ca520896c862e6840",
    },
    "S4": {
        "ftm": "613540925d4c2388bcafef55d778691f5a6b4cecf9ca2abcdb4b5eda0f139647",
        "ring": "770325282eeb3d4881453440740bd2d0a8958309efbea6e8da41a47d90550a7d",
        "ray": "ad4f8ecc819c5b38b52c8724c1531cd8a2ee0b0aaad881c5ec5fd9107dc6064a",
        "plan": "059bf1104ab69ba1d3d08774f5dadacaa5a4d605217ce7c613fd2461729800e5",
        "plan_index": "0c70f54ac88a5f3d3ceaa0b8599fc19e0eb1555d4889c73c42e9da67656c4593",
        "cache": "24380f8ad6a1ed2aeaf137f854eddf7c2a20ab2d397b091b6d318ca7f22fbf40",
    },
    "S5": {
        "ftm": "613540925d4c2388bcafef55d778691f5a6b4cecf9ca2abcdb4b5eda0f139647",
        "ring": "770325282eeb3d4881453440740bd2d0a8958309efbea6e8da41a47d90550a7d",
        "ray": "ad4f8ecc819c5b38b52c8724c1531cd8a2ee0b0aaad881c5ec5fd9107dc6064a",
        "plan": "059bf1104ab69ba1d3d08774f5dadacaa5a4d605217ce7c613fd2461729800e5",
        "plan_index": "0c70f54ac88a5f3d3ceaa0b8599fc19e0eb1555d4889c73c42e9da67656c4593",
        "cache": "24380f8ad6a1ed2aeaf137f854eddf7c2a20ab2d397b091b6d318ca7f22fbf40",
    },
    "S6": {
        "ftm": "8e619273292c28c13a836dc9a3039888886500bae8a39c030f1ea8547240e3c2",
        "ring": "414999642f15f58a6bcc7149917e6569179a198a890a54935d9dbc8a2b96b175",
        "ray": "b5ae8f48ae15891b23cb16a8fcc40f11ef7dc9535b14d4cee70e5723a0c30d8b",
        "plan": "a42714df286a49d2231f5b5f4f2a5a76fcc26f397a2e847ffe415494deabd29a",
        "plan_index": "c616b09df5d0328b17c46f8d3b4d5c1eaace6e4a9c9a94a5c127d0c6a1bb4504",
        "cache": "bf6dec2569b69d2e2b3a13dc9d657cd83d9671ac65d267f7bea9b4ac3538b18b",
    },
}


@pytest.mark.parametrize("setting", sorted(PRESETS))
def test_per_scene_builds_match_golden_digests(setting, rig_scene, tmp_path):
    scene = setting_scene(rig_scene, PRESETS[setting])
    assert digests(scene, tmp_path) == GOLDEN[setting]

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
        "ring": "a958977b08007eb3589ef4373f366a8945b6821fbbb06d4f5944f71ab10b8a4d",
        "ray": "59987152120d30c736419c90e927405e8b3bf155fa9703b97133119c0c9809f9",
        "plan": "516324385a213798e8fc56bde938ccef7f615789ab3201240d9d6e0b29c27e61",
        "plan_index": "307428163daab858e7105449e596d4c5dff1b677bb36ab10cf2252e0f8e07d2b",
        "cache": "cb8501053a082196a95b7b306a83b0591a53324cbfd722e158a10da83f6eab18",
    },
    "S2": {
        "ftm": "1abe147b8041e3387e48e7e8f296782bf1bf3fdf2b82a0c8070f404cbde4e366",
        "ring": "968cfcfc8c5db6c7a4cc0ba4f1528a095aaf5a5cc82b05f4f8d84a560348e67e",
        "ray": "4c770b7a3778c1215caf41eb85835e588bddccf15e29e4020587139f66a3a250",
        "plan": "03a3b7d2acbb7e034e986a9cfabb24dcf8635bbe99824bcc0bb0c2206684bed9",
        "plan_index": "72d8d8b9199d6a9bf059a86eea001bdec01a00e0ee9e50b5dfe621efd095bdfc",
        "cache": "adb73968e64f551c3adac3784bdb1090dd610b15806931dac916197516224201",
    },
    "S3": {
        "ftm": "d6d6569947f2c509805e3e9cc09d0f8d512b5d1673e82a2ed526dd7429c02a87",
        "ring": "18fd2e1e9d03749147c236c8e4a57f22da30baa048e16b4f15adc97f582e5098",
        "ray": "74644252878212dd315d1b80648a6db0e84eef27de44a1a1552785d083ed204b",
        "plan": "cc5e5405cb95c0c4714736caab2bbc5d30c2b91dcdf361daad1cca58d195d6a4",
        "plan_index": "1dee48d770dd07c8cf722e8748dc2387466436bd13b37741971117e9770e7f8a",
        "cache": "9133815d7af27ea66dc0107f017998f6c512a8391f34d6bb3f790c146d64b2c0",
    },
    "S4": {
        "ftm": "613540925d4c2388bcafef55d778691f5a6b4cecf9ca2abcdb4b5eda0f139647",
        "ring": "51cefc6ba2886522758bb6ebbe79fe6372253f8bfdade75b8f86b2771cde9c8b",
        "ray": "ad4f8ecc819c5b38b52c8724c1531cd8a2ee0b0aaad881c5ec5fd9107dc6064a",
        "plan": "52e1e15bc0d9287b1b2d8857f15773024f4cee216f21d1ead25942c44180cab1",
        "plan_index": "0c70f54ac88a5f3d3ceaa0b8599fc19e0eb1555d4889c73c42e9da67656c4593",
        "cache": "7489d5c85e968771752dd9b85f60f4de2a794ef2d570b9a836698f337bf7d914",
    },
    "S5": {
        "ftm": "613540925d4c2388bcafef55d778691f5a6b4cecf9ca2abcdb4b5eda0f139647",
        "ring": "51cefc6ba2886522758bb6ebbe79fe6372253f8bfdade75b8f86b2771cde9c8b",
        "ray": "ad4f8ecc819c5b38b52c8724c1531cd8a2ee0b0aaad881c5ec5fd9107dc6064a",
        "plan": "52e1e15bc0d9287b1b2d8857f15773024f4cee216f21d1ead25942c44180cab1",
        "plan_index": "0c70f54ac88a5f3d3ceaa0b8599fc19e0eb1555d4889c73c42e9da67656c4593",
        "cache": "7489d5c85e968771752dd9b85f60f4de2a794ef2d570b9a836698f337bf7d914",
    },
    "S6": {
        "ftm": "8e619273292c28c13a836dc9a3039888886500bae8a39c030f1ea8547240e3c2",
        "ring": "176a3c4c43949887d5d376530e182aef11de61e66e2102c1a92c5341ac4c9319",
        "ray": "b5ae8f48ae15891b23cb16a8fcc40f11ef7dc9535b14d4cee70e5723a0c30d8b",
        "plan": "caec461a1d529e01b39f93269bfbaf67bf5cfcd64b5bb648831461f25fed1968",
        "plan_index": "c616b09df5d0328b17c46f8d3b4d5c1eaace6e4a9c9a94a5c127d0c6a1bb4504",
        "cache": "4546d2fd0884501e65ca6a559de1d35aeab8f365983b3be3d1fa77b6d122f5bb",
    },
}


@pytest.mark.parametrize("setting", sorted(PRESETS))
def test_per_scene_builds_match_golden_digests(setting, rig_scene, tmp_path):
    scene = setting_scene(rig_scene, PRESETS[setting])
    assert digests(scene, tmp_path) == GOLDEN[setting]

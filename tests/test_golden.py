"""Golden digests of every per-scene build on the bundled rig.

The frustum landing, `build_ftm`, the ring/ray pair, its plan and the
cache file are pure functions of the scene, and each must stay bit-for-bit
the same when the code that builds them is rewritten for speed. Each entry
below is the sha256 of one product's arrays (or bytes), for settings S1-S6.
Each array's dtype is hashed with it, so a digest also pins the index
dtype: int32 on every setting here.
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
    save_ring_ray(rr, tmp_path, scene_digest(scene))
    return {
        "ftm": _csr(ftm),
        "ring": _csr(rr.ring),
        "ray": _csr(rr.ray),
        "plan": _csr(rr._plan),
        "cache": hashlib.sha256((tmp_path / "ringray.bxc").read_bytes()).hexdigest(),
    }


GOLDEN = {
    "S1": {
        "ftm": "7e3379a88797c205231770b12c0d7a4aad3b2a870d80390f5c5f6554f9932dc5",
        "ring": "c9551ed77565871562fc30f314027de2cf1365a76ea7106716851f2b2791ce1d",
        "ray": "307428163daab858e7105449e596d4c5dff1b677bb36ab10cf2252e0f8e07d2b",
        "plan": "a7688f692cd990b35faac5e8f6ceab514055a2b0f801e3fb82655674c282b5e5",
        "cache": "969a7b2c9f1e6547a8a930ada05bc6104306a1d19eda3cd1bf3e51d506fa0982",
    },
    "S2": {
        "ftm": "063b76cff1bb9a799c83dda18fcf4de28ba9bbab95f4b598b86940019b141279",
        "ring": "10d5b134b58b3f1f46ff1bedace8bc0db31b5016881ebad9b348deb1a8d49c99",
        "ray": "72d8d8b9199d6a9bf059a86eea001bdec01a00e0ee9e50b5dfe621efd095bdfc",
        "plan": "f326a7fcd2a73d8ee691c5bc51533cd0ffba027d3ef4dd3e9ad7b78f5e2f2e93",
        "cache": "53e2621ee3a7d0295ff241cf7d88f6f382a255acb839f01bf302443e3a50fd38",
    },
    "S3": {
        "ftm": "e87852b2a373b5d3194a868a49f1f0b662d9be27f9c5044b102de947fde3c3fe",
        "ring": "664cdb0f646b41774784f22b95a5fa3567e0aedee8a0934706a9ca9502e185cc",
        "ray": "1dee48d770dd07c8cf722e8748dc2387466436bd13b37741971117e9770e7f8a",
        "plan": "564ab4e7f175528e31b7eb2c141ef01e6813cbcec8bb71eef34a3c75847a9e51",
        "cache": "3da631d43ac71e93095798e9e549860f9fe926cf8a636507aa1252d23b95ba21",
    },
    "S4": {
        "ftm": "0fe8e4c08a84b33ec427d8c7fd164fdba02a4ca307db680fde0cd3d634cad6b0",
        "ring": "90c0f2c57e2898b69bb47530c5664cb11d238ef6c391fc7c2e909f3da01e7130",
        "ray": "0c70f54ac88a5f3d3ceaa0b8599fc19e0eb1555d4889c73c42e9da67656c4593",
        "plan": "3e8b9d62251a5ff0e3ffaadf73cbe2d7fab31a56b1f1d83a444bf19ebca66e03",
        "cache": "179a4070506a8e4173ad254a5cc1ebd34444d6e48b7cdde2e1c8cf49e3f2e7b9",
    },
    "S5": {
        "ftm": "0fe8e4c08a84b33ec427d8c7fd164fdba02a4ca307db680fde0cd3d634cad6b0",
        "ring": "90c0f2c57e2898b69bb47530c5664cb11d238ef6c391fc7c2e909f3da01e7130",
        "ray": "0c70f54ac88a5f3d3ceaa0b8599fc19e0eb1555d4889c73c42e9da67656c4593",
        "plan": "3e8b9d62251a5ff0e3ffaadf73cbe2d7fab31a56b1f1d83a444bf19ebca66e03",
        "cache": "179a4070506a8e4173ad254a5cc1ebd34444d6e48b7cdde2e1c8cf49e3f2e7b9",
    },
    "S6": {
        "ftm": "07a956bfb474d2ad540ee2279ad5056681e6d8f52f82f058bda7940b3bde7e7c",
        "ring": "884df9cc97e93ec6a0e23a8b7649e39482199cefada4dad82f10dba964e851cf",
        "ray": "c616b09df5d0328b17c46f8d3b4d5c1eaace6e4a9c9a94a5c127d0c6a1bb4504",
        "plan": "9e90404f4c8839edbde74a216b328f6cd3ba4a68653f9848ca13e141b6f8fc9c",
        "cache": "33ef99f7fe8e61589d110f2e16ec4c63ec54272893fa50885f9b583fc4dea424",
    },
}


@pytest.mark.parametrize("setting", sorted(PRESETS))
def test_per_scene_builds_match_golden_digests(setting, rig_scene, tmp_path):
    scene = setting_scene(rig_scene, PRESETS[setting])
    assert digests(scene, tmp_path) == GOLDEN[setting]

"""Golden digests of every per-scene build on the bundled rig and on the
same rig pitched down.

The frustum landing, `build_ftm`, the ring/ray pair, its plan and the
cache file are pure functions of the scene, and each must stay bit-for-bit
the same when the code that builds them is rewritten for speed. Each entry
below is the sha256 of one product's arrays (or bytes), for settings S1-S6.
Each array's dtype is hashed with it, so a digest also pins the index
dtype: int32 on every setting here. The pitched rig, whose cameras look
5 degrees down, lands its samples in other cells and runs, so its digests
pin the builds on a second geometry.
"""
import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bevx import (
    build_ftm,
    build_ring_ray,
    generate_frustum,
    load_scene,
    save_ring_ray,
    scene_digest,
)
from bevx.bench import PRESETS, setting_scene
from oracles import pitch_down

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def pitched_rig_doc(level):
    """The config `level` with every camera pitched 5 degrees down: each
    rotation right-multiplied by `pitch_down(5.0)`, each entry summed in
    one fixed order of float operations."""
    down = pitch_down(5.0).tolist()
    doc = copy.deepcopy(level)
    for cam in doc["cameras"]:
        r = cam["rotation"]
        cam["rotation"] = [
            r[3 * i] * down[0][j] + r[3 * i + 1] * down[1][j] + r[3 * i + 2] * down[2][j]
            for i in range(3)
            for j in range(3)
        ]
    return doc


def test_pitched_rig_is_the_bundled_rig_pitched_down():
    level = json.loads((CONFIGS / "six_camera_rig.json").read_text())
    rebuilt = json.dumps(pitched_rig_doc(level), indent=2) + "\n"
    assert (CONFIGS / "pitched_rig.json").read_text() == rebuilt


PITCHED_GOLDEN = {
    "S1": {
        "ftm": "a4405415e8f7e541fae7bb824eb1c05b0c2d30cdf2c08237bcdbaad6b6f3dc37",
        "ring": "a94026b6575807e57e12db52f5fd157f98c0273268bbe0994d8777c855db679e",
        "ray": "d3de545012924a4a105534a5ac067eb2ae09bf06de1e56c538e9eb2ac5f49b80",
        "plan": "59800f0010dd697b715eb200bbb05199344ed579af6b8127443065c99ba49afd",
        "cache": "586447db8f8a348e9e76a9f3e45ebd94c8ef86a2bdbdd4a91bca5c9776925bda"
    },
    "S2": {
        "ftm": "ed1031bbebb646a67c2dd45cbb8619a3c16202aabb33e5c17fe6963207bd612d",
        "ring": "254fc56174b06847f9ed109dbaa64f7ce166bb4f36c5e8ac8b96458f88631b8d",
        "ray": "07751808ec73f36ced6b107f9e9a714e7d12a347366d938a0766ced9823ffe18",
        "plan": "806d40560430fc19efda9d5063609e77b8dc76b84e8a57c4046cd47cd2a12d74",
        "cache": "05ab216302c442f6407ffaac444ed2540394b4715af6448c8f42d1b249f40afe"
    },
    "S3": {
        "ftm": "1714434d92ebaa71d6661682d3445157000b6284ed9bf3369cd5d5707ecde329",
        "ring": "549ae11fb81652d2ef37b8c4a578f82a8fbf64ce88a22482797e78af1c40c4bf",
        "ray": "50e8df178dca9b4e44192e64f51a5fd616829b7920fe22b497fc253556494c35",
        "plan": "8e7596d6a9390fc4bc0d547b230d8535a33c3bcd30e219c9ae8294ce05cbcd17",
        "cache": "c3f1cd59001b606953e47749b3abee84ab3165c7f18cf5028490c93abda71748"
    },
    "S4": {
        "ftm": "15a8e0399b85797c330e943f2a0ecd9ed9f88f0664e21a9baa96ac54717406c2",
        "ring": "2676bd94e3de58dedca108ea568dd4b953201eb8e17a43942a96b493ba4c4303",
        "ray": "527a67a9839c8e2e160f2f19efd58421d56275c8fe4850b08c4e1a1f0708c602",
        "plan": "4d4ea16359cf6f101cbf9405252867d48bc32c06bbf9ca9197916478e9d6fbf8",
        "cache": "2cdac63568bb05d47819a9872050669f3aa7d9579d8f534cec78bdcaac60c7d7"
    },
    "S5": {
        "ftm": "15a8e0399b85797c330e943f2a0ecd9ed9f88f0664e21a9baa96ac54717406c2",
        "ring": "2676bd94e3de58dedca108ea568dd4b953201eb8e17a43942a96b493ba4c4303",
        "ray": "527a67a9839c8e2e160f2f19efd58421d56275c8fe4850b08c4e1a1f0708c602",
        "plan": "4d4ea16359cf6f101cbf9405252867d48bc32c06bbf9ca9197916478e9d6fbf8",
        "cache": "2cdac63568bb05d47819a9872050669f3aa7d9579d8f534cec78bdcaac60c7d7"
    },
    "S6": {
        "ftm": "8064507af35691dc7373cef97d65b302a6f4d4231c2185ada73baa3c09c1b004",
        "ring": "5c1818240577eba2ddb37b6a8a2fdcacb0eaa22e3f95e2302ddbf0d3db1e00fb",
        "ray": "1e936e0bc28d2c7112929c07073ac3af21453f6e3e68fa4fe5a74211cf87fa52",
        "plan": "23337905c75bedbeab04cda0979d1d9312e2b8c7d0ed8463adaefbf580e23826",
        "cache": "718f07c57b314a2c9a9e029997def9ce75c7eeee304564abcf00f169341d9e04"
    }
}


@pytest.mark.parametrize("setting", sorted(PRESETS))
def test_pitched_rig_builds_match_golden_digests(setting, tmp_path):
    scene = setting_scene(load_scene(CONFIGS / "pitched_rig.json"), PRESETS[setting])
    assert digests(scene, tmp_path) == PITCHED_GOLDEN[setting]

"""The package's public boundary: exported names resolve, every module-level
import is used, the test oracles run no library code, geometry imports no
bevx module but errors, every public route rejects a non-finite input with
a ValidationError naming the argument, every public call returns or raises
a BevxError on drawn arguments, and the README's python examples run."""
import ast
import copy
import importlib
import inspect
import itertools
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import bevx
from bevx import (
    BevxError,
    GeometryError,
    Scene,
    ValidationError,
    build_ftm,
    build_ring_ray,
    effective_ftm,
    full_vs_prime_ablation,
    generate_frustum,
    lift,
    load_ring_ray,
    load_scene,
    prime_depth,
    prime_feature,
    save_ring_ray,
    scene_digest,
    scene_to_dict,
    splat_reference,
    vt_ftm,
    vt_matrixvt,
)
from bevx import bench
from bevx.bench import (
    PRESETS,
    emit_check_json,
    emit_csv,
    emit_json,
    flip_ring_bit,
    make_inputs,
    parse_csv,
    setting_scene,
)
from oracles import identity_refine, random_scene, uniform

N_C, W_I, H_I, N_D, C = 2, 4, 3, 5, 3
W = N_C * W_I


@pytest.mark.parametrize(
    "module", ["bevx", "bevx.tensor_core", "bevx.transform", "bevx.reference", "bevx.bench"]
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """Names bound by module-level imports of `path` that the module never
    reads. A name listed in __all__ counts as read; `from __future__` lines
    bind nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "bevx").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def functions_building(fragment):
    """The functions of `src/` whose code, docstrings excluded, holds a
    string literal containing `fragment`, as "module.function": the
    innermost function around the literal, or "module.None" outside any."""
    found = set()
    for path in sorted((ROOT / "src" / "bevx").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        docs = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
        }

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and fragment in node.value and id(node) not in docs):
                found.add(f"{module}.{owner}")
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(tree, None)
    return found


@pytest.mark.parametrize(
    "fragment, builder",
    [
        ("exceed physical memory or the address-space limit", "bevx.geometry._require_memory"),
        ("is not an array of real numbers", "bevx.geometry._real"),
        ("index out of range", "bevx.tensor_core._in_range"),
        ("; valid: ", "bevx.bench.__init__._requested"),
    ],
)
def test_each_refusal_message_is_built_once(fragment, builder):
    """Each refusal rule raises its message from one helper, which every
    caller calls; no caller builds a copy of the message."""
    assert functions_building(fragment) == {builder}


def library_method_names():
    """Non-dunder names defined on any class of a bevx module, less those
    numpy arrays also define (`a.shape` is not a bevx property)."""
    import bevx

    modules = [bevx] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(bevx.__path__, "bevx.")
        if not info.name.endswith("__main__")
    ]
    classes = {
        klass
        for mod in modules
        for obj in vars(mod).values()
        if isinstance(obj, type)
        for klass in obj.__mro__
        if klass.__module__.startswith("bevx")
    }
    names = {
        n for klass in classes for n in vars(klass)
        if not (n.startswith("__") and n.endswith("__"))
    }
    return names - set(dir(np.ndarray))


def library_uses(path):
    """What `path` takes from bevx beyond its data types: imported names
    that are not classes, and calls to methods of bevx classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = library_method_names()
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            uses += [a.name for a in node.names if a.name.split(".")[0] == "bevx"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bevx":
            mod = importlib.import_module(node.module)
            uses += [
                a.name for a in node.names
                if not isinstance(getattr(mod, a.name, None), type)
            ]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in methods:
                uses.append(f"{node.func.attr}() at line {node.lineno}")
    return uses


def test_oracles_run_no_library_code():
    """The oracles validate the library, so they may build its data types
    but must not call its functions or methods."""
    assert library_uses(ROOT / "tests" / "oracles.py") == []


def test_geometry_imports_no_bevx_module_but_errors():
    """tensor_core imports geometry, so geometry imports nothing from
    tensor_core, nor from any other bevx module but errors, at module level
    or inside a function."""
    tree = ast.parse((ROOT / "src" / "bevx" / "geometry.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bevx"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.startswith("bevx")}
    assert imported == {"errors"}


@pytest.fixture(scope="module")
def scene_parts():
    scene = random_scene(
        np.random.default_rng(5), n_cameras=N_C, w_i=W_I, h_i=H_I, n_d=N_D, grid_cells=8
    )
    frustum = generate_frustum(scene.rig, scene.bins)
    return SimpleNamespace(
        scene=scene,
        frustum=frustum,
        ftm=build_ftm(frustum, scene.grid),
        rr=build_ring_ray(frustum, scene.grid),
    )


def poisoned(shape, bad):
    """An input of `shape` with one `bad` value, or what `bad(shape)` makes
    when `bad` is a callable."""
    if callable(bad):
        return bad(shape)
    x = np.random.default_rng(0).random(shape, dtype=np.float32)
    x.flat[x.size // 2] = bad
    return x


def clean(shape):
    return np.random.default_rng(1).random(shape, dtype=np.float32)


ROUTES = {
    "lift-features": lambda bad, p: lift(poisoned((W, C), bad), clean((W, N_D))),
    "lift-depths": lambda bad, p: lift(clean((W, C)), poisoned((W, N_D), bad)),
    "vt_ftm-lifted": lambda bad, p: vt_ftm(poisoned((W, N_D, C), bad), p.ftm),
    "splat_reference-lifted": lambda bad, p: splat_reference(
        poisoned((W, N_D, C), bad), p.frustum, p.scene.grid
    ),
    "full_vs_prime_ablation-feature": lambda bad, p: full_vs_prime_ablation(
        p.scene,
        poisoned((N_C, H_I, W_I, C), bad),
        clean((N_C, H_I, W_I, N_D)),
        uniform(N_C, H_I, W_I),
        identity_refine(C),
        np.zeros((H_I, W_I, C), dtype=np.float32),
    ),
    "full_vs_prime_ablation-depth": lambda bad, p: full_vs_prime_ablation(
        p.scene,
        clean((N_C, H_I, W_I, C)),
        poisoned((N_C, H_I, W_I, N_D), bad),
        uniform(N_C, H_I, W_I),
        identity_refine(C),
        np.zeros((H_I, W_I, C), dtype=np.float32),
    ),
    "full_vs_prime_ablation-pos_embed": lambda bad, p: full_vs_prime_ablation(
        p.scene,
        clean((N_C, H_I, W_I, C)),
        clean((N_C, H_I, W_I, N_D)),
        uniform(N_C, H_I, W_I),
        identity_refine(C),
        poisoned((H_I, W_I, C), bad),
    ),
    "vt_matrixvt-features": lambda bad, p: vt_matrixvt(
        poisoned((W, C), bad), clean((W, N_D)), p.rr
    ),
    "vt_matrixvt-depths": lambda bad, p: vt_matrixvt(
        clean((W, C)), poisoned((W, N_D), bad), p.rr
    ),
    "prime_depth-depth": lambda bad, p: prime_depth(
        poisoned((N_C, H_I, W_I, N_D), bad), uniform(N_C, H_I, W_I)
    ),
    "prime_feature-feature": lambda bad, p: prime_feature(
        poisoned((N_C, H_I, W_I, C), bad),
        np.zeros((H_I, W_I, C), dtype=np.float32),
        identity_refine(C),
    ),
    "prime_feature-pos_embed": lambda bad, p: prime_feature(
        clean((N_C, H_I, W_I, C)),
        poisoned((H_I, W_I, C), bad),
        identity_refine(C),
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_non_finite_input_rejected(route, bad, scene_parts):
    """The message names the poisoned argument, the suffix of the route id."""
    arg = route.rsplit("-", 1)[1]
    with pytest.raises(ValidationError, match=f"^{arg} contains non-finite"):
        ROUTES[route](bad, scene_parts)


# each makes an input of a shape that holds no array of real numbers
NOT_REAL = {
    "complex": lambda shape: clean(shape) + 1j,
    "string": lambda shape: "abc",
    "ragged": lambda shape: [[0.0, 1.0], [0.0]],
    "none": lambda shape: np.full(shape, None, dtype=object),
}


@pytest.mark.parametrize("kind", sorted(NOT_REAL))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_input_of_no_real_numbers_rejected(route, kind, scene_parts):
    """A complex input loses no imaginary part silently, and a string or a
    ragged list is a typed error, not a bare ValueError."""
    arg = route.rsplit("-", 1)[1]
    with pytest.raises(ValidationError, match=f"^{arg} is not an array of real numbers"):
        ROUTES[route](NOT_REAL[kind], scene_parts)


def test_zero_channels_give_empty_outputs(scene_parts):
    """With no channels, lift gives (W, N_d, 0) and each of the three
    transforms a float32 (S, 0), not a bare ValueError from reshaping an
    empty tensor."""
    p = scene_parts
    features, depths = np.zeros((W, 0), np.float32), clean((W, N_D))
    lifted = lift(features, depths)
    assert lifted.shape == (W, N_D, 0)
    outs = [
        splat_reference(lifted, p.frustum, p.scene.grid),
        vt_ftm(lifted, p.ftm),
        vt_matrixvt(features, depths, p.rr),
    ]
    for out in outs:
        assert out.shape == (p.scene.grid.n_cells, 0) and out.dtype == np.float32


# each passes one object argument of the wrong type, `None` or a digest that
# is not a str, with valid other arguments; `d` is an empty cache directory
WRONG_TYPE = {
    "vt_matrixvt-rr": lambda p, d: vt_matrixvt(clean((W, C)), clean((W, N_D)), None),
    "effective_ftm-rr": lambda p, d: effective_ftm(None),
    "save_ring_ray-rr": lambda p, d: save_ring_ray(None, d, "digest"),
    "save_ring_ray-digest": lambda p, d: save_ring_ray(p.rr, d, b"digest"),
    "load_ring_ray-digest": lambda p, d: load_ring_ray(d, b"digest"),
    "load_ring_ray-digest-saved": lambda p, d: (
        save_ring_ray(p.rr, d, "digest"), load_ring_ray(d, b"digest")
    ),
    "vt_ftm-ftm": lambda p, d: vt_ftm(clean((W, N_D, C)), None),
    "build_ftm-frustum": lambda p, d: build_ftm(None, p.scene.grid),
    "build_ftm-grid": lambda p, d: build_ftm(p.frustum, None),
    "build_ring_ray-frustum": lambda p, d: build_ring_ray(None, p.scene.grid),
    "build_ring_ray-grid": lambda p, d: build_ring_ray(p.frustum, None),
    "splat_reference-frustum": lambda p, d: splat_reference(
        clean((W, N_D, C)), None, p.scene.grid
    ),
    "splat_reference-grid": lambda p, d: splat_reference(clean((W, N_D, C)), p.frustum, None),
    "generate_frustum-rig": lambda p, d: generate_frustum(None, p.scene.bins),
    "generate_frustum-rig-list": lambda p, d: generate_frustum(
        list(p.scene.rig.cameras), p.scene.bins
    ),
    "generate_frustum-bins": lambda p, d: generate_frustum(p.scene.rig, p.scene.grid),
    "Scene-rig": lambda p, d: Scene(None, p.scene.bins, p.scene.grid),
    "Scene-bins": lambda p, d: Scene(p.scene.rig, None, p.scene.grid),
    "Scene-grid": lambda p, d: Scene(p.scene.rig, p.scene.bins, [8, 8]),
    "scene_digest-scene": lambda p, d: scene_digest(0),
    "scene_to_dict-scene": lambda p, d: scene_to_dict(None),
    "full_vs_prime_ablation-scene": lambda p, d: full_vs_prime_ablation(
        None,
        clean((N_C, H_I, W_I, C)),
        clean((N_C, H_I, W_I, N_D)),
        uniform(N_C, H_I, W_I),
        identity_refine(C),
        np.zeros((H_I, W_I, C), dtype=np.float32),
    ),
    "load_ring_ray-directory": lambda p, d: load_ring_ray(None, "digest"),
    "save_ring_ray-directory": lambda p, d: save_ring_ray(p.rr, None, "digest"),
    "save_ring_ray-directory-bytes": lambda p, d: save_ring_ray(p.rr, os.fsencode(d), "digest"),
    "setting_scene-scene": lambda p, d: setting_scene(None, PRESETS["S1"]),
    "setting_scene-setting": lambda p, d: setting_scene(p.scene, "S1"),
    "make_inputs-scene": lambda p, d: make_inputs(None, 8, 0),
    "flip_ring_bit-exact": lambda p, d: flip_ring_bit(p.rr, None),
    "emit_csv-records": lambda p, d: emit_csv(None),
    "emit_csv-records[1]": lambda p, d: emit_csv(
        [bench.BenchRecord("S1", "ftm", 1.0, 1.0, 1.0, 1, 3), p.scene]
    ),
    "emit_json-records": lambda p, d: emit_json(1.5),
    "emit_check_json-report": lambda p, d: emit_check_json(None),
    "parse_csv-text": lambda p, d: parse_csv(b"ab"),
}

GEOMETRY_CALLS = ("generate_frustum", "Scene", "scene_digest", "scene_to_dict")


@pytest.mark.parametrize("route", sorted(WRONG_TYPE))
def test_argument_of_the_wrong_type_rejected(route, scene_parts, tmp_path):
    """A typed error naming the argument, not a bare AttributeError or
    TypeError, and the same whether or not the cache slot holds a file; a
    geometry function's own error is a GeometryError."""
    call, arg = route.split("-")[:2]
    error = GeometryError if call in GEOMETRY_CALLS else ValidationError
    with pytest.raises(error, match=f"^{re.escape(arg)} must be a "):
        WRONG_TYPE[route](scene_parts, tmp_path)


def public_callables():
    """Every callable of `bevx.__all__` and every function of
    `bevx.bench.__all__`, by name, less `DTYPE`: that is numpy's float32
    type, exported as the package's dtype, so its parsing is numpy's."""
    calls = {name: getattr(bevx, name) for name in bevx.__all__ if name != "DTYPE"}
    calls = {name: call for name, call in calls.items() if callable(call)}
    for name in bench.__all__:
        if inspect.isfunction(getattr(bench, name)):
            calls[f"bench.{name}"] = getattr(bench, name)
    return calls


PUBLIC = public_callables()


def positional(call):
    """The names of `call`'s positional parameters, defaulted ones too; an
    error type takes one, its message."""
    if isinstance(call, type) and issubclass(call, BaseException):
        return ["message"]
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in inspect.signature(call).parameters.values() if p.kind in kinds]


# two of the three pools each fuzzed argument is drawn from:
# small arrays of seven dtypes (float and complex ones may hold NaN and
# +-inf), and values of the wrong type for any parameter
ARRAYS = hnp.arrays(
    st.sampled_from([np.float32, np.float64, np.int32, np.int64, np.uint8, np.bool_, np.complex64]),
    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
)
WRONG = (None, "x", -1, 2**40, 1.5, math.nan, [[1.0, 2.0], [3.0]], {}, b"ab", object())


@pytest.fixture(scope="module")
def bundled():
    """The third pool: the bundled rig's scene, its parts, what is built
    from it and its digest, keyed by the parameter name each is passed as."""
    scene = load_scene(ROOT / "configs" / "six_camera_rig.json")
    frustum = generate_frustum(scene.rig, scene.bins)
    rr, ftm = build_ring_ray(frustum, scene.grid), build_ftm(frustum, scene.grid)
    return {
        "scene": scene, "rig": scene.rig, "bins": scene.bins, "grid": scene.grid,
        "frustum": frustum, "rr": rr, "ring": rr.ring, "ray": rr.ray, "ftm": ftm, "exact": ftm,
        "digest": scene_digest(scene),
    }


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_every_public_call_returns_or_raises_a_bevx_error(
    name, bundled, memory_cap, tmp_path, monkeypatch
):
    """A fuzz of the public surface: every call must return or raise a
    BevxError. First a sweep: each wrong-typed value in each position, with
    every other parameter the bundled object named like it, if one is, else
    the same value. Then a seeded search whose every positional argument is
    drawn from three pools, the third being the bundled object named like
    the parameter, if one is, else any bundled object. It runs in an empty
    directory, where a drawn path such as "x" is created or read, under
    `memory_cap`, so no draw can take the host's memory."""
    monkeypatch.chdir(tmp_path)
    call, params = PUBLIC[name], positional(PUBLIC[name])
    for k, value in itertools.product(range(len(params)), WRONG):
        named = [i != k and p in bundled for i, p in enumerate(params)]
        args = [bundled[p] if b else copy.deepcopy(value) for p, b in zip(params, named)]
        try:
            call(*args)
        except BevxError:
            pass
        except Exception as exc:
            shown = ", ".join(p if b else repr(a) for p, b, a in zip(params, named, args))
            raise AssertionError(f"{name}({shown}): {exc!r}") from exc

    def pool(param):
        ours = [bundled[param]] if param in bundled else list(bundled.values())
        return st.one_of(st.sampled_from(WRONG).map(copy.deepcopy), st.sampled_from(ours), ARRAYS)

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(st.tuples(*map(pool, params)))
    def search(args):
        try:
            call(*args)
        except BevxError:
            pass

    search()


def test_readme_python_blocks_run():
    """Every python block in README.md runs from the repo root, so the docs
    cannot name deleted API."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for block in blocks:
        run = subprocess.run(
            [sys.executable, "-c", block], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr

"""The package's public boundary: exported names resolve, every module-level
import is used, the test oracles run no library code, geometry imports no
bevx module but errors, every public route rejects a non-finite input with
a ValidationError naming the argument, and the README's python examples
run."""
import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bevx import (
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
    prime_depth,
    prime_feature,
    save_ring_ray,
    splat_reference,
    vt_ftm,
    vt_matrixvt,
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
}


@pytest.mark.parametrize("route", sorted(WRONG_TYPE))
def test_argument_of_the_wrong_type_rejected(route, scene_parts, tmp_path):
    """A typed error naming the argument, not a bare AttributeError or
    TypeError, and the same whether or not the cache slot holds a file; a
    geometry type's own error is a GeometryError."""
    call, arg = route.split("-")[:2]
    error = GeometryError if call in ("generate_frustum", "Scene") else ValidationError
    with pytest.raises(error, match=f"^{arg} must be a "):
        WRONG_TYPE[route](scene_parts, tmp_path)


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

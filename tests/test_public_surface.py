"""The package's public boundary: exported names resolve, every module-level
import is used, the test oracles run no library code, every public route
rejects a non-finite input with a ValidationError naming the argument, and
the README's python examples run."""
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
    ValidationError,
    build_ftm,
    build_ring_ray,
    full_vs_prime_ablation,
    generate_frustum,
    lift,
    prime_depth,
    prime_feature,
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
    ),
    "full_vs_prime_ablation-depth": lambda bad, p: full_vs_prime_ablation(
        p.scene,
        clean((N_C, H_I, W_I, C)),
        poisoned((N_C, H_I, W_I, N_D), bad),
        uniform(N_C, H_I, W_I),
        identity_refine(C),
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
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_non_finite_input_rejected(route, bad, scene_parts):
    """The message names the poisoned argument, the suffix of the route id."""
    arg = route.rsplit("-", 1)[1]
    with pytest.raises(ValidationError, match=f"^{arg} contains non-finite"):
        ROUTES[route](bad, scene_parts)


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

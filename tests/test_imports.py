"""Every module-level import of the library is used somewhere in its module, no
module imports scipy, which only the tests and the benchmark sweeps use, or a
concurrency package, no module imports another module's underscore name, and
every public name has a caller.  Among the tests, only `oracles.py` builds a
model, and only it and `test_noise.py` build a noise stream."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdelab"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_FILES = sorted(PACKAGE.glob("*.py"))
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def imports_from(source: str, packages: tuple[str, ...]) -> list[str]:
    """Modules of `packages` imported anywhere in `source`, function bodies included."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] in packages]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from typing import Callable, Sequence\n"
        "def f(x: Sequence) -> float:\n    return np.sqrt(os.path.sep)\n"
    )
    assert unused_imports(source) == ["math", "Callable"]


@pytest.mark.parametrize("path", ALL_FILES, ids=[p.stem for p in ALL_FILES])
def test_module_does_not_import_scipy(path):
    assert imports_from(path.read_text(), ("scipy",)) == []


def test_scipy_detector_sees_lazy_imports():
    source = (
        "import scipyx\nfrom . import scipy_like\n"
        "def f():\n    from scipy.optimize import brentq\n    import scipy.fft as fft\n"
    )
    assert imports_from(source, ("scipy",)) == ["scipy.optimize", "scipy.fft"]


# Paths run on the calling thread.  The benchmark VM has 2 vCPUs but about one
# CPU of throughput: two CPU-bound processes take 0.59 s side by side against
# 0.63 s one after the other.  The thread pool that map_paths once had lost
# there: probe-temporal took 0.44-0.49 s spawn to exit on 2 workers against
# 0.26-0.40 s on 1, over 3 series of 5 runs.
CONCURRENCY = ("concurrent", "threading", "multiprocessing")


@pytest.mark.parametrize("path", ALL_FILES, ids=[p.stem for p in ALL_FILES])
def test_module_does_not_import_concurrency(path):
    assert imports_from(path.read_text(), CONCURRENCY) == []


def test_concurrency_detector_sees_lazy_imports():
    source = (
        "from concurrent.futures import ThreadPoolExecutor\nimport threadingx\n"
        "def f():\n    import threading\n    from multiprocessing import pool\n"
    )
    assert imports_from(source, CONCURRENCY) == ["concurrent.futures", "threading",
                                                 "multiprocessing"]


# Underscore names that another library module may import, each with its reason.
PRIVATE_IMPORTS_ALLOWED = {
    "spectrum._frozen_array": "models freezes the covariance, the initial state and the "
                              "multipliers into read-only arrays the way spectrum freezes "
                              "the eigenvalues",
}


def private_imports(source: str) -> list[str]:
    """`module.name` for each underscore name that `source` imports from the package."""
    return [
        f"{node.module or 'spdelab'}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", ALL_FILES, ids=[p.stem for p in ALL_FILES])
def test_module_imports_no_private_name(path):
    names = private_imports(path.read_text())
    assert [name for name in names if name not in PRIVATE_IMPORTS_ALLOWED] == []


def test_private_allowlist_is_used():
    used = {name for p in ALL_FILES for name in private_imports(p.read_text())}
    assert set(PRIVATE_IMPORTS_ALLOWED) <= used


def test_private_import_detector():
    source = (
        "from .models import ModelSpec, _drift_rows\nfrom . import _hidden\n"
        "from numpy import _core\n"
        "def f():\n    from .noise import _draw as draw\n"
    )
    assert private_imports(source) == ["models._drift_rows", "spdelab._hidden", "noise._draw"]


def exported_names(source: str) -> list[str]:
    """Names that a package `__init__` imports from its own modules."""
    return [
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def referenced_names(source: str) -> set[str]:
    """Names read in `source`, bare or as an attribute, by any top-level
    statement other than the one that defines them."""
    names = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        elif isinstance(stmt, ast.Assign):
            defined = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        else:
            defined = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            else:
                continue
            if used not in defined:
                names.add(used)
    return names


PUBLIC = exported_names((PACKAGE / "__init__.py").read_text())
CALLED = set().union(*(referenced_names(p.read_text()) for p in [*MODULES, ACCEPTANCE]))


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_a_caller(name):
    assert name in CALLED, f"{name} is exported but neither the library nor acceptance uses it"


def test_caller_detector_skips_the_definition():
    source = (
        "from .solver import simulate\n"
        "def walk(n):\n    return walk(n - 1)\n"
        "class Path:\n    def split(self):\n        return Path()\n"
        "LIMIT = 3\n"
        "def run(cfg):\n    return simulate(cfg.LIMIT, probes.sweep)\n"
    )
    assert referenced_names(source) == {"n", "simulate", "cfg", "LIMIT", "probes", "sweep"}


ORACLE = Path(__file__).resolve().parent / "oracles.py"


# the oracle is the reference the solver and the library's convolution series are
# judged against, so it neither imports nor calls them
def test_oracle_is_independent_of_what_it_checks():
    source = ORACLE.read_text()
    modules = imports_from(source, ("spdelab",))
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "spdelab.models" in modules and "spdelab.solver" not in modules
    used = imported | referenced_names(source)
    assert not used & {"solver", "map_paths", "stochastic_convolution_energy"}


def public_definitions(source: str) -> list[str]:
    """Public top-level functions and classes of `source`, and their classes' public methods."""
    names = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            names += [f.name for f in stmt.body if isinstance(f, ast.FunctionDef)]
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.append(stmt.name)
    return [name for name in names if not name.startswith("_")]


TEST_CALLS = set().union(*(referenced_names(p.read_text())
                           for p in ORACLE.parent.glob("test_*.py")))


@pytest.mark.parametrize("name", public_definitions(ORACLE.read_text()))
def test_oracle_name_has_a_caller(name):
    assert name in TEST_CALLS, f"oracles.{name} has no caller in the tests"


# the test files that may call each constructor: the tests build every model with
# `make_model` and read the kernel's noise with `kernel_normals`, so a change to
# either is made in one place
CONSTRUCTED_IN = {"ModelSpec": {"oracles.py"}, "NoiseStream": {"oracles.py", "test_noise.py"}}


def called_names(source: str) -> set[str]:
    """Names called in `source`, bare or as an attribute."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_tests_construct_models_and_noise_streams_in_one_place():
    calls = {p.name: called_names(p.read_text()) for p in ORACLE.parent.glob("*.py")}
    callers = {name: {file for file, names in calls.items() if name in names}
               for name in CONSTRUCTED_IN}
    assert callers == CONSTRUCTED_IN

"""Every module-level import of the library is used somewhere in its module, and
no module imports scipy, which only the tests and the benchmark sweeps use."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdelab"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_FILES = sorted(PACKAGE.glob("*.py"))


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


def scipy_imports(source: str) -> list[str]:
    """Modules of scipy imported anywhere in `source`, function bodies included."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name == "scipy" or name.startswith("scipy.")]


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
    assert scipy_imports(path.read_text()) == []


def test_scipy_detector_sees_lazy_imports():
    source = (
        "import scipyx\nfrom . import scipy_like\n"
        "def f():\n    from scipy.optimize import brentq\n    import scipy.fft as fft\n"
    )
    assert scipy_imports(source) == ["scipy.optimize", "scipy.fft"]

"""Source hygiene: no module imports a name it never uses, only ``linalg``
touches scipy, and importing the package leaves ``scipy.linalg`` unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pseudoherm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # ``a.b`` starts from the Name ``a``; string annotations are not parsed
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_detected():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == \
        ["os", "tau"]


def _scipy_imports(source: str) -> list[int]:
    """Line numbers of ``import scipy...`` / ``from scipy... import``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_imports_scipy(path):
    assert _scipy_imports(path.read_text(encoding="utf-8")) == []


def test_scipy_import_is_detected():
    source = ("import numpy\nfrom scipy.linalg.lapack import ztrsen\nimport scipy\n"
              "from . import linalg\nimport scipyx\n")
    assert _scipy_imports(source) == [2, 3]


@pytest.mark.parametrize("module", ["pseudoherm", "pseudoherm.cli"])
def test_import_leaves_scipy_linalg_unloaded(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                      env.get("PYTHONPATH")]))
    code = (f"import sys, {module}\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert 'scipy.linalg' not in loaded, loaded\n"
            "assert loaded == ['scipy.linalg._flapack', 'scipy.linalg._matfuncs_expm'], loaded\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

"""Source hygiene: no module imports a name it never uses, no function
ignores a parameter, every defined function is used somewhere, no module
reads another object's private attributes, only ``spectral`` constructs a
decomposition, only ``linalg`` touches scipy, importing the package leaves
``scipy.linalg`` unloaded, every Frobenius norm is ``linalg._fro``, only
``linalg`` runs an eigensolve, and the package keeps state in two places
only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pseudoherm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
#: every Python file that may use a name the package defines
USERS = sorted(p for d in ("src", "tests", "demos", "perfbench")
               for p in (ROOT / d).rglob("*.py"))


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


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter, not named ``_...``, that
    its function's body never reads."""
    unread = []
    for fn in _functions(ast.parse(source)):
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{fn.name}.{p.arg}" for p in params
                   if not p.arg.startswith("_") and p.arg not in read]
    return unread


def test_every_parameter_is_read():
    assert [name for path in sorted(SRC.glob("*.py"))
            for name in _unread_parameters(path.read_text(encoding="utf-8"))] == []


def test_unread_parameter_is_detected():
    source = ("def f(a, b, *, c=1, _d=2, **kw):\n    def g(e):\n        return a\n"
              "    return g(c) + kw['x']\n")
    assert _unread_parameters(source) == ["f.b", "g.e"]


def _references(tree) -> list[tuple[str, int]]:
    """``(name, line)`` of every use of a name: a variable, an attribute, an
    imported name, or a string that equals it (``getattr`` by name)."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            refs += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.append((node.value, node.lineno))
    return refs


def _unreferenced_definitions(defined: dict, users: dict) -> list[str]:
    """``module:name`` of each non-dunder function, method or property
    defined in a ``defined`` source that no ``users`` source references
    outside the definition's own lines.  Both map a label to source text."""
    refs = {label: _references(ast.parse(text)) for label, text in users.items()}
    unused = []
    for label, text in defined.items():
        for fn in _functions(ast.parse(text)):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            if not any(name == fn.name and not (user == label
                                                and fn.lineno <= line <= fn.end_lineno)
                       for user, found in refs.items() for name, line in found):
                unused.append(f"{label}:{fn.name}")
    return sorted(unused)


def _sources(paths) -> dict:
    return {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}


def test_every_definition_is_used():
    assert _unreferenced_definitions(_sources(SRC.glob("*.py")), _sources(USERS)) == []


def test_unused_definition_is_detected():
    defined = {"m.py": ("class A:\n    def __init__(self):\n        pass\n\n"
                        "    @property\n    def size(self):\n        return self.size\n\n"
                        "def f():\n    return f()\n\ndef g():\n    pass\n\n"
                        "def h():\n    pass\n")}
    users = dict(defined, **{"t.py": "from m import g\ngetattr(m, 'h')()\n"})
    assert _unreferenced_definitions(defined, users) == ["m.py:f", "m.py:size"]


def _private_reads(source: str) -> list[str]:
    """``owner._name`` for each read of a ``_``-prefixed, non-dunder
    attribute whose owner is not ``self``, ``cls`` or an imported module."""
    tree = ast.parse(source)
    modules = {"self", "cls"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import m
            modules |= {alias.asname or alias.name for alias in node.names}
    return [f"{ast.unparse(node.value)}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_attribute_of_another_object_is_read(path):
    assert _private_reads(path.read_text(encoding="utf-8")) == []


def test_private_read_is_detected():
    source = ("import numpy as np\nfrom . import ops\nfrom .spectral import Dec\n"
              "class A:\n    def f(self, dec):\n        self._x = dec._factors['psi']\n"
              "        return ops._kernel(np._NoValue, Dec._cache, self._x.__len__())\n")
    assert _private_reads(source) == ["dec._factors", "Dec._cache"]


#: the decomposition classes, which only ``spectral._assemble`` may build
DECOMPOSITION_CLASSES = {"SpectralDecomposition", "EigenGroup", "JordanChain"}


def _decomposition_constructions(source: str) -> list[str]:
    """``name:line`` of each call of a decomposition class, bare or as an
    attribute (``spectral.JordanChain(...)``)."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in DECOMPOSITION_CLASSES:
                calls.append(f"{name}:{node.lineno}")
    return calls


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "spectral.py"], ids=lambda p: p.name)
def test_only_spectral_constructs_a_decomposition(path):
    assert _decomposition_constructions(path.read_text(encoding="utf-8")) == []


def test_decomposition_construction_is_detected():
    source = ("from . import spectral\nfrom .spectral import EigenGroup, JordanChain\n"
              "c = JordanChain(psi=a, phi=b)\ng = EigenGroup(1.0, 'real', None, (c,))\n"
              "d = spectral.SpectralDecomposition(groups=(g,), psi=a, phi=b)\n"
              "e = spectral._assemble(specs, tol, a, b)\n")
    assert _decomposition_constructions(source) == [
        "JordanChain:3", "EigenGroup:4", "SpectralDecomposition:5"]


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


def _whole_array_norms(source: str) -> list[int]:
    """Line numbers of each ``numpy.linalg.norm`` call without an axis (the
    whole array's norm), by any of ``np.linalg.norm``, ``numpy.linalg.norm``
    or a ``norm`` imported from ``numpy.linalg``; ``axis=None`` counts as
    none."""
    tree = ast.parse(source)
    bare = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
            for alias in node.names if alias.name == "norm"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not ((isinstance(f, ast.Attribute) and f.attr == "norm"
                 and ast.unparse(f.value) in ("np.linalg", "numpy.linalg"))
                or (isinstance(f, ast.Name) and f.id in bare)):
            continue
        axis = [k.value for k in node.keywords if k.arg == "axis"] + node.args[2:3]
        if not axis or (isinstance(axis[0], ast.Constant) and axis[0].value is None):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_frobenius_norm_is_the_kernel(path):
    """A whole-array norm is measured by ``linalg._fro``, so that every
    residual and threshold, and expm's bound and the propagator's route
    test, read one kernel."""
    assert _whole_array_norms(path.read_text(encoding="utf-8")) == []


def test_whole_array_norm_is_detected():
    source = ("import numpy as np\nimport numpy\nfrom numpy.linalg import norm as nrm\n"
              "np.linalg.norm(a)\nnp.linalg.norm(a, axis=0)\nnumpy.linalg.norm(a, 'fro')\n"
              "nrm(b)\nnp.linalg.norm(a, None, 1)\nnp.linalg.norm(a, axis=None)\n"
              "x.norm(a)\nlinalg.norm(a)\nnrm(b, axis=-1)\n")
    assert _whole_array_norms(source) == [4, 6, 7, 9]


def _eigensolves(source: str) -> list[int]:
    """Line numbers of each use, called or passed, of numpy's ``eigvalsh`` or
    ``eigh``: ``np.linalg.<name>``, ``numpy.linalg.<name>``, or a name
    imported from ``numpy.linalg``."""
    tree = ast.parse(source)
    solvers = {"eigvalsh", "eigh"}
    bare = {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
            for alias in node.names if alias.name in solvers}
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr in solvers
                      and ast.unparse(node.value) in ("np.linalg", "numpy.linalg"))
                  or (isinstance(node, ast.Name) and node.id in bare))


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_runs_an_eigensolve(path):
    """Every eigenvalue question goes through ``linalg``: the metric rule
    (``_metric_decision``, ``metric_eigenvalues``) or ``hermitian_eigh``."""
    assert _eigensolves(path.read_text(encoding="utf-8")) == []


def test_eigensolve_is_detected():
    source = ("import numpy as np\nimport numpy\nfrom numpy.linalg import eigh as e\n"
              "np.linalg.eigvalsh(a)\nsolve(a, np.linalg.eigh)\nnumpy.linalg.eigh(a)\n"
              "e(a)\nlinalg.eigh(a)\nnp.linalg.eig(a)\nlinalg.hermitian_eigh(a)\n")
    assert _eigensolves(source) == [4, 5, 6, 7]



#: methods by which a list, dict or set is changed in place
_MUTATORS = {"append", "extend", "insert", "clear", "pop", "popitem", "update", "setdefault",
             "add", "remove", "discard", "sort", "reverse"}


def _kept_state(source: str) -> list[str]:
    """Module-level names a module keeps state in: each one a function
    declares ``global``, each one bound at module level to a list, dict or
    set display or comprehension that the module changes in place (by a
    mutating method, an item or slice assignment or deletion, or an
    augmented assignment), and each function memoized by ``cache`` or
    ``lru_cache``."""
    tree = ast.parse(source)
    displays = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    containers = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, displays):
            containers.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.value, displays) \
                and isinstance(node.target, ast.Name):
            containers.add(node.target.id)
    changed, kept = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            kept.update(node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS:
            changed.add(ast.unparse(node.func.value))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            changed.add(ast.unparse(node.value))
        elif isinstance(node, ast.AugAssign):
            changed.add(ast.unparse(node.target))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                ast.unparse(d).split("(")[0].split(".")[-1] in ("cache", "lru_cache")
                for d in node.decorator_list):
            kept.add(node.name)
    return sorted(kept | (containers & changed))


def test_the_package_keeps_state_in_two_places():
    """The package keeps state only in the last analysis
    (``spectral._last``) and the built metrics' records
    (``linalg._carried``), which hold the decisions made on those metrics:
    no other memo can serve one call what an earlier call left."""
    kept = [f"{path.stem}.{name}" for path in MODULES
            for name in _kept_state(path.read_text(encoding="utf-8"))]
    assert kept == ["linalg._carried", "spectral._last"]


def test_kept_state_is_detected():
    source = ("import functools\nfrom functools import lru_cache\n"
              "_memo = {}\n_seen: list = []\n_TABLE = {'a': 1}\n_rows = [1, 2]\n"
              "_counts = {}\n_gone = {1: 2}\n_state = None\n"
              "def f(k):\n    global _state\n    _state = k\n    _memo[k] = 1\n"
              "    _seen.append(k)\n    _counts[k] += 1\n    del _gone[1]\n"
              "    local = []\n    local.append(k)\n    return _TABLE[k] + _rows[0]\n"
              "@functools.cache\ndef g(x):\n    return x\n"
              "@lru_cache(maxsize=4)\ndef h(x):\n    return x\n")
    assert _kept_state(source) == ["_counts", "_gone", "_memo", "_seen", "_state", "g", "h"]

"""JSON/CSV document formats.

Matrices travel as ``{"n": n, "data": [[[re, im], ...], ...]}`` with an
optional ``"antilinear"`` flag (marking "matrix followed by conjugation"
semantics) and ``"label"``.  Vectors use the same idea one rank down.
Canonical form is sorted keys with two-space indentation; floats are emitted
by the shortest representation that round-trips exactly, so writing a parsed
canonical document is bit-identical.

Time series go to CSV with header ``t,value[,...]`` at 15 significant digits.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg
from .errors import DimensionMismatch
from .operators import SymmetryOperator


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_to_doc(m, antilinear: bool = False, label: str | None = None) -> dict:
    m = linalg.as_cmatrix(m)
    doc = {
        "n": int(m.shape[0]),
        "data": [[_pair(z) for z in row] for row in m],
        "antilinear": bool(antilinear),
    }
    if label is not None:
        doc["label"] = str(label)
    return doc


def doc_to_matrix(doc: dict) -> SymmetryOperator:
    if not isinstance(doc, dict) or "n" not in doc or "data" not in doc:
        raise ValueError("matrix document must have 'n' and 'data' fields")
    n = int(doc["n"])
    data = doc["data"]
    if len(data) != n or any(len(row) != n for row in data):
        raise DimensionMismatch(f"matrix document claims n={n} but data disagrees")
    m = np.array([[complex(float(z[0]), float(z[1])) for z in row] for row in data],
                 dtype=np.complex128)
    return SymmetryOperator(m, antilinear=bool(doc.get("antilinear", False)))  # validates m


def vector_to_doc(v) -> dict:
    v = linalg.as_vector(v)
    return {"n": int(v.shape[0]), "data": [_pair(z) for z in v]}


def doc_to_vector(doc: dict) -> np.ndarray:
    if not isinstance(doc, dict) or "n" not in doc or "data" not in doc:
        raise ValueError("vector document must have 'n' and 'data' fields")
    v = np.array([complex(float(z[0]), float(z[1])) for z in doc["data"]],
                 dtype=np.complex128)
    return linalg.as_vector(v, int(doc["n"]))


def group_to_doc(g) -> dict:
    """The one description of an eigenvalue group: eigenvalue, kind, pair id
    and block dimensions."""
    return {"eigenvalue": _pair(g.eigenvalue), "kind": g.kind, "pair_id": g.pair_id,
            "block_dims": list(g.block_dims)}


def decomposition_to_doc(dec) -> dict:
    """Companion document for a spectral decomposition: each group's
    ``group_to_doc`` with both chain bases."""
    return {"n": dec.n, "groups": [group_to_doc(g) | {
        "psi": [[_pair(z) for z in vec] for c in g.chains for vec in c.psi],
        "phi": [[_pair(z) for z in vec] for c in g.chains for vec in c.phi],
    } for g in dec.groups]}


def synthesis_groups_from_doc(doc: dict):
    """Parse ``{"groups": [{"eigenvalue": [re, im], "dims": [p, ...]}, ...]}``."""
    from .spectral import JordanBlockSpec

    if not isinstance(doc, dict) or "groups" not in doc:
        raise ValueError("synthesis document must have a 'groups' field")
    specs = []
    for i, g in enumerate(doc["groups"]):
        for field in ("eigenvalue", "dims"):
            if field not in g:
                raise ValueError(f"synthesis group {i} has no '{field}' field")
        ev = g["eigenvalue"]
        ev = complex(float(ev[0]), float(ev[1])) if isinstance(ev, list) else complex(ev)
        specs.append(JordanBlockSpec(eigenvalue=ev, block_dims=tuple(g["dims"])))
    return tuple(specs)


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def format_csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(x):.15g}" for x in row))
    return "\n".join(lines) + "\n"

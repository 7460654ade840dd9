#!/usr/bin/env python3
"""Digest of every library op's results on the benchmark's inputs.

    python3 tools/op_digest.py --src path/to/src [--seeds 1-3] > digest.txt

Builds the timed pool and the defect probes of each library workload of
``perfbench/inputs`` for each seed, runs every input once through
``perfbench/pipeline.run_op`` (the op the benchmark times) and prints one line
per result field of each input: workload, seed, pool (``timed`` or
``defect``), index, label, field and the SHA-256 of that field, or ``-`` when
the op did not return it.  The fields (``FIELDS``) are the decomposition
(``dec``: group eigenvalues, kinds, pair ids and block sizes, S, Phi,
Phi^dag and the chain table), each operator built with its antilinear flag
(``built``), each refusal's type and message (``refused``; a refused builder
is called once more to read its message), the existence decision
(``exist``), the congruence fields (``cong``), both classifications
(``class_u``, ``class_tp``), the Krein-norm series (``series``), the
transition probabilities (``probs``) and an error that stopped the op
(``error``), so a ``diff`` of two runs names the result that changed.
Arrays are hashed by dtype, shape and bytes, so two trees agree only if
every result is bit-identical.  ``--src`` picks the pseudoherm source tree to
run (default: this checkout's ``src``), so two trees are compared with
``diff``; run both with one BLAS thread (``OPENBLAS_NUM_THREADS=1``) so that
threading cannot change the last bits.  Nothing under ``perfbench/`` is
changed.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small-mixed", "large-defective", "long-evolution")
#: Phi^dag and the decomposition's chain table, read by name so that a tree
#: holding them as fields and one computing them on demand digest alike
TABLE = ("phi_dag", "chain_labels", "chain_dim", "chain_start", "columns", "chain_conj",
         "canonical_signs", "real_block_halves")
#: the result fields of ``run_op``, one digest line each
FIELDS = ("dec", "built", "refused", "exist", "cong", "class_u", "class_tp", "series", "probs",
          "error")


def _feed(sha, obj):
    """Hash ``obj`` with its type and structure into ``sha``."""
    import numpy as np

    from pseudoherm.spectral import SpectralDecomposition

    if isinstance(obj, SpectralDecomposition):
        sha.update(b"decomposition")
        _feed(sha, [(g.eigenvalue, g.kind, g.pair_id, g.block_dims) for g in obj.groups])
        _feed(sha, [obj.psi, obj.phi] + [getattr(obj, name) for name in TABLE])
    elif isinstance(obj, np.ndarray):
        sha.update(f"array {obj.dtype.str} {obj.shape}".encode())
        sha.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        sha.update(type(obj).__name__.encode())
        _feed(sha, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, dict):
        sha.update(f"dict {len(obj)}".encode())
        for key in sorted(obj, key=str):
            _feed(sha, key)
            _feed(sha, obj[key])
    elif isinstance(obj, (list, tuple)):
        sha.update(f"{type(obj).__name__} {len(obj)}".encode())
        for item in obj:
            _feed(sha, item)
    elif isinstance(obj, BaseException):
        sha.update(f"error {type(obj).__name__}: {obj}".encode())
    elif isinstance(obj, enum.Enum):
        sha.update(f"enum {obj.name}".encode())
    elif isinstance(obj, (bool, int, float, complex, str, type(None), np.generic)):
        sha.update(f"{type(obj).__name__} {obj!r}".encode())
    else:
        raise TypeError(f"no digest rule for {type(obj).__name__}")


def digest(case) -> dict:
    """Field -> SHA-256 of that field of what ``run_op`` returns for
    ``case``, builder refusal messages included; a field the op did not
    return reads ``-``."""
    import pipeline
    from pseudoherm import operators
    from pseudoherm.errors import MathematicalRefusal

    out = pipeline.run_op(case)
    for name in out["refused"]:
        try:
            getattr(operators, name)(out["dec"])
        except MathematicalRefusal as exc:
            out["refused"][name] = exc
    if set(out) - set(FIELDS):
        raise KeyError(f"no digest field for {sorted(set(out) - set(FIELDS))}")
    hashes = dict.fromkeys(FIELDS, "-")
    for field in FIELDS:
        if field in out:
            sha = hashlib.sha256()
            _feed(sha, out[field])
            hashes[field] = sha.hexdigest()
    return hashes


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the pseudoherm package to run")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-3"),
                        help="seed or inclusive seed range, e.g. 1-3")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import inputs

    for workload in WORKLOADS:
        for seed in args.seeds:
            timed, defects = inputs.generate(workload, seed)
            for pool, cases in (("timed", timed), ("defect", defects)):
                for i, case in enumerate(cases):
                    for field, value in digest(case).items():
                        print(f"{workload} {seed} {pool} {i} {case.label} {field} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Dense-kernel calls per benchmark op.

    python3 tools/kernel_census.py [--src path/to/src] [--seed 7]

Builds the timed pool of each library workload of ``perfbench/inputs`` for
one seed, runs every input once through ``perfbench/pipeline.run_op`` (the
op the benchmark times), and prints per workload the mean number of calls
per op of each counted kernel:

    schur     linalg.schur
    zgees     linalg._lapack.zgees (LAPACK calls made by schur)
    svd       numpy.linalg.svd (rank tests and the analyze rank staircase)
    qr        numpy.linalg.qr (the staircase's generators of clusters whose
              chains have several lengths)
    eigvalsh  numpy.linalg.eigvalsh of an n x n operand, n the op's dimension:
              the n x n metric rule, which decides a user's metric, on every
              call; the P and P+ an op builds are decided from their
              chain-basis K, so an op makes none
    eigh      numpy.linalg.eigh of an n x n operand (linalg.hermitian_eigh:
              metric eigenvalues and eigenvectors, and the gate's exact
              residual where its norm bound fails)
    blocks    numpy.linalg.eigvalsh or eigh of any other operand; no op
              makes one, so a nonzero count shows an eigensolve that the
              metric questions, all n x n, do not account for
    inv       numpy.linalg.inv and linalg.inv (LU)
    expm      linalg.expm
    decompose spectral._decompose (an analysis made afresh; a call of
              analyze that returns the kept decomposition makes none)
    norm      numpy.linalg.norm without an axis (a whole array's norm, each
              paying numpy's generic dispatch; linalg._fro is not counted)
    reorder   linalg.reorder_schur (LAPACK ztrsen: one per defective
              eigenvalue cluster that analyze sends to the rank staircase)
    calls     Python and C function calls, the ``call`` and ``c_call``
              events of ``sys.setprofile``, over a second pass of the pool
              with no counter wrapped; ufuncs and operators make no event
    analyze   those of ``calls`` made inside spectral.analyze, the call
              itself included

The counters wrap the module attributes only while an op runs, so building
the pool is not counted.  ``--src`` picks the pseudoherm source tree to run
(default: this checkout's ``src``), so two trees are compared with ``diff``.
Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small-mixed", "large-defective", "long-evolution")
KERNELS = ("schur", "zgees", "svd", "qr", "eigvalsh", "eigh", "blocks", "inv", "expm",
           "decompose", "norm", "reorder", "calls", "analyze")


def census(workload: str, seed: int) -> tuple[int, Counter]:
    """``(ops, calls per kernel)`` over the workload's timed pool."""
    import numpy as np

    import inputs
    import pipeline
    from pseudoherm import linalg, spectral

    pool, _ = inputs.generate(workload, seed)
    calls, n = Counter(), [0]
    wrapped = [(linalg, "schur", "schur"), (linalg._lapack, "zgees", "zgees"),
               (np.linalg, "svd", "svd"), (np.linalg, "qr", "qr"),
               (np.linalg, "eigvalsh", "eigvalsh"), (np.linalg, "eigh", "eigh"),
               (np.linalg, "inv", "inv"), (linalg, "inv", "inv"), (linalg, "expm", "expm"),
               (spectral, "_decompose", "decompose"), (np.linalg, "norm", "norm"),
               (linalg, "reorder_schur", "reorder")]
    originals = [getattr(module, attr) for module, attr, _ in wrapped]

    def counted(kernel, real):
        def call(*args, **kwargs):
            if kernel != "norm":
                square = kernel not in ("eigvalsh", "eigh") or np.shape(args[0]) == (n[0], n[0])
                calls[kernel if square else "blocks"] += 1
            elif kwargs.get("axis", args[2] if len(args) > 2 else None) is None:
                calls["norm"] += 1
            return real(*args, **kwargs)
        return call

    try:
        for (module, attr, kernel), real in zip(wrapped, originals):
            setattr(module, attr, counted(kernel, real))
        for case in pool:
            n[0] = case.n
            pipeline.run_op(case)
    finally:
        for (module, attr, _), real in zip(wrapped, originals):
            setattr(module, attr, real)
    inside = []  # the analyze frame while one runs

    def profile(frame, event, _):
        if event in ("call", "c_call"):
            calls["calls"] += 1
            if not inside and event == "call" and frame.f_code is spectral.analyze.__code__:
                inside.append(frame)
            calls["analyze"] += bool(inside)
        elif event == "return" and inside and frame is inside[0]:
            inside.clear()

    for case in pool:
        sys.setprofile(profile)
        try:
            pipeline.run_op(case)
        finally:
            sys.setprofile(None)
    return len(pool), calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the pseudoherm package to run")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    print("workload seed ops " + " ".join(KERNELS) + "  (calls per op)")
    for workload in WORKLOADS:
        ops, calls = census(workload, args.seed)
        print(f"{workload} {args.seed} {ops} "
              + " ".join(f"{calls[k] / ops:.4g}" for k in KERNELS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

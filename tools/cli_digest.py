#!/usr/bin/env python3
"""Digest of the CLI's output on the benchmark's ``cli`` fixtures.

    python3 tools/cli_digest.py --src path/to/src [--mask-numbers] > digest.txt

Writes the fixture files of ``perfbench/clirun.fixtures`` for seeds 1-3 into
a temporary directory and runs each of their commands, the timed ones and the
known-defect one, the three ``construct`` runs of ``KERNEL`` and the three
``analyze`` runs of ``ANALYZE`` (19 per seed, 57 in all), then the usage
errors of ``USAGE_ERRORS`` (exit 1) against the last seed's files, then the
six ``evolve`` runs of ``EVOLVE`` and the ``classify`` run of ``CLASSIFY`` on
files this tool writes, then ``model mashhoon`` once in each spectral regime
with fixed parameters (``MODELS``): 75 commands, each as a fresh
``pseudoherm`` process whose ``PYTHONPATH`` is the given ``src`` directory.
Prints one line per command: seed (``-`` for the models), label, exit code
and the SHA-256 of stdout followed by stderr.  The fixtures are built by this
checkout's ``src`` and named by relative paths, so two runs against two
source trees are compared with ``diff``.

With ``--mask-numbers`` every number in the output (``NUMBER``) is replaced
by ``#`` before hashing.  Two trees whose plain digests differ but whose
masked digests agree changed only numbers, for example in their last digits;
which numbers, and by how much, is then for the plain output to show.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a decimal or exponent number as the CLI prints it (JSON, CSV, messages),
#: and the non-finite spellings of numpy and JSON
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\b(?:nan|inf|NaN|Infinity)\b")
SEEDS = (1, 2, 3)
#: ``model mashhoon`` label -> (E, r, s), one per basis convention of
#: ``evolution.mashhoon_papini`` (the fixtures cover the complex r > 0 one)
MODELS = {
    "model-real-r+": (0.5, 2.0, 0.5),
    "model-real-r-": (0.5, -2.0, -0.5),
    "model-complex-r-": (0.5, -2.0, 0.5),
    "model-jordan-s0": (0.5, 2.0, 0.0),
    "model-jordan-r0": (0.5, 0.0, 2.0),
    "model-scalar": (0.5, 0.0, 0.0),
}
#: label -> argv of the ``construct`` runs that reach the coefficient
#: kernel's conjugate-pair swaps (``pairs4``) and in-chain index reversals
#: (``jordan8``, whose unpaired real blocks make R exit 3)
KERNEL = {
    "construct-pairs": ("construct", "--input", "pairs4.json", "--ops", "P,C,T,TP,CTP,R,Tfrak"),
    "construct-jordan": ("construct", "--input", "jordan8.json", "--ops", "P,C,T,TP,CTP"),
    "construct-r-jordan": ("construct", "--input", "jordan8.json", "--ops", "R"),
}
#: label -> argv of the ``analyze`` runs that list complex, paired and
#: unpaired groups (``unpaired`` also prints the unpaired-complex warning);
#: the fixtures' own ``analyze`` runs see real spectra only
ANALYZE = {
    "analyze-pairs": ("analyze", "--input", "pairs4.json"),
    "analyze-jordan": ("analyze", "--input", "jordan8.json"),
    "analyze-unpaired": ("analyze", "--input", "unpaired.json"),
}
#: usage-error label -> argv; each exits 1 (``malformed.json`` is written
#: by this tool, ``missing.json`` is never written)
USAGE_ERRORS = {
    "usage-unknown-op": ("construct", "--input", "real4.json", "--ops", "P,Q"),
    "usage-steps-0": ("evolve", "--input", "real4.json", "--metric", "pplus",
                      "--initial", "psi0.json", "--t0", "0", "--t1", "1", "--steps", "0"),
    "usage-missing-file": ("analyze", "--input", "missing.json"),
    "usage-malformed-json": ("analyze", "--input", "malformed.json"),
    "usage-negative-tol": ("analyze", "--input", "real4.json", "--tol", "-1"),
}
#: label -> argv of the ``evolve`` runs, in probability and in Krein mode:
#: of the nilpotent H = [[0, 1], [0, 0]], which preserves no multiple of the
#: identity, under I and under 1e10 I, from (0, 1) to (1, 0), all refused
#: with exit 3; and of H = diag(1, 1 + 1e-9) under I, which ``analyze``
#: refuses, so that each grid point takes its own propagator, from (1, 1) to
#: (1, 0)
EVOLVE = {
    f"evolve-{label}-{mode}": ("evolve", "--input", f"{name}.json", "--metric", metric,
                               "--initial", initial, "--t0", "0", *span, *final)
    for label, name, metric, initial, span in (
        ("nilpotent", "nilpotent", "eye2.json", "e2.json", ("--t1", "3", "--steps", "4")),
        ("near-degenerate", "near-degenerate", "eye2.json", "ones2.json",
         ("--t1", "2000", "--steps", "201")),
        ("nilpotent-1e10", "nilpotent", "eye2e10.json", "e2.json",
         ("--t1", "3", "--steps", "4")))
    for mode, final in (("probability", ("--final", "e1.json")), ("krein", ()))
}
#: label -> argv of the ``classify`` run of 1e100 I under I, whose Gram
#: product 1e200 I overflows the Frobenius norm: refused with exit 2
CLASSIFY = {
    "classify-overflow": ("classify", "--metric", "eye2.json", "--op", "eye2e100.json"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the pseudoherm package to run")
    parser.add_argument("--mask-numbers", action="store_true",
                        help="hash the output with every number replaced by '#'")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import clirun
    from pseudoherm import serialization

    env = clirun.child_env(args.src.resolve())

    def run(seed, label, argv):
        proc = subprocess.run([sys.executable, "-c", clirun.ENTRY, *argv],
                              capture_output=True, env=env, timeout=300)
        output = proc.stdout + proc.stderr
        if args.mask_numbers:
            output = NUMBER.sub(b"#", output)
        digest = hashlib.sha256(output).hexdigest()
        print(f"{seed} {label} {proc.returncode} {digest}", flush=True)

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for seed in SEEDS:
            timed, _, defects = clirun.fixtures(seed, Path())
            for cmd in timed + defects:
                run(seed, cmd.label, cmd.argv)
            for label, argv in (KERNEL | ANALYZE).items():
                run(seed, label, argv)
        Path("malformed.json").write_text("{not json", encoding="utf-8")
        for label, argv in USAGE_ERRORS.items():
            run("-", label, argv)
        for name, doc in (("nilpotent", serialization.matrix_to_doc([[0, 1], [0, 0]])),
                          ("near-degenerate",
                           serialization.matrix_to_doc([[1, 0], [0, 1 + 1e-9]])),
                          ("eye2", serialization.matrix_to_doc([[1, 0], [0, 1]])),
                          ("eye2e10", serialization.matrix_to_doc([[1e10, 0], [0, 1e10]])),
                          ("eye2e100", serialization.matrix_to_doc([[1e100, 0], [0, 1e100]])),
                          ("e1", serialization.vector_to_doc([1, 0])),
                          ("e2", serialization.vector_to_doc([0, 1])),
                          ("ones2", serialization.vector_to_doc([1, 1]))):
            Path(f"{name}.json").write_text(serialization.canonical_dumps(doc), encoding="utf-8")
        for label, argv in (EVOLVE | CLASSIFY).items():
            run("-", label, argv)
        os.chdir(ROOT)
    for label, (e, r, s) in MODELS.items():
        run("-", label, ("model", "mashhoon", "--E", repr(e), "--r", repr(r), "--s", repr(s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: analyze, construct, classify, check, evolve, model, synthesize;
``check`` runs the library's invariant battery (``krein.check_battery``).
Output is JSON (reports, matrix documents) or CSV (time series).  Exit codes:

    0  success
    1  usage or parse error
    2  numerical ambiguity (input not resolvable at the working tolerance)
    3  mathematical refusal (the requested object provably does not exist)

A library error's code is the ``exit_code`` attribute of its class (see
``errors``); ``ValueError``, ``OSError``, ``KeyError`` and ``TypeError`` from
reading the input exit 1, and any other exception propagates.

The environment variable ``PSEUDOHERM_TOL`` overrides the default tolerance
(one float, used for both the absolute and relative parts).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import evolution, krein, operators, serialization, spectral
from .errors import MathematicalRefusal, NumericalAmbiguity, PseudohermError
from .linalg import Tolerance
from .operators import SignSequence, SymmetryOperator

EXIT_USAGE = 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read -1e-3 as a negative number, not as an option (argparse: -1, -.5)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(args, text: str, code: int = 0) -> int:
    """Write ``text`` to ``--out`` or stdout; return the exit code."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _report(args, results: dict, warnings=(), code: int = 0) -> int:
    """Emit the JSON report envelope of ``args.command``."""
    return _emit(args, serialization.canonical_dumps({
        "command": args.command,
        "tolerance": {"abs": args.tol.abs, "rel": args.tol.rel},
        "results": results,
        "warnings": list(warnings),
    }), code)


def _load_matrix(path: str) -> np.ndarray:
    op = serialization.doc_to_matrix(serialization.load_json(path))
    if op.antilinear:  # a Hamiltonian or a metric is linear; only classify --op is not
        raise ValueError(f"{path} holds an antilinear operator; a linear matrix is required")
    return op.matrix


def _load_sigma(arg):
    if arg == "canonical":
        return arg
    doc = serialization.load_json(arg)
    for row in doc if isinstance(doc, list) else [doc]:
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"sign sequence row {row!r} is not a [group, chain, sign] triple")
    return SignSequence({(int(g), int(a)): int(s) for g, a, s in doc})


# ---------------------------------------------------------------------------
# subcommands; ``main`` has replaced ``args.tol`` by the resolved Tolerance


def cmd_analyze(args) -> int:
    dec = spectral.analyze(_load_matrix(args.input), args.tol, allow_unpaired=True)
    rep = spectral.check_biorthonormal(dec)
    results = {
        "n": dec.n,
        "groups": [serialization.group_to_doc(g) for g in dec.groups],
        "gram_residual": rep.gram_residual,
        "completeness_residual": rep.completeness_residual,
    }
    warnings = []
    if dec.unpaired:
        warnings.append("complex eigenvalues without conjugate partners; "
                        "generalized parity constructions will refuse")
    return _report(args, results, warnings)


#: operator name -> builder(dec, sigma); the returned carrier says whether
#: the operator is antilinear
_OP_BUILDERS = {
    "P": operators.build_parity,
    "C": operators.build_charge,
    "T": lambda dec, sigma: operators.build_time_reversal(dec),
    "TP": operators.build_tp,
    "CTP": lambda dec, sigma: operators.build_ctp(dec, sigma, sigma),
    "Pplus": lambda dec, sigma: operators.build_positive_metric(dec),
    "R": lambda dec, sigma: operators.build_reflecting(dec)[0],
    "Tfrak": lambda dec, sigma: operators.build_quaternionic_T(dec),
}


def cmd_construct(args) -> int:
    dec = spectral.analyze(_load_matrix(args.input), args.tol)
    sigma = _load_sigma(args.sigma)
    names = [s.strip() for s in args.ops.split(",") if s.strip()]
    docs = {}
    for name in names:
        if name not in _OP_BUILDERS:
            raise ValueError(f"unknown operator {name!r}; choose from {tuple(_OP_BUILDERS)}")
        built = SymmetryOperator.of(_OP_BUILDERS[name](dec, sigma))
        docs[name] = serialization.matrix_to_doc(built.matrix, antilinear=built.antilinear,
                                                 label=name)
    return _report(args, {"operators": docs})


def cmd_classify(args) -> int:
    metric = _load_matrix(args.metric)
    op = serialization.doc_to_matrix(serialization.load_json(args.op))
    res = krein.classification_report(op, metric, args.tol)
    return _report(args, {
        "class": res.symmetry_class.value,
        "residuals": res.residuals,
        "threshold": res.threshold,
        "antilinear": res.antilinear,
        "signature": list(res.signature),
    })


def cmd_check(args) -> int:
    h = _load_matrix(args.input)
    dec = spectral.analyze(h, args.tol, allow_unpaired=True)
    rows = krein.check_battery(h, dec, _load_sigma(args.sigma), args.tol)
    all_ok = all(r["pass"] for r in rows)
    failed = MathematicalRefusal if dec.unpaired else NumericalAmbiguity
    return _report(args, {"table": rows, "all_pass": all_ok},
                   code=0 if all_ok else failed.exit_code)


def cmd_evolve(args) -> int:
    h = _load_matrix(args.input)
    if args.metric == "pplus":
        metric = operators.build_positive_metric(spectral.analyze(h, args.tol))
    else:
        metric = _load_matrix(args.metric)
    initial = serialization.doc_to_vector(serialization.load_json(args.initial))
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if not np.isfinite([args.t0, args.t1]).all():
        raise ValueError("time grid must be finite")
    grid = tuple(np.linspace(args.t0, args.t1, args.steps))
    req = evolution.EvolutionRequest(h=h, metric=metric, initial_state=initial,
                                     t_grid=grid, tol=args.tol)
    if args.final:
        final = serialization.doc_to_vector(serialization.load_json(args.final))
        values = evolution.transition_probability(req, final)
        header = ["t", "probability"]
    else:
        values = evolution.krein_norm_series(req)
        header = ["t", "krein_norm"]
    return _emit(args, serialization.format_csv(header, [[t, v] for t, v in zip(grid, values)]))


def cmd_model(args) -> int:
    params = evolution.MashhoonPapiniParams(e=args.E, r=args.r, s=args.s)
    h, regime, dec = evolution.mashhoon_papini(params)
    return _report(args, {
        "matrix": serialization.matrix_to_doc(h, label=f"two-level E={args.E} "
                                                       f"r={args.r} s={args.s}"),
        "regime": regime,
        "decomposition": serialization.decomposition_to_doc(dec),
    })


def cmd_synthesize(args) -> int:
    doc = serialization.load_json(args.spec)
    groups = serialization.synthesis_groups_from_doc(doc)
    spec = spectral.SynthesisSpec(groups=groups, basis_seed=args.seed,
                                  basis_cond=float(doc.get("basis_cond", 100.0)))
    h, dec = spectral.synthesize(spec, tol=args.tol)
    return _report(args, {
        "seed": args.seed,
        "matrix": serialization.matrix_to_doc(h, label="synthesized"),
        "decomposition": serialization.decomposition_to_doc(dec),
    })


# ---------------------------------------------------------------------------
# dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pseudoherm",
                     description="Spectral structure, symmetry operators and "
                                 "indefinite-metric classification for "
                                 "pseudo-Hermitian Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *required_inputs):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in required_inputs:
            p.add_argument(f"--{flag}", required=True)
        return p

    command("analyze", cmd_analyze, "Jordan/chain structure of a matrix", "input")

    p = command("construct", cmd_construct, "build symmetry operators", "input")
    p.add_argument("--ops", required=True,
                   help="comma list from P,C,T,TP,CTP,Pplus,R,Tfrak")
    p.add_argument("--sigma", default="canonical",
                   help="'canonical' or a JSON file of [group, chain, sign] triples")

    command("classify", cmd_classify, "fourfold symmetry class of an operator", "metric", "op")

    p = command("check", cmd_check, "run the invariant battery on a matrix", "input")
    p.add_argument("--sigma", default="canonical")

    p = command("evolve", cmd_evolve, "time evolution series (CSV)", "input")
    p.add_argument("--metric", required=True,
                   help="metric matrix file, or 'pplus' to build the positive metric")
    p.add_argument("--initial", required=True)
    p.add_argument("--final", default=None)
    for flag in ("--t0", "--t1"):
        p.add_argument(flag, type=float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = command("model", cmd_model, "generate a model Hamiltonian")
    p.add_argument("name", choices=["mashhoon"])
    for flag in ("--E", "--r", "--s"):
        p.add_argument(flag, type=float, required=True)

    p = command("synthesize", cmd_synthesize, "build a matrix with prescribed structure",
                "spec")
    p.add_argument("--seed", type=int, default=None)

    for p in sub.choices.values():
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (abs and rel), default 1e-10 or $PSEUDOHERM_TOL")
        p.add_argument("--out", default=None, help="output file (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = args.tol if args.tol is not None else os.environ.get("PSEUDOHERM_TOL")
        args.tol = Tolerance() if tol is None else Tolerance(abs=float(tol), rel=float(tol))
        return args.func(args)
    except (PseudohermError, ValueError, OSError, KeyError, TypeError) as exc:
        reason = getattr(exc, "reason", None)
        prefix = f"refused ({reason}): " if reason else "error: "
        print(f"{prefix}{exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())

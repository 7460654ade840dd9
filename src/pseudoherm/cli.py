"""Command-line interface.

Subcommands: analyze, construct, classify, check, evolve, model, synthesize;
``check`` runs the library's invariant battery (``krein.check_battery``).
Output is JSON (reports, matrix documents) or CSV (time series).  Exit codes:

    0  success
    1  usage or parse error
    2  numerical ambiguity (input not resolvable at the working tolerance)
    3  mathematical refusal (the requested object provably does not exist)

The environment variable ``PSEUDOHERM_TOL`` overrides the default tolerance
(one float, used for both the absolute and relative parts).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import evolution, krein, operators, serialization, spectral
from .errors import (
    DimensionMismatch,
    MathematicalRefusal,
    NumericalAmbiguity,
    PseudohermError,
)
from .linalg import Tolerance
from .operators import SignSequence, SymmetryOperator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AMBIGUOUS = 2
EXIT_REFUSAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerance(args) -> Tolerance:
    val = getattr(args, "tol", None)
    if val is None:
        env = os.environ.get("PSEUDOHERM_TOL")
        if env is not None:
            val = float(env)
    if val is None:
        return Tolerance()
    return Tolerance(abs=float(val), rel=float(val))


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, tol: Tolerance, results: dict, warnings=()) -> dict:
    return {
        "command": command,
        "tolerance": {"abs": tol.abs, "rel": tol.rel},
        "results": results,
        "warnings": list(warnings),
    }


def _load_matrix(path: str) -> SymmetryOperator:
    return serialization.doc_to_matrix(serialization.load_json(path))


def _load_sigma(arg):
    if arg is None or arg == "canonical":
        return "canonical"
    doc = serialization.load_json(arg)
    return SignSequence({(int(g), int(a)): int(s) for g, a, s in doc})


def _group_summary(dec) -> list[dict]:
    return [
        {
            "eigenvalue": [g.eigenvalue.real, g.eigenvalue.imag],
            "kind": g.kind,
            "pair_id": g.pair_id,
            "block_dims": list(g.block_dims),
        }
        for g in dec.groups
    ]


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    tol = _tolerance(args)
    op = _load_matrix(args.input)
    dec = spectral.analyze(op.matrix, tol, allow_unpaired=True)
    rep = spectral.check_biorthonormal(dec)
    results = {
        "n": dec.n,
        "groups": _group_summary(dec),
        "gram_residual": rep.gram_residual,
        "completeness_residual": rep.completeness_residual,
    }
    warnings = []
    if dec.has_unpaired_complex():
        warnings.append("complex eigenvalues without conjugate partners; "
                        "generalized parity constructions will refuse")
    _emit(serialization.canonical_dumps(_report("analyze", tol, results, warnings)),
          args.out)
    return EXIT_OK


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
    tol = _tolerance(args)
    op = _load_matrix(args.input)
    dec = spectral.analyze(op.matrix, tol)
    sigma = _load_sigma(args.sigma)
    names = [s.strip() for s in args.ops.split(",") if s.strip()]
    docs = {}
    for name in names:
        if name not in _OP_BUILDERS:
            raise ValueError(f"unknown operator {name!r}; choose from {tuple(_OP_BUILDERS)}")
        built = SymmetryOperator.of(_OP_BUILDERS[name](dec, sigma))
        docs[name] = serialization.matrix_to_doc(built.matrix, antilinear=built.antilinear,
                                                 label=name)
    _emit(serialization.canonical_dumps(_report("construct", tol, {"operators": docs})),
          args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    tol = _tolerance(args)
    metric = _load_matrix(args.metric).matrix
    op = _load_matrix(args.op)
    res = krein.classification_report(op, metric, tol)
    space = krein.build_krein_space(metric, tol)
    results = {
        "class": res.symmetry_class.value,
        "residuals": res.residuals,
        "threshold": res.threshold,
        "antilinear": res.antilinear,
        "signature": list(space.signature),
    }
    _emit(serialization.canonical_dumps(_report("classify", tol, results)), args.out)
    return EXIT_OK


def cmd_check(args) -> int:
    tol = _tolerance(args)
    h = _load_matrix(args.input).matrix
    dec = spectral.analyze(h, tol, allow_unpaired=True)
    rows = krein.check_battery(h, dec, _load_sigma(args.sigma), tol)
    all_ok = all(r["pass"] for r in rows)
    _emit(serialization.canonical_dumps(
        _report("check", tol, {"table": rows, "all_pass": all_ok})), args.out)
    if all_ok:
        return EXIT_OK
    return EXIT_REFUSAL if dec.has_unpaired_complex() else EXIT_AMBIGUOUS


def cmd_evolve(args) -> int:
    tol = _tolerance(args)
    h = _load_matrix(args.input).matrix
    if args.metric == "pplus":
        dec = spectral.analyze(h, tol)
        metric = operators.build_positive_metric(dec)
    else:
        metric = _load_matrix(args.metric).matrix
    initial = serialization.doc_to_vector(serialization.load_json(args.initial))
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    if args.steps == 1:
        grid = [float(args.t0)]
    else:
        grid = list(np.linspace(float(args.t0), float(args.t1), int(args.steps)))
    req = evolution.EvolutionRequest(h=h, metric=metric, initial_state=initial,
                                     t_grid=tuple(grid), tol=tol)
    if args.final:
        final = serialization.doc_to_vector(serialization.load_json(args.final))
        values = evolution.transition_probability(req, final)
        header = ["t", "probability"]
    else:
        values = evolution.krein_norm_series(req)
        header = ["t", "krein_norm"]
    _emit(serialization.format_csv(header, [[t, v] for t, v in zip(grid, values)]),
          args.out)
    return EXIT_OK


def cmd_model(args) -> int:
    tol = _tolerance(args)
    params = evolution.MashhoonPapiniParams(e=args.E, r=args.r, s=args.s)
    h, regime, dec = evolution.mashhoon_papini(params)
    results = {
        "matrix": serialization.matrix_to_doc(h, label=f"two-level E={args.E} "
                                                       f"r={args.r} s={args.s}"),
        "regime": regime,
        "decomposition": serialization.decomposition_to_doc(dec),
    }
    _emit(serialization.canonical_dumps(_report("model", tol, results)), args.out)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    tol = _tolerance(args)
    doc = serialization.load_json(args.spec)
    groups = serialization.synthesis_groups_from_doc(doc)
    spec = spectral.SynthesisSpec(groups=groups, basis_seed=args.seed,
                                  basis_cond=float(doc.get("basis_cond", 100.0)))
    h, dec = spectral.synthesize(spec, tol=tol)
    results = {
        "seed": args.seed,
        "matrix": serialization.matrix_to_doc(h, label="synthesized"),
        "decomposition": serialization.decomposition_to_doc(dec),
    }
    _emit(serialization.canonical_dumps(_report("synthesize", tol, results)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pseudoherm",
                     description="Spectral structure, symmetry operators and "
                                 "indefinite-metric classification for "
                                 "pseudo-Hermitian Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (abs and rel), default 1e-10 or $PSEUDOHERM_TOL")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("analyze", help="Jordan/chain structure of a matrix")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build symmetry operators")
    p.add_argument("--input", required=True)
    p.add_argument("--ops", required=True,
                   help="comma list from P,C,T,TP,CTP,Pplus,R,Tfrak")
    p.add_argument("--sigma", default="canonical",
                   help="'canonical' or a JSON file of [group, chain, sign] triples")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("classify", help="fourfold symmetry class of an operator")
    p.add_argument("--metric", required=True)
    p.add_argument("--op", required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="run the invariant battery on a matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", default="canonical")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evolve", help="time evolution series (CSV)")
    p.add_argument("--input", required=True)
    p.add_argument("--metric", required=True,
                   help="metric matrix file, or 'pplus' to build the positive metric")
    p.add_argument("--initial", required=True)
    p.add_argument("--final", default=None)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("model", help="generate a model Hamiltonian")
    p.add_argument("name", choices=["mashhoon"])
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("synthesize", help="build a matrix with prescribed structure")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_synthesize)

    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, MathematicalRefusal):
        return EXIT_REFUSAL
    if isinstance(exc, NumericalAmbiguity):
        return EXIT_AMBIGUOUS
    if isinstance(exc, (DimensionMismatch, ValueError, OSError, KeyError, TypeError)):
        return EXIT_USAGE
    if isinstance(exc, PseudohermError):
        return EXIT_AMBIGUOUS
    raise exc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # mapped to the documented exit-code contract
        code = _exit_code(exc)
        reason = getattr(exc, "reason", None)
        prefix = f"refused ({reason}): " if reason else "error: "
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

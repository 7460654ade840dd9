"""One library op and its two oracles.

An op is one Hamiltonian's full pipeline, called through the public module
attributes (so the traced run can wrap them):

1. ``spectral.analyze``
2. the eight ``operators.build_*``
3. ``krein.congruence_to_involutory``, ``krein.pseudounitary_symmetries_exist``
   and ``krein.classification_report`` on a propagator and on TP
4. ``evolution.krein_norm_series`` and, when P+ exists,
   ``evolution.transition_probability``

``judge`` runs after the op, outside its timing.  A correct refusal named by
the synthesized structure is a success.  A missing or unexpected refusal, any
other library error, and a result whose residual is over its threshold fail
the op: ``pseudoherm check`` reports such a result with exit code 2.  A wrong
answer (block structure, class, existence decision, a probability outside
[0, 1]) is a ``WrongResult`` and ends the run.
"""

from __future__ import annotations

import numpy as np

from pseudoherm import evolution, krein, operators, spectral
from pseudoherm.errors import MathematicalRefusal, PseudohermError
from pseudoherm.krein import SymmetryClass
from pseudoherm.linalg import DEFAULT_TOL

#: the eight operator builders, each called with the decomposition alone
BUILDERS = ("build_parity", "build_charge", "build_time_reversal", "build_tp",
            "build_ctp", "build_positive_metric", "build_reflecting",
            "build_quaternionic_T")

#: errors that fail an op instead of ending the run
OP_ERRORS = (PseudohermError, ValueError, np.linalg.LinAlgError)

#: criterion 8: relative Krein-norm drift
DRIFT_LIMIT = 1e-8


class WrongResult(Exception):
    """The program returned a result that breaks an invariant."""


def run_op(case) -> dict:
    """Run the pipeline on one case.  Returns what was computed; an error
    that stops the pipeline is returned under ``"error"``."""
    out = {"refused": {}, "built": {}}
    try:
        dec = spectral.analyze(case.h, allow_unpaired=True)
        out["dec"] = dec
        for name in BUILDERS:
            try:
                out["built"][name] = getattr(operators, name)(dec)
            except MathematicalRefusal as exc:
                out["refused"][name] = type(exc).__name__
        built = out["built"]
        out["exist"] = krein.pseudounitary_symmetries_exist(dec)
        if "build_parity" in built:
            p = built["build_parity"]
            out["cong"] = krein.congruence_to_involutory(dec)
            u = evolution.propagator(case.h, case.t_prop)
            out["class_u"] = krein.classification_report(u, p)
            if "build_tp" in built:
                out["class_tp"] = krein.classification_report(built["build_tp"], p)
            req = evolution.EvolutionRequest(h=case.h, metric=p, initial_state=case.psi0,
                                             t_grid=case.grid)
            out["series"] = evolution.krein_norm_series(req)
        if "build_positive_metric" in built:
            req = evolution.EvolutionRequest(h=case.h, metric=built["build_positive_metric"],
                                             initial_state=case.psi0, t_grid=case.grid)
            out["probs"] = evolution.transition_probability(req, case.final)
    except OP_ERRORS as exc:
        out["error"] = exc
    return out


def expected_refusals(groups) -> dict:
    """Refusals the theorems demand for the synthesized structure."""
    kinds = [k for _, k, _ in groups]
    if "unpaired" in kinds:
        exp = {name: "NotPaired" for name in BUILDERS}
        exp["build_positive_metric"] = "NotDiagonalizableReal"
        return exp
    exp = {}
    if any(k != "real" for k in kinds) or any(max(d) > 1 for _, _, d in groups):
        exp["build_positive_metric"] = "NotDiagonalizableReal"   # Theorem 1
    if not _real_blocks_paired(groups):
        exp["build_reflecting"] = "UnpairedRealBlocks"           # Proposition 4
        exp["build_quaternionic_T"] = "UnpairedRealBlocks"       # Theorem 2
    return exp


def _real_blocks_paired(groups) -> bool:
    for _, kind, dims in groups:
        if kind == "real" and any(dims.count(d) % 2 for d in set(dims)):
            return False
    return True


def judge(case, out) -> tuple[str, int, float, str | None]:
    """``(status, correct refusals, worst residual/threshold, why failed)``.

    An op fails on an error, a missing or unexpected refusal, or a result
    over its threshold (check battery, criterion-8 drift, a class the
    classifier leaves undecided).  A wrong answer raises ``WrongResult``.
    """
    if "dec" in out:
        _check_structure(case, out["dec"])
    exp = expected_refusals(case.groups)
    refused = out["refused"]
    correct = sum(refused.get(name) == kind for name, kind in exp.items())
    if "error" in out:
        return "failed", correct, 0.0, type(out["error"]).__name__
    if refused != exp:
        return "failed", correct, 0.0, f"refused {sorted(refused.items())}"
    ratios = _check_invariants(case, out)
    over = sorted(k for k, r in ratios.items() if not r <= 1.0)
    if over:
        return "failed", correct, 0.0, "over threshold: " + ", ".join(over)
    return "ok", correct, max(ratios.values()), None


def _check_structure(case, dec):
    """Each synthesized group must meet exactly one analyzed group: the
    nearest one, within 1e-6 relative, with the same kind and block sizes."""
    got = [(g.eigenvalue, g.kind, tuple(sorted(g.block_dims, reverse=True)))
           for g in dec.groups]
    want = list(case.groups)
    nearest = [min(range(len(got)), key=lambda i: abs(got[i][0] - z)) if got else None
               for z, _, _ in want]
    same = len(got) == len(want) and len(set(nearest)) == len(want) and all(
        got[i][1:] == (k, d) and abs(got[i][0] - z) <= 1e-6 * max(1.0, abs(z))
        for i, (z, k, d) in zip(nearest, want))
    if not same:
        raise WrongResult(f"{case.label}: analyzed structure {got} != synthesized {want}")


def _check_invariants(case, out) -> dict:
    """Residual/threshold of the ``pseudoherm check`` battery (threshold
    ``tol.scaled(H)``), of the U(t) and TP classes and of criterion-8 drift
    (1e-8 relative); raises on a wrong class, existence decision or
    probability."""
    h, dec, built = case.h, out["dec"], out["built"]
    n = dec.n
    eye = np.eye(n)
    thr = DEFAULT_TOL.scaled(h)
    psi, phi = dec.psi_matrix(), dec.phi_matrix()
    jordan = np.diag(dec.eigenvalues()).astype(complex)
    col = 0
    for g in dec.groups:
        for c in g.chains:
            for i in range(c.dim - 1):
                jordan[col + i, col + i + 1] = 1.0
            col += c.dim
    resid = {
        "biorthonormality": np.abs(psi.conj().T @ phi - eye).max(),
        "completeness": np.abs(psi @ phi.conj().T - eye).max(),
        "reconstruction": np.linalg.norm(psi @ jordan @ phi.conj().T - h),
    }
    if "build_parity" in built:
        p, c = built["build_parity"], built["build_charge"]
        tp, ctp = built["build_tp"].matrix, built["build_ctp"].matrix
        p_tilde = out["cong"].p_tilde
        resid.update({
            "pseudo-Hermiticity": np.linalg.norm(p @ h @ np.linalg.inv(p) - h.conj().T),
            "C^2 = 1": np.linalg.norm(c @ c - eye),
            "[C, H] = 0": np.linalg.norm(c @ h - h @ c),
            "(TP)^2 = 1": np.linalg.norm(tp @ tp.conj() - eye),
            "(CTP)^2 = 1": np.linalg.norm(ctp @ ctp.conj() - eye),
            "[TP, H] = 0": np.linalg.norm(tp @ h.conj() - h @ tp),
            "[C, TP] = 0": np.linalg.norm(c @ tp - tp @ c.conj()),
            "congruent metric involutory": np.linalg.norm(p_tilde @ p_tilde - eye),
        })
    ratios = {k: float(v) / thr for k, v in resid.items()}
    if "cong" in out:
        trace = out["cong"].trace
        if abs(trace - round(trace)) > 1e-6 or round(trace) not in (0, 1):
            ratios["canonical trace in {0, 1}"] = float("inf")
    if "build_parity" in built:
        for key, want in (("class_u", SymmetryClass.P_UNITARY),
                          ("class_tp", SymmetryClass.P_ANTIUNITARY)):
            rep = out[key]
            if rep.symmetry_class not in (want, SymmetryClass.NONE):
                raise WrongResult(f"{case.label}: {key} is {rep.symmetry_class}, want {want}")
            ratios[key] = (float("inf") if rep.symmetry_class is SymmetryClass.NONE
                           else rep.residuals[want.value] / rep.threshold)
        v0 = float(np.real(case.psi0.conj() @ built["build_parity"] @ case.psi0))
        drift = max(abs(v - v0) for v in out["series"]) / max(abs(v0), 1e-3)
        ratios["krein drift"] = drift / DRIFT_LIMIT
    paired = _real_blocks_paired(case.groups) and all(k != "unpaired" for _, k, _ in case.groups)
    if out["exist"].exists != paired:
        raise WrongResult(f"{case.label}: pseudounitary existence {out['exist'].exists}")
    if "probs" in out and not all(0.0 <= v <= 1.0 for v in out["probs"]):
        raise WrongResult(f"{case.label}: transition probability outside [0, 1]")
    return ratios

"""The ``cli`` workload: one op is one ``pseudoherm`` process.

Children start the way the ``pseudoherm = pseudoherm.cli:main`` entry point
does (``from pseudoherm.cli import main``), not with ``python -m``, which
makes runpy warn because the package ``__init__`` already imports ``cli``.
Each command has the exit code the CLI documents for it (0 / 2 / 3); a
different code or a residual over its threshold fails the op, and an output
that does not parse or gives a wrong answer is a ``WrongResult``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.linalg as sla

from pseudoherm import evolution, serialization
from pseudoherm.linalg import DEFAULT_TOL

import inputs
from pipeline import DRIFT_LIMIT, WrongResult

ENTRY = "import sys; from pseudoherm.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    expect: int               # exit code the CLI documents for this input
    check: object             # check(stdout) -> worst residual/threshold (exit 0 only)


def _write(path: Path, doc) -> str:
    path.write_text(serialization.canonical_dumps(doc), encoding="utf-8")
    return str(path)


def _matrix(path, m):
    return _write(path, serialization.matrix_to_doc(m))


def _report(text, command):
    rep = json.loads(text)
    if rep.get("command") != command:
        raise WrongResult(f"{command}: report names command {rep.get('command')!r}")
    return rep["results"]


def _rows(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["t", header] or len(rows) != 201:
        raise WrongResult(f"evolve: CSV header {rows[0]} with {len(rows) - 1} rows")
    return [float(r[1]) for r in rows[1:]]


def _groups_match(label, got, want):
    """``want`` lists (kind, block_dims) of the synthesized groups."""
    want = sorted((k, tuple(sorted(d))) for k, d in want)
    have = sorted((g["kind"], tuple(sorted(g["block_dims"]))) for g in got)
    if have != want:
        raise WrongResult(f"{label}: groups {have} != synthesized {want}")


def _pair_metric(dec):
    """The canonical generalized parity of a spectrum of simple conjugate
    pairs, from the synthesized dual chains: ``sum phi1 phi2^dag + phi2 phi1^dag``
    over the pairs.  Built here, not by the program under test."""
    p = np.zeros((dec.n, dec.n), dtype=np.complex128)
    for _, g1, _, g2 in dec.iter_pairs():
        a, b = g1.chains[0].phi[0], g2.chains[0].phi[0]
        p += np.outer(a, b.conj()) + np.outer(b, a.conj())
    return p


def fixtures(seed: int, work: Path) -> tuple[list[Command], list[np.ndarray], list[Command]]:
    """Write the seeded fixture files; return the timed commands, the
    Hamiltonians written and the known-defect commands (``analyze`` on a
    resolvable near pair, which exits 2 with ``ClusterAmbiguity``)."""
    rng = np.random.default_rng([seed, inputs.WORKLOADS.index("cli")])
    real4 = inputs.synth_case(rng, "real4", 4, [], 10, fill="real")
    pairs_h, pairs_dec = inputs.synthesize(rng, 4, [], 10, fill="pair")
    pairs4 = inputs.finish(rng, "pairs4", pairs_h, pairs_dec)
    jordan8 = inputs.synth_case(rng, "jordan8", 8, [("real", (3,)), ("real", (2, 2))], 10)
    unpaired = inputs.synth_case(rng, "unpaired", 2, [("unpaired", (1,))], 10)
    doubled = inputs.synth_case(rng, "doubled4", 4, [], 10, fill="real2")
    near_h, near_dec = inputs.near_pair(rng)
    e, r, s = rng.uniform(-1, 1), rng.uniform(0.5, 2), -rng.uniform(0.5, 2)
    jordan2, _, _ = evolution.mashhoon_papini(evolution.MashhoonPapiniParams(e, r, 0.0))

    f = {name: _matrix(work / f"{name}.json", c.h) for name, c in
         (("real4", real4), ("pairs4", pairs4), ("jordan8", jordan8),
          ("unpaired", unpaired), ("doubled4", doubled))}
    f["near"] = _matrix(work / "near.json", near_h)
    f["jordan2"] = _matrix(work / "jordan2.json", jordan2)
    f["p"] = _matrix(work / "p.json", _pair_metric(pairs_dec))
    f["u"] = _matrix(work / "u.json", sla.expm(-1j * pairs4.t_prop * pairs4.h))
    f["psi0"] = _write(work / "psi0.json", serialization.vector_to_doc(real4.psi0))
    f["psi1"] = _write(work / "psi1.json", serialization.vector_to_doc(real4.final))
    spec_groups = [{"eigenvalue": [0.5, 0.0], "dims": [2]},
                   {"eigenvalue": [-1.0, 0.7], "dims": [1]},
                   {"eigenvalue": [-1.0, -0.7], "dims": [1]}]
    f["spec"] = _write(work / "spec.json", {"groups": spec_groups, "basis_cond": 10.0})
    t_real = 0.8 * inputs.t_bound(real4.h)
    synth_seed = int(rng.integers(2 ** 31))

    def scaled(path):
        return DEFAULT_TOL.scaled(serialization.doc_to_matrix(serialization.load_json(path)).matrix)

    def analyze_ok(groups, path):
        def check(text):
            res = _report(text, "analyze")
            _groups_match("analyze", res["groups"], groups)
            return max(res["gram_residual"], res["completeness_residual"]) / scaled(path)
        return check

    def check_pass(path):
        def check(text):
            res = _report(text, "check")
            if not res["all_pass"]:
                raise WrongResult(f"check: exit 0 with a failing battery: {res['table']}")
            return max(row["residual"] for row in res["table"]
                       if isinstance(row["residual"], float) and "trace" not in row["check"]) \
                / scaled(path)
        return check

    def construct_all(text):
        ops = _report(text, "construct")["operators"]
        if sorted(ops) != sorted(["P", "C", "T", "TP", "CTP", "Pplus", "R", "Tfrak"]):
            raise WrongResult(f"construct: operators {sorted(ops)}")
        h = doubled.h
        c = serialization.doc_to_matrix(ops["C"]).matrix
        p = serialization.doc_to_matrix(ops["Pplus"]).matrix
        resid = max(np.linalg.norm(c @ c - np.eye(4)), np.linalg.norm(c @ h - h @ c),
                    np.linalg.norm(p @ h @ np.linalg.inv(p) - h.conj().T))
        return resid / DEFAULT_TOL.scaled(h)

    def classify_unitary(text):
        res = _report(text, "classify")
        if res["class"] not in ("PUnitary", "None"):
            raise WrongResult(f"classify: propagator classed {res['class']}")
        return res["residuals"]["PUnitary"] / res["threshold"] if res["class"] != "None" \
            else float("inf")

    def probabilities(text):
        vals = _rows(text, "probability")
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise WrongResult("evolve: transition probability outside [0, 1]")
        return 0.0

    def krein_norms(text):
        vals = _rows(text, "krein_norm")
        drift = max(abs(v - vals[0]) for v in vals) / max(abs(vals[0]), 1e-3)
        return drift / DRIFT_LIMIT

    def model(text):
        res = _report(text, "model")
        if res["regime"] != "ComplexPair":
            raise WrongResult(f"model: regime {res['regime']}")
        return 0.0

    def synthesized(text):
        res = _report(text, "synthesize")
        dims = sorted(tuple(g["block_dims"]) for g in res["decomposition"]["groups"])
        if dims != [(1,), (1,), (2,)] or res["matrix"]["n"] != 4:
            raise WrongResult(f"synthesize: block dims {dims}")
        return 0.0

    def refusal_report(text):
        if text.strip() and _report(text, "check")["all_pass"]:
            raise WrongResult("check: refusal exit with a passing battery")
        return 0.0

    evolve = ("--t0", "0", "--t1")
    hamiltonians = [real4.h, pairs4.h, jordan8.h, unpaired.h, doubled.h, near_h, jordan2]
    return [
        Command("analyze-real", ("analyze", "--input", f["real4"]), 0, analyze_ok([(k, d) for _, k, d in real4.groups], f["real4"])),
        Command("check-jordan", ("check", "--input", f["jordan8"]), 0, check_pass(f["jordan8"])),
        Command("check-unpaired", ("check", "--input", f["unpaired"]), 3, refusal_report),
        Command("check-tol-1e-16", ("check", "--input", f["real4"], "--tol", "1e-16"), 2,
                refusal_report),
        Command("construct-all", ("construct", "--input", f["doubled4"], "--ops",
                                  "P,C,T,TP,CTP,Pplus,R,Tfrak"), 0, construct_all),
        Command("construct-pplus-jordan", ("construct", "--input", f["jordan2"], "--ops", "Pplus"),
                3, refusal_report),
        Command("classify-propagator", ("classify", "--metric", f["p"], "--op", f["u"]), 0,
                classify_unitary),
        Command("evolve-probability", ("evolve", "--input", f["real4"], "--metric", "pplus",
                                       "--initial", f["psi0"], "--final", f["psi1"],
                                       *evolve, repr(t_real), "--steps", "200"), 0, probabilities),
        Command("evolve-krein", ("evolve", "--input", f["pairs4"], "--metric", f["p"],
                                 "--initial", f["psi0"], *evolve, "4", "--steps", "200"), 0,
                krein_norms),
        Command("evolve-pplus-pairs", ("evolve", "--input", f["pairs4"], "--metric", "pplus",
                                       "--initial", f["psi0"], *evolve, "4", "--steps", "200"),
                3, refusal_report),
        Command("model", ("model", "mashhoon", "--E", repr(e), "--r", repr(r), "--s", repr(s)),
                0, model),
        Command("synthesize", ("synthesize", "--spec", f["spec"], "--seed", str(synth_seed)), 0,
                synthesized),
    ], hamiltonians, [
        Command("analyze-near-pair", ("analyze", "--input", f["near"]), 0,
                analyze_ok([(g.kind, g.block_dims) for g in near_dec.groups], f["near"])),
    ]


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def run_child(cmd: Command, env: dict, work: Path):
    """Run one CLI process.  Returns (seconds, exit code, stdout, max RSS in KiB)."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *cmd.argv], stdout=out,
                                stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out_path.read_text(encoding="utf-8"), usage.ru_maxrss


def judge(cmd: Command, code: int, stdout: str) -> tuple[str, float, str | None]:
    """``(status, worst residual/threshold, why failed)``.  As for the
    library ops, a residual over its threshold fails the op and a wrong
    answer or an output that does not parse raises ``WrongResult``."""
    if code != cmd.expect:
        return "failed", 0.0, f"exit {code}"
    try:
        ratio = float(cmd.check(stdout))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise WrongResult(f"{cmd.label}: output does not parse: {exc!r}") from exc
    if not ratio <= 1.0:
        return "failed", 0.0, "over threshold"
    return "ok", ratio, None

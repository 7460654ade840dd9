"""CLI commands, document formats and the exit-code contract."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pseudoherm
from pseudoherm import cli, errors, krein, linalg, operators, serialization, spectral
from pseudoherm.cli import main
from pseudoherm.evolution import MashhoonPapiniParams, mashhoon_papini
from pseudoherm.spectral import JordanBlockSpec, SynthesisSpec, synthesize
from test_spectral import _spec


@pytest.fixture()
def sixone(tmp_path):
    """Real-regime two-level matrix file (E=1, r=s=1)."""
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    path = tmp_path / "h61.json"
    path.write_text(serialization.canonical_dumps(serialization.matrix_to_doc(h)))
    return path


def _write_matrix(tmp_path, name, m, antilinear=False):
    path = tmp_path / name
    path.write_text(serialization.canonical_dumps(
        serialization.matrix_to_doc(m, antilinear=antilinear)))
    return path


def _write_vector(tmp_path, name, v):
    path = tmp_path / name
    path.write_text(serialization.canonical_dumps(serialization.vector_to_doc(v)))
    return path


def test_serialization_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    doc = serialization.matrix_to_doc(m, antilinear=True, label="x")
    text = serialization.canonical_dumps(doc)
    reparsed = json.loads(text)
    assert serialization.canonical_dumps(reparsed) == text
    op = serialization.doc_to_matrix(reparsed)
    assert np.array_equal(op.matrix, m)
    assert op.antilinear


def test_vector_document_round_trip():
    v = np.array([1.5, -2j, 3 + 0.25j])
    doc = serialization.vector_to_doc(v)
    assert np.array_equal(serialization.doc_to_vector(doc), v)


def test_csv_formatting():
    text = serialization.format_csv(["t", "value"], [[0.0, 1.0 / 3.0]])
    header, row = text.strip().split("\n")
    assert header == "t,value"
    assert row.split(",")[1] == "0.333333333333333"  # 15 significant digits


def test_analyze_command(sixone, tmp_path, capsys):
    assert main(["analyze", "--input", str(sixone)]) == 0
    rep = json.loads(capsys.readouterr().out)
    groups = rep["results"]["groups"]
    assert sorted(g["eigenvalue"][0] for g in groups) == pytest.approx([0.0, 2.0])
    assert all(g["kind"] == "real" for g in groups)
    assert rep["results"]["gram_residual"] < 1e-10


def test_analyze_jordan_matrix(tmp_path, capsys):
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 0.0))
    path = _write_matrix(tmp_path, "hj.json", h)
    assert main(["analyze", "--input", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["results"]["groups"]) == 1
    assert rep["results"]["groups"][0]["block_dims"] == [2]


def test_analyze_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--input", str(bad)]) == 1
    missing_field = tmp_path / "mf.json"
    missing_field.write_text('{"n": 2}')
    assert main(["analyze", "--input", str(missing_field)]) == 1


def test_usage_error_exit_code():
    assert main(["analyze"]) == 1       # missing --input
    assert main(["no-such-command"]) == 1


def test_ambiguity_exit_code(tmp_path):
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1e-7))
    path = _write_matrix(tmp_path, "hc.json", h)
    assert main(["analyze", "--input", str(path)]) == 2


def test_construct_command(sixone, capsys):
    # analyze orders the groups by eigenvalue (0 before 2), so the display
    # sign sequence is (-, +) in file order for C
    assert main(["construct", "--input", str(sixone), "--ops", "C,T,Pplus",
                 "--sigma", "canonical"]) == 0
    rep = json.loads(capsys.readouterr().out)
    ops = rep["results"]["operators"]
    c = serialization.doc_to_matrix(ops["C"])
    assert not c.antilinear
    assert np.allclose(c.matrix @ c.matrix, np.eye(2), atol=1e-10)
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    assert np.linalg.norm(c.matrix @ h - h @ c.matrix) < 1e-10
    t = serialization.doc_to_matrix(ops["T"])
    assert t.antilinear
    assert np.allclose(t.matrix, t.matrix.T, atol=1e-10)         # T Hermitian
    assert np.linalg.norm(t.matrix @ h.T - h @ t.matrix) < 1e-10  # T H^dag = H T
    assert np.allclose(serialization.doc_to_matrix(ops["Pplus"]).matrix,
                       np.eye(2), atol=1e-10)


def test_construct_all_flags_exactly_the_antilinear_operators(tmp_path, capsys):
    # paired simple real eigenvalues: every one of the eight operators exists
    h, _ = synthesize(SynthesisSpec(groups=(JordanBlockSpec(0.0, (1, 1)),
                                            JordanBlockSpec(1.0, (1, 1))), basis_seed=4))
    path = _write_matrix(tmp_path, "h4.json", h)
    assert main(["construct", "--input", str(path), "--ops",
                 "P,C,T,TP,CTP,Pplus,R,Tfrak"]) == 0
    ops = json.loads(capsys.readouterr().out)["results"]["operators"]
    assert sorted(ops) == sorted(["P", "C", "T", "TP", "CTP", "Pplus", "R", "Tfrak"])
    assert sorted(k for k, doc in ops.items() if doc["antilinear"]) == \
        ["CTP", "T", "TP", "Tfrak"]


def test_construct_unknown_operator_is_a_usage_error(sixone, capsys):
    assert main(["construct", "--input", str(sixone), "--ops", "X"]) == 1
    err = capsys.readouterr().err
    assert "unknown operator 'X'" in err
    assert "Tfrak" in err


def test_construct_sigma_file(sixone, tmp_path, capsys):
    # signs keyed by analyze's group order (eigenvalue 0 first, 2 second);
    # the phi-dyad metric is gauge independent, so the display is exact
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps([[0, 0, 1], [1, 0, -1]]))
    assert main(["construct", "--input", str(sixone), "--ops", "P",
                 "--sigma", str(sigma)]) == 0
    rep = json.loads(capsys.readouterr().out)
    p = serialization.doc_to_matrix(rep["results"]["operators"]["P"]).matrix
    assert np.allclose(p, [[0, -1j], [1j, 0]], atol=1e-10)


def test_construct_refusal_cites_result(sixone, capsys):
    assert main(["construct", "--input", str(sixone), "--ops", "R"]) == 3
    err = capsys.readouterr().err
    assert "Proposition 4" in err


def test_construct_pplus_refusal_on_jordan(tmp_path, capsys):
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 0.0))
    path = _write_matrix(tmp_path, "hj.json", h)
    assert main(["construct", "--input", str(path), "--ops", "Pplus"]) == 3
    assert "Theorem 1" in capsys.readouterr().err


def test_classify_command(tmp_path, capsys):
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    from pseudoherm.operators import build_parity, build_reflecting
    p_path = _write_matrix(tmp_path, "p.json", build_parity(dec))
    r_path = _write_matrix(tmp_path, "r.json", build_reflecting(dec)[0])
    assert main(["classify", "--metric", str(p_path), "--op", str(r_path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["class"] == "PPseudounitary"
    assert rep["results"]["signature"] == [1, 1]
    assert set(rep["results"]["residuals"]) == {
        "PUnitary", "PAntiunitary", "PPseudounitary", "PPseudoantiunitary"}


@pytest.mark.usefixtures("cold_memo")
def test_classify_decomposes_the_metric_once(tmp_path, monkeypatch, capsys):
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    from pseudoherm.operators import build_parity, build_reflecting
    p_path = _write_matrix(tmp_path, "p.json", build_parity(dec))
    r_path = _write_matrix(tmp_path, "r.json", build_reflecting(dec)[0])
    calls = {"eigvalsh": 0, "eigh": 0}

    def spy(name):
        real = getattr(np.linalg, name)

        def counted(*a, **k):
            calls[name] += 1
            return real(*a, **k)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, spy(name))
    assert main(["classify", "--metric", str(p_path), "--op", str(r_path)]) == 0
    assert calls == {"eigvalsh": 1, "eigh": 0}
    assert json.loads(capsys.readouterr().out)["results"]["signature"] == [1, 1]


def test_classify_singular_metric_exit(tmp_path):
    p_path = _write_matrix(tmp_path, "p.json", np.diag([1.0, 0.0]).astype(complex))
    o_path = _write_matrix(tmp_path, "o.json", np.eye(2, dtype=complex))
    assert main(["classify", "--metric", str(p_path), "--op", str(o_path)]) == 3


@pytest.mark.parametrize("scale", [1e100, 1e155])
def test_classify_refuses_an_overflowing_gram_product_in_one_line(tmp_path, capsys, scale):
    """The Gram norms of 1e100 I under I overflow (it was reported PUnitary
    under an infinite threshold, with overflow warnings on stderr)."""
    metric = _write_matrix(tmp_path, "eye.json", np.eye(2))
    op = _write_matrix(tmp_path, "big.json", scale * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", "--metric", str(metric), "--op", str(op)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the Gram product M^dag P M of the operator M and the "
                            "metric P overflows the float range\n")


def test_check_command_passes_on_model(sixone, capsys):
    assert main(["check", "--input", str(sixone)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["all_pass"]
    table = {row["check"]: row for row in rep["results"]["table"]}
    assert table["C^2 = 1"]["pass"]
    assert table["metric-reversing symmetries exist (paired blocks)"]["residual"] is False


def test_check_passes_on_a_six_block(tmp_path, capsys):
    # one Jordan block of size 6 among 26 simple real eigenvalues, n = 32
    eigs = np.arange(27) - 13.0 + np.random.default_rng(1).uniform(-0.2, 0.2, 27)
    spec = SynthesisSpec(groups=(JordanBlockSpec(eigs[0], (6,)),)
                         + tuple(JordanBlockSpec(x, (1,)) for x in eigs[1:]),
                         basis_seed=1, basis_cond=100.0)
    path = _write_matrix(tmp_path, "six.json", synthesize(spec)[0])
    assert main(["check", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["all_pass"]


def test_check_reports_not_paired(tmp_path, capsys):
    path = _write_matrix(tmp_path, "u.json", np.diag([1j, 2.0]).astype(complex))
    code = main(["check", "--input", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 3
    assert not rep["results"]["all_pass"]
    assert any("NotPaired" in str(row["residual"]) for row in rep["results"]["table"])


def test_check_hermitian_input(tmp_path, capsys):
    path = _write_matrix(tmp_path, "herm.json",
                         np.array([[2, 1j], [-1j, 3]], dtype=complex))
    assert main(["check", "--input", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    table = {row["check"]: row for row in rep["results"]["table"]}
    assert table["positive metric exists (diagonalizable real spectrum)"]["residual"] is True


BATTERY_ROWS = [
    "biorthonormality", "completeness", "reconstruction", "conjugate pairing",
    "pseudo-Hermiticity P H P^-1 = H^dag", "C^2 = 1", "[C, H] = 0", "(TP)^2 = 1",
    "(CTP)^2 = 1", "[TP, H] = 0", "[C, TP] = 0", "congruent metric involutory",
    "canonical trace in {0, 1}", "positive metric exists (diagonalizable real spectrum)",
    "metric-reversing symmetries exist (paired blocks)",
]


@pytest.mark.parametrize("h, code, names", [
    (np.array([[1, 1], [0, 1]], dtype=complex), 0, BATTERY_ROWS),
    (np.diag([1j, 2.0]).astype(complex), 3, BATTERY_ROWS[:4]),
], ids=["paired", "unpaired"])
def test_check_rows_in_order(h, code, names, tmp_path, capsys):
    path = _write_matrix(tmp_path, "h.json", h)
    assert main(["check", "--input", str(path)]) == code
    table = json.loads(capsys.readouterr().out)["results"]["table"]
    assert [row["check"] for row in table] == names


def test_check_with_a_non_canonical_sign_sequence(sixone, tmp_path, capsys):
    # all-plus signs make P the positive metric, whose congruent trace is 2;
    # the {0, 1} rule holds for the canonical sequence only
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps([[0, 0, 1], [1, 0, 1]]))
    assert main(["check", "--input", str(sixone), "--sigma", str(sigma)]) == 0
    table = {row["check"]: row for row in
             json.loads(capsys.readouterr().out)["results"]["table"]}
    assert table["canonical trace in {0, 1}"]["pass"]
    assert table["canonical trace in {0, 1}"]["residual"] == pytest.approx(2.0)


def test_check_rejects_a_pair_with_split_signs(tmp_path, capsys):
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    path = _write_matrix(tmp_path, "pair.json", h)
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps([[0, 0, 1], [1, 0, -1]]))
    assert main(["check", "--input", str(path), "--sigma", str(sigma)]) == 1
    assert "must share its sign" in capsys.readouterr().err


@pytest.mark.parametrize("rows,message", [
    ([[0, 0]], "error: sign sequence row [0, 0] is not a [group, chain, sign] triple\n"),
    ({"0": 1}, "error: sign sequence row {'0': 1} is not a [group, chain, sign] triple\n"),
    ([[0, 0, 1], [2, 0, 1]], "error: sign sequence labels do not match the decomposition: "
                             "missing [(1, 0)], extra [(2, 0)]\n"),
])
def test_construct_names_the_bad_sign_rows(sixone, tmp_path, capsys, rows, message):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps(rows))
    assert main(["construct", "--input", str(sixone), "--ops", "P", "--sigma", str(sigma)]) == 1
    assert capsys.readouterr().err == message


def test_classify_refuses_operands_of_different_sizes(tmp_path, capsys):
    metric = _write_matrix(tmp_path, "m.json", np.eye(2))
    op = _write_matrix(tmp_path, "o.json", np.eye(3))
    assert main(["classify", "--metric", str(metric), "--op", str(op)]) == 1
    assert capsys.readouterr().err == "error: operator is (3, 3) but the metric is (2, 2)\n"


def test_check_table_is_the_library_battery(tmp_path, capsys):
    h, _ = synthesize(SynthesisSpec(groups=(JordanBlockSpec(0.5, (2,)),
                                            JordanBlockSpec(-1 + 0.7j, (1,)),
                                            JordanBlockSpec(-1 - 0.7j, (1,))),
                                    basis_seed=3, basis_cond=10.0))
    path = _write_matrix(tmp_path, "h.json", h)
    assert main(["check", "--input", str(path)]) == 0
    table = json.loads(capsys.readouterr().out)["results"]["table"]
    dec = spectral.analyze(h, allow_unpaired=True)
    assert json.loads(json.dumps(krein.check_battery(h, dec))) == table


def test_check_reads_the_congruent_metric_from_the_congruence(sixone, monkeypatch, capsys):
    # S^dag P S is formed once, by congruence_to_involutory: the battery's
    # "congruent metric involutory" and "canonical trace" rows read its P~
    made, congruence = [], krein.congruence_to_involutory
    monkeypatch.setattr(krein, "congruence_to_involutory",
                        lambda *args: made.append(congruence(*args)) or made[-1])
    assert main(["check", "--input", str(sixone)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["all_pass"]
    (cong,) = made
    table = {row["check"]: row["residual"] for row in results["table"]}
    assert table["congruent metric involutory"] == linalg._fro(cong.p_tilde @ cong.p_tilde
                                                               - np.eye(2))
    assert table["canonical trace in {0, 1}"] == cong.trace


def test_check_passes_a_small_scale_jordan_block(tmp_path, capsys):
    """The seed-0 3-block of ``analyze``'s metamorphic test (n = 8, cond 10)
    scaled by 1e-2 passes every row.  Its chain vectors grow as H shrinks,
    but P~ = G^dag K G follows the basis's Gram error, not their size."""
    h, _ = synthesize(_spec(np.random.default_rng([8, 1, 0, 0]), 8, (3,), 0, cond=10.0))
    assert main(["check", "--input", str(_write_matrix(tmp_path, "h.json", 1e-2 * h))]) == 0
    table = json.loads(capsys.readouterr().out)["results"]["table"]
    assert [row["check"] for row in table if not row["pass"]] == []


#: argv templates that read a Hamiltonian ({h}) or a metric ({m}) document
_LINEAR_INPUTS = {
    "analyze": ["analyze", "--input", "{h}"],
    "construct": ["construct", "--input", "{h}", "--ops", "P"],
    "check": ["check", "--input", "{h}"],
    "evolve-input": ["evolve", "--input", "{h}", "--metric", "{m}", "--initial", "{v}",
                     "--t0", "0", "--t1", "1", "--steps", "3"],
    "evolve-metric": ["evolve", "--input", "{h}", "--metric", "{m}", "--initial", "{v}",
                      "--t0", "0", "--t1", "1", "--steps", "3"],
    "classify-metric": ["classify", "--metric", "{m}", "--op", "{o}"],
}


@pytest.mark.parametrize("label", list(_LINEAR_INPUTS))
def test_an_antilinear_hamiltonian_or_metric_is_refused(label, tmp_path, capsys):
    h, eye = np.diag([1.0, 2.0]).astype(complex), np.eye(2, dtype=complex)
    paths = {"h": _write_matrix(tmp_path, "h.json", h), "m": _write_matrix(tmp_path, "m.json", eye),
             "o": _write_matrix(tmp_path, "o.json", eye),
             "v": _write_vector(tmp_path, "v.json", [1.0, 0.5])}
    argv = [a.format(**paths) for a in _LINEAR_INPUTS[label]]
    assert main(argv) == 0
    capsys.readouterr()
    role = "m" if label.endswith("metric") else "h"
    bad = _write_matrix(tmp_path, "anti.json", h if role == "h" else eye, antilinear=True)
    assert main([a.format(**(paths | {role: bad})) for a in _LINEAR_INPUTS[label]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {bad} holds an antilinear operator; "
                            "a linear matrix is required\n")


def test_classify_keeps_the_antilinear_flag_of_its_operator(tmp_path, capsys):
    # complex conjugation preserves the identity metric: M^dag M = 1 = 1^T
    eye = np.eye(2, dtype=complex)
    metric = _write_matrix(tmp_path, "m.json", eye)
    op = _write_matrix(tmp_path, "o.json", eye, antilinear=True)
    assert main(["classify", "--metric", str(metric), "--op", str(op)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["class"], results["antilinear"]) == ("PAntiunitary", True)


#: an eigenvalue off the real axis by more than the snap but within the
#: pairing window; it has no conjugate partner
NEAR_REAL = np.diag([1 + 1.5e-4j, 5.0]).astype(complex)


@pytest.mark.parametrize("command, stream, message", [
    (["construct", "--ops", "P"], "err", "without conjugate partner"),
    (["check"], "out", "NotPaired: unpaired complex eigenvalues"),
    (["evolve", "--metric", "pplus", "--t0", "0", "--t1", "1", "--steps", "5"],
     "err", "without conjugate partner"),
], ids=["construct", "check", "evolve-pplus"])
def test_unpaired_near_real_eigenvalue_is_refused(command, stream, message, tmp_path,
                                                  capsys):
    h_path = _write_matrix(tmp_path, "h.json", NEAR_REAL)
    state = str(_write_vector(tmp_path, "v.json", [1.0, 1.0]))
    args = command[:1] + ["--input", str(h_path)] + command[1:]
    if command[0] == "evolve":
        args += ["--initial", state, "--final", state]
    assert main(args) == 3
    assert message in getattr(capsys.readouterr(), stream)


def test_existence_row_builds_no_metric_reversing_operator(monkeypatch, capsys, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("the existence decision built an operator")

    _, dec = synthesize(SynthesisSpec(groups=(JordanBlockSpec(0.0, (2, 2)),
                                              JordanBlockSpec(1 + 1j, (1,)),
                                              JordanBlockSpec(1 - 1j, (1,))),
                                      basis_seed=4))
    h = spectral.reconstruct(dec)
    monkeypatch.setattr(operators, "build_reflecting", fail)
    monkeypatch.setattr(operators, "build_quaternionic_T", fail)
    assert krein.pseudounitary_symmetries_exist(dec).exists
    assert main(["check", "--input", str(_write_matrix(tmp_path, "h.json", h))]) == 0
    table = json.loads(capsys.readouterr().out)["results"]["table"]
    assert table[-1] == {"check": "metric-reversing symmetries exist (paired blocks)",
                         "pass": True, "residual": True}


def test_evolve_probability_csv(sixone, tmp_path):
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    fin = _write_vector(tmp_path, "fin.json", [1.0, 0.0])
    out = tmp_path / "series.csv"
    assert main(["evolve", "--input", str(sixone), "--metric", "pplus",
                 "--initial", str(ini), "--final", str(fin),
                 "--t0", "0", "--t1", "20", "--steps", "50",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,probability"
    ts, vals = zip(*((float(a), float(b)) for a, b in
                     (ln.split(",") for ln in lines[1:])))
    expected = 0.5 * (1 - np.cos(2 * np.array(ts)))
    assert np.abs(np.array(vals) - expected).max() < 1e-10


def test_evolve_single_point(sixone, tmp_path):
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    fin = _write_vector(tmp_path, "fin.json", [0.0, 1.0])
    out = tmp_path / "one.csv"
    assert main(["evolve", "--input", str(sixone), "--metric", "pplus",
                 "--initial", str(ini), "--final", str(fin),
                 "--t0", "0", "--t1", "0", "--steps", "1",
                 "--out", str(out)]) == 0
    assert float(out.read_text().strip().split("\n")[1].split(",")[1]) == pytest.approx(1.0)


def test_evolve_krein_norm_mode(tmp_path):
    h, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 0.5, -0.5))
    from pseudoherm.operators import build_parity
    h_path = _write_matrix(tmp_path, "h.json", h)
    p_path = _write_matrix(tmp_path, "p.json", build_parity(dec))
    ini = _write_vector(tmp_path, "ini.json", [1.0, 0.3])
    out = tmp_path / "norm.csv"
    assert main(["evolve", "--input", str(h_path), "--metric", str(p_path),
                 "--initial", str(ini), "--t0", "0", "--t1", "10",
                 "--steps", "30", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,krein_norm"
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert max(abs(v - vals[0]) for v in vals) < 1e-8 * abs(vals[0])


def test_evolve_indefinite_refusal(sixone, tmp_path):
    _, _, dec = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, 1.0))
    from pseudoherm.operators import build_parity
    p_path = _write_matrix(tmp_path, "p.json", build_parity(dec))
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    fin = _write_vector(tmp_path, "fin.json", [1.0, 0.0])
    assert main(["evolve", "--input", str(sixone), "--metric", str(p_path),
                 "--initial", str(ini), "--final", str(fin),
                 "--t0", "0", "--t1", "1", "--steps", "5"]) == 3


def test_cli_refuses_a_near_singular_metric_on_every_path(tmp_path):
    # diag(1, eps) with eps within tol.scaled = 3e-10 of zero: evolve with
    # and without --final, and classify, refuse it as the library does
    h_path = _write_matrix(tmp_path, "h.json", np.diag([1.0, 2.0]).astype(complex))
    ini = _write_vector(tmp_path, "ini.json", [1.0, 1.0])
    fin = _write_vector(tmp_path, "fin.json", [1.0, 0.0])
    m15 = _write_matrix(tmp_path, "m15.json", np.diag([1.0, 1.5e-10]).astype(complex))
    evolve = ["evolve", "--input", str(h_path), "--metric", str(m15),
              "--initial", str(ini), "--t0", "0", "--t1", "1", "--steps", "5"]
    assert main(evolve) == 3
    assert main(evolve + ["--final", str(fin)]) == 3
    m25 = np.diag([1.0, 2.5e-10]).astype(complex)
    o_path = _write_matrix(tmp_path, "o.json", np.eye(2, dtype=complex))
    assert main(["classify", "--metric", str(_write_matrix(tmp_path, "m25.json", m25)),
                 "--op", str(o_path)]) == 3
    with pytest.raises(errors.SingularMetric):
        krein.classify(np.eye(2), m25)


@pytest.mark.parametrize("h_scale, metric_scale", [(1e100, 1e100), (1e150, 1e30)])
def test_evolve_accepts_a_hermitian_h_under_a_scaled_identity(tmp_path, capsys, h_scale,
                                                                metric_scale):
    # the squares of G - G^dag overflow here, so the chain-basis bound proves
    # nothing and the exact rule, which accepts, decides the gate
    h = h_scale * np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    out = tmp_path / "norm.csv"
    assert main(["evolve", "--input", str(_write_matrix(tmp_path, "h.json", h)),
                 "--metric", str(_write_matrix(tmp_path, "m.json", metric_scale * np.eye(2))),
                 "--initial", str(_write_vector(tmp_path, "ini.json", [1.0, 0.0])),
                 "--t0", "0", "--t1", "1", "--steps", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    norms = [float(line.split(",")[1]) for line in out.read_text().strip().split("\n")[1:]]
    assert norms == pytest.approx([metric_scale] * 5, rel=1e-14)


def test_pplus_refusal_prints_plain_eigenvalues(tmp_path, capsys):
    h, _, _ = mashhoon_papini(MashhoonPapiniParams(1.0, 1.0, -1.0))
    h_path = _write_matrix(tmp_path, "pair.json", h)
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    assert main(["evolve", "--input", str(h_path), "--metric", "pplus",
                 "--initial", str(ini), "--t0", "0", "--t1", "1", "--steps", "5"]) == 3
    err = capsys.readouterr().err
    assert "non-real eigenvalues [(" in err
    assert "np.complex128" not in err


def test_model_command(capsys):
    assert main(["model", "mashhoon", "--E", "1", "--r", "1", "--s", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    h = serialization.doc_to_matrix(rep["results"]["matrix"]).matrix
    assert np.allclose(h, [[1, 1j], [-1j, 1]])
    assert rep["results"]["regime"] == "RealNondegenerate"
    assert len(rep["results"]["decomposition"]["groups"]) == 2


def test_synthesize_round_trip(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [
        {"eigenvalue": [1.0, 0.0], "dims": [2]},
        {"eigenvalue": [0.0, 1.0], "dims": [1]},
        {"eigenvalue": [0.0, -1.0], "dims": [1]},
    ]}))
    out = tmp_path / "syn.json"
    assert main(["synthesize", "--spec", str(spec), "--seed", "5",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["seed"] == 5
    h_path = tmp_path / "h.json"
    h_path.write_text(serialization.canonical_dumps(rep["results"]["matrix"]))
    assert main(["analyze", "--input", str(h_path)]) == 0
    analyzed = json.loads(capsys.readouterr().out)
    dims = sorted(tuple(g["block_dims"]) for g in analyzed["results"]["groups"])
    assert dims == [(1,), (1,), (2,)]


def test_synthesize_scalar_trivial(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [{"eigenvalue": [0.0, 0.0], "dims": [1]}]}))
    assert main(["synthesize", "--spec", str(spec)]) == 0
    rep = json.loads(capsys.readouterr().out)
    h = serialization.doc_to_matrix(rep["results"]["matrix"]).matrix
    assert h.shape == (1, 1) and h[0, 0] == 0


@pytest.mark.parametrize("command", ["analyze", "check"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_a_usage_error(sixone, command, value, capsys):
    assert main([command, "--input", str(sixone), "--tol", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tolerances must be finite\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_from_the_environment_is_a_usage_error(
        sixone, monkeypatch, capsys, value):
    monkeypatch.setenv("PSEUDOHERM_TOL", value)
    assert main(["analyze", "--input", str(sixone)]) == 1
    assert capsys.readouterr().err == "error: tolerances must be finite\n"


@pytest.mark.parametrize("group,field", [({"dims": [1]}, "eigenvalue"),
                                         ({"eigenvalue": [1.0, 0.0]}, "dims")])
def test_synthesis_spec_names_a_missing_field(tmp_path, capsys, group, field):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"groups": [{"eigenvalue": [0.0, 0.0], "dims": [1]}, group]}))
    assert main(["synthesize", "--spec", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: synthesis group 1 has no '{field}' field\n"


@pytest.mark.parametrize("cond, shown", [("0.5", "0.5"), ("0", "0.0"), ("Infinity", "inf"),
                                         ("-5", "-5.0"), ("NaN", "nan")])
def test_synthesize_refuses_a_bad_basis_cond(tmp_path, capsys, cond, shown):
    spec = tmp_path / "spec.json"
    spec.write_text('{"basis_cond": %s, "groups": [{"eigenvalue": [1.0, 0.0], "dims": [1, 1]}]}'
                    % cond)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synthesize", "--spec", str(spec), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: basis_cond must be finite and at least 1, got {shown}\n"


@pytest.mark.parametrize("argv", [["analyze"], ["check"], ["construct", "--ops", "P"]])
def test_staircase_svd_failure_exits_2(tmp_path, capsys, argv):
    path = _write_matrix(tmp_path, "big.json", 1e150 * (np.eye(3) + np.eye(3, k=1)))
    with np.errstate(all="ignore"):
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: rank staircase: SVD of power 3 ")


@pytest.mark.parametrize("argv", [["analyze"], ["check"], ["construct", "--ops", "P"]])
@pytest.mark.parametrize("h", [1e154 * np.diag([1.0, 2.0]), 1e160 * (np.eye(3) + np.eye(3, k=1))],
                         ids=["diag-1e154", "jordan3-1e160"])
def test_an_overflowing_norm_is_a_one_line_refusal(h, argv, tmp_path, capsys):
    path = _write_matrix(tmp_path, "big.json", h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ||H||_F overflows the float range\n"


@pytest.mark.parametrize("h, t1, final, message", [
    (1e154 * np.diag([1.0, 2.0]), "1", False, "||H||_F overflows the float range"),
    (1e154 * np.diag([1.0, 2.0]), "1", True, "||H||_F overflows the float range"),
    (np.diag([1.0, 1.0 + 1e-9]), "1.5e308", False, "|t| ||H||_F overflows the float range"),
    (np.diag([1.0, 1.0 + 1e-9]), "1.5e308", True, "|t| ||H||_F overflows the float range"),
], ids=["diag-1e154-krein", "diag-1e154-probability", "close-to-1.5e308-krein",
        "close-to-1.5e308-probability"])
def test_evolve_refuses_an_overflowing_step_in_one_line(h, t1, final, message, tmp_path, capsys):
    path = _write_matrix(tmp_path, "h.json", h)
    eye = _write_matrix(tmp_path, "eye.json", np.eye(2))
    v = _write_vector(tmp_path, "v.json", [1.0, 0.0])
    argv = ["evolve", "--input", str(path), "--metric", str(eye), "--initial", str(v),
            "--t0", "0", "--t1", t1, "--steps", "2"] + (["--final", str(v)] if final else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("final, scale", [(False, 1.0), (True, 1.0), (False, 1e10), (True, 1e10)],
                         ids=["krein", "probability", "krein-1e10", "probability-1e10"])
def test_evolve_refuses_an_h_that_does_not_preserve_its_metric(final, scale, tmp_path, capsys):
    # the nilpotent H under the identity, at any scale; --final used to print
    # 0, 1, 4, 9.  The refusal names the residual ||H - H^dag||_F = sqrt(2),
    # the threshold tol.scaled(H) and their ratio
    path = _write_matrix(tmp_path, "h.json", np.array([[0.0, 1.0], [0.0, 0.0]]))
    eye = _write_matrix(tmp_path, "eye.json", scale * np.eye(2))
    e1 = _write_vector(tmp_path, "e1.json", [1.0, 0.0])
    e2 = _write_vector(tmp_path, "e2.json", [0.0, 1.0])
    assert main(["evolve", "--input", str(path), "--metric", str(eye), "--initial", str(e2),
                 "--t0", "0", "--t1", "3", "--steps", "4"]
                + (["--final", str(e1)] if final else [])) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: H is not pseudo-Hermitian with respect to this metric: "
                            "||eta H eta^-1 - H^dag||_F = 1.414e+00 above the threshold "
                            "3.000e-10 (4.71e+09 times it)\n")


def test_matrix_document_with_a_wrong_n_is_refused():
    doc = {"n": 3, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    with pytest.raises(errors.DimensionMismatch, match="claims n=3 but data disagrees"):
        serialization.doc_to_matrix(doc)


@pytest.mark.parametrize("doc", [{"data": [[1.0, 0.0]]}, {"n": 1}, [[1.0, 0.0]]])
def test_vector_document_needs_n_and_data(doc):
    with pytest.raises(ValueError, match="vector document must have 'n' and 'data' fields"):
        serialization.doc_to_vector(doc)


def test_synthesis_document_needs_groups():
    with pytest.raises(ValueError, match="synthesis document must have a 'groups' field"):
        serialization.synthesis_groups_from_doc({"basis_cond": 10.0})


def test_analyze_warns_on_unpaired_complex_eigenvalues(tmp_path, capsys):
    path = _write_matrix(tmp_path, "u.json", np.diag([2j, 1.0]))
    assert main(["analyze", "--input", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [g["kind"] for g in rep["results"]["groups"]] == ["unpaired", "real"]
    assert rep["warnings"] == ["complex eigenvalues without conjugate partners; "
                               "generalized parity constructions will refuse"]


def test_analyze_lists_the_groups_of_the_decomposition_document(tmp_path, capsys):
    h, _ = synthesize(SynthesisSpec(groups=(JordanBlockSpec(0.5, (2, 1)),
                                            JordanBlockSpec(1 + 2j, (2,)),
                                            JordanBlockSpec(1 - 2j, (2,))), basis_seed=2))
    path = _write_matrix(tmp_path, "h.json", h)
    assert main(["analyze", "--input", str(path)]) == 0
    listed = json.loads(capsys.readouterr().out)["results"]["groups"]
    doc = serialization.decomposition_to_doc(spectral.analyze(h))
    assert listed == [{k: v for k, v in g.items() if k not in ("psi", "phi")}
                      for g in doc["groups"]]
    assert [g["kind"] for g in listed] == ["real", "plus", "minus"]


def test_evolve_zero_final_state_is_a_usage_error(sixone, tmp_path, capsys):
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    fin = _write_vector(tmp_path, "fin.json", [0.0, 0.0])
    assert main(["evolve", "--input", str(sixone), "--metric", "pplus",
                 "--initial", str(ini), "--final", str(fin),
                 "--t0", "0", "--t1", "1", "--steps", "5"]) == 1
    assert capsys.readouterr().err == "error: final state is zero\n"


@pytest.mark.parametrize("flag", ["--t0", "--t1"])
@pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
def test_evolve_refuses_a_non_finite_time_bound(sixone, tmp_path, capsys, flag, bad):
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    bounds = {"--t0": "0", "--t1": "1", flag: bad}  # "--t0=-inf": not read as a flag
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--input", str(sixone), "--metric", "pplus",
                     "--initial", str(ini), "--steps", "5",
                     *(f"{k}={v}" for k, v in bounds.items())]) == 1
    assert capsys.readouterr().err == "error: time grid must be finite\n"


def test_evolve_refuses_zero_steps(sixone, tmp_path, capsys):
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    assert main(["evolve", "--input", str(sixone), "--metric", "pplus",
                 "--initial", str(ini), "--t0", "0", "--t1", "1", "--steps", "0"]) == 1
    assert capsys.readouterr().err == "error: --steps must be at least 1\n"


def test_negative_values_in_exponent_notation_are_numbers(sixone, tmp_path, capsys):
    # argparse alone reads only -1 and -.5 as numbers, and -1e-3 as a flag
    assert main(["model", "mashhoon", "--E", "-1e-3", "--r", "1", "--s", "1"]) == 0
    label = json.loads(capsys.readouterr().out)["results"]["matrix"]["label"]
    assert label.startswith("two-level E=-0.001 ")
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    out = tmp_path / "series.csv"
    assert main(["evolve", "--input", str(sixone), "--metric", "pplus", "--initial", str(ini),
                 "--t0", "-1e2", "--t1", "0", "--steps", "3", "--out", str(out)]) == 0
    assert out.read_text().split("\n")[1].startswith("-100,")
    assert main(["model", "mashhoon", "--E", "--r", "1", "--s", "1"]) == 1
    assert "argument --E: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("r,s", [("1e200", "1e200"), ("1e-300", "-1e300")])
def test_model_with_an_overflowing_basis_is_a_one_line_refusal(capsys, r, s):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["model", "mashhoon", "--E", "1", "--r", r, "--s", s]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the model's eigenvalues or chain basis overflow the float "
                            f"range at E=1, r={float(r):g}, s={float(s):g}\n")


def test_evolve_refuses_a_metric_of_another_size(sixone, tmp_path, capsys):
    metric = _write_matrix(tmp_path, "eta.json", np.eye(3))
    ini = _write_vector(tmp_path, "ini.json", [0.0, 1.0])
    assert main(["evolve", "--input", str(sixone), "--metric", str(metric),
                 "--initial", str(ini), "--t0", "0", "--t1", "1", "--steps", "3"]) == 1
    assert capsys.readouterr().err == "error: H is (2, 2) but the metric is (3, 3)\n"


def test_tolerance_env_override(sixone, monkeypatch, capsys):
    monkeypatch.setenv("PSEUDOHERM_TOL", "1e-6")
    assert main(["analyze", "--input", str(sixone)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["tolerance"]["abs"] == 1e-6
    monkeypatch.delenv("PSEUDOHERM_TOL")
    assert main(["analyze", "--input", str(sixone)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["tolerance"]["abs"] == 1e-10


def test_module_entry_point_runs_without_runpy_warning():
    src = str(Path(pseudoherm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pseudoherm.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "evolve" in proc.stdout


#: the exit code each library error maps to
_EXIT_CODES = {
    "PseudohermError": 2, "DimensionMismatch": 1, "NonConvergence": 2,
    "Singular": 2, "Overflow": 2, "NumericalAmbiguity": 2, "ClusterAmbiguity": 2,
    "MathematicalRefusal": 3, "NotPaired": 3, "NotDiagonalizableReal": 3,
    "UnpairedRealBlocks": 3, "SingularMetric": 3, "NonHermitianMetric": 3,
    "SingularBasis": 3, "SingularOperator": 3, "NotAntiunitary": 3,
    "NotPseudoHermitian": 3, "IndefiniteMetric": 3, "ZeroLeadingCoefficient": 3,
}


def test_every_error_class_has_a_pinned_exit_code():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes == set(_EXIT_CODES)


@pytest.mark.parametrize("name", sorted(_EXIT_CODES))
def test_error_exit_code(name, monkeypatch, capsys):
    def fail(args):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(cli, "cmd_model", fail)
    assert main(["model", "mashhoon", "--E", "1", "--r", "1", "--s", "1"]) == _EXIT_CODES[name]
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("exc", [ValueError, OSError, KeyError, TypeError])
def test_non_library_input_error_exits_1(exc, monkeypatch, capsys):
    def fail(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_model", fail)
    assert main(["model", "mashhoon", "--E", "1", "--r", "1", "--s", "1"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: 'boom'\n" if exc is KeyError else "error: boom\n")


def test_other_exceptions_propagate_out_of_main(monkeypatch):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_model", fail)
    with pytest.raises(RuntimeError, match="boom"):
        main(["model", "mashhoon", "--E", "1", "--r", "1", "--s", "1"])

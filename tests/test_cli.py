"""CLI commands, document formats and the exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pseudoherm
from pseudoherm import serialization
from pseudoherm.cli import main
from pseudoherm.evolution import MashhoonPapiniParams, mashhoon_papini


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


def test_classify_singular_metric_exit(tmp_path):
    p_path = _write_matrix(tmp_path, "p.json", np.diag([1.0, 0.0]).astype(complex))
    o_path = _write_matrix(tmp_path, "o.json", np.eye(2, dtype=complex))
    assert main(["classify", "--metric", str(p_path), "--op", str(o_path)]) == 3


def test_check_command_passes_on_model(sixone, capsys):
    assert main(["check", "--input", str(sixone)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["all_pass"]
    table = {row["check"]: row for row in rep["results"]["table"]}
    assert table["C^2 = 1"]["pass"]
    assert table["metric-reversing symmetries exist (paired blocks)"]["residual"] is False


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

"""CLI wiring: artifacts, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from qpsl.cli import main
from qpsl.diophantine import golden_mean

GOLDEN = "0.6180339887498949"


def run_cli(args):
    return main(args)


def test_cf_prints_denominators(capsys):
    assert run_cli(["cf", "--alpha", GOLDEN, "--depth", "8"]) == 0
    out = capsys.readouterr().out
    assert "q = 1,1,2,3,5,8,13,21" in out


def test_cf_invalid_alpha_exit_code(capsys):
    assert run_cli(["cf", "--alpha", "1.5", "--depth", "4"]) == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "NotInUnitInterval"


def test_build_and_verify_set(tmp_path, capsys):
    set_path = tmp_path / "set.json"
    rc = run_cli(["build-set", "--alpha", golden_mean(80), "--M", "10",
                  "--s", "0.9", "--depth", "6", "--j1", "0", "--spacing", "2",
                  "--count", "1", "--out", str(set_path)])
    assert rc == 0
    data = json.loads(set_path.read_text())
    assert data["entries"][0]["label"] == ["16"]
    rc = run_cli(["verify-set", "--set", str(set_path), "--num-targets", "4",
                  "--tol", "0.5", "--out", str(tmp_path / "verify.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "verify.json").read_text())
    assert rep["passed"]
    assert "config_hash" in rep


def test_rotation_csv_deterministic(tmp_path):
    out1 = tmp_path / "rot1.csv"
    out2 = tmp_path / "rot2.csv"
    base = ["rotation", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
            "--emin", "-1.0", "--emax", "1.0", "--grid", "5", "--iters", "2000",
            "--samples", "2"]
    assert run_cli(base + ["--out", str(out1)]) == 0
    assert run_cli(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    head = out1.read_text().splitlines()
    assert head[0].startswith("# schema=qpsl.rotation.v1 config_hash=")
    assert head[1] == "E,rho,dispersion"


def test_ids_csv(tmp_path):
    out = tmp_path / "ids.csv"
    rc = run_cli(["ids", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
                  "--emin", "-3", "--emax", "3", "--grid", "7", "--N", "100",
                  "--phases", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    vals = [float(l.split(",")[1]) for l in lines[2:]]
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_gaps_csv_amo(tmp_path):
    out = tmp_path / "gaps.csv"
    rc = run_cli(["gaps", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
                  "--emin", "-2.6", "--emax", "2.6", "--grid", "121",
                  "--iters", "20000", "--labels", "1..2", "--tol", "4e-3",
                  "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "label,E_minus,E_plus,length,r,window"
    labels = [l.split(",")[0] for l in lines[2:]]
    assert any(lab in ("1", "-1") for lab in labels)


@pytest.fixture(scope="module")
def criterion11_kam(tmp_path_factory):
    """set.json, kam.json and the step stream of the criterion-11 upper edge."""
    tmp = tmp_path_factory.mktemp("kam")
    set_path = tmp / "set.json"
    run_cli(["build-set", "--alpha", golden_mean(80), "--M", "10",
             "--s", "0.9", "--depth", "6", "--count", "1", "--out", str(set_path)])
    kam_out = tmp / "kam.json"
    rc = run_cli(["kam", "--set", str(set_path), "--label-index", "0",
                  "--k", "2.0", "--out", str(kam_out),
                  "--steps-out", str(tmp / "steps.jsonl")])
    assert rc == 0
    return set_path, kam_out, tmp / "steps.jsonl"


def test_kam_and_edge_probe(tmp_path, criterion11_kam):
    set_path, kam_out, steps = criterion11_kam
    data = json.loads(kam_out.read_text())
    assert data["zeta"] != 0
    assert data["conj_residual"] < 1e-8
    assert 0 < data["edge_search"]["evaluations"] <= 26
    assert data["edge_search"]["failures"] == []
    assert steps.read_text().strip()
    probe_out = tmp_path / "probe.json"
    rc = run_cli(["edge-probe", "--result", str(kam_out), "--set", str(set_path),
                  "--k", "2.0", "--no-probe", "--out", str(probe_out),
                  "--gap-csv", str(tmp_path / "bracket.csv")])
    assert rc == 0
    probe = json.loads(probe_out.read_text())
    assert probe["bracket"][0] < probe["bracket"][1]
    assert (tmp_path / "bracket.csv").read_text().startswith("# schema=qpsl.bracket")


def test_edge_probe_takes_k_from_the_kam_result(tmp_path, criterion11_kam):
    # without --k the probe must still see the potential the edge was reduced
    # with; the free operator gives delta2 'not' and a residual of 1e-2
    set_path, kam_out, _ = criterion11_kam
    probe_out = tmp_path / "probe.json"
    rc = run_cli(["edge-probe", "--result", str(kam_out), "--set", str(set_path),
                  "--out", str(probe_out)])
    assert rc == 0
    probe = json.loads(probe_out.read_text())
    assert probe["config"]["k"] == 2.0
    assert probe["delta2"]["verdict"] == "hyperbolic"
    assert probe["delta2"]["residual"] < 1e-9
    assert probe["bracket_consistent"] is True


def test_edge_probe_rejects_k_other_than_the_kam_result(tmp_path, capsys, criterion11_kam):
    set_path, kam_out, _ = criterion11_kam
    rc = run_cli(["edge-probe", "--result", str(kam_out), "--set", str(set_path),
                  "--k", "3.0", "--no-probe", "--out", str(tmp_path / "probe.json")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert not (tmp_path / "probe.json").exists()


def test_edge_probe_needs_k_when_the_result_has_none(tmp_path, capsys, criterion11_kam):
    set_path, kam_out, _ = criterion11_kam
    data = json.loads(kam_out.read_text())
    del data["config"]["k"]
    bare = tmp_path / "kam.json"
    bare.write_text(json.dumps(data))
    args = ["edge-probe", "--result", str(bare), "--set", str(set_path), "--no-probe",
            "--out", str(tmp_path / "probe.json")]
    assert run_cli(args) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert run_cli(args + ["--k", "2.0"]) == 0


def test_report_from_config(tmp_path):
    # criterion-11 schedule, bracket probes off
    cfg = {"frequency": {"components": [golden_mean(80)]},
           "schedule": {"M": 10, "s": 0.9, "depth": 6, "count": 1},
           "probe": False, "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["report", "--config", str(cfg_path)]) == 0
    stages = json.loads((tmp_path / "report.json").read_text())["stages"]
    assert stages["kam"]["energy"] == pytest.approx(1.8806000220263146, rel=0, abs=1e-12)
    assert stages["kam"]["zeta"] == pytest.approx(0.005738461448592442, rel=1e-9)
    assert stages["bracket"]["delta2"] is None


def test_gaps_curve_out_combined_csv(tmp_path):
    out = tmp_path / "gaps.csv"
    curves = tmp_path / "curves.csv"
    rc = run_cli(["gaps", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
                  "--emin", "-2.0", "--emax", "2.0", "--grid", "17",
                  "--iters", "4000", "--labels", "1", "--tol", "5e-3",
                  "--out", str(out), "--curve-out", str(curves)])
    assert rc == 0
    lines = curves.read_text().splitlines()
    assert lines[0].startswith("# schema=qpsl.curves.v1")
    assert lines[1] == "E,rho,N"
    assert len(lines) == 2 + 17


def test_workers_deterministic(tmp_path, monkeypatch):
    base = ["rotation", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
            "--emin", "-1.0", "--emax", "1.0", "--grid", "9", "--iters", "1000",
            "--samples", "2"]
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert run_cli(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert run_cli(base + ["--out", str(out2), "--workers", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("QPSL_THREADS", "2")
    out3 = tmp_path / "env.csv"
    assert run_cli(base + ["--out", str(out3)]) == 0
    assert out3.read_bytes() == out1.read_bytes()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qpsl.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0

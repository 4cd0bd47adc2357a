"""CLI wiring: artifacts, determinism, exit codes."""

import argparse
import json
import math
import multiprocessing
import os
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qpsl import cocycle, kam
from qpsl.cli import _build_parser, main
from qpsl.diophantine import frequency_vector, golden_mean
from qpsl.fourier import amo_potential
from qpsl.label_set import ell_star
from qpsl.spectrum import detect_gaps, rotation_curve

GOLDEN = "0.6180339887498949"


def run_cli(args):
    return main(args)


def test_cf_prints_denominators(tmp_path, capsys):
    out = tmp_path / "cf.json"
    assert run_cli(["cf", "--alpha", GOLDEN, "--depth", "8", "--out", str(out)]) == 0
    assert "q = 1,1,2,3,5,8,13,21" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["config"] == {"alpha": GOLDEN, "depth": 8}
    assert data["partial_quotients"] == [1] * 8
    assert data["p"] == ["0", "1", "1", "2", "3", "5", "8", "13"]
    assert data["q"] == ["1", "1", "2", "3", "5", "8", "13", "21"]


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


def test_build_set_without_out_writes_the_set_to_stdout(capsys):
    assert run_cli(["build-set", "--alpha", golden_mean(80), "--M", "10", "--s", "0.9",
                    "--depth", "6", "--count", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"][0]["label"] == ["16"]


def test_build_set_floor_from_k_exponent_and_verify_set_checks_it(tmp_path):
    # --k-exponent records ell_star(k, gamma, tau, s, ||A||) as the schedule's
    # floor; verify-set fails a set with a label below it
    base = ["build-set", "--alpha", golden_mean(80), "--M", "10", "--s", "0.9",
            "--depth", "6", "--count", "1", "--k-exponent", "1"]
    for j1, a_norm, floor_ok, labels in (("0", "2", False, [["16"]]),
                                         ("0", "1000", False, [["16"]]),
                                         ("3", "2", True, [["11405774"]])):
        set_path, verify = tmp_path / f"set_{j1}_{a_norm}.json", tmp_path / "verify.json"
        assert run_cli(base + ["--j1", j1, "--a-norm", a_norm, "--out", str(set_path)]) == 0
        data = json.loads(set_path.read_text())
        assert data["schedule"]["ell_star"] == ell_star(1.0, 0.5, 1.5, 0.9, float(a_norm))
        assert [e["label"] for e in data["entries"]] == labels
        assert run_cli(["verify-set", "--set", str(set_path), "--out", str(verify)]) == 0
        rep = json.loads(verify.read_text())
        assert rep["report"]["floor_ok"] is floor_ok and rep["passed"] is floor_ok
        assert rep["report"]["violations"] == ([] if floor_ok else [["floor", 0, 16]])


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


def test_rotation_without_a_potential_is_the_free_operator(tmp_path):
    out = tmp_path / "free.csv"
    assert run_cli(["rotation", "--alpha", GOLDEN, "--emin", "-1.0", "--emax", "1.0",
                    "--grid", "5", "--iters", "2000", "--samples", "2",
                    "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    free = rotation_curve(None, [float(GOLDEN)], np.linspace(-1.0, 1.0, 5), iters=2000,
                          samples=2)
    assert [float(row[1]) for row in rows] == free.rho.tolist()


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


def test_gaps_config_labels_as_a_list(tmp_path):
    # a config's labels may be a JSON list of integers, read as --labels is
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"labels": [1, 2]}))
    base = ["gaps", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
            "--grid", "41", "--iters", "4000"]
    assert run_cli(base + ["--config", str(cfg), "--out", str(tmp_path / "list.csv")]) == 0
    assert run_cli(base + ["--labels", "1,2", "--out", str(tmp_path / "flag.csv")]) == 0
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_gaps_labels_default_to_1_2_3(tmp_path):
    base = ["gaps", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
            "--grid", "41", "--iters", "4000"]
    assert run_cli(base + ["--out", str(tmp_path / "default.csv")]) == 0
    assert run_cli(base + ["--labels", "1,2,3", "--out", str(tmp_path / "flag.csv")]) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


@pytest.fixture(scope="module")
def criterion11_kam(tmp_path_factory):
    """set.json and kam.json of the criterion-11 upper edge."""
    tmp = tmp_path_factory.mktemp("kam")
    set_path = tmp / "set.json"
    run_cli(["build-set", "--alpha", golden_mean(80), "--M", "10",
             "--s", "0.9", "--depth", "6", "--count", "1", "--out", str(set_path)])
    kam_out = tmp / "kam.json"
    rc = run_cli(["kam", "--set", str(set_path), "--label-index", "0",
                  "--k", "2.0", "--out", str(kam_out)])
    assert rc == 0
    return set_path, kam_out


def test_kam_and_edge_probe(tmp_path, criterion11_kam):
    set_path, kam_out = criterion11_kam
    data = json.loads(kam_out.read_text())
    assert data["zeta"] != 0
    assert data["conj_residual"] < 1e-8
    assert 0 < data["edge_search"]["evaluations"] <= 7
    assert data["edge_search"]["failures"] == []
    assert "relaxed" not in data["config"]
    assert data["steps"] and all(step["residual"] < 1e-9 for step in data["steps"])
    probe_out = tmp_path / "probe.json"
    rc = run_cli(["edge-probe", "--result", str(kam_out), "--set", str(set_path),
                  "--k", "2.0", "--no-probe", "--out", str(probe_out),
                  "--gap-csv", str(tmp_path / "bracket.csv")])
    assert rc == 0
    probe = json.loads(probe_out.read_text())
    assert probe["bracket"][0] < probe["bracket"][1]
    assert (tmp_path / "bracket.csv").read_text().startswith("# schema=qpsl.bracket")


def test_kam_energy_target_locks_by_rotation_number(tmp_path, capsys, criterion11_kam):
    # at the edge energy the reduction is the edge search's, labelled by its
    # n~ with the sign of the set's label; at E = 0 the reduced constant is
    # elliptic, so E lies in the spectrum
    set_path, kam_out = criterion11_kam
    edge = json.loads(kam_out.read_text())
    out = tmp_path / "kam.json"
    assert run_cli(["kam", "--set", str(set_path), "--k", "2.0",
                    "--energy", repr(edge["energy"]), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["config"]["target"] == {"energy": edge["energy"]}
    assert data["edge_search"] is None
    for key in ("energy", "zeta", "conj_residual", "B_series"):
        assert data[key] == edge[key], key
    assert edge["label"] == [16] and data["label"] == [16]
    assert run_cli(["kam", "--set", str(set_path), "--k", "2.0", "--energy", "0.0",
                    "--out", str(tmp_path / "none.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TargetNotLocked"
    assert not (tmp_path / "none.json").exists()


@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_kam_energy_target_computes_no_rotation_number(tmp_path, monkeypatch, criterion11_kam,
                                                       edge):
    # the energy target's label is the reduction's own n~: with the Sturm
    # count raising, kam --energy at either edge writes the edge search's
    # reduction under the label target's label
    set_path, _ = criterion11_kam
    edge_out, out = tmp_path / "edge.json", tmp_path / "energy.json"
    assert run_cli(["kam", "--set", str(set_path), "--label-index", "0", "--edge", edge,
                    "--k", "2.0", "--out", str(edge_out)]) == 0
    ref = json.loads(edge_out.read_text())

    def no_sturm_count(*args, **kw):
        raise AssertionError("the Sturm count ran")
    monkeypatch.setattr(cocycle, "pivot_negatives", no_sturm_count)
    assert run_cli(["kam", "--set", str(set_path), "--k", "2.0", "--energy",
                    repr(ref["energy"]), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    for key in ("label", "energy", "zeta", "conj_residual", "B_series"):
        assert data[key] == ref[key], key


def test_kam_strict_refuses_outside_the_paper_regime(tmp_path, capsys, monkeypatch,
                                                    criterion11_kam):
    # k = 2 <= 62 tau: the refusal names every missed hypothesis before any
    # reduction runs
    set_path, _ = criterion11_kam

    def no_reduction(*args):
        raise AssertionError("kam --strict ran a reduction")

    monkeypatch.setattr(kam, "_reduce_at_energy", no_reduction)
    out = tmp_path / "kam.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["kam", "--set", str(set_path), "--label-index", "0", "--k", "2.0",
                      "--strict", "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigInvalid"
    for condition in ("k = 2 <= 62 tau", "k - 90 tau", "build-set --strict"):
        assert condition in err["message"]
    assert not out.exists()


def test_edge_probe_takes_k_from_the_kam_result(tmp_path, criterion11_kam):
    # without --k the probe must still see the potential the edge was reduced
    # with; the free operator gives delta2 'not' and a residual of 1e-2
    set_path, kam_out = criterion11_kam
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
    set_path, kam_out = criterion11_kam
    rc = run_cli(["edge-probe", "--result", str(kam_out), "--set", str(set_path),
                  "--k", "3.0", "--no-probe", "--out", str(tmp_path / "probe.json")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert not (tmp_path / "probe.json").exists()


def test_edge_probe_needs_k_when_the_result_has_none(tmp_path, capsys, criterion11_kam):
    set_path, kam_out = criterion11_kam
    data = json.loads(kam_out.read_text())
    del data["config"]["k"]
    bare = tmp_path / "kam.json"
    bare.write_text(json.dumps(data))
    args = ["edge-probe", "--result", str(bare), "--set", str(set_path), "--no-probe",
            "--out", str(tmp_path / "probe.json")]
    assert run_cli(args) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert run_cli(args + ["--k", "2.0"]) == 0


ROTATION = ["rotation", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
            "--grid", "3", "--iters", "100"]
# config files of the invalid-input cases, written as {tmp}/<name>.json
BAD_CONFIGS = {
    "max-degree-0": {"kam": {"max_degree": 0}},
    "grid-size-0": {"kam": {"grid_size": 0}},
    "max-degree-text": {"kam": {"max_degree": "x"}},
    "grid-size-text": {"kam": {"grid_size": "x"}},
    "tol-text": {"kam": {"conj_residual_tol": "x"}},
    "tol-0": {"kam": {"conj_residual_tol": 0.0}},
    "tol-negative": {"kam": {"conj_residual_tol": -1e-9}},
    "seed-text": {"seed": "x"},
    "seed-negative": {"seed": -1},
}
# per config number given as text, the command that reads it and its config,
# written as {tmp}/<name>-text.json
TEXT_NUMBERS = {
    "gamma": (ROTATION, {"frequency": {"gamma": "x"}}),
    "tau": (ROTATION, {"frequency": {"tau": "x"}}),
    "e-min": (ROTATION, {"scan": {"e_min": "x"}}),
    "e-max": (ROTATION, {"scan": {"e_max": "x"}}),
    "lambda": (ROTATION[:3] + ROTATION[5:], {"potential": {"lambda": "x"}}),
    "k": (["kam", "--set", "{set}"], {"potential": {"k": "x"}}),
    "gaps-tol": (["gaps"] + ROTATION[1:], {"tol": "x"}),
    **{"gaps-" + key: (["gaps"] + ROTATION[1:] + ["--curve-out", "{tmp}/curves.csv"],
                       {"scan": {key: "x"}}) for key in ("N", "phases")},
    **{key: (["build-set", "--alpha", GOLDEN], {"schedule": {key: "x"}})
       for key in ("M", "s", "depth", "j1", "spacing", "count")},
}


@pytest.mark.parametrize("argv, threads", [
    (["kam", "--set", "{tmp}/missing.json"], None),
    (["kam", "--set", "{tmp}/text.json"], None),
    (["edge-probe", "--result", "{tmp}/missing.json", "--set", "{set}"], None),
    (["edge-probe", "--result", "{tmp}/not_kam.json", "--set", "{set}"], None),
    (ROTATION + ["--config", "{tmp}/binary.json"], None),
    (ROTATION + ["--config", "{tmp}/list.json"], None),
    (["gaps"] + ROTATION[1:] + ["--labels", "1.."], None),
    (["gaps"] + ROTATION[1:] + ["--labels", ","], None),
    (["gaps"] + ROTATION[1:] + ["--config", "{tmp}/labels.json"], None),
    (["verify-set", "--set", "{set}", "--targets", "0.1,x"], None),
    (ROTATION, "two"),
    (ROTATION + ["--grid", "0"], None),
    (ROTATION + ["--iters", "0"], None),
    (ROTATION + ["--samples", "0"], None),
    (["ids"] + ROTATION[1:-2] + ["--phases", "0"], None),
    (["kam", "--set", "{set}", "--label-index", "5"], None),
    (["kam", "--set", "{set}", "--label-index", "-1"], None),
    (["build-set"], None),
    (ROTATION[:3] + ROTATION[5:], None),
    (["rotation", "--preset", "maryland"] + ROTATION[3:], None),
    (["potential"], None),
    (["ids"] + ROTATION[1:-2] + ["--N", "5"], None),
    (["potential", "--preset", "amo", "--lambda", "0.5", "--samples", "0"], None),
    (["cf", "--alpha", GOLDEN, "--depth", "0"], None),
] + [(["kam", "--set", "{set}", "--config", "{tmp}/" + name + ".json"], None)
     for name in BAD_CONFIGS] + [
    (argv + ["--config", "{tmp}/" + name + "-text.json"], None)
    for name, (argv, _) in TEXT_NUMBERS.items()] + [
    (["edge-probe", "--result", "{tmp}/k-text-result.json", "--set", "{set}"], None),
    (ROTATION + ["--config", "{tmp}/seed-negative.json"], None),
    (["ids"] + ROTATION[1:-2] + ["--config", "{tmp}/seed-negative.json"], None),
    (["gaps"] + ROTATION[1:] + ["--config", "{tmp}/seed-negative.json"], None),
], ids=["missing-set", "text-set", "missing-result", "non-kam-result", "binary-config",
        "list-config", "labels", "no-labels", "config-labels", "targets", "threads", "grid", "iters", "samples", "phases",
        "label-index-past-end", "label-index-negative", "no-frequency", "amo-without-lambda",
        "unknown-preset", "no-potential", "ids-N", "potential-samples", "cf-depth"]
    + ["kam-" + name for name in BAD_CONFIGS]
    + [name + "-text" for name in TEXT_NUMBERS] + ["result-k-text"]
    + ["rotation-seed-negative", "ids-seed-negative", "gaps-seed-negative"])
def test_invalid_input_exits_config_invalid(argv, threads, tmp_path, capsys, monkeypatch,
                                            criterion11_kam):
    # unreadable or malformed files and flag values exit 1 with ConfigInvalid,
    # before any output is written
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "not_kam.json").write_text('{"zeta": 1}')
    (tmp_path / "labels.json").write_text('{"labels": [1, "2"]}')
    for name, cfg in BAD_CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    for name, (_, cfg) in TEXT_NUMBERS.items():
        (tmp_path / f"{name}-text.json").write_text(json.dumps(cfg))
    result = json.loads(criterion11_kam[1].read_text())
    result["config"]["k"] = "x"
    (tmp_path / "k-text-result.json").write_text(json.dumps(result))
    if threads is not None:
        monkeypatch.setenv("QPSL_THREADS", threads)
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path, set=criterion11_kam[0]) for a in argv]
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert not out.exists()


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


def test_report_requires_a_config(capsys):
    assert run_cli(["report"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ConfigInvalid",
                                                    "message": "report requires --config"}


def test_report_stops_at_a_failing_stage_with_its_exit_code(tmp_path, capsys):
    # three labels at spacing 2 need level 4 of a depth-2 schedule: build-set
    # exits 2 and report with it, before any other stage runs
    cfg = {"frequency": {"components": [golden_mean(80)]},
           "schedule": {"M": 10, "s": 0.9, "depth": 2, "count": 3}, "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["report", "--config", str(cfg_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ScheduleTooShort"
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("bad", [
    {"kam": {"max_steps": "x"}}, {"kam": {"max_steps": 0}}, {"kam": {"max_steps": 2.5}},
    {"kam": {"label_index": "x"}}, {"kam": {"label_index": -1}},
    {"kam": {"edge": "middle"}}, {"kam": {"edge": 1}},
    {"kam": {"max_steps": True}},
    {"tol": "x"}, {"tol": 0}, {"tol": -0.25}, {"tol": None}, {"tol": True},
], ids=["max-steps-text", "max-steps-0", "max-steps-fraction", "label-index-text",
        "label-index-negative", "edge-middle", "edge-number", "max-steps-true", "tol-text",
        "tol-0", "tol-negative", "tol-null", "tol-true"])
def test_report_rejects_bad_stage_values_before_any_stage(tmp_path, capsys, bad):
    # a value report passes on as a flag exits 1 with ConfigInvalid before
    # build-set or verify-set writes anything
    out_dir = tmp_path / "report"
    cfg = {"frequency": {"components": [golden_mean(80)]},
           "schedule": {"M": 10, "s": 0.9, "depth": 6, "count": 1},
           "out_dir": str(out_dir), **bad}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["report", "--config", str(cfg_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"
    assert not out_dir.exists()


def test_report_runs_the_stage_subcommands(tmp_path, criterion11_kam):
    # the criterion11_kam configuration, bracket probes on: report leaves the
    # artifacts of its stages, equal to the subcommands' own
    set_path, kam_out = criterion11_kam
    probe_out = tmp_path / "probe.json"
    assert run_cli(["edge-probe", "--result", str(kam_out), "--set", str(set_path),
                    "--out", str(probe_out)]) == 0
    out_dir = tmp_path / "report"
    cfg = {"frequency": {"components": [golden_mean(80)]},
           "schedule": {"M": 10.0, "s": 0.9, "depth": 6, "count": 1},
           "out_dir": str(out_dir)}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(["report", "--config", str(cfg_path)]) == 0
    assert (out_dir / "set.json").read_bytes() == set_path.read_bytes()
    assert json.loads((out_dir / "verify.json").read_text())["passed"]

    def results(path):
        data = json.loads(path.read_text())
        return {key: v for key, v in data.items() if key not in ("config", "config_hash")}

    kam_data, probe = results(out_dir / "kam.json"), results(out_dir / "probe.json")
    assert kam_data == results(kam_out)
    assert probe == results(probe_out)
    stages = json.loads((out_dir / "report.json").read_text())["stages"]
    assert stages["kam"] == {key: kam_data[key]
                             for key in ("energy", "zeta", "conj_residual", "zeta_window")}
    assert stages["bracket"] == {"lower": probe["bracket"][0], "upper": probe["bracket"][1],
                                 "delta2": probe["delta2"]["verdict"],
                                 "delta1": probe["delta1"]["verdict"]}
    # --workers only where a sweep reads it; report writes to its config's out_dir
    for argv in (["kam", "--set", str(set_path), "--workers", "2"],
                 ["report", "--config", str(cfg_path), "--out", "report.json"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


def test_explicit_zero_flags_are_kept(tmp_path, capsys, criterion11_kam):
    # --k 0 reaches build_potential instead of falling back to k = 2
    set_path, _ = criterion11_kam
    assert run_cli(["potential", "--set", str(set_path), "--k", "0",
                    "--out", str(tmp_path / "V.csv")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "k must be positive"
    out = tmp_path / "set.json"
    assert run_cli(["build-set", "--alpha", golden_mean(80), "--M", "10", "--s", "0.9",
                    "--depth", "6", "--count", "1", "--tau", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tau"] == 0.0


def test_potential_csv_and_series(tmp_path, criterion11_kam):
    # K = {16} at k = 2: V(theta) = 16^-2 cos(16 theta), modes +-16 of 16^-2 / 2
    set_path, _ = criterion11_kam
    csv, series = tmp_path / "V.csv", tmp_path / "series.json"
    assert run_cli(["potential", "--set", str(set_path), "--k", "2.0", "--samples", "7",
                    "--out", str(csv), "--series-out", str(series)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# schema=qpsl.potential.v1 config_hash=")
    assert lines[1] == "theta,V"
    rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
    assert [theta for theta, _ in rows] == [2 * math.pi * i / 7 for i in range(7)]
    for theta, v in rows:
        assert v == pytest.approx(math.cos(16 * theta) / 256, rel=0, abs=1e-16)
    assert json.loads(series.read_text()) == {
        "d": 1, "halved": False, "kind": "scalar",
        "coeffs": [[[-16], 1 / 512, 0.0], [[16], 1 / 512, 0.0]]}


def test_cli_surface():
    # every settable flag of every subcommand (--help aside); --config only
    # where a config key is read
    scan = ["--alpha", "--alpha2", "--gamma", "--tau", "--set", "--preset", "--lambda",
            "--k", "--emin", "--emax", "--grid"]
    sweep = ["--iters", "--samples", "--workers"]
    surface = {
        "cf": ["--out", "--alpha", "--depth"],
        "build-set": ["--config", "--out", "--alpha", "--alpha2", "--gamma", "--tau", "--M",
                      "--s", "--depth", "--j1", "--spacing", "--count", "--strict",
                      "--k-exponent", "--a-norm"],
        "verify-set": ["--out", "--set", "--targets", "--num-targets", "--tol"],
        "potential": ["--config", "--out", "--set", "--preset", "--lambda", "--k",
                      "--samples", "--series-out"],
        "rotation": ["--config", "--out"] + scan + sweep,
        "ids": ["--config", "--out"] + scan + ["--N", "--phases"],
        "gaps": ["--config", "--out"] + scan + sweep + ["--labels", "--tol", "--refine",
                                                        "--curve-out"],
        "kam": ["--config", "--out", "--set", "--label-index", "--edge", "--energy", "--k",
                "--max-steps", "--strict"],
        "edge-probe": ["--out", "--result", "--set", "--k", "--no-probe", "--gap-csv"],
        "report": ["--config"],
    }
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: [opt for action in sp._actions for opt in action.option_strings
                  if opt not in ("-h", "--help")]
           for name, sp in sub.choices.items()}
    assert got == surface
    assert sum(map(len, got.values())) == 98
    for argv in (["cf", "--alpha", GOLDEN], ["verify-set", "--set", "set.json"],
                 ["edge-probe", "--result", "kam.json", "--set", "set.json"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--config", "config.json"])
        assert exc.value.code == 2


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


def test_rotation_pool_is_capped_at_the_cpu_count(tmp_path, monkeypatch):
    # --workers and QPSL_THREADS set the chunks, not the processes: the pool
    # takes at most os.cpu_count() (a fake pool runs the chunks in-process,
    # so no process is started)
    sizes = []

    class FakePool:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, jobs):
            return [fn(*job) for job in jobs]

    class Context:
        def Pool(self, size):
            sizes.append(size)
            return FakePool()

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context())
    base = ["rotation", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
            "--emin", "-1.0", "--emax", "1.0", "--grid", "9", "--iters", "1000",
            "--samples", "2"]
    out1, big, env = tmp_path / "w1.csv", tmp_path / "big.csv", tmp_path / "env.csv"
    assert run_cli(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert run_cli(base + ["--out", str(big), "--workers", "100000"]) == 0
    monkeypatch.setenv("QPSL_THREADS", "100000")
    assert run_cli(base + ["--out", str(env)]) == 0
    assert len(sizes) == 2 and all(1 <= n <= (os.cpu_count() or 1) for n in sizes)
    assert big.read_bytes() == out1.read_bytes() == env.read_bytes()


def test_gaps_refine_workers_deterministic(tmp_path):
    # the refinement's rho_fn is split over the workers too
    base = ["gaps", "--preset", "amo", "--lambda", "0.5", "--alpha", GOLDEN,
            "--emin", "-2.6", "--emax", "2.6", "--grid", "121", "--iters", "20000",
            "--labels", "1..2", "--tol", "4e-3", "--refine"]
    out1, out3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    assert run_cli(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert run_cli(base + ["--out", str(out3), "--workers", "3"]) == 0
    assert out1.read_bytes() == out3.read_bytes()
    rows = [line.split(",") for line in out1.read_text().splitlines()[2:]]
    assert {"1", "-1"} <= {row[0] for row in rows}
    grid = np.linspace(-2.6, 2.6, 121)
    for row in rows:                          # refined edges lie off the scan grid
        assert float(row[1]) not in grid and float(row[2]) not in grid
        assert float(row[2]) - float(row[1]) == float(row[3]) > 0
    # the edges are refined with 14 bisections, as the library's gap scans are
    V, alpha = amo_potential(0.5), frequency_vector(GOLDEN).floats()
    rho_fn = lambda energies: rotation_curve(V, alpha, energies, iters=20000, samples=2).rho
    want = detect_gaps(rotation_curve(V, alpha, grid, iters=20000, samples=2), alpha,
                       [1, 2], tol=4e-3, rho_fn=rho_fn, refine_bisections=14)
    assert [(row[0], float(row[1]), float(row[2])) for row in rows] == [
        (str(g.label[0]), g.E_minus, g.E_plus) for g in want]


def test_module_as_main_exits_with_the_code_main_returns(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qpsl", "cf", "--alpha", "1.5"])
    with warnings.catch_warnings():
        # qpsl.cli is imported already; runpy warns before running it afresh
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("qpsl.cli", run_name="__main__")
    assert exc.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NotInUnitInterval"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qpsl.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0

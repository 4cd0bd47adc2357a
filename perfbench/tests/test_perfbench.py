"""Tests of the benchmark's own logic on synthetic inputs.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import math
import types
from pathlib import Path

import pytest

import layers
import run
import workloads
from checks import Gate, attempt, fail_ratio
from tracer import Tracer, install, summarize

BENCH = Path(__file__).resolve().parents[1]


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = Clock()
    tr = Tracer(clock)

    def leaf():
        clock.t += 2.0

    def middle():
        clock.t += 1.0
        leaf()
        leaf()

    def top():
        clock.t += 0.5
        middle()

    leaf, middle, top = (tr.wrap(n, f) for n, f in
                         (("leaf", leaf), ("middle", middle), ("top", top)))
    top()
    s = tr.summary()
    assert (s["top"]["calls"], s["top"]["s"], s["top"]["self_s"]) == (1, 5.5, 0.5)
    assert (s["middle"]["s"], s["middle"]["self_s"]) == (5.0, 1.0)
    assert (s["leaf"]["calls"], s["leaf"]["s"], s["leaf"]["self_s"]) == (2, 4.0, 4.0)
    parents = {name: parent for _, name, _, _, parent in tr.spans}
    ids = {name: sid for sid, name, _, _, _ in tr.spans}
    assert parents["top"] == 0 and parents["middle"] == ids["top"]


def test_hot_calls_aggregate_per_parent():
    clock = Clock()
    tr = Tracer(clock)

    def inner():
        clock.t += 0.25

    def hot():
        clock.t += 1.0
        inner()

    def a():
        for _ in range(1000):
            hot()

    def b():
        clock.t += 3.0
        hot()

    inner = tr.wrap("inner", inner)
    hot = tr.wrap("hot", hot, hot=True)
    a, b = tr.wrap("a", a), tr.wrap("b", b)
    a()
    b()
    # one aggregate node per (parent, name) instead of 1001 spans
    assert sorted(name for _, name in tr.aggs) == ["hot", "hot"]
    assert len([sp for sp in tr.spans if sp[1] == "inner"]) == 1001
    s = tr.summary()
    assert s["hot"]["calls"] == 1001
    assert s["hot"]["s"] == pytest.approx(1001 * 1.25)
    assert s["hot"]["self_s"] == pytest.approx(1001 * 1.0)
    assert s["a"]["self_s"] == pytest.approx(0.0)
    assert s["b"]["self_s"] == pytest.approx(3.0)
    assert s["inner"]["s"] == pytest.approx(1001 * 0.25)


def test_reentrant_calls_count_inclusive_time_once():
    nodes = [(1, "f", 0, 1, 10.0), (2, "f", 1, 1, 4.0), (3, "g", 2, 1, 1.0)]
    s = summarize(nodes)
    assert s["f"]["calls"] == 2
    assert s["f"]["s"] == 10.0
    assert s["f"]["self_s"] == pytest.approx(6.0 + 3.0)


def test_exceptions_counted_by_type_and_reraised():
    tr = Tracer()

    def boom(kind):
        raise kind("x")

    boom = tr.wrap("boom", boom)
    for kind in (ValueError, ValueError, KeyError):
        with pytest.raises(kind):
            boom(kind)
    s = tr.summary()
    assert s["boom"]["calls"] == 3
    assert s["boom"]["raised"] == {"ValueError": 2, "KeyError": 1}


def test_counters_and_dump(tmp_path):
    tr = Tracer()
    f = tr.wrap("f", lambda n: n, count=lambda a, k: {"items": a[0]})
    h = tr.wrap("h", lambda: None, hot=True)
    f(3)
    f(4)
    h()
    assert tr.summary()["f"]["counters"] == {"items": 7}
    path = tmp_path / "t.jsonl"
    tr.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert {"id", "name", "start", "end", "parent"} <= set(rows[0])
    assert {"id", "name", "parent", "calls", "total"} <= set(rows[-1])


def test_install_wraps_every_binding_and_methods():
    def target():
        return 42

    class Thing:
        def method(self):
            return 7

    home = types.ModuleType("pkg.home")
    home.target = target
    user = types.ModuleType("pkg.user")
    user.target = target
    user.alias = target
    tr = Tracer()
    install(tr, [(home, "target", "home.target", {}),
                 (Thing, "method", "home.Thing.method", {"hot": True})], [home, user])
    assert home.target() == user.target() == user.alias() == 42
    assert Thing().method() == 7
    s = tr.summary()
    assert s["home.target"]["calls"] == 3
    assert s["home.Thing.method"]["calls"] == 1


def test_fail_ratio_counts_raises_and_failed_checks():
    def raises():
        raise RuntimeError("no reduction")

    outcomes = [attempt(lambda: 1, lambda r: []),
                attempt(raises, lambda r: []),
                attempt(lambda: 2, lambda r: ["zeta: off"]),
                attempt(lambda: 3, lambda r: [])]
    assert outcomes[1]["failures"] == ["raised RuntimeError: no reduction"]
    assert outcomes[2]["failures"] == ["zeta: off"]
    assert fail_ratio(outcomes) == 0.5
    assert all(o["wall_s"] >= 0 for o in outcomes)
    with pytest.raises(ValueError):
        fail_ratio([])


def test_gate_tolerances():
    g = Gate()
    assert g.abs_close("e", 1.0 + 1e-13, 1.0, 1e-12)
    assert not g.abs_close("e", 1.0 + 2e-12, 1.0, 1e-12)
    assert g.rel_close("z", 2.0 * (1 + 5e-10), 2.0, 1e-9)
    assert not g.rel_close("z", 2.0 * (1 + 2e-9), 2.0, 1e-9)
    assert not g.rel_close("z", math.nan, 2.0, 1e-9)
    assert not g.abs_close("z", math.inf, 2.0, 1.0)
    assert g.at_most("r", 1e-10, 1e-9)
    assert not g.at_most("r", 2e-9, 1e-9)
    assert not g.at_most("r", None, 1e-9)
    assert g.equal("v", "hyperbolic", "hyperbolic")
    assert not g.true("p", 1)
    assert len(g.failures) == 7


def _edge_obs():
    W = workloads.EdgeReduction
    return {"labels": [["16"]], "energy": W.ENERGY, "zeta": W.ZETA,
            "conj_residual": 3e-14, "bracket": list(W.BRACKET),
            "delta2": {"verdict": "hyperbolic", "residual": 1e-12},
            "delta1": {"verdict": "not"}}


def test_edge_reduction_check():
    W = workloads.EdgeReduction
    check = W.check.__get__(object.__new__(W))
    obs = _edge_obs()
    assert check(obs) == []
    obs["energy"] += 5e-12
    obs["zeta"] *= 1 + 1e-8
    obs["delta1"]["verdict"] = "hyperbolic"
    failed = check(obs)
    assert [f.split(":")[0] for f in failed] == ["energy", "zeta", "delta1 verdict"]


def test_gap_scan_check():
    W = workloads.GapScan
    check = W.check.__get__(object.__new__(W))
    gaps = [[list(k), lo + 5e-4, hi - 5e-4] for k, (lo, hi) in W.EDGES.items()]
    e1 = W.EDGES[(1,)]
    obs = {"gaps": gaps, "ids_edges": [e1[0] + 9e-3, e1[1]],
           "label1_edges": list(e1)}
    assert check(obs) == []
    obs["gaps"] = gaps[1:]
    obs["ids_edges"][0] += 2e-3
    failed = check(obs)
    assert failed[0].startswith("labels found")
    assert failed[-1].startswith("IDS plateau edge")


def test_changed_artifact_bytes_fail_the_operation(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    ops = [{"obs": {"hashes": {"kam.json": "a"}}, "failures": []},
           {"obs": {"hashes": {"kam.json": "a"}}, "failures": []},
           {"obs": None, "failures": ["raised"]}]
    r = run.Runner(tmp_path, "edge_reduction", 3, 1)
    r.check_artifacts(ops)
    assert [op["failures"] for op in ops] == [[], [], ["raised"]]
    later = [{"obs": {"hashes": {"kam.json": "b"}}, "failures": []}]
    r.check_artifacts(later)
    assert later[0]["failures"] == ["kam.json bytes differ from an earlier run "
                                    "with the same seed"]
    r.close()
    # another program version starts its own record
    (tmp_path / "src" / "mod.py").write_text("x = 2\n")
    other = [{"obs": {"hashes": {"kam.json": "b"}}, "failures": []}]
    run.Runner(tmp_path, "edge_reduction", 3, 1).check_artifacts(other)
    assert other[0]["failures"] == []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_names()

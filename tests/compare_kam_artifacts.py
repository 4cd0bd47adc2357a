"""Print the sha256 of every artifact of the criterion-11 edge reduction, and
the exact values of both edges, for a diff between two checkouts.

    PYTHONPATH=src python tests/compare_kam_artifacts.py > kam_hashes.txt

Run it on both checkouts and ``cmp`` the two files.  For seeds 1 and 2 it runs
``build-set``, then ``kam`` and ``edge-probe`` for the upper and the lower
edge, with the configuration of the ``edge_reduction`` benchmark workload
(golden-mean alpha to 80 digits, M = 10, s = 0.9, depth 6, one label;
``max_degree`` 384 on a 2,048-point grid) in a temporary directory.  It
prints the hashes of ``set.json`` and of each edge's ``kam.json`` and
``probe.json``, the hash of each ``kam.json`` without its ``config`` and
``config_hash`` (so a change to the run configuration alone leaves it
unchanged), then ``float.hex`` of the edge energy, zeta,
``conj_residual``, the bracket, the number of edge-search evaluations and
the width of the edge search's final bracket, the delta2/delta1
verdicts, and for each KAM step its ``sweep_grid`` and the ``float.hex`` of
its Newton sweep norms, so a change that moves bits on purpose can quote
which values moved.  The CLI's own messages are not printed.  Not collected by pytest:
it runs four full edge reductions.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import mpmath

from qpsl.cli import main as qpsl_main

SEEDS = (1, 2)
EDGES = ("upper", "lower")


def _golden_digits(digits):
    with mpmath.workdps(digits + 10):
        return mpmath.nstr((mpmath.sqrt(5) - 1) / 2, digits, strip_zeros=False)


def _qpsl(argv, seed):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = qpsl_main(argv)
    if rc != 0:
        raise SystemExit(f"qpsl {argv[0]} exited with {rc} (seed {seed})")


def _sha(name):
    with open(name, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(seed):
    config = {"seed": seed,
              "kam": {"max_degree": 384, "grid_size": 2048, "conj_residual_tol": 1e-9}}
    with open("config.json", "w") as fh:
        json.dump(config, fh)
    _qpsl(["build-set", "--alpha", _golden_digits(80), "--M", "10", "--s", "0.9",
           "--depth", "6", "--count", "1", "--out", "set.json"], seed)
    print(f"seed {seed} set.json {_sha('set.json')}")
    for edge in EDGES:
        kam_out, probe_out = f"kam_{edge}.json", f"probe_{edge}.json"
        _qpsl(["kam", "--config", "config.json", "--set", "set.json",
               "--label-index", "0", "--k", "2.0", "--edge", edge, "--out", kam_out], seed)
        _qpsl(["edge-probe", "--result", kam_out, "--set", "set.json",
               "--k", "2.0", "--out", probe_out], seed)
        for name in (kam_out, probe_out):
            print(f"seed {seed} {name} {_sha(name)}")
        with open(kam_out) as fh:
            kam = json.load(fh)
        results = {key: v for key, v in kam.items() if key not in ("config", "config_hash")}
        results_sha = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        print(f"seed {seed} {kam_out} results-only {results_sha}")
        with open(probe_out) as fh:
            probe = json.load(fh)
        values = [("energy", kam["energy"]), ("zeta", kam["zeta"]),
                  ("conj_residual", kam["conj_residual"]),
                  ("bracket", probe["bracket"][0]), ("bracket", probe["bracket"][1])]
        for key, value in values:
            print(f"seed {seed} {edge} {key} {float(value).hex()}")
        print(f"seed {seed} {edge} evaluations {kam['edge_search']['evaluations']}")
        E_in, E_out = kam["edge_search"]["bracket"]
        print(f"seed {seed} {edge} edge bracket width {abs(E_out - E_in).hex()}")
        print(f"seed {seed} {edge} verdicts {probe['delta2']['verdict']} "
              f"{probe['delta1']['verdict']} {probe['bracket_consistent']}")
        for step in kam["steps"]:
            sweeps = " ".join(float(v).hex() for v in step["newton_sweeps"])
            print(f"seed {seed} {edge} step {step['j']} {step['case']} sweep_grid "
                  f"{step['diagnostics'].get('sweep_grid')} sweeps {sweeps}")


def main():
    home = os.getcwd()
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                _run(seed)
            finally:
                os.chdir(home)


if __name__ == "__main__":
    main()

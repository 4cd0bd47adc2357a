"""Print the sha256 of every artifact of the criterion-11 edge reduction, for
a diff between two checkouts.

    PYTHONPATH=src python tests/compare_kam_artifacts.py > kam_hashes.txt

Run it on both checkouts and ``cmp`` the two files.  For seeds 1 and 2 it runs
``build-set``, ``kam`` and ``edge-probe`` with the configuration of the
``edge_reduction`` benchmark workload (golden-mean alpha to 80 digits,
M = 10, s = 0.9, depth 6, one label; ``max_degree`` 384 on a 2,048-point
grid) in a temporary directory, and prints the hashes of ``set.json``,
``kam.json`` and ``probe.json``; the CLI's own messages are not printed.
Not collected by pytest: it runs the full edge reduction for each seed.
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
ARTIFACTS = ("set.json", "kam.json", "probe.json")


def _golden_digits(digits):
    with mpmath.workdps(digits + 10):
        return mpmath.nstr((mpmath.sqrt(5) - 1) / 2, digits, strip_zeros=False)


def _run(seed):
    config = {"seed": seed,
              "kam": {"max_degree": 384, "grid_size": 2048, "conj_residual_tol": 1e-9}}
    with open("config.json", "w") as fh:
        json.dump(config, fh)
    for argv in (
        ["build-set", "--alpha", _golden_digits(80), "--M", "10", "--s", "0.9",
         "--depth", "6", "--count", "1", "--out", "set.json"],
        ["kam", "--config", "config.json", "--set", "set.json",
         "--label-index", "0", "--k", "2.0", "--out", "kam.json"],
        ["edge-probe", "--result", "kam.json", "--set", "set.json",
         "--k", "2.0", "--out", "probe.json"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = qpsl_main(argv)
        if rc != 0:
            raise SystemExit(f"qpsl {argv[0]} exited with {rc} (seed {seed})")


def main():
    home = os.getcwd()
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                _run(seed)
                for name in ARTIFACTS:
                    with open(name, "rb") as fh:
                        print(f"seed {seed} {name} {hashlib.sha256(fh.read()).hexdigest()}")
            finally:
                os.chdir(home)


if __name__ == "__main__":
    main()

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
``conj_residual``, the bracket, the number of edge-search evaluations,
the ``float.hex`` of each energy the edge search reduced at, in order, the
width of the edge search's final bracket and the closed-form trace slope
dt/dE of the reduction at the edge (``kam._trace_slope``), the delta2/delta1
verdicts, the averaging step's masses ``y_mass``, ``q1_mass`` and ``q2_mass``
(the values the sparse ``multiply`` and ``coeff_mass`` feed the certificate),
per probe scale the averaging certificate's margin and kappa sup R
(``float.hex``) with ``uh_test``'s verdict at that scale as a cross-check,
and for each KAM step its ``sweep_grid`` and the ``float.hex`` of its Newton
sweep norms, so a change that moves bits on purpose can quote which values
moved.  Then it runs ``kam --energy`` at the upper edge's
energy, which labels the reduction by its own n~ instead of searching for
the edge, and prints the hash of that ``kam.json`` without ``config`` and
``config_hash``.  The CLI's own messages are not printed.

Every criterion-11 reduction is a single resonant step, so the script then
runs fixed non-resonant steps: the criterion-8 NR perturbation under
A = P D P^{-1}, D = diag(e^{2 pi i sigma}, e^{-2 pi i sigma}) for sigma in
{0.1545, 0.3455, 0.6545, 0.8455} and P the SU(1,1) boost of rapidity t in
{0, 0.2, 0.7}.  For each it prints every StepReport field (floats as
``float.hex``), the new constant, the norm of the new remainder and the
coefficient mass of the new D^{-1}.

Last it runs ``qpsl report`` on the same configuration (seed 1, upper edge,
bracket probes on) and prints the sha256 of ``report.json`` and of each stage
artifact it leaves (``set.json``, ``verify.json``, ``kam.json``,
``probe.json``) without ``config`` and ``config_hash``, or ``missing`` for an
artifact a checkout's ``report`` does not write, and the ``float.hex`` of
each energy its edge search reduced at.

Then, as a baseline for multi-label edges, it runs the upper-edge search of
each label of K = {4, 9, 43} (golden-mean alpha to 80 digits, gamma 0.5,
tau 1.5, M = 3, s = 0.3, depth 10, three labels, k = 2, the criterion-11
``KamParams`` with seed 1) and prints its outcome: the error type, or
``returned``, then the edge search's evaluation count and number of
failures, or ``None`` when the outcome carries no search record, and the
``float.hex`` of each energy it reduced at.  The energies are recorded by
wrapping ``kam._reduce_at_energy``.  Not
collected by pytest: it runs five full edge reductions and three searches.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import mpmath
import numpy as np

from qpsl import kam as kam_module
from qpsl.cli import main as qpsl_main
from qpsl.cocycle import to_su11
from qpsl.diophantine import frequency_vector
from qpsl.errors import QpslError
from qpsl.fourier import FourierSeries, build_potential
from qpsl.kam import (
    KamParams,
    KamState,
    ReducibilityResult,
    Su11Series,
    kam_step,
    run_reducibility,
)
from qpsl.label_set import LabelSet, build_schedule, construct_label_set
from qpsl.moser_poschel import averaging_step, certify_probe, edge_data_from_reduction, uh_probe

SEEDS = (1, 2)
EDGES = ("upper", "lower")
NR_SIGMAS = (0.1545, 0.3455, 0.6545, 0.8455)
NR_BOOSTS = (0.0, 0.2, 0.7)


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


def _results_sha(name):
    """sha256 of an artifact's JSON without its run configuration."""
    if not os.path.exists(name):
        return "missing"
    with open(name) as fh:
        data = json.load(fh)
    results = {key: v for key, v in data.items() if key not in ("config", "config_hash")}
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def _config(seed):
    return {"seed": seed,
            "kam": {"max_degree": 384, "grid_size": 2048, "conj_residual_tol": 1e-9}}


def _edge_slope(seed, energy):
    """dt/dE of the reduction at ``energy`` with the potential and parameters
    ``kam`` ran with on ``set.json``."""
    with open("set.json") as fh:
        ks = LabelSet.from_json(fh.read())
    params = KamParams(tau=ks.frequency.dc_tau, k_exponent=2.0, schedule=ks.schedule,
                       max_degree=384, grid_size=2048, conj_residual_tol=1e-9, seed=seed)
    state, _ = kam_module._reduce_at_energy(build_potential(ks, k=2.0),
                                            ks.frequency.floats(), energy, params, 24)
    return kam_module._trace_slope(state)


@contextlib.contextmanager
def _reductions():
    """The energies of the reductions kam makes inside the block, in order."""
    energies, real = [], kam_module._reduce_at_energy

    def reduce(V, alpha, E, *rest):
        energies.append(E)
        return real(V, alpha, E, *rest)

    with mock.patch.object(kam_module, "_reduce_at_energy", reduce):
        yield energies


def _hexes(energies):
    return " ".join(float(E).hex() for E in energies)


def _certificate(seed, edge, kam_out, probe):
    """The edge's averaging-step masses y, q1 and q2, then per probe scale
    the certificate's margin and kappa sup R (all ``float.hex``) and
    uh_test's verdict as a cross-check."""
    with open("set.json") as fh:
        ks = LabelSet.from_json(fh.read())
    with open(kam_out) as fh:
        result = ReducibilityResult.from_dict(json.load(fh))
    V = build_potential(ks, k=2.0)
    data = edge_data_from_reduction(result, ks.frequency.floats())
    step = averaging_step(data)
    print(f"seed {seed} {edge} averaging masses y {step.y_mass.hex()} "
          f"q1 {step.q1_mass.hex()} q2 {step.q2_mass.hex()}")
    for scale, delta in zip(("delta2", "delta1"), probe["bracket"]):
        s = math.copysign(delta, data.zeta)
        _, _, bound = certify_probe(step, data.zeta, s, probe[scale]["residual"])
        print(f"seed {seed} {edge} {scale} margin {probe[scale]['margin'].hex()} "
              f"kappa_sup_r {bound.hex()} uh_test {uh_probe(data, V, delta)}")


def _run(seed):
    config = _config(seed)
    with open("config.json", "w") as fh:
        json.dump(config, fh)
    _qpsl(["build-set", "--alpha", _golden_digits(80), "--M", "10", "--s", "0.9",
           "--depth", "6", "--count", "1", "--out", "set.json"], seed)
    print(f"seed {seed} set.json {_sha('set.json')}")
    for edge in EDGES:
        kam_out, probe_out = f"kam_{edge}.json", f"probe_{edge}.json"
        with _reductions() as energies:
            _qpsl(["kam", "--config", "config.json", "--set", "set.json",
                   "--label-index", "0", "--k", "2.0", "--edge", edge, "--out", kam_out], seed)
        _qpsl(["edge-probe", "--result", kam_out, "--set", "set.json",
               "--k", "2.0", "--out", probe_out], seed)
        for name in (kam_out, probe_out):
            print(f"seed {seed} {name} {_sha(name)}")
        print(f"seed {seed} {kam_out} results-only {_results_sha(kam_out)}")
        with open(kam_out) as fh:
            kam = json.load(fh)
        with open(probe_out) as fh:
            probe = json.load(fh)
        values = [("energy", kam["energy"]), ("zeta", kam["zeta"]),
                  ("conj_residual", kam["conj_residual"]),
                  ("bracket", probe["bracket"][0]), ("bracket", probe["bracket"][1])]
        for key, value in values:
            print(f"seed {seed} {edge} {key} {float(value).hex()}")
        print(f"seed {seed} {edge} evaluations {kam['edge_search']['evaluations']}")
        print(f"seed {seed} {edge} search energies {_hexes(energies)}")
        E_in, E_out = kam["edge_search"]["bracket"]
        print(f"seed {seed} {edge} edge bracket width {abs(E_out - E_in).hex()}")
        print(f"seed {seed} {edge} slope {_edge_slope(seed, kam['energy']).hex()}")
        print(f"seed {seed} {edge} verdicts {probe['delta2']['verdict']} "
              f"{probe['delta1']['verdict']} {probe['bracket_consistent']}")
        _certificate(seed, edge, kam_out, probe)
        for step in kam["steps"]:
            sweeps = " ".join(float(v).hex() for v in step["newton_sweeps"])
            print(f"seed {seed} {edge} step {step['j']} {step['case']} sweep_grid "
                  f"{step['diagnostics'].get('sweep_grid')} sweeps {sweeps}")
    with open("kam_upper.json") as fh:
        energy = json.load(fh)["energy"]
    _qpsl(["kam", "--config", "config.json", "--set", "set.json", "--energy", repr(energy),
           "--k", "2.0", "--out", "kam_energy.json"], seed)
    print(f"seed {seed} energy target {float(energy).hex()} kam.json results-only "
          f"{_results_sha('kam_energy.json')}")


def _report(seed):
    """``qpsl report`` on the criterion-11 configuration, probes on."""
    config = {**_config(seed), "frequency": {"components": [_golden_digits(80)]},
              "schedule": {"M": 10.0, "s": 0.9, "depth": 6, "count": 1},
              "out_dir": "report"}
    with open("config.json", "w") as fh:
        json.dump(config, fh)
    with _reductions() as energies:
        _qpsl(["report", "--config", "config.json"], seed)
    print(f"report seed {seed} report.json {_sha(os.path.join('report', 'report.json'))}")
    for name in ("set.json", "verify.json", "kam.json", "probe.json"):
        print(f"report seed {seed} {name} results-only "
              f"{_results_sha(os.path.join('report', name))}")
    print(f"report seed {seed} search energies {_hexes(energies)}")


def _hex(value):
    """float.hex of a float, of each part of a complex and of each entry of a
    list, array or dict; repr of anything else."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (complex, np.complexfloating)):
        return f"({_hex(value.real)} {_hex(value.imag)})"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + " ".join(_hex(v) for v in np.asarray(value, object).ravel()) + "]"
    if isinstance(value, dict):
        return "{" + " ".join(f"{k}={_hex(v)}" for k, v in value.items()) + "}"
    return repr(value)


def _nr_steps():
    params = KamParams(schedule=None, max_degree=96, grid_size=1024, window_cap=24,
                       conj_residual_tol=1e-9)
    W_mat = to_su11(np.array([[0.0, 0.0], [1.0, 0.0]]))
    W0 = Su11Series.constant(1, W_mat[0, 0].imag, W_mat[0, 1])
    Dinv = FourierSeries(1, halved=True, kind="matrix")
    Dinv[(0,)] = np.eye(2, dtype=complex)
    names = {f.name for f in dataclasses.fields(KamState)}
    for sigma in NR_SIGMAS:
        for t in NR_BOOSTS:
            P = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]],
                         complex)
            A = P @ np.diag([np.exp(2j * np.pi * sigma), np.exp(-2j * np.pi * sigma)]) \
                @ np.linalg.inv(P)
            f = Su11Series.zero(1)
            f.w[(3,)], f.u[(2,)], f.u[(-2,)] = 2e-6, 1e-6, 1e-6
            fields = dict(j=0, A=A, f=f, pending=[], W=W0.copy(), Dinv=Dinv.copy(),
                          alpha=np.array([0.6180339887498949]), n_tilde=(0,))
            if "sigma0" in names:  # a KamState that still carries ||A_0||
                fields["sigma0"] = float(np.linalg.norm(A, 2))
            new, rep = kam_step(KamState(**fields), params)
            tag = f"NR sigma {sigma} boost {t}"
            for field in dataclasses.fields(rep):
                print(f"{tag} {field.name} {_hex(getattr(rep, field.name))}")
            print(f"{tag} A {_hex(new.A)}")
            print(f"{tag} f norm {_hex(new.f.norm(params.width(new.j)))}")
            print(f"{tag} Dinv mass {_hex(new.Dinv.coeff_mass())}")


def _multi_label():
    """The upper-edge outcome of each label of K = {4, 9, 43}."""
    freq = frequency_vector(_golden_digits(80), gamma=0.5, tau=1.5)
    sched = build_schedule(3, 0.3, depth=10)
    ks = construct_label_set(freq, sched, j1=0, spacing=2, count=3)
    V = build_potential(ks, k=2.0)
    params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched, max_degree=384,
                       grid_size=2048, conj_residual_tol=1e-9, seed=1)
    for label in ks.labels():
        with _reductions() as energies:
            try:
                search = run_reducibility(V, freq.floats(), {"label": label, "edge": "upper"},
                                          params=params).edge_search
                outcome = "returned"
            except QpslError as exc:
                outcome, search = type(exc).__name__, getattr(exc, "edge_search", None)
        counts = (f"evaluations {search['evaluations']} failures {len(search['failures'])}"
                  if search else "None")
        print(f"K 4,9,43 label {label[0]} upper {outcome} {counts} "
              f"energies {_hexes(energies)}")


def main():
    home = os.getcwd()
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                _run(seed)
            finally:
                os.chdir(home)
    with mock.patch.object(kam_module, "PROBE_COUNT", 256):  # certify each step on 256 probes
        _nr_steps()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _report(1)
        finally:
            os.chdir(home)
    _multi_label()


if __name__ == "__main__":
    main()

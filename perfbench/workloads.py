"""The benchmark's workloads: inputs made from a seed, one operation, and the
check of its outputs against reference values.

Each workload class takes the seed, makes its inputs in ``__init__`` (this is
part of set-up), and offers ``run() -> observations`` and
``check(observations) -> failure messages``.  qpsl functions are looked up
on their module at call time, so the traced run sees every call.

References come from the seed commit of the repository; tolerances do not
depend on the seed.  See README.md for why each workload was chosen.
"""

import hashlib
import json
import os

import mpmath
import numpy as np

import qpsl.cli as cli
import qpsl.diophantine as diophantine
import qpsl.fourier as fourier
import qpsl.label_set as label_set
import qpsl.spectrum as spectrum

from checks import Gate


def golden_digits(digits):
    """(sqrt(5) - 1) / 2 as a decimal string with ``digits`` digits."""
    with mpmath.workdps(digits + 10):
        return mpmath.nstr((mpmath.sqrt(5) - 1) / 2, digits, strip_zeros=False)


class EdgeReduction:
    """Criterion-11 configuration through the CLI: build-set, kam, edge-probe.

    ``qpsl report`` would run the same three stages, but ``report --config``
    raises AttributeError ('Namespace' object has no attribute 'k') for every
    config, because its subparser defines no ``--k``.
    """

    ENERGY, ENERGY_TOL = 1.8806000220263146, 1e-12
    ZETA = 0.005738461448592442
    BRACKET = (0.003425113875894644, 0.009614261303466971)
    RTOL = 1e-9
    RESIDUAL_MAX = 1e-9
    ARTIFACTS = ("kam.json", "probe.json")

    def __init__(self, seed):
        config = {"seed": seed,
                  "kam": {"max_degree": 384, "grid_size": 2048,
                          "conj_residual_tol": 1e-9}}
        with open("config.json", "w") as fh:
            json.dump(config, fh)
        self.argv = [
            ["build-set", "--alpha", golden_digits(80), "--M", "10", "--s", "0.9",
             "--depth", "6", "--count", "1", "--out", "set.json"],
            ["kam", "--config", "config.json", "--set", "set.json",
             "--label-index", "0", "--k", "2.0", "--out", "kam.json"],
            ["edge-probe", "--result", "kam.json", "--set", "set.json",
             "--k", "2.0", "--out", "probe.json"],
        ]

    def run(self):
        for argv in self.argv:
            rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"qpsl {argv[0]} exited with {rc}")
        with open("set.json") as fh:
            labels = [e["label"] for e in json.load(fh)["entries"]]
        with open("kam.json") as fh:
            kam = json.load(fh)
        with open("probe.json") as fh:
            probe = json.load(fh)
        hashes, size = {}, os.path.getsize("set.json")
        for name in self.ARTIFACTS:
            with open(name, "rb") as fh:
                data = fh.read()
            hashes[name] = hashlib.sha256(data).hexdigest()
            size += len(data)
        return {
            "labels": labels, "energy": kam["energy"], "zeta": kam["zeta"],
            "conj_residual": kam["conj_residual"], "bracket": probe["bracket"],
            "delta2": probe["delta2"], "delta1": probe["delta1"],
            "hashes": hashes, "artifact_bytes": size,
            "zeta_rel_dev": abs(kam["zeta"] - self.ZETA) / abs(self.ZETA),
        }

    def check(self, obs):
        g = Gate()
        g.equal("labels", obs["labels"], [["16"]])
        g.abs_close("energy", obs["energy"], self.ENERGY, self.ENERGY_TOL)
        g.rel_close("zeta", obs["zeta"], self.ZETA, self.RTOL)
        for i, want in enumerate(self.BRACKET):
            g.rel_close(f"bracket[{i}]", obs["bracket"][i], want, self.RTOL)
        g.at_most("kam conj_residual", obs["conj_residual"], self.RESIDUAL_MAX)
        g.at_most("delta2 residual", obs["delta2"]["residual"], self.RESIDUAL_MAX)
        g.equal("delta2 verdict", obs["delta2"]["verdict"], "hyperbolic")
        g.equal("delta1 verdict", obs["delta1"]["verdict"], "not")
        return g.failures


class GapScan:
    """Criterion 9 at about a fifth of its cost, through the library API."""

    ALPHA = 0.6180339887498949
    LAMBDA = 0.5
    ITERS, SAMPLES = 60_000, 2
    # label -> (E_minus, E_plus) of the AMO gap at lambda = 0.5
    EDGES = {(1,): (-1.2976, -0.3351), (-1,): (0.3351, 1.2976),
             (2,): (1.6199, 1.7433), (-2,): (-1.7433, -1.6199)}
    EDGE_TOL = 1e-3
    IDS_TOL = 1e-2

    def __init__(self, seed):
        self.seed = seed
        self.energies = np.linspace(-2.6, 2.6, 261)
        self.refine_evals = 0
        self.refine_energies = 0

    def rho_fn(self, evals):
        self.refine_evals += 1
        self.refine_energies += len(evals)
        return spectrum.rotation_curve(self.potential, [self.ALPHA], evals,
                                       iters=self.ITERS, samples=self.SAMPLES,
                                       seed=self.seed).rho

    def run(self):
        self.refine_evals = self.refine_energies = 0
        self.potential = fourier.amo_potential(self.LAMBDA)
        curve = spectrum.rotation_curve(self.potential, [self.ALPHA], self.energies,
                                        iters=self.ITERS, samples=self.SAMPLES,
                                        seed=self.seed)
        gaps = spectrum.detect_gaps(curve, [self.ALPHA], labels=[1, 2, 3], tol=2e-3,
                                    rho_fn=self.rho_fn, refine_bisections=14,
                                    refine_tol=3e-4)
        found = {g.label: (g.E_minus, g.E_plus) for g in gaps}
        obs = {"gaps": [[list(k), lo, hi] for k, (lo, hi) in found.items()],
               "refine_evals": self.refine_evals,
               "refine_energies": self.refine_energies,
               "gap_edge_dev": max((abs(e - r) for k, edges in found.items()
                                    if k in self.EDGES
                                    for e, r in zip(edges, self.EDGES[k])),
                                   default=float("inf"))}
        g1 = next((g for g in gaps if abs(g.label[0]) == 1), None)
        if g1 is None:
            return obs
        # criterion 9's cross-check: the IDS is flat at 1 - 2 rho_lock across
        # the label-1 gap, and its plateau ends at the same edges
        plateau = 1.0 - 2.0 * g1.rho_locked
        grid = np.linspace(g1.E_minus - 0.15, g1.E_plus + 0.15, 301)
        ids = spectrum.ids_curve(self.potential, [self.ALPHA], grid, N=2000,
                                 phases=6, seed=self.seed)
        idx = np.where(np.abs(ids.values - plateau) < 2.5e-3)[0]
        if idx.size:
            obs["ids_edges"] = [float(grid[idx[0]]), float(grid[idx[-1]])]
            obs["label1_edges"] = [g1.E_minus, g1.E_plus]
        return obs

    def check(self, obs):
        g = Gate()
        found = {tuple(k): (lo, hi) for k, lo, hi in obs["gaps"]}
        g.equal("labels found", sorted(found), sorted(self.EDGES))
        for label, want in self.EDGES.items():
            if label in found:
                for side, got, ref in zip(("E_minus", "E_plus"), found[label], want):
                    g.abs_close(f"label {label[0]} {side}", got, ref, self.EDGE_TOL)
        if g.true("IDS plateau found", "ids_edges" in obs):
            for got, ref in zip(obs["ids_edges"], obs["label1_edges"]):
                g.abs_close("IDS plateau edge", got, ref, self.IDS_TOL)
        return g.failures


class LabelSetDeep:
    """The density test's deep schedule at count 2, through the library API."""

    LABELS = [["178"], ["29860703"]]
    N_TARGETS = 20

    def __init__(self, seed):
        self.alpha = golden_digits(2700)
        rng = np.random.default_rng(seed)
        self.targets = [float(t) for t in rng.random(self.N_TARGETS)]

    def run(self):
        freq = diophantine.frequency_vector(self.alpha, gamma=0.2, tau=2.0)
        sched = label_set.build_schedule(100, 0.9, depth=16)
        ks = label_set.construct_label_set(freq, sched, j1=0, spacing=2, count=2)
        rep = label_set.verify_label_set(ks, sched, density_targets=self.targets,
                                         density_tol=1.0)
        return {"labels": [[str(c) for c in lab] for lab in ks.labels()],
                "passed": rep.passed,
                "density_within_tol": [ok for _, _, ok in rep.density]}

    def check(self, obs):
        g = Gate()
        g.equal("labels", obs["labels"], self.LABELS)
        g.true("verify_label_set passed", obs["passed"])
        g.equal("density targets within tol", obs["density_within_tol"],
                [True] * self.N_TARGETS)
        return g.failures


WORKLOADS = {"edge_reduction": EdgeReduction, "gap_scan": GapScan,
             "label_set_deep": LabelSetDeep}

"""The layers the traced run measures, and the per-layer metrics it reports.

Every listed function is wrapped in each qpsl module namespace that binds it
(methods on their class), from the benchmark's own files; qpsl itself is not
changed.  ``metric_names`` is the fixed list a traced run reports, the same on
every workload, with 0 for a layer the workload does not use.
"""

import inspect

import qpsl.cli as cli
import qpsl.cocycle as cocycle
import qpsl.diophantine as diophantine
import qpsl.fourier as fourier
import qpsl.kam as kam
import qpsl.label_set as label_set
import qpsl.moser_poschel as moser_poschel
import qpsl.spectrum as spectrum

from tracer import install

MODULES = (cli, cocycle, diophantine, fourier, kam, label_set, moser_poschel,
           spectrum)

# (owner, attribute, hot, has traced children); a hot function is called
# often enough that its calls are aggregated per parent instead of one span each
FUNCTIONS = [
    (diophantine, "cf_expand", False, False),
    (diophantine, "resonant_denominator", False, False),
    (label_set.GrowthSchedule, "level", True, False),
    (label_set, "construct_label_set", False, True),
    (label_set, "verify_label_set", False, True),
    (fourier, "series_from_grid", True, False),
    (fourier, "multiply", True, False),
    (fourier.FourierSeries, "sample", True, False),
    (fourier.Potential, "sample", True, False),
    (cocycle, "rotation_number", False, True),
    (cocycle, "uh_test", False, True),
    (kam, "run_reducibility", False, True),
    (kam, "kam_step", False, True),
    (kam, "remove_nonresonant", False, True),
    (kam, "exp_series", True, True),
    (kam, "su11_series_from_samples", True, True),
    (kam, "solve_homological", True, False),
    (moser_poschel, "edge_data_from_reduction", False, True),
    (moser_poschel, "d_tau_constant", False, False),
    (moser_poschel, "probe_gap_edge", False, True),
    (moser_poschel, "bracket_gap", False, True),
    (spectrum, "rotation_curve", False, True),
    (spectrum, "ids_curve", False, True),
    (spectrum, "detect_gaps", False, True),
]

SUBCOMMANDS = ("build-set", "kam", "edge-probe")
# the failures kam._locate_edge swallows and counts as "outside the gap"
SWALLOWED = ("NewtonDiverged", "StateInvalid", "SmallDivisor", "NotElliptic")


def _name(owner, attr):
    if isinstance(owner, type):
        return f"{owner.__module__.split('.')[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.split('.')[-1]}.{attr}"


def _site_energies(fn, sites):
    sig = inspect.signature(fn)

    def count(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        return {"site_energies": sites(a) * len(a["energies"])}
    return count


COUNTERS = {
    "spectrum.rotation_curve": _site_energies(
        spectrum.rotation_curve, lambda a: a["iters"] * a["samples"]),
    "spectrum.ids_curve": _site_energies(
        spectrum.ids_curve, lambda a: (2 * a["N"] + 1) * a["phases"]),
}


def install_all(tracer):
    """Wrap every listed function, and ``cli.main`` once per subcommand."""
    targets = []
    for owner, attr, hot, _ in FUNCTIONS:
        name = _name(owner, attr)
        opts = {"hot": hot}
        if name in COUNTERS:
            opts["count"] = COUNTERS[name]
        targets.append((owner, attr, name, opts))
    install(tracer, targets, MODULES)

    main = cli.main
    by_sub = {sub: tracer.wrap(f"cli.main.{sub}", main) for sub in SUBCOMMANDS}

    def traced_main(argv=None):
        return by_sub.get(argv[0] if argv else None, main)(argv)
    cli.main = traced_main


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for owner, attr, _, has_children in FUNCTIONS:
        name = _name(owner, attr)
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]
        if has_children:
            out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"kam.kam_step.raised.{exc}", "count", "lower") for exc in SWALLOWED]
    out += [("kam.kam_step.ok_ratio", "ratio", "higher"),
            ("spectrum.rotation_curve.site_energies", "count", "lower"),
            ("spectrum.rotation_curve.us_per_site_energy", "us", "lower"),
            ("spectrum.ids_curve.site_energies", "count", "lower"),
            ("spectrum.refine.evals", "count", "lower"),
            ("spectrum.refine.energies", "count", "lower")]
    for sub in SUBCOMMANDS:
        out += [(f"cli.main.{sub}.calls", "count", "lower"),
                (f"cli.main.{sub}.s", "s", "lower")]
    out += [("cli.self_s", "s", "lower"),
            ("cli.artifact_bytes", "B", "lower"),
            ("kam.zeta_rel_dev", "ratio", "lower"),
            ("kam.conj_residual", "abs", "lower"),
            ("spectrum.gap_edge_dev", "abs", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


def per_layer(summary, obs):
    """Per-layer metrics as name -> [value, unit], from a trace summary and
    the operation's observations; ``trace.*`` is filled in by the caller."""
    values = {}
    for name, rec in summary.items():
        values[f"{name}.calls"] = rec["calls"]
        values[f"{name}.s"] = rec["s"]
        values[f"{name}.self_s"] = rec["self_s"]
    step = summary.get("kam.kam_step")
    if step:
        for exc, n in step["raised"].items():
            values[f"kam.kam_step.raised.{exc}"] = n
        values["kam.kam_step.ok_ratio"] = 1 - sum(step["raised"].values()) / step["calls"]
    else:
        values["kam.kam_step.ok_ratio"] = 1.0
    for name in ("spectrum.rotation_curve", "spectrum.ids_curve"):
        values[f"{name}.site_energies"] = summary.get(name, {}).get(
            "counters", {}).get("site_energies", 0)
    sites = values["spectrum.rotation_curve.site_energies"]
    if sites:
        values["spectrum.rotation_curve.us_per_site_energy"] = (
            1e6 * values["spectrum.rotation_curve.s"] / sites)
    values["cli.self_s"] = sum(rec["self_s"] for name, rec in summary.items()
                               if name.startswith("cli.main."))
    obs = obs or {}
    values["spectrum.refine.evals"] = obs.get("refine_evals", 0)
    values["spectrum.refine.energies"] = obs.get("refine_energies", 0)
    values["cli.artifact_bytes"] = obs.get("artifact_bytes", 0)
    values["kam.zeta_rel_dev"] = obs.get("zeta_rel_dev", 0.0)
    values["kam.conj_residual"] = obs.get("conj_residual", 0.0)
    values["spectrum.gap_edge_dev"] = obs.get("gap_edge_dev", 0.0)
    return {name: [values.get(name, 0), unit] for name, unit, _ in metric_names()
            if not name.startswith("trace.")}

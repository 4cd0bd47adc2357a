"""Batch front door: subcommands wiring the modules together, with
deterministic CSV/JSON artifacts.

Every output embeds the canonical configuration and its SHA-256 hash, so a
run is reproducible byte for byte from its own artifacts.  Exit codes:
0 success, 1 invalid configuration, 2 computation error (machine-readable
JSON on stderr).  ``report`` runs the stages build-set, verify-set, kam and
edge-probe as subcommands on one config and leaves their artifacts beside
report.json.  Every subcommand but ``cf``, ``verify-set`` and ``edge-probe``
(whose inputs are all flags or artifacts) reads a --config file.  ``rotation``
and ``gaps`` take --workers (or QPSL_THREADS) for sweep parallelism; workers
share nothing and results are assembled in input order.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .diophantine import cf_expand, frequency_vector
from .errors import ConfigInvalid, QpslError
from .fourier import amo_potential, build_potential, potential_modes, series_dict
from .label_set import LabelSet, build_schedule, construct_label_set, ell_star, verify_label_set
from .spectrum import RotationCurve, detect_gaps, gap_bounds_check, ids_curve, rotation_curve

SCHEMA_VERSION = "v1"


def _config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _write(path, text):
    """Write text to path, or to stdout when no path or '-' is given."""
    if not path or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(path, payload, cfg):
    payload = {"config": cfg, "config_hash": _config_hash(cfg),
               "qpsl_version": __version__, **payload}
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(path, name, header, rows, cfg):
    lines = [f"# schema=qpsl.{name}.{SCHEMA_VERSION} config_hash={_config_hash(cfg)}",
             ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ";".join(str(x) for x in v)
    return str(v)


def _read(path, parse=json.loads):
    """``parse`` of the text of the file at path (JSON by default); a file
    that cannot be read or parsed is ConfigInvalid."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ConfigInvalid(f"cannot read {path}: {type(e).__name__}: {e}")


def _opt(value, table, key, default):
    """A flag's value, else the config table's entry, else the default."""
    return value if value is not None else table.get(key, default)


def _load_config(args):
    if not getattr(args, "config", None):
        return {}
    cfg = _read(args.config)
    if not isinstance(cfg, dict):
        raise ConfigInvalid(f"config {args.config} is not a JSON object")
    return cfg


def _number(value, name, kind=float):
    """``value`` as a ``kind`` (float or int), else ConfigInvalid naming the
    setting; a boolean is not a number, and one with a fraction not an int."""
    try:
        x = kind(value)
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and x != value):
            raise ValueError(value)
        return x
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigInvalid(f"{name} must be {what}, not {value!r}") from None


def _count(value, name, least=1):
    """``value`` as an integer >= ``least``, else ConfigInvalid naming the setting."""
    n = _number(value, name, int)
    if n < least:
        raise ConfigInvalid(f"{name} must be an integer >= {least}, not {value!r}")
    return n


def _positive(value, name):
    """``value`` as a number > 0, else ConfigInvalid naming the setting."""
    x = _number(value, name)
    if not x > 0:
        raise ConfigInvalid(f"{name} must be a number > 0, not {value!r}")
    return x


def _freq_from(cfg, args):
    fc = cfg.get("frequency", {})
    comps = None
    if args.alpha:
        comps = [args.alpha] + ([args.alpha2] if args.alpha2 else [])
    elif "components" in fc:
        comps = fc["components"]
    if comps is None:
        raise ConfigInvalid("no frequency given (--alpha or config.frequency)")
    return frequency_vector(tuple(comps),
                            gamma=_number(_opt(args.gamma, fc, "gamma", 0.5), "gamma"),
                            tau=_number(_opt(args.tau, fc, "tau", 1.5), "tau"))


def _potential_from(cfg, args):
    pc = cfg.get("potential", {})
    preset = args.preset or pc.get("preset")
    if preset == "amo":
        lam = _opt(args.lam, pc, "lambda", None)
        if lam is None:
            raise ConfigInvalid("preset amo requires --lambda")
        return amo_potential(_number(lam, "lambda"))
    if preset in (None, "none", "zero"):
        set_path = args.set or pc.get("set")
        if set_path is None:
            return None
        return build_potential(_read(set_path, LabelSet.from_json),
                               k=_number(_opt(args.k, pc, "k", 2.0), "k"))
    raise ConfigInvalid(f"unknown preset {preset!r}")


def _scan(args, e_min, e_max, grid):
    """Setup shared by rotation, ids and gaps: the config and its scan table,
    the frequency, the potential, the energy grid and the run-config keys
    every scan records."""
    cfg = _load_config(args)
    freq = _freq_from(cfg, args)
    V = _potential_from(cfg, args)
    scan = cfg.get("scan", {})
    energies = np.linspace(_number(_opt(args.emin, scan, "e_min", e_min), "e_min"),
                           _number(_opt(args.emax, scan, "e_max", e_max), "e_max"),
                           _count(_opt(args.grid, scan, "grid", grid), "grid"))
    run_cfg = {"frequency": [str(r) for r in freq.raw],
               "seed": _count(cfg.get("seed", 0), "seed", least=0),
               "potential": cfg.get("potential", {"preset": args.preset, "lambda": args.lam})}
    return cfg, scan, freq, V, energies, run_cfg


def _parse_labels(expr):
    """Candidate gap labels: a string like '1..5' or '1,3,8', or a JSON list
    of integers (default 1, 2, 3); no label at all is ConfigInvalid."""
    if expr is None:
        return [1, 2, 3]
    if isinstance(expr, list) and all(type(n) is int for n in expr):
        expr = ",".join(map(str, expr))
    out = []
    try:
        for part in str(expr).split(","):
            part = part.strip()
            if ".." in part:
                a, b = part.split("..")
                out.extend(range(int(a), int(b) + 1))
            elif part:
                out.append(int(part))
    except ValueError:
        out = []
    if not out:
        raise ConfigInvalid(f"labels {expr!r} are not a list like '1..5', '1,3,8' or [1, 3]")
    return out


def _workers(args):
    if args.workers is not None:
        return _count(args.workers, "--workers")
    return _count(os.environ.get("QPSL_THREADS", "1"), "QPSL_THREADS")


@contextlib.contextmanager
def _rotation_runner(V, alpha, iters, samples, seed, workers):
    """Yield a function energies -> RotationCurve.  With workers > 1 it splits
    the energies into ``workers`` chunks over one fork pool of at most
    os.cpu_count() processes, shared by every call in the block; the chunks,
    and so the curves, do not depend on the pool's size."""
    def serial(energies):
        return rotation_curve(V, alpha, energies, iters=iters, samples=samples, seed=seed)

    if workers <= 1:
        yield serial
        return
    from multiprocessing import get_context   # not at start-up: no other command needs it
    with get_context("fork").Pool(min(workers, os.cpu_count() or 1)) as pool:
        def chunked(energies):
            chunks = np.array_split(np.arange(energies.size), workers)
            jobs = [(V, alpha, energies[idx], iters, samples, seed) for idx in chunks if idx.size]
            parts = pool.starmap(_rotation_job, jobs)
            rho = np.concatenate([p[0] for p in parts])
            disp = np.concatenate([p[1] for p in parts])
            return RotationCurve(energies=energies, rho=rho, dispersion=disp)

        yield chunked


def _rotation_job(V, alpha, energies, iters, samples, seed):
    c = rotation_curve(V, alpha, energies, iters=iters, samples=samples, seed=seed)
    return c.rho, c.dispersion


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(args):
    alpha, depth = args.alpha, _count(args.depth, "depth")
    cf = cf_expand(alpha, depth)
    print("a =", ",".join(str(a) for a in cf.partial_quotients))
    print("q =", ",".join(str(q) for q in cf.q))
    print("p =", ",".join(str(p) for p in cf.p))
    if args.out:
        _emit_json(args.out, {"partial_quotients": list(cf.partial_quotients),
                              "p": [str(x) for x in cf.p],
                              "q": [str(x) for x in cf.q]},
                   {"alpha": str(alpha), "depth": depth})
    return 0


def cmd_build_set(args):
    cfg = _load_config(args)
    freq = _freq_from(cfg, args)
    sc = cfg.get("schedule", {})
    M = _number(_opt(args.M, sc, "M", 10.0), "M")
    s = _number(_opt(args.s, sc, "s", 0.9), "s")
    depth = _number(_opt(args.depth, sc, "depth", 8), "depth", int)
    j1 = _number(_opt(args.j1, sc, "j1", 0), "j1", int)
    spacing = _number(_opt(args.spacing, sc, "spacing", 2), "spacing", int)
    count = _number(_opt(args.count, sc, "count", 1), "count", int)
    strict = bool(sc.get("strict", False)) or bool(args.strict)
    ell = None
    if args.k_exponent is not None:
        ell = ell_star(float(args.k_exponent), freq.dc_gamma, freq.dc_tau, s,
                       a_norm=float(args.a_norm))
    sched = build_schedule(M, s, depth, ell_star_value=ell, strict=strict)
    ks = construct_label_set(freq, sched, j1=j1, spacing=spacing, count=count)
    _write(args.out, ks.to_json() + "\n")
    if args.out and args.out != "-":
        print(f"wrote {args.out}: labels {ks.labels() if ks.d == 1 else len(ks.entries)}")
    return 0


def cmd_verify_set(args):
    ks = _read(args.set, LabelSet.from_json)
    targets = None
    if args.targets:
        try:
            targets = [float(t) for t in args.targets.split(",")]
        except ValueError:
            raise ConfigInvalid(f"--targets {args.targets!r} is not a list of numbers")
    elif args.num_targets:
        targets = [i / float(args.num_targets) for i in range(int(args.num_targets))]
    rep = verify_label_set(ks, ks.schedule, density_targets=targets,
                           density_tol=float(args.tol))
    payload = {"report": rep.as_dict(), "passed": rep.passed}
    _emit_json(args.out, payload, {"set": args.set, "tol": args.tol})
    return 0


def cmd_potential(args):
    cfg = _load_config(args)
    V = _potential_from(cfg, args)
    if V is None:
        raise ConfigInvalid("potential requires --set or --preset")
    n_samples = _count(args.samples, "samples")
    thetas = [2 * math.pi * i / n_samples for i in range(n_samples)]
    values = V.sample(np.repeat(np.array(thetas)[:, None], V.d, axis=1))
    rows = list(zip(thetas, values.tolist()))
    base_cfg = {"k": V.k_exponent, "labels": [list(l) for l in V.labels],
                "coefficients": V.coefficients}
    _emit_csv(args.out, "potential", ["theta", "V"], rows, base_cfg)
    if args.series_out:
        with open(args.series_out, "w") as fh:
            fh.write(json.dumps(series_dict(V.d, *potential_modes(V))) + "\n")
    return 0


def cmd_rotation(args):
    _, scan, freq, V, energies, run_cfg = _scan(args, -2.5, 2.5, 101)
    iters = _count(_opt(args.iters, scan, "iters", 100_000), "iters")
    samples = _count(_opt(args.samples, scan, "samples", 3), "samples")
    with _rotation_runner(V, freq.floats(), iters, samples, run_cfg["seed"],
                          _workers(args)) as rotate:
        curve = rotate(energies)
    run_cfg.update(iters=iters, samples=samples,
                   grid=[float(energies[0]), float(energies[-1]), int(energies.size)])
    rows = list(zip(energies.tolist(), curve.rho.tolist(), curve.dispersion.tolist()))
    _emit_csv(args.out, "rotation", ["E", "rho", "dispersion"], rows, run_cfg)
    return 0


def cmd_ids(args):
    _, scan, freq, V, energies, run_cfg = _scan(args, -2.5, 2.5, 101)
    N = _count(_opt(args.N, scan, "N", 1000), "N", least=10)  # ids_curve's floor
    phases = _count(_opt(args.phases, scan, "phases", 4), "phases")
    curve = ids_curve(V, freq.floats(), energies, N=N, phases=phases, seed=run_cfg["seed"])
    run_cfg.update(N=N, phases=phases,
                   grid=[float(energies[0]), float(energies[-1]), int(energies.size)])
    rows = list(zip(energies.tolist(), curve.values.tolist()))
    _emit_csv(args.out, "ids", ["E", "N"], rows, run_cfg)
    return 0


def cmd_gaps(args):
    cfg, scan, freq, V, energies, run_cfg = _scan(args, -2.8, 2.8, 201)
    iters = _count(_opt(args.iters, scan, "iters", 60_000), "iters")
    samples = _count(_opt(args.samples, scan, "samples", 2), "samples")
    seed = run_cfg["seed"]
    labels = _parse_labels(args.labels or cfg.get("labels"))
    tol = _number(_opt(args.tol, cfg, "tol", 1e-3), "tol")
    alpha = freq.floats()
    with _rotation_runner(V, alpha, iters, samples, seed, _workers(args)) as rotate:
        curve = rotate(energies)
        gaps = detect_gaps(curve, alpha, labels, tol=tol,
                           rho_fn=(lambda evals: rotate(evals).rho) if args.refine else None,
                           refine_bisections=14)
    if args.curve_out:
        N = _count(scan.get("N", 1000), "N", least=10)  # ids_curve's floor
        ic = ids_curve(V, alpha, energies, N=N,
                       phases=_count(scan.get("phases", 4), "phases"), seed=seed)
        rows = list(zip(energies.tolist(), curve.rho.tolist(), ic.values.tolist()))
        _emit_csv(args.curve_out, "curves", ["E", "rho", "N"], rows,
                  {"frequency": run_cfg["frequency"], "iters": iters,
                   "N_trunc": N, "seed": seed})
    k = _number(_opt(args.k, cfg.get("potential", {}), "k", 2.0), "k")
    rows = []
    for g in gaps:
        chk = gap_bounds_check(g, k, freq.dc_tau)
        rows.append((g.label, g.E_minus, g.E_plus, g.length,
                     chk["r"] if chk["r"] is not None else "",
                     chk["window"] if chk["window"] else ""))
    run_cfg.update(labels=labels, tol=tol, iters=iters)
    _emit_csv(args.out, "gaps", ["label", "E_minus", "E_plus", "length", "r", "window"],
              rows, run_cfg)
    return 0


def cmd_kam(args):
    from .kam import KamParams, run_reducibility  # not at start-up: only kam and edge-probe run it
    cfg = _load_config(args)
    ks = _read(args.set, LabelSet.from_json)
    freq = ks.frequency
    k = _number(_opt(args.k, cfg.get("potential", {}), "k", 2.0), "k")
    V = build_potential(ks, k=k)
    kc = cfg.get("kam", {})
    params = KamParams(
        tau=freq.dc_tau, k_exponent=k, schedule=ks.schedule,
        max_degree=_count(kc.get("max_degree", 384), "kam.max_degree"),
        grid_size=_count(kc.get("grid_size", 2048), "kam.grid_size"),
        conj_residual_tol=_positive(kc.get("conj_residual_tol", 1e-9), "kam.conj_residual_tol"),
        seed=_count(cfg.get("seed", 0), "seed", least=0),
    )
    unmet = params.strict_unmet() if args.strict else []
    if unmet:
        raise ConfigInvalid("kam --strict: the run misses the paper's regime: "
                            + "; ".join(unmet))
    if args.energy is not None:
        target = {"energy": float(args.energy)}
    else:
        if not 0 <= args.label_index < len(V.labels):
            raise ConfigInvalid(f"--label-index {args.label_index} is not in "
                                f"0..{len(V.labels) - 1}, the set's labels")
        target = {"label_index": args.label_index, "edge": args.edge}
    res = run_reducibility(V, freq.floats(), target, params=params,
                           max_steps=int(args.max_steps))
    run_cfg = {"set": args.set, "k": k, "target": target, "seed": params.seed}
    _emit_json(args.out, res.as_dict(), run_cfg)
    return 0


def cmd_edge_probe(args):
    from .kam import ReducibilityResult
    from .moser_poschel import bracket_gap, edge_data_from_reduction
    data = _read(args.result)
    try:
        res = ReducibilityResult.from_dict(data)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ConfigInvalid(f"{args.result} is not a kam result: {type(e).__name__}: {e}")
    ks = _read(args.set, LabelSet.from_json)
    # the probe needs the potential the edge was reduced with; without it
    # the free operator would be probed and the verdicts would mean nothing
    k = data.get("config", {}).get("k")
    if k is None and args.k is None:
        raise ConfigInvalid("edge-probe needs --k: the kam result records no k")
    k = args.k if k is None else _number(k, "k of the kam result")
    if args.k is not None and args.k != k:
        raise ConfigInvalid(f"--k {args.k} differs from k = {k} of the kam result")
    V = build_potential(ks, k=k)
    edge = edge_data_from_reduction(res, ks.frequency.floats())
    payload = bracket_gap(edge, V, probe=not args.no_probe)
    _emit_json(args.out, payload, {"result": args.result, "set": args.set, "k": k})
    if args.gap_csv:
        row = (res.label, *payload["bracket"], edge.zeta,
               payload.get("delta2", {}).get("verdict", ""),
               payload.get("delta1", {}).get("verdict", ""))
        new = not os.path.exists(args.gap_csv)
        with open(args.gap_csv, "a") as fh:
            if new:
                fh.write(f"# schema=qpsl.bracket.{SCHEMA_VERSION}\n")
                fh.write("label,delta2,delta1,zeta,delta2_verdict,delta1_verdict\n")
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


def cmd_report(args):
    """Run build-set, verify-set, kam and edge-probe on the config, each as its
    own subcommand, and summarize their artifacts in report.json."""
    cfg = _load_config(args)
    if not cfg:
        raise ConfigInvalid("report requires --config")
    # the values passed on as flags are checked before any stage writes
    kc = cfg.get("kam", {})
    tol = _positive(cfg.get("tol", 0.25), "tol")
    label_index = _count(kc.get("label_index", 0), "kam.label_index", least=0)
    max_steps = _count(kc.get("max_steps", 24), "kam.max_steps")
    edge = kc.get("edge", "upper")
    if edge not in ("upper", "lower"):
        raise ConfigInvalid(f"kam.edge must be 'upper' or 'lower', not {edge!r}")
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = {name: os.path.join(out_dir, name + ".json")
            for name in ("set", "verify", "kam", "probe", "report")}
    stages = (
        ["build-set", "--config", args.config, "--out", path["set"]],
        ["verify-set", "--set", path["set"], "--num-targets", "10",
         "--tol", repr(tol), "--out", path["verify"]],
        ["kam", "--set", path["set"], "--label-index", str(label_index),
         "--edge", edge, "--max-steps", str(max_steps),
         "--config", args.config, "--out", path["kam"]],
        ["edge-probe", "--result", path["kam"], "--set", path["set"], "--out", path["probe"]]
        + ([] if cfg.get("probe", True) else ["--no-probe"]),
    )
    for argv in stages:
        rc = main(argv)
        if rc:
            return rc
    verify, kam, probe = (_read(path[name]) for name in ("verify", "kam", "probe"))
    summary = {"stages": {
        "label_set": {"passed": verify["passed"], "path": path["set"]},
        "kam": {key: kam[key] for key in ("energy", "zeta", "conj_residual", "zeta_window")},
        "bracket": {"lower": probe["bracket"][0], "upper": probe["bracket"][1],
                    **{key: probe[key]["verdict"] if key in probe else None
                       for key in ("delta2", "delta1")}},
    }}
    _emit_json(path["report"], summary, cfg)
    print(f"report written to {path['report']}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(prog="qpsl", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("cf", help="continued-fraction expansion")
    common(sp, config=False)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--depth", type=int, default=8)
    sp.set_defaults(func=cmd_cf)

    sp = sub.add_parser("build-set", help="construct the sparse label set")
    common(sp)
    sp.add_argument("--alpha")
    sp.add_argument("--alpha2")
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--tau", type=float)
    sp.add_argument("--M", type=float)
    sp.add_argument("--s", type=float)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--j1", type=int)
    sp.add_argument("--spacing", type=int)
    sp.add_argument("--count", type=int)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--k-exponent", type=float, help="compute and record ell_star for this k")
    sp.add_argument("--a-norm", type=float, default=2.0)
    sp.set_defaults(func=cmd_build_set)

    sp = sub.add_parser("verify-set", help="verify a label set")
    common(sp, config=False)
    sp.add_argument("--set", required=True)
    sp.add_argument("--targets")
    sp.add_argument("--num-targets", type=int)
    sp.add_argument("--tol", type=float, default=1e-2)
    sp.set_defaults(func=cmd_verify_set)

    sp = sub.add_parser("potential", help="sample the potential and emit its series")
    common(sp)
    sp.add_argument("--set")
    sp.add_argument("--preset")
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--k", type=float)
    sp.add_argument("--samples", type=int, default=256)
    sp.add_argument("--series-out")
    sp.set_defaults(func=cmd_potential)

    def scan_opts(sp):
        sp.add_argument("--alpha")
        sp.add_argument("--alpha2")
        sp.add_argument("--gamma", type=float)
        sp.add_argument("--tau", type=float)
        sp.add_argument("--set")
        sp.add_argument("--preset")
        sp.add_argument("--lambda", dest="lam", type=float)
        sp.add_argument("--k", type=float)
        sp.add_argument("--emin", type=float)
        sp.add_argument("--emax", type=float)
        sp.add_argument("--grid", type=int)

    def sweep_opts(sp):
        sp.add_argument("--iters", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--workers", type=int, help="parallel workers (QPSL_THREADS)")

    sp = sub.add_parser("rotation", help="rotation-number curve")
    common(sp)
    scan_opts(sp)
    sweep_opts(sp)
    sp.set_defaults(func=cmd_rotation)

    sp = sub.add_parser("ids", help="integrated density of states curve")
    common(sp)
    scan_opts(sp)
    sp.add_argument("--N", type=int)
    sp.add_argument("--phases", type=int)
    sp.set_defaults(func=cmd_ids)

    sp = sub.add_parser("gaps", help="detect and label spectral gaps")
    common(sp)
    scan_opts(sp)
    sweep_opts(sp)
    sp.add_argument("--labels", help="candidates, e.g. '1..5' or '1,3,8'")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--refine", action="store_true", help="refine edges on the lock condition")
    sp.add_argument("--curve-out", help="also write the combined (E, rho, N) curve CSV")
    sp.set_defaults(func=cmd_gaps)

    sp = sub.add_parser("kam", help="reducibility run at a gap edge")
    common(sp)
    sp.add_argument("--set", required=True)
    sp.add_argument("--label-index", type=int, default=0)
    sp.add_argument("--edge", choices=["upper", "lower"], default="upper")
    sp.add_argument("--energy", type=float, help="reduce at a fixed energy instead")
    sp.add_argument("--k", type=float)
    sp.add_argument("--max-steps", type=int, default=24)
    sp.add_argument("--strict", action="store_true",
                    help="refuse the run (exit 1), listing the unmet conditions, unless "
                         "k, tau and the schedule meet the paper's regime")
    sp.set_defaults(func=cmd_kam)

    sp = sub.add_parser("edge-probe", help="Moser-Poschel probes at a reduced edge")
    common(sp, config=False)
    sp.add_argument("--result", required=True, help="kam output JSON")
    sp.add_argument("--set", required=True)
    sp.add_argument("--k", type=float)
    sp.add_argument("--no-probe", action="store_true")
    sp.add_argument("--gap-csv", help="append a bracket summary row here")
    sp.set_defaults(func=cmd_edge_probe)

    sp = sub.add_parser("report", help="full pipeline from a config file, stage by stage")
    sp.add_argument("--config", help="JSON config file")
    sp.set_defaults(func=cmd_report)

    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as e:
        sys.stderr.write(json.dumps({"error": "ConfigInvalid", "message": str(e)}) + "\n")
        return 1
    except QpslError as e:
        sys.stderr.write(json.dumps({"error": type(e).__name__, "message": str(e)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

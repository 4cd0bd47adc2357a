"""Batch front door: subcommands wiring the modules together, with
deterministic CSV/JSON artifacts.

Every output embeds the canonical configuration and its SHA-256 hash, so a
run is reproducible byte for byte from its own artifacts.  Exit codes:
0 success, 1 invalid configuration, 2 computation error (machine-readable
JSON on stderr).  QPSL_THREADS (or --workers) controls sweep parallelism;
workers share nothing and results are assembled in input order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .diophantine import cf_expand, frequency_vector
from .errors import ConfigInvalid, QpslError
from .fourier import (FourierSeries, amo_potential, build_potential, potential_modes,
                      series_json)
from .kam import KamParams, ReducibilityResult, run_reducibility
from .label_set import LabelSet, build_schedule, construct_label_set, ell_star, verify_label_set
from .moser_poschel import bracket_gap, edge_data_from_reduction, poly_bounds_check
from .spectrum import detect_gaps, gap_bounds_check, ids_curve, rotation_curve

SCHEMA_VERSION = "v1"


def _config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _emit_json(path, payload, cfg):
    payload = {"config": cfg, "config_hash": _config_hash(cfg),
               "qpsl_version": __version__, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return payload


def _emit_csv(path, name, header, rows, cfg):
    lines = [f"# schema=qpsl.{name}.{SCHEMA_VERSION} config_hash={_config_hash(cfg)}",
             ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ";".join(str(x) for x in v)
    return str(v)


def _load_config(args):
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigInvalid(f"cannot read config {args.config}: {e}")
    return cfg


def _freq_from(cfg, args):
    comps = None
    if getattr(args, "alpha", None):
        comps = [args.alpha]
        if getattr(args, "alpha2", None):
            comps.append(args.alpha2)
    elif "frequency" in cfg:
        comps = cfg["frequency"]["components"]
    if comps is None:
        raise ConfigInvalid("no frequency given (--alpha or config.frequency)")
    gamma = getattr(args, "gamma", None) or cfg.get("frequency", {}).get("gamma", 0.5)
    tau = getattr(args, "tau", None) or cfg.get("frequency", {}).get("tau", 1.5)
    return frequency_vector(tuple(comps), gamma=float(gamma), tau=float(tau))


def _potential_from(cfg, args):
    preset = getattr(args, "preset", None) or cfg.get("potential", {}).get("preset")
    if preset == "amo":
        lam = getattr(args, "lam", None)
        if lam is None:
            lam = cfg.get("potential", {}).get("lambda")
        if lam is None:
            raise ConfigInvalid("preset amo requires --lambda")
        return amo_potential(float(lam))
    if preset in (None, "none", "zero"):
        set_path = getattr(args, "set", None) or cfg.get("potential", {}).get("set")
        if set_path is None:
            return None
        with open(set_path) as fh:
            ks = LabelSet.from_json(fh.read())
        k = getattr(args, "k", None) or cfg.get("potential", {}).get("k", 2.0)
        return build_potential(ks, k=float(k))
    raise ConfigInvalid(f"unknown preset {preset!r}")


def _parse_labels(expr):
    if expr is None:
        return [1, 2, 3]
    out = []
    for part in str(expr).split(","):
        part = part.strip()
        if ".." in part:
            a, b = part.split("..")
            out.extend(range(int(a), int(b) + 1))
        elif part:
            out.append(int(part))
    return out


def _workers(args):
    w = getattr(args, "workers", None)
    if w is None:
        w = os.environ.get("QPSL_THREADS", "1")
    return max(1, int(w))


def _chunked_rotation(V, alpha, energies, iters, samples, seed, workers):
    if workers <= 1 or energies.size < 8:
        return rotation_curve(V, alpha, energies, iters=iters, samples=samples, seed=seed)
    from multiprocessing import get_context
    chunks = np.array_split(np.arange(energies.size), workers)
    jobs = [(V, alpha, energies[idx], iters, samples, seed) for idx in chunks if idx.size]
    ctx = get_context("fork")
    with ctx.Pool(len(jobs)) as pool:
        parts = pool.starmap(_rotation_job, jobs)
    rho = np.concatenate([p[0] for p in parts])
    disp = np.concatenate([p[1] for p in parts])
    from .spectrum import RotationCurve
    return RotationCurve(energies=energies, rho=rho, dispersion=disp,
                         iters=iters, samples=samples)


def _rotation_job(V, alpha, energies, iters, samples, seed):
    c = rotation_curve(V, alpha, energies, iters=iters, samples=samples, seed=seed)
    return c.rho, c.dispersion


# ---------------------------------------------------------------------------
# subcommands


def cmd_cf(args):
    cfg = _load_config(args)
    alpha = args.alpha or cfg.get("frequency", {}).get("components", [None])[0]
    if alpha is None:
        raise ConfigInvalid("cf requires --alpha")
    depth = int(args.depth)
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
    M = float(args.M if args.M is not None else sc.get("M", 10.0))
    s = float(args.s if args.s is not None else sc.get("s", 0.9))
    depth = int(args.depth if args.depth is not None else sc.get("depth", 8))
    j1 = int(args.j1 if args.j1 is not None else sc.get("j1", 0))
    spacing = int(args.spacing if args.spacing is not None else sc.get("spacing", 2))
    count = int(args.count if args.count is not None else sc.get("count", 1))
    strict = bool(sc.get("strict", False)) or bool(args.strict)
    ell = None
    if args.k_exponent is not None:
        ell = ell_star(float(args.k_exponent), freq.dc_gamma, freq.dc_tau, s,
                       a_norm=float(args.a_norm))
    sched = build_schedule(M, s, depth, ell_star_value=ell, strict=strict)
    ks = construct_label_set(freq, sched, j1=j1, spacing=spacing, count=count)
    text = ks.to_json()
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}: labels {ks.labels() if ks.d == 1 else len(ks.entries)}")
    else:
        print(text)
    return 0


def cmd_verify_set(args):
    cfg = _load_config(args)
    with open(args.set) as fh:
        ks = LabelSet.from_json(fh.read())
    targets = None
    if args.targets:
        targets = [float(t) for t in args.targets.split(",")]
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
    rows = []
    n_samples = int(args.samples)
    for i in range(n_samples):
        th = 2 * math.pi * i / n_samples
        rows.append((th, V.sample(np.full(V.d, th)) if V.d > 1 else V.sample(th)))
    base_cfg = {"k": V.k_exponent, "labels": [list(l) for l in V.labels],
                "coefficients": V.coefficients}
    _emit_csv(args.out, "potential", ["theta", "V"], rows, base_cfg)
    if args.series_out:
        with open(args.series_out, "w") as fh:
            fh.write(series_json(V.d, *potential_modes(V)) + "\n")
    return 0


def cmd_rotation(args):
    cfg = _load_config(args)
    freq = _freq_from(cfg, args)
    V = _potential_from(cfg, args)
    scan = cfg.get("scan", {})
    energies = np.linspace(float(args.emin if args.emin is not None else scan.get("e_min", -2.5)),
                           float(args.emax if args.emax is not None else scan.get("e_max", 2.5)),
                           int(args.grid if args.grid is not None else scan.get("grid", 101)))
    iters = int(args.iters if args.iters is not None else scan.get("iters", 100_000))
    samples = int(args.samples if args.samples is not None else scan.get("samples", 3))
    seed = int(cfg.get("seed", 0))
    curve = _chunked_rotation(V, freq.floats(), energies, iters, samples, seed, _workers(args))
    run_cfg = {"frequency": [str(r) for r in freq.raw], "iters": iters,
               "samples": samples, "seed": seed,
               "potential": cfg.get("potential", {"preset": args.preset, "lambda": args.lam}),
               "grid": [float(energies[0]), float(energies[-1]), int(energies.size)]}
    rows = list(zip(energies.tolist(), curve.rho.tolist(), curve.dispersion.tolist()))
    _emit_csv(args.out, "rotation", ["E", "rho", "dispersion"], rows, run_cfg)
    return 0


def cmd_ids(args):
    cfg = _load_config(args)
    freq = _freq_from(cfg, args)
    V = _potential_from(cfg, args)
    scan = cfg.get("scan", {})
    energies = np.linspace(float(args.emin if args.emin is not None else scan.get("e_min", -2.5)),
                           float(args.emax if args.emax is not None else scan.get("e_max", 2.5)),
                           int(args.grid if args.grid is not None else scan.get("grid", 101)))
    N = int(args.N if args.N is not None else scan.get("N", 1000))
    phases = int(args.phases if args.phases is not None else scan.get("phases", 4))
    seed = int(cfg.get("seed", 0))
    curve = ids_curve(V, freq.floats(), energies, N=N, phases=phases, seed=seed)
    run_cfg = {"frequency": [str(r) for r in freq.raw], "N": N, "phases": phases,
               "seed": seed,
               "potential": cfg.get("potential", {"preset": args.preset, "lambda": args.lam}),
               "grid": [float(energies[0]), float(energies[-1]), int(energies.size)]}
    rows = list(zip(energies.tolist(), curve.values.tolist()))
    _emit_csv(args.out, "ids", ["E", "N"], rows, run_cfg)
    return 0


def cmd_gaps(args):
    cfg = _load_config(args)
    freq = _freq_from(cfg, args)
    V = _potential_from(cfg, args)
    scan = cfg.get("scan", {})
    energies = np.linspace(float(args.emin if args.emin is not None else scan.get("e_min", -2.8)),
                           float(args.emax if args.emax is not None else scan.get("e_max", 2.8)),
                           int(args.grid if args.grid is not None else scan.get("grid", 201)))
    iters = int(args.iters if args.iters is not None else scan.get("iters", 60_000))
    samples = int(args.samples if args.samples is not None else scan.get("samples", 2))
    seed = int(cfg.get("seed", 0))
    labels = _parse_labels(args.labels or cfg.get("labels"))
    tol = float(args.tol if args.tol is not None else cfg.get("tol", 1e-3))
    alpha = freq.floats()
    curve = _chunked_rotation(V, alpha, energies, iters, samples, seed, _workers(args))

    def rho_fn(evals):
        return rotation_curve(V, alpha, evals, iters=iters,
                              samples=samples, seed=seed).rho

    gaps = detect_gaps(curve, alpha, labels, tol=tol,
                       rho_fn=rho_fn if args.refine else None)
    if args.curve_out:
        N = int(scan.get("N", 1000))
        ic = ids_curve(V, alpha, energies, N=N,
                       phases=int(scan.get("phases", 4)), seed=seed)
        rows = list(zip(energies.tolist(), curve.rho.tolist(), ic.values.tolist()))
        _emit_csv(args.curve_out, "curves", ["E", "rho", "N"], rows,
                  {"frequency": [str(r) for r in freq.raw], "iters": iters,
                   "N_trunc": N, "seed": seed})
    k = float(args.k if args.k is not None else cfg.get("potential", {}).get("k", 2.0))
    rows = []
    for g in gaps:
        chk = gap_bounds_check(g, k, freq.dc_tau)
        rows.append((g.label, g.E_minus, g.E_plus, g.length,
                     chk["r"] if chk["r"] is not None else "",
                     chk["window"] if chk["window"] else ""))
    run_cfg = {"frequency": [str(r) for r in freq.raw], "labels": labels,
               "tol": tol, "iters": iters, "seed": seed,
               "potential": cfg.get("potential", {"preset": args.preset, "lambda": args.lam})}
    _emit_csv(args.out, "gaps", ["label", "E_minus", "E_plus", "length", "r", "window"],
              rows, run_cfg)
    return 0


def _kam_params(cfg, args, freq, sched, k):
    kc = cfg.get("kam", {})
    return KamParams(
        tau=freq.dc_tau, k_exponent=float(k), schedule=sched,
        max_degree=int(kc.get("max_degree", 384)),
        grid_size=int(kc.get("grid_size", 2048)),
        conj_residual_tol=float(kc.get("conj_residual_tol", 1e-9)),
        relaxed=not getattr(args, "strict", False),
        stop_tol=float(kc.get("stop_tol", 1e-12)),
        seed=int(cfg.get("seed", 0)),
    )


def cmd_kam(args):
    cfg = _load_config(args)
    with open(args.set) as fh:
        ks = LabelSet.from_json(fh.read())
    freq = ks.frequency
    k = float(args.k if args.k is not None else cfg.get("potential", {}).get("k", 2.0))
    V = build_potential(ks, k=k)
    params = _kam_params(cfg, args, freq, ks.schedule, k)
    if args.energy is not None:
        target = {"energy": float(args.energy)}
    else:
        target = {"label_index": int(args.label_index), "edge": args.edge}
    res = run_reducibility(V, freq.floats(), target, params=params,
                           max_steps=int(args.max_steps))
    payload = res.as_dict()
    payload["B_series"] = json.loads(res.B.to_json())
    run_cfg = {"set": args.set, "k": k, "target": target,
               "relaxed": params.relaxed, "seed": params.seed}
    _emit_json(args.out, payload, run_cfg)
    if args.steps_out:
        with open(args.steps_out, "w") as fh:
            for rep in res.reports:
                fh.write(json.dumps(rep.as_dict()) + "\n")
    return 0


def cmd_edge_probe(args):
    cfg = _load_config(args)
    with open(args.result) as fh:
        data = json.load(fh)
    B = FourierSeries.from_json(json.dumps(data["B_series"]))
    res = ReducibilityResult(
        B=B, zeta=data["zeta"], k0=data["k0"],
        conj_residual=data["conj_residual"], energy=data["energy"],
        label=tuple(data["label"]) if data.get("label") else None,
        reports=[], psl_sign=data.get("psl_sign", 1),
        zeta_window=data.get("zeta_window", {}),
        b_final=complex(*data["b_final"]), phi=data.get("phi", 0.0))
    with open(args.set) as fh:
        ks = LabelSet.from_json(fh.read())
    # the probe needs the potential the edge was reduced with; without it
    # the free operator would be probed and the verdicts would mean nothing
    k = data.get("config", {}).get("k")
    if k is None and args.k is None:
        raise ConfigInvalid("edge-probe needs --k: the kam result records no k")
    if k is not None and args.k is not None and float(args.k) != float(k):
        raise ConfigInvalid(f"--k {args.k} differs from k = {k} of the kam result")
    k = float(args.k if k is None else k)
    V = build_potential(ks, k=k)
    freq = ks.frequency
    edge = edge_data_from_reduction(res, freq.floats(), tau=freq.dc_tau)
    out = bracket_gap(edge, V, freq.floats(), probe=not args.no_probe)
    payload = {
        "zeta": edge.zeta, "bracket": [out["lower"], out["upper"]],
        "degenerate": out["degenerate"],
        "averages": {"A11": edge.A11, "A12": edge.A12, "A22": edge.A22},
        "edge_checks": edge.checks,
    }
    if out["checks"]:
        payload["delta2"] = {"verdict": out["checks"]["delta2"].verdict,
                             "d": out["checks"]["delta2"].d_delta,
                             "residual": out["checks"]["delta2"].conjugation_residual}
        payload["delta1"] = {"verdict": out["checks"]["delta1"].verdict,
                             "d": out["checks"]["delta1"].d_delta}
        payload["bracket_consistent"] = bool(
            out["checks"]["delta2_inside_gap"] and out["checks"]["delta1_beyond_gap"])
    if args.kappa:
        payload["poly_bounds"] = poly_bounds_check(edge, float(args.kappa))
    _emit_json(args.out, payload, {"result": args.result, "set": args.set, "k": k})
    if args.gap_csv:
        row = [(res.label, out["lower"], out["upper"], edge.zeta,
                payload.get("delta2", {}).get("verdict", ""),
                payload.get("delta1", {}).get("verdict", ""))]
        mode = "a" if os.path.exists(args.gap_csv) else "w"
        with open(args.gap_csv, mode) as fh:
            if mode == "w":
                fh.write(f"# schema=qpsl.bracket.{SCHEMA_VERSION}\n")
                fh.write("label,delta2,delta1,zeta,delta2_verdict,delta1_verdict\n")
            for r in row:
                fh.write(",".join(_fmt(v) for v in r) + "\n")
    return 0


def cmd_report(args):
    cfg = _load_config(args)
    if not cfg:
        raise ConfigInvalid("report requires --config")
    freq = _freq_from(cfg, args)
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    summary = {"stages": {}}

    sc = cfg.get("schedule", {})
    sched = build_schedule(sc.get("M", 10.0), sc.get("s", 0.9), sc.get("depth", 8),
                           strict=sc.get("strict", False))
    ks = construct_label_set(freq, sched, j1=sc.get("j1", 0),
                             spacing=sc.get("spacing", 2), count=sc.get("count", 1))
    set_path = os.path.join(out_dir, "set.json")
    with open(set_path, "w") as fh:
        fh.write(ks.to_json() + "\n")
    rep = verify_label_set(ks, sched, density_targets=[i / 10 for i in range(10)],
                           density_tol=cfg.get("tol", 0.25))
    summary["stages"]["label_set"] = {"passed": rep.passed, "path": set_path}

    k = cfg.get("potential", {}).get("k", 2.0)
    V = build_potential(ks, k=k)
    params = _kam_params(cfg, args, freq, sched, k)
    res = run_reducibility(V, freq.floats(),
                           {"label_index": cfg.get("kam", {}).get("label_index", 0),
                            "edge": cfg.get("kam", {}).get("edge", "upper")},
                           params=params,
                           max_steps=cfg.get("kam", {}).get("max_steps", 24))
    summary["stages"]["kam"] = {"energy": res.energy, "zeta": res.zeta,
                                "conj_residual": res.conj_residual,
                                "zeta_window": res.zeta_window}
    edge = edge_data_from_reduction(res, freq.floats(), tau=freq.dc_tau)
    br = bracket_gap(edge, V, freq.floats(), probe=cfg.get("probe", True))
    summary["stages"]["bracket"] = {
        "lower": br["lower"], "upper": br["upper"],
        "delta2": br["checks"]["delta2"].verdict if br["checks"] else None,
        "delta1": br["checks"]["delta1"].verdict if br["checks"] else None,
    }
    _emit_json(os.path.join(out_dir, "report.json"), summary, cfg)
    print(f"report written to {os.path.join(out_dir, 'report.json')}")
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(prog="qpsl", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--workers", type=int, help="parallel workers (QPSL_THREADS)")

    sp = sub.add_parser("cf", help="continued-fraction expansion")
    common(sp)
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
    common(sp)
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

    sp = sub.add_parser("rotation", help="rotation-number curve")
    common(sp)
    scan_opts(sp)
    sp.add_argument("--iters", type=int)
    sp.add_argument("--samples", type=int)
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
    sp.add_argument("--iters", type=int)
    sp.add_argument("--samples", type=int)
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
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--steps-out", help="JSON-lines stream of step reports")
    sp.set_defaults(func=cmd_kam)

    sp = sub.add_parser("edge-probe", help="Moser-Poschel probes at a reduced edge")
    common(sp)
    sp.add_argument("--result", required=True, help="kam output JSON")
    sp.add_argument("--set", required=True)
    sp.add_argument("--k", type=float)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--no-probe", action="store_true")
    sp.add_argument("--gap-csv", help="append a bracket summary row here")
    sp.set_defaults(func=cmd_edge_probe)

    sp = sub.add_parser("report", help="full pipeline from a config file")
    common(sp)
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

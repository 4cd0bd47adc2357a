"""Benchmark of qpsl: edge reduction, gap scanning and deep label sets.

Run from the repository root:

    python3 perfbench/run.py --workload edge_reduction --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20      # all three

Each workload runs in a fresh single process (worker.py) with QPSL_THREADS=1,
in a closed loop with one caller, for at least ``--seconds``; outputs are
checked against reference values.  Each workload's report ends with one
JSON line on standard output: with ``--trace 0`` the end-to-end metrics (wall_s, setup_s,
peak_rss_mb), with ``--trace 1`` the per-layer metrics of one traced
operation plus the tracing overhead against an untraced run.  Scratch files
go to a temporary directory under ``.perfbench/`` and are removed; the last
trace of each workload is kept in ``.perfbench/traces/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import fail_ratio

HERE = Path(__file__).resolve().parent
# the keys of workloads.WORKLOADS, which this process cannot import: only
# the workers have src/ on their path
WORKLOADS = ("edge_reduction", "gap_scan", "label_set_deep")
SETUPS = 9            # set-ups measured per untraced run; setup_s is their median
DEADLINE_S = 175.0    # a run must end within 180 s


class BenchError(Exception):
    pass


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, root, workload, seed, seconds):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.state = root / ".perfbench"
        (self.state / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=self.state / "tmp"))
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, QPSL_THREADS="1", TMPDIR=str(self.tmp),
                        PYTHONPATH=os.pathsep.join(
                            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        self.children = 0

    def child(self, *extra):
        """Run worker.py in a fresh directory; return the JSON it wrote."""
        self.children += 1
        work = self.tmp / f"child{self.children}"
        work.mkdir()
        out = work / "result.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next process")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", str(self.seconds),
               "--out", str(out), *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=work,
                                  env=self.env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ran past the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        with open(out) as fh:
            return json.load(fh)

    def check_artifacts(self, ops):
        """Count an operation as failed when it wrote other bytes than an
        earlier run of the same program and seed in this checkout."""
        store_path = self.state / "artifact_hashes.json"
        store = json.loads(store_path.read_text()) if store_path.exists() else {}
        key = f"{self.workload}:{self.seed}:{source_digest(self.root / 'src')}"
        for op in ops:
            hashes = (op["obs"] or {}).get("hashes")
            if not hashes:
                continue
            ref = store.setdefault(key, hashes)
            for name in sorted(hashes):
                if hashes[name] != ref.get(name):
                    op["failures"].append(f"{name} bytes differ from an earlier run "
                                          "with the same seed")
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(store_path)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def untraced(r):
    setups = [r.child("--setup-only")["setup_s"] for _ in range(SETUPS - 1)]
    res = r.child()
    setups.append(res["setup_s"])
    r.check_artifacts(res["ops"])
    walls = [op["wall_s"] for op in res["ops"]]
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    notes = {"wall_s": f"median of {len(walls)} operations, "
                       f"range {min(walls):.3f}-{max(walls):.3f} s",
             "setup_s": f"median of {len(setups)} set-ups, "
                        f"range {min(setups):.3f}-{max(setups):.3f} s",
             "peak_rss_mb": "workload process"}
    return res["ops"], metrics, notes


def traced(r):
    base = r.child()
    traces = r.state / "traces"
    traces.mkdir(exist_ok=True)
    trace_path = traces / f"{r.workload}.jsonl"
    res = r.child("--trace", str(trace_path))
    ops = base["ops"] + res["ops"]
    r.check_artifacts(ops)
    base_wall = statistics.median(op["wall_s"] for op in base["ops"])
    wall = res["ops"][0]["wall_s"]
    metrics = {name: tuple(vu) for name, vu in res["per_layer"].items()}
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - base_wall, "s")
    notes = {"trace.overhead_s": f"traced {wall:.3f} s minus untraced median "
                                 f"{base_wall:.3f} s; spans in {trace_path}"}
    return ops, metrics, notes


def run_workload(root, workload, args):
    """Measure one workload and print its report; the last line is JSON."""
    r = Runner(root, workload, args.seed, args.seconds)
    try:
        ops, metrics, notes = (traced if args.trace else untraced)(r)
    finally:
        r.close()

    failed = sum(1 for op in ops if op["failures"])
    for i, op in enumerate(ops):
        for msg in op["failures"]:
            print(f"{workload} operation {i} failed: {msg}", file=sys.stderr)
    print(f"{workload} seed {args.seed}: {len(ops)} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':50s} {fail_ratio(ops):14.6g} {'ratio':6s} "
          "failed over attempted")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qpsl" / "__init__.py").is_file():
        print(f"no qpsl source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run_workload(root, workload, args)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up one workload, then run its operations in a
closed loop, each starting when the previous one has finished.

run.py starts this in a fresh interpreter with the working directory set to
a scratch directory, and reads the JSON it writes to ``--out``.  Set-up runs
from process start (``--spawned``, a time.monotonic() stamp taken by the
parent) to the first timed call: interpreter start, the imports of numpy,
mpmath and qpsl, and making the inputs from the seed.
"""

import argparse
import json
import resource
import sys
import time


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", help="trace one operation; write its spans here")
    args = p.parse_args()

    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import qpsl.cli  # noqa: F401  (imports every qpsl module)

    import workloads
    from checks import attempt

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install_all(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = {"setup_s": time.monotonic() - args.spawned}

    if not args.setup_only:
        ops = []
        start = time.perf_counter()
        while True:
            o = attempt(workload.run, workload.check)
            ops.append({"wall_s": o["wall_s"], "failures": o["failures"],
                        "obs": o["result"]})
            if tracer or time.perf_counter() - start >= args.seconds:
                break
        result["ops"] = ops
        if tracer:
            tracer.dump(args.trace)
            result["per_layer"] = layers.per_layer(tracer.summary(), ops[0]["obs"])

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

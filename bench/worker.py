"""Child process of the benchmark; `run.py` starts one per step.

    worker.py setup --workload W --seed N --work DIR   write the inputs
    worker.py run   --workload W --seed N --work DIR --seconds S
    worker.py trace --workload W --seed N --work DIR

`run` repeats whole passes of the workload while the next one still fits
in S seconds (at least one pass); `trace` makes exactly one pass with span
tracing installed, so its counts repeat exactly for a given seed.  Results
go to DIR/<mode>.json; the CLI's own stdout goes wherever `run.py` sends it.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
from pathlib import Path

import numpy
import scipy

import inputs
import spans
import workloads
from conelab import cli


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; this process only
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)
    indir = args.work / "inputs"
    if args.mode == "setup":
        inputs.generate(args.workload, args.seed, indir)
        return 0
    with open(indir / "spec.json") as fh:
        spec = json.load(fh)
    ops = workloads.ops_for(args.workload, spec, indir)
    outroot = args.work / f"out_{args.mode}"
    result = {"lead": workloads.LEAD[args.workload],
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.mode == "run":
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(workloads.run_pass(ops, outroot))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        result.update(passes=passes, peak_rss_mb=_peak_rss_mb())
    else:
        tracer = spans.Tracer()
        spans.install(tracer)
        traced_main = tracer.span(cli.main, "cli.main")
        try:
            done = workloads.run_pass(ops, outroot, main=traced_main)
        finally:
            tracer.uninstall()
        tracer.save(args.work / "spans.npz")
        result.update(passes=[done], absent=tracer.absent,
                      layers=spans.per_layer(tracer))
    with open(args.work / f"{args.mode}.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""conelab benchmark: one workload, seeded inputs, CLI pipelines, oracles.

    python3 bench/run.py --workload strip_pair --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its `src/` directory.  Every step runs in a child process
(`worker.py`) with BLAS/OpenMP threads capped at the number of usable
cores:

* `--trace 0` times the set-up (interpreter start, import and input
  generation) SETUP_REPEATS times, then runs whole passes of the workload
  in one child for about `--seconds` seconds and reports the end-to-end
  metrics as medians over the passes.
* `--trace 1` runs one untraced and one traced pass and reports the
  per-layer metrics of the traced pass, plus the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# same names as inputs.WORKLOADS; this process imports neither numpy nor
# conelab, so that a tree without the program fails fast and cleanly
WORKLOADS = ("strip_pair", "arc_verify", "cos_converge")
SETUP_REPEATS = 5
DEADLINE_S = 175.0          # every run ends (or gives up) within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("lead_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        cur = env.get(var, "")
        cap = int(cur) if cur.isdigit() and int(cur) > 0 else nproc
        env[var] = str(min(cap, nproc))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Starts worker children one at a time, each bounded by the deadline."""

    def __init__(self, args, work: Path, env: dict, deadline: float):
        self.args, self.work, self.env, self.deadline = args, work, env, deadline
        self.log = open(work / "worker.log", "w")

    def close(self) -> None:
        self.log.close()

    def __call__(self, mode: str, seconds: float = 0.0) -> float:
        """Run one worker step; returns its wall time in seconds."""
        cmd = [sys.executable, str(BENCH / "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--work", str(self.work), "--seconds", str(seconds)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before the {mode} step")
        self.log.flush()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, stdin=subprocess.DEVNULL,
                                  stdout=self.log, stderr=self.log,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} step killed at the deadline") from None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{mode} step exited with {proc.returncode}; "
                             f"see {self.work / 'worker.log'}")
        return wall

    def result(self, mode: str) -> dict:
        with open(self.work / f"{mode}.json") as fh:
            return json.load(fh)


def _tally(results) -> tuple:
    passes = [p for r in results for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return attempted, failures


def _end_to_end(run, lines: list):
    """Set-up times, then passes for --seconds; returns (values, units,
    worker results)."""
    setup = [run("setup") for _ in range(SETUP_REPEATS)]
    run("run", run.args.seconds)
    got = run.result("run")
    passes = got["passes"]
    med = statistics.median
    lines.append(f"# passes={len(passes)} (medians over passes below)")
    for cmd in sorted({c for p in passes for c in p["commands"]}):
        lines.append(f"{cmd + '_s':<14} "
                     f"{med([p['commands'][cmd] for p in passes]):10.4f} s"
                     "   pipeline time")
    lines.append(f"# lead_s is the {got['lead']} pipeline on this workload; "
                 f"setup_s is the median of {SETUP_REPEATS} set-ups")
    values = {
        "wall_s": med([p["wall_s"] for p in passes]),
        "lead_s": med([p["commands"][got["lead"]] for p in passes]),
        "peak_rss_mb": got["peak_rss_mb"],
        "setup_s": med(setup),
    }
    return values, dict(END_TO_END), [got]


def _per_layer(run, lines: list):
    """One untraced and one traced pass; returns (values, units, worker
    results)."""
    run("setup")
    run("run", 0.0)
    run("trace")
    plain, traced = run.result("run"), run.result("trace")
    values = {name: v for name, (v, _) in traced["layers"].items()}
    units = {name: u for name, (_, u) in traced["layers"].items()}
    values["trace.overhead_s"] = (traced["passes"][0]["wall_s"]
                                  - plain["passes"][0]["wall_s"])
    units["trace.overhead_s"] = "s"
    lines.append("# one traced pass; counts (unit count) repeat exactly for "
                 "a given --seed, times do not")
    lines.append("# cone.table_mb is computed (entries x 8 B x 2 tables, "
                 "summed over builds), not measured")
    if traced["absent"]:
        lines.append(f"# absent, reported as 0: {', '.join(traced['absent'])}")
    lines.append(f"# spans written to {run.work / 'spans.npz'}")
    return values, units, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "conelab" / "__init__.py").is_file():
        print(f"error: no conelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    work = BENCH / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env(nproc)
    lines = [f"# conelab benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    run = Runner(args, work, env, deadline)
    try:
        values, units, results = (_per_layer if args.trace
                                  else _end_to_end)(run, lines)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    attempted, failures = _tally(results)
    versions = results[0]["versions"]
    lines.insert(1, f"# machine: nproc={nproc} python={versions['python']} "
                    f"numpy={versions['numpy']} scipy={versions['scipy']} "
                    f"threads_cap={env[THREAD_VARS[0]]}")
    lines.append(f"# ops_attempted={attempted} ops_failed={len(failures)}")
    for f in failures[:10]:
        print(f"failed: {f}", file=sys.stderr)
    for name in sorted(values):
        lines.append(f"{name:<28} {values[name]:14.6f} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

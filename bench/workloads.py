"""The benchmark's workloads as lists of CLI calls, each with an oracle.

A workload is one pass over its operations; every operation is one call of
the public entry point `conelab.cli.main`, followed by a check of what the
call wrote.  An operation fails when the call raises, exits with a code the
operation does not allow, or its output fails the oracle.
"""

from __future__ import annotations

import csv
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from conelab import cli

from inputs import GH_PAIRS

EXIT_PASS, EXIT_INCONCLUSIVE = cli.EXIT_PASS, cli.EXIT_INCONCLUSIVE

TCBB_SAMPLES = 40000

# the pipeline whose time is reported as `lead_s`
LEAD = {"strip_pair": "tau", "arc_verify": "tcbb", "cos_converge": "ellconv"}


class OracleFailure(Exception):
    """An output disagrees with its oracle."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleFailure(what)


@dataclass(frozen=True)
class Op:
    """One CLI call: `command` names the pipeline, `args` follow it."""

    key: str
    command: str
    args: tuple
    oracle: Callable   # (report, outdir, notes) -> None, raises OracleFailure
    exits: tuple = (EXIT_PASS,)

    def argv(self, outdir: Path) -> list:
        return ["--out", str(outdir), self.command, *map(str, self.args)]


# -- oracles --------------------------------------------------------------------


def _tau_oracle(truth: float):
    def check(report, outdir, notes):
        pair = report["pair"]
        lo, hi = pair["lo"], pair["hi"]
        notes["tau_lo"] = lo
        _require(lo <= truth + 1e-9 and truth <= hi + 1e-9,
                 f"bracket [{lo}, {hi}] misses the truth {truth}")
        _require(abs(lo - truth) <= 0.05, f"|lo - truth| = {abs(lo - truth)}")
    return check


def _geodesic_oracle(report, outdir, notes):
    _require("tau_lo" in notes, "no tau value to compare against")
    _require(report["tau_length"] == notes["tau_lo"],
             f"tau_length {report['tau_length']} != lo {notes['tau_lo']}")


def _tcbb_oracle(report, outdir, notes):
    _require(report["pass"] is True, "tcbb did not pass")
    _require(report["counts"]["valid"] == TCBB_SAMPLES == report["samples"],
             f"valid {report['counts']['valid']} != {TCBB_SAMPLES}")


def _masses(path: Path) -> list:
    with open(path) as fh:
        atoms = json.load(fh)
    return [a["mass"] for a in sorted(atoms, key=lambda a: (a["t"], a["x"]))]


def _ot_oracle(mu0: Path, mu1: Path):
    def check(report, outdir, notes):
        a, b = _masses(mu0), _masses(mu1)
        rows, cols = [0.0] * len(a), [0.0] * len(b)
        with open(outdir / "tables" / "coupling.csv") as fh:
            for rec in csv.DictReader(fh):
                rows[int(rec["i"])] += float(rec["mass"])
                cols[int(rec["j"])] += float(rec["mass"])
        err = max(max(abs(x - y) for x, y in zip(rows, a)),
                  max(abs(x - y) for x, y in zip(cols, b)))
        _require(err <= 1e-9, f"marginal error {err}")
        _require(report["cyclical_slack"] >= -1e-9,
                 f"cyclical slack {report['cyclical_slack']}")
    return check


def _not_fail(report, outdir, notes):
    _require(report["verdict"] != "FAIL", "verdict FAIL")


def _ellconv_oracle(report, outdir, notes):
    _require(report["verdict"] == "PASS", f"verdict {report['verdict']}")


def _measured_oracle(report, outdir, notes):
    w1 = report["w1"]
    _require(all(b < a for a, b in zip(w1, w1[1:])),
             f"W1 not decreasing: {w1}")


def _gh_oracle(pair: int, first: bool):
    def check(report, outdir, notes):
        lo, up = report["lower"], report["upper"]
        _require(lo == up, f"exact GH bracket [{lo}, {up}] not closed")
        if first:
            notes[("gh", pair)] = lo
        else:
            other = notes.get(("gh", pair))
            _require(other is not None and abs(lo - other) <= 1e-12,
                     f"GH not symmetric: {lo} vs {other}")
    return check


# -- workloads --------------------------------------------------------------------


def ops_for(workload: str, spec: dict, inputs: Path) -> list:
    """The ordered operations of one pass of `workload`."""
    f = lambda name: str(inputs / name)
    if workload == "strip_pair":
        p = ",".join(map(str, spec["p"]))
        q = ",".join(map(str, spec["q"]))
        cone = ("--cone", f("strip.json"), "--p", p, "--q", q)
        return [Op("tau", "tau", cone, _tau_oracle(spec["truth"])),
                Op("geodesic", "geodesic", cone, _geodesic_oracle)]
    if workload == "arc_verify":
        sin = ("--cone", f("sin_arc.json"))
        return [
            Op("tcbb", "tcbb", ("--cone", f("cos_arc.json"), "--K", -1.0,
                                "--samples", TCBB_SAMPLES, "--tol", 0.02,
                                "--seed", spec["tcbb_seed"]), _tcbb_oracle),
            Op("ot", "ot", sin + ("--mu0", f("ot_mu0.json"),
                                  "--mu1", f("ot_mu1.json"),
                                  "--seed", spec["ot_seed"]),
               _ot_oracle(inputs / "ot_mu0.json", inputs / "ot_mu1.json")),
            Op("tcd", "tcd", sin + ("--mu0", f("tcd_mu0.json"),
                                    "--mu1", f("tcd_mu1.json"),
                                    "--K", -1.0, "--N", 2.0),
               _not_fail, (EXIT_PASS, EXIT_INCONCLUSIVE)),
            Op("tmcp", "tmcp", sin + ("--mu0", f("tmcp_mu0.json"),
                                      "--x1", "85,20", "--K", 2.0, "--N", 3.0),
               _not_fail, (EXIT_PASS, EXIT_INCONCLUSIVE)),
        ]
    if workload == "cos_converge":
        ops = [Op("ellconv", "ellconv", ("--seq", f("seq.json")),
                  _ellconv_oracle),
               Op("measured", "measured", ("--seq", f("seq.json"), "--k", 1),
                  _measured_oracle)]
        for k in range(GH_PAIRS):
            a, b = f(f"gh_a{k}.json"), f(f"gh_b{k}.json")
            ops.append(Op(f"gh_ab{k}", "gh", ("--A", a, "--B", b,
                                              "--mode", "exact"),
                          _gh_oracle(k, True)))
            ops.append(Op(f"gh_ba{k}", "gh", ("--A", b, "--B", a,
                                              "--mode", "exact"),
                          _gh_oracle(k, False)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- execution ----------------------------------------------------------------------


def check(op: Op, code: int, outdir: Path, notes: dict) -> str | None:
    """None when the call's exit code and outputs are right, else why not."""
    if code not in op.exits:
        return f"{op.key}: exit code {code}"
    try:
        with open(outdir / "report.json") as fh:
            report = json.load(fh)
        op.oracle(report, outdir, notes)
    except (OracleFailure, OSError, KeyError, TypeError, ValueError) as exc:
        return f"{op.key}: {type(exc).__name__}: {exc}"
    return None


def run_op(op: Op, outdir: Path, notes: dict, main=cli.main):
    """Call the CLI once; returns (seconds, error or None).  Only the call
    itself is timed, not the oracle."""
    t0 = time.perf_counter()
    try:
        code = main(op.argv(outdir))
    except Exception as exc:  # a pipeline that raises counts as failed
        traceback.print_exc()
        return time.perf_counter() - t0, f"{op.key}: raised {exc!r}"
    seconds = time.perf_counter() - t0
    return seconds, check(op, code, outdir, notes)


def run_pass(ops, outroot: Path, main=cli.main) -> dict:
    """Run every operation once.  Returns per-operation seconds, the
    per-pipeline totals and the failures."""
    notes, seconds, failures = {}, {}, []
    for op in ops:
        dt, err = run_op(op, outroot / op.key, notes, main)
        seconds[op.key] = dt
        if err is not None:
            failures.append(err)
    per_command = {}
    for op in ops:
        per_command[op.command] = per_command.get(op.command, 0.0) + seconds[op.key]
    return {"seconds": seconds, "commands": per_command,
            "wall_s": math.fsum(seconds.values()),
            "attempted": len(ops), "failures": failures}

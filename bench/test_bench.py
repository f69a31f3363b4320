"""Checks of the benchmark itself: oracles count tampered outputs as
failures, and the span reduction splits time the way README.md says.

    PYTHONPATH=src python -m pytest bench/test_bench.py
"""

import json
import math
import time
from pathlib import Path

import pytest

from conelab import cli
from conelab.cone import minkowski_strip

import spans
import workloads

P, Q = (0, 4), (40, 12)        # r = 8 cells of 0.05 on a 41 x 21 strip


@pytest.fixture()
def strip_ops(tmp_path):
    indir = tmp_path / "inputs"
    indir.mkdir()
    cone = minkowski_strip(time_steps=40, fiber_points=21, window=8)
    (indir / "strip.json").write_text(json.dumps(cone.to_json()))
    spec = {"p": list(P), "q": list(Q),
            "truth": math.sqrt(2.0 ** 2 - (0.05 * (Q[1] - P[1])) ** 2)}
    return workloads.ops_for("strip_pair", spec, indir), tmp_path / "out"


def _tampering(command, edit):
    """cli.main, except that `edit` rewrites the report of `command` calls."""
    def main(argv):
        code = cli.main(argv)
        if argv[2] == command:
            path = Path(argv[1]) / "report.json"
            report = json.loads(path.read_text())
            edit(report)
            path.write_text(json.dumps(report))
        return code
    return main


def test_honest_outputs_pass(strip_ops):
    ops, out = strip_ops
    done = workloads.run_pass(ops, out)
    assert done["attempted"] == 2
    assert done["failures"] == []


@pytest.mark.parametrize("command, edit, failing", [
    ("tau", lambda r: r["pair"].update(hi=r["pair"]["lo"] - 0.01),
     {"tau"}),
    ("tau", lambda r: r["pair"].update(lo=r["pair"]["lo"] - 0.2),
     {"tau", "geodesic"}),
    ("geodesic", lambda r: r.update(tau_length=r["tau_length"] + 1e-9),
     {"geodesic"}),
])
def test_tampered_output_counts_as_failure(strip_ops, command, edit, failing):
    ops, out = strip_ops
    done = workloads.run_pass(ops, out, main=_tampering(command, edit))
    assert done["attempted"] == 2
    assert {f.split(":")[0] for f in done["failures"]} == failing


def test_error_exit_counts_as_failure(strip_ops):
    ops, out = strip_ops
    done = workloads.run_pass(ops, out, main=lambda argv: cli.EXIT_ERROR)
    assert len(done["failures"]) == 2


def test_span_reduction_self_busy_and_builds():
    tr = spans.Tracer()
    build = tr.span(lambda: time.sleep(0.02), "cone.lower")
    lookup = tr.span(lambda: (build(), time.sleep(0.01)), "cone.lookup")
    outer = tr.span(lambda: (lookup(), lookup()), "cli.tau")
    outer()
    m = {k: v for k, (v, _) in spans.per_layer(tr).items()}
    assert m["cone.lookup_calls"] == 2 and m["cone.builds"] == 2
    # lookups exclude the builds nested in them; the pipeline keeps them
    assert m["cone.lookup_s"] == pytest.approx(0.02, abs=0.008)
    assert m["cone.lower_s"] == pytest.approx(0.04, abs=0.008)
    assert m["cli.tau_s"] >= m["cone.lookup_s"] + m["cone.lower_s"]
    # cone spans nest inside cone spans: busy counts the outer two only
    assert m["cone.busy_s"] == pytest.approx(m["cone.self_s"], rel=1e-9)
    assert m["cone.busy_s"] < m["cli.tau_s"]
    assert m["cli.self_s"] == pytest.approx(m["cli.tau_s"] - m["cone.busy_s"],
                                            abs=1e-9)

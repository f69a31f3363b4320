import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conelab import cli
from conelab import cone as cone_mod
from conelab.cli import main
from conelab.errors import ResourceLimit


def run_cli(args):
    return main([str(a) for a in args])


@pytest.fixture()
def workdir(tmp_path):
    fib = {"n": 5, "base": 0,
           "dist": [abs(i - j) * 0.25 for i in range(5) for j in range(5)]}
    ts = np.linspace(0.0, 2.0, 41)
    warp = {"a": 0.0, "b": 2.0, "ts": list(ts), "vals": [1.0] * 41}
    cone = {"warp": warp, "fiber": fib, "N": 2.0, "distSteps": 20,
            "window": 8}
    (tmp_path / "cone.json").write_text(json.dumps(cone))
    (tmp_path / "fib.json").write_text(json.dumps(fib))
    (tmp_path / "warp.json").write_text(json.dumps(
        {"a": 0.0, "b": math.pi,
         "ts": list(np.linspace(0, math.pi, 101)),
         "vals": list(np.sin(np.linspace(0, math.pi, 101)))}))
    mu0 = [{"t": 2, "x": 1, "mass": 0.5}, {"t": 2, "x": 3, "mass": 0.5}]
    mu1 = [{"t": 38, "x": 1, "mass": 0.5}, {"t": 38, "x": 3, "mass": 0.5}]
    (tmp_path / "mu0.json").write_text(json.dumps(mu0))
    (tmp_path / "mu1.json").write_text(json.dumps(mu1))
    return tmp_path


def test_tau_point_pair(workdir):
    out = workdir / "o_tau"
    code = run_cli(["--out", out, "tau", "--cone", workdir / "cone.json",
                    "--p", "3,2", "--q", "3,2"])
    assert code == 0
    rows = (out / "tables" / "tau.csv").read_text().strip().splitlines()
    assert rows[0] == "s,t,r,lo,hi"
    vals = rows[1].split(",")
    assert float(vals[3]) == 0.0
    # a negative index would wrap around the tables: rejected as input
    bad = workdir / "o_neg"
    assert run_cli(["--out", bad, "tau", "--cone", workdir / "cone.json",
                    "--p", "3,2", "--q=-1,2"]) == 1
    assert json.loads((bad / "report.json").read_text())["error"] == "VALUE_ERROR"


@pytest.mark.parametrize("args", [["--p", "3,2"], ["--q", "30,2"]])
def test_tau_needs_both_points_or_neither(workdir, args):
    # a lone --p or --q was dropped, and every grid row exported
    out = workdir / "o_lone"
    assert run_cli(["--out", out, "tau", "--cone", workdir / "cone.json",
                    *args]) == 1
    assert json.loads((out / "report.json").read_text())["error"] == "VALUE_ERROR"
    assert not (out / "tables" / "tau.csv").exists()


@pytest.mark.parametrize("name, args", [
    ("tau", ["--p", "3,2", "--q", "99,2"]),
    ("geodesic", ["--p", "3,2", "--q", "30,9"]),
    ("tmcp", ["--mu0", "mu0.json", "--x1", "50,1", "--K", 0.0, "--N", 2.0]),
    ("ot", ["--mu0", "mu0.json", "--mu1", "far.json", "--seed", 1]),
    ("tcd", ["--mu0", "neg.json", "--mu1", "mu1.json", "--K", 0.0,
             "--N", 2.0]),
])
def test_off_grid_input_is_a_value_error(workdir, name, args):
    # 41 x 5 grid: index 99, 9, 50 and an atom at x=99 lie past it, and a
    # negative atom index would wrap around the tables
    (workdir / "far.json").write_text(json.dumps(
        [{"t": 38, "x": 99, "mass": 1.0}]))
    (workdir / "neg.json").write_text(json.dumps(
        [{"t": 2, "x": -1, "mass": 1.0}]))
    args = [workdir / a if str(a).endswith(".json") else a for a in args]
    out = workdir / f"o_off_{name}"
    assert run_cli(["--out", out, name, "--cone", workdir / "cone.json",
                    *args]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "VALUE_ERROR"
    assert "outside" in rep["message"]


def _keep_loaded_cones(monkeypatch):
    """The cones that cli pipelines load, in load order."""
    seen = []
    load = cli._load_cone

    def keep(path):
        seen.append(load(path))
        return seen[-1]
    monkeypatch.setattr(cli, "_load_cone", keep)
    return seen


def test_tau_pair_stores_one_upper_row(workdir, monkeypatch):
    # the pair's reads, and its width over p's row, store only that
    # source's row of each table
    cones = _keep_loaded_cones(monkeypatch)
    assert run_cli(["--out", workdir / "o_row", "tau", "--cone",
                    workdir / "cone.json", "--p", "3,2", "--q", "30,1"]) == 0
    (cone,) = cones
    assert _stored(cone, True) == [3] and _stored(cone, False) == [3]


def _stored(cone, upper):
    """Source indices of the lower or upper rows a cone has stored."""
    return np.flatnonzero(cone._stored[upper][1] >= 0).tolist()


def test_every_row_goes_through_the_two_kernels(workdir, monkeypatch):
    # the benchmark times the lower DP and the upper envelope at
    # _build_lower and _build_upper: tau --p --q computes there only its
    # source's row of each table, and geodesic its source's lower row
    made = {"lower": 0, "upper": 0}

    def counted(name, kind):
        build = getattr(cone_mod.GeneralizedCone, name)

        def wrapper(self, sources):
            rows = build(self, sources)
            made[kind] += len(rows)
            return rows
        monkeypatch.setattr(cone_mod.GeneralizedCone, name, wrapper)

    counted("_build_lower", "lower")
    counted("_build_upper", "upper")
    monkeypatch.setattr(cone_mod, "LOWER_BLOCK", 2 ** 14)
    args = ["--cone", workdir / "cone.json", "--p", "3,2", "--q", "30,1"]
    assert run_cli(["--out", workdir / "o_tau", "tau", *args]) == 0
    assert made == {"lower": 1, "upper": 1}
    made.update(lower=0, upper=0)
    assert run_cli(["--out", workdir / "o_geo", "geodesic", *args]) == 0
    assert made == {"lower": 1, "upper": 0}


def _write_strip_81(tmp_path):
    """An 81 x 81 x 301 flat strip, 15.8 MB per full table."""
    ts = np.linspace(0.0, 2.0, 81)
    cone = {"warp": {"a": 0.0, "b": 2.0, "ts": list(ts), "vals": [1.0] * 81},
            "fiber": {"n": 5, "base": 0, "dist": [abs(i - j) * 0.25
                                                  for i in range(5)
                                                  for j in range(5)]},
            "distSteps": 300, "window": 8}
    (tmp_path / "strip.json").write_text(json.dumps(cone))


def test_tau_pair_peak_memory_is_one_table(tmp_path, monkeypatch):
    # an 81 x 81 x 301 strip: the pair's row of each table, never a whole
    # table
    _write_strip_81(tmp_path)
    cones = _keep_loaded_cones(monkeypatch)
    tracemalloc.start()
    try:
        code = run_cli(["--out", tmp_path / "o", "tau", "--cone",
                        tmp_path / "strip.json", "--p", "10,0", "--q", "70,4"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    lo = cones[0].lower_table()
    assert lo.shape == (81, 81, 301)
    assert peak <= 1.3 * lo.nbytes


def test_tau_pair_streams_lower_blocks(tmp_path, monkeypatch):
    # with blocks of at most 10 lower rows, tau --p --q stores no lower
    # table, and its width is over the pair's row alone; the cone's
    # width, streamed block by block, is at least that
    _write_strip_81(tmp_path)
    monkeypatch.setattr(cone_mod, "LOWER_BLOCK", 2 ** 18)
    cones = _keep_loaded_cones(monkeypatch)
    tracemalloc.start()
    try:
        code = run_cli(["--out", tmp_path / "o", "tau", "--cone",
                        tmp_path / "strip.json", "--p", "10,0", "--q", "70,4"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    (cone,) = cones
    assert _stored(cone, False) == [10]
    width = json.loads((tmp_path / "o" / "report.json").read_text())[
        "rows_bracket_width"]
    lo = cone.lower_table()
    assert peak <= 0.5 * lo.nbytes
    assert cone.bracket_width([10]) == width
    assert width <= cone.bracket_width()


def test_table_budget_counts_stored_rows(workdir, monkeypatch):
    # a budget of 2.5 rows of a table: a pair query stores one row of each,
    # so it runs; a third stored row, or the whole table, is refused before
    # either kernel computes anything
    path = workdir / "cone.json"
    cone = cli._load_cone(path)
    monkeypatch.setattr(cone_mod, "MAX_TABLE_BYTES",
                        2.5 * cone.f.n * cone.m * 8)
    assert run_cli(["--out", workdir / "o_budget", "tau", "--cone", path,
                    "--p", "3,2", "--q", "30,1"]) == 0
    cone.signed_separation((3, 2), (30, 1))
    cone.signed_separation((7, 0), (30, 1))
    assert _stored(cone, False) == [3, 7]

    def refused(self, sources):
        raise AssertionError("a kernel ran past the budget")
    monkeypatch.setattr(cone_mod.GeneralizedCone, "_build_lower", refused)
    monkeypatch.setattr(cone_mod.GeneralizedCone, "_build_upper", refused)
    with pytest.raises(ResourceLimit):
        cone.signed_separation((9, 0), (30, 1))
    with pytest.raises(ResourceLimit):
        cone.lower_table()
    assert _stored(cone, False) == [3, 7]


def test_full_table_tau_keeps_no_copy(tmp_path, monkeypatch):
    # the CSV rows stream from the two stored tables, and the width reads
    # them in place: the peak is the two tables and a little more, where
    # a list of the rows took about 16 tables
    ts = np.linspace(0.0, math.pi, 41)
    (tmp_path / "sin.json").write_text(json.dumps(
        {"warp": {"a": 0.0, "b": math.pi, "ts": list(ts),
                  "vals": list(np.sin(ts))},
         "fiber": {"n": 9, "base": 0,
                   "dist": [abs(i - j) * 0.1 for i in range(9)
                            for j in range(9)]},
         "N": 2.0, "distSteps": 40, "window": 8}))
    cones = _keep_loaded_cones(monkeypatch)
    tracemalloc.start()
    try:
        code = run_cli(["--out", tmp_path / "o", "tau", "--cone",
                        tmp_path / "sin.json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    lo, hi = cones[0].tables()
    rows = (tmp_path / "o" / "tables" / "tau.csv").read_text().splitlines()
    assert len(rows) == 1 + 41 * 42 // 2 * 41
    rep = json.loads((tmp_path / "o" / "report.json").read_text())
    rel = lo >= 0.0
    assert rep["bracket_width"] == float((hi[rel] - lo[rel]).max())
    assert peak <= 3 * lo.nbytes


def test_geodesic(workdir):
    out = workdir / "o_geo"
    code = run_cli(["--out", out, "geodesic", "--cone", workdir / "cone.json",
                    "--p", "0,2", "--q", "40,2"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["tau_length"] == pytest.approx(2.0, abs=1e-9)


def test_geodesic_length_is_tau_lo_on_curved_cone(tmp_path):
    # each call loads a fresh cone: tau builds the full tables, geodesic
    # only its source row, and both must give the same lower value
    ts = np.linspace(0.2, 2.0, 61)
    cone = {"warp": {"a": 0.2, "b": 2.0, "ts": list(ts),
                     "vals": list(1.0 + 0.5 * np.sin(2.0 * ts))},
            "fiber": {"n": 7, "base": 0,
                      "dist": [abs(i - j) * 0.15 for i in range(7)
                               for j in range(7)]},
            "N": 2.0, "distSteps": 24, "window": 8}
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(cone))
    for p, q in [("2,1", "55,5"), ("9,6", "50,3")]:
        args = ["--cone", path, "--p", p, "--q", q]
        assert run_cli(["--out", tmp_path / "o_tau", "tau", *args]) == 0
        assert run_cli(["--out", tmp_path / "o_geo", "geodesic", *args]) == 0
        tau = json.loads((tmp_path / "o_tau" / "report.json").read_text())
        geo = json.loads((tmp_path / "o_geo" / "report.json").read_text())
        assert tau["pair"]["lo"] > 0.0
        assert geo["tau_length"] == tau["pair"]["lo"]


def test_tcbb_exit_codes(workdir):
    out = workdir / "o_tcbb"
    code = run_cli(["--out", out, "tcbb", "--cone", workdir / "cone.json",
                    "--K", 0.0, "--samples", 40, "--tol", 0.02,
                    "--seed", 7])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["pass"] is True


def test_ot_and_noncouplable(workdir):
    out = workdir / "o_ot"
    code = run_cli(["--out", out, "ot", "--cone", workdir / "cone.json",
                    "--mu0", workdir / "mu0.json", "--mu1", workdir / "mu1.json",
                    "--p", 0.5, "--seed", 1])
    assert code == 0
    # reversed marginals: exit 1 with the machine-readable error code
    bad = workdir / "o_bad"
    code = run_cli(["--out", bad, "ot", "--cone", workdir / "cone.json",
                    "--mu0", workdir / "mu1.json", "--mu1", workdir / "mu0.json",
                    "--p", 0.5, "--seed", 1])
    assert code == 1
    rep = json.loads((bad / "report.json").read_text())
    assert rep["error"] == "NOT_CAUSALLY_COUPLABLE"


def test_ot_reads_only_the_rows_of_mu0(workdir, monkeypatch):
    # both atoms of mu0 sit at time 2: ot stores that row alone of each
    # table, and its width is over that row of both tables
    cones = _keep_loaded_cones(monkeypatch)
    out = workdir / "o_ot_rows"
    assert run_cli(["--out", out, "ot", "--cone", workdir / "cone.json",
                    "--mu0", workdir / "mu0.json", "--mu1", workdir / "mu1.json",
                    "--p", 0.5, "--seed", 1]) == 0
    (cone,) = cones
    assert _stored(cone, False) == [2] and _stored(cone, True) == [2]
    rep = json.loads((out / "report.json").read_text())
    assert "bracket_width" not in rep
    assert rep["rows_bracket_width"] == cone.bracket_width([2])


def test_tcd_tmcp(workdir):
    out = workdir / "o_tcd"
    code = run_cli(["--out", out, "tcd", "--cone", workdir / "cone.json",
                    "--mu0", workdir / "mu0.json", "--mu1", workdir / "mu1.json",
                    "--K", 0.0, "--N", 2.0])
    assert code == 0
    out2 = workdir / "o_tmcp"
    code = run_cli(["--out", out2, "tmcp", "--cone", workdir / "cone.json",
                    "--mu0", workdir / "mu0.json", "--x1", "38,2",
                    "--K", 0.0, "--N", 2.0])
    assert code == 0


def test_gh_and_curvature_commands(workdir):
    out = workdir / "o_gh"
    assert run_cli(["--out", out, "gh", "--A", workdir / "fib.json",
                    "--B", workdir / "fib.json", "--mode", "exact"]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["lower"] == rep["upper"] == 0.0
    assert run_cli(["--out", workdir / "o_ric", "ricci",
                    "--warp", workdir / "warp.json", "--K", 1.0, "--n", 2,
                    "--fiber-bound", 1.0]) == 0
    assert run_cli(["--out", workdir / "o_sec", "sectional",
                    "--warp", workdir / "warp.json", "--K", 1.0,
                    "--fiber-bound", -1.0]) == 0


def test_report_determinism(workdir):
    a, b = workdir / "da", workdir / "db"
    for out in (a, b):
        run_cli(["--out", out, "tcbb", "--cone", workdir / "cone.json",
                 "--K", 0.0, "--samples", 30, "--tol", 0.02, "--seed", 12])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_tangent_command(workdir, tmp_path):
    ts = np.linspace(0.2, 2.0, 91)
    cone = {"warp": {"a": 0.2, "b": 2.0, "ts": list(ts), "vals": list(ts)},
            "fiber": {"n": 5, "base": 2,
                      "dist": [abs(i - j) * 0.25 for i in range(5)
                               for j in range(5)]},
            "N": 1.0, "window": 8}
    p = tmp_path / "cone2.json"
    p.write_text(json.dumps(cone))
    code = run_cli(["--out", tmp_path / "o_tan", "tangent", "--cone", p,
                    "--point", "40,2", "--eps", "0.125,0.0625,0.03125"])
    assert code == 0


def test_sequence_commands(workdir):
    cone = json.loads((workdir / "cone.json").read_text())
    seq = {"cones": [cone, cone, cone], "limit": cone, "coverDepth": 1,
           "schedule": [[1, 2]]}
    p = workdir / "seq.json"
    p.write_text(json.dumps(seq))
    assert run_cli(["--out", workdir / "o_ell", "ellconv", "--seq", p]) == 0
    rep = json.loads((workdir / "o_ell" / "report.json").read_text())
    assert rep["verdict"] == "PASS"
    assert (workdir / "o_ell" / "tables" / "moduli.csv").exists()
    assert run_cli(["--out", workdir / "o_meas", "measured", "--seq", p,
                    "--k", 1]) == 0


@pytest.mark.parametrize("entry", [[1, 0], [1, -2], [2, 1], [0, 1]])
def test_ellconv_bad_schedule_is_a_value_error(workdir, entry):
    # l = 0 divided by zero, l < 0 passed silently and k outside
    # 1..coverDepth ended in a KeyError
    cone = json.loads((workdir / "cone.json").read_text())
    seq = {"cones": [cone], "limit": cone, "coverDepth": 1,
           "schedule": [entry]}
    p = workdir / "bad_seq.json"
    p.write_text(json.dumps(seq))
    out = workdir / "o_bad"
    assert run_cli(["--out", out, "ellconv", "--seq", p]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "VALUE_ERROR"
    assert "schedule entry" in rep["message"]


def _write_seq(workdir, **fields):
    cone = json.loads((workdir / "cone.json").read_text())
    p = workdir / "seq_case.json"
    p.write_text(json.dumps({"cones": [cone], "limit": cone,
                             "coverDepth": 1, **fields}))
    return p


@pytest.mark.parametrize("name, seq_fields, args, message", [
    ("measured", {}, ["--k", 2], "cover level k=2"),
    ("measured", {}, ["--k=-1"], "cover level k=-1"),
    ("measured", {}, ["--k", 0], "cover level k=0"),
    ("measured", {"coverDepth": 0}, ["--k", 1], "cover depth must be"),
    ("ellconv", {"coverDepth": 0}, [], "cover depth must be"),
    ("ellconv", {"coverDepth": 1.5}, [], "cover depth must be"),
    ("ellconv", {"schedule": [[1.0, 2]]}, [], "schedule entry [1.0, 2]"),
    ("ellconv", {"schedule": [[1, "2"]]}, [], "schedule entry [1, '2']"),
    ("ellconv", {"schedule": [1]}, [], "schedule entry 1 "),
    ("ellconv", {"schedule": [[True, 2]]}, [], "schedule entry [True, 2]"),
    ("ellconv", {"schedule": 5}, [], "schedule must be a list"),
    ("tangent", None, ["--eps", "0"], "eps values must be positive"),
    ("tangent", None, ["--eps=-0.1"], "eps values must be positive"),
])
def test_bad_sequence_input_is_a_value_error(workdir, name, seq_fields, args,
                                             message):
    # each of these ended in a traceback or an unrelated error report
    if seq_fields is None:
        args = ["--cone", workdir / "cone.json", "--point", "20,2", *args]
    else:
        args = ["--seq", _write_seq(workdir, **seq_fields), *args]
    out = workdir / "o_bad_input"
    assert run_cli(["--out", out, name, *args]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "VALUE_ERROR"
    assert message in rep["message"]


def test_measured_rejects_a_fiber_that_is_no_metric(workdir):
    # within METRIC_TOL of a metric, but d(0, 2) exceeds the way through 1
    # by 1e-10: no graph reproduces it, so W1 has no sparse flow
    cone = json.loads((workdir / "cone.json").read_text())
    d = np.array([[0.0, 0.5, 1.0 + 1e-10], [0.5, 0.0, 0.5],
                  [1.0 + 1e-10, 0.5, 0.0]])
    cone["fiber"] = {"n": 3, "base": 0, "dist": list(d.ravel())}
    p = workdir / "near_metric_seq.json"
    p.write_text(json.dumps({"cones": [cone], "limit": cone,
                             "coverDepth": 1}))
    out = workdir / "o_near"
    assert run_cli(["--out", out, "measured", "--seq", p, "--k", 1]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "VALUE_ERROR"
    assert "shortest paths" in rep["message"]


@pytest.mark.parametrize("command, path, value, message", [
    # a null or a list where a number belongs raised an uncaught TypeError
    ("tau", ("window",), None, "bad.json"),
    ("tau", ("N",), None, "bad.json"),
    ("tau", ("distSteps",), [3], "bad.json"),
    ("ot", (0, "t"), None, "bad.json"),
    ("ot", (0, "mass"), None, "bad.json"),
    ("ellconv", ("cones", 0, "window"), None, "bad.json"),
    # a null distance or value became NaN, which passed every check
    ("tau", ("fiber", "dist", 1), None, "finite"),
    ("tau", ("warp", "vals", 3), None, "finite"),
    ("gh", ("dist", 1), None, "finite"),
    ("ot", (0, "mass"), math.nan, "finite"),
    ("ricci", ("vals", 5), None, "finite"),
    # a cone grid parameter ran coerced (window 1 or 2, distSteps 2,
    # distRefine 1), or, for distSteps -4, failed inside numpy
    ("tau", ("window",), -5, "window"),
    ("tau", ("window",), 0, "window"),
    ("tau", ("window",), 2.5, "window"),
    ("tau", ("distSteps",), 2.5, "distSteps"),
    ("tau", ("distSteps",), -4, "distSteps"),
    ("tau", ("distRefine",), 0, "distRefine"),
    ("tau", ("distRefine",), -2, "distRefine"),
    # 2.5 ran on 3 time points and true on 2
    ("tau", ("timeSteps",), 2.5, "timeSteps"),
    ("tau", ("timeSteps",), True, "timeSteps"),
    ("tau", ("timeSteps",), 0, "timeSteps"),
    ("tau", ("timeSteps",), -3, "timeSteps"),
    # coerced too: an atom at t 2 or 1, a fiber of 5 points based at 1,
    # and N NaN, inf, 1.0 or 2.0
    ("ot", (0, "t"), 2.7, "atom t"),
    ("ot", (0, "x"), True, "atom x"),
    ("gh", ("n",), 5.0, "fiber n"),
    ("gh", ("base",), 1.5, "fiber base"),
    ("gh", ("base",), True, "fiber base"),
    ("tau", ("fiber", "base"), 1.5, "fiber base"),
    ("tau", ("N",), math.nan, "exponent N"),
    ("tau", ("N",), math.inf, "exponent N"),
    ("tau", ("N",), True, "exponent N"),
    ("tau", ("N",), "2", "exponent N"),
])
def test_bad_numbers_in_an_input_file_are_a_value_error(workdir, command,
                                                        path, value, message):
    w = workdir
    cone = json.loads((w / "cone.json").read_text())
    (w / "seq.json").write_text(json.dumps(
        {"cones": [cone], "limit": cone, "coverDepth": 1}))
    runs = {   # each command's arguments; bad.json is the file made bad
        "tau": (["--cone", "bad.json", "--p", "3,2", "--q", "30,2"],
                "cone.json"),
        "ot": (["--cone", "cone.json", "--mu0", "bad.json", "--mu1",
                "mu1.json", "--seed", 1], "mu0.json"),
        "ellconv": (["--seq", "bad.json"], "seq.json"),
        "gh": (["--A", "bad.json", "--B", "fib.json", "--mode", "exact"],
               "fib.json"),
        "ricci": (["--warp", "bad.json", "--K", 1.0, "--n", 2,
                   "--fiber-bound", 1.0], "warp.json"),
    }
    args, source = runs[command]
    obj = json.loads((w / source).read_text())
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (w / "bad.json").write_text(json.dumps(obj))
    args = [w / a if str(a).endswith(".json") else a for a in args]
    out = w / "o_bad_numbers"
    assert run_cli(["--out", out, command, *args]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "VALUE_ERROR"
    assert message in rep["message"]
    assert "bad.json" in rep["message"]


@pytest.mark.parametrize("command", ["ot", "tcd"])
def test_bad_exponent_fails_before_the_tables(workdir, monkeypatch, command):
    # p is checked before the separations are read: no lower row is built
    rows = []
    build = cone_mod.GeneralizedCone._build_lower

    def counted(self, sources):
        out = build(self, sources)
        rows.append(len(out))
        return out

    monkeypatch.setattr(cone_mod.GeneralizedCone, "_build_lower", counted)
    extra = {"ot": ["--seed", 1], "tcd": ["--K", 0.0, "--N", 2.0]}[command]
    out = workdir / f"o_{command}_p"
    assert run_cli(["--out", out, command, "--cone", workdir / "cone.json",
                    "--mu0", workdir / "mu0.json", "--mu1", workdir / "mu1.json",
                    "--p", 1.5, *extra]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "VALUE_ERROR" and "p must lie" in rep["message"]
    assert rows == []


@pytest.mark.parametrize("samples", [0, -5])
def test_tcbb_bad_sample_count_is_a_value_error(workdir, samples):
    # reported as INSUFFICIENT_SAMPLES after 0 draws
    out = workdir / "o_tcbb_samples"
    assert run_cli(["--out", out, "tcbb", "--cone", workdir / "cone.json",
                    "--K", 0.0, f"--samples={samples}", "--seed", 1]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "VALUE_ERROR"
    assert "samples" in rep["message"]


def test_every_report_carries_its_command(workdir):
    w = workdir
    seq = _write_seq(w, schedule=[[1, 2]])
    (w / "pseq.json").write_text(json.dumps({"cones": [json.loads(
        (w / "cone.json").read_text())]}))
    cone = ["--cone", w / "cone.json"]
    runs = {
        "tau": cone + ["--p", "3,2", "--q", "30,2"],
        "geodesic": cone + ["--p", "0,2", "--q", "40,2"],
        "tcbb": cone + ["--K", 0.0, "--samples", 20, "--seed", 3],
        "ot": cone + ["--mu0", w / "mu0.json", "--mu1", w / "mu1.json",
                      "--seed", 1],
        "tcd": cone + ["--mu0", w / "mu0.json", "--mu1", w / "mu1.json",
                       "--K", 0.0, "--N", 2.0],
        "tmcp": cone + ["--mu0", w / "mu0.json", "--x1", "38,2",
                        "--K", 0.0, "--N", 2.0],
        "gh": ["--A", w / "fib.json", "--B", w / "fib.json"],
        "ellconv": ["--seq", seq],
        "measured": ["--seq", seq],
        "precompact": ["--seq", w / "pseq.json", "--K", 0.0, "--D", 4.0,
                       "--depth", 1],
        "tangent": cone + ["--point", "20,2", "--eps", "0.5,0.25"],
        "ricci": ["--warp", w / "warp.json", "--K", 1.0, "--n", 2,
                  "--fiber-bound", 1.0],
        "sectional": ["--warp", w / "warp.json", "--K", 1.0,
                      "--fiber-bound", -1.0],
        "preset": ["warp", "sin", "--n", 11],
    }
    for name, args in runs.items():
        out = w / f"o_cmd_{name}"
        assert run_cli(["--out", out, name, *args]) in (0, 2, 3), name
        rep = json.loads((out / "report.json").read_text())
        assert rep["command"] == name


@pytest.mark.parametrize("name, args", [
    ("ricci", ["--n", 2]),
    ("sectional", []),
])
def test_fail_report_exits_2(workdir, name, args):
    out = workdir / f"o_fail_{name}"
    code = run_cli(["--out", out, name, "--warp", workdir / "warp.json",
                    "--K", 1.0, *args, "--fiber-bound", -100.0])
    assert code == 2
    assert json.loads((out / "report.json").read_text())["verdict"] is False


def test_precompact_command(workdir):
    ts = np.linspace(0.03, math.pi - 0.03, 41)
    warp = {"a": ts[0], "b": ts[-1], "ts": list(ts),
            "vals": list(np.sin(ts))}
    fib = json.loads((workdir / "fib.json").read_text())
    cone = {"warp": warp, "fiber": fib, "N": 2.0, "window": 8}
    p = workdir / "pseq.json"
    p.write_text(json.dumps({"cones": [cone, cone]}))
    code = run_cli(["--out", workdir / "o_pre", "precompact", "--seq", p,
                    "--K", 1.0, "--D", 4.0, "--depth", 1])
    assert code in (0, 3)


def test_precompact_without_cones_is_a_value_error(workdir):
    p = workdir / "empty_seq.json"
    p.write_text(json.dumps({"cones": []}))
    out = workdir / "o_pre_empty"
    assert run_cli(["--out", out, "precompact", "--seq", p,
                    "--K", 1.0, "--D", 4.0]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep["error"] == "VALUE_ERROR"
    assert "cones" in rep["message"]


def test_preset_command(tmp_path):
    assert run_cli(["--out", tmp_path, "preset", "warp", "sin",
                    "--a", 0, "--b", 3.1, "--n", 21]) == 0
    obj = json.loads((tmp_path / "sin.json").read_text())
    assert len(obj["ts"]) == 21
    assert run_cli(["--out", tmp_path, "preset", "fms", "segment",
                    "--L", 2.0, "--n", 5]) == 0


def test_console_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "conelab.cli", "--out",
         str(workdir / "o_sub"), "tau", "--cone", str(workdir / "cone.json"),
         "--p", "0,0", "--q", "1,0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tau" in proc.stdout


def test_tau_and_geodesic_never_load_scipy(workdir):
    # scipy is imported inside the functions that call it, so the pair
    # commands run on numpy alone; a fresh interpreter shows what they load
    script = f"""
import json, sys
from conelab import cli
for cmd in ("tau", "geodesic"):
    assert cli.main(["--out", {str(workdir / "o_noscipy")!r}, cmd, "--cone",
                     {str(workdir / "cone.json")!r}, "--p", "0,2",
                     "--q", "40,2"]) == 0
print(json.dumps([m for m in ("scipy.optimize", "scipy.sparse")
                  if m in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_run_meta_records_peak_rss(workdir):
    out = workdir / "o_meta"
    assert run_cli(["--out", out, "tau", "--cone", workdir / "cone.json",
                    "--p", "0,2", "--q", "40,2"]) == 0
    rss = json.loads((out / "run_meta.json").read_text())["peak_rss_mb"]
    assert isinstance(rss, float) and rss > 0.0


def test_run_meta_records_peak_rss_at_entry(workdir):
    # two commands in one process: the peak is the process's high-water
    # mark, so the second starts at or above the first's peak, and each
    # records the mark at its entry beside it; report.json holds neither
    meta = []
    for name, args in (("o_rss1", ["--p", "0,2", "--q", "40,2"]),
                       ("o_rss2", ["--p", "3,1", "--q", "30,4"])):
        out = workdir / name
        assert run_cli(["--out", out, "tau", "--cone", workdir / "cone.json",
                        *args]) == 0
        meta.append(json.loads((out / "run_meta.json").read_text()))
        report = (out / "report.json").read_text()
        assert "rss" not in report
    (start1, peak1), (start2, peak2) = (
        (m["peak_rss_start_mb"], m["peak_rss_mb"]) for m in meta)
    assert all(isinstance(v, float) for v in (start1, peak1, start2, peak2))
    assert 0.0 < start1 <= peak1 <= start2 <= peak2


def test_every_traced_seam_exists():
    # bench/spans.py wraps these names for its per-layer metrics; a name it
    # cannot find is recorded as absent and its metric silently reads zero
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        # the W1 LP is a transport flow_lp call, traced as transport.lp
        assert tracer.absent == ["conelab.converge.linprog"]
    finally:
        tracer.uninstall()

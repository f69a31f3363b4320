"""Seeded input generator for the three benchmark workloads.

Grid and measure sizes are fixed, so every seed does the same amount of
work; the seed only picks the strip query pair, the `tcbb`/`ot` sampling
seeds and the point sets of the exact-GH batch.  Everything is written as
the JSON files the `conelab` CLI reads, plus a `spec.json` that records
the generated choices the oracles need.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from conelab.cone import GeneralizedCone
from conelab.metricspace import FiniteMetricSpace, circle_arc, segment
from conelab.warp import WarpingFunction

WORKLOADS = ("strip_pair", "arc_verify", "cos_converge")

GH_PAIRS = 6          # exact-GH calls come in (A, B), (B, A) pairs
GH_POINTS = 8         # the exact search is capped at 8 points


def _dump(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def _strip_pair(rng, out: Path) -> dict:
    """Acceptance-scale flat strip: 201 x 201 x 701 cells, window 8."""
    ts = np.linspace(0.0, 2.0, 201)
    cone = GeneralizedCone(WarpingFunction(ts, np.ones(201)),
                           segment(1.0, 101), N=2.0, dist_steps=100,
                           window=8, dist_refine=7)
    # to_json folds dist_refine into distSteps and omits distRefine, which
    # is what from_json needs: writing both would refine the grid twice
    _dump(out / "strip.json", cone.to_json())
    # a well-timelike pair: dt >= 1.6 and fiber distance <= 0.6
    s, t = int(rng.integers(0, 21)), int(rng.integers(180, 201))
    x = int(rng.integers(0, 101))
    y = int(np.clip(x + rng.integers(-60, 61), 0, 100))
    return {"p": [s, x], "q": [t, y],
            "truth": math.sqrt((ts[t] - ts[s]) ** 2 - (abs(x - y) / 100) ** 2)}


def _grid_measure(times, fibers) -> list:
    pts = [(t, x) for t in times for x in fibers]
    return [{"t": t, "x": x, "mass": 1.0 / len(pts)} for t, x in pts]


def _arc_verify(rng, out: Path) -> dict:
    """The cos-arc and sin-arc cones of criteria 9-10, 101 x 101 x 101."""
    ts = np.linspace(-math.pi / 2 * 0.96, math.pi / 2 * 0.96, 101)
    cos_cone = GeneralizedCone(WarpingFunction(ts, np.cos(ts)),
                               circle_arc(1.0, 0.8, 41), dist_steps=50,
                               window=8, dist_refine=2)
    ts = np.linspace(0.0, math.pi, 101)
    sin_cone = GeneralizedCone(WarpingFunction(ts, np.sin(ts)),
                               circle_arc(1.0, 0.8, 41), N=2.0, dist_steps=50,
                               window=8, dist_refine=2)
    _dump(out / "cos_arc.json", cos_cone.to_json())
    _dump(out / "sin_arc.json", sin_cone.to_json())
    fib20 = range(0, 40, 2)
    _dump(out / "ot_mu0.json", _grid_measure(range(10, 21), fib20))    # 220
    _dump(out / "ot_mu1.json", _grid_measure(range(80, 91), fib20))    # 220
    _dump(out / "tcd_mu0.json", _grid_measure(range(15, 24), fib20))   # 180
    _dump(out / "tcd_mu1.json", _grid_measure(range(77, 86), fib20))   # 180
    _dump(out / "tmcp_mu0.json",
          _grid_measure(range(15, 26), range(0, 40, 4)))               # 110
    return {"tcbb_seed": int(rng.integers(0, 2 ** 31)),
            "ot_seed": int(rng.integers(0, 2 ** 31))}


def _gh_space(rng) -> dict:
    pts = rng.uniform(0.0, 1.0, (GH_POINTS, 2))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return FiniteMetricSpace(d).to_json()


def _cos_converge(rng, out: Path) -> dict:
    """Criterion 11's cos^(1/i) -> 1 family, 101 x 101 x 51, cover depth 1."""
    ts = np.linspace(-math.pi / 2 * 0.98, math.pi / 2 * 0.98, 101)
    fib = segment(1.0, 51)
    fam = [GeneralizedCone(WarpingFunction(ts, np.cos(ts) ** (1.0 / i)), fib,
                           dist_steps=50, window=8)
           for i in (1, 2, 4, 8, 16)]
    lim = GeneralizedCone(WarpingFunction(ts, np.ones(101)), fib,
                          dist_steps=50, window=8)
    seq = {"cones": [c.to_json() for c in fam], "limit": lim.to_json(),
           "coverDepth": 1}
    _dump(out / "seq.json", seq)
    for k in range(GH_PAIRS):
        _dump(out / f"gh_a{k}.json", _gh_space(rng))
        _dump(out / f"gh_b{k}.json", _gh_space(rng))
    return {}


_GENERATORS = {"strip_pair": _strip_pair, "arc_verify": _arc_verify,
               "cos_converge": _cos_converge}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under `out` and return its spec."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    spec = _GENERATORS[workload](rng, out)
    spec.update(workload=workload, seed=seed)
    _dump(out / "spec.json", spec)
    return spec

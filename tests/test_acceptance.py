"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines as they complete.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conelab.cone import GeneralizedCone
from conelab.converge import (cone_sequence, precompact_harness, tangent_cone,
                              uniform_modulus)
from conelab.curvature import ricci_reduction, sectional_reduction
from conelab.metricspace import (FiniteMetricSpace, circle_arc, gh_distance,
                                 segment, single_point)
from conelab.model2d import FourPointConfig, config_margin, tcbb_verify
from conelab.transport import (DiscreteMeasure, distortion,
                               separation_matrix, solve_lp, tcd_verify,
                               tmcp_verify)
from conelab.warp import WarpingFunction

_CACHE = {}


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


def strip_fine():
    if "strip" not in _CACHE:
        ts = np.linspace(0.0, 2.0, 201)
        cone = GeneralizedCone(WarpingFunction(ts, np.ones(201)),
                               segment(1.0, 101), N=2.0, dist_steps=100,
                               window=8, dist_refine=7)
        t0 = time.time()
        cone.tables()
        _CACHE["strip"] = (cone, time.time() - t0)
    return _CACHE["strip"]


def mink_fine():
    if "mink" not in _CACHE:
        ts = np.linspace(0.5, 2.0, 201)
        cone = GeneralizedCone(WarpingFunction(ts, ts.copy()),
                               segment(1.0, 101), dist_steps=100, window=8,
                               dist_refine=2)
        t0 = time.time()
        cone.tables()
        _CACHE["mink"] = (cone, time.time() - t0)
    return _CACHE["mink"]


def test_criterion_01_minkowski_strip_oracle():
    cone, build_s = strip_fine()
    lo, hi = cone.tables()
    ts, rs = cone.f.ts, cone.dist_grid
    dt = ts[None, :, None] - ts[:, None, None]
    rr = rs[None, None, :]
    truth = np.where(dt >= rr - 1e-12,
                     np.sqrt(np.maximum(dt ** 2 - rr ** 2, 0.0)), -np.inf)
    both = (lo > -np.inf) & (truth > -np.inf)
    err = float(np.abs(lo[both] - truth[both]).max())
    lo_valid = bool((lo <= truth + 1e-7).all())
    tm = truth > -np.inf
    hi_valid = bool((hi[tm] >= truth[tm] - 1e-7).all())
    ok = err <= 0.05 and lo_valid and hi_valid and build_s <= 30.0
    report(1, ok, f"max|lo-truth|={err:.4f} (<=0.05), "
                  f"lo<=truth<=hi={lo_valid and hi_valid}, "
                  f"build={build_s:.1f}s (<=30)")


def test_criterion_02_minkowski_cone_oracle():
    cone, _ = mink_fine()
    lo, hi = cone.tables()
    ts, rs = cone.f.ts, cone.dist_grid
    S = ts[:, None, None]
    T = ts[None, :, None]
    R = rs[None, None, :]
    oracle = S * S + T * T - 2 * S * T * np.cosh(R)
    causal = lo > -np.inf
    err = float(np.abs(lo[causal] ** 2 - oracle[causal]).max())
    oc = (oracle > 0) & (T >= S)
    covered = bool((hi[oc] > -np.inf).all())
    report(2, err <= 0.1 and covered,
           f"max|lo^2-embedding oracle|={err:.4f} (<=0.1), "
           f"hi covers oracle-causal={covered}")


def test_criterion_03_reverse_triangle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for cone, _ in (strip_fine(), mink_fine()):
        n, m = cone.f.n, cone.m
        for table in cone.tables():
            checked = 0
            while checked < 10000:
                s, u, t = np.sort(rng.integers(0, n, 3))
                r1 = int(rng.integers(0, m))
                r2 = int(rng.integers(0, m - r1))
                a, b = table[s, u, r1], table[u, t, r2]
                if a == -np.inf or b == -np.inf:
                    continue
                worst = min(worst, float(table[s, t, r1 + r2] - (a + b)))
                checked += 1
    report(3, worst >= -1e-9, f"worst triangle slack={worst:.2e} (>=-1e-9)")


def test_criterion_04_warping_monotonicity():
    ts = np.linspace(0.5, 2.0, 101)
    f_cone = GeneralizedCone(WarpingFunction(ts, ts.copy()), segment(1.0, 51),
                             dist_steps=50, window=8)
    g_cone = GeneralizedCone(WarpingFunction(ts, 0.8 * ts), segment(1.0, 51),
                             dist_steps=50, window=8)
    lo_f, _ = f_cone.tables()
    lo_g, _ = g_cone.tables()
    pointwise = bool((lo_g >= lo_f).all())
    nested = bool(((lo_f > -np.inf) <= (lo_g > -np.inf)).all())
    report(4, pointwise and nested,
           f"l_g >= l_f exact={pointwise}, causal sets nest={nested}")


def test_criterion_05_scaling_isomorphism():
    ts = np.linspace(0.0, 2.0, 101)
    strip = GeneralizedCone(WarpingFunction(ts, np.ones(101)),
                            segment(1.0, 51), dist_steps=50, window=8)
    ts2 = np.linspace(0.5, 2.0, 101)
    mink = GeneralizedCone(WarpingFunction(ts2, ts2.copy()), segment(1.0, 51),
                           dist_steps=50, window=8)
    d1 = strip.scaling_isomorphism_check(2.0)
    d2 = mink.scaling_isomorphism_check(2.0)
    report(5, d1 <= 1e-12 and d2 <= 1e-12,
           f"lambda=2 deviations: strip={d1:.2e}, cone={d2:.2e} (<=1e-12)")


def _vertex_oracle(L, a, b, p):
    n0, n1 = L.shape
    cells = [(i, j) for i in range(n0) for j in range(n1)]
    best = None
    for basis in itertools.combinations(cells, n0 + n1 - 1):
        parent = list(range(n0 + n1))

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u
        ok = True
        for i, j in basis:
            ru, rv = find(i), find(n0 + j)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if not ok:
            continue
        A = np.zeros((n0 + n1, len(basis)))
        for col, (i, j) in enumerate(basis):
            A[i, col] = 1.0
            A[n0 + j, col] = 1.0
        x, *_ = np.linalg.lstsq(A, np.concatenate([a, b]), rcond=None)
        if np.abs(A @ x - np.concatenate([a, b])).max() > 1e-9 \
                or x.min() < -1e-9:
            continue
        if any(L[i, j] < 0 and x[c] > 1e-12 for c, (i, j) in enumerate(basis)):
            continue
        val = sum(max(L[i, j], 0.0) ** p * x[c]
                  for c, (i, j) in enumerate(basis))
        best = val if best is None else max(best, val)
    return best


def test_criterion_06_ot_oracles():
    ts = np.linspace(0.0, 2.0, 41)
    cone = GeneralizedCone(WarpingFunction(ts, np.ones(41)), segment(1.0, 21),
                           dist_steps=20, window=8)
    rng = np.random.default_rng(6)
    worst44 = 0.0
    done = 0
    while done < 20:
        pts0 = list(dict.fromkeys((int(rng.integers(0, 10)),
                                   int(rng.integers(0, 21)))
                                  for _ in range(4)))
        pts1 = list(dict.fromkeys((int(rng.integers(28, 41)),
                                   int(rng.integers(0, 21)))
                                  for _ in range(4)))
        if len(pts0) < 4 or len(pts1) < 4:
            continue
        a = rng.uniform(0.5, 1.5, 4)
        b = rng.uniform(0.5, 1.5, 4)
        mu0 = DiscreteMeasure(tuple(pts0), a / a.sum())
        mu1 = DiscreteMeasure(tuple(pts1), b / b.sum())
        c = solve_lp(cone, mu0, mu1, 0.5)
        L = separation_matrix(cone, c.mu0, c.mu1)
        oracle = _vertex_oracle(L, c.mu0.masses, c.mu1.masses, 0.5)
        worst44 = max(worst44, abs(c.p_value - oracle))
        done += 1
    worst5 = 0.0
    for trial in range(10):
        xs0 = rng.choice(21, size=5, replace=False)
        xs1 = rng.choice(21, size=5, replace=False)
        mu0 = DiscreteMeasure.uniform([(2, int(x)) for x in sorted(xs0)])
        mu1 = DiscreteMeasure.uniform([(38, int(x)) for x in sorted(xs1)])
        c = solve_lp(cone, mu0, mu1, 0.5)
        L = separation_matrix(cone, c.mu0, c.mu1)
        best = max(sum(max(L[i, s[i]], 0.0) ** 0.5 for i in range(5)) / 5
                   for s in itertools.permutations(range(5))
                   if all(L[i, s[i]] >= 0 for i in range(5)))
        worst5 = max(worst5, abs(c.p_value - best))
    report(6, worst44 <= 1e-8 and worst5 <= 1e-8,
           f"4x4 vs vertex enumeration: {worst44:.2e}; "
           f"5-atom vs permutations: {worst5:.2e} (<=1e-8)")


def test_criterion_07_distortion_coefficients():
    rng = np.random.default_rng(7)
    exact0 = all(distortion(0.0, N, t, th) == t
                 for N, t, th in [(2.0, 0.3, 2.0), (5.0, 0.9, 0.1),
                                  (1.0, 0.0, 1.0)])
    inf_case = distortion(2.0, 1.0, 0.7, 1.0, modified=True) == math.inf

    def ode_sin(kappa, x, steps=2000):
        v, dv, h = 0.0, 1.0, x / steps
        for _ in range(steps):
            k1 = (dv, -kappa * v)
            k2 = (dv + h / 2 * k1[1], -kappa * (v + h / 2 * k1[0]))
            k3 = (dv + h / 2 * k2[1], -kappa * (v + h / 2 * k2[0]))
            k4 = (dv + h * k3[1], -kappa * (v + h * k3[0]))
            v += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            dv += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return v
    worst = 0.0
    for _ in range(100):
        K = float(rng.uniform(-3, 3))
        N = float(rng.uniform(1, 5))
        t = float(rng.uniform(0, 1))
        kappa = K / N
        cap = math.pi / math.sqrt(kappa) if kappa > 0 else 4.0
        th = float(rng.uniform(0.05, 0.95) * min(cap, 4.0))
        oracle = ode_sin(kappa, t * th) / ode_sin(kappa, th)
        worst = max(worst, abs(distortion(K, N, t, th) - oracle))
    report(7, exact0 and inf_case and worst <= 1e-6,
           f"sigma_0=t exact={exact0}, K>0 N=1 modified=inf={inf_case}, "
           f"ODE oracle max err={worst:.2e} (<=1e-6)")


def _bump(center_t, center_x, spacing_t, spacing_x):
    pts, ws = [], []
    for dt_, wt in ((-1, 1.0), (0, 2.0), (1, 1.0)):
        for dx, wx in ((-1, 1.0), (0, 2.0), (1, 1.0)):
            pts.append((center_t + dt_ * spacing_t,
                        center_x + dx * spacing_x))
            ws.append(wt * wx)
    ws = np.array(ws)
    return DiscreteMeasure(tuple(pts), ws / ws.sum())


def test_criterion_08_tcd_flat_strip():
    cone, build_s = strip_fine()
    mu0 = _bump(25, 50, 6, 6)
    mu1 = _bump(175, 50, 6, 6)
    t0 = time.time()
    rep = tcd_verify(cone, mu0, mu1, 0.5, 0.0, 2.0,
                     t_grid=[k / 8 for k in range(1, 8)], tol=0.05)
    elapsed = time.time() - t0
    ok = rep["min_margin"] >= -0.05 and elapsed <= 60.0
    report(8, ok, f"min margin={rep['min_margin']:.4f} (>=-0.05), "
                  f"bracket={rep['bracket_width']:.3f}, "
                  f"verify={elapsed:.1f}s (<=60)")


def test_criterion_09_tmcp():
    cone, _ = strip_fine()
    mu0 = _bump(25, 50, 6, 6)
    rep_flat = tmcp_verify(cone, mu0, (190, 50), 0.0, 2.0, tol=0.05)
    flat_ok = rep_flat["verdict"] in ("PASS", "INCONCLUSIVE")
    ts = np.linspace(0.0, math.pi, 101)
    sin_cone = GeneralizedCone(WarpingFunction(ts, np.sin(ts)),
                               circle_arc(1.0, 0.8, 41), N=2.0,
                               dist_steps=50, window=8, dist_refine=2)
    mu0s = DiscreteMeasure.uniform([(20, 15), (20, 25), (30, 20)])
    rep_cone = tmcp_verify(sin_cone, mu0s, (80, 20), 2.0, 3.0, tol=0.05)
    cone_ok = rep_cone["verdict"] in ("PASS", "INCONCLUSIVE")
    ok = flat_ok and cone_ok and rep_flat["min_margin"] >= -0.05 - \
        rep_flat["bracket_width"]
    report(9, ok,
           f"flat: verdict={rep_flat['verdict']} "
           f"margin={rep_flat['min_margin']:.4f}; contraction instance "
           f"TMCP^e(2,3): verdict={rep_cone['verdict']} "
           f"margin={rep_cone['min_margin']:.4f} (never FAIL)")


def test_criterion_10_tcbb():
    cone, _ = strip_fine()
    rep = tcbb_verify(cone, K=0.0, samples=500, tol=0.02, seed=7)
    strip_ok = rep["pass"]
    rep_b = tcbb_verify(cone, K=0.0, samples=500, tol=0.02, seed=7)
    deterministic = rep_b["worst_margin"] == rep["worst_margin"]
    ts = np.linspace(-math.pi / 2 * 0.96, math.pi / 2 * 0.96, 101)
    cos_cone = GeneralizedCone(WarpingFunction(ts, np.cos(ts)),
                               circle_arc(1.0, 0.8, 41), dist_steps=50,
                               window=8, dist_refine=2)
    rep_cos = tcbb_verify(cos_cone, K=-1.0, samples=300, tol=0.02, seed=11)
    b1 = math.sqrt(6.25 - 0.01)
    c1 = math.sqrt(2.25 - 0.01)
    b2 = math.sqrt(16.0 - 0.0225)
    c2 = math.sqrt(9.0 - 0.0225)
    injected = FourPointConfig(1.0, b1, b2, c1, c2, 0.3)
    flagged = config_margin(injected, 0.0) < -0.02
    ok = strip_ok and deterministic and rep_cos["pass"] and flagged
    report(10, ok,
           f"strip K=0: worst={rep['worst_margin']:.4f} pass={strip_ok} "
           f"deterministic={deterministic}; cos-arc K=-1: "
           f"worst={rep_cos['worst_margin']:.4f} pass={rep_cos['pass']}; "
           f"injected violation flagged={flagged}")


def test_criterion_11_uniform_ell_convergence():
    nt, nx = 100, 51
    ts = np.linspace(-math.pi / 2 * 0.98, math.pi / 2 * 0.98, nt + 1)
    fam = [GeneralizedCone(WarpingFunction(ts, np.cos(ts) ** (1.0 / i)),
                           segment(1.0, nx), window=8)
           for i in (1, 2, 4, 8, 16)]
    lim = GeneralizedCone(WarpingFunction(ts, np.ones(nt + 1)),
                          segment(1.0, nx), window=8)
    seq = cone_sequence(fam, lim, depth=2)
    dt = float(np.diff(ts).max())
    eps1s, eps2s, incs = [], [], []
    for i in range(5):
        m = uniform_modulus(seq, i, 1, 2, delta=0.5 * dt)
        eps1s.append(m.eps1)
        eps2s.append(m.eps2)
        incs.append(m.inclusion1 and m.inclusion2)
    strictly_dec = all(a > b for a, b in zip(eps1s, eps1s[1:]))
    # one-sided family: eps2 vanishes identically (monotonicity direction)
    eps2_zero = all(e == 0.0 for e in eps2s)
    tail_ok = eps1s[-1] <= 0.2 and eps2s[-1] <= 0.2
    report(11, strictly_dec and eps2_zero and tail_ok and all(incs),
           f"eps1={['%.4f' % e for e in eps1s]} strictly decreasing="
           f"{strictly_dec}, eps2=0 (one-sided), "
           f"tail<=0.2={tail_ok}, inclusions={all(incs)}")


def test_criterion_12_precompactness():
    nt = 80
    ts = np.linspace(0.03, math.pi - 0.03, nt + 1)
    profiles = [np.sin(ts) * (1.0 + 0.1 / i) for i in (1, 2, 4, 8, 16)]
    cones = [GeneralizedCone(WarpingFunction(ts, v), segment(1.0, 11),
                             N=2.0, window=8) for v in profiles]
    rep = precompact_harness(cones, K=1.0, D=4.0, depth=1)
    pass5 = rep["selected"] == [0, 1, 2, 3, 4] and \
        rep["verdict"] in ("PASS", "INCONCLUSIVE")
    bad = GeneralizedCone(WarpingFunction(ts, np.sin(ts) + 0.1),
                          segment(1.0, 11), N=2.0, window=8)
    try:
        precompact_harness([bad], K=1.0, D=4.0)
        rejected, msg = False, "no rejection"
    except ValueError as exc:
        rejected, msg = "at t=" in str(exc), str(exc)
    report(12, pass5 and rejected,
           f"5 profiles pass log-slope bound (verdict={rep['verdict']}); "
           f"violator rejected with location={rejected}")


def test_criterion_13_tangent_cone():
    ts = np.linspace(0.2, 2.0, 91)
    cone = GeneralizedCone(WarpingFunction(ts, ts.copy()), segment(1.0, 5),
                           window=8)
    ti = int(np.argmin(np.abs(ts - 1.0)))
    eps = [1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64]
    rep = tangent_cone(cone, (ti, 2), eps, frame=0.5, time_steps=40, depth=1)
    flat = all(d <= 2 * e for d, e in zip(rep["warp_deviation"], rep["eps"]))
    report(13, flat and rep["verdict"] == "PASS",
           f"warp deviation<=2eps={flat}, verdict={rep['verdict']} "
           f"(fiber tangent: {rep['fiber_tangent_points']} point)")


def test_criterion_14_curvature_reductions():
    f_sin = WarpingFunction(np.linspace(0, math.pi, 201),
                            np.sin(np.linspace(0, math.pi, 201)))
    r1 = ricci_reduction(f_sin, 1.0, 2, 1.0)
    ts = np.linspace(0, 1, 21)
    r2 = ricci_reduction(WarpingFunction(ts, np.ones(21)), 0.0, 3, 0.0)
    r3 = ricci_reduction(WarpingFunction(f_sin.ts, f_sin.vals + 0.1),
                         1.0, 2, 10.0)
    examples_ok = r1.verdict and r2.verdict and not r3.verdict
    flat = WarpingFunction(ts, np.ones(21))
    witness_pass = sectional_reduction(flat, 0.0, 0.0).verdict
    witness_fail = not sectional_reduction(flat, -4.0, 0.0).verdict
    report(14, examples_ok and witness_pass and witness_fail,
           f"worked examples verdicts={examples_ok}; non-monotonicity "
           f"witness: K=0 pass={witness_pass}, K'=-4 fail={witness_fail}")


def test_criterion_15_gh_exact_oracle():
    ex1 = gh_distance(segment(1.0, 4), segment(1.0, 4), "exact")[0] == 0.0
    two = lambda g: FiniteMetricSpace(np.array([[0.0, g], [g, 0.0]]))
    lo2, up2, _ = gh_distance(two(1.0), two(3.0), "exact")
    ex2 = abs(lo2 - 1.0) <= 1e-12 and abs(up2 - 1.0) <= 1e-12
    lo3, up3, _ = gh_distance(single_point(), two(2.0), "exact")
    ex3 = abs(lo3 - 1.0) <= 1e-12
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(50):
        na, nb = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        pa = rng.uniform(0, 1, (na, 2))
        pb = rng.uniform(0, 1, (nb, 2))
        A = FiniteMetricSpace(np.sqrt(((pa[:, None] - pa[None]) ** 2).sum(-1)))
        B = FiniteMetricSpace(np.sqrt(((pb[:, None] - pb[None]) ** 2).sum(-1)))
        worst = max(worst, abs(gh_distance(A, B, "exact")[0]
                               - gh_distance(B, A, "exact")[0]))
    report(15, ex1 and ex2 and ex3 and worst <= 1e-12,
           f"worked examples={ex1 and ex2 and ex3}; symmetry on 50 random "
           f"pairs: max asymmetry={worst:.2e}")

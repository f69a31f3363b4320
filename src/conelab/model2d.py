"""Constant-curvature 2D Lorentzian models and the 4-point comparison check.

For curvature K the model is Minkowski (K=0), the covering of the
pseudosphere (K>0, radius 1/sqrt(K)) or of pseudohyperbolic space (K<0,
radius 1/sqrt(-K)).  Points carry chart coordinates (time, space); for
K != 0 the quadric embedding vector is stored alongside and the causal
relation is evaluated in conformal-strip coordinates of the cover, so the
chart restriction is explicit: pairs the chart cannot certify raise
OutsideChart and verifiers count them as rejections.

Comparison configurations are realized in closed form: both constraint
equations are linear in (cosh-chart combinations) once written on the level
of the quadric invariant, so the two-equation elimination that solves the
flat case carries over verbatim.  Realized points are re-measured and must
reproduce the five constrained separations to 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainViolation, InsufficientSamples, MixedModels,
                     OutsideChart, Unrealizable)
from .kappa import pi_kappa

NEG_INF = -math.inf
RESIDUAL_TOL = 1e-8
QUADRIC_TOL = 1e-12
REALIZE_SLACK = 1e-10   # float slack of the closed-form realization's roots


def _gd(x: float) -> float:
    """Gudermannian: conformal coordinate of the hyperbolic one."""
    return math.atan(math.sinh(x))


@dataclass(frozen=True)
class ModelPoint:
    K: float
    time: float
    space: float
    coords: tuple = field(default=None)

    def __post_init__(self):
        K, t, x = self.K, self.time, self.space
        if K == 0.0:
            emb = (t, x)
        elif K < 0.0:
            r = 1.0 / math.sqrt(-K)
            emb = (r * math.cosh(x) * math.cos(t), r * math.cosh(x) * math.sin(t),
                   r * math.sinh(x))
            q = -emb[0] ** 2 - emb[1] ** 2 + emb[2] ** 2
            if abs(q + r * r) > QUADRIC_TOL * max(1.0, r * r) * (1 + math.cosh(x) ** 2):
                raise ValueError("embedding off the quadric")
        else:
            r = 1.0 / math.sqrt(K)
            emb = (r * math.sinh(t), r * math.cosh(t) * math.cos(x),
                   r * math.cosh(t) * math.sin(x))
            q = -emb[0] ** 2 + emb[1] ** 2 + emb[2] ** 2
            if abs(q - r * r) > QUADRIC_TOL * max(1.0, r * r) * (1 + math.cosh(t) ** 2):
                raise ValueError("embedding off the quadric")
        object.__setattr__(self, "coords", emb)


def model_tau(K: float, p: ModelPoint, q: ModelPoint) -> float:
    """Signed time separation in the model; -inf for non-causal pairs.

    K < 0 values are capped at pi_{-K} (the first conjugate sweep of the
    cover); K > 0 pairs outside the normal chart raise OutsideChart.
    """
    if p.K != K or q.K != K:
        raise MixedModels(f"points on K={p.K},{q.K}, asked K={K}")
    if K == 0.0:
        dt = q.time - p.time
        dx = q.space - p.space
        if dt < abs(dx):
            return NEG_INF
        return math.sqrt(max(dt * dt - dx * dx, 0.0))
    if K < 0.0:
        r = 1.0 / math.sqrt(-K)
        dtt = q.time - p.time
        if abs(dtt) > math.pi + 1e-12:
            raise OutsideChart("time coordinate gap exceeds the conjugate sweep")
        dth = _gd(q.space) - _gd(p.space)
        if dtt < abs(dth):
            return NEG_INF
        c = (math.cosh(p.space) * math.cosh(q.space) * math.cos(dtt)
             - math.sinh(p.space) * math.sinh(q.space))
        return r * math.acos(min(1.0, max(-1.0, c)))
    r = 1.0 / math.sqrt(K)
    dphi = q.space - p.space
    if abs(dphi) >= math.pi / 2:
        raise OutsideChart("spatial coordinate gap exceeds the normal chart")
    deta = _gd(q.time) - _gd(p.time)
    if deta < abs(dphi):
        return NEG_INF
    e = (math.cosh(p.time) * math.cosh(q.time) * math.cos(dphi)
         - math.sinh(p.time) * math.sinh(q.time))
    if e < 1.0 - 1e-12:
        raise OutsideChart("causal pair not geodesically certified in-chart")
    return r * math.acosh(max(1.0, e))


def model_tau_nonneg(K: float, p: ModelPoint, q: ModelPoint) -> float:
    """max{0, signed separation}: the comparison side of the 4-point check."""
    v = model_tau(K, p, q)
    return v if v > 0.0 else 0.0


@dataclass(frozen=True)
class FourPointConfig:
    """Separations of a future endpoint-causal quadruple y << x << z1 <= z2.

    Past configurations are fed through the same structure after time
    reversal (the models are time symmetric)."""
    tau_yx: float
    tau_yz1: float
    tau_yz2: float
    tau_xz1: float
    tau_xz2: float
    tau_z1z2: float
    kind: str = "future"
    points: tuple = None
    bounds: dict = None     # optional (lo, hi) brackets per constraint

    def __post_init__(self):
        vals = (self.tau_yx, self.tau_yz1, self.tau_yz2,
                self.tau_xz1, self.tau_xz2, self.tau_z1z2)
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("all six separations must be finite")
        if self.tau_yx <= 0 or self.tau_yz1 <= 0 or self.tau_yz2 <= 0 \
                or self.tau_xz1 <= 0 or self.tau_xz2 <= 0:
            raise ValueError("strict separations must be positive")
        if self.tau_z1z2 < 0:
            raise ValueError("tau(z1,z2) must be >= 0")


def _solve_zbar(K: float, a: float, b: float, c: float,
                side: float) -> ModelPoint:
    """Model point with tau(ybar, .) = b and tau(xbar, .) = c.

    ybar sits at the chart origin, xbar at chart time a * sqrt|K| on the
    axis.  Written on the quadric invariant both constraints are linear in
    the chart cosines, so the flat two-equation elimination applies to all
    three curvatures.  `side` picks the sign of the spatial coordinate.
    """
    if K == 0.0:
        t = (a * a + b * b - c * c) / (2.0 * a)
        v = t * t - b * b
        if v < -REALIZE_SLACK * max(1.0, b * b):
            raise Unrealizable(f"flat elimination gives x^2 = {v:.3e} < 0")
        return ModelPoint(0.0, t, side * math.sqrt(max(v, 0.0)))
    if K < 0.0:
        rk = math.sqrt(-K)
        abar, Cb, Cc = a * rk, math.cos(b * rk), math.cos(c * rk)
        if math.sin(abar) < 1e-12:
            raise Unrealizable("axis separation too close to the conjugate sweep")
        Sb = (Cc - Cb * math.cos(abar)) / math.sin(abar)
        h2 = Cb * Cb + Sb * Sb
        if h2 < 1.0 - REALIZE_SLACK:
            raise Unrealizable(f"cosh^2 chi = {h2:.6f} < 1")
        chi = math.acosh(max(1.0, math.sqrt(h2)))
        return ModelPoint(K, math.atan2(Sb, Cb), side * chi)
    rk = math.sqrt(K)
    abar, Eb, Ec = a * rk, math.cosh(b * rk), math.cosh(c * rk)
    S = (math.cosh(abar) * Eb - Ec) / math.sinh(abar)
    ch = math.sqrt(1.0 + S * S)
    cosphi = Eb / ch
    if cosphi > 1.0 + REALIZE_SLACK:
        raise Unrealizable(f"cos phi = {cosphi:.6f} > 1")
    phi = math.acos(min(1.0, cosphi))
    return ModelPoint(K, math.asinh(S), side * phi)


def realize_comparison(cfg: FourPointConfig, K: float):
    """Comparison quadruple (ybar, xbar, z1bar, z2bar) in the K-model.

    z1bar and z2bar sit on opposite sides of the axis through ybar, xbar.
    Raises DomainViolation when tau(y, z2) >= pi_{-K}, Unrealizable when
    the constraints admit no solution or fail the 1e-8 re-measure check.
    """
    if cfg.tau_yz2 >= pi_kappa(-K):
        raise DomainViolation(
            f"tau(y,z2)={cfg.tau_yz2:.4g} >= pi_(-K)={pi_kappa(-K):.4g}")
    rk = math.sqrt(abs(K)) if K != 0.0 else 1.0
    ybar = ModelPoint(K, 0.0, 0.0)
    xbar = ModelPoint(K, cfg.tau_yx * (rk if K != 0.0 else 1.0), 0.0)
    z1bar = _solve_zbar(K, cfg.tau_yx, cfg.tau_yz1, cfg.tau_xz1, +1.0)
    z2bar = _solve_zbar(K, cfg.tau_yx, cfg.tau_yz2, cfg.tau_xz2, -1.0)
    # realize-then-measure consistency
    checks = [
        (model_tau_nonneg(K, ybar, xbar), cfg.tau_yx),
        (model_tau_nonneg(K, ybar, z1bar), cfg.tau_yz1),
        (model_tau_nonneg(K, ybar, z2bar), cfg.tau_yz2),
        (model_tau_nonneg(K, xbar, z1bar), cfg.tau_xz1),
        (model_tau_nonneg(K, xbar, z2bar), cfg.tau_xz2),
    ]
    resid = max(abs(got - want) for got, want in checks)
    if resid > RESIDUAL_TOL * max(1.0, cfg.tau_yz2):
        raise Unrealizable(f"re-measure residual {resid:.3e}")
    return ybar, xbar, z1bar, z2bar


def config_margin(cfg: FourPointConfig, K: float) -> float:
    """tau(z1,z2) - taubar(z1bar, z2bar): negative beyond tolerance means
    the 4-point condition fails for this configuration."""
    _, _, z1bar, z2bar = realize_comparison(cfg, K)
    try:
        tbar = model_tau_nonneg(K, z1bar, z2bar)
    except OutsideChart:
        raise Unrealizable("comparison pair left the normal chart")
    return cfg.tau_z1z2 - tbar


# -- interval enclosure of the comparison value ------------------------------
#
# Table values only bracket the five constraint separations, so the
# comparison distance is propagated through the closed-form realization in
# interval arithmetic.  The resulting lower end T_lo satisfies
# T_lo <= taubar(true inputs) for any true values inside the brackets, so
# hi(z1,z2) - T_lo is nonnegative whenever the 4-point condition holds and
# a value below -tol is a genuine violation certificate.

def _imul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(vals), max(vals)


def _idiv_pos(a, b):
    """a / b for an interval b bounded away from 0 with b_lo > 0."""
    return min(a[0] / b[0], a[0] / b[1]), max(a[1] / b[0], a[1] / b[1])


def _isq(a):
    if a[0] >= 0:
        return a[0] * a[0], a[1] * a[1]
    if a[1] <= 0:
        return a[1] * a[1], a[0] * a[0]
    return 0.0, max(a[0] * a[0], a[1] * a[1])


def _icos(a):
    if a[1] - a[0] >= 2 * math.pi:
        return -1.0, 1.0
    vals = [math.cos(a[0]), math.cos(a[1])]
    k0 = math.ceil(a[0] / math.pi)
    k1 = math.floor(a[1] / math.pi)
    for k in range(k0, k1 + 1):
        vals.append(math.cos(k * math.pi))
    return min(vals), max(vals)


def _isin_0pi(a):
    """sin over an interval inside [0, pi]."""
    lo = min(math.sin(a[0]), math.sin(a[1]))
    hi = 1.0 if a[0] <= math.pi / 2 <= a[1] else max(math.sin(a[0]), math.sin(a[1]))
    return lo, hi


def _isqrt_clip(a):
    return math.sqrt(max(a[0], 0.0)), math.sqrt(max(a[1], 0.0))


def _flat_zbar_interval(a, b, c):
    """Intervals for (time, |space|) of the flat realization."""
    num = (a[0] * a[0] + b[0] * b[0] - c[1] * c[1],
           a[1] * a[1] + b[1] * b[1] - c[0] * c[0])
    t = _idiv_pos(num, (2 * a[0], 2 * a[1]))
    x2 = (_isq(t)[0] - b[1] * b[1], _isq(t)[1] - b[0] * b[0])
    return t, _isqrt_clip(x2)


def comparison_interval(K: float, a, b1, c1, b2, c2):
    """Enclosure [T_lo, T_hi] of taubar(z1bar, z2bar) over all constraint
    values inside the given brackets (each a (lo, hi) pair)."""
    if K == 0.0:
        t1, x1 = _flat_zbar_interval(a, b1, c1)
        t2, x2 = _flat_zbar_interval(a, b2, c2)
        dt = (t2[0] - t1[1], t2[1] - t1[0])
        xs = (x1[0] + x2[0], x1[1] + x2[1])
        certain = dt[0] >= xs[1]
        possible = dt[1] >= xs[0]
        T_hi = math.sqrt(max(dt[1] ** 2 - xs[0] ** 2, 0.0)) if possible else 0.0
        T_lo = math.sqrt(max(dt[0] ** 2 - xs[1] ** 2, 0.0)) if certain else 0.0
        return T_lo, T_hi
    if K < 0.0:
        rk = math.sqrt(-K)
        r = 1.0 / rk
        if max(b2[1], b1[1]) * rk >= math.pi or a[1] * rk >= math.pi:
            raise DomainViolation("constraint bracket reaches the conjugate sweep")
        abar = (a[0] * rk, a[1] * rk)
        sin_a = _isin_0pi(abar)
        if sin_a[0] <= 1e-12:
            raise Unrealizable("axis separation bracket touches the conjugate sweep")
        cos_a = _icos(abar)

        def zbar(b, c):
            Cb = (math.cos(b[1] * rk), math.cos(b[0] * rk))
            Cc = (math.cos(c[1] * rk), math.cos(c[0] * rk))
            num = (Cc[0] - _imul(Cb, cos_a)[1], Cc[1] - _imul(Cb, cos_a)[0])
            S = _idiv_pos(num, sin_a)
            h = (_isq(Cb)[0] + _isq(S)[0], _isq(Cb)[1] + _isq(S)[1])
            ch = _isqrt_clip((max(h[0], 1.0), max(h[1], 1.0)))
            sh = _isqrt_clip((h[0] - 1.0, h[1] - 1.0))
            tt = (math.atan2(max(S[0], 0.0), Cb[1]), math.atan2(max(S[1], 0.0), Cb[0]))
            theta = (math.atan(sh[0]), math.atan(sh[1]))  # gd(arcsinh) = atan
            return tt, ch, sh, theta

        tt1, ch1, sh1, th1 = zbar(b1, c1)
        tt2, ch2, sh2, th2 = zbar(b2, c2)
        dtt = (tt2[0] - tt1[1], tt2[1] - tt1[0])
        cosd = _icos(dtt)
        prod = _imul(_imul(ch1, ch2), cosd)
        cross = _imul(sh1, sh2)
        c12 = (prod[0] + cross[0], prod[1] + cross[1])
        gdsum = (th1[0] + th2[0], th1[1] + th2[1])
        certain = dtt[0] >= gdsum[1]
        possible = dtt[1] >= gdsum[0]
        T_hi = r * math.acos(min(1.0, max(-1.0, c12[0]))) if possible else 0.0
        T_lo = r * math.acos(min(1.0, max(-1.0, c12[1]))) if certain else 0.0
        return T_lo, T_hi
    rk = math.sqrt(K)
    r = 1.0 / rk
    abar = (a[0] * rk, a[1] * rk)
    sinh_a = (math.sinh(abar[0]), math.sinh(abar[1]))
    cosh_a = (math.cosh(abar[0]), math.cosh(abar[1]))
    if sinh_a[0] <= 1e-12:
        raise Unrealizable("degenerate axis separation")

    def zbar(b, c):
        Eb = (math.cosh(b[0] * rk), math.cosh(b[1] * rk))
        Ec = (math.cosh(c[0] * rk), math.cosh(c[1] * rk))
        num = (_imul(cosh_a, Eb)[0] - Ec[1], _imul(cosh_a, Eb)[1] - Ec[0])
        S = _idiv_pos(num, sinh_a)
        ch = _isqrt_clip((1.0 + _isq(S)[0], 1.0 + _isq(S)[1]))
        cosphi = _idiv_pos(Eb, ch)
        phi = (math.acos(min(1.0, cosphi[1])), math.acos(min(1.0, max(-1.0, cosphi[0]))))
        eta = (_gd(math.asinh(S[0])), _gd(math.asinh(S[1])))
        return S, ch, phi, eta

    S1, ch1, phi1, eta1 = zbar(b1, c1)
    S2, ch2, phi2, eta2 = zbar(b2, c2)
    dphi = (phi1[0] + phi2[0], phi1[1] + phi2[1])
    if dphi[1] >= math.pi / 2:
        raise OutsideChart("mirrored pair leaves the normal chart")
    deta = (eta2[0] - eta1[1], eta2[1] - eta1[0])
    cosd = _icos(dphi)
    prod = _imul(_imul(ch1, ch2), cosd)
    cross = _imul(S1, S2)
    e12 = (prod[0] - cross[1], prod[1] - cross[0])
    certain = deta[0] >= dphi[1]
    possible = deta[1] >= dphi[0]
    T_hi = r * math.acosh(max(1.0, e12[1])) if possible else 0.0
    T_lo = r * math.acosh(max(1.0, e12[0])) if certain and e12[0] >= 1.0 else 0.0
    return T_lo, T_hi


# The six separations of a draw, in the slot order (yx, yz1, yz2, xz1, xz2,
# z1z2), as forward pairs (a, b), a < b, of the four time-sorted points:
# a future draw is (y, x, z1, z2) = points 0..3 and reads each slot forward;
# a past draw is (y, x, z1, z2) = points 3..0 and reads each slot backward,
# which is again a forward pair of the sorted points.
_SLOT_PAIRS = {False: (np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3])),
               True: (np.array([2, 1, 0, 1, 0, 0]), np.array([3, 3, 3, 2, 2, 1]))}


def _draw_config(cone, rng, reverse: bool, min_sep: float, pi_bound: float):
    """One rejection-sampling attempt; returns a FourPointConfig or a
    rejection tag.  Past configurations reuse the future code path on the
    time-reversed relation (the models are time symmetric)."""
    nt, nx = cone.f.n, cone.X.n
    tidx = np.sort(rng.integers(0, nt, size=4))
    xs = rng.integers(0, nx, size=4)
    a, b = _SLOT_PAIRS[reverse]
    P, Q = (tidx[a], xs[a]), (tidx[b], xs[b])
    l_yx, l_yz1, l_yz2, l_xz1, l_xz2, l_z12 = cone.separations(P, Q).tolist()
    if min(l_yx, l_yz1, l_yz2, l_xz1, l_xz2) < min_sep or l_z12 < 0.0:
        return "relation"
    h_yx, h_yz1, h_yz2, h_xz1, h_xz2, h_z12 = cone.separations(
        P, Q, upper=True).tolist()
    if l_yz2 >= pi_bound or h_yz2 >= pi_bound:
        return "domain"
    bounds = {"yx": (l_yx, h_yx), "yz1": (l_yz1, h_yz1), "yz2": (l_yz2, h_yz2),
              "xz1": (l_xz1, h_xz1), "xz2": (l_xz2, h_xz2)}
    pts = list(zip(tidx.tolist(), xs.tolist()))
    return FourPointConfig(tau_yx=l_yx, tau_yz1=l_yz1, tau_yz2=l_yz2,
                           tau_xz1=l_xz1, tau_xz2=l_xz2,
                           tau_z1z2=max(h_z12, 0.0),
                           kind="past" if reverse else "future",
                           points=tuple(pts[::-1] if reverse else pts),
                           bounds=bounds)


def tcbb_verify(cone, K: float, samples: int = 200, tol: float = 0.02,
                seed: int = 0, max_draw_factor: int = 400) -> dict:
    """Sample 4-point configurations on the cone grid and compare against
    the K-model.  The left side of the margin uses the upper table, the
    five constraints use the canonical (lower) separation, so a margin
    below -tol is a genuine violation up to bracket width.
    """
    min_sep = 4.0 * float(np.mean(np.diff(cone.f.ts))) * max(1.0, cone.f.max())
    pi_bound = pi_kappa(-K)
    rng = np.random.default_rng(seed)
    counts = {"valid": 0, "relation": 0, "domain": 0,
              "unrealizable": 0, "outside_chart": 0}
    worst = math.inf
    worst_cfg = worst_pts = None
    draws = 0
    while counts["valid"] < samples and draws < max_draw_factor * samples:
        draws += 1
        got = _draw_config(cone, rng, reverse=bool(draws % 2), min_sep=min_sep,
                           pi_bound=pi_bound)
        if isinstance(got, str):
            counts[got] += 1
            continue
        try:
            # enclosure margin: sound against the table brackets
            t_lo, _ = comparison_interval(K, got.bounds["yx"],
                                          got.bounds["yz1"], got.bounds["xz1"],
                                          got.bounds["yz2"], got.bounds["xz2"])
            realized = realize_comparison(got, K)  # must exist too
            m = got.tau_z1z2 - t_lo
        except (Unrealizable, DomainViolation):
            counts["unrealizable"] += 1
            continue
        except OutsideChart:
            counts["outside_chart"] += 1
            continue
        counts["valid"] += 1
        if m < worst:
            worst, worst_cfg, worst_pts = m, got, realized
    if counts["valid"] < 10:
        raise InsufficientSamples(f"only {counts['valid']} valid configs "
                                  f"after {draws} draws")
    worst_dump = None
    if worst_cfg is not None:
        worst_dump = {
            "tau_yx": worst_cfg.tau_yx, "tau_yz1": worst_cfg.tau_yz1,
            "tau_yz2": worst_cfg.tau_yz2, "tau_xz1": worst_cfg.tau_xz1,
            "tau_xz2": worst_cfg.tau_xz2, "tau_z1z2": worst_cfg.tau_z1z2,
            "kind": worst_cfg.kind, "points": worst_cfg.points,
            "realized": [
                {"time": pt.time, "space": pt.space,
                 "coords": [float(v) for v in np.atleast_1d(pt.coords)]}
                for pt in worst_pts],
        }
    return {
        "K": K, "tol": tol, "seed": seed, "samples": counts["valid"],
        "counts": counts, "worst_margin": worst,
        "bracket_width": cone.bracket_width(),
        "pass": bool(worst >= -tol),
        "worst_config": worst_dump,
    }

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

The model separation, the enclosure and the realization are numpy kernels
over rows of configurations.  Each row carries an outcome code, the first
failure the row meets in rule order, and later steps skip failed rows; the
one-configuration functions are one-row calls that raise the code's
exception.  Transcendental functions go through `math` on the live rows
(`_lib`), so every row is bit-identical to the one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (DomainViolation, InsufficientSamples, MixedModels,
                     OutsideChart, Unrealizable, require_int)
from .kappa import pi_kappa

NEG_INF = -math.inf
RESIDUAL_TOL = 1e-8
QUADRIC_TOL = 1e-12
REALIZE_SLACK = 1e-10   # float slack of the closed-form realization's roots
CHUNK = 4096            # draws per batch of tcbb_verify

# a kernel row's outcome: OK, or the first failure it met
OK, DOMAIN, UNREALIZABLE, OUTSIDE = range(4)
_FAILURES = {DOMAIN: (DomainViolation, "a separation reaches pi_(-K)"),
             UNREALIZABLE: (Unrealizable,
                            "no comparison configuration fits the constraints"),
             OUTSIDE: (OutsideChart, "a pair leaves the normal chart")}


def _fail(code, bad, kind: int) -> None:
    """Mark the rows still OK where `bad` holds as failed with `kind`."""
    code[(code == OK) & bad] = kind


def _raise(code, what: str) -> None:
    """The exception of a one-row kernel call's failure, if any."""
    if code[0] != OK:
        exc, why = _FAILURES[int(code[0])]
        raise exc(f"{what}: {why}")


def _rows(*vals):
    return tuple(np.array([float(v)]) for v in vals)


def _lib(fn, live, *args):
    """`math` function `fn` at the live rows, nan elsewhere.  numpy's own
    float64 transcendentals can differ from these in the last ulp.  Squares
    do not come here: `x * x` is correctly rounded on every host, where
    libm's pow (`x ** 2`) need not be.  Scalar arguments give a scalar,
    evaluated once if any row is live."""
    if all(np.ndim(x) == 0 for x in args):
        return fn(*args) if live.any() else np.nan
    out = np.full(live.shape, np.nan)
    out[live] = list(map(fn, *(np.broadcast_to(x, live.shape)[live].tolist()
                               for x in args)))
    return out


def _max(a, b):
    """Python's max(a, b) per element: b only where b > a."""
    return np.where(b > a, b, a)


def _min(a, b):
    """Python's min(a, b) per element: b only where b < a."""
    return np.where(b < a, b, a)


def _gd(x, live):
    """Gudermannian: conformal coordinate of the hyperbolic one."""
    return _lib(math.atan, live, _lib(math.sinh, live, x))


def _nonneg(v):
    return np.where(v > 0.0, v, 0.0)


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


@np.errstate(all="ignore")
def _tau(K: float, p, q, code):
    """Signed model separations of the rows' pairs (p, q), each a (time,
    space) pair of chart coordinates; -inf for non-causal pairs.

    K < 0 values are capped at pi_{-K} (the first conjugate sweep of the
    cover); K > 0 pairs outside the normal chart get OUTSIDE."""
    (pt, px), (qt, qx) = p, q
    if K == 0.0:
        dt, dx = qt - pt, qx - px
        return np.where(dt < np.abs(dx), NEG_INF,
                        np.sqrt(_max(dt * dt - dx * dx, 0.0)))
    cosh, sinh, cos = math.cosh, math.sinh, math.cos
    if K < 0.0:
        r = 1.0 / math.sqrt(-K)
        dtt = qt - pt
        _fail(code, np.abs(dtt) > math.pi + 1e-12, OUTSIDE)  # conjugate sweep
        live = code == OK
        dth = _gd(qx, live) - _gd(px, live)
        on = live & (dtt >= np.abs(dth))
        c = (_lib(cosh, on, px) * _lib(cosh, on, qx) * _lib(cos, on, dtt)
             - _lib(sinh, on, px) * _lib(sinh, on, qx))
        return np.where(on, r * _lib(math.acos, on, _min(1.0, _max(-1.0, c))),
                        NEG_INF)
    r = 1.0 / math.sqrt(K)
    dphi = qx - px
    _fail(code, np.abs(dphi) >= math.pi / 2, OUTSIDE)
    live = code == OK
    deta = _gd(qt, live) - _gd(pt, live)
    on = live & (deta >= np.abs(dphi))
    e = (_lib(cosh, on, pt) * _lib(cosh, on, qt) * _lib(cos, on, dphi)
         - _lib(sinh, on, pt) * _lib(sinh, on, qt))
    _fail(code, on & (e < 1.0 - 1e-12), OUTSIDE)  # not geodesically certified
    on &= code == OK
    return np.where(on, r * _lib(math.acosh, on, _max(1.0, e)), NEG_INF)


def model_tau(K: float, p: ModelPoint, q: ModelPoint) -> float:
    """Signed time separation in the model; -inf for non-causal pairs.

    K < 0 values are capped at pi_{-K} (the first conjugate sweep of the
    cover); K > 0 pairs outside the normal chart raise OutsideChart.
    """
    if p.K != K or q.K != K:
        raise MixedModels(f"points on K={p.K},{q.K}, asked K={K}")
    code = np.zeros(1, np.int8)
    pt, px, qt, qx = _rows(p.time, p.space, q.time, q.space)
    v = _tau(K, (pt, px), (qt, qx), code)
    _raise(code, "model separation")
    return float(v[0])


def model_tau_nonneg(K: float, p: ModelPoint, q: ModelPoint) -> float:
    """max{0, signed separation}: the comparison side of the 4-point check."""
    return float(_nonneg(model_tau(K, p, q)))


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


def _solve_zbar(K: float, a, b, c, side: float, code):
    """Chart (time, space) of the model points with tau(ybar, .) = b and
    tau(xbar, .) = c; rows with no solution get UNREALIZABLE.

    ybar sits at the chart origin, xbar at chart time a * sqrt|K| on the
    axis.  Written on the quadric invariant both constraints are linear in
    the chart cosines, so the flat two-equation elimination applies to all
    three curvatures.  `side` picks the sign of the spatial coordinate.
    """
    live = code == OK
    if K == 0.0:
        t = (a * a + b * b - c * c) / (2.0 * a)
        v = t * t - b * b
        _fail(code, v < -REALIZE_SLACK * _max(1.0, b * b), UNREALIZABLE)
        return t, side * np.sqrt(_max(v, 0.0))
    if K < 0.0:
        rk = math.sqrt(-K)
        abar = a * rk
        Cb, Cc = _lib(math.cos, live, b * rk), _lib(math.cos, live, c * rk)
        sin_a = _lib(math.sin, live, abar)
        # the axis separation too close to the conjugate sweep
        _fail(code, sin_a < 1e-12, UNREALIZABLE)
        live = code == OK
        Sb = (Cc - Cb * _lib(math.cos, live, abar)) / sin_a
        h2 = Cb * Cb + Sb * Sb                      # cosh^2 chi
        _fail(code, h2 < 1.0 - REALIZE_SLACK, UNREALIZABLE)
        live = code == OK
        chi = _lib(math.acosh, live, _max(1.0, np.sqrt(h2)))
        return _lib(math.atan2, live, Sb, Cb), side * chi
    rk = math.sqrt(K)
    abar = a * rk
    Eb, Ec = _lib(math.cosh, live, b * rk), _lib(math.cosh, live, c * rk)
    S = (_lib(math.cosh, live, abar) * Eb - Ec) / _lib(math.sinh, live, abar)
    cosphi = Eb / np.sqrt(1.0 + S * S)
    _fail(code, cosphi > 1.0 + REALIZE_SLACK, UNREALIZABLE)
    live = code == OK
    phi = _lib(math.acos, live, _min(1.0, cosphi))
    return _lib(math.asinh, live, S), side * phi


@np.errstate(all="ignore")
def _realize(K: float, a, b1, c1, b2, c2, code):
    """Comparison quadruples for rows of the five constraints (yx, yz1,
    xz1, yz2, xz2): returns xbar's chart time and the chart (time, space)
    of z1bar and z2bar, on opposite sides of the axis through ybar, xbar.

    DOMAIN marks tau(y, z2) >= pi_{-K}, UNREALIZABLE no solution or a
    failed 1e-8 re-measure, OUTSIDE a re-measured pair off the chart."""
    _fail(code, b2 >= pi_kappa(-K), DOMAIN)
    z1 = _solve_zbar(K, a, b1, c1, +1.0, code)
    z2 = _solve_zbar(K, a, b2, c2, -1.0, code)
    ybar, xbar = (0.0, 0.0), (a * (math.sqrt(abs(K)) if K != 0.0 else 1.0), 0.0)
    # realize-then-measure consistency
    resid = reduce(_max, [
        np.abs(_nonneg(_tau(K, p, q, code)) - want)
        for p, q, want in ((ybar, xbar, a), (ybar, z1, b1), (ybar, z2, b2),
                           (xbar, z1, c1), (xbar, z2, c2))])
    _fail(code, resid > RESIDUAL_TOL * _max(1.0, b2), UNREALIZABLE)
    return xbar[0], z1, z2


def _model_points(K: float, xt, z1, z2, i: int):
    """(ybar, xbar, z1bar, z2bar) of row i of `_realize`'s output."""
    return (ModelPoint(K, 0.0, 0.0), ModelPoint(K, float(xt[i]), 0.0),
            ModelPoint(K, float(z1[0][i]), float(z1[1][i])),
            ModelPoint(K, float(z2[0][i]), float(z2[1][i])))


def realize_comparison(cfg: FourPointConfig, K: float):
    """Comparison quadruple (ybar, xbar, z1bar, z2bar) in the K-model.

    z1bar and z2bar sit on opposite sides of the axis through ybar, xbar.
    Raises DomainViolation when tau(y, z2) >= pi_{-K}, Unrealizable when
    the constraints admit no solution or fail the 1e-8 re-measure check,
    OutsideChart when a re-measured pair leaves the normal chart.
    """
    code = np.zeros(1, np.int8)
    xt, z1, z2 = _realize(K, *_rows(cfg.tau_yx, cfg.tau_yz1, cfg.tau_xz1,
                                    cfg.tau_yz2, cfg.tau_xz2), code)
    _raise(code, "comparison realization")
    return _model_points(K, xt, z1, z2, 0)


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
# a value below -tol is a genuine violation certificate.  An interval is a
# (lo, hi) pair of row arrays.

def _imul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return reduce(_min, vals), reduce(_max, vals)


def _idiv_pos(a, b):
    """a / b for an interval b bounded away from 0 with b_lo > 0."""
    return _min(a[0] / b[0], a[0] / b[1]), _max(a[1] / b[0], a[1] / b[1])


def _isq(a):
    lo = np.where(a[0] >= 0, a[0] * a[0], np.where(a[1] <= 0, a[1] * a[1], 0.0))
    hi = np.where(a[0] >= 0, a[1] * a[1],
                  np.where(a[1] <= 0, a[0] * a[0], _max(a[0] * a[0], a[1] * a[1])))
    return lo, hi


def _icos(a, live):
    """cos over an interval: the end values, widened to -1 (1) where an odd
    (even) multiple k*pi lies inside; math.cos(k * math.pi) rounds to
    exactly -1.0 or 1.0 for every |k| < 8e7."""
    ends = _lib(math.cos, live, a[0]), _lib(math.cos, live, a[1])
    k0, k1 = np.ceil(a[0] / math.pi), np.floor(a[1] / math.pi)
    full = a[1] - a[0] >= 2 * math.pi
    odd = full | ((k1 >= k0) & ((k0 % 2 != 0) | (k1 > k0)))
    even = full | ((k1 >= k0) & ((k0 % 2 == 0) | (k1 > k0)))
    return np.where(odd, -1.0, _min(*ends)), np.where(even, 1.0, _max(*ends))


def _isin_0pi(a, live):
    """sin over an interval inside [0, pi]."""
    ends = _lib(math.sin, live, a[0]), _lib(math.sin, live, a[1])
    peak = (a[0] <= math.pi / 2) & (math.pi / 2 <= a[1])
    return _min(*ends), np.where(peak, 1.0, _max(*ends))


def _isqrt_clip(a):
    return np.sqrt(_max(a[0], 0.0)), np.sqrt(_max(a[1], 0.0))


def _flat_zbar_interval(a, b, c):
    """Intervals for (time, |space|) of the flat realization."""
    num = (a[0] * a[0] + b[0] * b[0] - c[1] * c[1],
           a[1] * a[1] + b[1] * b[1] - c[0] * c[0])
    t = _idiv_pos(num, (2 * a[0], 2 * a[1]))
    sq = _isq(t)
    return t, _isqrt_clip((sq[0] - b[1] * b[1], sq[1] - b[0] * b[0]))


@np.errstate(all="ignore")
def _enclose(K: float, a, b1, c1, b2, c2, code):
    """Enclosures (T_lo, T_hi) of taubar(z1bar, z2bar) for rows of the
    five constraint brackets.  DOMAIN marks a bracket reaching the
    conjugate sweep, UNREALIZABLE a degenerate axis separation and OUTSIDE
    a mirrored pair leaving the normal chart."""
    live = code == OK
    if K == 0.0:
        t1, x1 = _flat_zbar_interval(a, b1, c1)
        t2, x2 = _flat_zbar_interval(a, b2, c2)
        dt = (t2[0] - t1[1], t2[1] - t1[0])
        xs = (x1[0] + x2[0], x1[1] + x2[1])
        certain = dt[0] >= xs[1]
        possible = dt[1] >= xs[0]

        def sq(x, on):
            return np.where(on, x * x, np.nan)

        on = live & possible
        T_hi = np.where(on, np.sqrt(_max(sq(dt[1], on) - sq(xs[0], on), 0.0)), 0.0)
        on = live & certain
        T_lo = np.where(on, np.sqrt(_max(sq(dt[0], on) - sq(xs[1], on), 0.0)), 0.0)
        return T_lo, T_hi
    if K < 0.0:
        rk = math.sqrt(-K)
        r = 1.0 / rk
        _fail(code, (_max(b2[1], b1[1]) * rk >= math.pi) | (a[1] * rk >= math.pi),
              DOMAIN)
        abar = (a[0] * rk, a[1] * rk)
        sin_a = _isin_0pi(abar, code == OK)
        # the axis separation bracket touches the conjugate sweep
        _fail(code, sin_a[0] <= 1e-12, UNREALIZABLE)
        live = code == OK
        cos_a = _icos(abar, live)

        def zbar(b, c):
            Cb = (_lib(math.cos, live, b[1] * rk), _lib(math.cos, live, b[0] * rk))
            Cc = (_lib(math.cos, live, c[1] * rk), _lib(math.cos, live, c[0] * rk))
            m = _imul(Cb, cos_a)
            S = _idiv_pos((Cc[0] - m[1], Cc[1] - m[0]), sin_a)
            sq_b, sq_s = _isq(Cb), _isq(S)
            h = (sq_b[0] + sq_s[0], sq_b[1] + sq_s[1])
            ch = _isqrt_clip((_max(h[0], 1.0), _max(h[1], 1.0)))
            sh = _isqrt_clip((h[0] - 1.0, h[1] - 1.0))
            tt = (_lib(math.atan2, live, _max(S[0], 0.0), Cb[1]),
                  _lib(math.atan2, live, _max(S[1], 0.0), Cb[0]))
            # gd(arcsinh) = atan
            theta = (_lib(math.atan, live, sh[0]), _lib(math.atan, live, sh[1]))
            return tt, ch, sh, theta

        tt1, ch1, sh1, th1 = zbar(b1, c1)
        tt2, ch2, sh2, th2 = zbar(b2, c2)
        dtt = (tt2[0] - tt1[1], tt2[1] - tt1[0])
        cosd = _icos(dtt, live)
        prod = _imul(_imul(ch1, ch2), cosd)
        cross = _imul(sh1, sh2)
        c12 = (prod[0] + cross[0], prod[1] + cross[1])
        gdsum = (th1[0] + th2[0], th1[1] + th2[1])
        on = live & (dtt[1] >= gdsum[0])     # possibly causal
        T_hi = np.where(on, r * _lib(math.acos, on, _min(1.0, _max(-1.0, c12[0]))),
                        0.0)
        on = live & (dtt[0] >= gdsum[1])     # certainly causal
        T_lo = np.where(on, r * _lib(math.acos, on, _min(1.0, _max(-1.0, c12[1]))),
                        0.0)
        return T_lo, T_hi
    rk = math.sqrt(K)
    r = 1.0 / rk
    abar = (a[0] * rk, a[1] * rk)
    sinh_a = (_lib(math.sinh, live, abar[0]), _lib(math.sinh, live, abar[1]))
    cosh_a = (_lib(math.cosh, live, abar[0]), _lib(math.cosh, live, abar[1]))
    _fail(code, sinh_a[0] <= 1e-12, UNREALIZABLE)   # degenerate axis separation
    live = code == OK

    def zbar(b, c):
        Eb = (_lib(math.cosh, live, b[0] * rk), _lib(math.cosh, live, b[1] * rk))
        Ec = (_lib(math.cosh, live, c[0] * rk), _lib(math.cosh, live, c[1] * rk))
        m = _imul(cosh_a, Eb)
        S = _idiv_pos((m[0] - Ec[1], m[1] - Ec[0]), sinh_a)
        sq = _isq(S)
        ch = _isqrt_clip((1.0 + sq[0], 1.0 + sq[1]))
        cosphi = _idiv_pos(Eb, ch)
        phi = (_lib(math.acos, live, _min(1.0, cosphi[1])),
               _lib(math.acos, live, _min(1.0, _max(-1.0, cosphi[0]))))
        eta = (_gd(_lib(math.asinh, live, S[0]), live),
               _gd(_lib(math.asinh, live, S[1]), live))
        return S, ch, phi, eta

    S1, ch1, phi1, eta1 = zbar(b1, c1)
    S2, ch2, phi2, eta2 = zbar(b2, c2)
    dphi = (phi1[0] + phi2[0], phi1[1] + phi2[1])
    _fail(code, dphi[1] >= math.pi / 2, OUTSIDE)  # the mirrored pair
    live = code == OK
    deta = (eta2[0] - eta1[1], eta2[1] - eta1[0])
    cosd = _icos(dphi, live)
    prod = _imul(_imul(ch1, ch2), cosd)
    cross = _imul(S1, S2)
    e12 = (prod[0] - cross[1], prod[1] - cross[0])
    on = live & (deta[1] >= dphi[0])                        # possibly causal
    T_hi = np.where(on, r * _lib(math.acosh, on, _max(1.0, e12[1])), 0.0)
    on = live & (deta[0] >= dphi[1]) & (e12[0] >= 1.0)      # certainly causal
    T_lo = np.where(on, r * _lib(math.acosh, on, _max(1.0, e12[0])), 0.0)
    return T_lo, T_hi


def comparison_interval(K: float, a, b1, c1, b2, c2):
    """Enclosure [T_lo, T_hi] of taubar(z1bar, z2bar) over all constraint
    values inside the given brackets (each a (lo, hi) pair)."""
    code = np.zeros(1, np.int8)
    T_lo, T_hi = _enclose(K, *(_rows(*iv) for iv in (a, b1, c1, b2, c2)), code)
    _raise(code, "comparison enclosure")
    return float(T_lo[0]), float(T_hi[0])


# -- the sampler's draws -------------------------------------------------------

def _draw_indices(rng, nt: int, nx: int, count: int):
    """(count, 8) grid indices: row i holds the i-th draw's
    rng.integers(0, nt, size=4) then rng.integers(0, nx, size=4).  One call
    with a bound per column reads the stream in the same order as those
    calls, rejected words included, and leaves rng where they leave it."""
    return rng.integers(0, np.array([nt] * 4 + [nx] * 4), size=(count, 8))


# The six separations of a draw, in the slot order (yx, yz1, yz2, xz1, xz2,
# z1z2), as forward pairs (a, b), a < b, of the four time-sorted points:
# a future draw is (y, x, z1, z2) = points 0..3 and reads each slot forward;
# a past draw is (y, x, z1, z2) = points 3..0 and reads each slot backward,
# which is again a forward pair of the sorted points.
_SLOT_PAIRS = {False: (np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3])),
               True: (np.array([2, 1, 0, 1, 0, 0]), np.array([3, 3, 3, 2, 2, 1]))}

# a draw's tag: its index in the report's counts
_TAGS = ("valid", "relation", "domain", "unrealizable", "outside_chart")
_TAG_OF_CODE = np.array([0, 3, 3, 4])    # OK, DOMAIN, UNREALIZABLE, OUTSIDE


def _classify(cone, K: float, idx, first: int, min_sep: float,
              pi_bound: float):
    """Tags and margins of a chunk of draws numbered first + 1, ...; odd
    draws are past configurations, which reuse the future rules on the
    time-reversed relation (the models are time symmetric).  Returns
    (tags, margins, describe), `describe(i)` being row i's worst_config."""
    n = len(idx)
    rev = np.arange(first + 1, first + n + 1) % 2 == 1
    t, x = np.sort(idx[:, :4], axis=1), idx[:, 4:]
    a = np.where(rev[:, None], _SLOT_PAIRS[True][0], _SLOT_PAIRS[False][0])
    b = np.where(rev[:, None], _SLOT_PAIRS[True][1], _SLOT_PAIRS[False][1])
    rows = np.arange(n)[:, None]
    P, Q = (t[rows, a], x[rows, a]), (t[rows, b], x[rows, b])
    lo, hi = cone.separations(P, Q), cone.separations(P, Q, upper=True)
    tags = np.zeros(n, np.int64)
    tags[(lo[:, :5].min(axis=1) < min_sep) | (lo[:, 5] < 0.0)] = 1  # relation
    beyond = (lo[:, 2] >= pi_bound) | (hi[:, 2] >= pi_bound)   # tau(y, z2)
    tags[(tags == 0) & beyond] = 2                              # domain
    cand = np.flatnonzero(tags == 0)
    code = np.zeros(cand.size, np.int8)
    # constraints in enclosure order: yx, yz1, xz1, yz2, xz2
    cols = (0, 1, 3, 2, 4)
    t_lo, _ = _enclose(K, *((lo[cand, j], hi[cand, j]) for j in cols), code)
    xt, z1, z2 = _realize(K, *(lo[cand, j] for j in cols), code)  # must exist too
    tags[cand] = _TAG_OF_CODE[code]
    tau_z1z2 = _max(hi[:, 5], 0.0)
    margins = np.full(n, np.inf)
    margins[cand] = np.where(code == OK, tau_z1z2[cand] - t_lo, np.inf)

    def describe(i: int) -> dict:
        pts = list(zip(t[i].tolist(), x[i].tolist()))
        dump = dict(zip(("tau_yx", "tau_yz1", "tau_yz2", "tau_xz1", "tau_xz2"),
                        lo[i, :5].tolist()))
        dump.update(
            tau_z1z2=float(tau_z1z2[i]), kind="past" if rev[i] else "future",
            points=tuple(pts[::-1] if rev[i] else pts),
            realized=[{"time": pt.time, "space": pt.space,
                       "coords": [float(v) for v in np.atleast_1d(pt.coords)]}
                      for pt in _model_points(K, xt, z1, z2,
                                              int(np.searchsorted(cand, i)))])
        return dump

    return tags, margins, describe


def tcbb_verify(cone, K: float, samples: int = 200, tol: float = 0.02,
                seed: int = 0, max_draw_factor: int = 400) -> dict:
    """Sample 4-point configurations on the cone grid and compare against
    the K-model.  The left side of the margin uses the upper table, the
    five constraints use the canonical (lower) separation, so a margin
    below -tol is a genuine violation up to bracket width.

    Draws come in chunks of at most CHUNK from one sequential stream, the
    same draws as calling rng.integers once per draw, and the run stops at
    the draw that completes `samples` valid configurations.
    """
    require_int("samples", samples, 1)
    # both whole tables, one kernel call each: the draws read rows all over
    # the grid, and the report's bracket_width reads every row
    cone.tables()
    min_sep = 4.0 * float(np.mean(np.diff(cone.f.ts))) * max(1.0, cone.f.max())
    pi_bound = pi_kappa(-K)
    rng = np.random.default_rng(seed)
    nt, nx = cone.f.n, cone.X.n
    tally = np.zeros(len(_TAGS), np.int64)     # tally[0]: valid draws
    worst, worst_dump = math.inf, None
    draws, limit = 0, max_draw_factor * samples
    while tally[0] < samples and draws < limit:
        idx = _draw_indices(rng, nt, nx, min(CHUNK, limit - draws))
        tags, margins, describe = _classify(cone, K, idx, draws, min_sep,
                                            pi_bound)
        # keep the draws up to the one that completes `samples`
        hits = np.cumsum(tags == 0)
        n = len(tags)
        if hits[-1] >= samples - tally[0]:
            n = int(np.searchsorted(hits, samples - tally[0])) + 1
        tally += np.bincount(tags[:n], minlength=len(_TAGS))
        i = int(np.argmin(margins[:n]))    # the first of equal margins
        if margins[i] < worst:
            worst, worst_dump = float(margins[i]), describe(i)
        draws += n
    counts = dict(zip(_TAGS, tally.tolist()))
    if counts["valid"] < 10:
        raise InsufficientSamples(f"only {counts['valid']} valid configs "
                                  f"after {draws} draws")
    return {
        "K": K, "tol": tol, "seed": seed, "samples": counts["valid"],
        "counts": counts, "worst_margin": worst,
        "bracket_width": cone.bracket_width(),
        "pass": bool(worst >= -tol),
        "worst_config": worst_dump,
    }

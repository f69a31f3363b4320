import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conelab import model2d
from conelab.cone import GeneralizedCone
from conelab.errors import (DomainViolation, InsufficientSamples, MixedModels,
                            OutsideChart, Unrealizable)
from conelab.model2d import (FourPointConfig, ModelPoint, comparison_interval,
                             config_margin, model_tau, model_tau_nonneg,
                             realize_comparison, tcbb_verify)
from conelab.curvature import sectional_reduction
from conelab.kappa import pi_kappa
from conelab.metricspace import circle_arc
from conelab.warp import WarpingFunction, fk_concavity, preset


def geodesic_oracle(K, p_chart, direction, sigma, steps=4000):
    """RK4 integration of the quadric geodesic ODE; returns the chart point
    reached after proper time sigma along a unit timelike tangent."""
    r2 = 1.0 / abs(K)
    eps = 1.0 if K > 0 else -1.0
    p = np.array(ModelPoint(K, *p_chart).coords)
    # build a unit timelike tangent from the chart direction (dt, dx)
    h = 1e-6
    e_t = (np.array(ModelPoint(K, p_chart[0] + h, p_chart[1]).coords) - p) / h
    e_x = (np.array(ModelPoint(K, p_chart[0], p_chart[1] + h).coords) - p) / h
    v = direction[0] * e_t + direction[1] * e_x
    eta = np.array([-1.0, 1.0, 1.0]) if K > 0 else np.array([-1.0, -1.0, 1.0])
    norm = -(v * v * eta).sum()
    v = v / math.sqrt(norm)

    def acc(pos):
        return -(-1.0 / (eps * r2)) * pos  # (v,v) = -1 inserted below

    def rhs(state):
        pos, vel = state
        a = -((vel * vel * eta).sum() / (eps * r2)) * pos
        return (vel, a)

    dt = sigma / steps
    pos, vel = p, v
    for _ in range(steps):
        k1 = rhs((pos, vel))
        k2 = rhs((pos + 0.5 * dt * k1[0], vel + 0.5 * dt * k1[1]))
        k3 = rhs((pos + 0.5 * dt * k2[0], vel + 0.5 * dt * k2[1]))
        k4 = rhs((pos + dt * k3[0], vel + dt * k3[1]))
        pos = pos + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        vel = vel + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    # recover chart coordinates
    if K < 0:
        r = 1 / math.sqrt(-K)
        chi = math.asinh(pos[2] / r)
        tt = math.atan2(pos[1], pos[0])
        return tt, chi
    r = 1 / math.sqrt(K)
    tt = math.asinh(pos[0] / r)
    phi = math.atan2(pos[2], pos[1])
    return tt, phi


def test_flat_examples():
    p, q = ModelPoint(0.0, 0.0, 0.0), ModelPoint(0.0, 1.0, 0.0)
    assert model_tau(0.0, p, q) == pytest.approx(1.0)
    s = ModelPoint(0.0, 1.0, 2.0)
    assert model_tau(0.0, p, s) == -math.inf


def test_mixed_models_rejected():
    with pytest.raises(MixedModels):
        model_tau(0.0, ModelPoint(0.0, 0, 0), ModelPoint(1.0, 0, 0))


def test_ads_axis_pair():
    p = ModelPoint(-1.0, 0.0, 0.0)
    q = ModelPoint(-1.0, 0.7, 0.0)
    assert model_tau(-1.0, p, q) == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("K", [-1.0, 1.0, -2.5, 0.5])
def test_model_tau_against_geodesic_oracle(K):
    rng = np.random.default_rng(42)
    for _ in range(5):
        t0 = float(rng.uniform(-0.2, 0.2))
        x0 = float(rng.uniform(-0.3, 0.3))
        vx = float(rng.uniform(-0.5, 0.5))
        sigma = float(rng.uniform(0.2, 0.8))
        chart_q = geodesic_oracle(K, (t0, x0), (1.0, vx), sigma)
        p = ModelPoint(K, t0, x0)
        q = ModelPoint(K, *chart_q)
        assert model_tau(K, p, q) == pytest.approx(sigma, abs=1e-6)


def test_flat_reverse_triangle_algebraic():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 300:
        t = np.sort(rng.uniform(0, 3, 3))
        x = rng.uniform(-1, 1, 3)
        ps = [ModelPoint(0.0, tt, xx) for tt, xx in zip(t, x)]
        a = model_tau(0.0, ps[0], ps[1])
        b = model_tau(0.0, ps[1], ps[2])
        if a == -math.inf or b == -math.inf:
            continue
        c = model_tau(0.0, ps[0], ps[2])
        assert c >= a + b - 1e-12
        checked += 1


def test_realize_flat_elimination_example():
    cfg = FourPointConfig(1.0, 1.5, math.sqrt(3.75), 0.3, math.sqrt(0.75), 0.2)
    _, _, z1, z2 = realize_comparison(cfg, 0.0)
    assert z1.time == pytest.approx(1.58)
    assert abs(z1.space) == pytest.approx(math.sqrt(1.58 ** 2 - 2.25), abs=1e-9)
    assert z1.space >= 0 >= z2.space


def test_realize_collinear_degenerate():
    cfg = FourPointConfig(1.0, 2.0, 2.0, 1.0, 1.0, 0.0)
    _, _, z1, z2 = realize_comparison(cfg, 0.0)
    assert z1.space == pytest.approx(0.0, abs=1e-9)
    assert z2.space == pytest.approx(0.0, abs=1e-9)
    assert z1.time == pytest.approx(2.0)


def test_realize_measure_roundtrip_all_models():
    b2, c2 = math.sqrt(3.75), math.sqrt(0.75)
    cfg = FourPointConfig(1.0, 1.5, b2, 0.3, c2, 0.5)
    for K in (0.0, -1.0, 1.0):
        y, x, z1, z2 = realize_comparison(cfg, K)
        assert model_tau_nonneg(K, y, x) == pytest.approx(cfg.tau_yx, abs=1e-8)
        assert model_tau_nonneg(K, y, z1) == pytest.approx(cfg.tau_yz1, abs=1e-8)
        assert model_tau_nonneg(K, x, z1) == pytest.approx(cfg.tau_xz1, abs=1e-8)
        assert model_tau_nonneg(K, y, z2) == pytest.approx(cfg.tau_yz2, abs=1e-8)
        assert model_tau_nonneg(K, x, z2) == pytest.approx(cfg.tau_xz2, abs=1e-8)


def test_realize_domain_violation():
    cfg = FourPointConfig(1.0, 2.0, 3.5, 1.0, 2.5, 0.2)
    with pytest.raises(DomainViolation):
        realize_comparison(cfg, -1.0)   # tau(y,z2) = 3.5 >= pi


def test_realize_unrealizable():
    cfg = FourPointConfig(1.0, 2.0, 2.2, 1.0, 1.25, 0.01)
    with pytest.raises(Unrealizable):
        realize_comparison(cfg, 0.0)


def test_comparison_interval_contains_point_value():
    rng = np.random.default_rng(3)
    for K in (0.0, -1.0, 1.0):
        done = 0
        while done < 20:
            a = float(rng.uniform(0.4, 0.9))
            t1, x1 = a + rng.uniform(0.1, 0.8), rng.uniform(-0.5, 0.5)
            t2, x2 = t1 + rng.uniform(0.0, 0.5), rng.uniform(-0.5, 0.5)
            # manufacture consistent flat separations, reuse for all K
            b1 = math.sqrt(max(t1 ** 2 - x1 ** 2, 0.01))
            c1s = (t1 - a) ** 2 - x1 ** 2
            b2 = math.sqrt(max(t2 ** 2 - x2 ** 2, 0.01))
            c2s = (t2 - a) ** 2 - x2 ** 2
            if c1s <= 1e-3 or c2s <= 1e-3:
                continue
            c1, c2 = math.sqrt(c1s), math.sqrt(c2s)
            cfg = FourPointConfig(a, b1, b2, c1, c2, 0.0)
            try:
                _, _, z1, z2 = realize_comparison(cfg, K)
                tb = model_tau_nonneg(K, z1, z2)
                w = 0.02
                tlo, thi = comparison_interval(
                    K, (a - w, a + w), (b1 - w, b1 + w), (c1 - w, c1 + w),
                    (b2 - w, b2 + w), (c2 - w, c2 + w))
            except (Unrealizable, DomainViolation):
                continue
            assert tlo - 1e-9 <= tb <= thi + 1e-9
            done += 1


# -- numpy's transcendentals against math ---------------------------------------


def _simd_features() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:     # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return " ".join(k for k, on in __cpu_features__.items() if on)


def _logu(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _signed(rng, lo, hi, n):
    return rng.choice([-1.0, 1.0], n) * _logu(rng, lo, hi, n)


# each ufunc the kernels call, its math twin and arguments over the ranges
# tcbb feeds it: angles of the enclosure's cos intervals and of sin on
# [0, pi], chart coordinates and b * sqrt(K) up to sqrt(30) * pi for cosh
# and sinh, clipped cosines, cosh values, the cross ratios S and the
# (S, cos) pairs of arctan2
_HOST_CASES = [
    (np.cos, math.cos, lambda rng, n: (rng.uniform(-2 * math.pi, 2 * math.pi, n),)),
    (np.sin, math.sin, lambda rng, n: (rng.uniform(0.0, math.pi, n),)),
    (np.cosh, math.cosh, lambda rng, n: (rng.uniform(-20.0, 20.0, n),)),
    (np.sinh, math.sinh, lambda rng, n: (rng.uniform(-20.0, 20.0, n),)),
    (np.arccos, math.acos, lambda rng, n: (rng.uniform(-1.0, 1.0, n),)),
    (np.arccosh, math.acosh, lambda rng, n: (1.0 + _logu(rng, 1e-16, 1e8, n),)),
    (np.arctan, math.atan, lambda rng, n: (_signed(rng, 1e-12, 1e8, n),)),
    (np.arcsinh, math.asinh, lambda rng, n: (_signed(rng, 1e-12, 1e8, n),)),
    (np.arctan2, math.atan2,
     lambda rng, n: (_signed(rng, 1e-12, 1e8, n), rng.uniform(-1.0, 1.0, n))),
]


@pytest.mark.parametrize("ufunc, fn, draw", _HOST_CASES,
                         ids=[c[0].__name__ for c in _HOST_CASES])
def test_numpy_transcendentals_within_ulp_bound(ufunc, fn, draw):
    # the enclosure widens numpy's values by ULP_BOUND ulps; on a host
    # whose SIMD loops stray further from libm than that, it is not sound
    args = draw(np.random.default_rng(29), 100_000)
    got = ufunc(*args)
    want = np.array(list(map(fn, *(x.tolist() for x in args))))
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    worst = int(np.argmax(ulps))
    assert ulps[worst] <= model2d.ULP_BOUND, (
        f"{ufunc.__name__}{tuple(float(x[worst]) for x in args)} is "
        f"{ulps[worst]:.1f} ulps from math's; numpy {np.__version__}, "
        f"SIMD features: {_simd_features()}")


# -- the enclosure against its math-evaluated oracle --------------------------


def _math_lib(fn, live, *args):
    if all(np.ndim(x) == 0 for x in args):
        return fn(*args) if live.any() else np.nan
    out = np.full(live.shape, np.nan)
    out[live] = list(map(fn, *(np.broadcast_to(x, live.shape)[live].tolist()
                               for x in args)))
    return out


def _math_icos(a, live):
    ends = _math_lib(math.cos, live, a[0]), _math_lib(math.cos, live, a[1])
    k0, k1 = np.ceil(a[0] / math.pi), np.floor(a[1] / math.pi)
    full = a[1] - a[0] >= 2 * math.pi
    odd = full | ((k1 >= k0) & ((k0 % 2 != 0) | (k1 > k0)))
    even = full | ((k1 >= k0) & ((k0 % 2 == 0) | (k1 > k0)))
    return (np.where(odd, -1.0, model2d._min(*ends)),
            np.where(even, 1.0, model2d._max(*ends)))


@np.errstate(all="ignore")
def reference_enclose(K, a, b1, c1, b2, c2, code):
    """The K != 0 enclosure with every transcendental through `math`, one
    element at a time, and no outward widening: the oracle the numpy
    kernel must contain."""
    m2 = model2d
    _max, _min, _lib, fail = m2._max, m2._min, _math_lib, m2._fail
    live = code == m2.OK
    rk = math.sqrt(abs(K))
    r = 1.0 / rk
    abar = (a[0] * rk, a[1] * rk)
    if K < 0.0:
        fail(code, (_max(b2[1], b1[1]) * rk >= math.pi) | (a[1] * rk >= math.pi),
             m2.DOMAIN)
        live = code == m2.OK
        ends = _lib(math.sin, live, abar[0]), _lib(math.sin, live, abar[1])
        peak = (abar[0] <= math.pi / 2) & (math.pi / 2 <= abar[1])
        sin_a = _min(*ends), np.where(peak, 1.0, _max(*ends))
        fail(code, sin_a[0] <= 1e-12, m2.UNREALIZABLE)
        live = code == m2.OK
        cos_a = _math_icos(abar, live)

        def zbar(b, c):
            Cb = (_lib(math.cos, live, b[1] * rk), _lib(math.cos, live, b[0] * rk))
            Cc = (_lib(math.cos, live, c[1] * rk), _lib(math.cos, live, c[0] * rk))
            m = m2._imul(Cb, cos_a)
            S = m2._idiv_pos((Cc[0] - m[1], Cc[1] - m[0]), sin_a)
            sq_b, sq_s = m2._isq(Cb), m2._isq(S)
            h = (sq_b[0] + sq_s[0], sq_b[1] + sq_s[1])
            ch = m2._isqrt_clip((_max(h[0], 1.0), _max(h[1], 1.0)))
            sh = m2._isqrt_clip((h[0] - 1.0, h[1] - 1.0))
            tt = (_lib(math.atan2, live, _max(S[0], 0.0), Cb[1]),
                  _lib(math.atan2, live, _max(S[1], 0.0), Cb[0]))
            theta = (_lib(math.atan, live, sh[0]), _lib(math.atan, live, sh[1]))
            return tt, ch, sh, theta

        tt1, ch1, sh1, th1 = zbar(b1, c1)
        tt2, ch2, sh2, th2 = zbar(b2, c2)
        dtt = (tt2[0] - tt1[1], tt2[1] - tt1[0])
        prod = m2._imul(m2._imul(ch1, ch2), _math_icos(dtt, live))
        cross = m2._imul(sh1, sh2)
        c12 = (prod[0] + cross[0], prod[1] + cross[1])
        gdsum = (th1[0] + th2[0], th1[1] + th2[1])
        on = live & (dtt[1] >= gdsum[0])
        T_hi = np.where(on, r * _lib(math.acos, on, _min(1.0, _max(-1.0, c12[0]))),
                        0.0)
        on = live & (dtt[0] >= gdsum[1])
        T_lo = np.where(on, r * _lib(math.acos, on, _min(1.0, _max(-1.0, c12[1]))),
                        0.0)
        return T_lo, T_hi
    sinh_a = (_lib(math.sinh, live, abar[0]), _lib(math.sinh, live, abar[1]))
    cosh_a = (_lib(math.cosh, live, abar[0]), _lib(math.cosh, live, abar[1]))
    fail(code, sinh_a[0] <= 1e-12, m2.UNREALIZABLE)
    live = code == m2.OK

    def gd(x):
        return _lib(math.atan, live, _lib(math.sinh, live, x))

    def zbar(b, c):
        Eb = (_lib(math.cosh, live, b[0] * rk), _lib(math.cosh, live, b[1] * rk))
        Ec = (_lib(math.cosh, live, c[0] * rk), _lib(math.cosh, live, c[1] * rk))
        m = m2._imul(cosh_a, Eb)
        S = m2._idiv_pos((m[0] - Ec[1], m[1] - Ec[0]), sinh_a)
        sq = m2._isq(S)
        ch = m2._isqrt_clip((1.0 + sq[0], 1.0 + sq[1]))
        cosphi = m2._idiv_pos(Eb, ch)
        phi = (_lib(math.acos, live, _min(1.0, cosphi[1])),
               _lib(math.acos, live, _min(1.0, _max(-1.0, cosphi[0]))))
        eta = (gd(_lib(math.asinh, live, S[0])), gd(_lib(math.asinh, live, S[1])))
        return S, ch, phi, eta

    S1, ch1, phi1, eta1 = zbar(b1, c1)
    S2, ch2, phi2, eta2 = zbar(b2, c2)
    dphi = (phi1[0] + phi2[0], phi1[1] + phi2[1])
    fail(code, dphi[1] >= math.pi / 2, m2.OUTSIDE)
    live = code == m2.OK
    deta = (eta2[0] - eta1[1], eta2[1] - eta1[0])
    prod = m2._imul(m2._imul(ch1, ch2), _math_icos(dphi, live))
    cross = m2._imul(S1, S2)
    e12 = (prod[0] - cross[1], prod[1] - cross[0])
    on = live & (deta[1] >= dphi[0])
    T_hi = np.where(on, r * _lib(math.acosh, on, _max(1.0, e12[1])), 0.0)
    on = live & (deta[0] >= dphi[1]) & (e12[0] >= 1.0)
    T_lo = np.where(on, r * _lib(math.acosh, on, _max(1.0, e12[0])), 0.0)
    return T_lo, T_hi


# one bracket row: a, the chart points (t1, x1) and (t2, x2) whose flat
# separations from (0, 0) and (a, 0) centre the brackets, and a half-width
_ROW = st.tuples(st.floats(0.4, 0.9), st.floats(0.1, 0.8), st.floats(-0.5, 0.5),
                 st.floats(0.0, 0.5), st.floats(-0.5, 0.5), st.floats(0.0, 0.05))


@settings(max_examples=60, deadline=None)
@given(K=st.sampled_from([-4.0, -1.0, 1.0, 30.0]),
       rows=st.lists(_ROW, min_size=1, max_size=40))
def test_enclosure_contains_math_oracle(K, rows):
    # the widened numpy enclosure keeps every code of the math one and
    # holds its interval, up to the interval arithmetic's own rounding;
    # scaled by 1 / sqrt|K| so that K * tau^2 spans the same range at all K
    scale = 1.0 / math.sqrt(abs(K))
    cols = []
    for a, dt1, x1, dt2, x2, w in rows:
        t1 = a + dt1
        t2 = t1 + dt2
        cols.append([v * scale for v in (
            a, math.sqrt(max(t1 * t1 - x1 * x1, 0.01)),
            math.sqrt(max((t1 - a) ** 2 - x1 * x1, 1e-4)),
            math.sqrt(max(t2 * t2 - x2 * x2, 0.01)),
            math.sqrt(max((t2 - a) ** 2 - x2 * x2, 1e-4)), w)])
    cols = np.array(cols).T
    brackets = [(c - cols[5], c + cols[5]) for c in cols[:5]]
    code = np.zeros(len(rows), np.int8)
    ref_code = code.copy()
    T_lo, T_hi = model2d._enclose(K, *brackets, code)
    R_lo, R_hi = reference_enclose(K, *brackets, ref_code)
    assert np.array_equal(code, ref_code)
    ok = code == model2d.OK
    assert np.all(T_lo[ok] <= R_lo[ok] + 1e-12 * np.abs(R_lo[ok]))
    assert np.all(T_hi[ok] >= R_hi[ok] - 1e-12 * np.abs(R_hi[ok]))


@pytest.mark.parametrize("K", [-1.0, 1.0])
def test_batched_rows_equal_one_row_calls(sin_arc_small, K):
    # a chunk's enclosure and realization rows, captured inside _classify,
    # against comparison_interval and realize_comparison bit for bit: the
    # kernels' ufuncs give a value that does not depend on the row's
    # position in the array
    seen = {}

    def spy(name):
        kernel = getattr(model2d, name)

        def call(K, *args):
            code_in = args[-1].copy()
            out = kernel(K, *args)
            seen[name] = (args[:-1], code_in, args[-1].copy(), out)
            return out
        return call

    cone = sin_arc_small
    idx = model2d._draw_indices(np.random.default_rng(5), cone.f.n, cone.X.n,
                                model2d.CHUNK)
    min_sep = 4.0 * float(np.mean(np.diff(cone.f.ts))) * max(1.0, cone.f.max())
    with mock.patch.object(model2d, "_enclose", spy("_enclose")), \
            mock.patch.object(model2d, "_realize", spy("_realize")):
        model2d._classify(cone, K, idx, 0, min_sep, pi_kappa(-K))
    brackets, _, enc_code, (T_lo, T_hi) = seen["_enclose"]
    lows, _, real_code, (xt, z1, z2) = seen["_realize"]
    exc = {model2d.DOMAIN: DomainViolation, model2d.UNREALIZABLE: Unrealizable,
           model2d.OUTSIDE: OutsideChart}
    assert (real_code == model2d.OK).sum() > 100
    for i in range(len(enc_code)):
        row = [(float(lo[i]), float(hi[i])) for lo, hi in brackets]
        if enc_code[i] != model2d.OK:
            with pytest.raises(exc[int(enc_code[i])]):
                comparison_interval(K, *row)
            continue
        assert comparison_interval(K, *row) == (T_lo[i], T_hi[i])
        a, b1, c1, b2, c2 = (float(v[i]) for v in lows)
        cfg = FourPointConfig(a, b1, b2, c1, c2, 0.0)
        if real_code[i] != model2d.OK:
            with pytest.raises(exc[int(real_code[i])]):
                realize_comparison(cfg, K)
            continue
        pts = realize_comparison(cfg, K)
        assert [(p.time, p.space) for p in pts] == [
            (0.0, 0.0), (xt[i], 0.0), (z1[0][i], z1[1][i]), (z2[0][i], z2[1][i])]


# Brackets (centre of each of a, b1, c1, b2, c2; half-width 0.02) whose flat
# enclosure squares a value x where libm's pow can round differently from
# x * x: dt_hi, xs_lo, then xs_hi.  Each pair is (T_lo, T_hi) by x * x.
_POW_ROWS = [
    ((0.46134533008803674, 0.5427368301822111, 0.601601761881848,
      1.6918542508029133, 0.5915025996582102), (0.0, 2.3082737051016236)),
    ((0.5209682198167378, 0.9296221370826077, 0.33843142152509564,
      1.8486476547481179, 0.6158814841222471), (0.0, 1.1276676264862948)),
    ((0.6568926394988968, 0.8131193049144981, 0.9132334413015721,
      1.3989271750244083, 0.5130796945357327),
     (0.5653443229837098, 1.559655687928393)),
]


@pytest.mark.parametrize("centres, want", _POW_ROWS)
def test_flat_enclosure_squares_by_multiplication(centres, want):
    # x * x is correctly rounded on every host, math.pow(x, 2.0) need not
    # be: where libm's pow misrounds dt_hi, xs_lo or xs_hi here, a pow
    # square reads one ulp off these values
    brackets = [(v - 0.02, v + 0.02) for v in centres]
    assert comparison_interval(0.0, *brackets) == want
    a, b1, c1, b2, c2 = (tuple(np.array([x]) for x in iv) for iv in brackets)
    t1, x1 = model2d._flat_zbar_interval(a, b1, c1)
    t2, x2 = model2d._flat_zbar_interval(a, b2, c2)
    dt_lo, dt_hi = float(t2[0][0] - t1[1][0]), float(t2[1][0] - t1[0][0])
    xs_lo, xs_hi = float(x1[0][0] + x2[0][0]), float(x1[1][0] + x2[1][0])
    t_lo = math.sqrt(max(dt_lo * dt_lo - xs_hi * xs_hi, 0.0)) \
        if dt_lo >= xs_hi else 0.0
    assert want == (t_lo, math.sqrt(dt_hi * dt_hi - xs_lo * xs_lo))


def test_tcbb_strip_passes(strip_small):
    rep = tcbb_verify(strip_small, K=0.0, samples=120, tol=0.02, seed=3)
    assert rep["pass"]
    assert rep["worst_margin"] >= -0.02
    assert rep["samples"] >= 120


def test_tcbb_deterministic(strip_small):
    r1 = tcbb_verify(strip_small, K=0.0, samples=60, tol=0.02, seed=11)
    r2 = tcbb_verify(strip_small, K=0.0, samples=60, tol=0.02, seed=11)
    assert r1["worst_margin"] == r2["worst_margin"]
    assert r1["counts"] == r2["counts"]
    # recorded with per-draw scalar lookups: a wrong slot in the gather of
    # the six pairs changes them
    assert r1["counts"] == {"valid": 60, "relation": 973, "domain": 0,
                            "unrealizable": 0, "outside_chart": 0}
    assert r1["worst_margin"] == 1.2499999229476089e-05
    worst = r1["worst_config"]
    assert worst["kind"] == "past"
    assert worst["points"] == ((39, 14), (27, 18), (3, 5), (2, 6))
    assert [worst[k] for k in ("tau_yx", "tau_yz1", "tau_yz2", "tau_xz1",
                               "tau_xz2", "tau_z1z2")] == [
        0.5656854249492381, 1.7428425057933379, 1.8056923733227017,
        1.0074689665460224, 1.095650629422833, 1.2499999229476089e-05]
    cfg = FourPointConfig(**{k: worst[k] for k in (
        "tau_yx", "tau_yz1", "tau_yz2", "tau_xz1", "tau_xz2", "tau_z1z2")},
        kind=worst["kind"], points=worst["points"])
    assert worst["realized"] == [
        {"time": pt.time, "space": pt.space,
         "coords": [float(v) for v in np.atleast_1d(pt.coords)]}
        for pt in realize_comparison(cfg, 0.0)]


@pytest.fixture(scope="module")
def sin_arc_small():
    """The sin-warped 2-cone over a short arc on a quick 41 x 21 grid."""
    ts = np.linspace(0.0, math.pi, 41)
    return GeneralizedCone(WarpingFunction(ts, np.sin(ts)),
                           circle_arc(1.0, 0.8, 21), N=2.0, dist_steps=20,
                           window=8)


# recorded with the per-draw scalar verifier at seed 5, 300 samples; the
# rows cover every rejection tag and a FAIL.  The K = -4 margin and the
# K = 30 counts were recorded again with numpy's transcendentals: the
# widened enclosure lowers T_lo by 1.2e-14 at K = -4, and at K = 30 the
# realization's 1e-8 re-measure turns one more draw unrealizable under 1-2
# ulp changes of cosh, so those counts follow the host's library
@pytest.mark.parametrize("K, counts, worst, passed, points", [
    (0.0, (300, 883, 0, 0, 0), 0.0, True,
     ((7, 13), (19, 18), (29, 6), (29, 6))),
    (1.0, (300, 892, 0, 0, 2), 0.0, True,
     ((7, 13), (19, 18), (29, 6), (29, 6))),
    (-4.0, (300, 12750, 3945, 0, 0), -0.15880099395978953, False,
     ((10, 19), (14, 19), (21, 8), (29, 18))),
    (30.0, (300, 895, 0, 3, 2), 0.0, True,
     ((7, 13), (19, 18), (29, 6), (29, 6))),
])
def test_tcbb_pinned(sin_arc_small, K, counts, worst, passed, points):
    rep = tcbb_verify(sin_arc_small, K=K, samples=300, tol=0.02, seed=5)
    assert rep["counts"] == dict(zip(("valid", "relation", "domain",
                                      "unrealizable", "outside_chart"),
                                     counts))
    assert rep["worst_margin"] == worst
    assert rep["pass"] is passed
    assert rep["worst_config"]["points"] == points


def test_tcbb_insufficient_samples():
    from conelab.cone import minkowski_strip
    cone = minkowski_strip(time_steps=4, fiber_points=3, fiber_len=4.0)
    with pytest.raises(InsufficientSamples,
                       match="only 0 valid configs after 250 draws"):
        tcbb_verify(cone, K=0.0, samples=50, tol=0.02, seed=0,
                    max_draw_factor=5)


def test_injected_violation_flagged():
    # realizable five constraints, z's nearly on-axis so taubar is large,
    # with a non-geometric tiny tau(z1,z2) injected
    b1 = math.sqrt(6.25 - 0.01)
    c1 = math.sqrt(2.25 - 0.01)
    b2 = math.sqrt(16.0 - 0.0225)
    c2 = math.sqrt(9.0 - 0.0225)
    cfg = FourPointConfig(1.0, b1, b2, c1, c2, 0.3)
    m = config_margin(cfg, 0.0)
    assert m < -0.5   # flagged well beyond any tolerance


def test_quadric_invariant():
    p = ModelPoint(-2.0, 0.3, -0.4)
    e = np.array(p.coords)
    q = -e[0] ** 2 - e[1] ** 2 + e[2] ** 2
    assert q == pytest.approx(-1.0 / 2.0, abs=1e-10)


def _per_draw(rng, nt, nx, count):
    return np.array([np.concatenate([rng.integers(0, nt, size=4),
                                     rng.integers(0, nx, size=4)])
                     for _ in range(count)])


def test_chunked_draws_match_per_draw_integers():
    # one integers call per chunk against one call per draw, for the
    # benchmark's bounds, for 2**31 + 1 (about half of all words rejected),
    # for 1 (no word read) and past 2**32 (64-bit words), with the
    # generator state after every chunk
    for nt, nx in ((101, 41), (2 ** 31 + 1, 41), (101, 2 ** 31 + 1), (1, 1),
                   (101, 1), (2 ** 32 + 5, 7)):
        chunked, real = np.random.default_rng(3), np.random.default_rng(3)
        for count in (1, 64, 4096, 33, 903, 2, 17):
            got = model2d._draw_indices(chunked, nt, nx, count)
            assert np.array_equal(got, _per_draw(real, nt, nx, count))
            assert chunked.bit_generator.state == real.bit_generator.state


def test_cos_warping_k_sign_convention():
    # for f = cos, f'' + K f <= 0 holds up to K = 1: fk_concavity and the
    # curvature reductions take K = +1, where tcbb's bound for the same
    # warping sits at K = -1 (the cone passes there and fails just below)
    a = 0.48 * math.pi
    f = preset("cos", -a, a, 101)
    assert fk_concavity(f, 1.0).is_concave
    assert not fk_concavity(f, 1.05).is_concave
    assert sectional_reduction(f, 1.0, 1.0).verdict
    assert not sectional_reduction(f, 1.05, 1.0).verdict
    cone = GeneralizedCone(preset("cos", -a, a, 41), circle_arc(1.0, 0.8, 21),
                           dist_steps=20, window=8)
    assert tcbb_verify(cone, K=-1.0, samples=300, tol=0.02, seed=5)["pass"]
    assert not tcbb_verify(cone, K=-1.2, samples=300, tol=0.02, seed=5)["pass"]

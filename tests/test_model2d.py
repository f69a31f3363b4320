import math

import numpy as np
import pytest

from conelab import model2d
from conelab.cone import GeneralizedCone
from conelab.errors import (DomainViolation, InsufficientSamples, MixedModels,
                            Unrealizable)
from conelab.model2d import (FourPointConfig, ModelPoint, comparison_interval,
                             config_margin, model_tau, model_tau_nonneg,
                             realize_comparison, tcbb_verify)
from conelab.curvature import sectional_reduction
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
# rows cover every rejection tag and a FAIL
@pytest.mark.parametrize("K, counts, worst, passed, points", [
    (0.0, (300, 883, 0, 0, 0), 0.0, True,
     ((7, 13), (19, 18), (29, 6), (29, 6))),
    (1.0, (300, 892, 0, 0, 2), 0.0, True,
     ((7, 13), (19, 18), (29, 6), (29, 6))),
    (-4.0, (300, 12750, 3945, 0, 0), -0.15880099395980152, False,
     ((10, 19), (14, 19), (21, 8), (29, 18))),
    (30.0, (300, 894, 0, 2, 2), 0.0, True,
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

import math

import numpy as np
import pytest

from conelab.errors import (DomainViolation, InsufficientSamples, MixedModels,
                            Unrealizable)
from conelab.model2d import (FourPointConfig, ModelPoint, comparison_interval,
                             config_margin, model_tau, model_tau_nonneg,
                             realize_comparison, tcbb_verify)


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


def test_tcbb_insufficient_samples():
    from conelab.cone import minkowski_strip
    cone = minkowski_strip(time_steps=4, fiber_points=3, fiber_len=4.0)
    with pytest.raises(InsufficientSamples):
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

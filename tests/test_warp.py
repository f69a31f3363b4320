import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conelab.errors import GridTooCoarse, ZeroFunction
from conelab.warp import (WarpingFunction, _moving_average, fk_concavity,
                          mollify_fk, normalize_and_bound, preset, slope,
                          slopes)


def uniform(fn, a, b, n):
    ts = np.linspace(a, b, n)
    return WarpingFunction(ts, np.maximum(fn(ts), 0.0))


def tent(n=81):
    ts = np.linspace(0.0, 2.0, n)
    return WarpingFunction(ts, 1.0 - np.abs(ts - 1.0))


def test_slope_constant_zero():
    f = uniform(lambda t: np.ones_like(t), 0, 1, 11)
    assert all(slope(f, i) == 0.0 for i in range(f.n))


def test_slope_linear_one():
    f = uniform(lambda t: t, 0, 1, 11)
    for i in range(1, f.n - 1):
        assert slope(f, i) == pytest.approx(1.0)


def test_slope_zero_at_local_max():
    f = preset("sin", 0, math.pi, 201)
    imax = int(np.argmax(f.vals))
    assert slope(f, imax) == 0.0


def test_slope_outside_the_grid_rejected():
    f = uniform(lambda t: t, 0, 1, 11)
    for i in (-1, f.n):
        with pytest.raises(IndexError):
            slope(f, i)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_warping_rejected(bad):
    # NaN fails every comparison, so it passed each check of the grid
    ts = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="finite"):
        WarpingFunction(ts, np.array([0.5, 1.0, bad, 1.0, 0.5]))
    with pytest.raises(ValueError, match="finite"):
        WarpingFunction(np.array([0.0, 0.25, 0.5, 0.75, bad]), np.ones(5))


def test_slope_boundary_conventions():
    # increasing at the left end: forward quotient counts
    f = uniform(lambda t: t, 0, 1, 11)
    assert slope(f, 0) == pytest.approx(1.0)
    # increasing at the right end: backward derivative positive, slope 0
    assert slope(f, f.n - 1) == 0.0
    # decreasing function mirrored
    g = uniform(lambda t: 1 - t + 1e-3, 0, 1, 11)
    assert slope(g, 0) == 0.0
    assert slope(g, g.n - 1) == pytest.approx(1.0)


def test_fk_concavity_sin():
    rep = fk_concavity(preset("sin", 0, math.pi, 201), 1.0)
    assert rep.max_violation <= 1e-3
    assert rep.is_concave
    assert rep.Kf == pytest.approx(-1.0, abs=0.01)


def test_fk_concavity_const():
    f = uniform(lambda t: np.ones_like(t), 0, 1, 11)
    rep = fk_concavity(f, 0.0)
    np.testing.assert_allclose(rep.residuals, 0.0, atol=1e-12)
    assert rep.Kf == pytest.approx(0.0, abs=1e-12)


def test_fk_concavity_shifted_sin_fails():
    ts = np.linspace(0, math.pi, 201)
    f = WarpingFunction(ts, np.sin(ts) + 0.1)
    rep = fk_concavity(f, 1.0)
    assert not rep.is_concave
    assert rep.max_violation == pytest.approx(0.1, abs=5e-3)


def test_fk_residuals_translation_invariant():
    ts = np.linspace(0, math.pi, 101)
    f = WarpingFunction(ts, np.sin(ts))
    g = WarpingFunction(ts + 5.0, np.sin(ts))
    np.testing.assert_allclose(fk_concavity(f, 1.0).residuals,
                               fk_concavity(g, 1.0).residuals, atol=1e-12)


def test_fk_needs_three_points():
    f = WarpingFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(GridTooCoarse):
        fk_concavity(f, 0.0)


def test_normalize_two_sin():
    f = uniform(lambda t: 2 * np.sin(t), 0, math.pi, 201)
    g, lam, ok = normalize_and_bound(f, 1.0)
    assert lam == pytest.approx(2.0)
    np.testing.assert_allclose(g.vals, np.sin(g.ts), atol=1e-12)
    assert ok


def test_normalize_constant():
    f = uniform(lambda t: 5 * np.ones_like(t), 0, 1, 21)
    g, lam, ok = normalize_and_bound(f, 0.0)
    assert lam == pytest.approx(5.0)
    assert ok


def test_normalize_linear_left_anchor():
    # |d log g| = 1/t <= 1/(t - 0.1) = cot_0(t - a): bound holds everywhere
    f = uniform(lambda t: t, 0.1, 1.0, 46)
    ts = f.ts[1:-1]
    assert np.all(1.0 / ts <= 1.0 / (ts - 0.1))
    _, lam, ok = normalize_and_bound(f, 0.0)
    assert lam == pytest.approx(1.0)
    assert ok


def test_normalize_idempotent():
    f = uniform(lambda t: 2 * np.sin(t), 0, math.pi, 201)
    g, _, _ = normalize_and_bound(f, 1.0)
    _, lam2, _ = normalize_and_bound(g, 1.0)
    assert lam2 == pytest.approx(1.0)


def test_normalize_zero_function():
    f = WarpingFunction(np.linspace(0, 1, 5), np.zeros(5))
    with pytest.raises(ZeroFunction):
        normalize_and_bound(f, 0.0)


def test_mollify_linear_unchanged():
    f = uniform(lambda t: t + 0.5, 0, 1, 41)
    out = mollify_fk(f, 0.0, 0.3)
    assert out is f


def test_mollify_sin_passes_reduced_check():
    f = preset("sin", 0, math.pi, 201)
    out = mollify_fk(f, 1.0, 0.1)
    assert fk_concavity(out, 0.9).is_concave
    assert np.abs(out.vals - f.vals).max() <= 0.05


def test_mollify_tent():
    f = tent()
    out = mollify_fk(f, 0.0, 0.05)
    assert fk_concavity(out, 0.0).is_concave
    assert np.abs(out.vals - f.vals).max() <= 0.05


def test_slope_lower_semicontinuity_along_mollification():
    # smoothed tents converge uniformly to the tent; slopes cannot drop in
    # the limit beyond the grid-scale allowance
    f = tent(161)
    widths = [0.2, 0.1, 0.05, 0.025, 0.0125]
    fams = [_moving_average(f, w) for w in widths]
    h = float(np.diff(f.ts).max())
    base = slopes(f)
    for i in (40, 80, 120):   # generic, peak, generic
        lim = min(slopes(g)[i] for g in fams[-2:])
        assert lim >= base[i] - 4 * h - 1e-9


def test_inf_G_lower_semicontinuity():
    f = tent(161)
    rep_lim = fk_concavity(f, 0.0)
    for w in (0.05, 0.025, 0.0125):
        g = _moving_average(f, w)
        rep = fk_concavity(g, 0.0)
        assert -rep.Kf >= -rep_lim.Kf - 1e-6   # min G_i >= min G - tol


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=40, deadline=None)
def test_slope_nonnegative(i):
    f = preset("cos", -1.2, 1.2, 41)
    assert slope(f, i) >= 0.0


def test_presets():
    assert preset("const", 0, 1, 5, 3.0).vals[0] == 3.0
    assert preset("power", 0, 1, 5, 2.0).vals[-1] == pytest.approx(1.0)
    sk = preset("sinK", 0, 1, 101, -1.0)
    np.testing.assert_allclose(sk.vals, np.sinh(sk.ts), atol=1e-12)
    with pytest.raises(ValueError):
        preset("nope", 0, 1, 5)

import math

import numpy as np
import pytest

from conelab.curvature import (oneill_diagnostics, ricci_reduction,
                               sectional_reduction)
from conelab.errors import GridTooCoarse
from conelab.warp import WarpingFunction


def uniform(fn, a, b, n=201):
    ts = np.linspace(a, b, n)
    return WarpingFunction(ts, np.maximum(fn(ts), 0.0))


def test_ricci_sin_fiber_bound_one():
    f = uniform(np.sin, 0, math.pi)
    rep = ricci_reduction(f, K=1.0, n=2, fiber_ric_bound=1.0)
    assert rep.cond1_concave
    assert rep.Kf == pytest.approx(-1.0, abs=0.01)
    assert rep.cond2_fiber          # 1 >= (n-1) K_f = -1
    assert rep.verdict


def test_ricci_constant():
    f = uniform(lambda t: np.ones_like(t), 0, 1, 21)
    rep = ricci_reduction(f, K=0.0, n=3, fiber_ric_bound=0.0)
    assert rep.verdict
    assert rep.Kf == pytest.approx(0.0, abs=1e-12)


def test_ricci_shifted_sin_fails_cond1():
    f = uniform(lambda t: np.sin(t) + 0.1, 0, math.pi)
    rep = ricci_reduction(f, K=1.0, n=2, fiber_ric_bound=10.0)
    assert not rep.cond1_concave
    assert not rep.verdict


def test_oneill_constant():
    f = uniform(lambda t: 2.0 * np.ones_like(t), 0, 1, 21)
    d = oneill_diagnostics(f, 4)
    np.testing.assert_allclose(d["time_time"], 0.0, atol=1e-9)
    np.testing.assert_allclose(d["tangential"], 0.0, atol=1e-9)
    np.testing.assert_allclose(d["mixed"], 0.0)


def test_oneill_exponential():
    f = uniform(np.exp, 0, 1, 401)
    d = oneill_diagnostics(f, 3)
    np.testing.assert_allclose(d["time_time"], -3.0, atol=1e-4)
    np.testing.assert_allclose(d["tangential"], 3.0, atol=1e-4)


def test_oneill_sin_at_peak():
    f = uniform(np.sin, 0, math.pi, 401)
    d = oneill_diagnostics(f, 2)
    i = int(np.argmin(np.abs(d["t"] - math.pi / 2)))
    assert d["time_time"][i] == pytest.approx(2.0, abs=1e-3)
    assert d["tangential"][i] == pytest.approx(-1.0, abs=1e-3)


def test_sectional_cos():
    f = uniform(np.cos, -math.pi / 2, math.pi / 2)
    rep = sectional_reduction(f, K=1.0, fiber_sec_bound=-1.0)
    assert rep.Kf == pytest.approx(-1.0, abs=0.01)
    assert rep.verdict


def test_sectional_linear_slope():
    # increasing linear profile: the boundary-maximum convention zeroes the
    # slope at the right endpoint, so K_f = 0 (not -m^2); the interior G is
    # the constant m^2 and the verdict holds either way
    m = 0.7
    f = uniform(lambda t: 1.0 + m * (t - 1.0), 0, 1, 101)
    rep = sectional_reduction(f, K=0.0, fiber_sec_bound=0.0)
    assert rep.Kf == pytest.approx(0.0, abs=1e-12)
    from conelab.warp import slopes
    interior_G = slopes(f)[1:-1] ** 2
    np.testing.assert_allclose(interior_G, m * m, atol=1e-9)
    assert rep.verdict


def test_sectional_non_concave_gate():
    f = uniform(lambda t: np.sin(t) + 0.1, 0, math.pi)
    rep = sectional_reduction(f, K=1.0, fiber_sec_bound=100.0)
    assert not rep.verdict


def test_non_monotonicity_in_K():
    # passing at K does not imply passing at K' < K: K_f grows as K drops
    f = uniform(lambda t: np.ones_like(t), 0, 1, 21)
    good = sectional_reduction(f, K=0.0, fiber_sec_bound=0.0)
    assert good.verdict
    bad = sectional_reduction(f, K=-4.0, fiber_sec_bound=0.0)
    assert bad.cond1_concave        # f'' + K' f = -4 <= 0
    assert not bad.cond2_fiber      # K_f jumps to 4 > 0
    assert not bad.verdict


def reconstructed_tangential_bound(f, K, n, fiber_ric_bound):
    """Pointwise slack of the tangential Ricci chain for a verdict-true
    input: fiber bound + (f''/f + (n-1) f'^2/f^2) f^2 + nK f^2 >= 0 up to
    the stencil error."""
    d = oneill_diagnostics(f, n)
    f2 = f.vals[1:-1] ** 2
    return fiber_ric_bound + d["tangential"] * f2 + n * K * f2


def test_only_if_chain_consistency():
    # verdict-true inputs reproduce the tangential Ricci chain pointwise
    for f, K, n, bound in [
        (uniform(np.sin, 0, math.pi), 1.0, 2, 1.0),
        (uniform(lambda t: np.ones_like(t), 0, 1, 21), 0.0, 3, 0.0),
    ]:
        rep = ricci_reduction(f, K, n, bound)
        assert rep.verdict
        slack = reconstructed_tangential_bound(f, K, n, bound)
        h = float(np.diff(f.ts).max())
        assert slack.min() >= -(n + 1) * h * h - 1e-9


def test_timelike_only_insufficiency_demonstration():
    # concave f with very negative K: FK-concave for that K, yet the fiber
    # requirement K_f becomes positive, so no bounded fiber passes: the
    # timelike-only analogue of the reduction cannot be reversed
    f = uniform(lambda t: np.ones_like(t) + 0.1 * np.minimum(t, 1 - t), 0, 1, 101)
    K_very_negative = -50.0
    rep = sectional_reduction(f, K_very_negative, fiber_sec_bound=-1.0)
    assert rep.cond1_concave
    assert rep.Kf > 1.0
    assert not rep.verdict


def test_grid_too_coarse():
    f = WarpingFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(GridTooCoarse):
        ricci_reduction(f, 0.0, 2, 0.0)
    with pytest.raises(GridTooCoarse):
        oneill_diagnostics(f, 2)

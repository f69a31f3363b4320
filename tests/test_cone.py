import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conelab.cone import GeneralizedCone, minkowski_strip
from conelab.errors import NotCausallyRelated, ResourceLimit
from conelab.metricspace import circle_arc, segment, single_point
from conelab.warp import WarpingFunction


def strip_truth(cone):
    ts, rs = cone.f.ts, cone.dist_grid
    dt = ts[None, :, None] - ts[:, None, None]
    rr = rs[None, None, :]
    return np.where(dt >= rr - 1e-12,
                    np.sqrt(np.maximum(dt ** 2 - rr ** 2, 0.0)), -np.inf)


def test_strip_bracket_validity(strip_small):
    lo, hi = strip_small.tables()
    truth = strip_truth(strip_small)
    mask = truth > -np.inf
    assert (lo <= truth + 1e-7).all()
    assert (hi[mask] >= truth[mask] - 1e-7).all()
    finite = lo > -np.inf
    assert ((lo <= hi + 1e-9) | ~finite).all()


def test_point_pair_zero(strip_small):
    assert strip_small.signed_separation((5, 3), (5, 3)) == 0.0


def test_spacelike_minus_inf(strip_small):
    # dt = 0.5 < d = 1.0 in the flat strip
    assert strip_small.signed_separation((0, 0), (10, 20)) == -math.inf


def test_strip_closed_form_value(strip_small):
    val = strip_small.signed_separation((0, 0), (40, 20))
    assert val == pytest.approx(math.sqrt(3.0), abs=0.05)


def test_reverse_triangle_exact_both_tables(strip_small):
    lo, hi = strip_small.tables()
    n, m = strip_small.f.n, strip_small.m
    rng = np.random.default_rng(0)
    for table in (lo, hi):
        for _ in range(4000):
            s, u, t = np.sort(rng.integers(0, n, 3))
            r1, r2 = rng.integers(0, m, 2)
            if r1 + r2 >= m:
                continue
            a, b = table[s, u, r1], table[u, t, r2]
            if a > -np.inf and b > -np.inf:
                assert table[s, t, r1 + r2] - (a + b) >= -1e-9


def test_point_level_reverse_triangle(strip_small):
    rng = np.random.default_rng(1)
    nt, nx = strip_small.f.n, strip_small.X.n
    checked = 0
    while checked < 1500:
        s, u, t = np.sort(rng.integers(0, nt, 3))
        xs = rng.integers(0, nx, 3)
        p, q, r = (s, xs[0]), (u, xs[1]), (t, xs[2])
        a = strip_small.signed_separation(p, q)
        b = strip_small.signed_separation(q, r)
        if a == -math.inf or b == -math.inf:
            continue
        assert strip_small.signed_separation(p, r) - (a + b) >= -1e-9
        checked += 1


def test_warping_monotonicity_exact(strip_small):
    f = strip_small.f
    g_cone = GeneralizedCone(WarpingFunction(f.ts, 0.8 * f.vals),
                             strip_small.X, window=strip_small.window)
    lo_f, _ = strip_small.tables()
    lo_g, _ = g_cone.tables()
    assert (lo_g >= lo_f).all()
    assert (((lo_f > -np.inf) <= (lo_g > -np.inf))).all()


def test_bracket_refinement_monotone():
    # grid doubling (time and distance) with doubled window: lo never drops,
    # hi never rises, on the shared coarse entries
    ts_c = np.linspace(0.3, 1.5, 31)
    f = lambda t: 0.5 + 0.4 * np.sin(2.1 * t)
    coarse = GeneralizedCone(WarpingFunction(ts_c, f(ts_c)), segment(0.6, 13),
                             dist_steps=12, window=4)
    ts_f = np.linspace(0.3, 1.5, 61)
    fine = GeneralizedCone(WarpingFunction(ts_f, f(ts_f)), segment(0.6, 13),
                           dist_steps=24, window=8)
    lo_c, hi_c = coarse.tables()
    lo_f, hi_f = fine.tables()
    lo_sub = lo_f[::2, ::2, ::2]
    hi_sub = hi_f[::2, ::2, ::2]
    assert (lo_sub >= lo_c - 1e-12).all()
    assert (hi_sub <= hi_c + 1e-12).all()


def test_maximizer_vertical(strip_small):
    g = strip_small.maximizer((0, 5), (40, 5))
    assert g.tau_length == pytest.approx(2.0, abs=1e-9)
    assert g.character() == "timelike"


def test_maximizer_null_ray(strip_small):
    g = strip_small.maximizer((0, 0), (20, 20))
    assert g.tau_length <= 2e-8
    assert g.character() == "null"


def test_maximizer_radial_in_mink_cone():
    ts = np.linspace(0.5, 2.0, 61)
    cone = GeneralizedCone(WarpingFunction(ts, ts.copy()), segment(1.0, 11),
                           dist_steps=10, window=8)
    g = cone.maximizer((0, 4), (60, 4))
    assert g.tau_length == pytest.approx(1.5, abs=1e-9)


def test_maximizer_not_related(strip_small):
    with pytest.raises(NotCausallyRelated):
        strip_small.maximizer((0, 0), (5, 20))


def test_energy_diagnostic():
    # constant warping: the Clairaut value is exactly constant edge-to-edge
    ts = np.linspace(0.0, 2.0, 101)
    strip = GeneralizedCone(WarpingFunction(ts, np.ones(101)),
                            segment(1.0, 51), dist_steps=50, window=8,
                            dist_refine=2)
    vals = strip.maximizer((0, 0), (100, 25)).energy_diagnostic()
    assert max(vals) - min(vals) <= 1e-12
    # varying warping: constant at coarse grain (allocation is cellwise)
    ts2 = np.linspace(0.5, 2.0, 101)
    cone = GeneralizedCone(WarpingFunction(ts2, ts2.copy()), segment(1.0, 51),
                           dist_steps=50, window=8, dist_refine=2)
    v = cone.maximizer((0, 0), (100, 40)).energy_diagnostic()
    half = len(v) // 2
    m1, m2 = np.mean(v[:half]), np.mean(v[half:])
    assert abs(m1 - m2) / max(m1, m2) <= 0.2


def test_maximizer_limit_under_refinement():
    # the coarse maximizer's states survive as a causal near-maximal path
    # on the doubled grid
    ts_c = np.linspace(0.0, 2.0, 41)
    coarse = GeneralizedCone(WarpingFunction(ts_c, np.ones(41)),
                             segment(1.0, 21), dist_steps=20, window=4)
    ts_f = np.linspace(0.0, 2.0, 81)
    fine = GeneralizedCone(WarpingFunction(ts_f, np.ones(81)),
                           segment(1.0, 21), dist_steps=40, window=8)
    g = coarse.maximizer((0, 0), (40, 20))
    lo_f, _ = fine.tables()
    # re-evaluate the path on the fine tables: still causal, value close
    val = 0.0
    for (a, ra), (b, rb) in zip(g.states, g.states[1:]):
        seg_val = lo_f[2 * a, 2 * b, fine._cells(rb - ra, upper=False)]
        assert seg_val > -np.inf
        val += seg_val
    assert val >= g.tau_length - 1e-9


def test_reference_measure_examples():
    # constant warping: all cells equal
    c1 = minkowski_strip(time_steps=4, fiber_points=3, fiber_len=1.0)
    w = c1.reference_measure()
    assert np.allclose(w[1:-1, :], w[1, 0])
    # f(t) = t on [0,1], N = 1, two equal cells at midpoints .25/.75
    ts = np.array([0.25, 0.75])
    f = WarpingFunction(ts, ts.copy())
    cone = GeneralizedCone(f, segment(1.0, 2), N=1.0, dist_steps=2, window=1)
    w = cone.reference_measure()
    assert w[1, 0] / w[0, 0] == pytest.approx(3.0)
    # f = sin, N = 2: total mass ~ (pi/2) * fiber mass
    ts = np.linspace(0, math.pi, 401)
    sin_cone = GeneralizedCone(WarpingFunction(ts, np.sin(ts)),
                               segment(1.0, 3), N=2.0, dist_steps=4, window=4)
    total = sin_cone.reference_measure().sum()
    assert total == pytest.approx(math.pi / 2 * 3, rel=1e-3)


def test_rescale_identity_and_doubling(strip_small):
    same = strip_small.rescale(1.0)
    lo0, _ = strip_small.tables()
    lo1, _ = same.tables()
    np.testing.assert_allclose(lo0, lo1)
    double = strip_small.rescale(0.5)
    lo2, _ = double.tables()
    mask = lo0 > -np.inf
    np.testing.assert_allclose(lo2[mask], 2.0 * lo0[mask], atol=1e-9)


def test_scaling_isomorphism(strip_small):
    assert strip_small.scaling_isomorphism_check(1.0) == 0.0
    assert strip_small.scaling_isomorphism_check(2.0) <= 1e-12
    ts = np.linspace(0.5, 2.0, 41)
    cone = GeneralizedCone(WarpingFunction(ts, ts.copy()), segment(1.0, 11),
                           dist_steps=10, window=8)
    assert cone.scaling_isomorphism_check(3.0) <= 1e-12


def test_zero_warping_degenerates_to_base():
    f = WarpingFunction(np.linspace(0, 1, 11), np.zeros(11))
    cone = GeneralizedCone(f, segment(1.0, 5), dist_steps=4, window=4)
    lo, hi = cone.tables()
    assert lo[0, 10, 3] == pytest.approx(1.0)
    assert hi[0, 10, 3] == pytest.approx(1.0)
    assert cone.signed_separation((0, 0), (10, 4)) == pytest.approx(1.0)


def test_causal_diamond_monotone_under_refinement():
    ts_c = np.linspace(0.0, 1.0, 21)
    coarse = GeneralizedCone(WarpingFunction(ts_c, np.ones(21)),
                             segment(0.5, 11), dist_steps=10, window=4)
    ts_f = np.linspace(0.0, 1.0, 41)
    fine = GeneralizedCone(WarpingFunction(ts_f, np.ones(41)),
                           segment(0.5, 11), dist_steps=20, window=8)
    dia_c = coarse.causal_diamond((2, 0), (18, 6))
    dia_f = fine.causal_diamond((4, 0), (36, 6))
    mapped = {(2 * a, x) for a, x in dia_c}
    assert mapped <= set(dia_f)
    assert len(dia_f) >= len(dia_c)
    assert dia_c == reference_diamond(coarse, (2, 0), (18, 6))
    assert dia_f == reference_diamond(fine, (4, 0), (36, 6))
    assert fine.causal_diamond((9, 3), (30, 10)) \
        == reference_diamond(fine, (9, 3), (30, 10))
    assert coarse.causal_diamond((18, 6), (2, 0)) == []


def reference_diamond(cone, p, q):
    """causal_diamond as a double loop over grid states, time-major."""
    out = []
    for a in range(p[0], q[0] + 1):
        for x in range(cone.X.n):
            u = (a, x)
            if cone.causally_related(p, u) and cone.causally_related(u, q):
                out.append(u)
    return out


def test_imprisonment_bound(strip_small):
    c = strip_small.imprisonment_bound(2.0, 1.0)
    assert c <= math.sqrt(2.0) * 2.0 + 1e-12
    # a causal maximizer's product-metric length obeys the bound
    g = strip_small.maximizer((0, 0), (40, 20))
    ts = strip_small.f.ts
    length = sum(math.hypot(ts[b] - ts[a], rb - ra)
                 for (a, ra), (b, rb) in zip(g.states, g.states[1:]))
    assert length <= c + 1e-9


def test_resource_limit():
    ts = np.linspace(0, 1, 2001)
    with pytest.raises(ResourceLimit):
        GeneralizedCone(WarpingFunction(ts, np.ones(2001)), segment(1.0, 301),
                        dist_steps=2000, window=8)


def test_single_point_fiber():
    ts = np.linspace(0, 1, 11)
    cone = GeneralizedCone(WarpingFunction(ts, np.ones(11)), single_point(),
                           window=4)
    assert cone.signed_separation((0, 0), (10, 0)) == pytest.approx(1.0)


def test_json_roundtrip(strip_small):
    cone = GeneralizedCone.from_json(strip_small.to_json())
    lo0, _ = strip_small.tables()
    lo1, _ = cone.tables()
    np.testing.assert_allclose(lo0, lo1)


# -- the lower DP kernel against the unrestricted loop ------------------------


def reference_lower(cone):
    """The lower DP with every edge update over every row and column: the
    oracle the restricted kernel must match bit for bit."""
    ts, vals = cone.f.ts, cone.f.vals
    n, m, dr, W = cone.f.n, cone.m, cone.dr, cone.window
    if cone.f.is_zero:
        dt = ts[None, :] - ts[:, None]
        T = np.where(dt >= 0, dt, -np.inf)[:, :, None]
        return np.broadcast_to(T, (n, n, m)).copy()
    T = np.full((n, n, m), -np.inf)
    T[np.arange(n), np.arange(n), 0] = 0.0
    deltas = np.arange(m) * dr
    for t in range(1, n):
        for u in range(max(0, t - W), t):
            c = vals[u:t + 1].max()
            dt = ts[t] - ts[u]
            feas = dt >= c * deltas
            w = np.sqrt(np.maximum(dt * dt - (c * deltas) ** 2, 0.0))
            src = T[:, u, :]
            dst = T[:, t, :]
            for k in range(m):
                if not feas[k]:
                    break
                if k == 0:
                    np.maximum(dst, src + w[0], out=dst)
                else:
                    np.maximum(dst[:, k:], src[:, :m - k] + w[k],
                               out=dst[:, k:])
    return T


def _kernel_cones():
    yield pytest.param(minkowski_strip(time_steps=40, fiber_points=21),
                       id="strip_small")
    arc = circle_arc(1.0, 0.8, 9)
    ts = np.linspace(0.5, 2.0, 31)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, ts.copy()),
                                       segment(1.0, 11), dist_steps=20,
                                       window=8), id="f(t)=t")
    ts = np.linspace(-math.pi / 2 * 0.96, math.pi / 2 * 0.96, 31)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.cos(ts)), arc,
                                       dist_steps=16, window=8), id="cos-arc")
    ts = np.linspace(0.0, math.pi, 31)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.sin(ts)), arc,
                                       N=2.0, dist_steps=16, window=8),
                       id="sin-arc")
    ts = np.linspace(0.0, 1.0, 11)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.zeros(11)),
                                       segment(1.0, 5), dist_steps=4,
                                       window=4), id="zero")
    ts = np.linspace(0.0, 1.0, 13)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, 1.0 + ts),
                                       segment(1.0, 7), dist_steps=12,
                                       window=50), id="window>=n")


def _assert_kernel_exact(cone):
    full = cone._build_lower()
    assert np.array_equal(full, reference_lower(cone))
    for s in range(cone.f.n):
        assert np.array_equal(cone._lower_rows([s])[0], full[s])
    some = [1, cone.f.n // 2, cone.f.n - 1]
    assert np.array_equal(cone._lower_rows(some), full[some])


@pytest.mark.parametrize("cone", list(_kernel_cones()))
def test_lower_kernel_matches_reference(cone):
    _assert_kernel_exact(cone)


@st.composite
def _small_warped_cones(draw):
    n = draw(st.integers(3, 14))
    steps = draw(st.lists(st.floats(0.02, 0.4), min_size=n - 1,
                          max_size=n - 1))
    ts = np.concatenate([[0.0], np.cumsum(steps)])
    vals = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n,
                                  max_size=n)))
    if draw(st.booleans()):
        vals[0] = 0.0
    if draw(st.booleans()):
        vals[-1] = 0.0
    fiber = segment(draw(st.floats(0.1, 2.0)), draw(st.integers(2, 6)))
    return GeneralizedCone(WarpingFunction(ts, vals), fiber,
                           dist_steps=draw(st.integers(1, 12)),
                           window=draw(st.integers(1, n)))


@settings(max_examples=60, deadline=None)
@given(_small_warped_cones())
def test_lower_kernel_property(cone):
    _assert_kernel_exact(cone)


def test_maximizer_fresh_cone_reads_one_row():
    ts = np.linspace(0.0, math.pi, 41)
    make = lambda: GeneralizedCone(WarpingFunction(ts, np.sin(ts)),
                                   circle_arc(1.0, 0.8, 9), N=2.0,
                                   dist_steps=16, window=8)
    built = make()
    built.tables()
    for p, q in [((3, 0), (35, 6)), ((10, 2), (30, 2)), ((0, 8), (40, 1))]:
        fresh = make()
        g = fresh.maximizer(p, q)
        assert fresh._lo is None and fresh._hi is None
        ref = built.maximizer(p, q)
        assert g.states == ref.states
        assert g.weights == ref.weights
        assert g.tau_length == ref.tau_length
        assert g.tau_length == built.signed_separation(p, q)


# -- the one separation lookup against the scalar rule --------------------------


def reference_separation(cone, p, q, upper=False):
    """Scalar lookup: -inf for a backward pair, else the table entry at the
    fiber distance rounded up (lower) or down (upper) onto the distance
    grid, with an absolute 1e-9 slack, and cell 0 when dr == 0."""
    (si, xi), (ti, yi) = p, q
    if ti < si:
        return -math.inf
    if cone.dr == 0.0:
        r = 0
    else:
        x = cone.X.dist[xi, yi] / cone.dr
        r = math.floor(x + 1e-9) if upper else math.ceil(x - 1e-9)
    table = cone.upper_table() if upper else cone.lower_table()
    return float(table[si, ti, r])


def _lookup_cones():
    yield pytest.param(minkowski_strip(time_steps=40, fiber_points=21),
                       id="strip_small")
    ts = np.linspace(-math.pi / 2 * 0.96, math.pi / 2 * 0.96, 21)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.cos(ts)),
                                       circle_arc(1.0, 0.8, 9), dist_steps=8,
                                       window=8, dist_refine=2), id="cos-arc")
    ts = np.linspace(0.0, 1.0, 11)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.zeros(11)),
                                       segment(1.0, 5), dist_steps=4,
                                       window=4), id="zero")
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.ones(11)),
                                       single_point(), window=4),
                       id="one-point")


@pytest.mark.parametrize("cone", list(_lookup_cones()))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_separations_match_scalar_rule(cone, data):
    n, nx = cone.f.n, cone.X.n
    k, j = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    draw = lambda hi, size: np.array(data.draw(st.lists(
        st.integers(0, hi - 1), min_size=size, max_size=size)), dtype=int)
    pt, px = draw(n, k), draw(nx, k)
    # the last column shares the first row's time: an equal-time pair
    qt = np.append(draw(n, j), pt[0])
    qx = draw(nx, j + 1)
    for upper in (False, True):
        got = cone.separations((pt[:, None], px[:, None]), (qt, qx),
                               upper=upper)
        assert got.shape == (k, j + 1)
        for a in range(k):
            for b in range(j + 1):
                p = (int(pt[a]), int(px[a]))
                q = (int(qt[b]), int(qx[b]))
                want = reference_separation(cone, p, q, upper)
                assert got[a, b] == want
                assert cone.separations(p, q, upper=upper) == want
        assert (got[pt[:, None] > qt[None, :]] == -math.inf).all()


# -- the backtrace walks the lower DP's own edges --------------------------------


def _backtrace_cones():
    yield from _lookup_cones()
    ts = np.linspace(0.0, 1.0, 9)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, 1.0 + 0.5 * np.sin(3.0 * ts)),
                                       segment(1.0, 7), dist_steps=12,
                                       window=20), id="varying-window>=n-1")


@pytest.mark.parametrize("cone", list(_backtrace_cones()))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_maximizer_steps_are_dp_edges(cone, data):
    n, nx = cone.f.n, cone.X.n
    s, t = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                     max_size=2)))
    p = (s, data.draw(st.integers(0, nx - 1)))
    q = (t, data.draw(st.integers(0, nx - 1)))
    tau = cone.signed_separation(p, q)
    # known gap: the zero-warping table holds ts[t] - ts[s] at every
    # distance cell, also at t == s, where no grid path ends.  The backtrace
    # takes shift 0 first, reaches (s, r > 0) and stops, so every pair at a
    # positive cell raises; the steps it does return must still be DP edges
    gap = cone.f.is_zero and cone._fiber_cells[False][p[1], q[1]] > 0
    if tau == -math.inf or gap:
        with pytest.raises(NotCausallyRelated):
            cone.maximizer(p, q)
        return
    g = cone.maximizer(p, q)
    ts, vals = cone.f.ts, cone.f.vals
    for (a, ra), (b, rb), w in zip(g.states, g.states[1:], g.weights):
        assert 0 < b - a <= cone.window
        k = round((rb - ra) / cone.dr) if cone.dr > 0 else 0
        assert vals[a:b + 1].max() * (k * cone.dr) <= ts[b] - ts[a]
        assert w == cone._edge(a, b)[1][k]
    assert abs(sum(g.weights) - g.tau_length) <= 1e-9 * (1 + abs(tau))
    assert g.tau_length == tau

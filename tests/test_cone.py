import contextlib
import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conelab import cone as cone_mod
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
    dia_c = causal_diamond(coarse, (2, 0), (18, 6))
    dia_f = causal_diamond(fine, (4, 0), (36, 6))
    mapped = {(2 * a, x) for a, x in dia_c}
    assert mapped <= set(dia_f)
    assert len(dia_f) >= len(dia_c)
    assert dia_c == reference_diamond(coarse, (2, 0), (18, 6))
    assert dia_f == reference_diamond(fine, (4, 0), (36, 6))
    assert causal_diamond(fine, (9, 3), (30, 10)) \
        == reference_diamond(fine, (9, 3), (30, 10))
    assert causal_diamond(coarse, (18, 6), (2, 0)) == []


def causal_diamond(cone, p, q):
    """Grid states u with p <= u <= q under the canonical relation, in
    time-major order, from two broadcast `separations` reads."""
    u = (np.arange(p[0], q[0] + 1)[:, None], np.arange(cone.X.n))
    inside = (cone.separations(p, u) >= 0.0) & (cone.separations(u, q) >= 0.0)
    return [(int(p[0] + a), int(x)) for a, x in zip(*np.nonzero(inside))]


def reference_diamond(cone, p, q):
    """causal_diamond as a double loop over grid states, time-major."""
    out = []
    for a in range(p[0], q[0] + 1):
        for x in range(cone.X.n):
            u = (a, x)
            if cone.signed_separation(p, u) >= 0.0 \
                    and cone.signed_separation(u, q) >= 0.0:
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
    # the budget is checked where rows are stored: the cone is made, and
    # reading a whole table is refused before anything is computed
    ts = np.linspace(0, 1, 2001)
    cone = GeneralizedCone(WarpingFunction(ts, np.ones(2001)),
                           segment(1.0, 301), dist_steps=2000, window=8)
    with pytest.raises(ResourceLimit):
        cone.lower_table()
    with pytest.raises(ResourceLimit):
        cone.upper_table()


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
    # dr == 0 with several cells: every cell sits at distance 0
    ts = np.linspace(0.0, 1.0, 11)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, 0.3 + ts),
                                       single_point(), dist_steps=4,
                                       window=4), id="one-point-cells")


def _assert_kernel_exact(cone):
    ref = reference_lower(cone)
    n, nx, m = cone.f.n, cone.X.n, cone.m
    full = cone._build_lower(np.arange(n))
    assert np.array_equal(full, ref)
    for s in range(n):
        assert np.array_equal(cone._build_lower([s])[0], full[s])
    some = sorted({1 % n, n // 2, n - 1})
    assert np.array_equal(cone._build_lower(some), full[some])
    # _build_lower split into 2 and 3 blocks of sources
    for parts in (2, 3):
        with mock.patch.object(cone_mod, "LOWER_BLOCK",
                               math.ceil(n / parts) * n * m):
            assert 2 <= len(cone._source_blocks(np.arange(n))) <= 3
            assert np.array_equal(cone._build_lower(np.arange(n)), ref)
        with mock.patch.object(cone_mod, "LOWER_BLOCK", n * m):
            assert np.array_equal(cone._build_lower(some), full[some])
    # one-source rows, and separation reads of the stored table, which is
    # the kernel's transposed view of its cell-major state
    for s in range(n):
        rows, slot = _twin(cone)._store(False, s)
        assert np.array_equal(rows[slot[s]], ref[s])
    twin = _twin(cone)
    lo = twin.lower_table()
    assert cone.f.is_zero or lo.base is not None
    pt, px = np.arange(n)[:, None, None, None], np.arange(nx)[:, None, None]
    qt, qx = np.arange(n)[:, None], np.arange(nx)
    assert np.array_equal(twin.separations((pt, px), (qt, qx)),
                          ref[pt, qt, twin._fiber_cells[False][px, qx]])


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


@settings(max_examples=60, deadline=None)
@given(_small_warped_cones())
def test_reverse_triangle_property(cone):
    # both tables, every s <= u <= t and r1 + r2 < m:
    # table[s, t, r1 + r2] >= table[s, u, r1] + table[u, t, r2] up to a
    # relative 1e-9, wherever both terms are causal (so the left side too)
    n, m = cone.f.n, cone.m
    r = np.arange(m)
    fits = r[:, None] + r[None, :] < m
    r12 = np.where(fits, r[:, None] + r[None, :], 0)
    for table in cone.tables():
        for s in range(n):
            for u in range(s, n):
                a, b = table[s, u][None, :, None], table[u, u:][:, None, :]
                both = fits & (a > -np.inf) & (b > -np.inf)
                whole = table[s, u:][:, r12][both]
                assert (whole > -np.inf).all()
                total = (a + np.where(b > -np.inf, b, 0.0))[both]
                assert (whole - total >= -1e-9 * (1 + np.abs(whole))).all()


@pytest.mark.parametrize("cone", list(_kernel_cones()))
def test_kernels_of_no_sources_are_empty(cone):
    for build in (cone._build_lower, cone._build_upper):
        assert build(np.array([], dtype=int)).shape == (0, cone.f.n, cone.m)


def _bits(a):
    """The float64 entries of a as their bit patterns: -inf and the sign
    of zero compare too."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("cone", list(_kernel_cones()))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lower_rows_cut_at_stop_are_the_whole_rows_prefix(cone, data):
    # the kernel cut before time stop computes the whole rows' first stop
    # columns bit for bit, and lower_block(t_lo, t_hi) is the lower
    # table's box over those time rows, stored nowhere
    n = cone.f.n
    src = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=6))))
    stop = data.draw(st.integers(src[-1] + 1, n))
    cut = cone._lower_rows(np.array(src), stop)
    assert cut.shape == (len(src), stop, cone.m)
    assert np.array_equal(_bits(cut), _bits(cone._lower_rows(src)[:, :stop]))
    t_lo = data.draw(st.integers(0, n - 1))
    t_hi = data.draw(st.integers(t_lo, n - 1))
    times = np.arange(t_lo, t_hi + 1)
    fresh = _twin(cone)
    block = fresh.lower_block(t_lo, t_hi)
    assert block.flags.c_contiguous
    assert stored(fresh, False) == []
    assert np.array_equal(_bits(block),
                          _bits(fresh.lower_table()[np.ix_(times, times)]))


def test_lower_block_is_budgeted(monkeypatch):
    # the block's kernel rows are cut after t_hi and checked by _store's
    # one budget rule before the kernel runs
    cone = minkowski_strip(time_steps=20, fiber_points=11)
    rows, cols = 6, 13                  # t_lo = 7, t_hi = 12
    monkeypatch.setattr(cone_mod, "MAX_TABLE_BYTES",
                        (rows * cols - 0.5) * cone.m * 8)
    with _kernel_calls() as calls:
        with pytest.raises(ResourceLimit):
            cone.lower_block(7, 12)
    assert calls == []
    assert cone.lower_block(7, 11).shape == (5, 5, cone.m)


def test_lower_table_is_not_copied():
    # one block of sources: the stored table is the kernel's own state, so
    # the peak is about one table (a copy into source-major order would
    # read about two), also when it replaces a row stored before
    for first in (None, 7):
        cone = minkowski_strip(time_steps=60, fiber_len=2.0, fiber_points=41)
        assert len(cone._source_blocks(np.arange(cone.f.n))) == 1
        if first is not None:
            cone.separations((first, 0), (40, 3))
            assert stored(cone, False) == [first]
        tracemalloc.start()
        try:
            lo = cone.lower_table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * lo.nbytes


def test_edge_on_a_one_point_fiber_with_distance_cells():
    # dr == 0 with m > 1: every shift is feasible at weight dt, and the
    # distance grid has one entry per cell
    ts = np.linspace(0.0, 1.0, 11)
    cone = GeneralizedCone(WarpingFunction(ts, np.ones(11)), single_point(),
                           dist_steps=4, window=4)
    assert cone.dr == 0.0 and cone.m == 5
    nk, w = cone._edge_table()      # edge 2 -> 5: span 3
    assert nk[2, 2] == 5 and (w[2, 2] == ts[5] - ts[2]).all()
    assert np.array_equal(cone.dist_grid, np.zeros(5))
    assert np.array_equal(cone.lower_table(), reference_lower(cone))
    assert len(list(cone.export_rows())) == 11 * 12 // 2 * 5


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
        assert stored(fresh, False) == [p[0]] and stored(fresh, True) == []
        ref = built.maximizer(p, q)
        assert g.states == ref.states
        assert g.weights == ref.weights
        assert g.tau_length == ref.tau_length
        assert g.tau_length == built.signed_separation(p, q)


def stored(cone, upper):
    """Source indices of the lower or upper rows a cone has stored."""
    return np.flatnonzero(cone._stored[upper][1] >= 0).tolist()


def stored_after(before, touched):
    """The rows stored after a read that touches the sources `touched`,
    by the one rule: a read stores the rows it misses, so the stored rows
    are the union of the sources read (all n once it completes the
    table)."""
    return sorted(set(before) | set(touched))


def completing_rows(n, missing):
    """Rows the kernel computes for a read that completes a table of n
    rows by its `missing` rows, by the one rule: the one missing row alone,
    or the whole table when several are missing."""
    return n if missing > 1 else missing


def _rule_cones():
    yield pytest.param(minkowski_strip(time_steps=12, fiber_points=5),
                       id="strip")
    ts = np.linspace(0.0, math.pi, 9)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.sin(ts)),
                                       circle_arc(1.0, 0.8, 5), N=2.0,
                                       dist_steps=6, window=3), id="sin-arc")


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
@pytest.mark.parametrize("cone", list(_rule_cones()))
def test_storage_rule(cone, upper):
    n, nx = cone.f.n, cone.X.n
    full = _twin(cone).upper_table() if upper else _twin(cone).lower_table()
    cells = cone._fiber_cells[upper]

    def read(c, pt):
        pt = np.asarray(pt)
        px, qt, qx = pt % nx, np.full(pt.shape, n - 1), np.zeros_like(pt)
        got = c.separations((pt, px), (qt, qx), upper=upper)
        assert np.array_equal(got, full[pt, qt, cells[px, qx]])

    def whole(c):
        rows, slot = c._stored[upper]
        assert np.array_equal(slot, np.arange(n))
        assert np.array_equal(rows, full)

    # a one-source read stores one row; scalar or repeated, and again
    one = _twin(cone)
    read(one, 3)
    assert stored(one, upper) == [3] and stored(one, not upper) == []
    read(one, [5, 5, 5])
    read(one, [3, 5])
    assert stored(one, upper) == [3, 5]
    # a read that misses several rows appends just those, after the rows
    # stored before
    read(one, [0, 1, 3])
    assert stored(one, upper) == [0, 1, 3, 5]
    assert one._stored[upper][1][[3, 5, 0, 1]].tolist() == [0, 1, 2, 3]
    # one that completes the table by several rows stores it whole, in
    # source order
    read(one, np.arange(n))
    whole(one)
    many = _twin(cone)
    read(many, [[6], [2]])
    assert stored(many, upper) == [2, 6]
    read(many, np.arange(n - 1, -1, -1))
    whole(many)
    # the last missing row stores the whole table
    last = _twin(cone)
    for s in range(n - 1, -1, -1):
        read(last, s)
        assert stored(last, upper) == stored_after(range(s + 1, n), [s])
    whole(last)
    # bracket_width reads the rows of both tables by the same rule, and so
    # does the table's own accessor
    later = _twin(cone)
    read(later, 4)
    later.bracket_width([1, 4])
    assert stored(later, upper) == [1, 4] and stored(later, not upper) == [1, 4]
    later.bracket_width()
    whole(later)
    assert np.array_equal(
        later.upper_table() if upper else later.lower_table(), full)
    whole(later)


@pytest.mark.parametrize("cone", list(_rule_cones()))
def test_width_is_budgeted(cone, monkeypatch):
    # bracket_width stores its rows through _store: over a budget of all
    # but half a row of a table, the cone's width is refused before either
    # kernel computes a row, and the width over two rows still runs
    lo, hi = _twin(cone).tables()
    cone, n = _twin(cone), cone.f.n
    monkeypatch.setattr(cone_mod, "MAX_TABLE_BYTES",
                        (n - 0.5) * n * cone.m * 8)
    with _kernel_calls() as calls:
        with pytest.raises(ResourceLimit):
            cone.bracket_width()
    assert calls == []
    assert stored(cone, False) == stored(cone, True) == []
    assert cone.bracket_width([1, 4]) == _rows_width(lo, hi, [1, 4])
    assert stored(cone, False) == stored(cone, True) == [1, 4]


def test_one_source_reads_build_each_row_once():
    # 101 one-source reads append 101 rows, and the last one puts them in
    # source order: no row is computed again for the whole table
    cone = GeneralizedCone(WarpingFunction(np.linspace(0.0, 2.0, 101),
                                           np.ones(101)),
                           segment(1.0, 5), dist_steps=8, window=8)
    full = _twin(cone).lower_table()
    with _counted_rows() as made:
        for s in range(100, -1, -1):
            assert cone.signed_separation((s, 0), (100, 0)) == full[s, 100, 0]
    assert made == {"lower": 101, "upper": 0}
    rows, slot = cone._stored[False]
    assert np.array_equal(slot, np.arange(101))
    assert np.array_equal(rows, full)


def _append_cones():
    # the lower one-source DP is quick on a coarse strip; the upper kernel's
    # own temporaries are small against a table on a fine distance grid
    yield pytest.param(False, GeneralizedCone(
        WarpingFunction(np.linspace(0.0, 2.0, 101), np.ones(101)),
        segment(1.0, 5), dist_steps=8, window=8), id="lower")
    ts = np.linspace(0.0, math.pi, 101)
    yield pytest.param(True, GeneralizedCone(
        WarpingFunction(ts, np.sin(ts)), circle_arc(1.0, 0.8, 41), N=2.0,
        dist_steps=50, window=8, dist_refine=2), id="upper")


@pytest.mark.parametrize("upper, cone", list(_append_cones()))
def test_completing_append_allocates_one_table(upper, cone):
    # the read that completes a table row by row allocates the table once:
    # each stored row is copied to its source and the new row written in
    # place, so about two tables are held at that moment, not three
    n = cone.f.n
    cone = _twin(cone)
    full = _twin(cone).upper_table() if upper else _twin(cone).lower_table()
    for s in range(n - 1, 0, -1):
        cone.separations((s, 0), (n - 1, 0), upper=upper)
    held = cone._stored[upper]
    tracemalloc.start()
    try:
        cone.separations((0, 0), (n - 1, 0), upper=upper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * full.nbytes
    rows, slot = cone._stored[upper]
    assert np.array_equal(slot, np.arange(n)) and np.array_equal(rows, full)
    # a reader that holds the pair from before keeps its n - 1 rows
    assert len(held[0]) == n - 1 and np.count_nonzero(held[1] >= 0) == n - 1


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


# -- upper rows on demand against the whole-grid envelope -------------------------


def reference_upper(cone):
    """The whole-grid dual envelope: hi[i, j, r] is ts[j] - ts[i] (-inf
    when j < i), lowered on pairs across no zero-min step to the min over
    the mu-grid of (B_mu[j] - B_mu[i]) - mu r; negative values are -inf.
    Both tables of a zero warping are the time gaps."""
    if cone.f.is_zero:
        return reference_lower(cone)
    ts = cone.f.ts
    zcount, mus, B = cone._envelope
    mur = mus[:, None] * cone.dist_grid
    gap = ts[None, :] - ts[:, None]
    start = np.where(gap >= 0, gap, -np.inf)[:, :, None]
    lines = ((B[:, None, :] - B[:, :, None])[..., None]
             - mur[:, None, None, :]).min(axis=0)
    shut = (gap < 0) | (zcount[None, :] != zcount[:, None])
    hi = np.where(shut[:, :, None], start, np.minimum(start, lines))
    hi[hi < 0.0] = -np.inf
    return hi


def reference_upper_rows(cone, sources):
    """Rows hi[s] of the dual envelope for the sources, by a running
    minimum over every line: each entry j >= s starts from its mu = 0 value
    ts[j] - ts[s] and takes the min with each line of the mu-grid in
    ascending order, except on pairs across a zero-min step, whose lines
    are +inf; negative values are -inf.  Row by row, so it also fits the
    acceptance strip, where `reference_upper` would hold 48 whole tables."""
    ts = cone.f.ts
    zcount, mus, B = cone._envelope
    mur = mus[:, None] * cone.dist_grid
    hi = np.full((len(sources), cone.f.n, cone.m), -np.inf)
    for row, s in zip(hi, sources):
        blk = row[s:]
        blk[...] = (ts[s:] - ts[s])[:, None]
        D = B[:, s:] - B[:, s, None]
        D[:, zcount[s:] > zcount[s]] = np.inf
        for d, mr in zip(D, mur):
            np.minimum(blk, d[:, None] - mr, out=blk)
        blk[blk < 0.0] = -np.inf
    return hi


def _benchmark_cones():
    """The cones whose upper tables the benchmark builds whole: the cos-arc
    and sin-arc cones and the cos^(1/i) family with its limit."""
    arc = circle_arc(1.0, 0.8, 41)
    ts = np.linspace(-math.pi / 2 * 0.96, math.pi / 2 * 0.96, 101)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.cos(ts)), arc,
                                       dist_steps=50, window=8,
                                       dist_refine=2), id="cos-arc")
    ts = np.linspace(0.0, math.pi, 101)
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.sin(ts)), arc,
                                       N=2.0, dist_steps=50, window=8,
                                       dist_refine=2), id="sin-arc")
    ts = np.linspace(-math.pi / 2 * 0.98, math.pi / 2 * 0.98, 101)
    for i in (1, 2, 4, 8, 16):
        yield pytest.param(GeneralizedCone(
            WarpingFunction(ts, np.cos(ts) ** (1.0 / i)), segment(1.0, 51),
            dist_steps=50, window=8), id=f"cos^(1/{i})")
    yield pytest.param(GeneralizedCone(WarpingFunction(ts, np.ones(101)),
                                       segment(1.0, 51), dist_steps=50,
                                       window=8), id="limit")


@pytest.mark.parametrize("cone", list(_benchmark_cones()))
def test_upper_kernel_matches_rows_on_benchmark_cones(cone):
    # the breakpoint kernel reads a few lines per entry; the running
    # minimum reads all of them, and the floats must agree everywhere
    n = cone.f.n
    assert np.array_equal(_twin(cone).upper_table(),
                          reference_upper_rows(cone, range(n)))


def test_upper_kernel_matches_rows_on_the_acceptance_strip(strip_fine):
    sources = list(range(0, strip_fine.f.n, 10))
    assert np.array_equal(strip_fine._build_upper(sources),
                          reference_upper_rows(strip_fine, sources))


@pytest.mark.parametrize("k", [24, 37])
@pytest.mark.parametrize("r", [1, 4])
def test_upper_kernel_breakpoint_on_a_cell(k, r):
    # a fiber length that puts the breakpoint of lines k - 1 and k on the
    # pair (0, 1) on cell r: the two lines tie there up to rounding, so the
    # kernel must read both to return the float minimum
    ts = np.linspace(0.0, 1.0, 11)
    f = WarpingFunction(ts, 1.0 + ts)
    _, mus, B = GeneralizedCone(f, segment(1.0, 3), dist_steps=8,
                                window=4)._envelope
    slope = np.concatenate([[0.0], mus])
    L = np.concatenate([[ts[1] - ts[0]], B[:, 1] - B[:, 0]])
    dr = (L[k] - L[k - 1]) / ((slope[k] - slope[k - 1]) * r)
    cone = GeneralizedCone(f, segment(8 * dr, 3), dist_steps=8, window=4)
    assert np.array_equal(cone.upper_table(), reference_upper(cone))


def _twin(cone):
    """A fresh cone with the same tables and no rows stored."""
    return GeneralizedCone(cone.f, cone.X, N=cone.N, dist_steps=cone.dist_steps,
                           window=cone.window)


@pytest.mark.parametrize("cone", list(_kernel_cones()))
def test_upper_kernel_matches_reference(cone):
    assert np.array_equal(_twin(cone).upper_table(), reference_upper(cone))


def _assert_upper_rows_exact(cone, data):
    full = _twin(cone)
    hi, lo = full.upper_table(), full.lower_table()
    fresh = _twin(cone)
    n, nx = cone.f.n, cone.X.n
    ints = lambda hi_, size: np.array(data.draw(st.lists(
        st.integers(0, hi_ - 1), min_size=size, max_size=size)), dtype=int)
    kept = []
    for _ in range(2):    # the second read may add to the stored rows
        k, j = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        pt, px, qt, qx = ints(n, k), ints(nx, k), ints(n, j), ints(nx, j)
        got = fresh.separations((pt[:, None], px[:, None]), (qt, qx),
                                upper=True)
        want = hi[pt[:, None], qt, full._fiber_cells[True][px[:, None], qx]]
        assert (got == want).all()
        kept = stored_after(kept, pt.tolist())
        assert stored(fresh, True) == kept
    # the width against the full-table formula, with some rows stored, all
    # stored and none stored; it stores every row by the one rule
    rel = lo >= 0.0
    want = float((hi[rel] - lo[rel]).max()) if rel.any() else 0.0
    assert fresh.bracket_width() == want
    assert stored(fresh, True) == list(range(n))
    assert full.bracket_width() == want
    none = _twin(cone)
    assert none.bracket_width() == want
    assert stored(none, True) == list(range(n))
    # filling the other rows puts every row at its source
    assert np.array_equal(fresh.upper_table(), hi)


@pytest.mark.parametrize("cone", list(_lookup_cones()))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_upper_rows_match_full_table(cone, data):
    _assert_upper_rows_exact(cone, data)


@settings(max_examples=40, deadline=None)
@given(_small_warped_cones(), st.data())
def test_upper_rows_property(cone, data):
    assert np.array_equal(_twin(cone).upper_table(), reference_upper(cone))
    _assert_upper_rows_exact(cone, data)


def test_upper_rows_racing_threads_read_true_values():
    # threads that race on a shared cone's upper reads may drop each
    # other's stored rows, but every read returns the table's own entries;
    # so do one-source lower reads and bracket_width racing the one read
    # that builds the lower table
    base = minkowski_strip(time_steps=30, fiber_points=11)
    lo, hi = _twin(base).tables()
    width = _full_width(base)
    cells = base._fiber_cells[True]
    lo_cells = base._fiber_cells[False]
    errors = []

    def reader(seed, cone):
        rng = np.random.default_rng(seed)
        try:
            for it in range(40):
                pt, qt = rng.integers(0, cone.f.n, (2, 6))
                px, qx = rng.integers(0, cone.X.n, (2, 6))
                got = cone.separations((pt, px), (qt, qx), upper=True)
                if not (got == hi[pt, qt, cells[px, qx]]).all():
                    errors.append(seed)
                src = pt if it == 30 and seed % 8 == 0 else pt[0]
                got = cone.separations((src, px), (qt, qx))
                if not (got == lo[src, qt, lo_cells[px, qx]]).all():
                    errors.append(seed)
                if it % 20 == 10 and cone.bracket_width() != width:
                    errors.append(seed)
        except Exception as exc:     # a thread's exception must fail the test
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            cone = _twin(base)
            threads = [threading.Thread(target=reader, args=(8 * round_ + k, cone))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


# -- lower rows: one-source reads and the streamed bracket width ----------------


def _full_width(cone):
    """bracket_width's value from the two full tables of a twin cone."""
    lo, hi = _twin(cone).tables()
    rel = lo >= 0.0
    return float((hi[rel] - lo[rel]).max()) if rel.any() else 0.0


@contextlib.contextmanager
def _kernel_calls():
    """(kind, rows) of each call of the two table kernels, kind "lower" or
    "upper", made while the context is open, in call order."""
    calls = []

    def counted(name, kind):
        build = getattr(GeneralizedCone, name)

        def wrapper(self, sources):
            rows = build(self, sources)
            calls.append((kind, len(rows)))
            return rows
        return mock.patch.object(GeneralizedCone, name, wrapper)

    with counted("_build_lower", "lower"), counted("_build_upper", "upper"):
        yield calls


@contextlib.contextmanager
def _counted_rows():
    """Counts {"lower": rows, "upper": rows} of the rows that the two table
    kernels compute while the context is open, filled in as it closes."""
    made = {"lower": 0, "upper": 0}
    with _kernel_calls() as calls:
        yield made
    for kind, rows in calls:
        made[kind] += rows


def _assert_streamed_width_exact(cone, data):
    """bracket_width equals the full-table value with ==, for drawn block
    sizes, with no rows stored, one cached one-source lower row, some upper
    rows stored, the lower table stored and both tables stored; it stores
    the rows it misses by `_store`'s rule."""
    n, nx, m = cone.f.n, cone.X.n, cone.m
    want = _full_width(cone)
    rows = data.draw(st.integers(1, n), label="lower rows per block")
    src = data.draw(st.integers(0, n - 1), label="cached source")
    upper = data.draw(st.lists(st.integers(0, n - 1), max_size=4),
                      label="stored upper rows")
    with mock.patch.object(cone_mod, "LOWER_BLOCK", rows * n * m):
        none = _twin(cone)
        assert none.bracket_width() == want
        assert stored(none, False) == stored(none, True) == list(range(n))
        one = _twin(cone)
        one.separations((src, 0), (n - 1, nx - 1))
        assert one.bracket_width() == want
        assert stored(one, False) == stored(one, True) == list(range(n))
        some = _twin(cone)
        for s in upper:
            some.separations((s, 0), (n - 1, 0), upper=True)
        some.separations((src, nx - 1), (src, 0))
        with _counted_rows() as made:
            assert some.bracket_width() == want
        assert made == {"lower": completing_rows(n, n - 1),
                        "upper": completing_rows(n, n - len(set(upper)))}
        assert stored(some, False) == stored(some, True) == list(range(n))
        built = _twin(cone)
        built.lower_table()
        assert built.bracket_width() == want
        both = _twin(cone)
        both.tables()
        with _counted_rows() as made:
            assert both.bracket_width() == want
        assert made == {"lower": 0, "upper": 0}


@pytest.mark.parametrize("cone", list(_lookup_cones()))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_streamed_width_matches_full_tables(cone, data):
    _assert_streamed_width_exact(cone, data)


@settings(max_examples=30, deadline=None)
@given(_small_warped_cones(), st.data())
def test_streamed_width_property(cone, data):
    _assert_streamed_width_exact(cone, data)


def _rows_width(lo, hi, sources):
    """bracket_width(sources) from the two full tables: the max of hi - lo
    over the entries of the source rows with lo >= 0, 0.0 with none."""
    rows = sorted(set(sources))
    rel = lo[rows] >= 0.0
    return float((hi[rows][rel] - lo[rows][rel]).max()) if rel.any() else 0.0


@settings(max_examples=40, deadline=None)
@given(_small_warped_cones(), st.data())
def test_reads_compute_and_store_the_rows_they_miss(cone, data):
    # random read sequences on both tables: every read returns the full
    # tables' entries, a read that misses rows makes one kernel call, an
    # incomplete table holds exactly the sources read so far, and the
    # width over some source rows is the full tables' width over them,
    # read from both tables by the same rule
    full = _twin(cone)
    tables = full.tables()
    n, nx = cone.f.n, cone.X.n
    ints = lambda hi_, size: np.array(data.draw(st.lists(
        st.integers(0, hi_ - 1), min_size=size, max_size=size)), dtype=int)
    fresh = _twin(cone)
    read = {False: set(), True: set()}
    for _ in range(data.draw(st.integers(1, 8), label="reads")):
        upper = data.draw(st.booleans(), label="upper")
        k, j = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        pt, px, qt, qx = ints(n, k), ints(nx, k), ints(n, j), ints(nx, j)
        with _kernel_calls() as calls:
            got = fresh.separations((pt[:, None], px[:, None]), (qt, qx),
                                    upper=upper)
        cells = full._fiber_cells[upper][px[:, None], qx]
        assert np.array_equal(got, tables[upper][pt[:, None], qt, cells])
        missed = set(pt.tolist()) - read[upper]
        assert [kind for kind, _ in calls] \
            == (["upper" if upper else "lower"] if missed else [])
        read[upper] |= missed
        rows, slot = fresh._stored[upper]
        assert stored(fresh, upper) == sorted(read[upper])
        assert len(rows) == len(read[upper])
        for s in read[upper]:
            assert np.array_equal(rows[slot[s]], tables[upper][s])
        if len(read[upper]) == n:
            assert np.array_equal(slot, np.arange(n))
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=4),
                            label="width rows")
        with _kernel_calls() as calls:
            assert fresh.bracket_width(sources) == _rows_width(*tables,
                                                               sources)
        # one call per table that misses a row of the width, none when all
        # are stored
        width_rows = set(sources)
        assert [kind for kind, _ in calls] \
            == (["lower"] if width_rows - read[False] else []) \
            + (["upper"] if width_rows - read[True] else [])
        read[False] |= width_rows
        read[True] |= width_rows
        assert stored(fresh, False) == sorted(read[False])
        assert stored(fresh, True) == sorted(read[True])
    assert fresh.bracket_width() == _rows_width(*tables, range(n))


@pytest.mark.parametrize("cone", list(_lookup_cones()))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_source_lower_reads_build_one_row(cone, data):
    n, nx = cone.f.n, cone.X.n
    lo = _twin(cone).lower_table()
    cells = cone._fiber_cells[False]
    s = data.draw(st.integers(0, n - 1))
    x = data.draw(st.integers(0, nx - 1))
    k, j = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    ints = lambda hi_, size: np.array(data.draw(st.lists(
        st.integers(0, hi_ - 1), min_size=size, max_size=size)), dtype=int)
    qt, qx = ints(n, j), ints(nx, j)
    fresh = _twin(cone)
    # scalar, one row against many, and a column of equal sources
    assert fresh.separations((s, x), (int(qt[0]), int(qx[0]))) \
        == lo[s, qt[0], cells[x, qx[0]]]
    assert np.array_equal(fresh.separations((s, x), (qt, qx)),
                          lo[s, qt, cells[x, qx]])
    pt, px = np.full((k, 1), s), ints(nx, k)[:, None]
    got = fresh.separations((pt, px), (qt, qx))
    assert got.shape == (k, j)
    assert np.array_equal(got, lo[pt, qt, cells[px, qx]])
    assert stored(fresh, False) == [s] and stored(fresh, True) == []
    # a read of two sources stores the one row it misses
    if n > 1:
        two = np.array([s, (s + 1) % n])
        got = fresh.separations((two, x), (qt[0], qx[0]))
        assert np.array_equal(got, lo[two, qt[0], cells[x, qx[0]]])
        assert stored(fresh, False) == stored_after([s], two.tolist())


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
    # distance cell, also at t == s, where no grid path ends, so a pair at
    # equal times and a positive cell has a value but no path
    gap = cone.f.is_zero and s == t and cone._fiber_cells[False][p[1], q[1]] > 0
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
        assert w == cone._edge_table()[1][b - a - 1, a, k]
    assert abs(sum(g.weights) - g.tau_length) <= 1e-9 * (1 + abs(tau))
    assert g.tau_length == tau


# -- the edge table and the batched backtrace against per-call rules ---------


def reference_edge(cone, u, t):
    """The DP edges u -> t computed for one (u, t): (nk, w), where the
    shifts k < nk are the feasible ones, dt >= C k dr with C = max_[u,t] f,
    and w holds the weights sqrt(dt^2 - (C k dr)^2) of all m shifts."""
    c = cone.f.vals[u:t + 1].max()
    dt = cone.f.ts[t] - cone.f.ts[u]
    cd = c * cone.dist_grid
    feas = dt >= cd
    nk = cone.m if feas.all() else int(np.argmin(feas))
    return nk, np.sqrt(np.maximum(dt * dt - cd ** 2, 0.0))


def reference_backtrace(cone, p, q):
    """The maximizer of one pair, one `reference_edge` call per candidate
    edge: from state (t, rr) the first edge, by u and then by shift k
    ascending, whose source value plus weight matches lo[si, t, rr] within
    1e-9 (1 + |tau|), an edge from time si starting at cell 0.  Returns
    (states, weights, tau_length) as GridGeodesic holds them."""
    (si, xi), (ti, yi) = p, q
    r = int(cone._fiber_cells[False][xi, yi])
    row = cone.lower_table()[si]
    val = float(row[ti, r]) if ti >= si else -math.inf
    if val == -math.inf:
        raise NotCausallyRelated(f"{p} !<= {q}")
    tol = 1e-9 * (1 + abs(val))
    states, weights = [(ti, r)], []
    t, rr = ti, r
    while (t, rr) != (si, 0):
        for u in range(max(si, t - cone.window), t):
            nk, w = reference_edge(cone, u, t)
            K = min(nk, rr + 1)
            hit = np.abs(row[u, rr::-1][:K] + w[:K] - row[t, rr]) <= tol
            if u == si:
                hit[:rr] = False
            if hit.any():
                k = int(np.argmax(hit))
                states.append((u, rr - k))
                weights.append(float(w[k]))
                t, rr = u, rr - k
                break
        else:
            raise NotCausallyRelated("backtrace failed")
    return (tuple((a, float(b * cone.dr)) for a, b in reversed(states)),
            tuple(reversed(weights)), val)


def _edge_cones():
    for kind, cones in (("kernel", _kernel_cones()),
                        ("backtrace", _backtrace_cones())):
        for param in cones:
            yield pytest.param(*param.values, id=f"{kind}-{param.id}")


@pytest.mark.parametrize("cone", list(_edge_cones()))
def test_edge_table_matches_reference_edges(cone):
    # every (span, u) row of the table is the per-call rule's edge bit for
    # bit up to its nk feasible shifts, and -inf past them; the table runs
    # to the largest nk, and rows past the grid's end hold no edge
    n, W = cone.f.n, cone.window
    nk, w = cone._edge_table()
    assert nk.shape == (W, n - 1) and w.shape == (W, n - 1, nk.max())
    for s in range(1, W + 1):
        assert (nk[s - 1, n - s:] == 0).all()
        assert (w[s - 1, n - s:] == -np.inf).all()
        for u in range(n - s):
            ref_nk, ref_w = reference_edge(cone, u, u + s)
            assert nk[s - 1, u] == ref_nk
            assert np.array_equal(_bits(w[s - 1, u, :ref_nk]),
                                  _bits(ref_w[:ref_nk]))
            assert (w[s - 1, u, ref_nk:] == -np.inf).all()


def _geodesic_bits(g):
    return ([a for a, _ in g[0]], _bits(np.array([b for _, b in g[0]])),
            _bits(np.array(g[1], dtype=float)), _bits(np.array(g[2])))


@pytest.mark.parametrize("cone", list(_backtrace_cones()))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_maximizers_match_the_per_pair_backtrace(cone, data):
    # a batch of forward pairs from mixed sources, equal times included,
    # against one reference backtrace per pair; on the zero warping a pair
    # at equal times and a positive cell has a value but no grid path, and
    # both sides raise
    n, nx = cone.f.n, cone.X.n
    point = st.tuples(st.integers(0, n - 1), st.integers(0, nx - 1))
    pairs = data.draw(st.lists(st.tuples(point, point).map(sorted),
                               min_size=1, max_size=8))
    (s, x), _ = pairs[0]
    pairs.append(((s, x), (s, data.draw(st.integers(0, nx - 1)))))
    refs, failed = [], False
    for p, q in pairs:
        try:
            refs.append(reference_backtrace(cone, p, q))
        except NotCausallyRelated:
            failed = True
    P, Q = (np.array(points).T for points in zip(*pairs))
    fresh = _twin(cone)
    if failed:
        with pytest.raises(NotCausallyRelated):
            fresh.maximizers(P, Q)
        return
    got = fresh.maximizers(P, Q)
    assert stored(fresh, False) == sorted({p[0] for p, _ in pairs})
    assert stored(fresh, True) == []
    assert len(got) == len(pairs)
    for g, ref in zip(got, refs):
        assert g.cone is fresh
        for a, b in zip(_geodesic_bits((g.states, g.weights, g.tau_length)),
                        _geodesic_bits(ref)):
            assert np.array_equal(a, b)
    # one pair that is not causally related, anywhere in the batch, is
    # named by the error: its target lies before its source
    if n > 1:
        t = data.draw(st.integers(1, n - 1))
        fiber = st.integers(0, nx - 1)
        bad = ((t, data.draw(fiber)),
               (data.draw(st.integers(0, t - 1)), data.draw(fiber)))
        at = data.draw(st.integers(0, len(pairs)))
        P, Q = (np.array(points).T for points in zip(*pairs[:at], bad,
                                                     *pairs[at:]))
        with pytest.raises(NotCausallyRelated) as err:
            fresh.maximizers(P, Q)
        assert str(err.value) == f"{bad[0]} !<= {bad[1]}"


def test_off_grid_points_raise_value_errors():
    # negative or too large indices would wrap, or read a wrong entry;
    # every read names the first point off the 41 x 21 grid and stores
    # nothing
    cone = minkowski_strip(time_steps=40, fiber_points=21)
    calls = {
        "-1,0": [lambda: cone.signed_separation((0, 0), (-1, 0)),
                 lambda: cone.signed_separation((-1, 0), (40, 0)),
                 lambda: cone.signed_separation_upper((0, 0), (-1, 0))],
        "0,-3": [lambda: cone.maximizer((0, -3), (40, 0))],
        "41,2": [lambda: cone.separations((np.array([0, 41, 50]), 2),
                                          (40, 0)),
                 lambda: cone.maximizers((0, 0), (np.array([40, 41]), 2))],
        "40,21": [lambda: cone.separations((0, 0), (40, np.arange(25)),
                                           upper=True)],
    }
    for point, reads in calls.items():
        for read in reads:
            with pytest.raises(ValueError,
                               match=f"grid point {point} lies outside the "
                                     f"cone's 41 x 21 grid"):
                read()
    assert stored(cone, False) == [] and stored(cone, True) == []
    assert cone.signed_separation((0, 0), (40, 0)) == 2.0


# -- pruned lower-DP edges: the same tables from fewer edges ---------------------


def unpruned_lower_rows(cone, sources, stop=None):
    """The lower DP of `_lower_rows` looping over every feasible shift of
    the edge table, with no edge pruned: the oracle that the pruned kernel
    must match bit for bit, fast enough for the benchmark's cones."""
    src = np.asarray(sources, dtype=int)
    n = cone.f.n if stop is None else stop
    m, W, S = cone.m, cone.window, src.size
    nks, ws = cone._edge_table()
    T = np.full((n, m * S), -np.inf)
    T[src, np.arange(S)] = 0.0
    reach = np.empty(n, dtype=int)
    buf = np.empty(m * S)
    for t in range(src[0] + 1, n):
        fin = (T[t - 1].reshape(m, S) > -np.inf).any(axis=1)
        reach[t - 1] = m - 1 - np.argmax(fin[::-1])
        for u in range(max(src[0], t - W), t):
            w = ws[t - u - 1, u]
            for k in range(nks[t - u - 1, u]):
                width = min(reach[u] + 1, m - k) * S
                np.add(T[u, :width], w[k], out=buf[:width])
                dst = T[t, k * S:k * S + width]
                np.maximum(dst, buf[:width], out=dst)
    return T.reshape(n, m, S).transpose(2, 0, 1)


def _pruning_cones():
    """Every kernel cone, and the benchmark's: the cos-arc and sin-arc
    cones (the cos_arc_cone and sin_arc_cone fixtures), the cos^(1/i)
    members and their limit."""
    for kind, cones in (("kernel", _kernel_cones()),
                        ("benchmark", _benchmark_cones())):
        for param in cones:
            yield pytest.param(*param.values, id=f"{kind}-{param.id}")


def _kept_count(cone):
    nk, w = cone._edge_table()
    kept = cone._kept_shifts(nk, w)
    return sum(len(ks) for span in kept for ks in span), int(nk.sum())


@pytest.mark.parametrize("cone", list(_pruning_cones()))
def test_pruned_lower_rows_match_the_unpruned_loop(cone):
    # every entry the same float, -inf and the sign of zero included; the
    # zero warping's rows are the time gaps, with no DP edge
    n = cone.f.n
    got = _bits(cone._lower_rows(np.arange(n)))
    if not cone.f.is_zero:
        assert np.array_equal(got, _bits(unpruned_lower_rows(cone,
                                                             np.arange(n))))
    if n <= 41:
        assert np.array_equal(got, _bits(reference_lower(cone)))


@st.composite
def _positive_warped_cones(draw):
    # a positive warping, jagged or smooth, on a non-uniform time grid
    n = draw(st.integers(3, 16))
    steps = draw(st.lists(st.floats(0.02, 0.4), min_size=n - 1,
                          max_size=n - 1))
    ts = np.concatenate([[0.0], np.cumsum(steps)])
    if draw(st.booleans()):
        vals = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=n,
                                      max_size=n)))
    else:
        amp, freq, phase = (draw(st.floats(0.0, 0.9)), draw(st.floats(0.1, 6.0)),
                            draw(st.floats(0.0, 6.3)))
        vals = 1.0 + amp * np.sin(freq * ts + phase)
    fiber = segment(draw(st.floats(0.1, 2.0)), draw(st.integers(2, 6)))
    return GeneralizedCone(WarpingFunction(ts, vals), fiber,
                           dist_steps=draw(st.integers(1, 8)),
                           window=draw(st.integers(1, n)),
                           dist_refine=draw(st.integers(1, 3)))


@settings(max_examples=80, deadline=None)
@given(_positive_warped_cones(), st.data())
def test_pruned_lower_rows_property(cone, data):
    # random sources cut at a random stop: the pruned kernel's rows are the
    # unrestricted loop's, bit for bit
    n = cone.f.n
    src = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=n))))
    stop = data.draw(st.integers(src[-1] + 1, n))
    got = cone._lower_rows(np.array(src), stop)
    assert np.array_equal(_bits(got), _bits(reference_lower(cone)[src, :stop]))
    assert np.array_equal(_bits(got), _bits(unpruned_lower_rows(cone, src,
                                                                stop)))


def test_pruning_keeps_few_edges_on_the_cos_arc(cos_arc_cone):
    # a curved warping: most long edges lose to a split of themselves
    kept, feasible = _kept_count(cos_arc_cone)
    assert feasible == 21432 and kept == 2991
    assert kept <= 0.2 * feasible


def test_constant_warping_skips_the_split_test(strip_small):
    # no split beats an edge on a constant warping: the test is not run,
    # and every feasible shift is kept
    nk, w = strip_small._edge_table()
    with mock.patch.object(GeneralizedCone, "_dominated",
                           side_effect=AssertionError("split test ran")):
        kept = strip_small._kept_shifts(nk, w)
    assert [[list(ks) for ks in span] for span in kept] == \
        [[list(range(c)) for c in row] for row in nk.tolist()]


def _warning_cones(cos_arc_cone):
    yield cos_arc_cone      # infeasible shifts past each edge's nk
    ts = np.linspace(0.0, 1.0, 21)     # f vanishes at both ends
    yield GeneralizedCone(WarpingFunction(ts, np.sin(math.pi * ts)),
                          segment(1.0, 11), dist_steps=10, window=6)


def test_pruned_lower_rows_raise_no_warning(cos_arc_cone):
    # the split test meets -inf - -inf on infeasible shifts, and must not
    # warn about it
    for cone in _warning_cones(cos_arc_cone):
        nk, w = cone._edge_table()
        assert (nk < cone.m).any()
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            cone._lower_rows(np.arange(cone.f.n))


@pytest.mark.xfail(strict=True, reason="lo > hi by at most 4.4e-16 at "
                   "distance cell 0: the lower DP sums the step dts in "
                   "round-to-nearest, the envelope's line 0 is one "
                   "subtraction")
@pytest.mark.parametrize("name", ["cos_arc_cone", "sin_arc_cone"])
def test_lower_never_exceeds_upper_without_slack(name, request):
    # the float contract lo <= hi with no slack on the causal entries;
    # the slack-tolerant tests above allow lo <= hi + 1e-9
    lo, hi = request.getfixturevalue(name).tables()
    causal = lo >= 0.0
    assert (lo[causal] <= hi[causal]).all()

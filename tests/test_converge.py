import math
import tracemalloc

import conelab.converge as converge

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from conelab.cone import GeneralizedCone
from conelab.converge import (NEIGHBOR_CAP, ConvergenceModulus,
                              _cross_metric, _cross_states, _joint_extrema,
                              _limit_separations, _moduli, _neighbours,
                              _search, _states, cone_sequence, covered_gh,
                              default_delta, ell_converge_check,
                              imprisonment_constants,
                              measured_converge_check, precompact_harness,
                              tangent_cone, uniform_modulus)
from conelab.errors import BoundaryPoint
from conelab.metricspace import FiniteMetricSpace, circle_arc, segment
from conelab.warp import WarpingFunction

NT, NX = 50, 21


def flat(scale=1.0, fiber_len=1.0, nt=NT, nx=NX):
    ts = np.linspace(-1.0, 1.0, nt + 1)
    return GeneralizedCone(WarpingFunction(ts, scale * np.ones(nt + 1)),
                           segment(fiber_len, nx), N=2.0, window=8)


def cos_family_cone(i, nt=NT, nx=NX):
    ts = np.linspace(-math.pi / 2 * 0.98, math.pi / 2 * 0.98, nt + 1)
    return GeneralizedCone(WarpingFunction(ts, np.cos(ts) ** (1.0 / i)),
                           segment(1.0, nx), N=2.0, window=8)


def cos_family_limit(nt=NT, nx=NX):
    ts = np.linspace(-math.pi / 2 * 0.98, math.pi / 2 * 0.98, nt + 1)
    return GeneralizedCone(WarpingFunction(ts, np.ones(nt + 1)),
                           segment(1.0, nx), N=2.0, window=8)


@pytest.fixture(scope="module")
def const_seq():
    return cone_sequence([flat() for _ in range(3)], flat(), depth=2)


@pytest.fixture(scope="module")
def cos_seq():
    fam = [cos_family_cone(i) for i in (1, 2, 4, 8, 16)]
    return cone_sequence(fam, cos_family_limit(), depth=2)


def test_constant_sequence_gh_zero(const_seq):
    for k in (1, 2):
        for lo, up in covered_gh(const_seq, k):
            assert lo == 0.0 and up == 0.0


def test_constant_sequence_moduli(const_seq):
    m = uniform_modulus(const_seq, 2, 1, 2, delta=1e-9)
    assert m.eps1 == 0.0 and m.eps2 == 0.0
    assert m.inclusion1 and m.inclusion2
    # default delta: moduli bounded by the delta-oscillation of the
    # separation near the light cone (sqrt growth off the null boundary)
    m2 = uniform_modulus(const_seq, 2, 1, 2)
    tmax = const_seq.limit.f.b - const_seq.limit.f.a
    osc = math.sqrt(m2.delta * (m2.delta + 2 * tmax))
    assert max(m2.eps1, m2.eps2) <= osc + 1e-9


def test_constant_sequence_verdict(const_seq):
    rep = ell_converge_check(const_seq)
    assert rep["verdict"] == "PASS"


def test_scaled_warping_upper_bracket():
    cones = [flat(scale=1.0 + 1.0 / i) for i in (1, 2, 4, 8)]
    seq = cone_sequence(cones, flat(), depth=1)
    ups = [up for _, up in covered_gh(seq, 1)]
    diam_term = max(seq.limit.X.dist.max(), 1.0)
    for i, up in zip((1, 2, 4, 8), ups):
        assert up <= 0.5 * (1.0 / i) * diam_term + 1e-9
    assert ups == sorted(ups, reverse=True)


def test_scaled_fiber_upper_bracket():
    cones = [flat(fiber_len=1.0 + 1.0 / i) for i in (1, 2, 4, 8)]
    seq = cone_sequence(cones, flat(), depth=1)
    for i, (lo, up) in zip((1, 2, 4, 8), covered_gh(seq, 1)):
        assert up <= 0.5 / i + 1e-9
        # brute-force endpoint check: 2-point subspaces at the extremes
        from conelab.metricspace import FiniteMetricSpace, gh_distance
        A = FiniteMetricSpace(np.array([[0.0, 1 + 1 / i], [1 + 1 / i, 0.0]]))
        B = FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert gh_distance(A, B, "exact")[0] == pytest.approx(0.5 / i)


def test_monotone_direction_eps1_zero():
    # sequence member warped ABOVE the limit: l_i <= l_lim pairwise, so the
    # property-(1) excess vanishes identically at identity-neighborhoods
    big = flat(scale=1.25)
    small_limit = flat(scale=1.0)
    seq = cone_sequence([big], small_limit, depth=1)
    m = uniform_modulus(seq, 0, 1, 2, delta=1e-9)
    assert m.eps1 == 0.0
    assert m.eps2 > 0.0


@pytest.mark.parametrize("i, k, l, delta, names", [
    (0, 1, 2, math.nan, "delta=nan"),
    (0, 1, 2, -1.0, "delta=-1.0"),
    (0, 1, 2, math.inf, "delta=inf"),
    (0, 1, 0, None, "threshold level l=0"),
    (0, 1, True, None, "threshold level l=True"),
    (-1, 1, 2, None, "member index i"),
    (3, 1, 2, None, "member index i=3"),
    (0, 0, 2, None, "cover level k=0"),
    (0, 3, 2, None, "cover level k=3"),
    (0, 1.0, 2, None, "cover level k=1.0"),
])
def test_uniform_modulus_rejects_bad_arguments(const_seq, i, k, l, delta,
                                               names):
    # three members, cover depth 2: the rule of an ell_converge_check
    # schedule entry, a member index and a finite delta >= 0
    with pytest.raises(ValueError, match=names):
        uniform_modulus(const_seq, i, k, l, delta=delta)


@pytest.mark.parametrize("k, names", [
    (True, "cover level k=True"),
    (1.5, "cover level k=1.5"),
])
def test_measured_rejects_bad_cover_level(const_seq, k, names):
    # the cover-level rule of uniform_modulus: True was read as level 1,
    # and 1.5 ended in an untyped TypeError from list indexing
    with pytest.raises(ValueError, match=names):
        measured_converge_check(const_seq, k)


def test_cos_family_moduli_decreasing(cos_seq):
    dt = float(np.diff(cos_seq.limit.f.ts).max())
    eps1s, eps2s = [], []
    for i in range(5):
        m = uniform_modulus(cos_seq, i, 1, 2, delta=0.5 * dt)
        eps1s.append(m.eps1)
        eps2s.append(m.eps2)
    assert all(a > b for a, b in zip(eps1s, eps1s[1:]))
    assert all(e == 0.0 for e in eps2s)
    assert eps1s[-1] <= 0.2


def test_cos_family_inclusions_at_tail(cos_seq):
    dt = float(np.diff(cos_seq.limit.f.ts).max())
    m = uniform_modulus(cos_seq, 4, 1, 2, delta=dt)
    assert m.inclusion1 and m.inclusion2


def test_modulus_duality(cos_seq):
    # swapping the roles of member and limit swaps the one-sided moduli
    fam = [cos_family_cone(8)]
    fwd = cone_sequence(fam, cos_family_limit(), depth=1)
    bwd = cone_sequence([cos_family_limit()], cos_family_cone(8), depth=1)
    m_f = uniform_modulus(fwd, 0, 1, 2, delta=1e-9)
    m_b = uniform_modulus(bwd, 0, 1, 2, delta=1e-9)
    assert m_f.eps2 == 0.0
    assert m_b.eps1 == 0.0
    assert m_f.eps1 == pytest.approx(m_b.eps2, abs=0.05)


def test_continuity_inheritance(cos_seq):
    # limit-table modulus of continuity bounded by the members' plus eps
    def modulus(cone, level):
        lo, _ = cone.tables()
        vals = np.where(lo > -np.inf, lo, np.nan)
        d = np.nanmax(np.abs(vals[1:, :, :] - vals[:-1, :, :]))
        return float(d)
    eps = uniform_modulus(cos_seq, 4, 1, 2, delta=1e-9).eps1
    lim_mod = modulus(cos_seq.limit, 1)
    member_mod = modulus(cos_seq.cones[4], 1)
    assert lim_mod <= member_mod + 2 * eps + 0.05


def test_geodesic_precompactness(cos_seq):
    # maximizers of the members, evaluated through the correspondence in
    # the limit cone, stay within bracket tolerance of limit maximizers
    limit = cos_seq.limit
    lo_lim, _ = limit.tables()
    for i in (3, 4):
        member = cos_seq.cones[i]
        p, q = (5, 2), (45, 18)
        if member.signed_separation(p, q) <= 0:
            continue
        geo = member.maximizer(p, q)
        val = 0.0
        ok = True
        for (a, ra), (b, rb) in zip(geo.states, geo.states[1:]):
            seg = lo_lim[a, b, limit._cells(rb - ra, upper=False)]
            if seg == -np.inf:
                ok = False
                break
            val += seg
        tol = limit.bracket_width() + member.bracket_width() \
            + cos_seq.distortion[(i, 1)]
        assert ok
        assert val >= limit.signed_separation(p, q) - tol


def reference_joint_extremum(L, D, delta, want_min):
    """The neighbour search as first written: one masked s x s pass per
    pair of neighbour slots, min and max in separate calls."""
    nbr = np.argsort(D, axis=1)[:, :NEIGHBOR_CAP]
    cost = np.take_along_axis(D, nbr, axis=1)
    cost = np.where(cost <= delta, cost, math.inf)
    s, P = nbr.shape
    best = np.full((s, s), math.inf if want_min else -math.inf)
    have = np.zeros((s, s), dtype=bool)
    valid = L >= 0.0
    pick = np.minimum if want_min else np.maximum
    for a in range(P):
        ca = cost[:, a]
        if not np.isfinite(ca).any():
            continue
        rows = L[nbr[:, a]]
        rows_ok = valid[nbr[:, a]]
        for b in range(P):
            mask = (ca[:, None] + cost[:, b][None, :]) <= delta
            if not mask.any():
                continue
            mask &= rows_ok[:, nbr[:, b]]
            if not mask.any():
                continue
            vals = rows[:, nbr[:, b]]
            best = np.where(mask, pick(best, vals), best)
            have |= mask
    return best, have


@st.composite
def _neighbour_problem(draw):
    # a few distinct cost values give ties; rows of cost 1 have no
    # neighbour within small deltas; -inf and negative L are not causal
    s = draw(st.integers(1, 16))
    m = draw(st.integers(1, 16))
    costs = draw(st.lists(st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.1, 1.0]),
                          min_size=s * m, max_size=s * m))
    ells = draw(st.lists(st.sampled_from([-math.inf, -0.5, 0.0, 0.25, 0.5,
                                          1.0, 2.0]),
                         min_size=m * m, max_size=m * m))
    delta = draw(st.sampled_from([1e-9, 0.01, 0.03, 0.1, 0.25, 10.0]))
    return (np.array(ells).reshape(m, m), np.array(costs).reshape(s, m),
            delta)


@settings(max_examples=150, deadline=None)
@given(_neighbour_problem())
def test_joint_extrema_matches_reference(problem):
    L, D, delta = problem
    near = _neighbours(D, delta)
    lo, hi = _joint_extrema(L, *near, delta)
    ref_lo, have = reference_joint_extremum(L, D, delta, want_min=True)
    ref_hi, have_max = reference_joint_extremum(L, D, delta, want_min=False)
    assert np.array_equal(lo, ref_lo) and np.array_equal(hi, ref_hi)
    lo_only, no_hi = _joint_extrema(L, *near, delta, want_max=False)
    assert np.array_equal(lo_only, ref_lo) and no_hi is None
    assert np.array_equal(lo < math.inf, have)
    assert np.array_equal(hi > -math.inf, have_max)


@st.composite
def _saturated_problem(draw):
    # more than NEIGHBOR_CAP tied costs within delta in some rows: the
    # neighbours are cut from the full argsort, as in the reference
    s = draw(st.integers(1, 6))
    m = draw(st.integers(NEIGHBOR_CAP + 1, NEIGHBOR_CAP + 8))
    tie = draw(st.sampled_from([0.0, 0.01, 0.05]))
    D = np.full((s, m), tie)
    far = draw(st.lists(st.booleans(), min_size=s * m, max_size=s * m))
    D[np.array(far).reshape(s, m) & (np.arange(m) >= NEIGHBOR_CAP + 1)] = 1.0
    ells = draw(st.lists(st.sampled_from([-math.inf, -0.5, 0.0, 0.25, 1.0]),
                         min_size=m * m, max_size=m * m))
    return np.array(ells).reshape(m, m), D, draw(st.sampled_from([0.05, 0.1]))


@settings(max_examples=60, deadline=None)
@given(_saturated_problem())
def test_joint_extrema_matches_reference_saturated(problem):
    L, D, delta = problem
    nbr, cost = _neighbours(D, delta)
    assert nbr.shape == (D.shape[0], NEIGHBOR_CAP)
    lo, hi = _joint_extrema(L, nbr, cost, delta)
    assert np.array_equal(lo, reference_joint_extremum(L, D, delta, True)[0])
    assert np.array_equal(hi, reference_joint_extremum(L, D, delta, False)[0])


def test_joint_extrema_matches_reference_on_cos_family(cos_seq):
    # the modulus's own inputs: 1 occupied slot at 0.5 dt, 3 at 0.05 and
    # all NEIGHBOR_CAP at the default delta
    _, _, (tl, xl) = _cross_states(cos_seq, 4, 1)
    D = _cross_metric(cos_seq, 4, 1)
    Ll = cos_seq.limit.separations((tl[:, None], xl[:, None]), (tl, xl))
    dt = float(np.diff(cos_seq.limit.f.ts).max())
    for delta in (1e-9, 0.5 * dt, 0.05, default_delta(cos_seq, 4, 1)):
        lo, hi = _joint_extrema(Ll, *_neighbours(D, delta), delta)
        assert np.array_equal(lo, reference_joint_extremum(Ll, D, delta, True)[0])
        assert np.array_equal(hi, reference_joint_extremum(Ll, D, delta, False)[0])


def test_joint_extrema_mask_elision_at_the_edge():
    # a slot pair skips the joint-cost mask when its largest costs sum to
    # at most delta: at exactly delta it may, one ulp over it may not, and
    # a +inf padded slot beside finite ones never does
    inf, up = math.inf, np.nextafter(0.25, 1.0)
    L = np.array([[0.0, 1.0, -inf, 2.0], [0.5, -inf, 0.25, 1.0],
                  [1.0, 2.0, 0.0, -0.5], [-inf, 0.5, 1.5, 0.0]])
    edge = np.array([[0.0, 0.25, 0.25, 0.0], [0.25, 0.0, 0.0, 0.25],
                     [0.0, 0.0, 0.25, 0.25]])
    over = edge.copy()
    over[1, 0] = up
    padded = np.array([[0.0, 0.1, 0.2, 1.0], [1.0, 0.0, 1.0, 1.0],
                       [0.1, 1.0, 1.0, 1.0]])
    for D in (edge, over, padded):
        nbr, cost = _neighbours(D, 0.5)
        lo, hi = _joint_extrema(L, nbr, cost, 0.5)
        assert np.array_equal(lo, reference_joint_extremum(L, D, 0.5, True)[0])
        assert np.array_equal(hi, reference_joint_extremum(L, D, 0.5, False)[0])
    assert 2 * _neighbours(edge, 0.5)[1].max() == 0.5
    assert up + up > 0.5
    cost = _neighbours(padded, 0.5)[1]
    assert np.isinf(cost[:, 1]).any() and np.isfinite(cost[:, 1]).any()


def test_modulus_and_measured_pinned(cos_seq):
    # values recorded with the 144-pass search of reference_joint_extremum
    def approx(m):
        return ConvergenceModulus(**{
            f: pytest.approx(v, rel=1e-12, abs=1e-15)
            if isinstance(v, float) else v for f, v in vars(m).items()})
    assert uniform_modulus(cos_seq, 4, 1, 2, delta=1e-9) == approx(
        ConvergenceModulus(i=4, k=1, l=2, delta=1e-09,
                           eps1=0.0008404569813160734, eps2=0.0,
                           inclusion1=True, inclusion2=True,
                           level_set_empty=False, unmatched_pairs=0))
    assert uniform_modulus(cos_seq, 4, 1, 2) == approx(
        ConvergenceModulus(i=4, k=1, l=2, delta=0.13891025907657029,
                           eps1=0.21467548477765824, eps2=0.21383502779634217,
                           inclusion1=True, inclusion2=False,
                           level_set_empty=False, unmatched_pairs=0))
    # a member on another time grid: the cross metric is not square, so
    # the limit-side search must read its transpose
    ts = 0.5 * np.linspace(-1.0, 1.0, NT + 1) ** 3 \
        + 0.5 * np.linspace(-1.0, 1.0, NT + 1)
    member = GeneralizedCone(WarpingFunction(ts, 1.0 + 0.2 * np.cos(ts)),
                             segment(1.0, NX), N=2.0, window=8)
    seq = cone_sequence([member], flat(), depth=1)
    assert uniform_modulus(seq, 0, 1, 2, delta=0.05) == approx(
        ConvergenceModulus(i=0, k=1, l=2, delta=0.05,
                           eps1=0.08759408728442632, eps2=0.3250989507713193,
                           inclusion1=True, inclusion2=False,
                           level_set_empty=False, unmatched_pairs=0))
    assert measured_converge_check(cos_seq, 1) == pytest.approx(
        [0.01207552413859434, 0.006100436240881085, 0.003065242606527741,
         0.00153629207765475, 0.0007690527639864249], rel=1e-9)


def test_ell_converge_moduli_pinned():
    # an interleaved schedule with a repeated entry: keys keep schedule
    # order (first occurrence), values recorded with one uniform_modulus
    # call per (i, k, l)
    nt, nx = 20, 11
    ts = 0.5 * np.linspace(-1.0, 1.0, nt + 1) ** 3 \
        + 0.5 * np.linspace(-1.0, 1.0, nt + 1)
    member = GeneralizedCone(WarpingFunction(ts, 1.0 + 0.2 * np.cos(ts)),
                             segment(1.0, nx), N=2.0, window=8)
    seq = cone_sequence([member, flat(scale=1.25, nt=nt, nx=nx),
                         flat(fiber_len=1.5, nt=nt, nx=nx)],
                        flat(nt=nt, nx=nx), depth=2)
    rep = ell_converge_check(seq, schedule=[(1, 4), (2, 1), (1, 1), (1, 4)])
    d0, d1, d2 = 0.26800000126799994, 1e-09, 0.5000000015
    d0k2 = 0.29200000129200016
    expected = {  # key: (eps1, eps2, inc1, inc2, delta, level_set_empty)
        "0,1,4": (0.4220191327991595, 0.524660717285228, True, False, d0, False),
        "1,1,4": (0.0, 0.5999999999999999, True, False, d1, False),
        "2,1,4": (0.670820393249937, 0.9797958971132712, True, False, d2, False),
        "0,2,1": (0.5219481069154944, 0.6167633653628604, True, False, d0k2, False),
        "1,2,1": (0.0, 0.24067630741830315, True, True, d1, False),
        "2,2,1": (0.670820393249937, 1.341640775963162, True, False, d2, False),
        "0,1,1": (0.4220191327991595, 0.18399999999999972, True, True, d0, False),
        "1,1,1": (0.0, 0.0, True, True, d1, False),
        "2,1,1": (0.670820393249937, 0.5, True, True, d2, False),
    }
    fields = ("eps1", "eps2", "inc1", "inc2", "delta", "level_set_empty")
    assert list(rep["moduli"]) == list(expected)
    for key, vals in expected.items():
        assert rep["moduli"][key] == dict(zip(fields, vals)), key
    # the wrapper gives the same modulus as the batched check
    m = uniform_modulus(seq, 0, 2, 1, delta=d0k2)
    assert (m.eps1, m.eps2, m.inclusion1, m.inclusion2, m.delta,
            m.level_set_empty) == expected["0,2,1"]


def test_ell_converge_footprint():
    # a loose ceiling on a depth-1 sequence: one modulus keeps two s x s
    # float arrays whole, the limit's separation matrix included, and the
    # rest in row blocks; numpy reports its buffers to tracemalloc, so the
    # peak is deterministic
    seq = cone_sequence([cos_family_cone(i) for i in (1, 16)],
                        cos_family_limit(), depth=1)
    s = _states(seq.limit, seq.covers[-1][0])[0].size
    ell_converge_check(seq, schedule=[(1, 1)])     # builds the tables
    tracemalloc.start()
    try:
        ell_converge_check(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * s * s * 8


def test_ell_converge_keeps_two_whole_arrays(cos_seq):
    # Ll and Li are the only s x s float arrays of a modulus; the rest,
    # the nearby maximum maxLl included, lives in blocks of MODULUS_BLOCK
    # rows.  2.32 s^2 float64 entries measured at s = 693 (k = 2); a third
    # whole array reads 3.32
    s = max(_states(cos_seq.limit, lv)[0].size for lv in cos_seq.covers[-1])
    assert s == 693
    ell_converge_check(cos_seq)     # stores the table rows it reads
    tracemalloc.start()
    try:
        ell_converge_check(cos_seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.4 * s * s * 8


def test_ell_converge_reads_each_cover_in_one_kernel_call():
    # every cone's rows of one cover level come from one lower-DP call,
    # as before the moduli were blocked: 6 cones x 2 levels; then
    # bracket_width completes the limit's and the last member's tables by
    # _store's rule, which builds a table whole when several rows are
    # missing: one lower call of all 51 rows and one upper call each
    seq = cone_sequence([cos_family_cone(i) for i in (1, 2, 4, 8, 16)],
                        cos_family_limit(), depth=2)
    calls, upper = [], []
    kernel, envelope = GeneralizedCone._lower_rows, GeneralizedCone._build_upper

    def counting(cone, sources):
        calls.append(len(sources))
        return kernel(cone, sources)

    def counting_upper(cone, sources):
        upper.append(len(sources))
        return envelope(cone, sources)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GeneralizedCone, "_lower_rows", counting)
        mp.setattr(GeneralizedCone, "_build_upper", counting_upper)
        ell_converge_check(seq)
    assert calls == [17] * 6 + [16] * 6 + [51] * 2
    assert upper == [51] * 2


def test_measured_footprint_is_linear():
    # the W1 flow lives on O(states) arcs: no s x s cost matrix or coupling
    # (the dense LP's cost alone is 8 s^2 bytes, 8.5 MB here)
    nt, nx = 60, 41
    seq = cone_sequence([flat(scale=1.1, nt=nt, nx=nx)], flat(nt=nt, nx=nx),
                        depth=1)
    s = _states(seq.limit, seq.covers[-1][0])[0].size
    assert 1000 <= s <= 1300
    measured_converge_check(seq, 1)     # caches the reference measures
    tracemalloc.start()
    try:
        measured_converge_check(seq, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2000 * s


def test_uniform_non_imprisonment_constants(cos_seq):
    cs = imprisonment_constants(cos_seq)
    assert all(np.isfinite(cs))
    assert cs == sorted(cs)


def test_ell_converge_pass_and_theorem_conditions(cos_seq):
    rep = ell_converge_check(cos_seq, schedule=[(1, 2), (1, 4)])
    assert rep["verdict"] in ("PASS", "INCONCLUSIVE")
    conds = rep["theorem_conditions"]
    sup_diffs = [conds[f"{i},1"]["sup_f_diff"] for i in range(5)]
    assert all(a > b for a, b in zip(sup_diffs, sup_diffs[1:]))


def test_ell_converge_fail_diverging_fibers():
    cones = [flat(fiber_len=1.0 + 8.0 * i) for i in range(1, 4)]
    seq = cone_sequence(cones, flat(), depth=2)
    rep = ell_converge_check(seq, schedule=[(1, 2)])
    assert rep["verdict"] == "FAIL"
    lows = [lo for lo, _ in rep["gh_brackets"]["2"]]
    assert lows[-1] > lows[0]


def test_measured_convergence_constant(const_seq):
    dists = measured_converge_check(const_seq, 1)
    assert max(dists) <= 1e-9


def test_measured_convergence_reweighted():
    base = flat()
    cones = []
    for i in (1, 2, 4, 8):
        w = np.ones(base.X.n)
        w[: base.X.n // 2] *= 1.0 + 1.0 / i
        cones.append(GeneralizedCone(base.f, base.X, N=2.0, window=8,
                                     fiber_weights=w))
    seq = cone_sequence(cones, flat(), depth=1)
    dists = measured_converge_check(seq, 1)
    assert dists == sorted(dists, reverse=True)
    assert dists[-1] <= dists[0] / 2 + 1e-9


def test_measured_convergence_warping():
    cones = [flat(scale=1.0 + 1.0 / i) for i in (1, 4, 16)]
    seq = cone_sequence(cones, flat(), depth=1)
    dists = measured_converge_check(seq, 1)
    sup = [1.0, 0.25, 1.0 / 16]
    for d, s in zip(dists, sup):
        # W1 <= Lipschitz bound in the warping gap plus a grid term
        assert d <= 2.0 * s + 0.1


def test_precompact_harness_sin_profiles():
    def sincone(shift):
        ts = np.linspace(0.03, math.pi - 0.03, NT + 1)
        vals = np.sin(ts) * (1.0 + shift)
        return GeneralizedCone(WarpingFunction(ts, vals), segment(1.0, 11),
                               N=2.0, window=8)
    rep = precompact_harness([sincone(0.1 / i) for i in (1, 2, 4, 8, 16)],
                             K=1.0, D=4.0, depth=1)
    assert rep["verdict"] in ("PASS", "INCONCLUSIVE")
    assert rep["selected"] == [0, 1, 2, 3, 4]


def test_precompact_alternating_selects_even_cluster():
    # two normalized concave shapes alternate: a tent and a parabola arc;
    # selection keeps the cluster containing the earliest index
    ts = np.linspace(0.0, 2.0, NT + 1)
    tent = np.maximum(1.0 - np.abs(ts - 1.0), 1e-9)
    bump = np.maximum(1.0 - (ts - 1.0) ** 2, 1e-9)
    cones = [GeneralizedCone(WarpingFunction(ts, tent if i % 2 == 0 else bump),
                             segment(1.0, 11), N=2.0, window=8)
             for i in range(6)]
    rep = precompact_harness(cones, K=0.0, D=4.0, depth=1)
    assert rep["selected"] == [0, 2, 4]


def test_precompact_diameter_precondition():
    ts = np.linspace(0.0, 6.0, NT + 1)
    f = WarpingFunction(ts, np.sin(ts * math.pi / 6.0))
    cone = GeneralizedCone(f, segment(1.0, 11), N=2.0, window=8)
    with pytest.raises(ValueError):
        precompact_harness([cone], K=1.0, D=4.0)


@pytest.mark.parametrize("K, D, match", [
    (1.0, math.nan, "D=nan"), (1.0, 0.0, "D=0.0"), (1.0, -1.0, "D=-1.0"),
    (1.0, True, "D=True"), (math.nan, 4.0, "K=nan"), (math.inf, 4.0, "K=inf"),
    (-math.inf, 4.0, "K=-inf")])
def test_precompact_rejects_bad_bounds(K, D, match):
    # two sin cones on an interval of length 3.08: a NaN D skipped the
    # diameter precondition, and a NaN K read as a concavity residual
    ts = np.linspace(0.03, math.pi - 0.03, NT + 1)
    cone = GeneralizedCone(WarpingFunction(ts, np.sin(ts)), segment(1.0, 11),
                           N=2.0, window=8)
    with pytest.raises(ValueError, match=match):
        precompact_harness([cone, cone], K=K, D=D, depth=1)


def test_precompact_rejects_no_cones():
    # an empty list ended in numpy's "need at least one array to stack"
    with pytest.raises(ValueError, match="cones needs at least one cone"):
        precompact_harness([], K=1.0, D=4.0)


def test_precompact_rejects_non_concave_with_location():
    ts = np.linspace(0.03, math.pi - 0.03, NT + 1)
    cone = GeneralizedCone(WarpingFunction(ts, np.sin(ts) + 0.1),
                           segment(1.0, 11), N=2.0, window=8)
    with pytest.raises(ValueError, match="not FK-concave.*at t="):
        precompact_harness([cone], K=1.0, D=4.0)


def test_tangent_cone_flat_cone():
    # sparse fiber: rescaled balls stabilize to the base point once eps
    # drops below the sample spacing, which is the honest finite-sample
    # tangent of the fiber
    ts = np.linspace(0.2, 2.0, 91)
    cone = GeneralizedCone(WarpingFunction(ts, ts.copy()), segment(1.0, 5),
                           window=8)
    ti = int(np.argmin(np.abs(ts - 1.0)))
    rep = tangent_cone(cone, (ti, 2), [1 / 8, 1 / 16, 1 / 32], frame=0.5,
                       time_steps=30, depth=1)
    assert rep["verdict"] == "PASS"
    assert rep["fiber_tangent_points"] == 1
    for dev, eps in zip(rep["warp_deviation"], rep["eps"]):
        assert dev <= 2 * eps


def test_tangent_cone_identity_eps():
    ts = np.linspace(-1.0, 1.0, 41)
    cone = GeneralizedCone(WarpingFunction(ts, np.ones(41)), segment(1.0, 11),
                           window=8)
    rep = tangent_cone(cone, (20, 5), [1.0, 0.5], frame=0.9, time_steps=20,
                       depth=1)
    assert rep["flattening_ok"]
    assert rep["warp_deviation"][0] == 0.0


@pytest.mark.parametrize("eps", [[math.inf], [0.5, math.nan], [0.0],
                                 [-0.5], []])
def test_tangent_cone_rejects_bad_eps(eps):
    ts = np.linspace(0.2, 2.0, 21)
    cone = GeneralizedCone(WarpingFunction(ts, ts.copy()), segment(1.0, 5),
                           window=4)
    with pytest.raises(ValueError, match="eps values must be positive and finite"):
        tangent_cone(cone, (10, 2), eps)


def test_tangent_cone_boundary_rejected():
    ts = np.linspace(0.2, 2.0, 21)
    cone = GeneralizedCone(WarpingFunction(ts, ts.copy()), segment(1.0, 5),
                           window=4)
    with pytest.raises(BoundaryPoint):
        tangent_cone(cone, (0, 2), [0.5])


# -- the W1 flow against the dense coupling LP on the same atoms -------------------


def _dense_w1(seq, i, k):
    # the transportation LP over every (member state, limit state) pair:
    # plan rows sum to the member's masses, columns to the limit's
    (ti, xi), _, (tl, xl) = _cross_states(seq, i, k)
    D = _cross_metric(seq, i, k)
    wi = seq.cones[i].reference_measure()[ti, xi]
    wl = seq.limit.reference_measure()[tl, xl]
    ii, jj = np.indices(D.shape).reshape(2, -1)
    var = np.arange(ii.size)
    A = coo_matrix((np.ones(2 * ii.size),
                    (np.concatenate([ii, jj + D.shape[0]]), np.tile(var, 2))),
                   shape=(sum(D.shape), ii.size))
    res = linprog(D.ravel(), A_eq=A,
                  b_eq=np.concatenate([wi / wi.sum(), wl / wl.sum()]),
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun


def _grid(draw, nt):
    # a random increasing grid on [-1, 1]
    steps = np.cumsum(draw(st.lists(st.floats(0.2, 1.0), min_size=nt,
                                    max_size=nt)))
    return np.concatenate([[-1.0], -1.0 + 2.0 * steps / steps[-1]])


def _fiber(draw, nx):
    kind = draw(st.sampled_from(["segment", "circle_arc", "plane"]))
    if kind == "segment":
        return segment(draw(st.floats(0.3, 3.0)), nx)
    if kind == "circle_arc":
        return circle_arc(1.0, draw(st.floats(0.3, 4.0)), nx)
    # plane points: not a path metric, and a ball of radius 2 may leave
    # some of them out
    p = np.array(draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                               min_size=nx, max_size=nx, unique=True))) / 3.0
    return FiniteMetricSpace(np.hypot(*(p[:, None, :] - p[None, :, :]).T))


@st.composite
def _w1_problem(draw):
    nt = draw(st.integers(2, 7))
    X = _fiber(draw, draw(st.integers(1, 6)))
    Y = _fiber(draw, draw(st.integers(1, 6)))
    vals = lambda: np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=nt + 1,
                                          max_size=nt + 1)))
    weights = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=Y.n,
                                     max_size=Y.n)))
    member = GeneralizedCone(WarpingFunction(_grid(draw, nt), vals()), Y,
                             N=2.0, fiber_weights=weights)
    limit = GeneralizedCone(WarpingFunction(_grid(draw, nt), vals()), X, N=2.0)
    seq = cone_sequence([member], limit, depth=1)
    # any witness map, injective or not, into the limit's fiber ball
    to_limit, dist = seq.fiber_maps[(0, 1)]
    nb = seq.covers[-1][0].fiber_idx.size
    seq.fiber_maps[(0, 1)] = (np.array(draw(st.lists(
        st.integers(0, nb - 1), min_size=to_limit.size,
        max_size=to_limit.size))), dist)
    return seq


@settings(max_examples=80, deadline=None)
@given(_w1_problem())
def test_measured_flow_matches_dense_lp(seq):
    assert measured_converge_check(seq, 1)[0] == pytest.approx(
        _dense_w1(seq, 0, 1), rel=0, abs=1e-12)


def test_measured_flow_matches_dense_lp_on_families(cos_seq):
    # the pinned cos family, and a member on a cubic time grid whose
    # witness sends two fiber points to one
    assert measured_converge_check(cos_seq, 1) == pytest.approx(
        [_dense_w1(cos_seq, i, 1) for i in range(5)], rel=0, abs=1e-12)
    ts = 0.5 * np.linspace(-1.0, 1.0, NT + 1) ** 3 \
        + 0.5 * np.linspace(-1.0, 1.0, NT + 1)
    member = GeneralizedCone(WarpingFunction(ts, 1.0 + 0.2 * np.cos(ts)),
                             segment(1.0, NX), N=2.0, window=8)
    seq = cone_sequence([member], flat(), depth=1)
    to_limit, dist = seq.fiber_maps[(0, 1)]
    seq.fiber_maps[(0, 1)] = (np.minimum(to_limit, NX - 2), dist)
    assert measured_converge_check(seq, 1)[0] == pytest.approx(
        _dense_w1(seq, 0, 1), rel=0, abs=1e-12)


# -- blocked moduli against the whole-matrix computation ---------------------


def reference_moduli(seq, i, k, levels, delta):
    # every intermediate whole: the cross metric, both separation matrices
    # and the joint extrema over all s x s row pairs
    (ti, xi), _, (tl, xl) = _cross_states(seq, i, k)
    D = _cross_metric(seq, i, k)
    Li = seq.cones[i].separations((ti[:, None], xi[:, None]), (ti, xi))
    Ll = seq.limit.separations((tl[:, None], xl[:, None]), (tl, xl))
    minLi, have_l = reference_joint_extremum(Li, D.T, delta, True)
    minLl, have_i = reference_joint_extremum(Ll, D, delta, True)
    maxLl, _ = reference_joint_extremum(Ll, D, delta, False)
    causal = Li >= 0.0
    eps1 = float(np.max(Li - minLl, where=causal & have_i, initial=0.0))
    out = []
    for l in levels:
        level = Ll >= 1.0 / l
        eps2 = float(np.max(Ll - minLi, where=level & have_l, initial=0.0))
        eps = max(eps1, eps2)
        out.append(ConvergenceModulus(
            i=i, k=k, l=l, delta=float(delta), eps1=eps1, eps2=eps2,
            inclusion1=bool(np.all(maxLl >= 1.0 / l - 2.0 * eps,
                                   where=(Li >= 1.0 / l - eps) & have_i)),
            inclusion2=bool(np.all(Li >= 1.0 / (2.0 * l),
                                   where=maxLl >= 1.0 / l)),
            level_set_empty=not level.any(),
            unmatched_pairs=int(np.count_nonzero(causal & ~have_i))
            + int(np.count_nonzero(level & ~have_l))))
    return out


@settings(max_examples=40, deadline=None)
@given(_w1_problem(), st.sampled_from(["tiny", "half_dt", "fixed", "default"]))
def test_blocked_moduli_equal_whole(seq, which):
    # blocks of one row, of a few, of all but one, of all and past all;
    # these small cones seldom crowd more than NEIGHBOR_CAP states within
    # delta of a row, the cos-family test below does
    dt = float(np.diff(seq.limit.f.ts).max())
    delta = {"tiny": 1e-9, "half_dt": 0.5 * dt, "fixed": 0.05,
             "default": default_delta(seq, 0, 1)}[which]
    levels = [1, 2, 4]
    expected = reference_moduli(seq, 0, 1, levels, delta)
    (ti, _), _, (tl, _) = _cross_states(seq, 0, 1)
    s = max(ti.size, tl.size)
    for block in (1, 3, max(1, s - 1), s, 2 * s):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(converge, "MODULUS_BLOCK", block)
            got = _moduli(seq, 0, 1, levels, delta, _limit_separations(seq, 1))
        assert got == expected, block


@pytest.mark.parametrize("which", ["tiny", "half_dt", "fixed", "default"])
def test_blocked_moduli_equal_whole_on_cos_family(which):
    # 63 states a side; at the default delta more than NEIGHBOR_CAP states
    # lie within delta of most rows, so the crowded rows' argsort rule runs
    seq = cone_sequence([cos_family_cone(4, nt=20, nx=9)],
                        cos_family_limit(nt=20, nx=9), depth=1)
    dt = float(np.diff(seq.limit.f.ts).max())
    delta = {"tiny": 1e-9, "half_dt": 0.5 * dt, "fixed": 0.05,
             "default": default_delta(seq, 0, 1)}[which]
    D = _cross_metric(seq, 0, 1)
    s = D.shape[0]
    assert D.shape == (63, 63)
    crowded = ((D <= delta).sum(axis=1) > NEIGHBOR_CAP).any()
    assert crowded == (which == "default")
    expected = reference_moduli(seq, 0, 1, [1, 2, 4], delta)
    for block in (1, 3, s - 1, s, 2 * s):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(converge, "MODULUS_BLOCK", block)
            got = _moduli(seq, 0, 1, [1, 2, 4], delta,
                          _limit_separations(seq, 1))
        assert got == expected, block


# -- the time-row neighbour search against the whole-row search -------------


@st.composite
def _time_row_problem(draw):
    # uniform grids, the member's shifted off the limit's by a part of a
    # step, fibers with tied distances and any witness map: many tied
    # costs, and at the larger deltas more than NEIGHBOR_CAP of them
    nt = draw(st.integers(2, 16))
    step = 2.0 / nt
    shift = draw(st.sampled_from([0.0, 1e-3, 0.25, 0.5, 1.0])) * step
    ts = np.linspace(-1.0, 1.0, nt + 1)
    vals = lambda: np.array(draw(st.lists(st.floats(0.5, 1.5), min_size=nt + 1,
                                          max_size=nt + 1)))
    # evenly spaced short segments put many states within delta of a row
    fiber = lambda: (segment(draw(st.sampled_from([0.05, 0.3, 1.0])),
                             draw(st.integers(1, 14)))
                     if draw(st.booleans())
                     else _fiber(draw, draw(st.integers(1, 10))))
    member = GeneralizedCone(WarpingFunction(ts + shift, vals()), fiber(),
                             N=2.0)
    limit = GeneralizedCone(WarpingFunction(ts, vals()), fiber(), N=2.0)
    seq = cone_sequence([member], limit, depth=1)
    to_limit, dist = seq.fiber_maps[(0, 1)]
    nb = seq.covers[-1][0].fiber_idx.size
    seq.fiber_maps[(0, 1)] = (np.array(draw(st.lists(
        st.integers(0, nb - 1), min_size=to_limit.size,
        max_size=to_limit.size))), dist)
    return seq


@settings(max_examples=80, deadline=None)
@given(_time_row_problem(), st.sampled_from(["zero", "tiny", "half_dt",
                                             "two_dt", "default"]))
def test_time_row_search_equals_whole_row_search(seq, which):
    # at 2 dt a row sees a few time rows of the other side, so crowded
    # rows read their whole row from a window of columns
    dt = float(np.diff(seq.limit.f.ts).max())
    delta = {"zero": 0.0, "tiny": 1e-9, "half_dt": 0.5 * dt, "two_dt": 2 * dt,
             "default": default_delta(seq, 0, 1)}[which]
    D = _cross_metric(seq, 0, 1)
    for limit_side, whole in ((False, D), (True, D.T)):
        nbr, cost = _search(seq, 0, 1, delta, limit_side)
        ref_nbr, ref_cost = _neighbours(whole, delta)
        assert nbr.shape == ref_nbr.shape
        assert np.array_equal(cost, ref_cost)
        finite = np.isfinite(ref_cost)
        assert np.array_equal(nbr[finite], ref_nbr[finite])


@pytest.mark.parametrize("which", ["tiny", "two_dt", "default"])
def test_time_row_search_reads_only_near_time_rows(cos_seq, which):
    # at delta = 1e-9 each state's neighbour lies in the same time row, so
    # a side computes at most 2 s nx cross-metric entries (the whole-row
    # search computed s^2); at 2 dt the middle rows are crowded within a
    # window of 5 time rows and read their whole row, and at the default
    # delta every row is crowded; the result is the whole-row search's
    lv = cos_seq.covers[-1][0]
    s, nx = _states(cos_seq.limit, lv)[0].size, lv.fiber_idx.size
    dt = float(np.diff(cos_seq.limit.f.ts).max())
    delta = {"tiny": 1e-9, "two_dt": 2 * dt,
             "default": default_delta(cos_seq, 4, 1)}[which]
    D = _cross_metric(cos_seq, 4, 1)
    metric = converge._cross_metric
    for limit_side, whole in ((False, D), (True, D.T)):
        entries = []

        def counting(*args):
            block = metric(*args)
            entries.append(block.size)
            return block

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(converge, "_cross_metric", counting)
            nbr, cost = _search(cos_seq, 4, 1, delta, limit_side)
        ref_nbr, ref_cost = _neighbours(whole, delta)
        assert np.array_equal(nbr, ref_nbr) and np.array_equal(cost, ref_cost)
        if which == "tiny":
            assert sum(entries) <= 2 * s * nx
            assert nbr.shape == (s, 1)
        else:
            assert nbr.shape == (s, NEIGHBOR_CAP)
        if which == "two_dt":
            crowded = ((whole <= delta).sum(axis=1) > NEIGHBOR_CAP).sum()
            assert 0 < crowded < s

import itertools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from conelab import transport
from conelab.cone import GeneralizedCone, minkowski_strip
from conelab.errors import (AtomNotInPast, NotCausallyCouplable,
                            NotCausallyRelated, NotTimelikeDualizable,
                            ZeroReferenceCell)
from conelab.metricspace import segment
from conelab.transport import (CausalCoupling, DiscreteMeasure,
                               build_dynamical_plan,
                               check_cyclical_monotonicity, distortion,
                               entropy, separation_matrix, solve_lp,
                               tcd_verify, tmcp_verify, verdict)
from conelab.warp import WarpingFunction


def vertex_enumeration_value(L, a, b, p):
    """Exact LP oracle: enumerate all spanning-forest basic solutions of the
    transport polytope and maximize the causal p-cost."""
    n0, n1 = L.shape
    cells = [(i, j) for i in range(n0) for j in range(n1)]
    rank = n0 + n1 - 1
    best = None
    for basis in itertools.combinations(cells, rank):
        parent = list(range(n0 + n1))

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        acyclic = True
        for i, j in basis:
            ru, rv = find(i), find(n0 + j)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if not acyclic:
            continue
        A = np.zeros((n0 + n1, rank))
        for col, (i, j) in enumerate(basis):
            A[i, col] = 1.0
            A[n0 + j, col] = 1.0
        rhs = np.concatenate([a, b])
        x, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        if np.abs(A @ x - rhs).max() > 1e-9 or x.min() < -1e-9:
            continue
        if any(L[i, j] < 0 and x[c] > 1e-12 for c, (i, j) in enumerate(basis)):
            continue
        val = sum(max(L[i, j], 0.0) ** p * x[c]
                  for c, (i, j) in enumerate(basis))
        best = val if best is None else max(best, val)
    return best


def test_delta_to_delta(strip_small):
    mu0 = DiscreteMeasure.dirac((0, 10))
    mu1 = DiscreteMeasure.dirac((40, 10))
    c = solve_lp(strip_small, mu0, mu1, 0.5)
    assert c.ell_p == pytest.approx(2.0, abs=1e-9)
    assert c.table[0, 0] == pytest.approx(1.0)


def test_three_atom_permutation_oracle(strip_small):
    m0 = DiscreteMeasure.uniform([(2, 3), (2, 10), (2, 17)])
    m1 = DiscreteMeasure.uniform([(38, 3), (38, 10), (38, 17)])
    c = solve_lp(strip_small, m0, m1, 0.5)
    L = separation_matrix(strip_small, c.mu0, c.mu1)
    best = max((sum(max(L[i, s[i]], 0.0) ** 0.5 for i in range(3)) / 3
                for s in itertools.permutations(range(3))
                if all(L[i, s[i]] >= 0 for i in range(3))))
    assert c.p_value == pytest.approx(best, abs=1e-8)


def test_lp_matches_vertex_enumeration(strip_small):
    rng = np.random.default_rng(5)
    for trial in range(8):
        pts0 = [(int(rng.integers(0, 8)), int(rng.integers(0, 21)))
                for _ in range(4)]
        pts1 = [(int(rng.integers(30, 41)), int(rng.integers(0, 21)))
                for _ in range(4)]
        pts0 = list(dict.fromkeys(pts0))
        pts1 = list(dict.fromkeys(pts1))
        a = rng.uniform(0.5, 1.5, len(pts0))
        b = rng.uniform(0.5, 1.5, len(pts1))
        a, b = a / a.sum(), b / b.sum()
        mu0 = DiscreteMeasure(tuple(pts0), a)
        mu1 = DiscreteMeasure(tuple(pts1), b)
        c = solve_lp(strip_small, mu0, mu1, 0.5)
        L = separation_matrix(strip_small, c.mu0, c.mu1)
        oracle = vertex_enumeration_value(L, c.mu0.masses, c.mu1.masses, 0.5)
        assert c.p_value == pytest.approx(oracle, abs=1e-8)


def test_not_causally_couplable(strip_small):
    with pytest.raises(NotCausallyCouplable):
        solve_lp(strip_small, DiscreteMeasure.dirac((40, 0)),
                 DiscreteMeasure.dirac((0, 0)), 0.5)


def test_not_causally_couplable_through_the_lp(strip_small):
    # every atom has a causal partner, but Hall's condition fails: mu1's
    # atom of mass 0.9 lies in the future of mu0's first atom (mass 0.5)
    # only, so the partner pre-check passes and the LP is infeasible
    mu0 = DiscreteMeasure(((0, 0), (0, 20)), np.array([0.5, 0.5]))
    mu1 = DiscreteMeasure(((10, 0), (40, 20)), np.array([0.9, 0.1]))
    with pytest.raises(NotCausallyCouplable,
                       match="no coupling supported on admissible pairs"):
        solve_lp(strip_small, mu0, mu1, 0.5)


@pytest.fixture()
def flow_lp_calls(monkeypatch):
    """Every coupling solve that reaches HiGHS, counted."""
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return flow_lp(*args)

    flow_lp = transport.flow_lp
    monkeypatch.setattr(transport, "flow_lp", counted)
    return calls


def _highs_p_value(L, mu0, mu1, p, strict):
    """The optimum of the same arcs through flow_lp, or None when HiGHS
    finds the LP infeasible."""
    feas = L > 0.0 if strict else L >= 0.0
    ii, jj = np.nonzero(feas)
    gain = np.maximum(L[ii, jj], 0.0) ** p
    res = transport.flow_lp(ii, jj + len(mu0.points), -gain,
                            np.concatenate([mu0.masses, -mu1.masses]))
    if res.status == 2:
        return None
    assert res.success
    return float(gain @ res.x)


_ATOMS = st.tuples(st.integers(0, 25), st.integers(0, 20))


@pytest.mark.parametrize("strict", [False, True])
@settings(max_examples=50, deadline=None)
@given(cone_name=st.sampled_from(["strip_small", "cos_arc_cone"]),
       atoms=st.lists(_ATOMS, min_size=2, max_size=12, unique=True),
       null=st.integers(1, 10), p=st.sampled_from([0.25, 0.5, 0.8, 1.0]))
def test_equal_mass_assignment_matches_highs(request, strict, cone_name,
                                             atoms, null, p):
    # mu0's times overlap mu1's, so that some pairs are spacelike or run
    # backward and some draws have no perfect admissible matching; mu1's
    # first atom is null-related to mu0's first on the strip
    cone = request.getfixturevalue(cone_name)
    n = len(atoms) // 2
    a = atoms[:n]
    b = [(t + 15, x) for t, x in atoms[n:2 * n]]
    t0, x0 = a[0]
    tip = (t0 + null, x0 + null if x0 + null <= 20 else x0 - null)
    if tip not in b:
        b[0] = tip
    mu0 = transport._sorted_measure(DiscreteMeasure.uniform(a))
    mu1 = transport._sorted_measure(DiscreteMeasure.uniform(b))
    L = separation_matrix(cone, mu0, mu1)
    feas = L > 0.0 if strict else L >= 0.0
    want = (_highs_p_value(L, mu0, mu1, p, strict)
            if feas.any(axis=0).all() and feas.any(axis=1).all() else None)
    event(f"null pair={bool((L == 0.0).any())}, "
          f"{'no perfect matching' if want is None else 'matched'}")
    if want is None:
        with pytest.raises(NotCausallyCouplable):
            solve_lp(cone, mu0, mu1, p, strict=strict)
        return
    c = solve_lp(cone, mu0, mu1, p, strict=strict)
    # exact: the best admissible permutation; HiGHS stops within its dual
    # tolerance (an 8 x 8 draw at p = 1 read 4.2e-9 below the optimum), so
    # the assignment is never below it and at most 1e-7 above
    perms = np.array(list(itertools.permutations(range(n))))
    gain = np.where(feas, np.maximum(L, 0.0) ** p, -np.inf)
    best = gain[np.arange(n), perms].sum(axis=1).max() / n
    assert c.p_value == pytest.approx(best, abs=1e-12)
    assert want - 1e-12 <= c.p_value <= want + 1e-7
    # a permutation matrix scaled by 1/n, on admissible pairs only
    assert np.count_nonzero(c.table) == n
    assert (c.table.max(axis=0) == 1.0 / n).all()
    assert (c.table.max(axis=1) == 1.0 / n).all()
    assert feas[c.table > 0].all()


def test_certify_rejects_a_swapped_match(strip_small):
    m0 = DiscreteMeasure.uniform([(0, 2), (0, 8), (0, 14), (0, 20)])
    m1 = DiscreteMeasure.uniform([(40, 2), (40, 8), (40, 14), (40, 20)])
    L = separation_matrix(strip_small, m0, m1)
    cost = np.where(L >= 0.0, -(np.maximum(L, 0.0) ** 0.5), np.inf)
    transport._certify(cost, np.arange(4))
    with pytest.raises(RuntimeError, match="negative cycle"):
        transport._certify(cost, np.array([1, 0, 2, 3]))


def test_certify_accepts_tied_optima(strip_small):
    # on one fiber point, tau is the time gap, so at p = 1 every matching
    # of these atoms costs the same: each residual cycle costs zero, up to
    # rounding of the table's sums
    m0 = DiscreteMeasure.uniform([(0, 10), (1, 10), (3, 10), (6, 10)])
    m1 = DiscreteMeasure.uniform([(30, 10), (33, 10), (37, 10), (40, 10)])
    L = separation_matrix(strip_small, m0, m1)
    cost = np.where(L >= 0.0, -L, np.inf)
    totals = []
    for perm in itertools.permutations(range(4)):
        transport._certify(cost, np.array(perm))
        totals.append(cost[range(4), perm].sum())
    assert max(totals) - min(totals) <= 1e-12


def scipy_certifies(cost, match):
    """Whether scipy's Bellman-Ford finds no negative cycle in the residual
    graph of the matching r -> match[r]: the free admissible row -> column
    arcs at their cost plus the certificate's slack, the matched column ->
    row arcs at minus theirs, and a virtual source with a zero arc to every
    row.  The reference the certificate's relaxation must agree with."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import NegativeCycleError, bellman_ford
    n = len(match)
    rows = np.arange(n)
    admissible = np.isfinite(cost)
    slack = transport.CERTIFY_TOL * (np.abs(cost[admissible]).max() + 1.0)
    free = admissible.copy()
    free[rows, match] = False
    fr, fc = np.nonzero(free)
    graph = coo_matrix(
        (np.concatenate([cost[fr, fc] + slack, -cost[rows, match],
                         np.zeros(n)]),
         (np.concatenate([fr, match + n, np.full(n, 2 * n)]),
          np.concatenate([fc + n, rows, rows]))),
        shape=(2 * n + 1, 2 * n + 1))
    try:
        bellman_ford(graph, indices=2 * n)
    except NegativeCycleError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certify_agrees_with_scipy_bellman_ford(data):
    # integer costs, some pairs inadmissible, and an admissible matching:
    # drawn at random, the optimum itself, or the optimum with a planted
    # negative cycle (two crossing arcs that beat the matched pair by 1 or
    # more).  Integer sums are exact, so the matching is optimal exactly
    # when its total is the least, and the certificate must say the same as
    # scipy's Bellman-Ford on the same residual graph
    from scipy.optimize import linear_sum_assignment
    n = data.draw(st.integers(1, 7))
    ints = st.lists(st.integers(-30, 30), min_size=n * n, max_size=n * n)
    cost = np.array(data.draw(ints), dtype=float).reshape(n, n)
    off = np.array(data.draw(st.lists(st.booleans(), min_size=n * n,
                                      max_size=n * n))).reshape(n, n)
    cost[off] = np.inf
    kind = data.draw(st.sampled_from(["random", "optimal", "planted"]))
    match = np.array(data.draw(st.permutations(range(n))))
    rows = np.arange(n)
    cost[rows, match] = np.where(np.isfinite(cost[rows, match]),
                                 cost[rows, match], 0.0)
    if kind != "random":
        match = linear_sum_assignment(cost)[1]
    if kind == "planted" and n > 1:
        a, b = sorted(data.draw(st.permutations(range(n)))[:2])
        ca, cb = match[a], match[b]
        cost[a, cb] = cost[a, ca] - data.draw(st.integers(1, 10))
        cost[b, ca] = cost[b, cb]
    event(kind)
    try:
        transport._certify(cost, match)
        certified = True
    except RuntimeError as exc:
        assert "negative cycle" in str(exc)
        certified = False
    assert certified == scipy_certifies(cost, match)
    best = cost[rows, linear_sum_assignment(cost)[1]].sum()
    assert certified == (cost[rows, match].sum() == best)
    if kind == "planted" and n > 1:
        assert not certified
    if kind == "optimal":
        assert certified


def test_uniform_hall_failure_raises_like_the_lp(strip_small, flow_lp_calls):
    # every atom has a causal partner, but (0, 0) and (0, 2) both reach only
    # (4, 1): no perfect matching of admissible pairs exists
    mu0 = DiscreteMeasure.uniform([(0, 0), (0, 2), (0, 20)])
    mu1 = DiscreteMeasure.uniform([(4, 1), (4, 19), (4, 20)])
    with pytest.raises(NotCausallyCouplable,
                       match="no coupling supported on admissible pairs"):
        solve_lp(strip_small, mu0, mu1, 0.5)
    assert flow_lp_calls == []


def test_only_unequal_masses_reach_highs(strip_small, flow_lp_calls):
    top = [(38, 4), (38, 10), (38, 16)]
    equal = [(DiscreteMeasure.uniform([(2, 4), (2, 10), (2, 16)]),
              DiscreteMeasure.uniform(top)),
             (DiscreteMeasure.dirac((0, 10)), DiscreteMeasure.dirac((40, 10)))]
    for mu0, mu1 in equal:
        solve_lp(strip_small, mu0, mu1, 0.5)
        tcd_verify(strip_small, mu0, mu1, 0.5, 0.0, 2.0, t_grid=[0.5])
    assert flow_lp_calls == []
    unequal = [(DiscreteMeasure.uniform([(2, 4), (2, 16)]),        # counts
                DiscreteMeasure.uniform(top)),
               (DiscreteMeasure(((2, 4), (2, 10), (2, 16)),        # masses
                                np.array([0.5, 0.25, 0.25])),
                DiscreteMeasure.uniform(top))]
    for mu0, mu1 in unequal:
        solve_lp(strip_small, mu0, mu1, 0.5)
    assert len(flow_lp_calls) == 2


@pytest.mark.parametrize("p", [0.0, 1.5, math.nan])
def test_bad_exponent_reads_no_table(strip_small, p, monkeypatch):
    def refused(*args):
        raise AssertionError("a separation was read")

    monkeypatch.setattr(transport, "separation_matrix", refused)
    mu0, mu1 = DiscreteMeasure.dirac((0, 10)), DiscreteMeasure.dirac((40, 10))
    for verify in (solve_lp, lambda *a: tcd_verify(*a, 0.0, 2.0)):
        with pytest.raises(ValueError, match=r"p must lie in \(0, 1\]"):
            verify(strip_small, mu0, mu1, p)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_mass_rejected(bad):
    # a NaN mass passed both the positivity and the sum check
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure(((0, 0), (1, 0)), np.array([bad, 1.0]))


def test_cyclical_monotonicity(strip_small):
    m0 = DiscreteMeasure.uniform([(0, 2), (0, 8), (0, 14), (0, 20)])
    m1 = DiscreteMeasure.uniform([(40, 2), (40, 8), (40, 14), (40, 20)])
    c = solve_lp(strip_small, m0, m1, 0.5)
    assert check_cyclical_monotonicity(strip_small, c, 0.5, cycles=300) >= -1e-9
    # a hand-swapped non-optimal coupling shows negative slack
    table = np.zeros((4, 4))
    perm = [1, 0, 2, 3]
    for i, j in enumerate(perm):
        table[i, j] = 0.25
    from conelab.transport import CausalCoupling
    L = separation_matrix(strip_small, c.mu0, c.mu1)
    bad = CausalCoupling(mu0=c.mu0, mu1=c.mu1, table=table, p=0.5,
                         p_value=float((np.maximum(L, 0) ** 0.5 * table).sum()))
    assert check_cyclical_monotonicity(strip_small, bad, 0.5, cycles=400) < -1e-6


def test_restriction_stability(strip_small):
    m0 = DiscreteMeasure.uniform([(0, 2), (0, 10), (0, 18)])
    m1 = DiscreteMeasure.uniform([(40, 4), (40, 12), (40, 20)])
    c = solve_lp(strip_small, m0, m1, 0.5)
    sup = c.support()
    keep = sup[: max(2, len(sup) - 1)]
    mass = sum(c.table[i, j] for i, j in keep)
    pts0 = sorted({c.mu0.points[i] for i, _ in keep})
    pts1 = sorted({c.mu1.points[j] for _, j in keep})
    a = np.array([sum(c.table[i, j] for i, j in keep if c.mu0.points[i] == p)
                  for p in pts0]) / mass
    b = np.array([sum(c.table[i, j] for i, j in keep if c.mu1.points[j] == q)
                  for q in pts1]) / mass
    sub = solve_lp(strip_small, DiscreteMeasure(tuple(pts0), a),
                   DiscreteMeasure(tuple(pts1), b), 0.5)
    restricted_value = sum(max(strip_small.signed_separation(
        c.mu0.points[i], c.mu1.points[j]), 0.0) ** 0.5 * c.table[i, j]
        for i, j in keep) / mass
    assert sub.p_value == pytest.approx(restricted_value, abs=1e-8)


def test_plan_endpoints_and_midpoint(strip_small):
    c = solve_lp(strip_small, DiscreteMeasure.dirac((0, 10)),
                 DiscreteMeasure.dirac((40, 10)), 0.5)
    plan = build_dynamical_plan(strip_small, c)
    assert plan.slice_at(0.0).points == ((0, 10),)
    assert plan.slice_at(1.0).points == ((40, 10),)
    assert plan.slice_at(0.5).points == ((20, 10),)


def test_plan_geodesy_property(strip_small):
    m0 = DiscreteMeasure.uniform([(0, 4), (0, 16)])
    m1 = DiscreteMeasure.uniform([(40, 4), (40, 16)])
    c = solve_lp(strip_small, m0, m1, 0.5)
    plan = build_dynamical_plan(strip_small, c)
    mid = plan.slice_at(0.5)
    half = solve_lp(strip_small, m0, mid, 0.5)
    assert half.ell_p == pytest.approx(0.5 * c.ell_p,
                                       abs=strip_small.bracket_width())


def test_plan_mass_conservation(strip_small):
    m0 = DiscreteMeasure.uniform([(0, k) for k in range(0, 21, 4)])
    m1 = DiscreteMeasure.uniform([(40, k) for k in range(0, 21, 4)])
    plan = build_dynamical_plan(strip_small, solve_lp(strip_small, m0, m1, 0.5))
    for t in np.linspace(0, 1, 9):
        assert abs(math.fsum(plan.slice_at(float(t)).masses) - 1.0) <= 1e-12


def test_plan_rejects_non_causal_support_pair(strip_small):
    # (30, 0) -> (10, 0) runs backward in time; (0, 0) -> (40, 20) is causal
    m0 = DiscreteMeasure.uniform([(0, 0), (30, 0)])
    m1 = DiscreteMeasure.uniform([(10, 0), (40, 20)])
    coupling = CausalCoupling(mu0=m0, mu1=m1, table=np.array([[0.0, 0.5],
                                                              [0.5, 0.0]]),
                              p=1.0, p_value=0.0)
    with pytest.raises(NotCausallyRelated):
        build_dynamical_plan(strip_small, coupling)


def test_entropy_closed_forms(strip_small):
    w = strip_small.reference_measure()[10, 0]
    cells = [(10, k) for k in range(5)]
    mu = DiscreteMeasure.uniform(cells)
    assert entropy(mu, strip_small, "boltzmann") == pytest.approx(
        math.log(1.0 / (5 * w)))
    assert entropy(mu, strip_small, "U", 2.0) == pytest.approx(
        (5 * w) ** 0.5)
    assert entropy(DiscreteMeasure.dirac((10, 0)), strip_small, "renyi", 2.0) \
        == pytest.approx(-w ** 0.5)


def test_entropy_jensen_bound(strip_small):
    rng = np.random.default_rng(9)
    w = strip_small.reference_measure()
    for _ in range(10):
        pts = [(int(rng.integers(0, 41)), int(rng.integers(0, 21)))
               for _ in range(6)]
        pts = list(dict.fromkeys(pts))
        mu = DiscreteMeasure.uniform(pts)
        support_mass = sum(w[a, b] for a, b in pts)
        assert entropy(mu, strip_small, "renyi", 3.0) >= \
            -(support_mass ** (1.0 / 3.0)) - 1e-12


def test_entropy_zero_weight_cell():
    ts = np.linspace(0, math.pi, 21)
    cone = GeneralizedCone(WarpingFunction(ts, np.sin(ts)), segment(1.0, 3),
                           N=2.0, dist_steps=4, window=4)
    mu = DiscreteMeasure.dirac((0, 0))   # f(0) = 0: zero-weight cell
    assert entropy(mu, cone, "boltzmann") == math.inf
    assert entropy(mu, cone, "U", 2.0) == 0.0
    with pytest.raises(ZeroReferenceCell):
        entropy(mu, cone, "renyi", 2.0)


def test_distortion_values():
    assert distortion(0.0, 5.0, 0.3, 2.0) == pytest.approx(0.3)
    assert distortion(3.0, 2.0, 0.4, 0.0) == 0.4
    assert distortion(1.0, 1.0, 0.5, 1.0, modified=True) == math.inf
    assert distortion(1.0, 1.0, 0.5, 0.0, modified=True) == 0.0
    assert distortion(2.0, 2.0, 0.5, 10.0) == math.inf   # beyond pi_{K/N}
    # sigma identity for K/N < 0
    K, N, t, th = -2.0, 4.0, 0.37, 1.3
    k = math.sqrt(-K / N)
    lhs = distortion(K, N, t, th) * math.sinh(k * th)
    assert lhs == pytest.approx(math.sinh(k * t * th), abs=1e-12)


def test_distortion_against_ode_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        K = float(rng.uniform(-3, 3))
        N = float(rng.uniform(1, 5))
        t = float(rng.uniform(0, 1))
        kappa = K / N
        pk = math.pi / math.sqrt(kappa) if kappa > 0 else 4.0
        theta = float(rng.uniform(0.05, 0.95) * min(pk, 4.0))
        steps = 4000

        def sin_ode(x):
            v, dv = 0.0, 1.0
            h = x / steps
            for _ in range(steps):
                k1 = (dv, -kappa * v)
                k2 = (dv + h / 2 * k1[1], -kappa * (v + h / 2 * k1[0]))
                k3 = (dv + h / 2 * k2[1], -kappa * (v + h / 2 * k2[0]))
                k4 = (dv + h * k3[1], -kappa * (v + h * k3[0]))
                v += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
                dv += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            return v
        oracle = sin_ode(t * theta) / sin_ode(theta)
        assert distortion(K, N, t, theta) == pytest.approx(oracle, abs=1e-6)


def test_tcd_flat_entropic(strip_small):
    m0 = DiscreteMeasure.uniform([(4, 6), (4, 14), (8, 6), (8, 14)])
    m1 = DiscreteMeasure.uniform([(32, 6), (32, 14), (36, 6), (36, 14)])
    rep = tcd_verify(strip_small, m0, m1, 0.5, 0.0, 2.0)
    assert rep["verdict"] == "PASS"
    assert rep["min_margin"] >= -0.05
    # independent oracle: displacement convexity of the Boltzmann entropy
    c = solve_lp(strip_small, m0, m1, 0.5, strict=True)
    plan = build_dynamical_plan(strip_small, c)
    e0 = entropy(m0, strip_small, "boltzmann")
    e1 = entropy(m1, strip_small, "boltzmann")
    for t in (0.25, 0.5, 0.75):
        et = entropy(plan.slice_at(t), strip_small, "boltzmann")
        assert et <= (1 - t) * e0 + t * e1 + 0.05


def test_tcd_degenerate_pair(strip_small):
    m0 = DiscreteMeasure.dirac((0, 10))
    m1 = DiscreteMeasure.dirac((40, 10))
    rep = tcd_verify(strip_small, m0, m1, 0.5, 0.0, 2.0, t_grid=[0.0, 1.0])
    assert rep["min_margin"] >= -1e-9


def test_tcd_renyi_flavor(strip_small):
    m0 = DiscreteMeasure.uniform([(4, 6), (4, 14)])
    m1 = DiscreteMeasure.uniform([(36, 6), (36, 14)])
    rep = tcd_verify(strip_small, m0, m1, 0.5, 0.0, 2.0, flavor="renyi")
    assert rep["verdict"] in ("PASS", "INCONCLUSIVE")
    assert rep["min_margin"] >= -rep["bracket_width"] - 0.05


def test_tcd_not_timelike_dualizable(strip_small):
    # only null-related pairs: strictly timelike re-solve must fail
    m0 = DiscreteMeasure.dirac((0, 0))
    m1 = DiscreteMeasure.dirac((20, 20))
    with pytest.raises(NotTimelikeDualizable):
        tcd_verify(strip_small, m0, m1, 0.5, 0.0, 2.0)


def test_l2_truncation_stability(strip_small):
    m0 = DiscreteMeasure.uniform([(0, k) for k in range(0, 21, 2)])
    m1 = DiscreteMeasure.uniform([(40, k) for k in range(0, 21, 2)])
    c = solve_lp(strip_small, m0, m1, 0.5)
    L = separation_matrix(strip_small, c.mu0, c.mu1)
    total = (np.maximum(L, 0) ** 2 * c.table).sum()
    for lam in (0.5, 0.2, 0.05):
        keep = (L >= lam) & (c.table > 0)
        trimmed_mass = c.table[(L < lam) & (c.table > 0)].sum()
        part = (np.maximum(L, 0) ** 2 * np.where(keep, c.table, 0)).sum()
        assert total - part <= lam ** 2 * trimmed_mass + 1e-12


def test_tmcp_flat(strip_small):
    mu0 = DiscreteMeasure.uniform([(2, 8), (2, 12), (6, 10)])
    rep = tmcp_verify(strip_small, mu0, (38, 10), 0.0, 2.0)
    assert rep["verdict"] == "PASS"
    assert rep["min_margin"] >= -0.05


def test_tmcp_t1_excluded(strip_small):
    mu0 = DiscreteMeasure.dirac((2, 10))
    rep = tmcp_verify(strip_small, mu0, (38, 10), 0.0, 2.0,
                      t_grid=[0.5, 1.0])
    assert 1.0 in rep["excluded"]


def test_tmcp_atom_not_in_past(strip_small):
    mu0 = DiscreteMeasure.uniform([(2, 10), (39, 10)])
    with pytest.raises(AtomNotInPast):
        tmcp_verify(strip_small, mu0, (38, 10), 0.0, 2.0)


# Full verifier reports on strip_small at K = 1, recorded before the TCD and
# TMCP slot loops were merged into one.  A t_grid that holds 1.0 pins the
# t = 1 slot: computed by tcd, excluded by tmcp (Dirac endpoint).
_G = [0.25, 0.5, 1.0]
_TCD_COMMON = {"K": 1.0, "N": 2.0, "p": 0.5, "tol": 0.05, "ell_p": 1.4,
               "excluded": [], "theta_l2": [1.4000000000000001, 1.4],
               "bracket_width": 0.12656875452152955,
               "verdict": "INCONCLUSIVE"}
_TMCP_COMMON = {"K": 1.0, "N": 2.0, "tol": 0.05, "verdict": "PASS",
                "theta_l2": [1.7315601417293702, 1.7339743067185038],
                "bracket_width": 0.12656875452152955}
_PINNED = {
    "tcd-entropic": dict(_TCD_COMMON, flavor="entropic", t_grid=[
        0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875], margins={
        "0.125": [-0.026376404407821463, -0.026376404407821352],
        "0.25": [-0.04551021087889562, -0.04551021087889556],
        "0.375": [-0.05710880667372925, -0.05710880667372925],
        "0.5": [-0.060994814808034814, -0.060994814808034814],
        "0.625": [-0.05710880667372925, -0.05710880667372925],
        "0.75": [-0.04551021087889656, -0.04551021087889645],
        "0.875": [-0.026376404407821408, -0.026376404407821297]},
        min_margin=-0.060994814808034814),
    "tcd-entropic-t1": dict(_TCD_COMMON, flavor="entropic", t_grid=_G, margins={
        "0.25": [-0.04551021087889562, -0.04551021087889556],
        "0.5": [-0.060994814808034814, -0.060994814808034814],
        "1.0": [0.0, 0.0]}, min_margin=-0.060994814808034814),
    "tcd-renyi-t1": dict(_TCD_COMMON, flavor="renyi", t_grid=_G, margins={
        "0.25": [-0.04805370930980696, -0.04805370930980696],
        "0.5": [-0.06414914458453369, -0.06414914458453369],
        "1.0": [0.0, 0.0]}, min_margin=-0.06414914458453369),
    "tmcp": dict(_TMCP_COMMON, excluded=[], t_grid=[
        0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875], margins={
        "0.125": [0.025839580139783436, 0.025767655966192016],
        "0.25": [0.06012953606664995, 0.0600109073962658],
        "0.375": [0.10206821887954964, 0.10192696779484167],
        "0.5": [0.07077572093625303, 0.07063372936763884],
        "0.625": [0.12491456856387495, 0.12479057114674938],
        "0.75": [0.1833196321520603, 0.18322841685286678],
        "0.875": [0.16083339278372688, 0.16078517645545468]},
        min_margin=0.025767655966192016),
    "tmcp-t1": dict(_TMCP_COMMON, excluded=[1.0], t_grid=_G, margins={
        "0.25": [0.06012953606664995, 0.0600109073962658],
        "0.5": [0.07077572093625303, 0.07063372936763884]},
        min_margin=0.0600109073962658),
}


def _assert_same_report(got, want, where="report"):
    """Equal structure and strings; numbers to 1e-12."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for k in want:
            _assert_same_report(got[k], want[k], f"{where}[{k!r}]")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same_report(g, w, f"{where}[{k}]")
    elif isinstance(want, str):
        assert got == want, where
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), where


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_verifier_reports_pinned(strip_small, case):
    want = _PINNED[case]
    kw = {} if want["t_grid"][0] == 0.125 else {"t_grid": want["t_grid"]}
    if case.startswith("tcd"):
        m0 = DiscreteMeasure.uniform([(4, 6), (4, 14), (8, 6), (8, 14)])
        m1 = DiscreteMeasure.uniform([(32, 6), (32, 14), (36, 6), (36, 14)])
        got = tcd_verify(strip_small, m0, m1, 0.5, 1.0, 2.0,
                         flavor=want["flavor"], **kw)
    else:
        mu0 = DiscreteMeasure.uniform([(2, 8), (2, 12), (6, 10)])
        got = tmcp_verify(strip_small, mu0, (38, 10), 1.0, 2.0, **kw)
    _assert_same_report(got, want)


def test_tcd_solves_the_strict_lp_only_with_a_null_pair(strip_small,
                                                        monkeypatch):
    solves = []     # the strict flag of every coupling solve

    def counted(*args, strict):
        solves.append(strict)
        return couple(*args, strict=strict)

    couple = transport._couple
    monkeypatch.setattr(transport, "_couple", counted)
    m0 = DiscreteMeasure.uniform([(4, 6), (4, 14), (8, 6), (8, 14)])
    m1 = DiscreteMeasure.uniform([(32, 6), (32, 14), (36, 6), (36, 14)])
    tcd_verify(strip_small, m0, m1, 0.5, 0.0, 2.0)
    assert solves == [False]
    # (0, 0) -> (20, 20) is null and (0, 0) -> (10, 20) spacelike, so the
    # only coupling sends (0, 0) along the null pair: the cost is positive
    # through (0, 20) -> (10, 20), and the strict LP has no feasible plan
    m0 = DiscreteMeasure.uniform([(0, 0), (0, 20)])
    m1 = DiscreteMeasure.uniform([(20, 20), (10, 20)])
    assert solve_lp(strip_small, m0, m1, 0.5).p_value > 0
    solves.clear()
    with pytest.raises(NotTimelikeDualizable,
                       match="an atom has no admissible partner"):
        tcd_verify(strip_small, m0, m1, 0.5, 0.0, 2.0)
    assert solves == [False, True]


@pytest.mark.parametrize("margins, want", [
    ({0.5: (0.3, -math.inf)}, "INCONCLUSIVE"),
    ({0.5: (math.nan, 0.3)}, "INCONCLUSIVE"),
    ({0.25: (0.3, 0.3), 0.5: (np.float64(-np.inf), np.float64(-np.inf))},
     "FAIL"),
])
def test_margin_report_keeps_infinite_and_nan_margins(strip_small, margins,
                                                      want):
    rep = transport._margin_report(strip_small, margins, 0.05)
    assert rep["verdict"] == want
    assert not rep["min_margin"] >= 0.0


def test_tmcp_without_a_slot_is_inconclusive(strip_small):
    mu0 = DiscreteMeasure.dirac((2, 10))
    rep = tmcp_verify(strip_small, mu0, (38, 10), 0.0, 2.0, t_grid=[1.0])
    assert rep["excluded"] == [1.0] and rep["margins"] == {}
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["min_margin"] == -math.inf


_MARGIN = st.floats(allow_nan=True, allow_infinity=True)
_TOL = st.floats(min_value=0.0, max_value=1e6)
_RANK = {"FAIL": 0, "INCONCLUSIVE": 1, "PASS": 2}


@given(_MARGIN, _MARGIN, _TOL, _TOL)
def test_verdict_is_monotone_in_tol(optimistic, pessimistic, tol_a, tol_b):
    lo, hi = sorted((tol_a, tol_b))
    assert (_RANK[verdict(optimistic, pessimistic, lo)]
            <= _RANK[verdict(optimistic, pessimistic, hi)])


@given(_MARGIN, _MARGIN, _TOL)
def test_verdict_is_sound_at_the_edges(optimistic, pessimistic, tol):
    got = verdict(optimistic, pessimistic, tol)
    if optimistic >= pessimistic >= -tol:
        assert got == "PASS"
    if math.isnan(optimistic) or math.isnan(pessimistic):
        assert got == "INCONCLUSIVE"
    if got == "PASS":
        assert pessimistic >= -tol
    if got == "FAIL":
        assert optimistic < -tol

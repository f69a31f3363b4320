"""Lorentzian optimal transport on cone grids.

Couplings maximize the p-th-power separation cost over the causal pairs of
the supports; pairs with separation -inf are excluded variables, and an
empty feasible set raises NotCausallyCouplable.  Costs use the canonical
(lower) separation table; verifier margins are recomputed against the
upper table so every verdict carries its bracket width.

Every margin-based verdict of the package comes from `verdict`: PASS
when the pessimistic margin clears -tol, FAIL when the optimistic margin
falls below -tol, INCONCLUSIVE otherwise.  The TCD and TMCP verifiers
take as pessimistic margin the least slot margin over both tables, and as
optimistic margin that plus the bracket width (the widest slot spread or
the cone's `bracket_width`, whichever is larger).

A coupling is solved on one of two paths, chosen by the input alone.
When mu0 and mu1 have the same number of atoms and every mass of both is
the same number, some optimal vertex is a permutation (Birkhoff-von
Neumann), so the LP is an assignment problem: scipy's
`linear_sum_assignment` solves it, and `_certify` accepts the matching
only when its residual graph has no negative cycle (Ahuja-Magnanti-Orlin,
Network Flows, 1993, Thm 9.1; Villani 2009, Thm 5.10), each unmatched
arc's cost raised by CERTIFY_TOL * (max |cost| + 1).  `_settles` decides
that by Bellman-Ford relaxation over the arc lists, in numpy passes that
stop at the first pass that lowers no distance (5 on the benchmark's
seed-1 couplings), not after one pass per node.  Every other LP (unequal
masses or atom counts, and the W1 flows of `converge`) is a min-cost flow
posed through `flow_lp` (a coupling is a flow from mu0's atoms to mu1's)
and delegated to scipy's HiGHS solver, which returns an optimal vertex.
Determinism comes from the fixed lexicographic ordering of the support
atoms.  Test oracles (basis enumeration, permutation search) are
implemented independently of both paths.

scipy is imported inside the functions that call it, so a command that
solves no coupling or flow never loads it.  `linprog` stays a name of this
module, a forwarder to scipy's, so that every HiGHS call can be wrapped at
one attribute (`bench/spans.py` times them there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AtomNotInPast, NotCausallyCouplable,
                     NotTimelikeDualizable, ZeroReferenceCell, require_int)
from .kappa import pi_kappa, sin_kappa

MASS_TOL = 1e-12
MARGINAL_TOL = 1e-10
SUPPORT_TOL = 1e-12       # plan entries above this are support pairs
CERTIFY_TOL = 1e-12       # relative slack of the assignment certificate
DENSITY_CAP_RATIO = 1e6   # verifier slices denser than this are excluded
T_GRID = tuple(k / 8 for k in range(1, 8))   # verifier slots t


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure on cone grid cells: atoms (time idx, fiber idx)."""

    points: tuple
    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "points", tuple((int(a), int(b))
                                                 for a, b in self.points))
        if len(self.points) != m.size or m.size == 0:
            raise ValueError("points and masses must align and be nonempty")
        if not np.isfinite(m).all():
            raise ValueError("masses must be finite numbers")
        if m.min() <= 0:
            raise ValueError("masses must be positive")
        if abs(m.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {m.sum()}, not 1")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate atoms")
        m.setflags(write=False)

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        return cls((tuple(point),), np.array([1.0]))

    @classmethod
    def uniform(cls, points) -> "DiscreteMeasure":
        k = len(points)
        return cls(tuple(points), np.full(k, 1.0 / k))

    def to_json(self):
        return [{"t": p[0], "x": p[1], "mass": float(w)}
                for p, w in zip(self.points, self.masses)]

    @classmethod
    def from_json(cls, obj) -> "DiscreteMeasure":
        for e in obj:
            require_int("atom t", e["t"])
            require_int("atom x", e["x"])
        return cls(tuple((e["t"], e["x"]) for e in obj),
                   np.array([float(e["mass"]) for e in obj]))


def _sorted_measure(mu: DiscreteMeasure) -> DiscreteMeasure:
    order = sorted(range(len(mu.points)), key=lambda i: mu.points[i])
    return DiscreteMeasure(tuple(mu.points[i] for i in order), mu.masses[order])


def separation_matrix(cone, mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                      upper: bool = False) -> np.ndarray:
    """Signed separations from the atoms of mu0 (rows) to those of mu1."""
    (t0, x0), (t1, x1) = np.array(mu0.points).T, np.array(mu1.points).T
    return cone.separations((t0[:, None], x0[:, None]), (t1, x1), upper=upper)


def linprog(*args, **kwargs):
    """scipy's `linprog`, imported on the first call."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def flow_lp(tails, heads, cost, supply):
    """HiGHS solution of the min-cost flow min cost . x, x >= 0, over the
    arcs tails[e] -> heads[e], where every node's outflow minus inflow is
    its supply (the supplies sum to zero).  Returns scipy's OptimizeResult;
    callers judge it."""
    from scipy.sparse import coo_matrix
    na = len(tails)
    A = coo_matrix((np.concatenate([np.ones(na), -np.ones(na)]),
                    (np.concatenate([tails, heads]), np.tile(np.arange(na), 2))),
                   shape=(len(supply), na))
    return linprog(cost, A_eq=A, b_eq=supply, bounds=(0, None), method="highs")


@dataclass(frozen=True)
class CausalCoupling:
    mu0: DiscreteMeasure
    mu1: DiscreteMeasure
    table: np.ndarray
    p: float
    p_value: float  # integral of separation^p against the coupling

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        object.__setattr__(self, "table", t)
        if (np.abs(t.sum(axis=1) - self.mu0.masses).max() > MARGINAL_TOL
                or np.abs(t.sum(axis=0) - self.mu1.masses).max() > MARGINAL_TOL):
            raise ValueError("marginals do not match")
        t.setflags(write=False)

    @property
    def ell_p(self) -> float:
        return self.p_value ** (1.0 / self.p)

    def support(self):
        """The (i, j) pairs of mass > SUPPORT_TOL, as Python ints, row
        major."""
        return list(zip(*(a.tolist()
                          for a in np.nonzero(self.table > SUPPORT_TOL))))

    def l2_tau_norm(self, L) -> float:
        """L2 norm, against the plan, of the positive part of the separation
        matrix L between the atoms of mu0 (rows) and mu1 (columns), over
        the support pairs."""
        sup = self.table > SUPPORT_TOL
        vals = np.where(sup, np.maximum(L, 0.0), 0.0)
        return float(np.sqrt((vals ** 2 * self.table).sum()))


def solve_lp(cone, mu0: DiscreteMeasure, mu1: DiscreteMeasure, p: float,
             strict: bool = False) -> CausalCoupling:
    """Maximize the p-th-power separation cost over causal couplings.

    strict=True restricts admissible pairs to strictly timelike ones.
    Raises NotCausallyCouplable when no admissible coupling exists.
    """
    _require_exponent(p)
    mu0, mu1 = _sorted_measure(mu0), _sorted_measure(mu1)
    return _couple(mu0, mu1, separation_matrix(cone, mu0, mu1), p,
                   strict=strict)


def _require_exponent(p: float) -> None:
    """Reject a cost exponent outside (0, 1] before any table is read."""
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")


def _couple(mu0: DiscreteMeasure, mu1: DiscreteMeasure, L: np.ndarray,
            p: float, strict: bool) -> CausalCoupling:
    """`solve_lp` for sorted measures and their lower separations L: by
    certified assignment when both measures have the same atom count and
    every mass equal to mu0's first, by the HiGHS flow LP otherwise."""
    feas = L > 0.0 if strict else L >= 0.0
    if not feas.any(axis=1).all() or not feas.any(axis=0).all():
        raise NotCausallyCouplable("an atom has no admissible partner")
    gain = np.maximum(L, 0.0) ** p
    m = mu0.masses[0]
    if L.shape[0] == L.shape[1] and (mu0.masses == m).all() \
            and (mu1.masses == m).all():
        from scipy.optimize import linear_sum_assignment
        cost = np.where(feas, -gain, np.inf)
        try:
            rows, cols = linear_sum_assignment(cost)
        except ValueError as exc:       # no perfect admissible matching
            raise NotCausallyCouplable(
                "no coupling supported on admissible pairs") from exc
        _certify(cost, cols)
        mass = mu0.masses[rows]
    else:
        rows, cols = np.nonzero(feas)
        # the plan as a flow from mu0's atoms (supply) to mu1's (demand)
        res = flow_lp(rows, cols + len(mu0.points), -gain[rows, cols],
                      np.concatenate([mu0.masses, -mu1.masses]))
        if res.status == 2:
            raise NotCausallyCouplable(
                "no coupling supported on admissible pairs")
        if not res.success:
            raise RuntimeError(f"LP solver failed: {res.message}")
        mass = np.maximum(res.x, 0.0)
    table = np.zeros(L.shape)
    table[rows, cols] = mass
    p_value = float((gain * table).sum())
    return CausalCoupling(mu0=mu0, mu1=mu1, table=table, p=p, p_value=p_value)


def _certify(cost: np.ndarray, match: np.ndarray) -> None:
    """Raise RuntimeError unless the perfect matching r -> match[r]
    minimizes the total of `cost` (+inf off the admissible pairs).

    The matching is optimal exactly when its residual graph has no negative
    cycle (Ahuja-Magnanti-Orlin, Network Flows, 1993, Thm 9.1): row ->
    column arcs on the admissible unmatched pairs at their cost, column ->
    row arcs on the matched pairs at minus theirs.  Each row -> column arc
    is raised by CERTIFY_TOL * (max |cost| + 1), so ties and rounding pass,
    and `_settles` relaxes the graph from a virtual source with a zero arc
    to every row."""
    n = len(match)
    rows = np.arange(n)
    admissible = np.isfinite(cost)
    slack = CERTIFY_TOL * (np.abs(cost[admissible]).max() + 1.0)
    free = admissible.copy()
    free[rows, match] = False
    fr, fc = np.nonzero(free)
    # nodes: rows 0..n-1, columns n..2n-1, the source 2n
    if not _settles(np.concatenate([fr, match + n, np.full(n, 2 * n)]),
                    np.concatenate([fc + n, rows, rows]),
                    np.concatenate([cost[fr, fc] + slack, -cost[rows, match],
                                    np.zeros(n)]),
                    2 * n + 1, 2 * n):
        raise RuntimeError("assignment not optimal: its residual graph has "
                           "a negative cycle")


def _settles(tails, heads, weight, nodes: int, source: int) -> bool:
    """Whether Bellman-Ford relaxation from `source` over the arcs tails[e]
    -> heads[e] of the given weights settles, so that no negative cycle is
    reachable from it.

    Each pass lowers every node's distance to the least of its in-arcs'
    tail distance plus weight, over the distances the pass began with.  A
    graph with no negative cycle settles after at most `nodes` - 1 passes
    (a shortest path has fewer arcs than there are nodes), and the first
    pass that lowers nothing ends the relaxation; one still lowering a
    distance after `nodes` passes has a negative cycle."""
    order = np.argsort(heads, kind="stable")
    tails, heads, weight = tails[order], heads[order], weight[order]
    ends, starts = np.unique(heads, return_index=True)
    dist = np.full(nodes, np.inf)
    dist[source] = 0.0
    for _ in range(nodes):
        best = np.minimum.reduceat(dist[tails] + weight, starts)
        lower = best < dist[ends]
        if not lower.any():
            return True
        dist[ends[lower]] = best[lower]
    return False


def check_cyclical_monotonicity(cone, coupling: CausalCoupling, p: float,
                                cycles: int = 200, seed: int = 0) -> float:
    """Worst slack of the cyclical-monotonicity inequality over sampled
    cycles of support pairs (length 2..5).  Swapping through a non-causal
    pair makes the inequality strict (slack +inf)."""
    sup = coupling.support()
    if len(sup) < 2:
        return 0.0
    L = separation_matrix(cone, coupling.mu0, coupling.mu1)
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(cycles):
        k = int(rng.integers(2, 6))
        idx = rng.choice(len(sup), size=min(k, len(sup)), replace=False)
        chain = [sup[i] for i in idx]
        lhs = sum(L[i, j] ** p for i, j in chain)
        rhs = 0.0
        broken = False
        for a in range(len(chain)):
            i_next = chain[(a + 1) % len(chain)][0]
            j = chain[a][1]
            if L[i_next, j] < 0.0:
                broken = True
                break
            rhs += L[i_next, j] ** p
        slack = math.inf if broken else lhs - rhs
        worst = min(worst, slack)
    return worst


@dataclass(frozen=True)
class DynamicalPlan:
    """Mass-weighted maximizing grid paths; slices push mass to time t."""

    cone: object
    geodesics: tuple
    masses: np.ndarray
    endpoints: tuple

    def slice_at(self, t: float) -> DiscreteMeasure:
        acc = {}
        for geo, mass, (pa, qa) in zip(self.geodesics, self.masses, self.endpoints):
            tidx, rho = geo.state_at(t)
            z = self._snap_fiber(pa, qa, rho)
            key = (tidx, z)
            acc[key] = acc.get(key, 0.0) + mass
        pts = sorted(acc)
        masses = np.array([acc[k] for k in pts])
        return DiscreteMeasure(tuple(pts), masses / masses.sum())

    def _snap_fiber(self, pa, qa, rho: float) -> int:
        d = self.cone.X.dist
        x, y = pa[1], qa[1]
        total = d[x, y]
        miss = np.abs(d[x, :] - rho) + np.abs(d[:, y] - max(total - rho, 0.0))
        return int(np.argmin(miss))


def build_dynamical_plan(cone, coupling: CausalCoupling) -> DynamicalPlan:
    """One maximizer per support pair of the coupling, all from one batched
    backtrace; a pair that is not causally related raises
    NotCausallyRelated."""
    sup = coupling.support()
    ends = tuple((coupling.mu0.points[i], coupling.mu1.points[j])
                 for i, j in sup)
    P, Q = (np.array(points).T for points in zip(*ends))
    masses = np.array([coupling.table[i, j] for i, j in sup])
    return DynamicalPlan(cone=cone, geodesics=tuple(cone.maximizers(P, Q)),
                         masses=masses, endpoints=ends)


# -- entropies ---------------------------------------------------------------


def _atom_weights(measure: DiscreteMeasure, cone) -> np.ndarray:
    """The cone's reference cell weight at each atom of the measure."""
    t, x = np.array(measure.points).T
    return cone.reference_measure()[t, x]


def entropy(measure: DiscreteMeasure, cone, kind: str, N: float | None = None) -> float:
    """Entropy functionals against the cone's reference cell weights.

    kind: 'renyi' (S_N), 'boltzmann' (Ent), or 'U' (U_N = exp(-Ent/N))."""
    weights = _atom_weights(measure, cone)
    if kind == "renyi":
        if N is None or N < 1:
            raise ValueError("renyi entropy needs N >= 1")
        if (weights <= 0).any():
            raise ZeroReferenceCell("atom on a zero-weight cell")
        return float(-(measure.masses ** (1.0 - 1.0 / N) * weights ** (1.0 / N)).sum())
    if kind == "boltzmann":
        if (weights <= 0).any():
            return math.inf
        return float((measure.masses * np.log(measure.masses / weights)).sum())
    if kind == "U":
        if N is None or N <= 0:
            raise ValueError("U functional needs N > 0")
        ent = entropy(measure, cone, "boltzmann")
        return 0.0 if ent == math.inf else float(math.exp(-ent / N))
    raise ValueError(f"unknown entropy kind {kind!r}")


# -- distortion coefficients ---------------------------------------------------


def distortion(K: float, N: float, t: float, theta: float,
               modified: bool = False) -> float:
    """sigma (default) or the modified tau coefficient, as extended reals."""
    if not (0.0 <= t <= 1.0) or theta < 0.0:
        raise ValueError("need t in [0,1] and theta >= 0")
    if not modified:
        if theta == 0.0:
            return t
        kappa = K / N
        if theta >= pi_kappa(kappa):
            return math.inf
        return float(sin_kappa(kappa, t * theta) / sin_kappa(kappa, theta))
    if N < 1:
        raise ValueError("modified coefficient needs N >= 1")
    if K > 0 and N == 1:
        return theta * math.inf if theta > 0 else 0.0
    if N == 1:
        return t
    s = distortion(K, N - 1.0, t, theta, modified=False)
    if s == math.inf:
        return math.inf
    return float(t ** (1.0 / N) * s ** (1.0 - 1.0 / N))


# -- curvature-dimension verifiers -----------------------------------------------


def verdict(optimistic: float, pessimistic: float, tol: float) -> str:
    """The one verdict rule: PASS when the pessimistic margin clears -tol,
    otherwise FAIL when the optimistic margin falls below -tol, otherwise
    INCONCLUSIVE.  Infinite margins compare as numbers; a NaN margin reads
    INCONCLUSIVE."""
    if math.isnan(optimistic) or math.isnan(pessimistic):
        return "INCONCLUSIVE"
    if pessimistic >= -tol:
        return "PASS"
    if optimistic < -tol:
        return "FAIL"
    return "INCONCLUSIVE"


def _margin_report(cone, margins: dict, tol: float) -> dict:
    """The report tail of per-slot (lower, upper) margins.  The pessimistic
    margin, reported as min_margin, is the least margin of all (NaN if one
    is NaN, -inf with no slot).  bracket_width is the larger of the widest
    slot spread and the cone's, and the optimistic margin is min_margin
    plus it; when min_margin is not finite, the optimistic margin is
    instead the least of the per-slot larger margins (+inf with no slot).

    The cone's width reads every row of both tables, so its callers read
    the whole tables first (`cone.tables()`), each in one kernel call,
    rather than a few rows and the rest later."""
    vals = np.array(list(margins.values()), dtype=float).reshape(-1, 2)
    spread = [0.0 if a == b else abs(a - b) for a, b in vals.tolist()]
    bracket = max([cone.bracket_width()] + spread)
    if not vals.size:
        pessimistic, optimistic = -math.inf, math.inf
    else:
        pessimistic = float(vals.min())
        optimistic = (pessimistic + bracket if math.isfinite(pessimistic)
                      else float(vals.max(axis=1).min()))
    return {"margins": {str(t): list(v) for t, v in margins.items()},
            "min_margin": pessimistic, "bracket_width": bracket,
            "verdict": verdict(optimistic, pessimistic, tol)}


def _density_excluded(measure: DiscreteMeasure, cone,
                      baseline: DiscreteMeasure) -> bool:
    """Whether some atom's density exceeds DENSITY_CAP_RATIO times the
    baseline's median density."""
    def dens(mu):       # +inf on zero-weight cells
        w = _atom_weights(mu, cone)
        return np.divide(mu.masses, w, out=np.full(w.shape, math.inf),
                         where=w > 0)

    base = np.median(dens(baseline))
    return bool((dens(measure) > DENSITY_CAP_RATIO * base).any())


def _slot_report(cone, coupling: CausalCoupling, L_lo, L_hi, t_grid,
                 tol: float, margin) -> dict:
    """The report of margins along the dynamical plan of `coupling`, one
    slot per t in t_grid: margin(mu_t, t, L, theta) with the lower (L_lo,
    theta_lo) and the upper (L_hi, theta_hi) separations and their L2 tau
    norms.  A slot is excluded when its slice is denser than the density
    cap allows or when the margin is None."""
    plan = build_dynamical_plan(cone, coupling)
    theta = [coupling.l2_tau_norm(L_lo), coupling.l2_tau_norm(L_hi)]
    margins, excluded = {}, []
    for t in t_grid:
        mu_t = plan.slice_at(t)
        m_lo = (None if _density_excluded(mu_t, cone, coupling.mu0)
                else margin(mu_t, t, L_lo, theta[0]))
        if m_lo is None:
            excluded.append(t)
            continue
        margins[t] = (m_lo, margin(mu_t, t, L_hi, theta[1]))
    return {"tol": tol, "t_grid": list(t_grid), "excluded": excluded,
            "theta_l2": theta, **_margin_report(cone, margins, tol)}


def tcd_verify(cone, mu0: DiscreteMeasure, mu1: DiscreteMeasure, p: float,
               K: float, N: float, flavor: str = "entropic",
               t_grid=T_GRID, tol: float = 0.05) -> dict:
    """Margin report for the entropic or Renyi timelike curvature-dimension
    inequality along an optimal plan.  Margins are recomputed with the
    upper separations so the verdict can distinguish FAIL from bracket
    noise (INCONCLUSIVE).  The strictly timelike LP is solved only when
    some admissible pair is null."""
    if flavor not in ("entropic", "renyi"):
        raise ValueError("flavor must be 'entropic' or 'renyi'")
    _require_exponent(p)
    cone.tables()     # one kernel call per table; see `_margin_report`
    mu0, mu1 = _sorted_measure(mu0), _sorted_measure(mu1)   # the plan's rows
    L_lo = separation_matrix(cone, mu0, mu1)
    coupling = _couple(mu0, mu1, L_lo, p, strict=False)
    if coupling.p_value <= 0:
        raise NotTimelikeDualizable("optimal cost vanishes")
    # without a null pair the strictly timelike pairs are the admissible
    # ones, and the strict LP is the same LP
    strict = coupling
    if (L_lo == 0.0).any():
        try:
            strict = _couple(mu0, mu1, L_lo, p, strict=True)
        except NotCausallyCouplable as exc:
            raise NotTimelikeDualizable(str(exc)) from exc
    if strict.p_value < coupling.p_value - 1e-9 * (1 + coupling.p_value):
        raise NotTimelikeDualizable(
            "no optimal coupling concentrated on strictly timelike pairs")

    def entropic_margin(mu_t, t, L, theta):
        s0 = distortion(K, N, 1.0 - t, theta)
        s1 = distortion(K, N, t, theta)
        rhs = s0 * entropy(mu0, cone, "U", N) + s1 * entropy(mu1, cone, "U", N)
        return entropy(mu_t, cone, "U", N) - rhs

    def renyi_margin(mu_t, t, L, theta):
        w0, w1 = _atom_weights(mu0, cone), _atom_weights(mu1, cone)
        if (w0 <= 0).any() or (w1 <= 0).any():
            raise ZeroReferenceCell("marginal atom on a zero-weight cell")
        rho0, rho1 = mu0.masses / w0, mu1.masses / w1
        bound = 0.0
        for i, j in strict.support():
            th = max(L[i, j], 0.0)
            c0 = distortion(K, N, 1.0 - t, th, modified=True)
            c1 = distortion(K, N, t, th, modified=True)
            if c0 == math.inf or c1 == math.inf:
                return -math.inf
            bound -= strict.table[i, j] * (
                c0 * rho0[i] ** (-1.0 / N) + c1 * rho1[j] ** (-1.0 / N))
        return bound - entropy(mu_t, cone, "renyi", N)

    margin = entropic_margin if flavor == "entropic" else renyi_margin
    return {"flavor": flavor, "K": K, "N": N, "p": p, "ell_p": strict.ell_p,
            **_slot_report(cone, strict, L_lo,
                           separation_matrix(cone, mu0, mu1, upper=True),
                           t_grid, tol, margin)}


def tmcp_verify(cone, mu0: DiscreteMeasure, x1, K: float, N: float,
                t_grid=T_GRID, tol: float = 0.05) -> dict:
    """Entropic measure-contraction margins toward the Dirac at x1.

    The only admissible coupling is the product mu0 x delta_{x1}.  The t=1
    slot is always excluded (Dirac endpoint, density blow-up)."""
    cone.tables()     # one kernel call per table; see `_margin_report`
    mu1 = DiscreteMeasure.dirac(x1)
    L_lo = separation_matrix(cone, mu0, mu1)
    bad = [q for q, tau in zip(mu0.points, L_lo[:, 0]) if tau <= 0.0]
    if bad:
        raise AtomNotInPast(f"atoms not strictly before x1: {bad}")
    L_hi = separation_matrix(cone, mu0, mu1, upper=True)
    # the plan reads only support and masses; the cost fields hold p = 1
    coupling = CausalCoupling(mu0=mu0, mu1=mu1, table=mu0.masses[:, None],
                              p=1.0, p_value=float(L_lo[:, 0] @ mu0.masses))
    u0 = entropy(mu0, cone, "U", N)

    def margin(mu_t, t, L, theta):
        if t >= 1.0:
            return None
        return entropy(mu_t, cone, "U", N) - distortion(K, N, 1.0 - t, theta) * u0

    return {"K": K, "N": N,
            **_slot_report(cone, coupling, L_lo, L_hi, t_grid, tol, margin)}

"""Lorentzian optimal transport on cone grids.

Couplings maximize the p-th-power separation cost over the causal pairs of
the supports; pairs with separation -inf are excluded variables, and an
empty feasible set raises NotCausallyCouplable.  Costs use the canonical
(lower) separation table; verifier margins are recomputed against the
upper table so every verdict carries its bracket width.

The LP itself is delegated to scipy's HiGHS solver, which returns an
optimal vertex; determinism comes from the fixed lexicographic ordering of
the support atoms.  Test oracles (basis enumeration, permutation search)
are implemented independently of this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from .errors import (AtomNotInPast, NotCausallyCouplable,
                     NotTimelikeDualizable, ZeroReferenceCell)
from .kappa import pi_kappa, sin_kappa

MASS_TOL = 1e-12
MARGINAL_TOL = 1e-10
DENSITY_CAP_RATIO = 1e6   # verifier slices denser than this are excluded


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
        pts = [(int(e["t"]), int(e["x"])) for e in obj]
        return cls(tuple(pts), np.array([float(e["mass"]) for e in obj]))


def _sorted_measure(mu: DiscreteMeasure) -> DiscreteMeasure:
    order = sorted(range(len(mu.points)), key=lambda i: mu.points[i])
    return DiscreteMeasure(tuple(mu.points[i] for i in order), mu.masses[order])


def separation_matrix(cone, mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                      upper: bool = False) -> np.ndarray:
    """Signed separations from the atoms of mu0 (rows) to those of mu1."""
    (t0, x0), (t1, x1) = np.array(mu0.points).T, np.array(mu1.points).T
    return cone.separations((t0[:, None], x0[:, None]), (t1, x1), upper=upper)


def transport_lp(cost, ii, jj, a, b):
    """HiGHS solution of min cost . x, x >= 0, over the plan entries
    (ii, jj) of a len(a) x len(b) transport plan with row sums a and
    column sums b.  Returns scipy's OptimizeResult; callers judge it."""
    n0, nv = len(a), len(ii)
    rows = np.concatenate([ii, jj + n0])
    cols = np.concatenate([np.arange(nv), np.arange(nv)])
    A = coo_matrix((np.ones(2 * nv), (rows, cols)), shape=(n0 + len(b), nv))
    return linprog(cost, A_eq=A, b_eq=np.concatenate([a, b]), bounds=(0, None),
                   method="highs")


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
        return [(i, j) for i in range(self.table.shape[0])
                for j in range(self.table.shape[1]) if self.table[i, j] > 1e-12]

    def l2_tau_norm(self, L) -> float:
        """L2 norm, against the plan, of the positive part of the separation
        matrix L between the atoms of mu0 (rows) and mu1 (columns)."""
        sup = self.table > 1e-15
        vals = np.where(sup, np.maximum(L, 0.0), 0.0)
        return float(np.sqrt((vals ** 2 * self.table).sum()))


def solve_lp(cone, mu0: DiscreteMeasure, mu1: DiscreteMeasure, p: float,
             strict: bool = False) -> CausalCoupling:
    """Maximize the p-th-power separation cost over causal couplings.

    strict=True restricts admissible pairs to strictly timelike ones.
    Raises NotCausallyCouplable when no admissible coupling exists.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")
    mu0, mu1 = _sorted_measure(mu0), _sorted_measure(mu1)
    L = separation_matrix(cone, mu0, mu1)
    feas = L > 0.0 if strict else L >= 0.0
    if not feas.any(axis=1).all() or not feas.any(axis=0).all():
        raise NotCausallyCouplable("an atom has no admissible partner")
    ii, jj = np.nonzero(feas)
    cost = -(np.maximum(L[ii, jj], 0.0) ** p)
    res = transport_lp(cost, ii, jj, mu0.masses, mu1.masses)
    if res.status == 2:
        raise NotCausallyCouplable("no coupling supported on admissible pairs")
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    table = np.zeros(L.shape)
    table[ii, jj] = np.maximum(res.x, 0.0)
    p_value = float((np.maximum(L, 0.0) ** p * np.where(feas, table, 0.0)).sum())
    return CausalCoupling(mu0=mu0, mu1=mu1, table=table, p=p, p_value=p_value)


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
    """One maximizer per support pair of the coupling; a pair that is not
    causally related raises NotCausallyRelated."""
    geos, masses, ends = [], [], []
    for i, j in coupling.support():
        pa, qa = coupling.mu0.points[i], coupling.mu1.points[j]
        geos.append(cone.maximizer(pa, qa))
        masses.append(coupling.table[i, j])
        ends.append((pa, qa))
    return DynamicalPlan(cone=cone, geodesics=tuple(geos),
                         masses=np.array(masses), endpoints=tuple(ends))


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


def _verdict(min_margin: float, tol: float, bracket: float) -> str:
    if min_margin >= -tol:
        return "PASS"
    if min_margin >= -(tol + bracket):
        return "INCONCLUSIVE"
    return "FAIL"


def _margin_report(cone, margins: dict, tol: float) -> dict:
    """The report tail of per-slot (lower, upper) margins: their finite
    minimum, the bracket width and the verdict."""
    finite = [v for pair in margins.values() for v in pair if math.isfinite(v)]
    min_margin = min(finite) if finite else -math.inf
    bracket = max(abs(a - b) for a, b in margins.values()) if margins else 0.0
    bracket = max(bracket, cone.bracket_width())
    return {"margins": {str(t): list(v) for t, v in margins.items()},
            "min_margin": min_margin, "bracket_width": bracket,
            "verdict": _verdict(min_margin, tol, bracket)}


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


def tcd_verify(cone, mu0: DiscreteMeasure, mu1: DiscreteMeasure, p: float,
               K: float, N: float, flavor: str = "entropic",
               t_grid=None, tol: float = 0.05) -> dict:
    """Margin report for the entropic or Renyi timelike curvature-dimension
    inequality along an optimal plan.  Margins are recomputed with the
    upper separations so the verdict can distinguish FAIL from bracket
    noise (INCONCLUSIVE)."""
    if flavor not in ("entropic", "renyi"):
        raise ValueError("flavor must be 'entropic' or 'renyi'")
    if t_grid is None:
        t_grid = [k / 8 for k in range(1, 8)]
    coupling = solve_lp(cone, mu0, mu1, p)
    if coupling.p_value <= 0:
        raise NotTimelikeDualizable("optimal cost vanishes")
    try:
        strict_coupling = solve_lp(cone, mu0, mu1, p, strict=True)
    except NotCausallyCouplable as exc:
        raise NotTimelikeDualizable(str(exc)) from exc
    if strict_coupling.p_value < coupling.p_value - 1e-9 * (1 + coupling.p_value):
        raise NotTimelikeDualizable(
            "no optimal coupling concentrated on strictly timelike pairs")
    plan = build_dynamical_plan(cone, strict_coupling)
    L_lo = separation_matrix(cone, strict_coupling.mu0, strict_coupling.mu1)
    L_hi = separation_matrix(cone, strict_coupling.mu0, strict_coupling.mu1, upper=True)
    theta_lo = strict_coupling.l2_tau_norm(L_lo)
    theta_hi = strict_coupling.l2_tau_norm(L_hi)
    margins = {}
    excluded = []

    def entropic_margin(mu_t, t, theta):
        s0 = distortion(K, N, 1.0 - t, theta)
        s1 = distortion(K, N, t, theta)
        rhs = s0 * entropy(strict_coupling.mu0, cone, "U", N) \
            + s1 * entropy(strict_coupling.mu1, cone, "U", N)
        return entropy(mu_t, cone, "U", N) - rhs

    def renyi_margin(mu_t, t, L):
        w0 = _atom_weights(strict_coupling.mu0, cone)
        w1 = _atom_weights(strict_coupling.mu1, cone)
        if (w0 <= 0).any() or (w1 <= 0).any():
            raise ZeroReferenceCell("marginal atom on a zero-weight cell")
        rho0 = strict_coupling.mu0.masses / w0
        rho1 = strict_coupling.mu1.masses / w1
        bound = 0.0
        for i, j in strict_coupling.support():
            th = max(L[i, j], 0.0)
            c0 = distortion(K, N, 1.0 - t, th, modified=True)
            c1 = distortion(K, N, t, th, modified=True)
            if c0 == math.inf or c1 == math.inf:
                return -math.inf
            bound -= strict_coupling.table[i, j] * (
                c0 * rho0[i] ** (-1.0 / N) + c1 * rho1[j] ** (-1.0 / N))
        return bound - entropy(mu_t, cone, "renyi", N)

    for t in t_grid:
        mu_t = plan.slice_at(t)
        if _density_excluded(mu_t, cone, strict_coupling.mu0):
            excluded.append(t)
            continue
        if flavor == "entropic":
            m_lo = entropic_margin(mu_t, t, theta_lo)
            m_hi = entropic_margin(mu_t, t, theta_hi)
        else:
            m_lo = renyi_margin(mu_t, t, L_lo)
            m_hi = renyi_margin(mu_t, t, L_hi)
        margins[t] = (m_lo, m_hi)
    return {
        "flavor": flavor, "K": K, "N": N, "p": p, "tol": tol,
        "t_grid": list(t_grid), "excluded": excluded,
        "ell_p": strict_coupling.ell_p,
        "theta_l2": [theta_lo, theta_hi],
        **_margin_report(cone, margins, tol),
    }


def tmcp_verify(cone, mu0: DiscreteMeasure, x1, K: float, N: float,
                t_grid=None, tol: float = 0.05) -> dict:
    """Entropic measure-contraction margins toward the Dirac at x1.

    The only admissible coupling is the product mu0 x delta_{x1}.  The t=1
    slot is always excluded (Dirac endpoint, density blow-up)."""
    x1 = (int(x1[0]), int(x1[1]))
    atoms = tuple(np.array(mu0.points).T)
    taus_lo = cone.separations(atoms, x1)
    bad = [q for q, tau in zip(mu0.points, taus_lo) if tau <= 0.0]
    if bad:
        raise AtomNotInPast(f"atoms not strictly before x1: {bad}")
    taus_hi = cone.separations(atoms, x1, upper=True)
    if t_grid is None:
        t_grid = [k / 8 for k in range(1, 8)]
    mu1 = DiscreteMeasure.dirac(x1)
    table = mu0.masses[:, None].copy()
    # the plan reads only support and masses; the cost fields hold p = 1
    coupling = CausalCoupling(mu0=mu0, mu1=mu1, table=table, p=1.0,
                              p_value=float((taus_lo * mu0.masses).sum()))
    plan = build_dynamical_plan(cone, coupling)
    theta_lo = float(np.sqrt((taus_lo ** 2 * mu0.masses).sum()))
    theta_hi = float(np.sqrt((taus_hi ** 2 * mu0.masses).sum()))
    u0 = entropy(mu0, cone, "U", N)
    margins, excluded = {}, []
    for t in t_grid:
        if t >= 1.0:
            excluded.append(t)
            continue
        mu_t = plan.slice_at(t)
        if _density_excluded(mu_t, cone, mu0):
            excluded.append(t)
            continue
        m_lo = entropy(mu_t, cone, "U", N) - distortion(K, N, 1.0 - t, theta_lo) * u0
        m_hi = entropy(mu_t, cone, "U", N) - distortion(K, N, 1.0 - t, theta_hi) * u0
        margins[t] = (m_lo, m_hi)
    return {
        "K": K, "N": N, "tol": tol, "t_grid": list(t_grid),
        "excluded": excluded, "theta_l2": [theta_lo, theta_hi],
        **_margin_report(cone, margins, tol),
    }

"""Finite metric spaces, correspondences, and Gromov-Hausdorff brackets.

A fiber space is handled as an explicit distance table with a distinguished
base point.  Exact GH distance is a branch-and-bound search over
correspondences generated by map pairs (phi: A->B, psi: B->A); every
correspondence contains such a sub-correspondence of no larger distortion,
so the restricted minimum equals the true minimum.

Everything here treats finite samples; where the source theory asks for a
geodesic metric space the finite-sample stand-in is the artifact's own
discretization choice.

scipy is imported inside the functions that call it, so a command that
reads no essential edges never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeLimit, require_int

METRIC_TOL = 1e-9
SPLIT_ULPS = 8      # relative slack, in ulps, of an essential-edge split test


@dataclass(frozen=True)
class FiniteMetricSpace:
    dist: np.ndarray
    base: int = 0

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "dist", d)
        n = d.shape[0]
        if d.shape != (n, n):
            raise ValueError("distance table must be square")
        if not np.isfinite(d).all():
            raise ValueError("distances must be finite numbers")
        if not (0 <= self.base < n):
            raise ValueError("base index out of range")
        if np.abs(d - d.T).max(initial=0.0) > METRIC_TOL:
            raise ValueError("distance table not symmetric")
        if np.abs(np.diag(d)).max(initial=0.0) > METRIC_TOL:
            raise ValueError("nonzero diagonal")
        off = d + np.eye(n) * (1.0 + d.max(initial=0.0))
        if n > 1 and off.min() <= 0.0:
            raise ValueError("distinct points at distance <= 0")
        # triangle inequality, checked in full for moderate sizes, one row
        # i at a time: min_j d[i, j] + d[j, k] against d[i, k]
        if n <= 400:
            for row in d:
                if (row - (row[:, None] + d).min(axis=0)).max() > METRIC_TOL:
                    raise ValueError("triangle inequality violated")
        d.setflags(write=False)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def diam(self) -> float:
        return float(self.dist.max(initial=0.0))

    def essential_edges(self):
        """The pairs (a, c), a < c, that no third point b splits, i.e. with
        d(a, b) + d(b, c) > d(a, c) beyond a few-ulp relative slack, as two
        index arrays.  Their shortest-path metric is d; that is checked to
        1e-12 (1 + diam), and a table that fails it raises ValueError."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path
        d, n = self.dist, self.n
        slack = 1.0 + SPLIT_ULPS * np.finfo(float).eps
        tails, heads = [], []
        for a in range(n):
            # split[b, c]: b lies on a shortest way from a to c
            split = d[a][:, None] + d <= d[a] * slack
            split[a] = False
            np.fill_diagonal(split, False)
            c = np.flatnonzero(~split[:, a + 1:].any(axis=0)) + a + 1
            tails.append(np.full(c.size, a))
            heads.append(c)
        tails, heads = np.concatenate(tails), np.concatenate(heads)
        graph = csr_matrix((d[tails, heads], (tails, heads)), shape=(n, n))
        err = np.abs(shortest_path(graph, directed=False) - d).max(initial=0.0)
        if not err <= 1e-12 * (1.0 + self.diam):
            raise ValueError(f"shortest paths over the essential edges miss "
                             f"the distance table by {err:.3g}: not a "
                             f"metric to working precision")
        return tails, heads

    def separation(self) -> float:
        """Smallest positive distance (inf for a single point)."""
        if self.n < 2:
            return math.inf
        d = np.where(np.eye(self.n, dtype=bool), math.inf, self.dist)
        return float(d.min())

    def to_json(self) -> dict:
        return {"n": self.n, "base": self.base,
                "dist": [float(v) for v in self.dist.ravel()]}

    @classmethod
    def from_json(cls, obj) -> "FiniteMetricSpace":
        n, base = obj["n"], obj.get("base", 0)
        require_int("fiber n", n, 1)
        require_int("fiber base", base, 0)
        d = np.asarray(obj["dist"], dtype=float).reshape(n, n)
        return cls(d, base)


def segment(length: float, n: int, base: int = 0) -> FiniteMetricSpace:
    """n evenly spaced points on a segment of the given length."""
    ts = np.linspace(0.0, length, n)
    return FiniteMetricSpace(np.abs(ts[:, None] - ts[None, :]), base)


def circle_arc(radius: float, angle: float, n: int, base: int = 0) -> FiniteMetricSpace:
    """n points on a circular arc with the intrinsic (arc-length) metric."""
    phis = np.linspace(0.0, angle, n)
    d = radius * np.abs(phis[:, None] - phis[None, :])
    return FiniteMetricSpace(d, base)


def single_point() -> FiniteMetricSpace:
    return FiniteMetricSpace(np.zeros((1, 1)), 0)


@dataclass(frozen=True)
class Correspondence:
    """Relation between the index sets of two spaces, surjective both ways."""

    pairs: tuple
    distortion: float = field(default=math.nan)

    @staticmethod
    def build(A: FiniteMetricSpace, B: FiniteMetricSpace, pairs) -> "Correspondence":
        pairs = tuple(sorted(set((int(i), int(j)) for i, j in pairs)))
        ia = {i for i, _ in pairs}
        ib = {j for _, j in pairs}
        if ia != set(range(A.n)) or ib != set(range(B.n)):
            raise ValueError("correspondence not surjective both ways")
        idx = np.array(pairs)
        da = A.dist[idx[:, 0][:, None], idx[:, 0][None, :]]
        db = B.dist[idx[:, 1][:, None], idx[:, 1][None, :]]
        return Correspondence(pairs, float(np.abs(da - db).max()))


def ball_subspace(X: FiniteMetricSpace, radius: float) -> FiniteMetricSpace:
    """Restriction to the closed ball of the given radius around the base."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    keep = ball_indices(X, radius)
    return FiniteMetricSpace(X.dist[np.ix_(keep, keep)],
                             int(np.flatnonzero(keep == X.base)[0]))


def ball_indices(X: FiniteMetricSpace, radius: float) -> np.ndarray:
    """Indices of the closed ball of the given radius around the base."""
    return np.flatnonzero(X.dist[X.base] <= radius + METRIC_TOL)


def _greedy_witness(A: FiniteMetricSpace, B: FiniteMetricSpace):
    """Best of two cheap witnesses: base-anchored distance matching and
    (for order-isomorphic samples like segments) affine index matching."""
    ra, rb = A.dist[A.base], B.dist[B.base]
    phi = [int(np.argmin(np.abs(rb - ra[i]))) for i in range(A.n)]
    psi = [int(np.argmin(np.abs(ra - rb[j]))) for j in range(B.n)]
    phi[A.base], psi[B.base] = B.base, A.base
    pairs = [(i, phi[i]) for i in range(A.n)] + [(psi[j], j) for j in range(B.n)]
    best = Correspondence.build(A, B, pairs)
    ia = np.argsort(ra, kind="stable")
    ib = np.argsort(rb, kind="stable")
    afn = [(int(ia[i]), int(ib[round(i * (B.n - 1) / max(A.n - 1, 1))]))
           for i in range(A.n)]
    afn += [(int(ia[round(j * (A.n - 1) / max(B.n - 1, 1))]), int(ib[j]))
            for j in range(B.n)]
    cand = Correspondence.build(A, B, afn)
    return cand if cand.distortion < best.distortion else best


def _feasible_assignment(diff_pp, v: float):
    """Forward-checking search for map pairs (phi, psi) with distortion <= v.

    Variables are the phi rows (domains over B) followed by the psi rows
    (domains over A); domains are bitmasks, most-constrained-first order.
    diff_pp[a, a', b, b'] = |da[a, a'] - db[b, b']| holds every constraint:
    phi-phi, phi-psi and, read as [a, a', k, l], the psi-psi ones.
    Returns (phi, psi) or None."""
    na, nb = diff_pp.shape[0], diff_pp.shape[2]
    nv = na + nb
    # pairwise compatibility masks: allowed[u][val][w] = bitmask for w,
    # the bits weighted by 1 << (value of w)
    ok = diff_pp <= v
    wa, wb = 1 << np.arange(na), 1 << np.arange(nb)
    allowed = np.zeros((nv, max(na, nb), nv), dtype=np.int64)
    allowed[:na, :nb, :na] = np.einsum("ijbc,c->ibj", ok, wb)   # phi i=b, phi j
    allowed[:na, :nb, na:] = np.einsum("iabl,a->ibl", ok, wa)   # phi i=b, psi l
    allowed[na:, :na, na:] = np.einsum("ackl,c->kal", ok, wa)   # psi k=a, psi l
    allowed[na:, :na, :na] = np.einsum("jabk,b->kaj", ok, wb)   # psi k=a, phi j
    allowed = allowed.tolist()    # Python ints: the search's bit tricks

    full = [(1 << nb) - 1] * na + [(1 << na) - 1] * nb
    assign = [-1] * nv

    def search(domains, todo):
        if not todo:
            return True
        u = min(todo, key=lambda w: bin(domains[w]).count("1"))
        dom = domains[u]
        rest = [w for w in todo if w != u]
        while dom:
            val = (dom & -dom).bit_length() - 1
            dom &= dom - 1
            nd = list(domains)
            nd[u] = 1 << val
            dead = False
            for w in rest:
                nd[w] &= allowed[u][val][w]
                if nd[w] == 0:
                    dead = True
                    break
            if not dead:
                assign[u] = val
                if search(nd, rest):
                    return True
        return False

    if search(full, list(range(nv))):
        return assign[:na], assign[na:]
    return None


def _exact_search(A: FiniteMetricSpace, B: FiniteMetricSpace,
                  witness: Correspondence):
    """Pairs of a correspondence of minimal distortion, via binary search
    over the finite candidate set {|d_A - d_B|} up to the witness's
    distortion, with a feasibility CSP per value.  The witness's distortion
    is itself a candidate (the same float operation gives both), so the
    search accepts at least that value."""
    diff_pp = np.abs(A.dist[:, :, None, None] - B.dist[None, None, :, :])
    values = np.unique(diff_pp)
    values = values[values <= witness.distortion]
    lo_i, hi_i = 0, len(values) - 1
    best = None
    while lo_i <= hi_i:
        mid = (lo_i + hi_i) // 2
        got = _feasible_assignment(diff_pp, float(values[mid]))
        if got is not None:
            best = got
            hi_i = mid - 1
        else:
            lo_i = mid + 1
    if best is None:
        return witness.pairs
    phi, psi = best
    return [(i, int(phi[i])) for i in range(A.n)] + \
        [(int(psi[j]), j) for j in range(B.n)]


def _heuristic_lower(A: FiniteMetricSpace, B: FiniteMetricSpace) -> float:
    """Certified lower bounds: diameter gap, and pigeonhole separation when
    the larger space cannot inject into the smaller one."""
    lb = 0.5 * abs(A.diam - B.diam)
    if A.n > B.n:
        lb = max(lb, 0.5 * A.separation())
    if B.n > A.n:
        lb = max(lb, 0.5 * B.separation())
    return lb


def gh_distance(A: FiniteMetricSpace, B: FiniteMetricSpace, mode: str = "heuristic"):
    """Bracket (lower, upper, witness) for the Gromov-Hausdorff distance.

    mode="exact" returns lower == upper == half the minimal correspondence
    distortion; the search is exponential, hence the n <= 8 cap.
    """
    if mode not in ("exact", "heuristic"):
        raise ValueError("mode must be 'exact' or 'heuristic'")
    witness = _greedy_witness(A, B)
    upper = 0.5 * witness.distortion
    if mode == "heuristic":
        lower = min(_heuristic_lower(A, B), upper)
        return lower, upper, witness
    if max(A.n, B.n) > 8:
        raise SizeLimit(f"exact GH search capped at 8 points, got {max(A.n, B.n)}")
    witness = Correspondence.build(A, B, _exact_search(A, B, witness))
    val = 0.5 * witness.distortion
    return val, val, witness

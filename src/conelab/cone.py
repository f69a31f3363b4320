"""Warped-product Lorentzian cones on a grid, with certified bracket tables.

The signed time separation of a cone built from an interval, a warping f
and a fiber metric space depends on fiber points only through their
distance, so the whole causal structure is stored as a pair of 3-argument
tables lo/hi(s_idx, t_idx, r_idx) over a uniform distance grid.

The lower table is a longest-path value over a layered DAG: states are
(time index, fiber distance travelled), edges span at most `window` time
steps and any number of distance cells, weighted sqrt(dt^2 - (C dr)^2)
with C the interval max of f.  Each DP path is a genuine causal curve of
the cone whose true length dominates the path value (the interval max
shrinks the causal cone), so lo <= tau everywhere; the path family is
closed under concatenation, so the reverse triangle inequality is exact on
the grid.  The upper table is the Lagrange-dual envelope for the step-min
warping g <= f (whose separation dominates tau by warping monotonicity):
tau_g(i,j,r) = inf_mu [Phi_ij(mu) - mu r] with Phi prefix-summable over
time steps, evaluated on a finite mu-grid; the reverse triangle follows
exactly from additivity of Phi under interval concatenation, and a
negative envelope value certifies non-causality.

Each table is built on the first read that needs it, and only then: a
caller that reads only `lo` never builds `hi`, and a maximizer on a cone
whose `lo` is not built computes just its source's row.

Real fiber distances are rounded up (lo) / down (hi) onto the distance
grid; since tau is nonincreasing in the distance argument this preserves
the one-sided guarantees at point pairs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotCausallyRelated, ResourceLimit
from .metricspace import FiniteMetricSpace
from .warp import WarpingFunction

NEG_INF = -math.inf
MAX_TABLE_ENTRIES = 2.0e8
# -inf entries a lower-DP row block may sweep before it is split: about the
# work that the numpy call overhead of one more block costs
ROW_BLOCK_WASTE = 2048
N_MU = 48   # positive multipliers on the upper envelope's mu-grid


def _row_blocks(reach: np.ndarray):
    """Split the rows of one DP time column into (rows, reach) blocks.

    `reach` holds each row's last finite column; it is nonincreasing in
    the row (source) index.  A block grows while the -inf entries it would
    sweep, sum(reach[b0] - reach[b]), stay within ROW_BLOCK_WASTE."""
    out, b0 = [], 0
    while b0 < reach.size:
        waste = np.cumsum(reach[b0] - reach[b0:])
        b1 = b0 + int(np.searchsorted(waste, ROW_BLOCK_WASTE, side="right"))
        out.append((slice(b0, b1), int(reach[b0:b1].max())))
        b0 = b1
    return out


def require_int(name: str, val, least: int) -> None:
    """ValueError unless the raw value is an integer (not a bool) >= least:
    a fractional or too small input is rejected, never coerced."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral) \
            or val < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {val!r}")


class GeneralizedCone:
    """Discrete cone: time grid of the warping x finite fiber, N-cone measure.

    The lower and upper tables are built separately, each on the first
    read that needs it, and cached; `maximizer` on a cone without a lower
    table computes and caches one source row instead.
    """

    def __init__(self, f: WarpingFunction, X: FiniteMetricSpace, N: float = 1.0,
                 dist_steps: int | None = None, window: int = 8,
                 dist_refine: int = 1, fiber_weights=None):
        if N < 1.0:
            raise ValueError("measure exponent N must be >= 1")
        require_int("window", window, 1)
        require_int("dist_refine (distRefine)", dist_refine, 1)
        if dist_steps is not None:
            require_int("dist_steps (distSteps)", dist_steps, 0)
        self.f = f
        self.X = X
        self.N = float(N)
        diam = X.diam
        nt = f.n
        if dist_steps is None:
            mean_dt = float(np.mean(np.diff(f.ts)))
            dist_steps = max(1, int(round(diam / mean_dt))) if diam > 0 else 0
        # allocation quantization (integer cells per DP edge) limits accuracy
        # near the null boundary; dist_refine subdivides cells to push it down
        self.dist_refine = int(dist_refine)
        self.dist_steps = int(dist_steps) * self.dist_refine
        if self.dist_steps == 0 and diam > 0:
            raise ValueError("dist_steps must be positive for a spread fiber")
        self.m = self.dist_steps + 1
        self.dr = diam / self.dist_steps if self.dist_steps > 0 else 0.0
        self.dist_grid = (np.arange(self.m) * self.dr if self.dr > 0
                          else np.zeros(1))
        self.window = int(min(window, nt - 1))   # window >= n: the full grid
        if nt * nt * self.m > MAX_TABLE_ENTRIES:
            raise ResourceLimit(
                f"table would hold {nt * nt * self.m:.3g} entries "
                f"(budget {MAX_TABLE_ENTRIES:.3g})")
        if fiber_weights is None:
            fiber_weights = np.ones(X.n)
        self.fiber_weights = np.asarray(fiber_weights, dtype=float)
        self._lo = None
        self._hi = None
        self._rows = {}
        self._measure = None

    # -- table construction -------------------------------------------------

    @cached_property
    def _cmax(self):
        """Interval max of f over [u, u + s] for spans s <= window: a dict
        keyed by s with arrays over u."""
        vals = self.f.vals
        cmax = {1: np.maximum(vals[:-1], vals[1:])}
        for s in range(2, min(self.window, vals.size - 1) + 1):
            cmax[s] = np.maximum(cmax[s - 1][:-1], vals[s:])
        return cmax

    def _edge(self, u: int, t: int):
        """The DP edges u -> t: (nk, w), where the shifts k < nk are the
        feasible ones, dt >= C k dr with C = max_[u,t] f, and w holds the
        weights sqrt(dt^2 - (C k dr)^2) of all m shifts (0 past nk).  The
        one edge rule of the lower DP and of its backtrace."""
        c = self._cmax[t - u][u]
        dt = self.f.ts[t] - self.f.ts[u]
        cd = c * (np.arange(self.m) * self.dr)
        feas = dt >= cd
        nk = self.m if feas.all() else int(np.argmin(feas))
        return nk, np.sqrt(np.maximum(dt * dt - cd ** 2, 0.0))

    def _lower_rows(self, sources) -> np.ndarray:
        """Rows lo[s] of the lower table for the ascending source indices.

        Longest-path DP over (time, distance-cell) states.  Edge (u -> t,
        k cells), t - u <= window, weighted by
        sqrt(dt^2 - (max_[u,t] f * k dr)^2): every DP path is a causal curve
        of the cone whose true length dominates the path value.

        An edge update only touches entries it can change: rows whose
        source is <= u (the others are still -inf at u) and, for shift k,
        the columns [k, k + reach], where reach is the largest finite
        column at u over a block of rows (`_row_blocks`).  Reach shrinks as
        the source moves later (an earlier source reaches the same states
        through a vertical path), so the blocks follow the finite
        staircase.  Every skipped candidate is -inf + w = -inf, so each row
        comes out bit-identical whichever sources are computed with it."""
        src = np.asarray(sources, dtype=int)
        n, m, W = self.f.n, self.m, self.window
        if self.f.is_zero:
            dt = self.f.ts[None, :] - self.f.ts[src, None]
            T = np.where(dt >= 0, dt, NEG_INF)[:, :, None]
            return np.broadcast_to(T, (src.size, n, m)).copy()
        T = np.full((src.size, n, m), NEG_INF)
        T[np.arange(src.size), src, 0] = 0.0
        active = np.searchsorted(src, np.arange(n), side="right")
        blocks = {}
        buf = np.empty((src.size, m))
        for t in range(src[0] + 1, n):
            # lo[:, t-1] is final: record each active row's last finite column
            fin = T[:active[t - 1], t - 1, ::-1] > NEG_INF
            blocks[t - 1] = _row_blocks(m - 1 - np.argmax(fin, axis=1))
            for u in range(max(src[0], t - W), t):
                nk, w = self._edge(u, t)
                for rows, reach in blocks[u]:
                    srow, drow = T[rows, u, :], T[rows, t, :]
                    for k in range(nk):
                        width = min(reach + 1, m - k)
                        out = buf[:srow.shape[0], :width]
                        np.add(srow[:, :width], w[k], out=out)
                        np.maximum(drow[:, k:k + width], out,
                                   out=drow[:, k:k + width])
        return T

    def _build_lower(self) -> np.ndarray:
        """The full lower table: the DP kernel on every source."""
        return self._lower_rows(np.arange(self.f.n))

    def _build_upper(self) -> np.ndarray:
        """Certified upper table via Lagrange duality for the step-min cone.

        With g = step-wise min of f (so tau_f <= tau_g by warping
        monotonicity), tau_g(i,j,r) = inf_mu [Phi_ij(mu) - mu r] where
        Phi_ij(mu) = sum_k dt_k sqrt(c_k^2 + mu^2)/c_k over the steps in
        [i, j).  A finite mu-grid gives the upper envelope of tangent
        lines; Phi is prefix-summable, so the reverse triangle inequality
        is exact by min-splitting.  Negative envelope values certify
        non-causality (tau >= 0 would force the dual >= 0)."""
        if self.f.is_zero:     # g = f = 0: both tables are the time gaps
            return self._lower_rows(np.arange(self.f.n))
        ts, vals = self.f.ts, self.f.vals
        dt = np.diff(ts)
        c = np.minimum(vals[:-1], vals[1:])
        zero = c <= 0.0
        zcount = np.concatenate([[0], np.cumsum(zero)])
        cpos = np.where(zero, 1.0, c)
        pos = cpos[~zero] if (~zero).any() else np.array([1.0])
        mus = np.concatenate([
            [0.0],
            np.geomspace(max(pos.min() * 1e-3, 1e-9), pos.max() * 2e3, N_MU)])
        tgrid = ts[None, :] - ts[:, None]          # Phi at mu = 0
        crossing = (zcount[None, :] - zcount[:, None]) > 0
        hi = np.where(tgrid >= 0, tgrid, NEG_INF)
        hi = np.repeat(hi[:, :, None], self.m, axis=2)
        rvals = self.dist_grid
        # lines through zero-min steps are +inf: those pairs keep mu = 0
        oki, okj = np.nonzero((tgrid >= 0) & ~crossing)
        sub = hi[oki, okj, :]
        buf = np.empty_like(sub)
        for mu in mus[1:]:
            phi = dt * np.sqrt(cpos * cpos + mu * mu) / cpos
            phi = np.where(zero, 0.0, phi)
            B = np.concatenate([[0.0], np.cumsum(phi)])
            np.subtract(np.take(B, okj)[:, None] - np.take(B, oki)[:, None],
                        mu * rvals[None, :], out=buf)
            np.minimum(sub, buf, out=sub)
        hi[oki, okj, :] = sub
        hi[hi < 0.0] = NEG_INF
        return hi

    def lower_table(self) -> np.ndarray:
        """lo of shape (n_time, n_time, n_dist), built on first call."""
        if self._lo is None:
            self._lo = self._build_lower()
            self._rows.clear()
        return self._lo

    def upper_table(self) -> np.ndarray:
        """hi of shape (n_time, n_time, n_dist), built on first call."""
        if self._hi is None:
            self._hi = self._build_upper()
        return self._hi

    def tables(self):
        """(lo, hi) tables of shape (n_time, n_time, n_dist)."""
        return self.lower_table(), self.upper_table()

    def _lower_row(self, si: int) -> np.ndarray:
        """lo[si] of shape (n_time, n_dist): a view of the full table when it
        is built, otherwise the one-source DP row, cached."""
        if self._lo is not None:
            return self._lo[si]
        row = self._rows.get(si)
        if row is None:
            row = self._rows[si] = self._lower_rows([si])[0]
        return row

    # -- lookups -------------------------------------------------------------

    def _cells(self, d, upper: bool) -> np.ndarray:
        """Distance-grid cells of the fiber distances d: ceil(d/dr - 1e-9)
        for the lower table, floor(d/dr + 1e-9) for the upper; 0 when
        dr == 0.

        The absolute 1e-9 slack absorbs the float error of distances that
        are exact multiples of dr.  It moves a read by one cell only when
        d/dr lies within 1e-9 of an integer: just below it, hi is read one
        cell past the exact floor; just above it, lo is read one cell
        before the exact ceiling."""
        d = np.asarray(d, dtype=float)
        if self.dr == 0.0:
            return np.zeros(d.shape, dtype=np.intp)
        x = d / self.dr
        return (np.floor(x + 1e-9) if upper else np.ceil(x - 1e-9)).astype(np.intp)

    @cached_property
    def _fiber_cells(self):
        """(lower, upper) cells of every fiber pair, indexed by `upper`."""
        return self._cells(self.X.dist, False), self._cells(self.X.dist, True)

    def separations(self, P, Q, upper: bool = False):
        """Signed separations table[P_t, Q_t, cells[P_x, Q_x]] of the lower
        (default) or upper table; -inf where not causal.

        P = (t, x) and Q = (t, x) hold time and fiber indices, as ints or
        integer arrays that broadcast against each other.  Backward pairs
        need no guard: both tables hold -inf wherever t < s."""
        (pt, px), (qt, qx) = P, Q
        table = self.upper_table() if upper else self.lower_table()
        return table[pt, qt, self._fiber_cells[upper][px, qx]]

    def signed_separation(self, p, q) -> float:
        """Canonical signed separation (lower table); -inf when not causal."""
        return float(self.separations(p, q))

    def signed_separation_upper(self, p, q) -> float:
        return float(self.separations(p, q, upper=True))

    def causally_related(self, p, q) -> bool:
        return self.signed_separation(p, q) >= 0.0

    def bracket_width(self) -> float:
        """Max over grid entries of hi - lo on the causally related set."""
        lo, hi = self.tables()
        mask = lo >= 0.0
        if not mask.any():
            return 0.0
        return float((hi[mask] - lo[mask]).max())

    # -- geodesics -----------------------------------------------------------

    def maximizer(self, p, q) -> "GridGeodesic":
        """DP-optimal causal grid path realizing the lower-table value.

        Reads only the source row lo[si], so `hi` is never built here.  The
        backtrace walks the DP's own edges (`_edge`): from state (t, rr) it
        takes the first edge, by u and then by shift k ascending, whose
        source value plus weight matches lo[si, t, rr]; an edge from time si
        must start at cell 0."""
        (si, xi), (ti, yi) = p, q
        r = int(self._fiber_cells[False][xi, yi])
        row = self._lower_row(si) if ti >= si else None
        val = NEG_INF if row is None else float(row[ti, r])
        if val == NEG_INF:
            raise NotCausallyRelated(f"{p} !<= {q}")
        tol = 1e-9 * (1 + abs(val))
        states = [(ti, r)]
        weights = []
        t, rr = ti, r
        while (t, rr) != (si, 0):
            for u in range(max(si, t - self.window), t):
                nk, w = self._edge(u, t)
                K = min(nk, rr + 1)
                # row[u, rr - k] + w[k] for the feasible shifts k < K; a -inf
                # source gives an infinite miss
                hit = np.abs(row[u, rr::-1][:K] + w[:K] - row[t, rr]) <= tol
                if u == si:
                    hit[:rr] = False    # paths start at (si, 0)
                if hit.any():
                    k = int(np.argmax(hit))
                    states.append((u, rr - k))
                    weights.append(w[k])
                    t, rr = u, rr - k
                    break
            else:
                raise NotCausallyRelated("backtrace failed; table inconsistent")
        states.reverse()
        weights.reverse()
        return GridGeodesic(cone=self,
                            states=tuple((int(a), float(b * self.dr)) for a, b in states),
                            weights=tuple(float(w) for w in weights),
                            tau_length=float(val))

    def causal_diamond(self, p, q):
        """Grid states u with p <= u <= q under the canonical relation, in
        time-major order."""
        u = (np.arange(p[0], q[0] + 1)[:, None], np.arange(self.X.n))
        inside = (self.separations(p, u) >= 0.0) & (self.separations(u, q) >= 0.0)
        return [(int(p[0] + a), int(x)) for a, x in zip(*np.nonzero(inside))]

    def imprisonment_bound(self, time_len: float, fiber_diam: float) -> float:
        """Metric arclength bound for causal curves in a cover set.

        Causal curves satisfy f|beta'| <= alpha', so the product-metric speed
        is at most sqrt(2) alpha'; fiber travel is further capped by the ball
        diameter at max f."""
        fmax = self.f.max()
        fmin = float(self.f.vals.min())
        fiber_travel = fiber_diam if fmin <= 0 else min(time_len / fmin, fiber_diam)
        return min(math.sqrt(2.0) * time_len, time_len + fmax * fiber_travel)

    # -- measure ---------------------------------------------------------------

    def time_cell_widths(self) -> np.ndarray:
        ts = self.f.ts
        mids = 0.5 * (ts[1:] + ts[:-1])
        edges = np.concatenate([[ts[0]], mids, [ts[-1]]])
        return np.diff(edges)

    def reference_measure(self) -> np.ndarray:
        """Cell weights f(t_i)^N * dt_i * w_x, shape (n_time, n_fiber)."""
        if self._measure is None:
            wt = self.f.vals ** self.N * self.time_cell_widths()
            self._measure = wt[:, None] * self.fiber_weights[None, :]
        return self._measure

    # -- rescaling ---------------------------------------------------------------

    def _like(self, ts, vals, dist) -> "GeneralizedCone":
        """The cone on warping samples (ts, vals) and fiber distances dist
        (same base point), with this cone's N, grid options and weights."""
        return GeneralizedCone(WarpingFunction(ts, vals),
                               FiniteMetricSpace(dist, self.X.base), N=self.N,
                               dist_steps=self.dist_steps, window=self.window,
                               fiber_weights=self.fiber_weights)

    def rescale(self, eps: float) -> "GeneralizedCone":
        """The 1/eps-rescaled cone: times and fiber distances divided by eps;
        signed separations scale by 1/eps on corresponding grid pairs."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        return self._like(self.f.ts / eps, self.f.vals, self.X.dist / eps)

    def scaling_isomorphism_check(self, lam: float) -> float:
        """Max |l - l'| over grid pairs for the (lam f, X/lam) cone."""
        if lam <= 0:
            raise ValueError("lambda must be positive")
        other = self._like(self.f.ts, self.f.vals * lam, self.X.dist / lam)
        lo = self.lower_table()
        lo2 = other.lower_table()
        both = (lo > NEG_INF) & (lo2 > NEG_INF)
        dev = float(np.abs(lo[both] - lo2[both]).max()) if both.any() else 0.0
        if (lo > NEG_INF).sum() != (lo2 > NEG_INF).sum():
            dev = math.inf
        return dev

    # -- io ---------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"warp": self.f.to_json(), "fiber": self.X.to_json(),
                "N": self.N, "timeSteps": self.f.n - 1,
                "distSteps": self.dist_steps, "window": self.window}

    @classmethod
    def from_json(cls, obj) -> "GeneralizedCone":
        f = WarpingFunction.from_json(obj["warp"])
        steps = obj.get("timeSteps")
        if steps is not None and int(steps) + 1 != f.n:
            ts = np.linspace(f.a, f.b, int(steps) + 1)
            f = WarpingFunction(ts, f(ts))
        X = FiniteMetricSpace.from_json(obj["fiber"])
        return cls(f, X, N=float(obj.get("N", 1.0)),
                   dist_steps=obj.get("distSteps"),
                   window=obj.get("window", 8),
                   dist_refine=obj.get("distRefine", 1))

    def export_rows(self):
        """CSV rows (s, t, r, lo, hi) over the grid."""
        lo, hi = self.tables()
        ts, rs = self.f.ts, self.dist_grid
        for i in range(self.f.n):
            for j in range(i, self.f.n):
                for k in range(self.m):
                    yield (ts[i], ts[j], rs[k], lo[i, j, k], hi[i, j, k])


@dataclass(frozen=True)
class GridGeodesic:
    """Causal grid path: (time index, fiber distance travelled) states."""

    cone: GeneralizedCone
    states: tuple
    weights: tuple
    tau_length: float

    def __post_init__(self):
        tidx = [s[0] for s in self.states]
        if any(b <= a for a, b in zip(tidx, tidx[1:])):
            raise ValueError("states must be strictly increasing in time")

    @property
    def cumulative(self):
        out = [0.0]
        for w in self.weights:
            out.append(out[-1] + w)
        return out

    def character(self):
        """'timelike' | 'null' | 'mixed', judged step-wise."""
        kinds = set()
        ts = self.cone.f.ts
        for (a, _), (b, _), w in zip(self.states, self.states[1:], self.weights):
            dt = ts[b] - ts[a]
            kinds.add("null" if w <= 1e-9 + 1e-6 * dt else "timelike")
        if len(kinds) > 1:
            return "mixed"
        return kinds.pop() if kinds else "timelike"

    def energy_diagnostic(self):
        """Per-edge Clairaut values fbar^2 * (fiber speed in tau-arclength).

        Along a timelike maximizer the fiber speed is proportional to
        1/f^2, so these values should agree across edges up to grid error;
        kept as a diagnostic only (the tables never use it)."""
        vals = self.cone.f.vals
        out = []
        for (a, ra), (b, rb), w in zip(self.states, self.states[1:],
                                       self.weights):
            if rb - ra <= 0 or w <= 1e-12:
                continue
            fbar = float(vals[a:b + 1].max())
            out.append(fbar * fbar * (rb - ra) / w)
        return out

    def state_at(self, t: float):
        """State at normalized parameter t in [0, 1] (tau-arclength when
        timelike, time fraction when null); edges are subdivided linearly
        and the result snapped to the nearest grid state."""
        if t <= 0.0:
            return self.states[0]
        if t >= 1.0:
            return self.states[-1]
        if self.tau_length > 1e-12:
            target = t * self.tau_length
            cum = self.cumulative
            for k in range(len(self.weights)):
                if cum[k + 1] >= target - 1e-12:
                    w = self.weights[k]
                    frac = 0.0 if w <= 1e-15 else (target - cum[k]) / w
                    (a, ra), (b, rb) = self.states[k], self.states[k + 1]
                    tidx = int(round(a + frac * (b - a)))
                    return (tidx, ra + frac * (rb - ra))
            return self.states[-1]
        ts = self.cone.f.ts
        t0, t1 = ts[self.states[0][0]], ts[self.states[-1][0]]
        target = t0 + t * (t1 - t0)
        return min(self.states, key=lambda s: abs(ts[s[0]] - target))


def minkowski_strip(t0=0.0, t1=2.0, time_steps=200, fiber=None,
                    fiber_len=1.0, fiber_points=101, window=8, N=1.0):
    """Flat strip -[t0,t1] x segment: the standard closed-form test cone."""
    from .metricspace import segment
    ts = np.linspace(t0, t1, time_steps + 1)
    f = WarpingFunction(ts, np.ones_like(ts))
    if fiber is None:
        fiber = segment(fiber_len, fiber_points)
    return GeneralizedCone(f, fiber, N=N, window=window)

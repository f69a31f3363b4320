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
the grid.  The DP runs over blocks of at most LOWER_BLOCK entries of
source rows, its state cell major (cell, then source), so that each edge
shift is one contiguous add and max; a block's rows are a transposed view
of that state.  The upper table is the Lagrange-dual envelope for the
step-min warping g <= f (whose separation dominates tau by warping
monotonicity):
tau_g(i,j,r) = inf_mu [Phi_ij(mu) - mu r] with Phi prefix-summable over
time steps, evaluated on a finite mu-grid; the reverse triangle follows
exactly from additivity of Phi under interval concatenation, and a
negative envelope value certifies non-causality.  Its kernel computes one
source row at a time and reads few of the mu-grid's lines per entry: Phi
is convex in mu, so the least line's mu is nondecreasing in r, and the
sorted breakpoints of the lines give the line that owns each cell; only
cells next to an owner change read the neighbouring lines too.  The values
read are the same floats as a running minimum over every line computes,
and min is exact, so the table is that minimum bit for bit; soundness
holds whichever lines are read, since each line is a weak-dual bound.

Tables are built only as far as the reads need them, by one rule for
both, kept in `_store`: a read computes the rows it misses in one kernel
call and appends them, and the read that completes a table leaves it in
source order.  `_store` is also the one place where the memory budget,
MAX_TABLE_BYTES of stored rows per table, is checked.  Every read goes
through it, `bracket_width` included, which takes the width over the
source rows asked for (every row by default).  So a query that reads a
few source rows pays for those rows alone, width included.

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

from .errors import NotCausallyRelated, ResourceLimit, require_int
from .metricspace import FiniteMetricSpace
from .warp import WarpingFunction

NEG_INF = -math.inf
MAX_TABLE_BYTES = 1.6e9   # stored rows of one table: 2e8 float64 entries
N_MU = 48   # positive multipliers on the upper envelope's mu-grid
# entries of one block of lower rows, the DP kernel's unit in `_build_lower`:
# the larger, the fewer DP sweeps, but each edge update also sweeps the
# block's sources not yet reached, so the block bounds that waste too
LOWER_BLOCK = 2 ** 23


class GeneralizedCone:
    """Discrete cone: time grid of the warping x finite fiber, N-cone measure.

    Each table keeps the rows that reads asked for, by the one rule of
    `_store`.
    """

    def __init__(self, f: WarpingFunction, X: FiniteMetricSpace, N: float = 1.0,
                 dist_steps: int | None = None, window: int = 8,
                 dist_refine: int = 1, fiber_weights=None):
        if isinstance(N, bool) or not isinstance(N, numbers.Real) \
                or not (math.isfinite(N) and N >= 1.0):
            raise ValueError(f"measure exponent N must be a finite number "
                             f">= 1, got {N!r}")
        require_int("window", window, 1)
        require_int("dist_refine (distRefine)", dist_refine, 1)
        if dist_steps is not None:
            require_int("dist_steps (distSteps)", dist_steps, 0)
        self.f = f
        self.X = X
        self.N = float(N)
        diam = X.diam
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
        self.dist_grid = np.arange(self.m) * self.dr
        self.window = int(min(window, f.n - 1))   # window >= n: the full grid
        if fiber_weights is None:
            fiber_weights = np.ones(X.n)
        self.fiber_weights = np.asarray(fiber_weights, dtype=float)
        # per table (lower, upper): the pair (rows, slot) of the rows stored
        # so far, table[s] = rows[slot[s]] with slot[s] = -1 while row s is
        # not stored; replaced as one pair
        self._stored = [self._unstored(), self._unstored()]
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
        cd = c * self.dist_grid
        feas = dt >= cd
        nk = self.m if feas.all() else int(np.argmin(feas))
        return nk, np.sqrt(np.maximum(dt * dt - cd ** 2, 0.0))

    def _lower_rows(self, sources) -> np.ndarray:
        """Rows lo[s] of the lower table for the ascending source indices,
        as an array of shape (sources, n_time, n_dist).

        Longest-path DP over (time, distance-cell) states.  Edge (u -> t,
        k cells), t - u <= window, weighted by
        sqrt(dt^2 - (max_[u,t] f * k dr)^2): every DP path is a causal curve
        of the cone whose true length dominates the path value.

        The state is one array T[t, r * S + s] over the S sources, cell
        major, so the update of edge u -> t at shift k is one contiguous
        add and max: T[t, k S : (k + width) S] against T[u, :width S] + w[k],
        with width = min(reach + 1, m - k) and reach the last finite cell at
        u over all the sources.  The rows come back as a transposed view of
        T, not a copy.  Each entry takes the same candidates T[u, r - k] +
        w[k] in the same order as the unrestricted loop; the only others are
        -inf + w = -inf (sources still unreached at u, cells past reach),
        which cannot change a max, so each row comes out bit-identical
        whichever sources are computed with it."""
        src = np.asarray(sources, dtype=int)
        n, m, W, S = self.f.n, self.m, self.window, src.size
        if self.f.is_zero:
            dt = self.f.ts[None, :] - self.f.ts[src, None]
            T = np.where(dt >= 0, dt, NEG_INF)[:, :, None]
            return np.broadcast_to(T, (S, n, m)).copy()
        T = np.full((n, m * S), NEG_INF)
        T[src, np.arange(S)] = 0.0
        reach = np.empty(n, dtype=int)
        buf = np.empty(m * S)
        for t in range(src[0] + 1, n):
            # T[t - 1] is final: record its last finite cell
            fin = (T[t - 1].reshape(m, S) > NEG_INF).any(axis=1)
            reach[t - 1] = m - 1 - np.argmax(fin[::-1])
            for u in range(max(src[0], t - W), t):
                nk, w = self._edge(u, t)
                for k in range(nk):
                    width = min(reach[u] + 1, m - k) * S
                    np.add(T[u, :width], w[k], out=buf[:width])
                    dst = T[t, k * S:k * S + width]
                    np.maximum(dst, buf[:width], out=dst)
        return T.reshape(n, m, S).transpose(2, 0, 1)

    def _source_blocks(self, sources):
        """The ascending sources in consecutive equal blocks, each of at
        most LOWER_BLOCK lower-table entries.  Equal, because a short last
        block can fall below malloc's mmap threshold and, once freed, stay
        resident on the heap."""
        size, most = len(sources), max(1, LOWER_BLOCK // (self.f.n * self.m))
        step = math.ceil(size / math.ceil(size / most)) if size else 1
        return [sources[b:b + step] for b in range(0, size, step)]

    def _build_lower(self, sources) -> np.ndarray:
        """Rows lo[s] for the ascending sources: the DP kernel on each of
        their blocks, into one array when they span several or none."""
        blocks = self._source_blocks(np.asarray(sources, dtype=int))
        if len(blocks) == 1:
            return self._lower_rows(blocks[0])
        lo, at = np.empty((len(sources), self.f.n, self.m)), 0
        for src in blocks:
            lo[at:at + src.size] = self._lower_rows(src)
            at += src.size
        return lo

    @cached_property
    def _envelope(self):
        """(zcount, mus, B) of the upper envelope: zcount[j] counts the
        zero-min steps before time j, mus holds the positive multipliers
        mu_k in ascending order and B[k] the prefix sums of Phi(mu_k) over
        the time steps."""
        ts, vals = self.f.ts, self.f.vals
        dt = np.diff(ts)
        c = np.minimum(vals[:-1], vals[1:])
        zero = c <= 0.0
        zcount = np.concatenate([[0], np.cumsum(zero)])
        cpos = np.where(zero, 1.0, c)
        pos = cpos[~zero] if (~zero).any() else np.array([1.0])
        mus = np.geomspace(max(pos.min() * 1e-3, 1e-9), pos.max() * 2e3, N_MU)
        B = np.empty((N_MU, ts.size))
        for k, mu in enumerate(mus):
            phi = dt * np.sqrt(cpos * cpos + mu * mu) / cpos
            phi = np.where(zero, 0.0, phi)
            B[k] = np.concatenate([[0.0], np.cumsum(phi)])
        return zcount, mus, B

    def _build_upper(self, sources) -> np.ndarray:
        """Rows hi[s] of the upper table for the source indices.

        Certified upper bound via Lagrange duality for the step-min cone:
        with g = step-wise min of f (so tau_f <= tau_g by warping
        monotonicity), tau_g(i,j,r) = inf_mu [Phi_ij(mu) - mu r] where
        Phi_ij(mu) = sum_k dt_k sqrt(c_k^2 + mu^2)/c_k over the steps in
        [i, j).  A finite mu-grid gives the upper envelope of tangent
        lines; Phi is prefix-summable, so the reverse triangle inequality
        is exact by min-splitting.  Negative envelope values certify
        non-causality (tau >= 0 would force the dual >= 0).

        One source row at a time: the columns j < s stay -inf.  Column
        j >= s has K = N_MU + 1 lines in r: line 0 (mu = 0) with intercept
        ts[j] - ts[s], and line k with intercept B[k-1, j] - B[k-1, s] and
        multiplier mus[k-1], +inf across a zero-min step.  Phi is convex in
        mu, so the least line's mu is nondecreasing in r: line k takes over
        from line k - 1 at the breakpoint b_k = (L_k - L_{k-1}) /
        ((mu_k - mu_{k-1}) dr), in cells.  The breakpoints, sorted per
        column, cut it into the segments of their owner lines, and each
        cell evaluates its owner.  A cell whose neighbour r - 1 or r + 1
        has another owner takes the min over the lines own(r - 1) ..
        own(r + 1), since lines that cross near a cell can trade places by
        rounding; a cell at distance 0 (cell 0, or every cell when dr == 0)
        takes the min over every line, which there is its intercept.

        Each value read, L - mu * dist_grid[r], is the same float as in a
        running minimum over all K lines, and min is exact.  A line that
        owns no cell within one of r loses at r by at least (mu_k -
        mu_{k-1}) dr, far above the values' rounding unless a cell is
        within a few ulps of the intercepts, so the rows equal that
        minimum bit for bit.  Soundness does not rest on this: every line
        is a weak-dual bound, so hi >= tau whichever lines are read."""
        src = np.asarray(sources, dtype=int)
        if self.f.is_zero:     # g = f = 0: both tables are the time gaps
            return self._lower_rows(src)
        ts, n, m, grid = self.f.ts, self.f.n, self.m, self.dist_grid
        zcount, mus, B = self._envelope
        slope = np.concatenate([[0.0], mus])
        K = slope.size
        BT = np.ascontiguousarray(B.T)
        # line numbers and multipliers, K per column, for the longest row
        lines = np.tile(np.arange(K, dtype=np.int8), n)     # K < 128
        slopes = np.tile(slope, n)
        span = np.diff(slope) * self.dr
        zero = grid == 0.0
        hi = np.full((src.size, n, m), NEG_INF)
        for row, s in zip(hi, src.tolist()):
            J, out = n - s, row[s:]
            L = np.empty((J, K))     # L[j - s, k]: line k's intercept at j
            L[:, 0] = ts[s:] - ts[s]
            np.subtract(BT[s:], BT[s], out=L[:, 1:])
            L[zcount[s:] > zcount[s], 1:] = math.inf
            # breakpoints in cells; NaN (inf - inf, or 0 / 0 when dr == 0)
            # never starts a segment
            with np.errstate(divide="ignore", invalid="ignore"):
                b = np.diff(L, axis=1) / span
            b[np.isnan(b)] = math.inf
            b.sort(axis=1)
            edges = np.zeros((J, K + 1), dtype=np.intp)
            edges[:, K] = m
            edges[:, 1:K] = np.clip(np.ceil(b), 0, m)
            seg = np.diff(edges, axis=1).ravel()
            # each cell from its owner line
            own = np.repeat(lines[:J * K], seg).reshape(J, m)
            out[...] = np.repeat(L.ravel(), seg).reshape(J, m)
            mr = np.repeat(slopes[:J * K], seg).reshape(J, m)
            out -= np.multiply(mr, grid, out=mr)
            del mr
            # a boundary cell takes the min over the lines first .. last,
            # own(r - 1) .. own(r + 1), from one flat gather; own(m) counts
            # the breakpoints up to cell m.  A cell at distance 0 is the
            # min of the intercepts, exactly what each line gives there
            first, last = np.empty_like(own), np.empty_like(own)
            first[:, 1:], last[:, :-1] = own[:, :-1], own[:, 1:]
            last[:, -1] = np.count_nonzero(b <= m, axis=1)
            first[:, zero] = last[:, zero]
            cells = np.flatnonzero(first != last).astype(np.int32)
            lo = first.ravel()[cells]
            count = last.ravel()[cells] - lo + 1
            at = np.cumsum(count) - count
            line = np.repeat((lo - at).astype(np.int32), count)
            line += np.arange(line.size, dtype=np.int32)
            j, r = np.divmod(np.repeat(cells, count), np.int32(m))
            cand = slope[line]
            cand *= grid[r]
            np.subtract(L.ravel()[j * K + line], cand, out=cand)
            if cells.size:
                out.ravel()[cells] = np.minimum.reduceat(cand, at)
            out[:, zero] = L.min(axis=1)[:, None]
            out[out < 0.0] = NEG_INF
        return hi

    def _unstored(self):
        """The (rows, slot) pair of a table with no row stored."""
        return np.empty((0, self.f.n, self.m)), np.full(self.f.n, -1)

    def _store(self, upper: bool, sources):
        """The (rows, slot) pair of the lower or upper table, with the rows
        of the sources (ints or an integer array) stored.

        One rule for both tables: a read computes the rows it misses in one
        kernel call.  While the table stays incomplete, they are appended
        to the stored rows in one copy.  A read that completes the table
        by its one missing row copies the stored rows into one new table
        in source order and writes the new row there; one that completes
        it by several rows drops the stored rows and builds the whole table
        in source order, keeping the kernel's own array.  Before computing,
        the read is refused with ResourceLimit when the rows the table
        would hold after it exceed MAX_TABLE_BYTES.  The caller reads the
        returned pair, not self._stored: a racing thread may replace the
        stored pair by one without these rows."""
        rows, slot = stored = self._stored[upper]
        miss = slot[sources] < 0
        if not miss.any():
            return stored
        n = self.f.n
        missing = np.unique(np.asarray(sources)[miss])
        held = len(rows) + missing.size
        if held * n * self.m * 8 > MAX_TABLE_BYTES:
            raise ResourceLimit(
                f"{'upper' if upper else 'lower'} table would hold {held} "
                f"rows of {n * self.m * 8} bytes (budget "
                f"{MAX_TABLE_BYTES:.3g} bytes)")
        build = self._build_upper if upper else self._build_lower
        if held < n:
            slot = slot.copy()
            slot[missing] = np.arange(len(rows), held)
            stored = np.concatenate([rows, build(missing)]), slot
        elif missing.size == 1:
            table = np.empty((n, n, self.m))
            for s, at in enumerate(slot.tolist()):
                if at >= 0:
                    table[s] = rows[at]
            table[missing] = build(missing)
            stored = table, np.arange(n)
        else:
            self._stored[upper] = self._unstored()
            del rows, stored
            stored = (build(np.arange(n)), np.arange(n))
        self._stored[upper] = stored
        return stored

    def lower_table(self) -> np.ndarray:
        """lo of shape (n_time, n_time, n_dist), built on first call."""
        return self._store(False, np.arange(self.f.n))[0]

    def upper_table(self) -> np.ndarray:
        """hi of shape (n_time, n_time, n_dist), built on first call."""
        return self._store(True, np.arange(self.f.n))[0]

    def tables(self):
        """(lo, hi) tables of shape (n_time, n_time, n_dist)."""
        return self.lower_table(), self.upper_table()

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
        need no guard: both tables hold -inf wherever t < s.  The rows of
        the sources touched are stored by `_store`'s rule."""
        (pt, px), (qt, qx) = P, Q
        rows, slot = self._store(upper, pt)
        return rows[slot[pt], qt, self._fiber_cells[upper][px, qx]]

    def signed_separation(self, p, q) -> float:
        """Canonical signed separation (lower table); -inf when not causal."""
        return float(self.separations(p, q))

    def signed_separation_upper(self, p, q) -> float:
        return float(self.separations(p, q, upper=True))

    def bracket_width(self, sources=None) -> float:
        """Max of hi - lo over the grid entries of the source rows (every
        row when sources is None) on the causally related set (lo >= 0),
        0.0 when it is empty.  The rows of both tables are read, and the
        missing ones stored, by `_store`'s rule.  Columns before a row's
        source are -inf in lo and are skipped."""
        src = (np.arange(self.f.n) if sources is None
               else np.unique(np.asarray(sources, dtype=int)))
        lows, lslot = self._store(False, src)
        ups, uslot = self._store(True, src)
        width = NEG_INF
        for s in src.tolist():
            lo, hi = lows[lslot[s], s:], ups[uslot[s], s:]
            width = max(width, np.subtract(hi, lo, where=lo >= 0.0,
                                           out=np.full(lo.shape, NEG_INF)).max())
        return float(width) if width > NEG_INF else 0.0

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
        row = None
        if ti >= si:
            rows, slot = self._store(False, si)
            row = rows[slot[si]]
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
        if steps is not None:
            require_int("timeSteps", steps, 1)
            if steps + 1 != f.n:
                ts = np.linspace(f.a, f.b, steps + 1)
                f = WarpingFunction(ts, f(ts))
        X = FiniteMetricSpace.from_json(obj["fiber"])
        return cls(f, X, N=obj.get("N", 1.0),
                   dist_steps=obj.get("distSteps"),
                   window=obj.get("window", 8),
                   dist_refine=obj.get("distRefine", 1))

    def export_rows(self):
        """CSV rows (s, t, r, lo, hi) over the grid, as a generator that
        reads the two stored tables in place; both are built before it is
        returned."""
        lo, hi = self.tables()
        ts, rs, n = self.f.ts, self.dist_grid, self.f.n
        return ((ts[i], ts[j], rs[k], lo[i, j, k], hi[i, j, k])
                for i in range(n) for j in range(i, n) for k in range(self.m))


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

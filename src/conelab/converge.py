"""Covered GH brackets, uniform-convergence moduli, and cone-sequence checks.

A cone sequence holds per-index cones, a candidate limit, exhausting covers
(time sub-intervals x fiber balls of radius 2^k), and one witness
correspondence per (i, k): the base grids matched index-affinely and the
fiber balls matched through a GH witness.  All delta-neighborhood
statements are evaluated against an explicit product proxy metric on the
limit side, |dt| + (max f) * d_fiber; the witness distortion is recorded
separately.  Quantification over all epsilon-isometries is thereby
weakened to the single recorded witness.

The moduli compare each pair of states with the other side's pairs of
neighbours within delta.  When delta leaves every state exactly one
neighbour, its matched state (a one-to-one witness, time rows that pair
within delta, and delta below (max f) times the least distance between
limit ball points), a pair's comparison is one separation of the other
side, and a separation depends on fiber points only through their
distance cell: so the moduli are computed over (time row, time row,
member cell, limit cell) groups, not over state pairs, with the same
floats.  `ell_converge_check`'s delta does that when the members share
the limit's time grid and fiber.  Any other delta, `default_delta`
included, searches each state's neighbours.

Verdicts come from `transport.verdict` at tol 0.  A finite harness
certifies trends, so the pessimistic margin is the bracket scale minus the
worst modulus or GH upper bound at the largest index (PASS when those fall
below bracket scale).  The optimistic margin is 10x bracket scale minus
the larger of the last GH lower bound and the smaller worst modulus of
the last two indices, or -inf when the certified GH lower bound is stuck
above bracket scale (FAIL on a persistent excess).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cone import GeneralizedCone
from .errors import BoundaryPoint, SlopeBoundViolated, require_int
from .kappa import pi_kappa
from .metricspace import (FiniteMetricSpace, ball_indices, ball_subspace,
                          gh_distance)
from .transport import flow_lp, verdict
from .warp import (WarpingFunction, fk_concavity, log_slope_bound, log_slopes,
                   normalize_and_bound)

NEIGHBOR_CAP = 12   # nearest neighbours per state in a modulus search
# row states of one block of a modulus pass: each block holds a few arrays
# of MODULUS_BLOCK x s entries, beside two cover blocks of nt x nt x m and
# the nx x s gather offsets; the larger, the fewer numpy calls per slot
MODULUS_BLOCK = 32
CLUSTER_TOL = 0.05  # grid-wise spread of one limit cluster, precompactness


@dataclass(frozen=True)
class CoverLevel:
    """One cover set: the time window [t_lo, t_hi] x the fiber ball
    fiber_idx, with its window length, ball diameter and window max of f."""
    t_lo: int
    t_hi: int
    fiber_idx: np.ndarray
    t_len: float
    fiber_diam: float
    fmax: float

    @property
    def time_indices(self):
        return np.arange(self.t_lo, self.t_hi + 1)


def build_cover(cone: GeneralizedCone, depth: int):
    """Exhausting cover: time windows of length min(k, len I) around the
    middle, fiber balls of radius 2^k around the base point."""
    ts = cone.f.ts
    length = ts[-1] - ts[0]
    mid = 0.5 * (ts[0] + ts[-1])
    levels = []
    for k in range(1, depth + 1):
        half = 0.5 * min(float(k), length * (1.0 - 0.5 ** k))
        lo = int(np.searchsorted(ts, mid - half, side="left"))
        hi = int(np.searchsorted(ts, mid + half, side="right")) - 1
        lo = min(lo, cone.f.n - 1)
        hi = max(hi, lo)
        if levels:
            lo = min(lo, levels[-1].t_lo)
            hi = max(hi, levels[-1].t_hi)
        bi = ball_indices(cone.X, 2.0 ** k)
        levels.append(CoverLevel(
            lo, hi, bi, t_len=float(ts[hi] - ts[lo]),
            fiber_diam=float(cone.X.dist[np.ix_(bi, bi)].max(initial=0.0)),
            fmax=float(cone.f.vals[lo:hi + 1].max())))
    return levels


@dataclass
class ConeSequence:
    cones: list
    limit: GeneralizedCone
    depth: int
    covers: list        # covers[i] for cones, covers[-1] for the limit
    fiber_maps: dict    # (i, k) -> (to_limit array, distortion)
    distortion: dict    # (i, k) -> recorded correspondence distortion bound
    alignment: dict     # (i, k) -> positional misalignment of the witness
    conditions: dict    # (i, k) -> the theorem's sufficient conditions


def cone_sequence(cones, limit, depth: int = 2) -> ConeSequence:
    require_int("cover depth", depth, 1)
    ncones = [c.f.n for c in cones] + [limit.f.n]
    if len(set(ncones)) != 1:
        raise ValueError("sequence members need equal time-grid sizes")
    covers = [build_cover(c, depth) for c in cones] + [build_cover(limit, depth)]
    # the fiber balls of the covers, as spaces based at the ball centre
    limit_balls = [ball_subspace(limit.X, 2.0 ** k) for k in range(1, depth + 1)]
    fiber_maps, distortion, alignment, conditions = {}, {}, {}, {}
    for i, c in enumerate(cones):
        for k in range(1, depth + 1):
            lv_i, lv_l = covers[i][k - 1], covers[-1][k - 1]
            B = limit_balls[k - 1]
            _, _, wit = gh_distance(ball_subspace(c.X, 2.0 ** k), B, "heuristic")
            to_limit = np.zeros(lv_i.fiber_idx.size, dtype=int)
            for a, b in wit.pairs:
                to_limit[a] = b
            fiber_maps[(i, k)] = (to_limit, wit.distortion)
            # base grids matched index-wise: same length by construction
            ia, il = lv_i.time_indices, lv_l.time_indices
            n = min(ia.size, il.size)
            shift = float(np.abs(c.f.ts[ia[:n]] - limit.f.ts[il[:n]]).max())
            supdf = float(np.abs(c.f(limit.f.ts[il]) - limit.f.vals[il]).max())
            distortion[(i, k)] = shift + supdf * max(lv_l.fiber_diam, 1.0) \
                + lv_l.fmax * wit.distortion
            alignment[(i, k)] = shift + lv_l.fmax * wit.distortion
            conditions[(i, k)] = {
                "base_gh": 0.5 * abs(lv_i.t_len - lv_l.t_len),
                "fiber_witness_distortion": wit.distortion,
                "sup_f_diff": supdf}
    return ConeSequence(cones=list(cones), limit=limit, depth=depth,
                        covers=covers, fiber_maps=fiber_maps,
                        distortion=distortion, alignment=alignment,
                        conditions=conditions)


def _diam_bracket(cone: GeneralizedCone, level: CoverLevel):
    tlen, fd = level.t_len, level.fiber_diam
    return max(tlen, float(cone.f.vals.min()) * fd), tlen + level.fmax * fd


def covered_gh(seq: ConeSequence, k: int):
    """Per-i GH brackets for the k-th cover sets, via the recorded witness
    correspondence (upper) and bracketed-diameter gaps (lower)."""
    out = []
    lv_l = seq.covers[-1][k - 1]
    dlo_l, dhi_l = _diam_bracket(seq.limit, lv_l)
    for i, c in enumerate(seq.cones):
        lv_i = seq.covers[i][k - 1]
        dlo_i, dhi_i = _diam_bracket(c, lv_i)
        lower = 0.5 * max(0.0, dlo_i - dhi_l, dlo_l - dhi_i)
        upper = 0.5 * seq.distortion[(i, k)]
        out.append((lower, max(lower, upper)))
    return out


def _states(cone: GeneralizedCone, level: CoverLevel):
    t = np.repeat(level.time_indices, level.fiber_idx.size)
    x = np.tile(level.fiber_idx, level.time_indices.size)
    return t, x


@dataclass(frozen=True)
class ConvergenceModulus:
    i: int
    k: int
    l: int
    delta: float
    eps1: float
    eps2: float
    inclusion1: bool
    inclusion2: bool
    level_set_empty: bool
    unmatched_pairs: int


def default_delta(seq: ConeSequence, i: int, k: int) -> float:
    dt = float(np.diff(seq.limit.f.ts).max())
    return 2.0 * (dt + seq.distortion[(i, k)])


def _cross_states(seq: ConeSequence, i: int, k: int):
    """States (t, x) of cone i and of the limit on the k-th cover, and the
    limit fiber point each i-state is carried to by the recorded witness
    (its time index is kept)."""
    lv_i, lv_l = seq.covers[i][k - 1], seq.covers[-1][k - 1]
    to_limit, _ = seq.fiber_maps[(i, k)]
    mapped = np.tile(lv_l.fiber_idx[to_limit], lv_i.time_indices.size)
    return _states(seq.cones[i], lv_i), mapped, _states(seq.limit, lv_l)


def _cross_metric(seq: ConeSequence, i: int, k: int, rows=slice(None),
                  cols=slice(None)):
    """Block D[rows, cols] of the cross metric on the k-th cover: D[a, b]
    between i-state a, carried into the limit, and limit state b, in the
    limit-side proxy |dt| + (max f) * d_fiber (`_cross_states` order).
    Each entry is the same float whichever block it is computed in."""
    (ti, _), mapped, (tl, xl) = _cross_states(seq, i, k)
    limit = seq.limit
    return (np.abs(seq.cones[i].f.ts[ti[rows]][:, None]
                   - limit.f.ts[tl[cols]][None, :])
            + seq.covers[-1][k - 1].fmax
            * limit.X.dist[np.ix_(mapped[rows], xl[cols])])


def _blocks(size: int):
    """Consecutive slices of at most MODULUS_BLOCK rows covering range(size)."""
    return [slice(r, min(r + MODULUS_BLOCK, size))
            for r in range(0, size, MODULUS_BLOCK)]


def _buffers(rows: int, cols: int, *dtypes):
    """One array of min(MODULUS_BLOCK, rows) x cols per dtype, for the
    blocks of `_blocks(rows)`: a block pass fills each block into their
    leading rows, so the pass allocates its arrays once, not per block."""
    return [np.empty((min(MODULUS_BLOCK, rows), cols), dtype=d)
            for d in dtypes]


class _CoverSeparations:
    """The s x s lower-table separations L[u, v] between the states of one
    cover level, time-major (`_states` order), read by rows, never whole.

    A separation depends on fiber points only through their distance
    cell, so L[u, v] = block[p_u, p_v, cells[x_u, x_v]] with p a state's
    time row and x its ball point: block holds nt x nt x m floats where L
    would hold s x s = (nt nx)^2, and cells the nx x nx cells of the ball.
    Any square L is the case nt = 1 with one cell per entry.

    The forms that read L by rows (`offsets`, `take`, `blocks`) are built
    on the first such read: the matched path of `_moduli` reads block and
    cells alone."""

    def __init__(self, block: np.ndarray, cells: np.ndarray):
        self.block, self.cells = block, cells
        self.size = block.shape[0] * cells.shape[0]

    @cached_property
    def _rows(self):
        """(flats, p, x, cols): the block flat as `take` reads it, as it is
        and with a spacelike entry (L < 0) at +inf for a min and at -inf
        for a max over the causal pairs, which then cannot take it; each
        state's time row offset p and ball point x; and the offsets cols
        of row (p = 0, x) in the block, so L[u] lies at p_u + cols[x_u]."""
        nt, nx, m = self.block.shape[0], self.cells.shape[0], self.block.shape[2]
        flat = self.block.reshape(-1)   # a copy when the block is a cut
        causal = flat >= 0.0
        flats = {None: flat,
                 math.inf: np.where(causal, flat, math.inf),
                 -math.inf: np.where(causal, flat, -math.inf)}
        p, x = np.divmod(np.arange(self.size), nx)
        cols = (np.arange(nt)[None, :, None] * m
                + self.cells[:, None, :]).reshape(nx, self.size)
        return flats, p * (nt * m), x, cols

    @classmethod
    def of(cls, cone: GeneralizedCone, level: CoverLevel, outer=None):
        """The separations of the cone's states on a cover level, which
        must be the product of its time rows and its fiber ball.  Its cover
        block comes from one kernel call cut at t_hi (`lower_block`), or is
        cut from outer = (block, level), the cover block of an enclosing
        level of the same cone (`build_cover`'s levels are nested): rows
        cut at a later time hold the earlier cut as their prefix, so the
        entries are the table's bit for bit either way."""
        ball = level.fiber_idx
        if outer is None:
            block = cone.lower_block(level.t_lo, level.t_hi)
        else:
            block, lv = outer
            cut = slice(level.t_lo - lv.t_lo, level.t_hi + 1 - lv.t_lo)
            block = block[cut, cut]
        return cls(block, cone._fiber_cells[False][np.ix_(ball, ball)])

    def offsets(self, u, out=None):
        """Where the entries of L[u] lie in the block, for the states u (a
        slice or an index array): an intp array of len(u) x s."""
        _, p, x, cols = self._rows
        out = np.take(cols, x[u], axis=0, out=out, mode="clip")
        return np.add(out, p[u][:, None], out=out)

    def take(self, at, out=None, spacelike=None):
        """The entries of L at the block offsets `at`, one gather; a
        spacelike one reads as `spacelike`, +inf or -inf, unless None."""
        return np.take(self._rows[0][spacelike], at, out=out, mode="clip")

    def blocks(self):
        """(b, L[b]) for each block b of `_blocks(s)`, in order, gathered
        into arrays reused from block to block."""
        out, at = _buffers(self.size, self.size, float, np.intp)
        for b in _blocks(self.size):
            r = b.stop - b.start
            yield b, self.take(self.offsets(b, at[:r]), out[:r])


def _neighbours(D, delta, first: int = 0, whole=None):
    """The neighbours (nbr, cost) of every row of D within delta, in n
    slots, the most that any row fills.  A row's slots past its own count
    hold column 0 at cost +inf.

    One rule per row: a row with at most NEIGHBOR_CAP entries within delta
    keeps them all, in column order; a row with more keeps its
    NEIGHBOR_CAP nearest, cut from an argsort of that whole row.  So a
    row's neighbours depend on that row only, and a search over a block of
    rows finds what the search over all of them finds.

    D may hold a window of the columns, first, first + 1, ..., that holds
    every entry of its rows within delta; nbr counts columns of the whole
    row.  Then whole(over) must give the whole rows `over` of D, read for
    the crowded rows only: an argsort over fewer columns can order ties
    differently.  By default D is whole."""
    within = D <= delta
    count = within.sum(axis=1)
    over = np.flatnonzero(count > NEIGHBOR_CAP)
    within[over] = False
    count[over] = 0
    n = NEIGHBOR_CAP if over.size else int(count.max(initial=0))
    rows, cols = np.nonzero(within)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    nbr = np.zeros((D.shape[0], n), dtype=np.intp)
    cost = np.full((D.shape[0], n), math.inf)
    nbr[rows, slot] = cols + first
    cost[rows, slot] = D[rows, cols]
    if over.size:
        crowded = D[over] if whole is None else whole(over)
        nbr[over] = np.argsort(crowded, axis=1)[:, :NEIGHBOR_CAP]
        cost[over] = np.take_along_axis(crowded, nbr[over], axis=1)
    return nbr, cost


def _search(seq: ConeSequence, i: int, k: int, delta: float,
            limit_side: bool):
    """`_neighbours` of every row of the cross metric D of member i on the
    k-th cover: the member states' neighbours among the limit's, or, when
    limit_side, the limit states' among the member's (the rows of D.T).

    Searched one time row of states at a time.  The states are time-major
    and D = |dt| + (max f) * d_fiber, whose second term is >= 0, so, as
    rounding is monotone, D > delta wherever the computed |dt| > delta.  A
    time row computes D only on the other side's time rows with
    |dt| <= delta (a window of columns, in ascending order), and a crowded
    row reads its whole row: a search over whole rows would make an s x s
    array.  `_moduli` takes this search only when the neighbourhoods are
    not a matching (`_matching`)."""
    lv_i, lv_l = seq.covers[i][k - 1], seq.covers[-1][k - 1]
    dt = np.abs(seq.cones[i].f.ts[lv_i.time_indices][:, None]
                - seq.limit.f.ts[lv_l.time_indices][None, :])
    nx, nx_other = lv_i.fiber_idx.size, lv_l.fiber_idx.size
    if limit_side:
        dt, nx, nx_other = dt.T, nx_other, nx

    def metric(rows, cols):
        if limit_side:
            return _cross_metric(seq, i, k, cols, rows).T
        return _cross_metric(seq, i, k, rows, cols)

    s, s_other = dt.shape[0] * nx, dt.shape[1] * nx_other
    nbr = np.zeros((s, NEIGHBOR_CAP), dtype=np.intp)
    cost = np.full((s, NEIGHBOR_CAP), math.inf)
    width = 0
    for p, near in enumerate(dt <= delta):
        q = np.flatnonzero(near)
        if not q.size:
            continue
        rows = np.arange(p * nx, (p + 1) * nx)
        cols = slice(q[0] * nx_other, (q[-1] + 1) * nx_other)
        found = _neighbours(
            metric(rows, cols), delta, cols.start,
            None if cols.stop - cols.start == s_other
            else lambda over: metric(rows[over], slice(None)))
        n = found[0].shape[1]
        nbr[rows, :n], cost[rows, :n] = found
        width = max(width, n)
    return nbr[:, :width], cost[:, :width]


def _joint_extrema(L, nbr, cost, delta, want_max: bool = True):
    """(b, min, max) for each block b of `_blocks` over the rows of nbr,
    in order: the min and max of L[u, v] over joint neighbour pairs within
    delta, for every row pair (a, b) with a in the block: u and v range
    over the neighbours (nbr, cost) of rows a and b from `_neighbours`,
    with cost[a, u] + cost[b, v] <= delta, and L is `_CoverSeparations`.
    The max is None unless wanted.  Both hold one row per a in the block
    and are reused, with every other array, from block to block, so a
    pass takes O(MODULUS_BLOCK x s) memory; min and max are exact, so a
    block's rows equal the whole's.  Per slot of a, one gather reads the
    rows of L it needs; per slot of b, one take reads their columns.

    Only causal target pairs (L >= 0) count: the source definition
    compares against nearby separation values, and a spacelike neighbor
    carries no finite value to compare with (even the identical sequence
    has spacelike pairs arbitrarily close to null ones).  A row pair with
    no such pair gets (+inf, -inf); L holds finite values or -inf, so
    min < inf, like max > -inf, says a pair was found.  So the rows of
    a slot of a are read with a spacelike entry at +inf for the min and at
    -inf for the max, which neither can take (`_CoverSeparations.take`):
    no slot pair needs a causal mask.

    A slot pair whose largest costs sum to at most delta skips the
    joint-cost mask: rounding is monotone, so every joint cost of the
    pair is then within delta (a +inf slot never is)."""
    s, n = nbr.shape
    # per block: min, L at one slot pair, joint cost of one slot pair, its
    # mask; the offsets of the L rows of one slot of a, those rows for the
    # min; the max and those rows for it
    work = _buffers(s, s, float, float, float, bool)
    at_all, Lmin = _buffers(s, L.size, np.intp, float)
    if want_max:
        [highs], [Lmax] = _buffers(s, s, float), _buffers(s, L.size, float)
    top_b = cost.max(axis=0, initial=-math.inf)
    cols = np.ascontiguousarray(nbr.T)
    for blk in _blocks(s):
        r = blk.stop - blk.start
        lo, vals, joint, ok = (w[:r] for w in work)
        lo.fill(math.inf)
        if want_max:
            hi = highs[:r]
            hi.fill(-math.inf)
        rn, rc = nbr[blk], cost[blk]
        top_a = rc.max(axis=0, initial=-math.inf)
        for a in range(n):
            at = L.offsets(rn[:, a], at_all[:r])
            La = L.take(at, Lmin[:r], math.inf)
            if want_max:
                Lx = L.take(at, Lmax[:r], -math.inf)
            for b in range(n):
                within = True
                if top_a[a] + top_b[b] > delta:
                    np.add(rc[:, a][:, None], cost[:, b][None, :], out=joint)
                    within = np.less_equal(joint, delta, out=ok)
                np.take(La, cols[b], axis=1, out=vals, mode="clip")
                np.minimum(lo, vals, out=lo, where=within)
                if want_max:
                    np.take(Lx, cols[b], axis=1, out=vals, mode="clip")
                    np.maximum(hi, vals, out=hi, where=within)
        yield blk, lo, hi if want_max else None


def _matching(seq: ConeSequence, i: int, k: int, delta: float):
    """The cost |dt| of each time row's matched pair when delta leaves
    every state of member i and of the limit on the k-th cover exactly one
    neighbour in the cross metric D, its matched state; else None.  A
    member state (p, x) is matched with limit state (p, witness image of
    x), both counted from the cover's first row.

    The neighbourhoods are that matching when
    - the witness is one-to-one onto the limit ball;
    - its fiber term, (max f) * d_fiber, is 0.0 on a point and above delta
      between distinct points: rounding is monotone, so D > delta off the
      matched point whatever dt, and D = |dt| on it;
    - each cover time row has exactly one row of the other side with
      |dt| <= delta.  Both grids increase, so such a pairing cannot cross:
      it pairs the rows in order.
    So a matched pair's cost depends on its time row alone, and `_search`
    would find these neighbours at these costs."""
    lv_i, lv_l = seq.covers[i][k - 1], seq.covers[-1][k - 1]
    to_limit, _ = seq.fiber_maps[(i, k)]
    ball = lv_l.fiber_idx
    fiber = lv_l.fmax * seq.limit.X.dist[np.ix_(ball, ball)]
    eye = np.eye(ball.size, dtype=bool)
    if to_limit.size != ball.size or np.unique(to_limit).size != ball.size \
            or not np.array_equal(fiber <= delta, eye) or fiber[eye].any():
        return None
    dt = np.abs(seq.cones[i].f.ts[lv_i.time_indices][:, None]
                - seq.limit.f.ts[lv_l.time_indices][None, :])
    if not np.array_equal(dt <= delta, np.eye(len(dt), dtype=bool)):
        return None
    return np.diagonal(dt)


def _report(i, k, levels, delta, eps1, unmatched, top, eps2, inclusion2,
            unmatched2):
    """The `ConvergenceModulus` of each level from a modulus pass's
    outputs: eps1 and property (1)'s unmatched count, the limit's largest
    separation top, and per level eps2, inclusion 2 and property (2)'s
    unmatched count."""
    return [ConvergenceModulus(
        i=i, k=k, l=l, delta=float(delta), eps1=eps1, eps2=e2,
        inclusion1=True, inclusion2=inc2, level_set_empty=top < 1.0 / l,
        unmatched_pairs=unmatched + unmatched_l)
        for l, e2, inc2, unmatched_l in zip(
            levels, eps2, inclusion2, unmatched2)]


def _moduli(seq: ConeSequence, i: int, k: int, levels, delta: float, Ll,
            Li=None):
    """`uniform_modulus` of member i at cover level k for every threshold
    level l in `levels`: the cross metric, Li, the neighbourhoods and eps1
    depend only on (i, k) and delta.  Ll and Li are the limit's and the
    member's `_CoverSeparations` at level k (Li by default from one kernel
    call).

    When delta makes the neighbourhoods a matching (`_matching`), as
    `ell_converge_check`'s delta does when a member shares the limit's
    time grid and fiber, the moduli come from cell pairs
    (`_matched_moduli`); otherwise, at a crowded delta such as
    `default_delta` or under a witness that is not one-to-one, from the
    neighbour searches (`_searched_moduli`).  Both give the same floats.

    Remark inclusion 1 is property (1)'s consequence, so it is reported
    True, not evaluated.  At the level its proof yields it reads: every
    member pair with l_i >= 1/l - eps that is found (maxLl > -inf, some
    joint neighbour pair is causal) has maxLl >= 1/l - 2 eps, where eps =
    max(eps1, eps2).  A found pair has maxLl >= minLl >= 0, so this holds
    when 1/l - 2 eps <= 0.  Otherwise l_i >= 1/l - eps > 0 makes the pair
    causal, and eps1 >= l_i - minLl gives maxLl >= minLl >= l_i - eps1 >=
    1/l - 2 eps.  Only rounding could break it; a property test pins it
    against a whole-array evaluation."""
    if Li is None:
        Li = _CoverSeparations.of(seq.cones[i], seq.covers[i][k - 1])
    cost = _matching(seq, i, k, delta)
    if cost is None:
        return _searched_moduli(seq, i, k, levels, delta, Ll, Li)
    return _matched_moduli(seq, i, k, levels, delta, Ll, Li, cost)


def _matched_moduli(seq: ConeSequence, i: int, k: int, levels,
                    delta: float, Ll, Li, cost):
    """`_moduli` when the neighbourhoods are the matching of `_matching`,
    at the costs it returns.  A pair's joint neighbour pair is then its
    matched pair, taken when the two costs sum to at most delta, so its
    joint extremum is one separation of the other side, or none when that
    is spacelike.
    A separation depends on fiber points only through their distance cell,
    so both passes depend on a pair only through (time row p, time row q,
    member cell, limit cell): the fiber pairs are grouped by (member cell,
    limit cell of their witness images), with their multiplicities, and
    every output is read from nt x nt x groups arrays, where the searched
    passes read s x s state pairs.  Each output is a max of the same
    differences of the same floats, a count (weighted by multiplicity) or
    an all over the same pairs, so it equals the searched one."""
    to_limit, _ = seq.fiber_maps[(i, k)]
    m = Ll.block.shape[2]
    groups, weight = np.unique(
        Li.cells * m + Ll.cells[np.ix_(to_limit, to_limit)],
        return_counts=True)
    ci, cl = np.divmod(groups, m)
    li = Li.block[:, :, ci]
    ll = Ll.block[:, :, cl]
    near = (cost[:, None] + cost[None, :] <= delta)[:, :, None]
    causal = li >= 0.0
    # a member pair finds its limit pair, and a limit pair its member
    # pair, when the pair is near and that separation causal
    found_l, found_i = near & (ll >= 0.0), near & causal

    def count(mask):
        return int(np.count_nonzero(mask, axis=(0, 1)) @ weight)

    def worst(a, b, where):
        # max(0, a - b over where); the other entries may be -inf - -inf
        return float(np.subtract(a, b, out=np.zeros(a.shape), where=where)
                     .max(initial=0.0))

    eps2, inclusion2, unmatched2 = [], [], []
    for l in levels:
        level = ll >= 1.0 / l
        eps2.append(worst(ll, li, level & found_i))
        unmatched2.append(count(level & ~found_i))
        inclusion2.append(bool(np.all(li >= 1.0 / (2.0 * l),
                                      where=level & found_l)))
    return _report(i, k, levels, delta, worst(li, ll, causal & found_l),
                   count(causal & ~found_l), float(ll.max(initial=-math.inf)),
                   eps2, inclusion2, unmatched2)


def _searched_moduli(seq: ConeSequence, i: int, k: int, levels,
                     delta: float, Ll, Li):
    """`_moduli` from one neighbour search per side.

    No s x s array is made.  Li and Ll are read by rows from their cover
    blocks (`_CoverSeparations`), nt x nt x m floats each.  The neighbour
    searches go by time row (`_search`); all else runs in two passes over
    blocks of at most MODULUS_BLOCK row states, in O(block x s) memory:
    property (2)'s pass over limit rows, then property (1)'s over member
    rows, which also evaluates inclusion 2 on the block's nearby maximum
    maxLl.
    Each block is read once for all levels: its level-invariant masks are
    made once, property (2) reads its levels only when they can change,
    and inclusion 2 stops reading a level once it is False.  Every output
    is a max, a count or an all, exact and independent of the blocks."""
    # i-state -> limit neighbours, and limit-state -> i neighbours
    near_l = _search(seq, i, k, delta, limit_side=False)
    near_i = _search(seq, i, k, delta, limit_side=True)

    # property (2): limit pairs against the member's nearby values.  The
    # gap is -inf where no pair was found, so it never raises the max there
    eps2 = [0.0] * len(levels)
    unmatched2 = [0] * len(levels)
    top = -math.inf
    for (_, Llb), (_, minLi, _) in zip(
            Ll.blocks(), _joint_extrema(Li, *near_i, delta, want_max=False),
            strict=True):
        top = max(top, float(Llb.max()))
        lost = minLi == math.inf
        some_lost = bool(lost.any())
        gap = np.subtract(Llb, minLi, out=minLi)
        # only a gap > 0 raises a level's max, and only a lost pair adds
        # to its count: the levels are read when either occurs
        rises = bool(gap.max(initial=0.0) > 0.0)
        if not (rises or some_lost):
            continue
        for j, l in enumerate(levels):
            level = Llb >= 1.0 / l
            if rises:
                eps2[j] = max(eps2[j], float(np.max(gap, where=level,
                                                    initial=0.0)))
            if some_lost:
                unmatched2[j] += int(np.count_nonzero(level & lost))

    # property (1): member pairs against the limit's nearby values, and
    # remark inclusion 2: the delta-neighborhood of the level set has
    # l_i >= 1/(2l)
    eps1, unmatched = 0.0, 0
    inclusion2 = [True] * len(levels)
    for (_, Lib), (_, minLl, maxLl) in zip(
            Li.blocks(), _joint_extrema(Ll, *near_l, delta), strict=True):
        for j, l in enumerate(levels):
            if inclusion2[j]:
                inclusion2[j] = bool(np.all(Lib >= 1.0 / (2.0 * l),
                                            where=maxLl >= 1.0 / l))
        lost = minLl == math.inf
        causal = Lib >= 0.0
        gap = np.subtract(Lib, minLl, out=minLl)
        eps1 = max(eps1, float(np.max(gap, where=causal, initial=0.0)))
        if lost.any():
            unmatched += int(np.count_nonzero(causal & lost))
    return _report(i, k, levels, delta, eps1, unmatched, top, eps2,
                   inclusion2, unmatched2)


def _require_cover_level(k, depth: int) -> None:
    """ValueError unless k is an integer cover level, 1 <= k <= depth
    (bools are not): the rule of every k that a check is asked for."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) \
            or not 1 <= k <= depth:
        raise ValueError(f"cover level k={k!r} needs an integer "
                         f"1 <= k <= {depth} (the cover depth)")


def _require_level(k, l, depth: int) -> None:
    """ValueError unless k is a cover level (`_require_cover_level`) and
    l a number > 0 (bools are not): the rule of every (k, l) that a
    modulus is asked for."""
    _require_cover_level(k, depth)
    if isinstance(l, bool) or not isinstance(l, numbers.Real) or not l > 0:
        raise ValueError(f"threshold level l={l!r} needs a number l > 0")


def uniform_modulus(seq: ConeSequence, i: int, k: int, l: int,
                    delta: float | None = None) -> ConvergenceModulus:
    """Worst property-(1) excess (eps1) and property-(2) deficiency (eps2)
    of the uniform-convergence definition at cover level k and threshold
    level 1/l, with remark inclusion 2 evaluated and inclusion 1 reported
    as property (1)'s consequence (`_moduli`).  Raises ValueError unless
    i is a member index, (k, l) is a schedule entry of
    `ell_converge_check` and delta (default `default_delta`) is a finite
    number >= 0."""
    require_int("member index i", i, 0)
    if i >= len(seq.cones):
        raise ValueError(f"member index i={i} needs i < {len(seq.cones)} "
                         f"(the number of members)")
    _require_level(k, l, seq.depth)
    if delta is None:
        delta = default_delta(seq, i, k)
    elif isinstance(delta, bool) or not isinstance(delta, numbers.Real) \
            or not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta={delta!r} needs a finite number >= 0")
    return _moduli(seq, i, k, [l], delta,
                   _CoverSeparations.of(seq.limit, seq.covers[-1][k - 1]))[0]


def imprisonment_constants(seq: ConeSequence) -> list:
    """C(k) witnesses: sqrt(2) x time length bounds metric arclength of any
    causal curve in the k-th cover, uniformly over the sequence."""
    out = []
    for k in range(1, seq.depth + 1):
        vals = []
        for i, c in enumerate(seq.cones):
            lv = seq.covers[i][k - 1]
            vals.append(c.imprisonment_bound(lv.t_len, lv.fiber_diam))
        out.append(max(vals) if vals else 0.0)
    return out


def ell_converge_check(seq: ConeSequence, schedule=None) -> dict:
    """Verdict report for ell-convergence of the sequence to its limit:
    (a) covered GH brackets, (b) the uniform non-imprisonment witness,
    (c) uniform-convergence moduli over the (k, l) schedule."""
    if schedule is None:
        schedule = [(k, l) for k in range(1, seq.depth + 1) for l in (1, 2, 4, 8)]
    if not isinstance(schedule, (list, tuple)):
        raise ValueError(f"schedule must be a list of [k, l] entries, "
                         f"got {schedule!r}")
    for entry in schedule:
        pair = isinstance(entry, (list, tuple)) and len(entry) == 2
        try:
            _require_level(*(entry if pair else (None, None)), seq.depth)
        except ValueError:
            raise ValueError(f"schedule entry {entry!r} needs an integer k, "
                             f"1 <= k <= {seq.depth} (the cover depth), and "
                             f"a number l > 0") from None
    nlast = len(seq.cones) - 1
    gh = {k: covered_gh(seq, k) for k in range(1, seq.depth + 1)}
    # one modulus pass per (i, k) serves every level l scheduled at k
    levels = {k: list(dict.fromkeys(l for kk, l in schedule if kk == k))
              for k, _ in schedule}

    def separations(cone, cover):
        # every scheduled level's block cut from one block at the deepest:
        # the levels are nested, so its box holds each smaller one's
        deep = cover[max(levels) - 1]
        outer = (cone.lower_block(deep.t_lo, deep.t_hi), deep)
        return {k: _CoverSeparations.of(cone, cover[k - 1], outer)
                for k in levels}

    found = {}
    Ll = separations(seq.limit, seq.covers[-1])
    for i, c in enumerate(seq.cones):
        Li = separations(c, seq.covers[i])
        for k in levels:
            # verdicts compare transported states, so the neighborhood only
            # needs to absorb the witness misalignment: a macroscopic delta
            # would fold in the delta-oscillation of the separation near the
            # light cone, which does not shrink along the sequence
            d = seq.alignment[(i, k)] * (1 + 1e-9) + 1e-9
            # a member's level is read once: drop its read forms after it
            for m in _moduli(seq, i, k, levels[k], d, Ll[k], Li.pop(k)):
                found[(i, k, m.l)] = m
    del Ll
    moduli = {(i, k, l): found[(i, k, l)]
              for k, l in schedule for i in range(len(seq.cones))}
    dt = float(np.diff(seq.limit.f.ts).max())
    pass_scale = max(2.0 * dt, seq.limit.bracket_width(),
                     seq.cones[nlast].bracket_width())
    last_moduli = [max(m.eps1, m.eps2) for key, m in moduli.items()
                   if key[0] == nlast]
    last_gh_upper = max(gh[k][nlast][1] for k in gh)
    last_gh_lower = max(gh[k][nlast][0] for k in gh)
    worst_last = max(last_moduli, default=0.0)
    # persistent excess: the worst modulus over each of the last two indices
    per_index_worst = {}
    for (i, k, l), m in moduli.items():
        per_index_worst[i] = max(per_index_worst.get(i, 0.0), m.eps1, m.eps2)
    tail = [per_index_worst[i] for i in sorted(per_index_worst)[-2:]]
    # a certified GH lower bound above resolution scale that never decays
    # witnesses divergence regardless of how poor the upper witness is
    gh_lower_stuck = any(
        gh[k][nlast][0] > pass_scale
        and gh[k][nlast][0] >= max(lo for lo, _ in gh[k]) - 1e-12
        for k in gh)
    # PASS: the last index lies within bracket scale; FAIL: a stuck GH lower
    # bound or a persistent excess beyond 10x bracket scale
    pessimistic = pass_scale - max(worst_last, last_gh_upper)
    optimistic = -math.inf if gh_lower_stuck else \
        10.0 * pass_scale - max(last_gh_lower, min(tail, default=0.0))
    return {
        "verdict": verdict(optimistic, pessimistic, 0.0),
        "pass_scale": pass_scale,
        "gh_brackets": {str(k): v for k, v in gh.items()},
        "imprisonment_C": imprisonment_constants(seq),
        "moduli": {f"{i},{k},{l}": {"eps1": m.eps1, "eps2": m.eps2,
                                    "inc1": m.inclusion1, "inc2": m.inclusion2,
                                    "delta": m.delta,
                                    "level_set_empty": m.level_set_empty}
                   for (i, k, l), m in moduli.items()},
        "theorem_conditions": {f"{i},{k}": v
                               for (i, k), v in seq.conditions.items()},
    }


def _w1(src, dst, X: FiniteMetricSpace, fmax: float) -> float:
    """W1 between the atoms src = (times, fiber points of X, masses) and
    dst for the cost |t - t'| + fmax * d_X(x, x').  That cost is the
    shortest-path metric of the product of the time path through both
    grids and the essential edges of the fiber points in use, so W1 is a
    min-cost flow on that graph (Beckmann's formulation)."""
    (t0, x0, a), (t1, x1, b) = src, dst
    times, tin = np.unique(np.concatenate([t0, t1]), return_inverse=True)
    pts, xin = np.unique(np.concatenate([x0, x1]), return_inverse=True)
    nt, nx = times.size, pts.size
    supply = np.zeros(nt * nx)
    np.add.at(supply, tin * nx + xin, np.concatenate([a, -b]))
    ea, ec = FiniteMetricSpace(X.dist[np.ix_(pts, pts)]).essential_edges()
    node = np.arange(nt * nx).reshape(nt, nx)
    tails = np.concatenate([node[:-1].ravel(), node[:, ea].ravel()])
    heads = np.concatenate([node[1:].ravel(), node[:, ec].ravel()])
    if tails.size == 0:
        return 0.0      # one node, which both measures fill
    cost = np.concatenate([np.repeat(np.diff(times), nx),
                           np.tile(fmax * X.dist[pts[ea], pts[ec]], nt)])
    res = flow_lp(np.concatenate([tails, heads]), np.concatenate([heads, tails]),
                  np.tile(cost, 2), supply)
    if not res.success:
        raise RuntimeError(f"W1 flow LP failed: {res.message}")
    return float(res.fun)


def measured_converge_check(seq: ConeSequence, k: int) -> list:
    """Per-i W1 distances between normalized restricted reference measures
    on every state of the k-th cover, the member's transported into the
    limit cover through the witness correspondence.  Raises ValueError
    unless k is an integer cover level, 1 <= k <= depth."""
    _require_cover_level(k, seq.depth)
    limit = seq.limit
    out = []
    for i, c in enumerate(seq.cones):
        (ti, xi), mapped, (tl, xl) = _cross_states(seq, i, k)
        wi = c.reference_measure()[ti, xi]
        wl = limit.reference_measure()[tl, xl]
        out.append(_w1((c.f.ts[ti], mapped, wi / wi.sum()),
                       (limit.f.ts[tl], xl, wl / wl.sum()),
                       limit.X, seq.covers[-1][k - 1].fmax))
    return out


def precompact_harness(cones, K: float, D: float, depth: int = 2) -> dict:
    """Normalize, certify the log-slope bound, extract a grid-wise limit
    candidate (normalized warpings within CLUSTER_TOL of each other cluster
    together), and run the ell-convergence check on the selected
    subsequence.  Each normalized cone keeps its input cone's N.  Raises
    ValueError unless cones is non-empty, K is a finite number and D a
    number > 0 (bools are not)."""
    if not cones:
        raise ValueError("cones needs at least one cone")
    if isinstance(K, bool) or not isinstance(K, numbers.Real) \
            or not math.isfinite(K):
        raise ValueError(f"curvature bound K={K!r} needs a finite number")
    if isinstance(D, bool) or not isinstance(D, numbers.Real) or not D > 0:
        raise ValueError(f"diameter bound D={D!r} needs a number D > 0")
    for idx, c in enumerate(cones):
        span = c.f.b - c.f.a
        if span > D + 1e-12:
            raise ValueError(f"cone {idx}: interval length {span:.4g} exceeds D={D}")
        if K > 0 and span > pi_kappa(K) + 1e-12:
            raise ValueError(f"cone {idx}: interval longer than pi_K, no "
                             f"positive FK-concave profile exists")
    normalized = []
    for idx, c in enumerate(cones):
        rep = fk_concavity(c.f, K)
        if not rep.is_concave:
            j = int(np.argmax(rep.residuals))
            raise ValueError(
                f"cone {idx} not FK-concave: residual "
                f"{rep.max_violation:.3g} at t={c.f.ts[1 + j]:.4g}")
        g, _, ok = normalize_and_bound(c.f, K)
        if not ok:
            ls, bound = log_slopes(g), log_slope_bound(g, K)
            j = int(np.argmax(ls - bound))
            raise SlopeBoundViolated(
                f"cone {idx}: log-slope {ls[j]:.4g} exceeds bound "
                f"{bound[j]:.4g} at t={g.ts[1 + j]:.4g}")
        normalized.append(GeneralizedCone(g, c.X, N=c.N,
                                          dist_steps=c.dist_steps,
                                          window=c.window))
    # grid-wise selection: at the first undecided grid point keep the
    # cluster containing the earliest selected index
    vals = np.stack([nc.f.vals for nc in normalized])
    selected = list(range(len(normalized)))
    for j in range(vals.shape[1]):
        col = vals[selected, j]
        if col.max() - col.min() <= CLUSTER_TOL:
            continue
        anchor = vals[selected[0], j]
        selected = [i for i in selected if abs(vals[i, j] - anchor) <= CLUSTER_TOL]
    limit_f = WarpingFunction(normalized[selected[-1]].f.ts,
                              vals[selected[-1]])
    last = normalized[selected[-1]]
    limit = GeneralizedCone(limit_f, last.X, N=last.N,
                            dist_steps=last.dist_steps, window=last.window)
    seq = cone_sequence([normalized[i] for i in selected], limit, depth=depth)
    report = ell_converge_check(seq)
    return {"selected": selected, "verdict": report["verdict"],
            "ell_report": report,
            "limit_warp": limit_f.to_json()}


def tangent_cone(cone: GeneralizedCone, point, eps_list, frame: float = 1.0,
                 time_steps: int = 40, depth: int = 2) -> dict:
    """Rescale around an interior point by each eps, compare against the
    constant-warping product candidate, and report whether the rescaled
    warpings flatten at rate 2*eps (up to 1e-3)."""
    if not eps_list or not all(math.isfinite(e) and e > 0 for e in eps_list):
        raise ValueError(f"eps values must be positive and finite, got "
                         f"{list(eps_list)}")
    ti, xi = int(point[0]), int(point[1])
    if ti <= 0 or ti >= cone.f.n - 1:
        raise BoundaryPoint("tangent point must be an interior grid point")
    t0 = float(cone.f.ts[ti])
    f0 = float(cone.f.vals[ti])
    if f0 <= 0.0:
        raise BoundaryPoint("warping vanishes at the requested point")
    eps_list = sorted(eps_list, reverse=True)
    room = min(t0 - cone.f.a, cone.f.b - t0)
    centred = FiniteMetricSpace(cone.X.dist, xi)
    rescaled = []
    devs = []
    for eps in eps_list:
        fr = min(frame, room / eps)
        sgrid = np.linspace(-fr, fr, time_steps + 1)
        gvals = cone.f(t0 + eps * sgrid)
        g = WarpingFunction(sgrid, np.maximum(gvals, 1e-12))
        ball = ball_subspace(centred, eps * (2.0 ** depth))
        Xe = FiniteMetricSpace(ball.dist / eps, ball.base)
        rescaled.append(GeneralizedCone(g, Xe, N=cone.N,
                                        dist_steps=max(1, Xe.n - 1) if Xe.n > 1 else None,
                                        window=cone.window))
        devs.append(float(np.abs(gvals - f0).max()))
    sgrid = rescaled[-1].f.ts
    limit = GeneralizedCone(WarpingFunction(sgrid, np.full(sgrid.size, f0)),
                            FiniteMetricSpace(np.zeros((1, 1)), 0),
                            N=cone.N, window=cone.window)
    flat_ok = all(dev <= 2.0 * eps + 1e-3
                  for dev, eps in zip(devs, eps_list))
    seq = cone_sequence(rescaled, limit, depth=depth)
    report = ell_converge_check(seq)
    return {"eps": list(eps_list), "warp_deviation": devs,
            "flattening_ok": flat_ok, "limit_warp_value": f0,
            "fiber_tangent_points": int(rescaled[-1].X.n),
            "ell_report": report,
            "verdict": report["verdict"] if flat_ok else "FAIL"}

"""Covered GH brackets, uniform-convergence moduli, and cone-sequence checks.

A cone sequence holds per-index cones, a candidate limit, exhausting covers
(time sub-intervals x fiber balls of radius 2^k), and one witness
correspondence per (i, k): the base grids matched index-affinely and the
fiber balls matched through a GH witness.  All delta-neighborhood
statements are evaluated against an explicit product proxy metric on the
limit side, |dt| + (max f) * d_fiber; the witness distortion is recorded
separately.  Quantification over all epsilon-isometries is thereby
weakened to the single recorded witness.

Verdicts are threshold-based: a finite harness certifies trends, so PASS
requires the moduli to fall below bracket scale at the largest index, FAIL
requires a persistent excess beyond 10x bracket scale, everything else is
INCONCLUSIVE.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cone import GeneralizedCone, require_int
from .errors import BoundaryPoint, SlopeBoundViolated
from .kappa import pi_kappa
from .metricspace import (FiniteMetricSpace, ball_indices, ball_subspace,
                          gh_distance)
from .transport import flow_lp
from .warp import (WarpingFunction, fk_concavity, log_slope_bound, log_slopes,
                   normalize_and_bound)

NEIGHBOR_CAP = 12   # nearest neighbours per state in a modulus search
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


def _transported(seq: ConeSequence, i: int, k: int):
    """The `_cross_states` of cone i and the limit on the k-th cover, and
    the cross metric D[a, b] between i-state a, carried into the limit, and
    limit state b, in the limit-side proxy |dt| + (max f) * d_fiber."""
    cone, limit = seq.cones[i], seq.limit
    (ti, xi), mapped, (tl, xl) = _cross_states(seq, i, k)
    D = (np.abs(cone.f.ts[ti][:, None] - limit.f.ts[tl][None, :])
         + seq.covers[-1][k - 1].fmax * limit.X.dist[np.ix_(mapped, xl)])
    return (ti, xi), (tl, xl), D


def _limit_separations(seq: ConeSequence, k: int):
    """Lower-table separations between every pair of limit states on the
    k-th cover; the same for every member i."""
    tl, xl = _states(seq.limit, seq.covers[-1][k - 1])
    return seq.limit.separations((tl[:, None], xl[:, None]), (tl, xl))


def _neighbours(D, delta):
    """The NEIGHBOR_CAP nearest neighbours of every row of D and their
    costs, +inf past delta.  Each row's costs ascend, so only the first n
    slots, the most that any row fills within delta, are kept: copied, so
    that the full s x s argsort is freed on return."""
    nbr = np.argsort(D, axis=1)[:, :NEIGHBOR_CAP]
    cost = np.take_along_axis(D, nbr, axis=1)
    cost[~(cost <= delta)] = math.inf
    n = int(np.isfinite(cost).sum(axis=1).max(initial=0))
    return nbr[:, :n].copy(), cost[:, :n].copy()


def _joint_extrema(L, nbr, cost, delta, want_max: bool = True):
    """(min, max) of L[u, v] over joint neighbour pairs within delta, for
    every row pair (a, b): u and v range over the neighbours (nbr, cost)
    of rows a and b from `_neighbours`, with cost[a, u] + cost[b, v] <=
    delta.  The max is None unless wanted.

    Only causal target pairs (L >= 0) count: the source definition
    compares against nearby separation values, and a spacelike neighbor
    carries no finite value to compare with (even the identical sequence
    has spacelike pairs arbitrarily close to null ones).  A row pair with
    no such pair gets (+inf, -inf); L holds finite values or -inf, so
    min < inf says a pair was found."""
    s, n = nbr.shape
    lo = np.full((s, s), math.inf)
    hi = np.full((s, s), -math.inf) if want_max else None
    joint = np.empty((s, s))    # joint cost of one slot pair, reused
    ok = np.empty((s, s), dtype=bool)
    for a in range(n):
        for b in range(n):
            vals = L[np.ix_(nbr[:, a], nbr[:, b])]
            np.add(cost[:, a][:, None], cost[:, b][None, :], out=joint)
            np.less_equal(joint, delta, out=ok)
            ok &= vals >= 0.0
            np.minimum(lo, vals, out=lo, where=ok)
            if want_max:
                np.maximum(hi, vals, out=hi, where=ok)
    return lo, hi


def _moduli(seq: ConeSequence, i: int, k: int, levels, delta: float, Ll):
    """`uniform_modulus` of member i at cover level k for every threshold
    level l in `levels`, all from one neighbour search per side: the cross
    metric, Li, both searches and eps1 depend only on (i, k) and delta.
    Ll is `_limit_separations(seq, k)`.

    Each s x s intermediate is dropped as soon as it is spent, and the
    property-(2) side, which needs only a min, runs first, so at most six
    s x s float arrays (Ll included) and a few boolean masks are alive at
    once."""
    (ti, xi), _, D = _transported(seq, i, k)
    near_l = _neighbours(D, delta)      # i-state -> limit neighbours
    near_i = _neighbours(D.T, delta)    # limit-state -> i neighbours
    del D
    Li = seq.cones[i].separations((ti[:, None], xi[:, None]), (ti, xi))

    # property (2): limit pairs against the member's nearby values
    minLi, _ = _joint_extrema(Li, *near_i, delta, want_max=False)
    have_l = minLi < math.inf
    gap = np.subtract(Ll, minLi, out=minLi)
    part2 = []
    for l in levels:
        level = Ll >= 1.0 / l
        part2.append((float(np.max(gap, where=level & have_l, initial=0.0)),
                      int(np.count_nonzero(level & ~have_l)),
                      not bool(level.any())))
    del minLi, gap

    # property (1): member pairs against the limit's nearby values
    minLl, maxLl = _joint_extrema(Ll, *near_l, delta)
    have_i = minLl < math.inf
    causal = Li >= 0.0
    gap = np.subtract(Li, minLl, out=minLl)
    eps1 = float(np.max(gap, where=causal & have_i, initial=0.0))
    unmatched = int(np.count_nonzero(causal & ~have_i))
    del minLl, gap

    out = []
    for l, (eps2, unmatched_l, ls_empty) in zip(levels, part2):
        eps = max(eps1, eps2)
        # remark inclusion 1, at the level its proof actually yields:
        # {l_i >= 1/l - eps} lies within delta of {l_lim >= 1/l - 2 eps}
        inclusion1 = bool(np.all(maxLl >= 1.0 / l - 2.0 * eps,
                                 where=(Li >= 1.0 / l - eps) & have_i))
        # remark inclusion 2: delta-neighborhood of the level set has
        # l_i >= 1/(2l)
        inclusion2 = bool(np.all(Li >= 1.0 / (2.0 * l),
                                 where=maxLl >= 1.0 / l))
        out.append(ConvergenceModulus(
            i=i, k=k, l=l, delta=float(delta), eps1=eps1, eps2=eps2,
            inclusion1=inclusion1, inclusion2=inclusion2,
            level_set_empty=ls_empty,
            unmatched_pairs=unmatched + unmatched_l))
    return out


def uniform_modulus(seq: ConeSequence, i: int, k: int, l: int,
                    delta: float | None = None) -> ConvergenceModulus:
    """Worst property-(1) excess (eps1) and property-(2) deficiency (eps2)
    of the uniform-convergence definition at cover level k and threshold
    level 1/l, with the two remark set-inclusions evaluated at the achieved
    epsilon."""
    if delta is None:
        delta = default_delta(seq, i, k)
    return _moduli(seq, i, k, [l], delta, _limit_separations(seq, k))[0]


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
        k, l = entry if pair else (None, None)
        numeric = (isinstance(k, numbers.Integral) and isinstance(l, numbers.Real)
                   and not isinstance(k, bool) and not isinstance(l, bool))
        if not (numeric and 1 <= k <= seq.depth and l > 0):
            raise ValueError(f"schedule entry {entry!r} needs an integer k, "
                             f"1 <= k <= {seq.depth} (the cover depth), and "
                             f"a number l > 0")
    nlast = len(seq.cones) - 1
    gh = {k: covered_gh(seq, k) for k in range(1, seq.depth + 1)}
    # one neighbour search per (i, k) serves every level l scheduled at k
    found = {}
    for k in dict.fromkeys(k for k, _ in schedule):
        levels = list(dict.fromkeys(l for kk, l in schedule if kk == k))
        Ll = _limit_separations(seq, k)
        for i in range(len(seq.cones)):
            # verdicts compare transported states, so the neighborhood only
            # needs to absorb the witness misalignment: a macroscopic delta
            # would fold in the delta-oscillation of the separation near the
            # light cone, which does not shrink along the sequence
            d = seq.alignment[(i, k)] * (1 + 1e-9) + 1e-9
            for m in _moduli(seq, i, k, levels, d, Ll):
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
    worst_last = max(last_moduli) if last_moduli else 0.0
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
    if gh_lower_stuck or last_gh_lower > 10.0 * pass_scale \
            or (tail and min(tail) > 10.0 * pass_scale):
        verdict = "FAIL"
    elif worst_last <= pass_scale and last_gh_upper <= pass_scale:
        verdict = "PASS"
    else:
        verdict = "INCONCLUSIVE"
    return {
        "verdict": verdict,
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
    limit cover through the witness correspondence."""
    if not 1 <= k <= seq.depth:
        raise ValueError(f"cover level k={k} needs 1 <= k <= {seq.depth} "
                         f"(the cover depth)")
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


def precompact_harness(cones, K: float, N: float, D: float,
                       depth: int = 2) -> dict:
    """Normalize, certify the log-slope bound, extract a grid-wise limit
    candidate (normalized warpings within CLUSTER_TOL of each other cluster
    together), and run the ell-convergence check on the selected
    subsequence."""
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
    if not eps_list or min(eps_list) <= 0:
        raise ValueError(f"eps values must be positive, got {list(eps_list)}")
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

"""Scalar warped-product curvature reductions.

A full Ricci (or Riemann) lower bound of the warped product reduces to two
scalar conditions: concavity of the warping against K, and a fiber bound
against the induced constant K_f.  The fiber bound is a declared input (a
finite distance table has no computable smooth curvature); reports say so.
K_f is always recomputed from the warping, never trusted from the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse
from .warp import WarpingFunction, fk_concavity, second_differences


@dataclass(frozen=True)
class CurvatureReductionReport:
    K: float
    n: int
    fiber_bound: float
    fiber_bound_kind: str      # 'ric' or 'sec', declared by the caller
    cond1_concave: bool
    cond2_fiber: bool
    Kf: float
    max_violation: float
    verdict: bool

    def to_json(self):
        return {"K": self.K, "n": self.n, "fiberBound": self.fiber_bound,
                "fiberBoundKind": self.fiber_bound_kind,
                "cond1": self.cond1_concave, "cond2": self.cond2_fiber,
                "Kf": self.Kf, "maxViolation": self.max_violation,
                "verdict": self.verdict,
                "note": "fiber bound is a declared input, not computed"}


def _kf_bias_allowance(f: WarpingFunction, K: float) -> float:
    """One-sided difference quotients bias the slope by O(h), hence K_f by
    O(h * (|K| f + |f'|) * scale); the fiber comparison absorbs it."""
    h = float(np.diff(f.ts).max())
    m = max(f.max(), 1.0)
    return 2.0 * h * (1.0 + abs(K)) * m * m


def _reduction(f: WarpingFunction, K: float, n: int, scale: int,
               bound: float, kind: str) -> CurvatureReductionReport:
    """FK-concavity of f plus the declared fiber bound against
    scale * (K_f - bias allowance)."""
    if f.n < 3:
        raise GridTooCoarse("need at least 3 grid points")
    rep = fk_concavity(f, K)
    c2tol = _kf_bias_allowance(f, K)
    cond2 = bound >= scale * rep.Kf - scale * c2tol - 1e-9
    return CurvatureReductionReport(
        K=float(K), n=int(n), fiber_bound=float(bound),
        fiber_bound_kind=kind, cond1_concave=rep.is_concave,
        cond2_fiber=bool(cond2), Kf=rep.Kf,
        max_violation=rep.max_violation,
        verdict=bool(rep.is_concave and cond2))


def ricci_reduction(f: WarpingFunction, K: float, n: int,
                    fiber_ric_bound: float) -> CurvatureReductionReport:
    """Full Ricci lower bound >= nK of the warped product over an
    n-dimensional fiber: FK-concavity plus fiber Ricci >= (n-1) K_f."""
    return _reduction(f, K, n, n - 1, fiber_ric_bound, "ric")


def sectional_reduction(f: WarpingFunction, K: float,
                        fiber_sec_bound: float) -> CurvatureReductionReport:
    """Riemann lower bound of the warped product: FK-concavity plus fiber
    sectional curvature >= K_f.  Not monotone in K: passing at K says
    nothing about K' < K (K_f grows as K decreases)."""
    return _reduction(f, K, 0, 1, fiber_sec_bound, "sec")


def oneill_diagnostics(f: WarpingFunction, n: int):
    """Warped-product Ricci coefficients at interior grid points.

    Returns (time-time term -n f''/f, mixed term 0, tangential coefficient
    f''/f + (n-1) (f')^2/f^2) plus a near-zero-division flag array."""
    if f.n < 3:
        raise GridTooCoarse("need at least 3 grid points")
    fpp = second_differences(f)
    mid = f.vals[1:-1]
    fp = (f.vals[2:] - f.vals[:-2]) / (f.ts[2:] - f.ts[:-2])
    flagged = mid < 1e-8
    safe = np.where(flagged, 1.0, mid)
    tt = -n * fpp / safe
    tang = fpp / safe + (n - 1) * (fp / safe) ** 2
    return {
        "t": f.ts[1:-1],
        "time_time": tt,
        "mixed": np.zeros_like(tt),
        "tangential": tang,
        "division_near_zero": flagged,
    }



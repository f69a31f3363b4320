"""Warping functions on a closed interval: slopes, concavity, normalization.

A warping function is a nonnegative sampled profile on [a, b], piecewise
linear between samples, positive on the interior unless identically zero.
The local slope at a grid point is max{forward quotient, -backward
quotient, 0}; one-sided conventions at the endpoints make the slope vanish
at boundary maxima.  The concavity checker evaluates the discrete
f'' + K f residual on the (possibly non-uniform) 3-point stencil and the
induced fiber bound K_f = -min(K f^2 + slope^2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, MollifyFailed, ZeroFunction
from .kappa import cot_kappa, pi_kappa


@dataclass(frozen=True)
class WarpingFunction:
    ts: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        vals = np.asarray(self.vals, dtype=float)
        if ts.ndim != 1 or ts.shape != vals.shape or ts.size < 2:
            raise ValueError("need matching 1-d grids with >= 2 points")
        if not (np.isfinite(ts).all() and np.isfinite(vals).all()):
            raise ValueError("grid times and warping values must be finite")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("grid must be strictly increasing")
        if vals.min() < 0:
            raise ValueError("warping values must be nonnegative")
        if not np.all(vals == 0.0) and vals.size > 2 and vals[1:-1].min() <= 0.0:
            raise ValueError("admissible warping vanishes only at the boundary")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "vals", vals)
        ts.setflags(write=False)
        vals.setflags(write=False)

    @property
    def a(self) -> float:
        return float(self.ts[0])

    @property
    def b(self) -> float:
        return float(self.ts[-1])

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.vals == 0.0))

    @property
    def n(self) -> int:
        return self.ts.size

    def __call__(self, t):
        return np.interp(t, self.ts, self.vals)

    def max(self) -> float:
        return float(self.vals.max())

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b,
                "ts": [float(t) for t in self.ts],
                "vals": [float(v) for v in self.vals]}

    @classmethod
    def from_json(cls, obj) -> "WarpingFunction":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(np.asarray(obj["ts"], float), np.asarray(obj["vals"], float))

    @classmethod
    def from_callable(cls, fn, a: float, b: float, n: int) -> "WarpingFunction":
        ts = np.linspace(a, b, n)
        return cls(ts, np.maximum(np.asarray(fn(ts), dtype=float), 0.0))


def slope(f: WarpingFunction, i: int) -> float:
    """Local slope |df| at grid index i, 0 <= i < n (one-sided at the
    endpoints): entry i of `slopes`."""
    i = int(i)
    if not 0 <= i < f.n:
        raise IndexError(f"grid index {i} outside 0..{f.n - 1}")
    return float(slopes(f)[i])


def _one_sided_slopes(ts, vals) -> np.ndarray:
    """max{forward quotient, -backward quotient, 0} of vals at every grid
    point; the missing quotient at an endpoint does not count."""
    dq = np.diff(vals) / np.diff(ts)
    fwd = np.concatenate([dq, [-math.inf]])
    bwd = np.concatenate([[math.inf], dq])
    return np.maximum(np.maximum(fwd, -bwd), 0.0)


def slopes(f: WarpingFunction) -> np.ndarray:
    """Vector of local slopes at all grid points."""
    return _one_sided_slopes(f.ts, f.vals)


def log_slopes(g: WarpingFunction) -> np.ndarray:
    """Local slopes of log g at the interior grid points."""
    return _one_sided_slopes(g.ts, np.log(np.maximum(g.vals, 1e-300)))[1:-1]


def second_differences(f: WarpingFunction) -> np.ndarray:
    """Discrete f'' at interior grid points (3-point non-uniform stencil)."""
    ts, vals = f.ts, f.vals
    h0 = ts[1:-1] - ts[:-2]
    h1 = ts[2:] - ts[1:-1]
    return 2.0 * (vals[2:] * h0 - vals[1:-1] * (h0 + h1) + vals[:-2] * h1) \
        / (h0 * h1 * (h0 + h1))


def default_concavity_tol(f: WarpingFunction, K: float) -> float:
    """Floating-point floor plus an O(h^2) discretization allowance.

    The stencil applied to a smooth profile with f'' + K f = 0 leaves a
    residual of order h^2 * K^2 * max f, which must not be flagged."""
    h = float(np.diff(f.ts).max())
    m = f.max()
    return 1e-6 * (1.0 + abs(K) * m) + 0.25 * h * h * (1.0 + K * K) * max(m, 1.0)


@dataclass(frozen=True)
class ConcavityReport:
    K: float
    residuals: np.ndarray
    max_violation: float
    Kf: float
    argmin_G: float
    is_concave: bool
    tol: float


def fk_concavity(f: WarpingFunction, K: float) -> ConcavityReport:
    """Check the discrete f'' + K f <= 0 condition, up to
    `default_concavity_tol`, and compute K_f.

    K_f = -min(K f^2 + slope^2) over the whole grid, boundary conventions
    included; argmin_G is the grid point attaining the minimum.
    """
    if f.n < 3:
        raise GridTooCoarse("need at least 3 grid points")
    tol = default_concavity_tol(f, K)
    res = second_differences(f) + K * f.vals[1:-1]
    G = K * f.vals ** 2 + slopes(f) ** 2
    i0 = int(np.argmin(G))
    mv = float(res.max())
    return ConcavityReport(K=float(K), residuals=res, max_violation=mv,
                           Kf=float(-G[i0]), argmin_G=float(f.ts[i0]),
                           is_concave=bool(mv <= tol), tol=float(tol))


def log_slope_bound(f: WarpingFunction, K: float):
    """cot_K envelope max{cot_K(t-a), cot_K(b-t)} at interior grid points."""
    t = f.ts[1:-1]
    left = np.asarray(cot_kappa(K, t - f.a), dtype=float)
    right = np.asarray(cot_kappa(K, f.b - t), dtype=float)
    if K > 0:
        pk = pi_kappa(K)
        left = np.where(t - f.a < pk, left, math.inf)
        right = np.where(f.b - t < pk, right, math.inf)
    return np.maximum(left, right)


def normalize_and_bound(f: WarpingFunction, K: float):
    """Scale to max 1 and test the log-slope comparison bound.

    Returns (g, lam, slope_bound_ok).  lam is the removed maximum; the bound
    is the discrete |d log g| <= max{cot_K(t-a), cot_K(b-t)} check at the
    interior grid points, with an O(h) allowance for the quotients.
    """
    lam = f.max()
    if lam == 0.0:
        raise ZeroFunction("cannot normalize the zero warping")
    rep = fk_concavity(f, K)
    if not rep.is_concave:
        raise ValueError("normalize_and_bound expects an FK-concave input")
    g = WarpingFunction(f.ts, f.vals / lam)
    slack = float(np.diff(f.ts).max()) * (1.0 + abs(K)) + 1e-9
    ok = bool(np.all(log_slopes(g) <= log_slope_bound(f, K) + slack))
    return g, float(lam), ok


def _moving_average(f: WarpingFunction, width: float) -> WarpingFunction:
    """Triangular-kernel smoothing on the same grid; window clipped at the
    boundary, endpoint samples kept fixed."""
    ts, vals = f.ts, f.vals
    out = vals.copy()
    for i in range(1, f.n - 1):
        w = min(width, ts[i] - ts[0], ts[-1] - ts[i])
        if w <= 0:
            continue
        mask = np.abs(ts - ts[i]) <= w
        ker = 1.0 - np.abs(ts[mask] - ts[i]) / w
        if ker.sum() > 0:
            out[i] = float((vals[mask] * ker).sum() / ker.sum())
    return WarpingFunction(ts, np.maximum(out, 0.0))


def mollify_fk(f: WarpingFunction, K: float, eta: float) -> WarpingFunction:
    """Return a sample that passes the FK(1-eta) check and stays C*eta-close.

    If f already passes at K(1-eta) it is returned unchanged (linear and
    smooth concave inputs land here).  Otherwise a triangular moving average
    of width proportional to eta is applied, halving the width up to 10
    times before giving up.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    K1 = K * (1.0 - eta)
    if fk_concavity(f, K1).is_concave:
        return f
    width = eta * (f.b - f.a) / 4.0
    for _ in range(10):
        cand = _moving_average(f, width)
        if fk_concavity(cand, K1).is_concave:
            return cand
        width *= 0.5
    raise MollifyFailed(f"no FK({K1:.6g})-concave candidate after 10 retries")


# -- presets ---------------------------------------------------------------

def preset(name: str, a: float, b: float, n: int, param: float | None = None) -> WarpingFunction:
    """Named warping profiles: const(c), linear, sin, cos, sinK(K), power(p)."""
    ts = np.linspace(a, b, n)
    if name == "const":
        c = 1.0 if param is None else float(param)
        vals = np.full_like(ts, c)
    elif name == "linear":
        vals = ts.copy()
    elif name == "sin":
        vals = np.sin(ts)
    elif name == "cos":
        vals = np.cos(ts)
    elif name == "sinK":
        if param is None:
            raise ValueError("sinK needs the curvature parameter")
        from .kappa import sin_kappa
        vals = np.asarray(sin_kappa(float(param), ts - a), dtype=float)
    elif name == "power":
        p = 1.0 if param is None else float(param)
        vals = np.power(np.maximum(ts, 0.0), p)
    else:
        raise ValueError(f"unknown warping preset {name!r}")
    if vals.min() < -1e-12:
        raise ValueError(f"preset {name!r} is negative on [{a}, {b}]")
    return WarpingFunction(ts, np.maximum(vals, 0.0))

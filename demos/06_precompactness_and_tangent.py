"""Precompactness harness, tangent cones, and the almost-splitting trend.

The harness normalizes concave profiles, certifies the log-slope
comparison bound, extracts a grid-wise limit, and re-runs the convergence
check.  Tangent cones of the expanding cone flatten at rate eps.  The
almost-splitting experiment runs warpings cosh(eps_i t) on growing
windows carrying ever-longer maximizers: the extracted limits flatten
(reported, not asserted).
"""

import math

import numpy as np

from conelab import (GeneralizedCone, WarpingFunction, precompact_harness,
                     segment, tangent_cone)

nt = 60
ts = np.linspace(0.03, math.pi - 0.03, nt + 1)
cones = [GeneralizedCone(WarpingFunction(ts, np.sin(ts) * (1 + 0.1 / i)),
                         segment(1.0, 11), N=2.0, window=8)
         for i in (1, 2, 4, 8)]
rep = precompact_harness(cones, K=1.0, D=4.0, depth=1)
print(f"precompactness harness: selected={rep['selected']}, "
      f"verdict={rep['verdict']}")

ts2 = np.linspace(0.2, 2.0, 91)
cone = GeneralizedCone(WarpingFunction(ts2, ts2.copy()), segment(1.0, 5),
                       window=8)
t_idx = int(np.argmin(np.abs(ts2 - 1.0)))
tan = tangent_cone(cone, (t_idx, 2), [1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64],
                   frame=0.5, time_steps=40, depth=1)
print(f"tangent cone at t=1: verdict={tan['verdict']}, "
      f"warp deviations={['%.4f' % d for d in tan['warp_deviation']]}")
print(f"  (fiber tangent candidate: {tan['fiber_tangent_points']} point)")

print("almost-splitting experiment (reported, not asserted):")
for i, (eps, L) in enumerate([(0.5, 2.0), (0.25, 4.0), (0.125, 8.0)]):
    grid = np.linspace(-L / 2, L / 2, 81)
    f = np.cosh(eps * grid)
    g = f / f.max()
    cone_i = GeneralizedCone(WarpingFunction(grid, g), segment(0.5, 5),
                             N=2.0, window=8)
    geo = cone_i.maximizer((0, 2), (80, 2))
    window = np.abs(grid) <= 1.0
    flat_dev = float(np.abs(g[window] - g[np.argmin(np.abs(grid))]).max())
    print(f"  eps={eps:<6} maximizer tau-length={geo.tau_length:.2f} "
          f"(>= {L:.0f} - o(1)); warp deviation on |t|<=1: {flat_dev:.4f}")

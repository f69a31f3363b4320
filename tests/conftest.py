import math

import numpy as np
import pytest
from hypothesis import settings

from conelab.cone import GeneralizedCone, minkowski_strip
from conelab.metricspace import circle_arc, segment
from conelab.warp import WarpingFunction

# `pytest --hypothesis-profile=ci`: a failing example also prints the blob
# that `@reproduce_failure` replays, so a CI log is enough to rerun it
settings.register_profile("ci", print_blob=True)


@pytest.fixture(scope="session")
def strip_small():
    """Flat strip [0,2] x unit segment on a quick 40 x 20 grid."""
    return minkowski_strip(time_steps=40, fiber_points=21, fiber_len=1.0)


@pytest.fixture(scope="session")
def strip_fine():
    """The acceptance-scale flat strip: 200 x 100 grid, window 8."""
    cone = minkowski_strip(time_steps=200, fiber_points=101, fiber_len=1.0,
                           window=8)
    return GeneralizedCone(cone.f, cone.X, N=2.0, dist_steps=100, window=8,
                           dist_refine=7)


@pytest.fixture(scope="session")
def mink_cone_fine():
    """f(t) = t on [0.5, 2] over the unit segment, 200 x 100 grid."""
    ts = np.linspace(0.5, 2.0, 201)
    return GeneralizedCone(WarpingFunction(ts, ts.copy()), segment(1.0, 101),
                           dist_steps=100, window=8, dist_refine=2)


@pytest.fixture(scope="session")
def cos_arc_cone():
    """cos-warped cone over a short circle arc (curvature >= -1 instance)."""
    ts = np.linspace(-math.pi / 2 * 0.96, math.pi / 2 * 0.96, 101)
    return GeneralizedCone(WarpingFunction(ts, np.cos(ts)),
                           circle_arc(1.0, 0.8, 41), dist_steps=50,
                           window=8, dist_refine=2)


@pytest.fixture(scope="session")
def sin_arc_cone():
    """sin-warped 2-cone over a short arc: the measure-contraction instance."""
    ts = np.linspace(0.0, math.pi, 101)
    return GeneralizedCone(WarpingFunction(ts, np.sin(ts)),
                           circle_arc(1.0, 0.8, 41), N=2.0, dist_steps=50,
                           window=8, dist_refine=2)

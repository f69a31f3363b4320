import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conelab.errors import SizeLimit
from conelab.metricspace import (Correspondence, FiniteMetricSpace,
                                 ball_subspace, circle_arc, gh_distance,
                                 relabel, segment, single_point)


def two_point(gap):
    return FiniteMetricSpace(np.array([[0.0, gap], [gap, 0.0]]))


def rand_space(rng, n):
    pts = rng.uniform(0, 1, (n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return FiniteMetricSpace(d)


def test_gh_identity_exact():
    A = segment(1.0, 4)
    lo, up, wit = gh_distance(A, A, "exact")
    assert lo == up == 0.0
    assert wit.distortion == 0.0


def test_gh_two_point_gaps():
    lo, up, _ = gh_distance(two_point(1.0), two_point(3.0), "exact")
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert up == pytest.approx(1.0, abs=1e-12)


def test_gh_collapse_to_point():
    lo, up, wit = gh_distance(single_point(), two_point(2.0), "exact")
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert up == pytest.approx(1.0, abs=1e-12)
    assert len({j for _, j in wit.pairs}) == 2


def test_gh_exact_size_cap():
    rng = np.random.default_rng(0)
    with pytest.raises(SizeLimit):
        gh_distance(rand_space(rng, 9), rand_space(rng, 4), "exact")


def test_gh_symmetry_and_heuristic_brackets():
    rng = np.random.default_rng(1)
    for _ in range(15):
        A, B = rand_space(rng, 5), rand_space(rng, 5)
        ex_ab = gh_distance(A, B, "exact")[0]
        ex_ba = gh_distance(B, A, "exact")[0]
        assert ex_ab == pytest.approx(ex_ba, abs=1e-12)
        lo, up, _ = gh_distance(A, B, "heuristic")
        assert lo - 1e-12 <= ex_ab <= up + 1e-12


def test_gh_zero_iff_isometric():
    rng = np.random.default_rng(2)
    for n in (3, 4, 5, 6):
        A = rand_space(rng, n)
        B = relabel(A, rng.permutation(n))
        assert gh_distance(A, B, "exact")[0] == pytest.approx(0.0, abs=1e-12)
        # a strictly scaled copy is not isometric: distance strictly positive
        C = FiniteMetricSpace(1.5 * A.dist)
        assert gh_distance(A, C, "exact")[0] > 0.0


def test_gh_upper_bounded_by_half_max_diam():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A, B = rand_space(rng, 6), rand_space(rng, 3)
        _, up, _ = gh_distance(A, B, "heuristic")
        assert up <= 0.5 * max(A.diam, B.diam) + 1e-12


def test_ball_subspace_examples():
    X = segment(4.0, 5)   # points at 0,1,2,3,4; base at 0
    assert ball_subspace(X, 0.0).n == 1
    assert ball_subspace(X, 10.0).n == 5
    assert ball_subspace(X, 2.0).n == 3


@given(st.floats(min_value=0, max_value=5), st.floats(min_value=0, max_value=5))
@settings(max_examples=50, deadline=None)
def test_ball_subspace_monotone(r1, r2):
    X = segment(4.0, 9)
    small, big = sorted((r1, r2))
    assert set(np.flatnonzero(X.dist[X.base] <= small + 1e-9)) <= \
        set(np.flatnonzero(X.dist[X.base] <= big + 1e-9))
    assert ball_subspace(X, small).n <= ball_subspace(X, big).n


def test_correspondence_requires_surjectivity():
    A, B = two_point(1.0), two_point(2.0)
    with pytest.raises(ValueError):
        Correspondence.build(A, B, [(0, 0), (1, 0)])  # misses b=1
    c = Correspondence.build(A, B, [(0, 0), (1, 1)])
    assert c.distortion == pytest.approx(1.0)


def test_json_roundtrip():
    X = circle_arc(2.0, 0.5, 7, base=3)
    Y = FiniteMetricSpace.from_json(X.to_json())
    np.testing.assert_allclose(X.dist, Y.dist)
    assert Y.base == 3


def test_triangle_check_memory_is_quadratic():
    # the check runs one row at a time: a full n x n x n sum would peak at
    # about 400 n^2 doubles here
    n = 400
    tracemalloc.start()
    try:
        segment(1.0, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n * n * 8


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace(np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0],
                                    [3.0, 1.0, 0.0]]))  # triangle violated

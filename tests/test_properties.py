"""Property-based checks over random valid parameter sets (mu, Sigma, U).

The strategy draws n in {2, 3}, a drift, a covariance L L' with a
well-conditioned lower-triangular L, one or two atoms and up to two beta2
rays in the open orthant and, at n = 2, mostly a unit-circle curve.  Runs are
derandomised, so every run checks the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wvgg.density import (a_over_d_integral, c_n, e_over_d_integral,
                          h_derivative_at_zero, h_many)
from wvgg.geometry import quantities
from wvgg.linalg import CovMatrix
from wvgg.measures import (Atom, Curve, Ray, ThorinMeasure, WvggParams,
                           make_ray_density)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def wvgg_case(draw):
    """(params, s): valid parameters with orthant mass, and a unit direction."""
    n = draw(st.sampled_from([2, 3]))
    mu = np.array(draw(st.lists(_floats(-2.0, 2.0), min_size=n, max_size=n)))
    lower = np.zeros((n, n))
    for i in range(n):
        lower[i, i] = draw(_floats(0.5, 2.0))
        for j in range(i):
            lower[i, j] = draw(_floats(-1.0, 1.0))
    m = lower @ lower.T
    sigma = CovMatrix(0.5 * (m + m.T))
    points = st.lists(_floats(0.1, 2.0), min_size=n, max_size=n)
    comps = [Atom(draw(_floats(0.1, 2.0)), np.array(draw(points)))
             for _ in range(draw(st.integers(1, 2)))]
    for _ in range(draw(st.integers(0, 2))):
        density = make_ray_density("beta2", {"a": draw(_floats(0.5, 3.0)),
                                             "b": draw(_floats(0.3, 3.0))})
        comps.append(Ray(np.array(draw(points)), density))
    curve = draw(st.sampled_from(["circle_theta", "circle_theta2", None]))
    if n == 2 and curve is not None:
        comps.append(Curve(curve))
    s = np.array(draw(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n)))
    if np.linalg.norm(s) < 0.1:
        s = np.ones(n)
    return WvggParams(np.zeros(n), mu, sigma, ThorinMeasure(n, comps)), s / np.linalg.norm(s)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wvgg_case())
def test_over_d_integrals_and_derivative_at_zero(case):
    params, s = case
    a_res = a_over_d_integral(params.U, params.mu, params.sigma, s)
    e_res = e_over_d_integral(params.U, params.mu, params.sigma, s)
    assert a_res.finite == e_res.finite
    res = h_derivative_at_zero(params, s)
    assert res.applicable == a_res.finite
    if not a_res.finite:
        return
    assert abs(e_res.value) <= a_res.value * (1.0 + 1e-12)
    n = params.n
    expected = c_n(n) * 2.0 ** ((n - 2) / 2.0) * math.gamma(n / 2.0) * e_res.value
    assert res.value == pytest.approx(expected, rel=1e-14, abs=1e-300)


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wvgg_case())
def test_polar_density_nonnegative(case):
    params, s = case
    assert np.all(h_many(params, s, np.geomspace(1e-3, 20.0, 6)) >= 0.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(wvgg_case(), st.lists(_floats(1e-3, 1e3), min_size=1, max_size=4))
def test_e_and_d_invariant_along_rays(case, scales):
    params, s = case
    points = np.array([c.point for c in params.U.atoms()]
                      + [c.direction for c in params.U.rays()])
    base = quantities(params.mu, params.sigma.entries, s, points)
    for t in scales:
        scaled = quantities(params.mu, params.sigma.entries, s, t * points)
        assert np.allclose(scaled.e, base.e, rtol=1e-9, atol=1e-12)
        assert np.allclose(scaled.logd, base.logd, rtol=0.0, atol=1e-9)

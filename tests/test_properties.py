"""Property-based checks over random valid parameter sets (mu, Sigma, U).

The strategy draws n in {2, 3}, a drift, a covariance L L' with a
well-conditioned lower-triangular L, one or two atoms and up to two beta2
rays in the open orthant and, at n = 2, mostly a unit-circle curve.  Runs are
derandomised, so every run checks the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wvgg.density import (a_over_d_integral, c_n, e_over_d_integral,
                          h_derivative_at_zero, h_many)
from wvgg.geometry import quantities
from wvgg.linalg import CovMatrix
from wvgg.measures import (Atom, Curve, Ray, ThorinMeasure, WvggParams, integrate,
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
    a_res = a_over_d_integral(params, s)
    e_res = e_over_d_integral(params, s)
    assert a_res.finite == e_res.finite
    res = h_derivative_at_zero(params, s)
    assert res.applicable == a_res.finite
    if not a_res.finite:
        return
    assert abs(e_res.value) <= a_res.value * (1.0 + 1e-12)
    n = params.n
    expected = c_n(n) * 2.0 ** ((n - 2) / 2.0) * math.gamma(n / 2.0) * e_res.value
    assert res.value == pytest.approx(expected, rel=1e-14, abs=1e-300)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(wvgg_case())
def test_over_d_integrals_match_per_direction_ray_quadrature(case):
    # reference: the detector on (A + iE)/D along each ray at s itself, plus
    # the sums over the atoms and each curve's own rule; with every s_k != 0
    # no curve meets a face where the direction is zero
    params, s = case
    assume(np.all(s != 0))
    mu, sigma = params.mu, params.sigma.entries

    def g(points, t):
        qq = quantities(mu, sigma, s, points)
        return (qq.a(t) + 1j * qq.e) * np.exp(-qq.logd)

    positive = params.U.positive_part()
    ref = integrate([c for c in positive if isinstance(c, Ray)], g)
    a_res, e_res = a_over_d_integral(params, s), e_over_d_integral(params, s)
    assert a_res.finite == e_res.finite == ref.finite
    if not ref.finite:
        return
    for c in positive:
        if isinstance(c, Atom):
            ref.value += c.mass * g(c.point[None, :], 1.0).item()
        elif isinstance(c, Curve):
            nodes, w = c.rule
            ref.value += complex(np.sum(w * g(c.points(nodes), 1.0)))
    assert abs(a_res.value - ref.value.real) <= 1e-12 * a_res.value
    assert abs(e_res.value - ref.value.imag) <= 1e-12 * a_res.value


# where the two coordinates of each unit-circle curve cross
CURVE_KINKS = {"circle_theta": math.pi / 4.0, "circle_theta2": math.sqrt(math.pi / 4.0)}


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(wvgg_case())
def test_curve_over_d_integrals_match_quadrature(case):
    # away from the faces s_k = 0 the curve's own rule carries A/D and E/D
    params, s = case
    curves = params.U.curves()
    assume(curves and np.all(np.abs(s) >= 0.1))
    (curve,) = curves
    mu, sigma = params.mu, params.sigma.entries

    def f(t, part):
        u = curve.points(np.array([t]))[0]
        m = np.minimum.outer(u, u) * sigma
        y, z = np.linalg.solve(m, s), np.linalg.solve(m, u * mu)
        q = float(s @ y)
        d = q * math.sqrt(np.linalg.det(m))
        if part == 0:
            return math.sqrt((2.0 * float(u @ u) + float((u * mu) @ z)) * q) / d
        return float(s @ z) / d

    a_ref, e_ref = (quad(lambda t: f(t, part), 0.0, 1.0, points=[CURVE_KINKS[curve.curve]],
                         epsabs=0, epsrel=1e-13, limit=400)[0] for part in (0, 1))
    curve_only = WvggParams(params.d, params.mu, params.sigma, ThorinMeasure(2, [curve]))
    a_res = a_over_d_integral(curve_only, s)
    e_res = e_over_d_integral(curve_only, s)
    assert abs(a_res.value - a_ref) <= 1e-12 * a_ref
    assert abs(e_res.value - e_ref) <= 1e-12 * a_ref


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


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(wvgg_case())
def test_density_derivative_matches_finite_difference(case):
    # dh takes kappa_{n/2 - 1} from the kernel's shared two-order grid, h
    # from the single-order one: at n = 2 and 3 that checks orders 0 and 1/2.
    # The five-point difference at step 1e-4 r is good to about 1e-11 here.
    params, s = case
    assume(np.all(s != 0))
    rs = np.array([0.05, 0.5, 3.0])
    dh = h_many(params, s, rs, derivative=True)
    step = 1e-4 * rs
    h = {k: h_many(params, s, rs + k * step) for k in (-2, -1, 1, 2)}
    fd = (8.0 * (h[1] - h[-1]) - (h[2] - h[-2])) / (12.0 * step)
    scale = h_many(params, s, rs) / rs + np.abs(dh)
    assert np.all(np.abs(dh - fd) <= 1e-9 * scale)

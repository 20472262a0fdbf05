import math

import mpmath
import numpy as np
import pytest
from scipy.special import kve

from wvgg.bessel import (bessel_derivative_check, bessel_tail, kappa_bessel,
                         kappa_grid, kappa_log_grid)

EULER_GAMMA = 0.5772156649015328606
ORDERS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 8.0)


def log_kappa_close(got, ref):
    """1e-12 relative in kappa, beyond the rounding of ln kappa itself (its
    ulp is 1.8e-12 at w = 1e4 and 1.5e-8 at w = 1e8)."""
    return np.all(np.abs(got - ref) <= 1e-12 + 2.0 * np.spacing(np.abs(ref)))


def half_order_closed_form(r):
    # r^(1/2) K_(1/2)(r) = sqrt(pi/2) exp(-r)
    return math.sqrt(math.pi / 2.0) * math.exp(-r)


class TestKernel:
    def test_half_order_at_one(self):
        assert kappa_bessel(0.5, 1.0) == pytest.approx(half_order_closed_form(1.0),
                                                       rel=1e-12)

    def test_half_order_grid(self):
        rs = np.geomspace(1e-3, 30.0, 50)
        vals = kappa_grid(0.5, rs)
        ref = np.array([half_order_closed_form(float(r)) for r in rs])
        assert np.max(np.abs(vals - ref) / ref) <= 1e-10

    def test_order_one_small_argument_limit(self):
        # bounded by the limit 2^0 Gamma(1) = 1 and approaching it
        for w in (1e-3, 1e-5, 1e-8):
            val = kappa_bessel(1.0, w)
            assert val <= 1.0 + 1e-12
            assert val == pytest.approx(1.0, abs=1e-4)

    def test_order_zero_log_asymptotics(self):
        assert kappa_bessel(0.0, 1e-6) / math.log(1e6) == pytest.approx(1.0, abs=0.05)
        # K_0(w) = L + (w^2/4)(L + 1) + O(w^4 L), L = ln(2/w) - gamma, is
        # exact to rounding for w <= 1e-4
        ws = np.geomspace(1e-12, 1e-4, 17)
        ell = np.log(2.0 / ws) - EULER_GAMMA
        asymptotic = ell + 0.25 * ws * ws * (ell + 1.0)
        assert np.max(np.abs(kappa_grid(0.0, ws) / asymptotic - 1.0)) <= 1e-14

    def test_against_library_bessel(self):
        rng = np.random.default_rng(2)
        for rho in ORDERS:
            ws = np.exp(rng.uniform(math.log(1e-6), math.log(1e4), 200))
            ref = rho * np.log(ws) + np.log(kve(rho, ws)) - ws
            assert log_kappa_close(kappa_log_grid(rho, ws), ref)

    @pytest.mark.parametrize("w", [1e-12, 1e-6, 1e4, 1e8])
    def test_against_high_precision(self, w):
        with mpmath.workdps(40):
            for rho in ORDERS:
                ref = float(rho * mpmath.log(w) + mpmath.log(mpmath.besselk(rho, w)))
                assert log_kappa_close(kappa_log_grid(rho, np.array([w]))[0], ref)

    def test_value_independent_of_batch(self):
        for rho in ORDERS:
            alone = kappa_log_grid(rho, np.array([300.0]))[0]
            batched = kappa_log_grid(rho, np.array([1e-3, 300.0, 1e9]))[1]
            assert abs(batched - alone) <= 1e-14 * abs(alone)

    def test_monotone_nonincreasing(self):
        rs = np.geomspace(1e-4, 50.0, 300)
        for rho in (0.0, 0.5, 1.0, 1.5, 2.0):
            vals = kappa_grid(rho, rs)
            assert np.all(np.diff(vals) <= 1e-14)

    def test_uniform_bound(self):
        rs = np.geomspace(1e-6, 50.0, 200)
        for rho in (0.5, 1.0, 1.5, 2.0):
            limit = 2.0 ** (rho - 1.0) * math.gamma(rho)    # kappa_rho(0+)
            assert np.all(kappa_grid(rho, rs) <= limit * (1 + 1e-12))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kappa_bessel(1.0, 0.0)
        with pytest.raises(ValueError):
            kappa_bessel(1.0, -2.0)
        with pytest.raises(ValueError):
            kappa_bessel(-0.5, 1.0)
        for w in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                kappa_bessel(1.0, w)
        with pytest.raises(ValueError):
            kappa_log_grid(1.0, np.array([2.0, math.nan]))
        with pytest.raises(ValueError):
            kappa_log_grid(-0.5, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            kappa_log_grid(math.nan, np.array([1.0]))


def r_kappa_scan(rho):
    """(r, r kappa_rho(r)) on a dense log grid of (1e-6, 80)."""
    rs = np.geomspace(1e-6, 80.0, 200001)
    return rs, rs * kappa_grid(rho, rs)


class TestSupremum:
    def test_half_order_closed_form(self):
        # r * sqrt(pi/2) e^{-r} peaks at r = 1
        expected = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        _, vals = r_kappa_scan(0.5)
        assert vals.max() == pytest.approx(expected, rel=1e-8)
        assert vals.max() <= expected * (1 + 1e-12)

    def test_vanishing_at_origin(self):
        for rho in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert 1e-8 * kappa_bessel(rho, 1e-8) < 1e-6

    def test_order_zero_against_dense_scan(self):
        # finite and positive, attained inside the scanned range
        rs, vals = r_kappa_scan(0.0)
        i = int(np.argmax(vals))
        assert 0 < i < rs.size - 1
        assert 0.0 < vals[i] < math.inf


class TestTail:
    def test_half_order_closed_form(self):
        # integral of sqrt(pi/2) e^{-v} from r
        for r in (0.3, 1.0, 5.0):
            assert bessel_tail(0.5, r) == pytest.approx(half_order_closed_form(r),
                                                        rel=1e-10)

    def test_gaunt_bound(self):
        for nu in (0.5, 1.0, 2.0):
            gaunt = math.sqrt(math.pi) * math.gamma(nu + 0.5) / math.gamma(nu)
            for r in np.geomspace(0.05, 20.0, 15):
                assert bessel_tail(nu, float(r)) <= gaunt * kappa_bessel(nu, float(r)) * (1 + 1e-10)

    def test_gaunt_worked_point(self):
        bound = (math.pi / 2.0) * kappa_bessel(1.0, 0.5)
        assert bessel_tail(1.0, 0.5) <= bound

    def test_tail_ratio_limit(self):
        for nu in (0.5, 1.0, 2.0):
            assert bessel_tail(nu, 30.0) / kappa_bessel(nu, 30.0) == pytest.approx(
                1.0, abs=0.1)

    def test_rejects_nonpositive_lower_limit(self):
        with pytest.raises(ValueError):
            bessel_tail(1.0, 0.0)


class TestDerivativeIdentity:
    @pytest.mark.parametrize("nu,w", [(1.5, 1.0), (1.0, 2.0), (2.0, 0.5), (1.0, 10.0)])
    def test_residual(self, nu, w):
        assert bessel_derivative_check(nu, w) <= 1e-6

    def test_requires_order_at_least_one(self):
        with pytest.raises(ValueError):
            bessel_derivative_check(0.5, 1.0)


def test_ratio_bound_order_zero_one():
    ts = np.geomspace(1e-3, 30.0, 100)
    k0 = kappa_grid(0.0, ts)             # K_0
    k1 = kappa_grid(1.0, ts) / ts        # K_1
    lower = ts / (1.0 + np.sqrt(1.0 + ts * ts))
    assert np.all(k0 / k1 > lower)

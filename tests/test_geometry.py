import math

import numpy as np
import pytest

from wvgg.geometry import (QuantityContext, a_quantity, ade_quantities,
                           d_quantity, e_quantity, extremal_scan, quantities,
                           u_from_ratios, usp_infimum, v_plus_member)
from wvgg.linalg import CovMatrix, DimensionError, delta_matrix, random_spd


@pytest.fixture
def identity_ctx():
    return QuantityContext(np.zeros(2), CovMatrix(np.eye(2)))


def random_ctx(rng, n, mu_zero=False):
    mu = np.zeros(n) if mu_zero else rng.normal(size=n)
    return QuantityContext(mu, random_spd(rng, n, min_det=1e-3))


class TestQuantities:
    def test_identity_worked_values(self, identity_ctx):
        a, d, e = ade_quantities(identity_ctx, [1.0, 0.0], [1.0, 1.0])
        assert (a, d, e) == (pytest.approx(2.0), pytest.approx(1.0), pytest.approx(0.0))

    def test_diagonal_sigma_constancy(self):
        ctx = QuantityContext(np.array([1.0, -2.0]), CovMatrix(np.diag([2.0, 5.0])))
        x = np.array([0.7, 0.3])
        expected = float(x @ np.diag([0.5, 0.2]) @ ctx.mu)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.uniform(0.01, 10.0, 2)
            assert e_quantity(ctx, x, u) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            ctx = random_ctx(rng, n)
            x = rng.normal(size=n)
            u = rng.uniform(0.05, 5.0, n)
            c = rng.uniform(0.1, 10.0)
            e1 = e_quantity(ctx, x, u)
            e2 = e_quantity(ctx, x, c * u)
            assert abs(e1 - e2) <= 1e-12 * max(1.0, abs(e1))

    def test_cauchy_schwarz_domination(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            ctx = random_ctx(rng, n)
            z = rng.normal(size=n)
            u = rng.uniform(0.05, 5.0, n)
            a, _, e = ade_quantities(ctx, z, u)
            assert e * e <= a * a * (1 + 1e-10)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            sigma = random_spd(rng, n, min_det=1e-4)
            x, y = rng.normal(size=n), rng.normal(size=n)
            u = rng.uniform(0.05, 5.0, n)
            perm = rng.permutation(n)
            m = np.minimum.outer(u, u) * sigma.entries
            lhs = float(x @ np.linalg.solve(m, y))
            sig_p = sigma.entries[np.ix_(perm, perm)]
            m_p = np.minimum.outer(u[perm], u[perm]) * sig_p
            rhs = float(x[perm] @ np.linalg.solve(m_p, y[perm]))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_matches_per_point_solve(self, n):
        rng = np.random.default_rng(10 + n)
        sigma = random_spd(rng, n, min_det=1e-3).entries
        mu, x = rng.normal(size=n), rng.normal(size=n)
        us = rng.uniform(0.01, 5.0, (50, n))
        qq = quantities(mu, sigma, x, us)
        for k, u in enumerate(us):
            m = np.minimum.outer(u, u) * sigma
            q = float(x @ np.linalg.solve(m, x))
            e = float(x @ np.linalg.solve(m, u * mu))
            mm = float((u * mu) @ np.linalg.solve(m, u * mu))
            logd = (n / 2.0) * math.log(q) + 0.5 * math.log(np.linalg.det(m))
            assert qq.q[k] == pytest.approx(q, rel=1e-12)
            assert qq.e[k] == pytest.approx(e, rel=1e-12, abs=1e-12 * math.sqrt(q * mm))
            assert qq.m[k] == pytest.approx(mm, rel=1e-12)
            assert qq.logd[k] == pytest.approx(logd, rel=1e-12, abs=1e-12)
            assert qq.uu[k] == pytest.approx(float(u @ u), rel=1e-12)
            assert qq.a()[k] == pytest.approx(math.sqrt((2.0 * float(u @ u) + mm) * q),
                                              rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_scale_law(self, n):
        # E and D are scale free; A(x, t u) = sqrt((2 t ||u||^2 + m) q)
        rng = np.random.default_rng(20 + n)
        sigma = random_spd(rng, n, min_det=1e-3).entries
        mu, x = rng.normal(size=n), rng.normal(size=n)
        u = rng.uniform(0.05, 5.0, (1, n))
        base = quantities(mu, sigma, x, u)
        for t in np.geomspace(1e-6, 1e6, 13):
            scaled = quantities(mu, sigma, x, t * u)
            assert scaled.e[0] == pytest.approx(base.e[0], rel=1e-12, abs=1e-12)
            assert scaled.logd[0] == pytest.approx(base.logd[0], rel=1e-12, abs=1e-12)
            assert scaled.a()[0] == pytest.approx(base.a(t)[0], rel=1e-12)

    def test_d_requires_nonzero(self, identity_ctx):
        with pytest.raises(ValueError):
            d_quantity(identity_ctx, np.zeros(2), [1.0, 1.0])

    def test_u_must_be_positive(self, identity_ctx):
        with pytest.raises(ValueError):
            a_quantity(identity_ctx, [1.0, 0.0], [1.0, 0.0])


class TestUspInfimum:
    def test_zero_drift(self):
        ctx = QuantityContext(np.zeros(2), CovMatrix(np.eye(2)))
        est = usp_infimum(ctx, np.zeros(2))
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert not est.certified_positive

    def test_diagonal_worked_value(self):
        ctx = QuantityContext(np.array([1.0, 1.0]), CovMatrix(np.diag([1.0, 2.0])))
        est = usp_infimum(ctx, np.array([1.0, 1.0]))
        assert est.value == pytest.approx(1.5, abs=1e-6)
        assert est.certified_positive

    def test_orthogonal_direction_not_certified(self):
        ctx = QuantityContext(np.array([1.0, 0.0]), CovMatrix(np.eye(2)))
        est = usp_infimum(ctx, np.array([0.0, 1.0]))
        assert est.value <= 1e-3
        assert not est.certified_positive

    def test_value_bounds_samples(self):
        rng = np.random.default_rng(4)
        ctx = random_ctx(rng, 3)
        est = usp_infimum(ctx, ctx.mu)
        for _ in range(200):
            u = rng.uniform(0.01, 20.0, 3)
            assert est.value <= e_quantity(ctx, ctx.mu, u) + 1e-10

    def test_drift_always_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            ctx = random_ctx(rng, n)
            est = usp_infimum(ctx, ctx.mu)
            assert est.value > 0
            assert est.certified_positive

    def test_ratio_form_matches_direct_at_interior(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            ctx = random_ctx(rng, n)
            v = rng.uniform(0.2, 1.0, n - 1)
            u = u_from_ratios(v)
            direct = e_quantity(ctx, ctx.mu, u)
            ratio_form = float(ctx.mu @ np.linalg.solve(
                delta_matrix(v) * ctx.sigma.entries, ctx.mu))
            assert abs(direct - ratio_form) <= 1e-10 * max(1.0, abs(direct))

    def test_dimension_cap(self):
        rng = np.random.default_rng(7)
        ctx = random_ctx(rng, 7)
        with pytest.raises(DimensionError):
            usp_infimum(ctx, ctx.mu)


class TestMembership:
    def test_drift_is_member(self):
        ctx = QuantityContext(np.array([1.0, 0.0]), CovMatrix(np.eye(2)))
        assert v_plus_member(ctx, np.array([1.0, 0.0])).member is True

    def test_zero_is_not(self):
        ctx = QuantityContext(np.array([1.0, 0.0]), CovMatrix(np.eye(2)))
        assert v_plus_member(ctx, np.zeros(2)).member is False

    def test_negative_estimate_is_not(self):
        ctx = QuantityContext(np.array([1.0, 0.0]), CovMatrix(np.eye(2)))
        assert v_plus_member(ctx, np.array([-1.0, 0.0])).member is False

    def test_orthogonal_is_unknown(self):
        ctx = QuantityContext(np.array([1.0, 0.0]), CovMatrix(np.eye(2)))
        assert v_plus_member(ctx, np.array([0.0, 1.0])).member is None

    def test_cone_axioms_on_members(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ctx = random_ctx(rng, 3)
            mu = ctx.mu
            assert v_plus_member(ctx, 2.5 * mu).member is True
            near = mu + 0.05 * rng.normal(size=3) * np.linalg.norm(mu)
            if v_plus_member(ctx, near).member is True:
                assert v_plus_member(ctx, mu + near).member is True


class TestExtremalScan:
    def test_inf_norm_identity(self):
        ctx = QuantityContext(np.zeros(2), CovMatrix(np.eye(2)))
        res = extremal_scan(ctx, "inf_norm_y", np.array([1.0, 0.0]))
        assert res.finite_or_positive
        assert 1.0 - 1e-9 <= res.estimate <= 1.05

    def test_sup_abs_e_diagonal(self):
        ctx = QuantityContext(np.array([1.0, 1.0]), CovMatrix(np.diag([1.0, 2.0])))
        res = extremal_scan(ctx, "sup_abs_E", np.array([1.0, 1.0]))
        assert res.estimate == pytest.approx(1.5, rel=1e-6)

    def test_inf_d_positive_vs_dense_scan(self):
        ctx = QuantityContext(np.zeros(2), CovMatrix(np.eye(2)))
        z = np.array([0.8, -0.6])
        res = extremal_scan(ctx, "inf_D", z)
        ts = np.linspace(1e-4, math.pi / 2 - 1e-4, 4000)
        dense = np.min((z[0] ** 2 / np.cos(ts) + z[1] ** 2 / np.sin(ts))
                       * np.sqrt(np.cos(ts) * np.sin(ts)))
        assert res.finite_or_positive
        assert res.estimate == pytest.approx(float(dense), rel=1e-5)

    def test_sup_norm_umu_finite(self):
        rng = np.random.default_rng(9)
        ctx = random_ctx(rng, 3)
        res = extremal_scan(ctx, "sup_norm_umu")
        assert res.finite_or_positive
        assert math.isfinite(res.estimate)

    def test_unknown_kind_rejected(self, identity_ctx):
        with pytest.raises(ValueError):
            extremal_scan(identity_ctx, "nonsense", np.ones(2))


class TestScanArgumentValidation:
    def test_inf_d_needs_fully_nonzero_argument(self, identity_ctx):
        with pytest.raises(ValueError):
            extremal_scan(identity_ctx, "inf_D", np.array([1.0, 0.0]))

    def test_inf_norm_needs_nonzero_argument(self, identity_ctx):
        with pytest.raises(ValueError):
            extremal_scan(identity_ctx, "inf_norm_y", np.zeros(2))

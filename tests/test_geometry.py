import itertools
import json
import math
import os

import numpy as np
import pytest

from wvgg.geometry import (QuantityContext, _ratio_objective_batch, quantities,
                           usp_infimum, v_plus_member)
from wvgg.linalg import CovMatrix, DimensionError, delta_matrix, random_spd


@pytest.fixture
def identity_ctx():
    return QuantityContext(np.zeros(2), CovMatrix(np.eye(2)))


def random_ctx(rng, n, mu_zero=False):
    mu = np.zeros(n) if mu_zero else rng.normal(size=n)
    return QuantityContext(mu, random_spd(rng, n, min_det=1e-3))


def quarter_circle(count):
    """``count`` points (cos t, sin t) of the open positive unit quarter circle."""
    ts = np.linspace(1e-4, math.pi / 2 - 1e-4, count)
    return np.stack([np.cos(ts), np.sin(ts)], axis=1)


def _unhex(h):
    return np.array([_unhex(t) for t in h]) if isinstance(h, list) else float.fromhex(h)


class TestQuantities:
    def test_identity_worked_values(self, identity_ctx):
        qq = quantities(identity_ctx.mu, identity_ctx.sigma.entries, np.array([1.0, 0.0]),
                        np.array([[1.0, 1.0]]))
        assert (qq.a()[0], math.exp(qq.logd[0]), qq.e[0]) == (
            pytest.approx(2.0), pytest.approx(1.0), pytest.approx(0.0))

    def test_diagonal_sigma_constancy(self):
        ctx = QuantityContext(np.array([1.0, -2.0]), CovMatrix(np.diag([2.0, 5.0])))
        x = np.array([0.7, 0.3])
        expected = float(x @ np.diag([0.5, 0.2]) @ ctx.mu)
        us = np.random.default_rng(0).uniform(0.01, 10.0, (20, 2))
        e = quantities(ctx.mu, ctx.sigma.entries, x, us).e
        assert np.all(np.abs(e - expected) <= 1e-12 * abs(expected))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            ctx = random_ctx(rng, n)
            x = rng.normal(size=n)
            u = rng.uniform(0.05, 5.0, n)
            c = rng.uniform(0.1, 10.0)
            e1, e2 = quantities(ctx.mu, ctx.sigma.entries, x, np.stack([u, c * u])).e
            assert abs(e1 - e2) <= 1e-12 * max(1.0, abs(e1))

    def test_cauchy_schwarz_domination(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            ctx = random_ctx(rng, n)
            z = rng.normal(size=n)
            u = rng.uniform(0.05, 5.0, n)
            qq = quantities(ctx.mu, ctx.sigma.entries, z, u[None, :])
            assert qq.e[0] ** 2 <= qq.a()[0] ** 2 * (1 + 1e-10)

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
        for n in (3, 4, 5):
            ctx = random_ctx(rng, n)
            est = usp_infimum(ctx, ctx.mu)
            us = rng.uniform(0.01, 20.0, (200, n))
            assert np.all(est.value <= quantities(ctx.mu, ctx.sigma.entries, ctx.mu, us).e
                          + 1e-10)

    @pytest.mark.parametrize("n,axis_points", [(2, 2001), (3, 201)])
    def test_matches_closed_box_oracle(self, n, axis_points):
        # for n <= 3 the ratio form is monotone in each v_k on the closed box,
        # so the infimum sits at a vertex; a dense grid over the closed box
        # (vertices included) is the oracle, and the vertex minimum must hit it
        axis = np.linspace(0.0, 1.0, axis_points)
        grid = np.stack([g.ravel() for g in np.meshgrid(*([axis] * (n - 1)), indexing="ij")],
                        axis=1)
        rng = np.random.default_rng(30 + n)
        for _ in range(20):
            ctx = random_ctx(rng, n)
            x = ctx.mu + rng.normal(size=n)
            oracle = min(float(_ratio_objective_batch(ctx.mu[list(p)],
                                                      ctx.sigma.entries[np.ix_(p, p)],
                                                      x[list(p)], grid).min())
                         for p in itertools.permutations(range(n)))
            est = usp_infimum(ctx, x)
            assert est.value == pytest.approx(oracle, rel=1e-12, abs=1e-15)
            assert est.uncertainty <= 2e-13 * (1.0 + abs(est.value))

    def test_matches_pinned_draws(self):
        # seeded draws at n = 1..6 (x = mu, -mu, 0, near mu, random; mu = 0;
        # diagonal Sigma), recorded from the vertex scan refined by coordinate
        # descent; the descent never moved on them, so every field must match
        # bit for bit
        with open(os.path.join(os.path.dirname(__file__), "fixtures",
                               "usp_infimum_draws.json")) as fh:
            cases = json.load(fh)["cases"]
        assert {c["n"] for c in cases} == set(range(1, 7))
        for case in cases:
            ctx = QuantityContext(_unhex(case["mu"]), CovMatrix(_unhex(case["sigma"])))
            est = usp_infimum(ctx, _unhex(case["x"]))
            got = {"value": float(est.value).hex(), "uncertainty": float(est.uncertainty).hex(),
                   "argmin_v": [float(t).hex() for t in est.argmin_v],
                   "permutation": [int(p) for p in est.permutation],
                   "boundary": est.boundary, "certified_positive": est.certified_positive,
                   "samples": est.samples}
            assert got == {k: case[k] for k in got}, (case["n"], case["kind"])

    def test_one_dimension(self):
        ctx = QuantityContext(np.array([2.0]), CovMatrix(np.array([[4.0]])))
        est = usp_infimum(ctx, np.array([-3.0]))
        assert est.value == pytest.approx(2.0 * -3.0 / 4.0, rel=1e-15)
        assert est.samples == 1
        assert not est.certified_positive

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_starts_are_box_vertices(self, n):
        # n! permutations times the 2^(n-1) vertices of the ratio box
        ctx = random_ctx(np.random.default_rng(40 + n), n)
        assert usp_infimum(ctx, ctx.mu).samples == math.factorial(n) * 2 ** (n - 1)

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
            u = np.ones(n)              # u_n = 1, u_k = v_k ... v_(n-1)
            u[:-1] = np.cumprod(v[::-1])[::-1]
            direct = quantities(ctx.mu, ctx.sigma.entries, ctx.mu, u[None, :]).e[0]
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
    """Extremes of the quantities over a dense grid of the positive unit sphere."""

    def test_inf_norm_identity(self):
        # ||y||^2 = 1/u_1 at x = (1, 0) and Sigma = I, so inf ||y|| = 1 as u -> (1, 0)
        us = quarter_circle(4000)
        norm_y = np.sqrt(quantities(np.zeros(2), np.eye(2), np.array([1.0, 0.0]), us).q)
        assert np.all(norm_y >= 1.0 - 1e-12)
        assert norm_y.min() <= 1.05

    def test_sup_abs_e_diagonal(self):
        us = quarter_circle(4000)
        e = quantities(np.array([1.0, 1.0]), np.diag([1.0, 2.0]), np.array([1.0, 1.0]), us).e
        assert np.max(np.abs(e)) == pytest.approx(1.5, rel=1e-12)

    def test_inf_d_positive_vs_dense_scan(self):
        # at Sigma = I and n = 2, D = (z_1^2/u_1 + z_2^2/u_2) sqrt(u_1 u_2)
        z = np.array([0.8, -0.6])
        us = quarter_circle(4000)
        d = np.exp(quantities(np.zeros(2), np.eye(2), z, us).logd)
        dense = (z[0] ** 2 / us[:, 0] + z[1] ** 2 / us[:, 1]) * np.sqrt(us[:, 0] * us[:, 1])
        assert d.min() > 0.0
        assert np.max(np.abs(d / dense - 1.0)) <= 1e-12
        assert d.min() == pytest.approx(float(dense.min()), rel=1e-12)

    def test_sup_norm_umu_finite(self):
        # the grid's largest value stays put as the grid closes in on the faces
        ctx = random_ctx(np.random.default_rng(9), 3)
        sups = []
        for floor in (1e-4, 1e-12):
            ticks = np.geomspace(floor, 1.0, 40)
            us = np.stack([g.ravel() for g in np.meshgrid(ticks, ticks, ticks, indexing="ij")],
                          axis=1)
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            sups.append(np.sqrt(quantities(ctx.mu, ctx.sigma.entries, ctx.mu, us).m).max())
        assert math.isfinite(sups[1])
        assert sups[1] == pytest.approx(sups[0], rel=1e-6)

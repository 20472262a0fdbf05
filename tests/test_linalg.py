import numpy as np
import pytest

from wvgg.linalg import (CovMatrix, DimensionError, delta_matrix,
                         delta_matrix_batch, diamond_mat, diamond_vec,
                         oppenheim_ratio, random_spd, sigma_sym, theta_matrix,
                         upsilon_matrix, xi_corner_set, xi_det, xi_extrema,
                         xi_matrix)


class TestDiamondProducts:
    def test_identity_vector(self):
        mu = np.array([3.0, -1.0, 2.5])
        assert np.array_equal(diamond_vec(np.ones(3), mu), mu)

    def test_elementwise(self):
        assert np.array_equal(diamond_vec([2.0, 3.0], [1.0, -1.0]),
                              np.array([2.0, -3.0]))

    def test_zero(self):
        assert np.array_equal(diamond_vec(np.zeros(2), [5.0, 7.0]), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            diamond_vec([1.0], [1.0, 2.0])
        with pytest.raises(DimensionError):
            diamond_mat([1.0, 2.0, 3.0], CovMatrix(np.eye(2)))

    def test_matrix_identity_scaling(self):
        sigma = CovMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert np.allclose(diamond_mat(np.ones(2), sigma).entries, sigma.entries)
        assert np.allclose(diamond_mat(2.5 * np.ones(2), sigma).entries,
                           2.5 * sigma.entries)

    def test_matrix_minima(self):
        sigma = CovMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        out = diamond_mat([1.0, 2.0], sigma)
        assert np.array_equal(out.entries, np.array([[2.0, 1.0], [1.0, 6.0]]))

    def test_negative_entries_warn(self):
        sigma = CovMatrix(np.eye(2))
        with pytest.warns(UserWarning):
            diamond_mat([-1.0, 1.0], sigma)


class TestCovMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovMatrix(np.array([[1.0, 0.1], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="definite"):
            CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_oversize(self):
        with pytest.raises(DimensionError):
            CovMatrix(np.eye(17))

    def test_det_and_invertible(self):
        m = CovMatrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert m.det == pytest.approx(5.0)
        assert m.invertible
        rank1 = np.outer([1.0, 2.0], [1.0, 2.0])
        assert not CovMatrix(0.5 * (rank1 + rank1.T)).invertible


class TestOppenheim:
    def test_identity(self):
        r = oppenheim_ratio(CovMatrix(np.eye(2)), [1.0, 2.0])
        assert r.ratio == pytest.approx(1.0)
        assert (r.lower, r.upper) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_worked_two_by_two(self):
        r = oppenheim_ratio(CovMatrix(np.array([[2.0, 1.0], [1.0, 3.0]])), [1.0, 2.0])
        assert r.ratio == pytest.approx(5.5)
        assert r.lower == pytest.approx(5.0)
        assert r.upper == pytest.approx(6.0)

    def test_lower_bound_attained_at_ones(self):
        sigma = CovMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        r = oppenheim_ratio(sigma, [1.0, 1.0])
        assert r.ratio == pytest.approx(0.19)
        assert r.ratio == pytest.approx(r.lower)

    def test_errors(self):
        rank1 = np.outer([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            oppenheim_ratio(CovMatrix(rank1), [1.0, 1.0])
        with pytest.raises(ValueError):
            oppenheim_ratio(CovMatrix(np.eye(2)), [1.0, 0.0])

    def test_random_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(10000):
            n = int(rng.integers(1, 6))
            sigma = random_spd(rng, n, min_det=1e-8)
            u = rng.uniform(0.05, 5.0, n)
            r = oppenheim_ratio(sigma, u)
            assert r.lower <= r.ratio * (1 + 1e-10)
            assert r.ratio <= r.upper * (1 + 1e-10)


class TestXi:
    def test_known_polynomials(self):
        assert xi_det([0.5]) == pytest.approx(3.5)
        assert xi_det([1.0, 1.0]) == pytest.approx(4.0)
        assert xi_det([1.0, 1.0, 1.0]) == pytest.approx(5.0)

    def test_extrema_exact(self):
        assert xi_extrema(1) == (3, 4)
        assert xi_extrema(3) == (5, 16)
        assert xi_extrema(5) == (7, 64)
        lo, hi = xi_extrema(4)
        assert isinstance(lo, int) and isinstance(hi, int)

    def test_extrema_rejects_large(self):
        with pytest.raises(ValueError):
            xi_extrema(9)

    def test_corner_set_size(self):
        assert len(xi_corner_set(4)) == 5

    def test_affine_in_each_coordinate(self):
        # three collinear values along every coordinate
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            x = rng.uniform(0.0, 1.0, n)
            for k in range(n):
                vals = []
                for t in (0.0, 0.5, 1.0):
                    xk = x.copy()
                    xk[k] = t
                    vals.append(xi_det(xk))
                assert vals[1] == pytest.approx(0.5 * (vals[0] + vals[2]), abs=1e-9)

    def test_corner_values_match_float_determinant(self):
        for n in range(1, 7):
            for corner in xi_corner_set(n):
                f = xi_det(np.asarray(corner, dtype=float))
                assert f == pytest.approx(round(f), abs=1e-9)


class TestPatternMatrices:
    def test_theta_worked(self):
        th = theta_matrix([1.0, 2.0])
        assert np.allclose(th.entries, np.array([[2.0, 1.5], [1.5, 2.0]]))
        assert th.det == pytest.approx(1.75)

    def test_theta_equals_upsilon_for_ordered_u(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            u = np.sort(rng.uniform(0.1, 4.0, n))
            v = u[:-1] / u[1:]
            assert np.allclose(theta_matrix(u).entries, upsilon_matrix(v).entries,
                               atol=1e-13)

    def test_delta_face_identity(self):
        sigma = np.array([[2.0, 1.0], [1.0, 3.0]])
        prod = delta_matrix([0.0]) * sigma
        assert np.array_equal(prod, np.array([[2.0, 0.0], [1.0, 3.0]]))

    def test_delta_batch_matches_single(self):
        rng = np.random.default_rng(5)
        vs = rng.uniform(0.0, 1.0, (8, 3))
        batch = delta_matrix_batch(vs)
        for i in range(8):
            assert np.allclose(batch[i], delta_matrix(vs[i]), atol=1e-15)

    def test_delta_and_upsilon_entries(self):
        # Delta: ones on and below the diagonal, prod(v_k..v_{l-1}) above it;
        # Upsilon = Delta + Delta': 2 on the diagonal, 1 + prod(...) off it
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n = int(rng.integers(2, 8))
            v = rng.uniform(0.0, 1.0, n - 1)
            pick = rng.uniform(size=n - 1)
            v[pick < 0.15], v[pick > 0.85] = 0.0, 1.0
            delta, ups = delta_matrix(v), upsilon_matrix(v).entries
            for k in range(n):
                for l in range(n):
                    prod = float(np.prod(v[min(k, l):max(k, l)]))
                    assert delta[k, l] == (prod if k < l else 1.0)
                    assert ups[k, l] == (2.0 if k == l else 1.0 + prod)

    def test_upsilon_range_check(self):
        with pytest.raises(ValueError):
            upsilon_matrix([1.5])

    def test_upsilon_nonnegative_definite_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            v = rng.uniform(0.0, 1.0, n - 1)
            assert upsilon_matrix(v).eig_min >= -1e-9

    def test_sigma_sym_positive_and_hadamard_split(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            u = rng.uniform(0.05, 5.0, n)
            sigma = random_spd(rng, n)
            sym = sigma_sym(u, sigma)
            assert sym.eig_min > 0
            assert np.max(np.abs(2.0 * sym.entries
                                 - theta_matrix(u).entries * sigma.entries)) <= 1e-12

    def test_delta_times_sigma_invertible_random(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            v = rng.uniform(0.0, 1.0, n - 1)
            sigma = random_spd(rng, n, min_det=1e-6)
            det = abs(np.linalg.det(delta_matrix(v) * sigma.entries))
            assert det > 1e-12 * max(1.0, abs(sigma.det))

    def test_delta_equals_scaled_diamond_for_ordered_u(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            u = np.sort(rng.uniform(0.1, 4.0, n))
            v = u[:-1] / u[1:]
            sigma = random_spd(rng, n)
            lhs = delta_matrix(v) * sigma.entries
            rhs = (np.minimum.outer(u, u) * sigma.entries) / u[None, :]
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

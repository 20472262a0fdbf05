import math

import numpy as np
import pytest
from scipy.integrate import quad

from wvgg.bessel import kappa_bessel
from wvgg import density, measures
from wvgg.density import (DensityCurve, NotApplicableError, a_over_d_integral,
                          char_exponent, default_r_grid, density_curve,
                          e_over_d_integral,
                          h_density, h_derivative, h_derivative_at_zero,
                          h_many, monotonicity_scan, read_density_csv,
                          vg_char_exponent_closed_form, vg_levy_density,
                          write_density_csv)
from wvgg.geometry import quantities
from wvgg.linalg import CovMatrix, random_spd
from wvgg.measures import (Atom, Curve, Ray, ThorinMeasure, WvggParams, alpha_gamma_measure,
                           beta2_measure, circle_measure, integrate, sdcex_measure)


def atom_params(mu, sigma=None, mass=1.0, point=(1.0, 1.0)):
    n = len(point)
    sigma = CovMatrix(np.eye(n)) if sigma is None else sigma
    U = ThorinMeasure(n, [Atom(mass, np.asarray(point, dtype=float))])
    return WvggParams(np.zeros(n), np.asarray(mu, dtype=float), sigma, U)


def oracle_atomic_density(params, s, r):
    """Mixture of variance-gamma Levy densities, weighted by mass over squared
    point norm; an independent route to the same polar density."""
    total = 0.0
    for atom in params.U.atoms():
        p = atom.point
        b = float(p @ p)
        dsig = CovMatrix(np.minimum.outer(p, p) * params.sigma.entries)
        total += (atom.mass * r ** params.n
                  * vg_levy_density(b, p * params.mu, dsig, r * np.asarray(s)) / b)
    return total


class TestHDensity:
    def test_single_atom_closed_form(self):
        p = atom_params([0.0, 0.0])
        s = np.array([1.0, 0.0])
        for r in (1e-3, 0.1, 1.0, 5.0):
            assert h_density(p, s, r) == pytest.approx(
                kappa_bessel(1.0, 2.0 * r) / math.pi, rel=1e-10)
        # small-radius limit 1/pi
        assert h_density(p, s, 1e-6) == pytest.approx(1.0 / math.pi, abs=1e-4)

    def test_driftless_symmetry(self):
        rng = np.random.default_rng(0)
        p = atom_params([0.0, 0.0], CovMatrix(np.array([[1.0, 0.4], [0.4, 2.0]])),
                        point=(0.7, 1.3))
        for _ in range(5):
            s = rng.normal(size=2)
            s /= np.linalg.norm(s)
            assert h_density(p, s, 0.8) == pytest.approx(h_density(p, -s, 0.8),
                                                         rel=1e-12)

    def test_atomic_oracle_identity(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = 2 if trial % 2 == 0 else 3
            sigma = random_spd(rng, n, min_det=1e-2)
            mu = rng.normal(size=n) * 0.5
            atoms = [Atom(float(rng.uniform(0.2, 2.0)), rng.uniform(0.3, 2.0, n))
                     for _ in range(int(rng.integers(1, 4)))]
            params = WvggParams(np.zeros(n), mu, sigma, ThorinMeasure(n, atoms))
            s = rng.normal(size=n)
            s /= np.linalg.norm(s)
            r = float(rng.uniform(0.1, 3.0))
            mine = h_density(params, s, r)
            oracle = oracle_atomic_density(params, s, r)
            assert mine == pytest.approx(oracle, rel=1e-9)

    def test_nonnegative_everywhere_sampled(self):
        rng = np.random.default_rng(2)
        fixtures = [
            atom_params([1.0, -0.5], point=(0.8, 1.4)),
            WvggParams(np.zeros(2), np.array([0.5, 0.2]),
                       CovMatrix(np.array([[1.0, 0.3], [0.3, 1.0]])),
                       beta2_measure(1.0, 2.0, [1.0, 1.0])),
        ]
        for p in fixtures:
            for _ in range(5):
                s = rng.normal(size=2)
                s /= np.linalg.norm(s)
                assert h_density(p, s, float(rng.uniform(0.05, 5.0))) >= -1e-12

    def test_rejects_univariate(self):
        U = ThorinMeasure(1, [Atom(1.0, np.array([1.0]))])
        p = WvggParams(np.zeros(1), np.zeros(1), CovMatrix([[1.0]]), U)
        with pytest.raises(NotApplicableError):
            h_density(p, np.array([1.0]), 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            h_density(atom_params([0.0, 0.0]), np.array([1.0, 0.0]), 0.0)

    @pytest.mark.parametrize("bad", [0.0, math.nan, -1.0], ids=["zero", "nan", "negative"])
    @pytest.mark.parametrize("evaluate", [h_many, density_curve], ids=["h_many", "density_curve"])
    def test_batch_rejects_bad_radius_on_ray_measure(self, evaluate, bad):
        # one bad radius among good ones, on a ray, whose v-grid divides by r
        p = WvggParams(np.zeros(2), np.array([1.0, 0.0]),
                       CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])),
                       beta2_measure(1.0, 2.0, [1.0, 1.0]))
        with pytest.raises(ValueError, match="radius must be positive"):
            evaluate(p, np.array([0.6, 0.8]), np.array([0.5, bad, 2.0]))


class TestHDerivative:
    def test_single_atom_closed_form(self):
        p = atom_params([0.0, 0.0])
        s = np.array([1.0, 0.0])
        for r in (0.1, 1.0):
            expected = -(4.0 * r / math.pi) * kappa_bessel(0.0, 2.0 * r)
            assert h_derivative(p, s, r) == pytest.approx(expected, rel=1e-9)

    def test_driftless_derivative_nonpositive(self):
        p = atom_params([0.0, 0.0], point=(0.5, 1.5))
        s = np.array([0.6, 0.8])
        for r in np.geomspace(1e-3, 10.0, 20):
            assert h_derivative(p, s, float(r)) <= 1e-14

    def test_matches_finite_difference(self):
        fixtures = [
            atom_params([1.0, 0.0]),
            WvggParams(np.zeros(2), np.array([0.4, -0.3]),
                       CovMatrix(np.array([[1.0, 0.2], [0.2, 1.5]])),
                       beta2_measure(1.5, 2.0, [1.0, 0.7])),
            WvggParams(np.zeros(2), np.array([0.8, 0.1]),
                       CovMatrix(np.array([[1.0, 0.3], [0.3, 1.0]])),
                       circle_measure("theta")),
        ]
        for p in fixtures:
            s = np.array([0.6, 0.8])
            for r in (0.1, 1.0, 5.0):
                dh = h_derivative(p, s, r)
                h = 1e-5 * r
                fd = (h_density(p, s, r + h) - h_density(p, s, r - h)) / (2 * h)
                assert abs(dh - fd) / max(abs(fd), 1e-12) <= 1e-5

    def test_consistency_grid(self):
        # 5 directions x 5 radii for three measure shapes
        rng = np.random.default_rng(3)
        fixtures = [
            atom_params([0.7, -0.2], point=(1.0, 0.6)),
            WvggParams(np.zeros(2), np.array([0.4, 0.1]),
                       CovMatrix(np.array([[1.0, -0.2], [-0.2, 0.8]])),
                       beta2_measure(2.0, 3.0, [0.5, 1.0])),
            WvggParams(np.zeros(2), np.array([0.3, 0.3]),
                       CovMatrix(np.array([[1.2, 0.4], [0.4, 1.0]])),
                       circle_measure("theta_squared")),
        ]
        for p in fixtures:
            for _ in range(5):
                s = rng.normal(size=2)
                s /= np.linalg.norm(s)
                for r in np.geomspace(0.05, 5.0, 5):
                    dh = h_derivative(p, s, float(r))
                    h = 1e-5 * float(r)
                    fd = (h_density(p, s, float(r) + h)
                          - h_density(p, s, float(r) - h)) / (2 * h)
                    assert abs(dh - fd) / max(abs(fd), 1e-12) <= 1e-5


class TestDerivativeAtZero:
    def test_driftless_is_zero(self):
        p = atom_params([0.0, 0.0])
        res = h_derivative_at_zero(p, np.array([1.0, 0.0]))
        assert res.applicable
        assert res.value == pytest.approx(0.0, abs=1e-14)

    def test_worked_atom_value(self):
        p = atom_params([1.0, 0.0])
        res = h_derivative_at_zero(p, np.array([1.0, 0.0]))
        assert res.applicable
        assert res.value == pytest.approx(1.0 / math.pi, rel=1e-10)

    def test_small_radius_extrapolation(self):
        p = atom_params([1.0, 0.0])
        s = np.array([1.0, 0.0])
        res = h_derivative_at_zero(p, s)
        rs = np.array([1e-2, 1e-3, 1e-4])
        vals = np.array([h_derivative(p, s, float(r)) for r in rs])
        # model value + c1 r + c2 r ln r, solve for the limit
        basis = np.stack([np.ones(3), rs, rs * np.log(rs)], axis=1)
        limit = float(np.linalg.solve(basis, vals)[0])
        assert limit == pytest.approx(res.value, abs=1e-3)

    def test_not_applicable_when_hypothesis_fails(self):
        # truncated power law with exponent 1/2: the A/D integral diverges
        U = sdcex_measure(2.0, 1.0, 0.5, 1.0, [1.0, 1.0])
        p = WvggParams(np.zeros(2), np.array([1.0, 0.0]), CovMatrix(np.eye(2)), U)
        res = h_derivative_at_zero(p, np.array([0.6, 0.8]))
        assert not res.applicable
        assert res.value is None
        assert not res.a_integral.finite


class TestCharExponent:
    def test_zero_frequency(self):
        p = atom_params([1.0, -2.0], point=(0.4, 0.9))
        assert char_exponent(p, np.zeros(2)) == 0

    def test_empty_measure_reduces_to_brownian(self):
        U = ThorinMeasure(2, [])
        p = WvggParams(np.array([1.0, 2.0]), np.array([0.5, -0.5]),
                       CovMatrix(np.array([[1.0, 0.2], [0.2, 1.0]])), U)
        th = np.array([0.3, 0.7])
        dmu = p.d * p.mu
        dsig = np.minimum.outer(p.d, p.d) * p.sigma.entries
        expected = 1j * float(dmu @ th) - 0.5 * float(th @ dsig @ th)
        assert char_exponent(p, th) == pytest.approx(expected)

    def test_single_gamma_closed_form_worked(self):
        U = ThorinMeasure(2, [Atom(1.0, np.array([0.5, 0.5]))])
        p = WvggParams(np.zeros(2), np.zeros(2), CovMatrix(np.eye(2)), U)
        psi = char_exponent(p, np.array([1.0, 0.0]))
        assert psi == pytest.approx(-math.log(1.5), rel=1e-12)

    @pytest.mark.parametrize("b,n", [(1.0, 2), (2.5, 2), (0.7, 3)])
    def test_single_gamma_closed_form_grid(self, b, n):
        rng = np.random.default_rng(4)
        sigma = random_spd(rng, n, min_det=1e-2)
        U = ThorinMeasure(n, [Atom(b, np.full(n, b / n))])
        p = WvggParams(np.zeros(n), np.zeros(n), sigma, U)
        worst = 0.0
        for _ in range(9):
            th = rng.normal(size=n)
            diff = abs(char_exponent(p, th) - vg_char_exponent_closed_form(b, sigma, th))
            worst = max(worst, diff)
        assert worst <= 1e-8

    def test_ray_measure_matches_quadrature(self):
        U = beta2_measure(1.0, 2.0, [1.0, 1.0])
        p = WvggParams(np.zeros(2), np.array([0.5, -0.2]),
                       CovMatrix(np.array([[1.0, 0.3], [0.3, 1.0]])), U)
        th = np.array([0.7, -0.4])
        psi = char_exponent(p, th)
        al = np.array([1.0, 1.0])
        z = (-1j * float((al * p.mu) @ th)
             + 0.5 * float(th @ (np.minimum.outer(al, al) * p.sigma.entries) @ th))
        dens = U.rays()[0].density

        def f(v, part):
            w = np.log(1.0 + z / (v * 2.0)) * float(dens(np.array([v]))[0])
            return w.real if part == 0 else w.imag

        re, _ = quad(f, 0, np.inf, args=(0,), limit=400)
        im, _ = quad(f, 0, np.inf, args=(1,), limit=400)
        assert psi == pytest.approx(-(re + 1j * im), rel=1e-8)

    def test_curve_measure_matches_quadrature(self):
        U = circle_measure("theta_squared")
        p = WvggParams(np.zeros(2), np.array([1.0, 0.0]),
                       CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])), U)
        curve = U.curves()[0]
        for th in (np.array([1.2, -0.7]), np.array([2.0, 2.0])):
            def f(t, part):
                u = curve.points(np.array([t]))[0]
                z = (-1j * float((u * p.mu) @ th)
                     + 0.5 * float(th @ (np.minimum.outer(u, u) * p.sigma.entries) @ th))
                w = np.log(1.0 + z / float(u @ u))
                return w.real if part == 0 else w.imag

            re, im = (kink_split_quad(lambda t: f(t, part)) for part in (0, 1))
            assert char_exponent(p, th) == pytest.approx(-(re + 1j * im), rel=1e-12)


def kink_split_quad(f):
    """int_0^1 f with the coordinate-ordering kink of circle_theta2,
    theta^2 = pi / 4, as a breakpoint."""
    return quad(f, 0.0, 1.0, points=[math.sqrt(math.pi / 4.0)], epsabs=0,
                epsrel=1e-13, limit=400)[0]


class TestVgLevyDensity:
    def test_symmetry_driftless(self):
        sigma = CovMatrix(np.array([[1.0, 0.4], [0.4, 2.0]]))
        y = np.array([0.7, -1.1])
        assert vg_levy_density(1.3, np.zeros(2), sigma, y) == pytest.approx(
            vg_levy_density(1.3, np.zeros(2), sigma, -y), rel=1e-14)

    def test_worked_value(self):
        val = vg_levy_density(1.0, np.zeros(2), CovMatrix(np.eye(2)),
                              np.array([1.0, 0.0]))
        assert val == pytest.approx(kappa_bessel(1.0, math.sqrt(2.0)) / math.pi,
                                    rel=1e-12)

    def test_levy_admissibility(self):
        # int (1 ^ |y|^2) nu(y) dy finite, via polar quadrature
        def radial(r):
            out = 0.0
            for t in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
                y = r * np.array([math.cos(t), math.sin(t)])
                out += vg_levy_density(1.0, np.zeros(2), CovMatrix(np.eye(2)), y)
            return out / 32.0 * 2.0 * math.pi * r * min(1.0, r * r)

        val, _ = quad(radial, 1e-6, 30.0, limit=300)
        assert math.isfinite(val) and val > 0

    def test_errors(self):
        with pytest.raises(ValueError):
            vg_levy_density(1.0, np.zeros(2), CovMatrix(np.eye(2)), np.zeros(2))
        rank1 = np.outer([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            vg_levy_density(1.0, np.zeros(2), CovMatrix(0.5 * (rank1 + rank1.T)),
                            np.array([1.0, 0.0]))


class TestPolarReconstruction:
    def test_annulus_mass_matches_direct_integral(self):
        # measure of {1 <= |x| <= 2} in the open quadrant: once through the
        # polar density, once through the mixture-density formula directly
        sigma = CovMatrix(np.array([[1.0, 0.25], [0.25, 1.2]]))
        mu = np.array([0.6, -0.3])
        atoms = [Atom(0.8, np.array([0.9, 1.1])), Atom(1.2, np.array([1.5, 0.5]))]
        params = WvggParams(np.zeros(2), mu, sigma, ThorinMeasure(2, atoms))

        phi_x, phi_w = np.polynomial.legendre.leggauss(64)
        phis = 0.25 * math.pi * (phi_x + 1.0)
        phi_w = phi_w * 0.25 * math.pi
        r_x, r_w = np.polynomial.legendre.leggauss(48)
        rs = 0.5 * (r_x + 3.0)
        r_w = r_w * 0.5

        lhs = 0.0
        for phi, wp in zip(phis, phi_w):
            s = np.array([math.cos(phi), math.sin(phi)])
            vals = h_many(params, s, rs)
            lhs += wp * float(np.sum(r_w * vals / rs))

        rhs = 0.0
        dsigs = [CovMatrix(np.minimum.outer(a.point, a.point) * sigma.entries)
                 for a in atoms]
        for phi, wp in zip(phis, phi_w):
            s = np.array([math.cos(phi), math.sin(phi)])
            for r, wr in zip(rs, r_w):
                nu_val = sum(a.mass * vg_levy_density(float(a.point @ a.point),
                                                      a.point * mu, dsig, r * s)
                             / float(a.point @ a.point)
                             for a, dsig in zip(atoms, dsigs))
                rhs += wp * wr * r * nu_val
        assert lhs == pytest.approx(rhs, rel=1e-4)


class TestCurvesAndCsv:
    def test_driftless_curve_nonincreasing(self):
        p = atom_params([0.0, 0.0], point=(0.8, 1.2))
        curve = density_curve(p, np.array([0.6, 0.8]), default_r_grid(count=60))
        assert np.all(curve.values >= 0)
        assert np.all(np.diff(curve.values) <= 1e-14)

    def test_csv_round_trip_exact(self, tmp_path):
        p = atom_params([1.0, 0.0])
        curve = density_curve(p, np.array([1.0, 0.0]), default_r_grid(count=25))
        path = tmp_path / "curve.csv"
        write_density_csv(curve, str(path))
        back = read_density_csv(str(path))
        assert np.array_equal(back.values, curve.values)
        assert np.array_equal(back.deriv, curve.deriv)
        assert np.array_equal(back.r_grid, curve.r_grid)
        header = path.read_text().splitlines()[0]
        assert header == "s_1,s_2,r,h,dh,err"


class TestMonotonicityScan:
    def test_driftless_all_nonincreasing(self):
        p = atom_params([0.0, 0.0], point=(1.0, 0.7))
        angles = np.linspace(0.1, 2 * math.pi, 8, endpoint=False)
        dirs = [np.array([math.cos(t), math.sin(t)]) for t in angles]
        verdicts = monotonicity_scan(p, dirs, default_r_grid(count=80))
        assert all(v.nonincreasing for v in verdicts)

    def test_increase_detected_near_zero_with_drift(self):
        p = atom_params([1.0, 0.0])
        verdicts = monotonicity_scan(p, [np.array([1.0, 0.0])],
                                     default_r_grid(count=120))
        v = verdicts[0]
        assert not v.nonincreasing
        assert v.r0 is not None and v.r0 < 0.5
        assert v.margin > 0


class TestVectorisedEvaluation:
    def test_h_many_matches_pointwise(self):
        p = WvggParams(np.zeros(2), np.array([0.4, -0.3]),
                       CovMatrix(np.array([[1.0, 0.2], [0.2, 1.5]])),
                       beta2_measure(1.5, 2.0, [1.0, 0.7]))
        s = np.array([0.6, 0.8])
        rs = np.geomspace(0.01, 10.0, 7)
        batch = h_many(p, s, rs)
        for r, v in zip(rs, batch):
            assert v == pytest.approx(h_density(p, s, float(r)), rel=1e-13)
        dbatch = h_many(p, s, rs, derivative=True)
        for r, v in zip(rs, dbatch):
            assert v == pytest.approx(h_derivative(p, s, float(r)), rel=1e-13)


README_MEASURE = ThorinMeasure(2, [
    Atom(0.5, np.array([0.5, 0.5])),
    beta2_measure(1.0, 2.0, [1.0, 1.0]).components[0],
    circle_measure("theta_squared").components[0],
])
README_MU = np.array([1.0, 0.0])
README_SIGMA = CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))


def readme_params(U):
    return WvggParams(np.zeros(2), README_MU, README_SIGMA, U)


def over_d_at(u, s):
    """(A/D, E/D) at one orthant point u from dense solves, with M = u <> Sigma:
    A = sqrt((2 |u|^2 + |u <> mu|^2_{M^-1}) |s|^2_{M^-1}),
    E = <s, u <> mu>_{M^-1}, D = |s|^2_{M^-1} |M|^(1/2)."""
    m = np.minimum.outer(u, u) * README_SIGMA.entries
    y, z = np.linalg.solve(m, s), np.linalg.solve(m, u * README_MU)
    q = float(s @ y)
    d = q * math.sqrt(np.linalg.det(m))
    return math.sqrt((2.0 * float(u @ u) + float((u * README_MU) @ z)) * q) / d, float(s @ z) / d


def real_pass(U, s, numerator):
    """int numerator(qq, t) / D dU, one real integrand at a time: a sum over
    each atom and each curve's own rule, and the detector along the rays."""
    def g(points, t):
        qq = quantities(README_MU, README_SIGMA.entries, s, points)
        return numerator(qq, t) * np.exp(-qq.logd)

    positive = U.positive_part()
    res = integrate([c for c in positive if isinstance(c, Ray)], g)
    for c in positive:
        if isinstance(c, Atom):
            res.value += c.mass * g(c.point[None, :], 1.0).item()
        elif isinstance(c, Curve):
            nodes, w = c.rule
            res.value += float(np.sum(w * g(c.points(nodes), 1.0)))
    return res


class TestOverDIntegrals:
    @pytest.mark.parametrize("U", [
        alpha_gamma_measure(0.5, [0.6, 0.8]),
        beta2_measure(1.0, 2.0, [1.0, 1.0]),
        circle_measure("theta_squared"),
        README_MEASURE,
    ], ids=["alpha_gamma", "beta2_ray", "circle_theta2", "readme"])
    @pytest.mark.parametrize("s", [(0.6, 0.8), (0.8, -0.6), (-0.28, 0.96)])
    def test_one_pass_matches_separate_real_passes(self, U, s):
        s, p = np.asarray(s), readme_params(U)
        a_res = a_over_d_integral(p, s)
        e_res = e_over_d_integral(p, s)
        a_ref = real_pass(U, s, lambda qq, t: qq.a(t))
        e_ref = real_pass(U, s, lambda qq, t: qq.e)
        assert a_res.finite and e_res.finite and a_ref.finite and e_ref.finite
        assert a_res.value == pytest.approx(a_ref.value, rel=1e-14, abs=0)
        assert e_res.value == pytest.approx(e_ref.value, rel=1e-14, abs=0)
        # |E| <= A at every point
        assert abs(e_res.value) <= a_res.value

    @pytest.mark.parametrize("s", [(0.8, 0.6), (0.6, 0.8), (0.95, -0.3)])
    def test_curve_integrals_match_quadrature(self, s):
        s = np.asarray(s)
        U = circle_measure("theta_squared")
        curve = U.curves()[0]

        def f(t, part):
            return over_d_at(curve.points(np.array([t]))[0], s)[part]

        a_res = a_over_d_integral(readme_params(U), s)
        e_res = e_over_d_integral(readme_params(U), s)
        assert a_res.value == pytest.approx(kink_split_quad(lambda t: f(t, 0)), rel=1e-12)
        assert e_res.value == pytest.approx(kink_split_quad(lambda t: f(t, 1)), rel=1e-12)

    def test_divergent_a_integral_makes_e_divergent(self):
        # beta2(1, 0.3): the density decays like v^-1.3 and A like v^(1/2),
        # so A/D has a v^-0.8 tail
        U = beta2_measure(1.0, 0.3, [1.0, 1.0])
        s = np.array([0.6, 0.8])
        p = readme_params(U)
        assert not a_over_d_integral(p, s).finite
        assert not e_over_d_integral(p, s).finite
        assert not h_derivative_at_zero(p, s).applicable

    def test_derivative_at_zero_integrates_each_component_once(self, monkeypatch):
        calls = []
        original = measures.improper_integral

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(measures, "improper_integral", counted)
        p = readme_params(README_MEASURE)
        for s in ((0.6, 0.8), (0.8, -0.6), (-0.28, 0.96)):
            assert h_derivative_at_zero(p, np.array(s)).applicable
        # the ray's moments, once for every direction; the atom and the
        # curve are sums over fixed nodes
        assert len(calls) == 1


class TestFaceContact:
    """At s = (1, 0) the unit-circle curves meet the face u_2 = 0 at theta = 0,
    where |M| vanishes while ||s||_{M^-1} stays bounded: 1/D grows like
    |M|^(-1/2), that is like 1/theta on circle_theta2 and like theta^(-1/2) on
    circle_theta."""
    S = np.array([1.0, 0.0])

    def test_quadratic_curve_diverges(self):
        U = circle_measure("theta_squared")
        p = readme_params(U)
        assert not a_over_d_integral(p, self.S).finite
        assert not e_over_d_integral(p, self.S).finite
        assert not h_derivative_at_zero(p, self.S).applicable
        with pytest.raises(ArithmeticError):
            density_curve(p, self.S, default_r_grid(1e-4, 1.0, 5))

    def test_linear_curve_matches_substituted_quadrature(self):
        # theta = x^2 takes the theta^(-1/2) end singularity out of the oracle
        curve = Curve("circle_theta")

        def f(x, part):
            return 2.0 * x * over_d_at(curve.points(np.array([x * x]))[0], self.S)[part]

        kink = math.sqrt(math.pi / 4.0)
        oracle = [quad(lambda x: f(x, part), 0.0, 1.0, points=[kink], epsabs=0,
                       epsrel=1e-13, limit=400)[0] for part in (0, 1)]
        U = ThorinMeasure(2, [curve])
        a_res = a_over_d_integral(readme_params(U), self.S)
        e_res = e_over_d_integral(readme_params(U), self.S)
        assert a_res.finite and e_res.finite
        assert a_res.value == pytest.approx(oracle[0], rel=1e-7)
        assert e_res.value == pytest.approx(oracle[1], rel=1e-7)


class TestKernelCalls:
    def test_ray_only_measure_calls_the_kernel_once_per_ray_and_radius(self, monkeypatch):
        calls = []
        original = density.kappa_log_grid

        def counted(rho, ws):
            calls.append(np.size(ws))
            return original(rho, ws)

        monkeypatch.setattr(density, "kappa_log_grid", counted)
        p = WvggParams(np.zeros(2), README_MU, README_SIGMA,
                       beta2_measure(1.0, 2.0, [1.0, 1.0]))
        rs = default_r_grid(1e-2, 10.0, 50)
        h_many(p, np.array([0.6, 0.8]), rs)
        assert len(calls) == 50 and min(calls) > 0
        calls.clear()
        h_many(p, np.array([0.6, 0.8]), rs, derivative=True)
        assert len(calls) == 100 and min(calls) > 0

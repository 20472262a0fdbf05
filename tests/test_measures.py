import json
import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from wvgg.measures import (Atom, Curve, NotRaySupported, Ray, RayDensity,
                           ThorinMeasure, alpha_gamma_measure, beta2_measure,
                           circle_measure, integrate, integrate_component,
                           make_ray_density, measure_from_json,
                           measure_to_json, moment_strong, ray_half_moment,
                           register_ray_density, sdcex_measure, validate,
                           WvggParams)
from wvgg import measures
from wvgg.linalg import CovMatrix
from wvgg.quadrature import gauss_panels, improper_integral


def beta2_half_moment(a, b):
    # B(a + 1/2, b - 1/2) / B(a, b), finite only for b > 1/2
    return math.exp(math.lgamma(a + 0.5) + math.lgamma(b - 0.5)
                    - math.lgamma(a) - math.lgamma(b))


def lebesgue_density(params):
    # deliberately invalid as a Thorin radial density; exercises the
    # divergence detector
    scale = float(params.get("scale", 1.0))
    return RayDensity("lebesgue", {"scale": scale},
                      lambda v: np.full_like(np.asarray(v, dtype=float), scale),
                      decay_at_inf=0.0)


@pytest.fixture
def lebesgue(monkeypatch):
    # registered on a copy of the registry, so no other test sees the name
    monkeypatch.setattr(measures, "_RAY_DENSITIES", dict(measures._RAY_DENSITIES))
    register_ray_density("lebesgue", lebesgue_density)
    return make_ray_density("lebesgue", {})


class TestValidity:
    def test_atomic_measures_always_valid(self):
        m = ThorinMeasure(2, [Atom(2.0, np.array([0.01, 0.0])),
                              Atom(1.0, np.array([5.0, 3.0]))])
        rep = validate(m)
        assert rep.valid and math.isfinite(rep.integral_value)

    @pytest.mark.parametrize("a,b", [(0.5, 0.3), (1.0, 2.0), (3.0, 0.1)])
    def test_beta2_valid_for_all_parameters(self, a, b):
        assert validate(beta2_measure(a, b, [1.0, 1.0])).valid

    def test_lebesgue_ray_invalid(self, lebesgue):
        m = ThorinMeasure(2, [Ray(np.array([1.0, 1.0]), lebesgue)], check=False)
        rep = validate(m)
        assert not rep.valid
        assert rep.offending == 0

    def test_constructor_rejects_invalid(self, lebesgue):
        with pytest.raises(ValueError, match="Thorin"):
            ThorinMeasure(2, [Ray(np.array([1.0, 1.0]), lebesgue)])

    def test_all_constructors_validate(self):
        fixtures = [
            alpha_gamma_measure(0.4, [1.0, 2.0]),
            beta2_measure(1.5, 0.7, [2.0, 1.0]),
            circle_measure("theta"),
            circle_measure("theta_squared"),
            sdcex_measure(2.0, 1.0, 0.5, 1.0, [1.0, 1.0]),
            sdcex_measure(1.0, 1.0, 1.0, 0.0, [1.0, 3.0]),
        ]
        for m in fixtures:
            assert validate(m).valid


class TestIntegrate:
    @staticmethod
    def one(points, t):
        return np.ones(points.shape[0])

    def test_atoms_exact_sum(self):
        atoms = [Atom(0.7, np.array([0.5, 2.0])), Atom(1.3, np.array([3.0, 0.0]))]

        def g(points, t):
            return np.linalg.norm(t * points, axis=-1)

        res = integrate(atoms, g)
        assert res.value == 0.7 * math.hypot(0.5, 2.0) + 1.3 * 3.0
        assert res.finite and res.error == 0.0

    def test_beta2_ray_unit_mass(self):
        ray = Ray(np.array([1.0, 2.0]), make_ray_density("beta2", {"a": 1.5, "b": 2.0}))
        assert integrate_component(ray, self.one).value == pytest.approx(1.0, rel=1e-9)

    def test_ray_evaluates_its_direction_at_t_v(self):
        # beta2(1, 2) has mean a / (b - 1) = 1, so int ||v alpha|| dU = ||alpha||
        alpha = np.array([1.0, 2.0])
        ray = Ray(alpha, make_ray_density("beta2", {"a": 1.0, "b": 2.0}))
        seen = []

        def g(points, t):
            seen.append(points.shape[0])
            return t * np.linalg.norm(points, axis=-1)

        res = integrate_component(ray, g)
        assert set(seen) == {1}
        assert res.value == pytest.approx(math.hypot(1.0, 2.0), rel=1e-9)

    def test_curve_interval_length(self):
        curve = Curve("circle_theta", (0.2, 1.1))
        assert integrate_component(curve, self.one).value == pytest.approx(0.9, rel=1e-12)

    def test_sum_reports_component_rounds(self):
        comps = [Atom(1.0, np.array([1.0, 1.0])),
                 Ray(np.array([1.0, 2.0]), make_ray_density("beta2", {"a": 1.0, "b": 2.0})),
                 Curve("circle_theta", (0.0, 1.0))]
        res = integrate(comps, self.one)
        rounds = [integrate_component(c, self.one).rounds for c in comps]
        assert rounds[0] == 0 and rounds[1] > 0 and rounds[2] > 0
        assert res.rounds == sum(rounds)

    def test_curve_integral_split_at_kink(self):
        # |cos - sin| has its kink at theta = pi / 4, where the coordinates cross
        res = integrate_component(Curve("circle_theta", (0.0, 1.0)),
                                  lambda points, t: np.abs(points[:, 0] - points[:, 1]))
        exact = 2.0 * math.sqrt(2.0) - 1.0 - math.cos(1.0) - math.sin(1.0)
        assert res.value == pytest.approx(exact, rel=1e-12)

    def test_stops_at_first_divergent_component(self, lebesgue):
        ray = Ray(np.array([1.0, 1.0]), lebesgue)
        res = integrate([Atom(1.0, np.array([1.0, 1.0])), ray,
                         Curve("circle_theta", (0.0, 1.0))], self.one)
        assert not res.finite


class TestAlphaGamma:
    def test_worked_atoms(self):
        m = alpha_gamma_measure(0.5, [1.0, 1.0])
        masses = sorted(a.mass for a in m.atoms())
        assert masses == pytest.approx([0.5, 0.5, 0.5])
        pts = {tuple(np.round(a.point, 12)) for a in m.atoms()}
        assert pts == {(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)}

    def test_vanishing_axis_atom(self):
        m = alpha_gamma_measure(1.0 - 1e-13, [1.0, 0.5])
        # beta_1 = (1 - a)/1 ~ 1e-13 -> dropped
        assert len([a for a in m.atoms() if np.argmax(a.point) == 0
                    and np.count_nonzero(a.point) == 1]) == 0

    def test_constraint_violation(self):
        with pytest.raises(ValueError):
            alpha_gamma_measure(0.5, [2.0, 1.0])


class TestBeta2:
    def test_total_mass_one(self):
        dens = make_ray_density("beta2", {"a": 1.7, "b": 0.9})
        res = improper_integral(dens)
        assert res.finite
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_closed_form_density(self):
        dens = make_ray_density("beta2", {"a": 1.0, "b": 2.0})
        v = np.array([0.5, 1.0, 3.0])
        assert np.allclose(dens(v), 2.0 * (1.0 + v) ** -3)

    @pytest.mark.parametrize("b,finite", [(2.0, True), (0.8, True), (0.4, False)])
    def test_half_moment_threshold(self, b, finite):
        m = beta2_measure(1.0, b, [1.0, 1.0])
        res = ray_half_moment(m)[0]
        assert res.result.finite == finite
        if finite and b > 0.6:
            assert res.result.value == pytest.approx(beta2_half_moment(1.0, b),
                                                     rel=1e-3)


class TestCircle:
    def test_total_mass(self):
        c = circle_measure("theta")
        res = improper_integral(lambda t: np.ones_like(t), lo=0.0, hi=1.0)
        assert res.value == pytest.approx(1.0, abs=1e-10)
        assert validate(c).valid

    def test_quadratic_support_in_first_quadrant(self):
        c = circle_measure("theta_squared")
        pts = c.curves()[0].points(np.linspace(1e-6, 1.0, 100))
        assert np.all(pts >= 0)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)

    def test_strong_moment_integrand_divergence(self):
        assert moment_strong(circle_measure("theta")).finite
        assert not moment_strong(circle_measure("theta_squared")).finite

    def test_requires_known_name(self):
        with pytest.raises(KeyError):
            circle_measure("spiral")


class TestCurveRule:
    @pytest.mark.parametrize("name,interval,kinks", [
        ("circle_theta", (0.0, 1.0), [math.pi / 4.0]),
        ("circle_theta", (0.2, 1.1), [math.pi / 4.0]),
        ("circle_theta", (0.0, 0.5), []),
        ("circle_theta2", (0.0, 1.0), [math.sqrt(math.pi / 4.0)]),
    ], ids=["theta", "theta_on_0.2_1.1", "theta_no_crossing", "theta2"])
    def test_kinks_and_rule(self, name, interval, kinks):
        c = Curve(name, interval)
        assert list(c.kinks) == pytest.approx(kinks, rel=1e-14)
        lo, hi = interval
        thetas, weights = c.rule
        assert np.all((thetas > lo) & (thetas < hi))
        assert weights.sum() == pytest.approx(hi - lo, rel=1e-14)
        # |theta - kink| is integrated exactly only when the kink is a panel edge
        for k in c.kinks:
            exact = 0.5 * ((k - lo) ** 2 + (hi - k) ** 2)
            assert np.sum(weights * np.abs(thetas - k)) == pytest.approx(exact, rel=1e-14)

    def test_orthant_verdict(self):
        inside = Curve("circle_theta", (0.0, 1.0))
        outside = Curve("circle_theta", (1.0, 2.0))    # cos 2 < 0
        assert inside.in_open_orthant and not outside.in_open_orthant
        U = ThorinMeasure(2, [inside, outside])
        assert U.positive_part() == [inside]


class TestTruncatedPowerLaw:
    def test_validity_with_g_zero_c_one(self):
        m = sdcex_measure(1.0, 1.0, 1.0, 0.0, [1.0, 1.0])
        assert validate(m).valid

    def test_axis_components_omitted_when_none(self):
        m = sdcex_measure(2.0, 1.0, 0.5, 1.0, [1.0, 1.0], [None, None])
        assert len(m.components) == 1

    def test_axis_components_attached(self):
        dens = make_ray_density("beta2", {"a": 1.0, "b": 2.0})
        m = sdcex_measure(2.0, 1.0, 0.5, 1.0, [1.0, 1.0], [dens, None])
        assert len(m.components) == 2
        axis = m.rays()[1]
        assert np.array_equal(axis.direction, np.array([1.0, 0.0]))

    def test_half_moment_divergent_for_c_half(self):
        m = sdcex_measure(2.0, 1.0, 0.5, 1.0, [1.0, 1.0])
        assert ray_half_moment(m)[0].divergent


class TestMomentStrong:
    def test_atoms_exact_sum(self):
        pts = [np.array([0.5, 0.5]), np.array([2.0, 1.0])]
        masses = [0.7, 1.3]
        m = ThorinMeasure(2, [Atom(mm, p) for mm, p in zip(masses, pts)])
        expected = sum(mm * (1 + np.linalg.norm(p) ** 0.5)
                       * (np.linalg.norm(p) ** 2 / np.prod(p)) ** 0.5
                       for mm, p in zip(masses, pts))
        res = moment_strong(m)
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_no_orthant_mass_gives_zero(self):
        m = ThorinMeasure(2, [Atom(1.0, np.array([1.0, 0.0]))])
        res = moment_strong(m)
        assert res.value == 0.0 and res.finite

    def test_ray_decomposition_identity(self):
        # against an independent adaptive quadrature of each ray
        dirs = [np.array([1.0, 2.0]), np.array([0.5, 0.5])]
        ab = [(1.0, 2.0), (2.0, 3.0)]
        m = ThorinMeasure(2, [Ray(d, make_ray_density("beta2", {"a": a, "b": b}))
                              for d, (a, b) in zip(dirs, ab)])
        total = moment_strong(m).value
        expected = 0.0
        for d, (a, b) in zip(dirs, ab):
            factor = (np.linalg.norm(d) ** 2 / np.prod(d)) ** 0.5
            dens = make_ray_density("beta2", {"a": a, "b": b})
            val, _ = quad(lambda v: (1 + math.sqrt(v * np.linalg.norm(d)))
                          * float(dens(np.array([v]))[0]), 0, np.inf, limit=400)
            expected += factor * val
        assert total == pytest.approx(expected, rel=1e-8)


class TestRayHalfMoment:
    def test_atom_on_ray(self):
        m = ThorinMeasure(2, [Atom(2.0, np.array([3.0, 4.0]))])
        res = ray_half_moment(m)[0]
        assert res.result.value == pytest.approx(2.0 * math.sqrt(5.0))

    def test_tail_only_variant(self):
        m = ThorinMeasure(2, [Atom(2.0, np.array([0.3, 0.4]))])
        assert ray_half_moment(m, tail_only=True)[0].result.value == 0.0
        m2 = beta2_measure(1.0, 2.0, [1.0, 1.0])
        full = ray_half_moment(m2)[0].result.value
        tail = ray_half_moment(m2, tail_only=True)[0].result.value
        assert 0 < tail < full

    def test_curve_not_ray_supported(self):
        with pytest.raises(NotRaySupported):
            ray_half_moment(circle_measure("theta"))


class TestDivergenceCalibration:
    @pytest.mark.parametrize("p,finite", [(0.5, True), (0.9, True),
                                          (1.5, False), (2.5, False)])
    def test_power_density_near_zero_against_half_moment(self, p, finite):
        def f(v):
            return np.where(v <= 1.0, v ** -p, 0.0) * np.sqrt(v)

        res = improper_integral(f, lo=0.0, hi=1.0)
        assert res.finite == finite

    def test_nan_integrand_raises(self):
        def f(v):
            return np.where(v < 0.5, np.nan, 1.0)

        with pytest.raises(ArithmeticError):
            gauss_panels(f, np.linspace(0.0, 1.0, 5))
        with pytest.raises(ArithmeticError):
            improper_integral(f, lo=0.0, hi=1.0)

    def test_infinite_integrand_reads_divergent(self):
        # infinities are clipped to 1e300, not dropped, so the detector sees them
        value, _ = gauss_panels(lambda v: np.full_like(v, np.inf), np.linspace(0.0, 1.0, 5))
        assert value > 1e299
        assert improper_integral(lambda v: np.full_like(v, np.inf), lo=0.0, hi=1.0).divergent

    def test_complex_integrand_keeps_imaginary_part(self):
        res = improper_integral(lambda t: np.exp(1j * t), lo=0.0, hi=1.0, open_lo=False)
        assert res.finite
        assert abs(res.value - (np.exp(1j) - 1.0) / 1j) < 1e-14


class TestJsonAndRegistry:
    def test_round_trip(self):
        m = ThorinMeasure(2, [
            Atom(0.5, np.array([0.5, 0.5])),
            Ray(np.array([1.0, 2.0]), make_ray_density("beta2", {"a": 1.0, "b": 2.0})),
            Curve("circle_theta2", (0.0, 1.0))])
        blob = json.dumps(measure_to_json(m))
        m2 = measure_from_json(json.loads(blob))
        assert measure_to_json(m2) == measure_to_json(m)

    def test_unknown_density_rejected(self):
        with pytest.raises(KeyError):
            make_ray_density("gh_type", {"lam": 1.0})

    def test_registered_density_usable(self):
        def builder(params):
            rate = float(params["rate"])
            return RayDensity("test_exp", {"rate": rate},
                              lambda v: np.exp(-rate * np.asarray(v, dtype=float)),
                              decay_at_inf=-math.inf)

        register_ray_density("test_exp", builder)
        m = measure_from_json({"n": 2, "components": [
            {"kind": "ray", "direction": [1.0, 1.0],
             "density": {"name": "test_exp", "rate": 2.0}}]})
        assert validate(m).valid

    def test_params_dimension_checks(self):
        with pytest.raises(Exception):
            WvggParams(np.zeros(3), np.zeros(2), CovMatrix(np.eye(2)),
                       circle_measure("theta"))
        with pytest.raises(ValueError):
            WvggParams(np.array([-1.0, 0.0]), np.zeros(2), CovMatrix(np.eye(2)),
                       circle_measure("theta"))


class TestDetectorResolution:
    @pytest.mark.parametrize("p,finite", [(-1.3, True), (-1.1, True),
                                          (-1.05, True), (-1.0, False),
                                          (-0.9, False)])
    def test_tail_exponents_resolved_outside_boundary_band(self, p, finite):
        f = lambda v: np.where(v >= 1.0, v ** p, 0.0)
        res = improper_integral(f, lo=1.0, hi=np.inf, open_lo=False)
        assert res.finite == finite


def substituted_quad(log_w, p, lo=0.0):
    """int_lo^inf v^p w(v) dv as int exp(ln w(e^x) + (p + 1) x) dx.  The
    substitution v = e^x keeps a slow tail such as v^(-1.02) inside the
    oracle's reach; ``log_w`` takes x."""
    def f(x):
        return math.exp(log_w(x) + (p + 1.0) * x)

    x_lo = math.log(lo) if lo > 0 else -math.inf
    cuts = [x_lo, *([0.0] if x_lo < 0.0 else []), math.inf]
    return sum(quad(f, a, b, epsabs=0, epsrel=1e-12, limit=500)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))


def without_facts(dens):
    # the same density as a plug-in: every finiteness verdict goes to the detector
    return RayDensity(dens.name + "_bare", dens.params, dens.fn, dens.support_lo,
                      dens.support_hi, dens.pole_at_0, dens.decay_at_inf)


class TestExactFacts:
    @pytest.mark.parametrize("b", [0.52, 0.6, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5])
    def test_beta2_mass_and_half_moment(self, a, b):
        dens = make_ray_density("beta2", {"a": a, "b": b})
        lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

        def log_w(x):
            return lognorm + (a - 1.0) * x - (a + b) * np.logaddexp(0.0, x)

        v = np.array([0.3, 2.0])
        assert dens(v) == pytest.approx(np.exp(log_w(np.log(v))), rel=1e-13)
        assert dens.valid
        assert dens.mass == pytest.approx(substituted_quad(log_w, 0.0), rel=1e-9)
        assert dens.half_moment == pytest.approx(substituted_quad(log_w, 0.5), rel=1e-9)

    @pytest.mark.parametrize("c", [1.2, 1.52, 1.6, 2.0, 3.0])
    @pytest.mark.parametrize("a,b,g", [(1.0, 1.0, 0.0), (0.5, 2.0, 0.0), (3.0, 0.7, 0.0),
                                       (1.0, 1.0, 2.0), (0.5, 2.0, 0.3)])
    def test_power_cut_mass_and_half_moment(self, a, b, c, g):
        dens = make_ray_density("power_cut", {"a": a, "b": b, "c": c, "g": g})

        def log_w(x):
            return -c * np.logaddexp(math.log(a) + x, math.log(b))

        assert dens.valid
        assert dens.mass == pytest.approx(substituted_quad(log_w, 0.0, lo=g), rel=1e-9)
        if c <= 1.5:
            assert dens.half_moment == math.inf
        else:
            assert dens.half_moment == pytest.approx(substituted_quad(log_w, 0.5, lo=g),
                                                     rel=1e-9)

    @pytest.mark.parametrize("p", [0.001, 0.02, 0.5, 2.5, 28.5])
    @pytest.mark.parametrize("q", [0.3, 1.5, 4.0])
    def test_incomplete_beta_on_both_sides_of_the_switch(self, p, q):
        for x in (1e-6, 0.2, 0.5, 0.9, 0.999999, 1.0):
            assert measures._incomplete_beta(p, q, x) == pytest.approx(
                special.betainc(p, q, x) * special.beta(p, q), rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_power_cut_divergent_mass(self, c):
        dens = make_ray_density("power_cut", {"a": 1.0, "b": 1.0, "c": c, "g": 1.0})
        assert dens.mass == math.inf and dens.half_moment == math.inf

    @pytest.mark.parametrize("name", ["circle_theta", "circle_theta2"])
    def test_curve_orders_are_the_vanishing_orders(self, name):
        curve = Curve(name, (0.0, 1.0))
        orders = measures._CURVES[name].orders_at_0
        thetas = np.geomspace(1e-6, 1e-3, 4)
        for k, m in enumerate(orders):
            ratios = curve.points(thetas)[:, k] / thetas ** m
            # c_k(theta) / theta^m settles on a nonzero finite limit
            assert ratios[0] > 0.1
            assert ratios[0] == pytest.approx(ratios[-1], rel=1e-5)
        assert np.allclose(np.linalg.norm(curve.points(np.linspace(-3.0, 3.0, 601)),
                                          axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name,interval,order", [
        ("circle_theta", (0.0, 1.0), 1), ("circle_theta2", (0.0, 1.0), 2),
        ("circle_theta2", (-0.5, 0.5), 2), ("circle_theta2", (0.2, 1.0), 0),
        ("circle_theta", (-1.0, 0.0), 1)])
    def test_order_at_zero_needs_zero_in_the_interval(self, name, interval, order):
        curve = Curve(name, interval)
        assert curve.order_at_zero() == order
        assert curve.order_at_zero(np.array([True, False])) == 0

    def test_unit_norm_curve_validity_is_its_length(self):
        rep = validate(ThorinMeasure(2, [Curve("circle_theta2", (0.2, 1.1))]))
        assert rep.valid and rep.integral_value == pytest.approx(0.9, rel=1e-15)

    BUILT_INS = [("beta2", {"a": 1.0, "b": 0.3}), ("beta2", {"a": 0.5, "b": 0.8}),
                 ("beta2", {"a": 2.0, "b": 3.0}),
                 ("power_cut", {"a": 1.0, "b": 1.0, "c": 0.7}),
                 ("power_cut", {"a": 1.0, "b": 1.0, "c": 1.3}),
                 ("power_cut", {"a": 2.0, "b": 0.5, "c": 1.8}),
                 ("power_cut", {"a": 1.0, "b": 1.0, "c": 2.5, "g": 1.5})]

    @pytest.mark.parametrize("name,params", BUILT_INS)
    def test_exact_verdicts_agree_with_the_detector(self, name, params):
        # every tail exponent here lies outside the detector's (-1.05, -1] band
        dens = make_ray_density(name, params)
        bare = without_facts(dens)
        alpha = np.array([1.0, 2.0])
        exact = ThorinMeasure(2, [Ray(alpha, dens)])
        detected = ThorinMeasure(2, [Ray(alpha, bare)], check=False)
        assert validate(detected).valid == validate(exact).valid is True
        mass = improper_integral(bare, lo=bare.support_lo)
        assert mass.finite == math.isfinite(dens.mass)
        for f in (moment_strong, lambda m: ray_half_moment(m)[0].result):
            assert f(detected).finite == f(exact).finite
            assert f(detected).numeric and not f(exact).numeric

    @pytest.mark.parametrize("name,interval", [
        ("circle_theta", (0.0, 1.0)), ("circle_theta2", (0.0, 1.0)),
        ("circle_theta2", (0.2, 1.0))])
    def test_curve_strong_moment_verdict_agrees_with_the_detector(self, name, interval):
        # the integrand grows like theta^(-1/2), theta^(-1) and not at all
        curve = Curve(name, interval)
        n = 2

        def g(points, t):
            norms = np.linalg.norm(points, axis=-1)
            return ((1.0 + np.sqrt(t * norms)) * norms ** (n / 2.0)
                    / np.sqrt(np.prod(points, axis=-1)))

        res = moment_strong(ThorinMeasure(2, [curve]))
        assert res.finite == integrate_component(curve, g).finite
        assert res.finite == (curve.order_at_zero() < 2)
        assert not res.numeric

    def test_readme_measure_and_strong_moment_call_no_detector(self, monkeypatch):
        calls = []
        original = measures.improper_integral

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(measures, "improper_integral", counted)
        U = measure_from_json({"n": 2, "components": [
            {"kind": "atom", "mass": 0.5, "point": [0.5, 0.5]},
            {"kind": "ray", "direction": [1.0, 1.0],
             "density": {"name": "beta2", "a": 1.0, "b": 2.0}},
            {"kind": "curve", "curve": "circle_theta2", "interval": [0, 1]}]})
        res = moment_strong(U)
        assert not res.finite and res.error == math.inf and not res.numeric
        assert calls == []
        # the ray's validity value is integrated once, when first read
        rep = validate(U)
        assert calls == []
        assert rep.integral_value == pytest.approx(
            0.5 * (1.0 + math.log(2.0) / 2.0) + rep.per_component[1].value + 1.0, rel=1e-12)
        assert rep.per_component[1].finite and len(calls) == 1
        rep.per_component, rep.integral_value
        assert len(calls) == 1

    def test_ray_strong_moment_matches_the_detector(self):
        alpha = np.array([1.0, 2.0])
        dens = make_ray_density("beta2", {"a": 1.0, "b": 2.0})
        exact = moment_strong(ThorinMeasure(2, [Ray(alpha, dens)]))
        detected = moment_strong(ThorinMeasure(2, [Ray(alpha, without_facts(dens))],
                                               check=False))
        assert exact.value == pytest.approx(detected.value, rel=1e-13)
        assert exact.error == 0.0 and exact.rounds == 0

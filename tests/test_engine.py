import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from wvgg import engine
from wvgg.density import MonotonicityVerdict, default_r_grid
from wvgg.engine import (Budget, Counterexample, VerificationError,
                         build_sd_counterexample, classify,
                         equivalent_conditions, gstar, gstar_deriv,
                         gstar_f_values, identify_subclass, _sphere_grid)
from wvgg.linalg import CovMatrix, random_spd
from wvgg.measures import (Atom, Curve, Ray, ThorinMeasure, WvggParams,
                           alpha_gamma_measure, beta2_measure, circle_measure,
                           make_ray_density, sdcex_measure)
from wvgg.quadrature import improper_integral

CORR = CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
FAST = Budget(s_samples=24, scan_directions=6, r_grid=default_r_grid(count=80), seed=3)


def wvag_params(mu, sigma=CORR, a=0.5, alpha=(1.0, 1.0)):
    return WvggParams(np.zeros(len(alpha)), np.asarray(mu, dtype=float), sigma,
                      alpha_gamma_measure(a, list(alpha)))


class TestSubclass:
    def test_alpha_gamma_pattern(self):
        tag = identify_subclass(wvag_params([1.0, 0.0]))
        assert "WVAG" in tag and "WVMG" in tag
        assert not tag.drift_zero

    def test_finite_support_is_matrix_gamma(self):
        U = ThorinMeasure(2, [Atom(1.0, np.array([1.0, 2.0]))])
        tag = identify_subclass(WvggParams(np.zeros(2), np.zeros(2), CORR, U))
        assert "WVMG" in tag and "WVAG" not in tag
        assert tag.drift_zero

    def test_single_gamma_tags(self):
        U = ThorinMeasure(2, [Atom(1.0, np.array([0.5, 0.5]))])
        p = WvggParams(np.zeros(2), np.zeros(2), CovMatrix(np.diag([1.0, 2.0])), U)
        tag = identify_subclass(p)
        assert {"VG", "VGG_n1", "VGG_nn"} <= tag.tags

    def test_e_ray_density_is_univariate_class(self):
        U = beta2_measure(1.0, 2.0, [0.5, 0.5])
        tag = identify_subclass(WvggParams(np.zeros(2), np.array([1.0, 0.0]), CORR, U))
        assert "VGG_n1" in tag and "VG" not in tag

    def test_diagonal_sigma_is_multivariate_class(self):
        U = beta2_measure(1.0, 2.0, [1.0, 0.0])
        p = WvggParams(np.zeros(2), np.array([1.0, 0.0]),
                       CovMatrix(np.diag([1.0, 2.0])), U)
        assert "VGG_nn" in identify_subclass(p)


class TestClassifyLadder:
    def test_univariate_always_sd(self):
        U = ThorinMeasure(1, [Atom(1.0, np.array([1.0]))])
        p = WvggParams(np.zeros(1), np.array([5.0]), CovMatrix([[1.0]]), U)
        rep = classify(p, FAST)
        assert rep.verdict == "SD" and rep.rule == "Thm3.1(n=1)"

    def test_driftless_sd(self):
        rep = classify(wvag_params([0.0, 0.0]), FAST)
        assert rep.verdict == "SD" and rep.rule == "Thm3.1(iii)"
        assert not rep.numeric_only

    def test_alpha_gamma_with_drift_not_sd(self):
        rep = classify(wvag_params([1.0, 0.0]), FAST)
        assert rep.verdict == "NOT_SD" and rep.rule == "Cor3.5(ii)"

    def test_matrix_gamma_with_drift_not_sd(self):
        U = ThorinMeasure(2, [Atom(1.0, np.array([1.0, 2.0])),
                              Atom(0.5, np.array([2.0, 1.0]))])
        p = WvggParams(np.zeros(2), np.array([1.0, 0.0]),
                       CovMatrix(np.array([[1.0, 0.3], [0.3, 1.0]])), U)
        rep = classify(p, FAST)
        assert rep.verdict == "NOT_SD" and rep.rule == "Cor3.6(ii)"

    def test_singular_sigma_inconclusive(self):
        rank1 = np.outer([1.0, 1.0], [1.0, 1.0])
        p = WvggParams(np.zeros(2), np.array([1.0, 0.0]),
                       CovMatrix(0.5 * (rank1 + rank1.T)),
                       alpha_gamma_measure(0.5, [1.0, 1.0]))
        rep = classify(p, FAST)
        assert rep.verdict == "INCONCLUSIVE"

    def test_axis_mass_only_inconclusive(self):
        U = ThorinMeasure(2, [Atom(1.0, np.array([1.0, 0.0])),
                              Atom(1.0, np.array([0.0, 1.0]))])
        p = WvggParams(np.zeros(2), np.array([1.0, 0.0]), CORR, U)
        rep = classify(p, FAST)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.rule == "Thm3.2(vii)-no-positive-mass"

    def test_linear_circle_measure_via_strong_moment(self):
        p = WvggParams(np.zeros(2), np.array([1.0, 0.5]), CORR,
                       circle_measure("theta"))
        rep = classify(p, FAST)
        assert rep.verdict == "NOT_SD" and rep.rule == "Thm3.2(v)"
        assert not rep.numeric_only

    def test_quadratic_circle_measure_numeric(self):
        p = WvggParams(np.zeros(2), np.array([1.0, 0.5]), CORR,
                       circle_measure("theta_squared"))
        rep = classify(p, FAST)
        assert rep.verdict == "NOT_SD" and rep.rule == "Thm3.2(iv)-numeric"
        assert rep.numeric_only
        strong = [e for e in rep.evidence if e.name == "moment_strong"]
        assert strong and strong[0].value == math.inf

    def test_ray_measures_via_half_moments(self):
        U = ThorinMeasure(2, [
            Ray(np.array([1.0, 2.0]), make_ray_density("beta2", {"a": 1.0, "b": 2.0})),
            Ray(np.array([2.0, 1.0]), make_ray_density("beta2", {"a": 1.5, "b": 0.8}))])
        p = WvggParams(np.zeros(2), np.array([0.5, -0.3]), CORR, U)
        rep = classify(p, FAST)
        assert rep.verdict == "NOT_SD" and rep.rule == "Thm3.2(vi)"

    def test_univariate_class_refinement_fires_below_old_threshold(self):
        # half moment finite for b in (1/2, 1] even though the second moment
        # (n = 2 requirement of the coarser criterion) diverges
        b = 0.8
        U = beta2_measure(1.0, b, [0.5, 0.5])
        p = WvggParams(np.zeros(2), np.array([0.5, -0.3]), CORR, U)
        rep = classify(p, FAST)
        assert rep.verdict == "NOT_SD" and rep.rule == "Cor3.3(ii)"
        dens = make_ray_density("beta2", {"a": 1.0, "b": b})
        second = improper_integral(lambda v: v * v * dens(v))
        assert not second.finite

    def test_report_serialisation(self):
        rep = classify(wvag_params([1.0, 0.0]), FAST)
        blob = json.loads(rep.dumps())
        assert blob["verdict"] == "NOT_SD"
        assert blob["rule"] == "Cor3.5(ii)"
        assert isinstance(blob["evidence"], list)
        assert blob["seed"] == FAST.seed

    def test_budget_exhaustion_yields_partial_report(self):
        p = WvggParams(np.zeros(2), np.array([1.0, 0.5]), CORR,
                       circle_measure("theta_squared"))
        rep = classify(p, Budget(s_samples=24, seed=3, time_limit_s=0.0))
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.rule == "budget-exhausted"
        assert any(e.name == "budget_exhausted" for e in rep.evidence)

    def test_readme_audit_pins_rules_and_evidence_order(self):
        U = ThorinMeasure(2, [
            Atom(0.5, np.array([0.5, 0.5])),
            Ray(np.array([1.0, 1.0]), make_ray_density("beta2", {"a": 1.0, "b": 2.0})),
            Curve("circle_theta2", (0.0, 1.0))])
        p = WvggParams(np.zeros(2), np.array([1.0, 0.0]), CORR, U)
        b = Budget(s_samples=4, r_grid=default_r_grid(count=40), scan_directions=2, seed=7)
        rep = classify(p, b, audit=True)
        assert (rep.verdict, rep.rule, rep.numeric_only) == (
            "NOT_SD", "Thm3.2(iv)-numeric", True)
        assert [e.name for e in rep.evidence] == [
            "moment_strong", "cone_samples_accepted", "rule8_pass_fraction",
            "min_mean_positivity", "h0_positive_fraction",
            "strict_increase_fraction", "r0_witness", "audit_rules_fired"]
        assert rep.evidence[-1].note == (
            "Thm3.2(iv)-numeric;Thm3.2(iii)-numeric;Thm3.2(ii)-numeric")

    @pytest.mark.parametrize("audit", [False, True])
    def test_exhausted_budget_keeps_evidence_gathered_so_far(self, audit):
        # the half moment of beta2(1, 0.3) diverges, so rule 6 does not fire
        p = WvggParams(np.zeros(2), np.array([1.0, 0.5]), CORR,
                       beta2_measure(1.0, 0.3, [1.0, 1.0]))
        rep = classify(p, Budget(seed=3, time_limit_s=0.0), audit=audit)
        assert (rep.verdict, rep.rule, rep.numeric_only) == (
            "INCONCLUSIVE", "budget-exhausted", True)
        assert [e.name for e in rep.evidence] == ["ray_half_moment[0]", "budget_exhausted"]

    def test_half_moment_near_the_detector_band_is_exact(self):
        # the detector reads tail exponents in (-1.05, -1] as divergent; the
        # beta2 half moment B(3/2, 0.02) / B(1, 0.52) is finite
        p = WvggParams(np.zeros(2), np.array([1.0, 0.5]), CORR,
                       beta2_measure(1.0, 0.52, [1.0, 1.0]))
        rep = classify(p, Budget(seed=7))
        assert (rep.verdict, rep.rule, rep.numeric_only) == ("NOT_SD", "Cor3.3(ii)", False)
        (moment,) = [e for e in rep.evidence if e.name == "ray_half_moment[0]"]
        expected = math.exp(math.lgamma(1.5) + math.lgamma(0.02) - math.lgamma(0.52))
        assert moment.value == pytest.approx(expected, rel=1e-14)
        assert moment.tol == 0.0

    def test_radial_scan_checks_the_deadline_after_each_direction(self, monkeypatch):
        # a fake clock that only the radial scan advances, by 10 s a call
        clock, scanned = [0.0], []

        def scan(params, s_samples, r_grid=None, **kwargs):
            clock[0] += 10.0
            scanned.append(len(s_samples))
            return [MonotonicityVerdict(s, True, None, 0.0) for s in s_samples]

        monkeypatch.setattr(engine, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(engine, "monotonicity_scan", scan)
        # the half moment and A/D diverge on this ray, so no rule fires
        # before the radial scan
        p = WvggParams(np.zeros(2), np.array([1.0, 0.5]), CORR,
                       beta2_measure(1.0, 0.3, [1.0, 2.0]))
        rep = classify(p, Budget(s_samples=8, scan_directions=4, seed=9, time_limit_s=1.0))
        assert (rep.verdict, rep.rule) == ("INCONCLUSIVE", "budget-exhausted")
        assert scanned == [1]

    def test_cone_evidence_says_membership_is_unchecked_above_n_4(self):
        p = WvggParams(np.zeros(5), np.ones(5), CovMatrix(np.eye(5)),
                       beta2_measure(1.0, 0.3, np.ones(5)))
        rep = classify(p, Budget(s_samples=4, scan_directions=0, seed=1))
        (cone,) = [e for e in rep.evidence if e.name == "cone_samples_accepted"]
        assert (cone.value, cone.note) == (
            0.0, "of 4 sphere samples; cone membership is not checked above n = 4")

    def test_radial_scan_runs_on_the_budget_grid(self):
        # A/D diverges on this ray, so rule 9 rests on the radial scan
        p = WvggParams(np.zeros(2), np.array([5.0, 0.0]), CORR,
                       beta2_measure(0.5, 0.3, [1.0, 2.0]))
        witnesses = []
        for r_min, r_max in ((1e-4, 50.0), (1.0, 2.0)):
            rep = classify(p, Budget(s_samples=4, seed=9,
                                     r_grid=default_r_grid(r_min, r_max, 30)))
            assert rep.rule == "Thm3.2(ii)-numeric"
            (r0,) = [e.value for e in rep.evidence if e.name == "r0_witness"]
            witnesses.append(r0)
        assert witnesses[0] < 1.0 <= witnesses[1] <= 2.0

    def test_no_scan_directions_skips_rule_9(self):
        b = Budget(s_samples=4, scan_directions=0, r_grid=default_r_grid(count=20), seed=3)
        rep = classify(wvag_params([1.0, 0.0]), b, audit=True)
        assert rep.evidence[-1].note.split(";")[-1] == "Thm3.2(iv)-numeric"

    def test_audit_mode_consistency(self):
        for params in (wvag_params([0.0, 0.0]), wvag_params([1.0, 0.0])):
            rep = classify(params, FAST, audit=True)
            assert rep.verdict in ("SD", "NOT_SD")
        audit = classify(wvag_params([1.0, 0.0]), FAST, audit=True)
        rules = [e for e in audit.evidence if e.name == "audit_rules_fired"]
        assert rules and rules[0].value >= 2
        fired = rules[0].note.split(";")
        assert "Cor3.5(ii)" in fired
        # the numeric clauses agree with the exact ones on this fixture
        assert "Thm3.2(iv)-numeric" in fired
        assert any(r in fired for r in ("Thm3.2(iii)-numeric", "Thm3.2(ii)-numeric"))


def equivalence(U, mu=(1.0, 0.0), sigma=CORR, s=(0.6, 0.8)):
    params = WvggParams(np.zeros(2), np.asarray(mu, dtype=float), sigma, U)
    return equivalent_conditions(params, np.asarray(s, dtype=float))


class TestEquivalentConditions:
    def test_atoms_away_from_origin(self):
        U = ThorinMeasure(2, [Atom(1.0, np.array([1.0, 2.0])),
                              Atom(0.5, np.array([0.7, 0.7]))])
        rep = equivalence(U)
        assert rep.clause == "(i)"
        assert rep.agree and rep.equivalent_finite and rep.direct_finite

    def test_sphere_supported_quadratic_curve(self):
        sigma = CovMatrix(np.array([[1.3, 0.2], [0.2, 0.9]]))
        rep = equivalence(circle_measure("theta_squared"), mu=(1.0, 0.5), sigma=sigma)
        assert rep.clause == "(ii)"
        assert rep.agree and rep.equivalent_finite and rep.direct_finite

    def test_sphere_integrand_limit(self):
        # the clause-(ii) integrand tends to sqrt(Sigma_22)/|s_2| at the
        # parameter origin of the quadratic circle curve
        sigma = CovMatrix(np.array([[1.3, 0.2], [0.2, 0.9]]))
        s = np.array([0.6, 0.8])
        theta = 1e-5
        u = np.array([math.cos(theta ** 2), math.sin(theta ** 2)])
        m = np.minimum.outer(u, u) * sigma.entries
        f_val = 1.0 / math.sqrt(float(s @ np.linalg.solve(m, s)) * np.prod(u))
        assert f_val == pytest.approx(math.sqrt(sigma.entries[1, 1]) / abs(s[1]),
                                      rel=1e-6)

    def test_ray_supported_tail_moments(self):
        U = beta2_measure(1.0, 2.0, [1.0, 1.0])
        rep = equivalence(U)
        assert rep.clause == "(iii)"
        assert rep.agree and rep.equivalent_finite

    def test_ray_supported_divergent(self):
        U = sdcex_measure(2.0, 1.0, 0.5, 1.0, [1.0, 1.0])
        rep = equivalence(U, sigma=CovMatrix(np.eye(2)))
        assert rep.clause == "(iii)"
        assert rep.agree and rep.equivalent_finite is False and not rep.direct_finite

    def test_mixed_shapes_fall_back_to_direct_quadrature(self):
        U = ThorinMeasure(2, [Atom(0.5, np.array([0.2, 0.3])),
                              Curve("circle_theta", (0.0, 1.0))])
        rep = equivalence(U)
        assert rep.clause == "direct-only"
        assert rep.agree

    def test_agreement_across_fixture_battery(self):
        rng = np.random.default_rng(21)
        fixtures = []
        for _ in range(7):
            pts = [rng.uniform(0.5, 3.0, 2) for _ in range(int(rng.integers(1, 3)))]
            fixtures.append(ThorinMeasure(2, [Atom(float(rng.uniform(0.2, 2.0)), p)
                                              for p in pts]))
        for b in (0.7, 1.0, 2.0, 3.0, 5.0, 0.9):
            fixtures.append(beta2_measure(float(rng.uniform(0.5, 2.0)), b,
                                          rng.uniform(0.3, 2.0, 2)))
        fixtures.append(circle_measure("theta"))
        fixtures.append(circle_measure("theta_squared"))
        for g in (0.5, 1.0, 2.0):
            fixtures.append(sdcex_measure(2.0, 1.0, 0.5, g, [1.0, 1.5]))
        fixtures.append(sdcex_measure(1.0, 2.0, 1.0, 0.0, [1.0, 1.0]))
        fixtures.append(ThorinMeasure(2, [Atom(1.0, np.array([2.0, 1.0])),
                                          Atom(0.3, np.array([1.0, 1.0]))]))
        assert len(fixtures) >= 20
        sigma = CovMatrix(np.array([[1.0, 0.3], [0.3, 1.1]]))
        for U in fixtures:
            rep = equivalence(U, (0.8, -0.4), sigma)
            assert rep.agree, f"verdict mismatch for {U}"


class TestCounterexample:
    def test_worked_constants(self):
        cex = build_sd_counterexample(2, 0.5, np.zeros(2), np.array([1.0, 1.0]),
                                      np.array([1.0, 0.0]), CovMatrix(np.eye(2)),
                                      verify=False)
        assert cex.a == pytest.approx(2.0)
        assert cex.b == pytest.approx(1.0)
        assert cex.e_bar == pytest.approx(1.0)
        assert cex.h == pytest.approx(math.pi / 2.0)
        assert cex.a_low == pytest.approx(2.0)
        assert cex.b_low == pytest.approx(1.0)
        assert cex.g == pytest.approx(1.0)

    def test_rate_shape_coupling(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            sigma = random_spd(rng, n, min_det=1e-2)
            alpha = rng.uniform(0.3, 2.0, n)
            mu = rng.normal(size=n)
            cex = build_sd_counterexample(n, 0.75, np.zeros(n), alpha, mu, sigma,
                                          verify=False)
            m = np.minimum.outer(alpha, alpha) * sigma.entries
            mv = alpha * mu
            coupling = float(mv @ np.linalg.solve(m, mv))
            assert 2.0 * cex.b == pytest.approx(cex.a * coupling, rel=1e-12)
            assert cex.g >= 1.0

    def test_scan_verifies_nonincreasing(self):
        cex = build_sd_counterexample(2, 0.5, np.zeros(2), np.array([1.0, 1.0]),
                                      np.array([1.0, 0.0]), CovMatrix(np.eye(2)),
                                      s_count=8, r_grid=default_r_grid(count=60))
        assert all(v.nonincreasing for v in cex.verification)

    def test_classify_does_not_call_it_non_sd(self):
        cex = build_sd_counterexample(2, 0.5, np.zeros(2), np.array([1.0, 1.0]),
                                      np.array([1.0, 0.0]), CovMatrix(np.eye(2)),
                                      verify=False)
        rep = classify(cex.params, Budget(s_samples=10, scan_directions=4,
                                          r_grid=default_r_grid(count=60), seed=5))
        assert rep.verdict != "NOT_SD"
        assert rep.verdict == "INCONCLUSIVE"

    def test_random_draw_verification_battery(self):
        # ten random (alpha, mu, Sigma) constructions, n in {2, 3}, each
        # scanned on the full 32 x 200 grid at the 1e-10 margin
        rng = np.random.default_rng(41)
        for trial in range(10):
            n = 2 if trial % 2 == 0 else 3
            sigma = random_spd(rng, n, min_det=1e-2)
            alpha = rng.uniform(0.4, 2.0, n)
            mu = rng.normal(size=n)
            while not np.any(mu):
                mu = rng.normal(size=n)
            c = float(rng.uniform(0.5, 1.0))
            cex = build_sd_counterexample(n, c, np.zeros(n), alpha, mu, sigma,
                                          s_count=32,
                                          r_grid=default_r_grid(count=200),
                                          margin_tol=1e-10)
            assert len(cex.verification) == 32
            assert all(v.nonincreasing for v in cex.verification)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            build_sd_counterexample(2, 0.3, np.zeros(2), np.array([1.0, 1.0]),
                                    np.array([1.0, 0.0]), CovMatrix(np.eye(2)))

    def test_zero_drift_rejected(self):
        with pytest.raises(ValueError):
            build_sd_counterexample(2, 0.5, np.zeros(2), np.array([1.0, 1.0]),
                                    np.zeros(2), CovMatrix(np.eye(2)))


class TestGStar:
    def test_f_values_bounded_by_one(self):
        fs = gstar_f_values(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                            CovMatrix(np.eye(2)), _sphere_grid(2, 16))
        assert all(abs(f) <= 1.0 + 1e-12 for f in fs)

    def test_nonnegative_and_decreasing(self):
        fs = gstar_f_values(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                            CovMatrix(np.eye(2)), _sphere_grid(2, 8))
        ts = np.geomspace(1e-2, 20.0, 25)
        for f in (min(fs), max(fs), 0.0):
            for t in ts:
                assert gstar(float(t), f) >= 0.0
                assert gstar_deriv(float(t), f) < 0.0

    def test_limits(self):
        f = 0.9
        assert gstar(1e-3, f) > 100.0
        assert gstar(25.0, f) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            gstar(0.0, 0.5)


class TestDeterminismAndDimensions:
    def test_reports_reproducible_for_fixed_seed(self):
        p = WvggParams(np.zeros(2), np.array([1.0, 0.5]), CORR,
                       circle_measure("theta_squared"))
        b = Budget(s_samples=16, scan_directions=4, r_grid=default_r_grid(count=60), seed=9)
        first = classify(p, b).dumps()
        second = classify(p, b).dumps()
        assert first == second

    def test_three_dimensional_ladder(self):
        ag = alpha_gamma_measure(0.3, [1.0, 1.5, 0.8])
        sigma = CovMatrix(np.array([[1.0, 0.2, 0.1],
                                    [0.2, 1.0, 0.3],
                                    [0.1, 0.3, 1.0]]))
        p0 = WvggParams(np.zeros(3), np.zeros(3), sigma, ag)
        assert classify(p0, FAST).verdict == "SD"
        p1 = WvggParams(np.zeros(3), np.array([1.0, -0.5, 0.2]), sigma, ag)
        rep = classify(p1, FAST)
        assert (rep.verdict, rep.rule) == ("NOT_SD", "Cor3.5(ii)")

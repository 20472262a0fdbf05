"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Tolerances and runtime budgets are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from wvgg.bessel import (bessel_derivative_check, bessel_tail, kappa_bessel,
                         kappa_grid)
from wvgg.cli import main as cli_main
from wvgg.density import (default_r_grid, h_density, h_derivative,
                          h_derivative_at_zero, read_density_csv,
                          vg_char_exponent_closed_form, char_exponent,
                          vg_levy_density)
from wvgg.engine import (Budget, build_sd_counterexample, classify, gstar,
                         gstar_deriv, gstar_f_values, _sphere_grid)
from wvgg.geometry import QuantityContext, usp_infimum
from wvgg.linalg import (CovMatrix, delta_matrix, random_spd, theta_matrix,
                         upsilon_matrix, xi_extrema)
from wvgg.measures import (Atom, Ray, ThorinMeasure, WvggParams,
                           alpha_gamma_measure, beta2_measure, circle_measure,
                           make_ray_density, moment_strong)
from wvgg.quadrature import improper_integral


def report(k, text):
    print(f"\nACCEPTANCE {k}: {text}  PASS")


def test_acceptance_1_pattern_determinant_extrema():
    t0 = time.perf_counter()
    for n in range(1, 7):
        lo, hi = xi_extrema(n)
        assert isinstance(lo, int) and isinstance(hi, int)
        assert (lo, hi) == (n + 2, 2 ** (n + 1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"pattern-determinant extrema exact for n=1..6 in {elapsed:.3f}s")


def test_acceptance_2_pattern_matrix_random_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    for _ in range(1000):
        n = int(rng.integers(2, 7))
        v = rng.uniform(0.0, 1.0, n - 1)
        assert upsilon_matrix(v).eig_min >= -1e-9

    for _ in range(1000):
        n = int(rng.integers(1, 7))
        u = rng.uniform(0.05, 5.0, n)
        sigma = random_spd(rng, n)
        prod = theta_matrix(u).entries * sigma.entries
        assert float(np.linalg.eigvalsh(prod)[0]) > 0.0

    for _ in range(1000):
        n = int(rng.integers(2, 7))
        v = rng.uniform(0.0, 1.0, n - 1)
        sigma = random_spd(rng, n, min_det=1e-6)
        det = abs(np.linalg.det(delta_matrix(v) * sigma.entries))
        assert det > 1e-12 * max(1.0, abs(sigma.det))

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"three 1000-draw pattern-matrix suites in {elapsed:.1f}s")


def test_acceptance_3_bessel_accuracy():
    rs = np.geomspace(1e-3, 30.0, 50)
    closed = np.sqrt(math.pi / 2.0) * np.exp(-rs)
    rel = np.max(np.abs(kappa_grid(0.5, rs) - closed) / closed)
    assert rel <= 1e-10

    worst_resid = max(bessel_derivative_check(nu, w)
                      for nu in (1.0, 1.5, 2.0, 3.0)
                      for w in (0.1, 0.5, 1.0, 2.0, 10.0, 30.0))
    assert worst_resid <= 1e-6

    for nu in (0.5, 1.0, 2.0):
        gaunt = math.sqrt(math.pi) * math.gamma(nu + 0.5) / math.gamma(nu)
        for r in rs[::5]:
            assert bessel_tail(nu, float(r)) <= gaunt * kappa_bessel(nu, float(r)) * (1 + 1e-10)

    k0 = kappa_grid(0.0, rs)
    k1 = kappa_grid(1.0, rs) / rs
    assert np.all(k0 / k1 > rs / (1.0 + np.sqrt(1.0 + rs * rs)))
    report(3, f"kernel closed form to {rel:.2e}, derivative residual "
              f"{worst_resid:.2e}, tail and ratio bounds hold")


def test_acceptance_4_uniform_strict_positivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    diag_checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 5))
        mu = rng.normal(size=n)
        while not np.any(mu):
            mu = rng.normal(size=n)
        if trial % 4 == 0:
            sigma = CovMatrix(np.diag(rng.uniform(0.3, 3.0, n)))
        else:
            sigma = random_spd(rng, n, min_det=1e-3)
        ctx = QuantityContext(mu, sigma)
        est = usp_infimum(ctx, mu)
        assert est.certified_positive, f"trial {trial}: {est}"
        if trial % 4 == 0:
            expected = float(mu @ np.linalg.solve(sigma.entries, mu))
            assert est.value == pytest.approx(expected, abs=1e-6 * max(1.0, expected))
            diag_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert diag_checked >= 20
    report(4, f"100 random infima certified positive ({diag_checked} diagonal "
              f"closed-form matches) in {elapsed:.1f}s")


def test_acceptance_5_density_identities():
    rng = np.random.default_rng(55)
    worst_id = 0.0
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
        oracle = sum(a.mass * r ** n * vg_levy_density(
            float(a.point @ a.point), a.point * mu,
            CovMatrix(np.minimum.outer(a.point, a.point) * sigma.entries),
            r * s) / float(a.point @ a.point) for a in atoms)
        worst_id = max(worst_id, abs(mine - oracle) / oracle)
    assert worst_id <= 1e-9

    worst_fd = 0.0
    fixtures = [
        WvggParams(np.zeros(2), np.array([1.0, 0.0]), CovMatrix(np.eye(2)),
                   ThorinMeasure(2, [Atom(1.0, np.array([1.0, 1.0]))])),
        WvggParams(np.zeros(2), np.array([0.4, -0.3]),
                   CovMatrix(np.array([[1.0, 0.2], [0.2, 1.5]])),
                   beta2_measure(1.5, 2.0, [1.0, 0.7])),
    ]
    for p in fixtures:
        s = np.array([0.6, 0.8])
        for r in (0.1, 1.0, 5.0):
            dh = h_derivative(p, s, r)
            step = 1e-5 * r
            fd = (h_density(p, s, r + step) - h_density(p, s, r - step)) / (2 * step)
            worst_fd = max(worst_fd, abs(dh - fd) / max(abs(fd), 1e-12))
    assert worst_fd <= 1e-5

    atom = WvggParams(np.zeros(2), np.array([1.0, 0.0]), CovMatrix(np.eye(2)),
                      ThorinMeasure(2, [Atom(1.0, np.array([1.0, 1.0]))]))
    s = np.array([1.0, 0.0])
    res = h_derivative_at_zero(atom, s)
    assert res.applicable
    assert res.value == pytest.approx(1.0 / math.pi, rel=1e-9)
    rs = np.array([1e-2, 1e-3, 1e-4])
    vals = np.array([h_derivative(atom, s, float(r)) for r in rs])
    basis = np.stack([np.ones(3), rs, rs * np.log(rs)], axis=1)
    limit = float(np.linalg.solve(basis, vals)[0])
    assert abs(limit - res.value) <= 1e-3
    report(5, f"atomic-oracle identity to {worst_id:.2e}, derivative vs finite "
              f"difference to {worst_fd:.2e}, zero-limit {res.value:.6f} matches "
              f"extrapolation {limit:.6f}")


def test_acceptance_6_characteristic_exponent_equivalence():
    rng = np.random.default_rng(66)
    worst = 0.0
    for b, n, sigma in [
        (1.0, 2, CovMatrix(np.eye(2))),
        (2.5, 2, random_spd(rng, 2, min_det=1e-2)),
        (0.7, 3, random_spd(rng, 3, min_det=1e-2)),
    ]:
        U = ThorinMeasure(n, [Atom(b, np.full(n, b / n))])
        p = WvggParams(np.zeros(n), np.zeros(n), sigma, U)
        thetas = [rng.normal(size=n) for _ in range(9)]
        for th in thetas:
            diff = abs(char_exponent(p, th)
                       - vg_char_exponent_closed_form(b, sigma, th))
            worst = max(worst, diff)
    assert worst <= 1e-8

    U = ThorinMeasure(2, [Atom(1.0, np.array([0.5, 0.5]))])
    p = WvggParams(np.zeros(2), np.zeros(2), CovMatrix(np.eye(2)), U)
    val = char_exponent(p, np.array([1.0, 0.0]))
    assert val == pytest.approx(-math.log(1.5), abs=1e-10)
    report(6, f"single-gamma exponent matches closed form to {worst:.2e}, "
              f"worked value {val.real:.6f} = -ln 1.5")


def test_acceptance_7_classifier_battery():
    corr = CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    budget = Budget(s_samples=24, scan_directions=6, r_grid=default_r_grid(count=80), seed=3)
    lines = []

    ag = alpha_gamma_measure(0.5, [1.0, 1.0])
    rep = classify(WvggParams(np.zeros(2), np.zeros(2), corr, ag), budget)
    assert (rep.verdict, rep.rule) == ("SD", "Thm3.1(iii)")
    lines.append("alpha-gamma driftless -> SD")

    rep = classify(WvggParams(np.zeros(2), np.array([1.0, 0.0]), corr, ag), budget)
    assert (rep.verdict, rep.rule) == ("NOT_SD", "Cor3.5(ii)")
    lines.append("alpha-gamma with drift -> NOT_SD")

    U = ThorinMeasure(2, [Atom(1.0, np.array([1.0, 2.0])),
                          Atom(0.5, np.array([2.0, 1.0]))])
    rep = classify(WvggParams(np.zeros(2), np.array([1.0, 0.0]),
                              CovMatrix(np.array([[1.0, 0.3], [0.3, 1.0]])), U),
                   budget)
    assert (rep.verdict, rep.rule) == ("NOT_SD", "Cor3.6(ii)")
    lines.append("matrix-gamma orthant atom with drift -> NOT_SD")

    rep = classify(WvggParams(np.zeros(2), np.array([1.0, 0.5]), corr,
                              circle_measure("theta")), budget)
    assert (rep.verdict, rep.rule) == ("NOT_SD", "Thm3.2(v)")
    lines.append("linear circle measure -> NOT_SD via strong moment")

    rep = classify(WvggParams(np.zeros(2), np.array([1.0, 0.5]), corr,
                              circle_measure("theta_squared")), budget)
    assert (rep.verdict, rep.rule) == ("NOT_SD", "Thm3.2(iv)-numeric")
    assert rep.numeric_only
    strong = [e for e in rep.evidence if e.name == "moment_strong"]
    assert strong and strong[0].value == math.inf
    assert not moment_strong(circle_measure("theta_squared")).finite
    lines.append("quadratic circle measure -> NOT_SD numerically, "
                 "strong moment divergent")

    U = ThorinMeasure(2, [
        Ray(np.array([1.0, 2.0]), make_ray_density("beta2", {"a": 1.0, "b": 2.0})),
        Ray(np.array([2.0, 1.0]), make_ray_density("beta2", {"a": 1.5, "b": 0.8}))])
    rep = classify(WvggParams(np.zeros(2), np.array([0.5, -0.3]), corr, U), budget)
    assert (rep.verdict, rep.rule) == ("NOT_SD", "Thm3.2(vi)")
    lines.append("ratio-of-gammas rays, all b > 1/2 -> NOT_SD via half moments")

    b = 0.8
    Ue = beta2_measure(1.0, b, [0.5, 0.5])
    rep = classify(WvggParams(np.zeros(2), np.array([0.5, -0.3]), corr, Ue), budget)
    assert rep.verdict == "NOT_SD" and rep.rule in ("Cor3.3(ii)", "Thm3.2(vi)")
    dens = make_ray_density("beta2", {"a": 1.0, "b": b})
    assert not improper_integral(lambda v: v * v * dens(v)).finite
    lines.append(f"b = {b} in (1/2, 1]: half-moment criterion fires where the "
                 "second-moment criterion cannot")
    report(7, "classifier battery: " + "; ".join(lines))


def test_acceptance_8_tuned_self_decomposable_construction():
    t0 = time.perf_counter()
    cex = build_sd_counterexample(
        2, 0.5, np.zeros(2), np.array([1.0, 1.0]), np.array([1.0, 0.0]),
        CovMatrix(np.eye(2)), s_count=32,
        r_grid=default_r_grid(1e-4, 50.0, 200), margin_tol=1e-10)
    assert (cex.a, cex.b, cex.g) == (pytest.approx(2.0), pytest.approx(1.0),
                                     pytest.approx(1.0))
    assert len(cex.verification) == 32
    assert all(v.nonincreasing for v in cex.verification)

    fs = gstar_f_values(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                        CovMatrix(np.eye(2)), _sphere_grid(2, 16))
    ts = np.geomspace(1e-2, 20.0, 30)
    for f in (min(fs), max(fs)):
        for t in ts:
            assert gstar(float(t), f) >= 0.0
            assert gstar_deriv(float(t), f) < 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(8, f"tuned (a=2, b=1, g=1) measure nonincreasing on 32x200 grid, "
              f"zero-truncation certificate holds on [1e-2, 20], {elapsed:.0f}s")


def test_acceptance_9_density_curve_artifact(tmp_path):
    fixture = {
        "command": "density",
        "params": {"d": [0, 0], "mu": [1.0, 0.0],
                   "sigma": [[1.0, 0.0], [0.0, 1.0]],
                   "U": {"n": 2, "components": [
                       {"kind": "atom", "mass": 1.0, "point": [1.0, 1.0]}]}},
        "grids": {"r_min": 1e-4, "r_max": 50.0, "r_count": 200,
                  "s_list": [[1.0, 0.0]]},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fixture))
    rc = cli_main(["--config", str(cfg), "--out", str(tmp_path / "a_")])
    assert rc == 0
    curve = read_density_csv(str(tmp_path / "a_density_00.csv"))
    assert curve.r_grid.size == 200
    assert np.all(np.isfinite(curve.values))

    # a strictly increasing initial segment, consistent with the positive
    # derivative limit at the origin
    from wvgg.measures import params_from_json
    params = params_from_json(fixture["params"])
    res = h_derivative_at_zero(params, np.array([1.0, 0.0]))
    assert res.applicable and res.value > 0
    increases = np.nonzero(np.diff(curve.values) > 0)[0]
    assert increases.size > 0
    assert increases[0] == 0
    assert np.all(curve.deriv[:5] > 0)

    # registered-measure curves also emit valid CSV
    fixture2 = dict(fixture)
    fixture2["params"] = {"d": [0, 0], "mu": [0.3, 0.1],
                          "sigma": [[1.0, 0.2], [0.2, 1.0]],
                          "U": {"n": 2, "components": [
                              {"kind": "ray", "direction": [1.0, 1.0],
                               "density": {"name": "beta2", "a": 1.0, "b": 2.0}}]}}
    fixture2["grids"] = {"r_count": 50, "s_list": [[0.6, 0.8]]}
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(fixture2))
    assert cli_main(["--config", str(cfg2), "--out", str(tmp_path / "b_")]) == 0
    curve2 = read_density_csv(str(tmp_path / "b_density_00.csv"))
    assert np.all(np.isfinite(curve2.values)) and np.all(curve2.values >= 0)
    report(9, f"density CSV artifact emitted; initial strictly increasing "
              f"segment matches positive zero-limit {res.value:.5f}")

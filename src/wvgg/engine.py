"""Self-decomposability decision ladder and the tuned-measure construction.

``classify`` walks a first-match-wins rule ladder:

 1. n = 1                                        -> SD
 2. driftless Brownian subordinate (mu = 0)      -> SD
 3. singular Sigma                               -> INCONCLUSIVE
 4. no Thorin mass in the open orthant           -> INCONCLUSIVE
 5. finitely supported with orthant mass         -> NOT_SD
 6. orthant mass on rays, all half moments in (0, inf)   -> NOT_SD
 7. strong moment functional in (0, inf)         -> NOT_SD
 8. sampled directions in the positivity cone with finite A/D integral and
    positive E/D integral                        -> NOT_SD (numeric evidence)
 9. positive derivative at 0 or a strict radial increase on a fraction of
    sampled directions                           -> NOT_SD (numeric evidence)
10. otherwise                                    -> INCONCLUSIVE

``_ladder``, a generator, walks these rules in order, appends each rule's
evidence as it goes and yields (verdict, rule) for each rule that fires.
Rules 5-9 need the hypotheses of Thm 3.2: n >= 2, mu != 0, invertible Sigma
and orthant mass.  ``classify`` reports the first rule that fires; with
``audit`` it runs every rule, raises when SD and NOT_SD rules both fire, and
adds an ``audit_rules_fired`` entry.  Once ``time_limit_s`` has passed, the
report is INCONCLUSIVE/``budget-exhausted`` with the evidence so far.

Rules 8-9 rest on quadrature and sampling rather than exactly checkable
hypotheses; their tokens end in ``-numeric`` and set ``numeric_only``.  So do
the tokens of rules 6-7 when a finiteness verdict they read came from the
divergence detector, which only a plug-in ray density still needs.  Rule
tokens cite the corollary specialisation when the subclass pattern matches
(weak variance alpha-gamma / matrix-gamma, univariate-subordinator classes),
the general clause otherwise.

``build_sd_counterexample`` constructs, for any nonzero drift, an explicitly
self-decomposable parameter set: a truncated power-law ray whose rate/shape
satisfy 2b = a ||alpha <> mu||^2 and whose truncation g = 1 v (h^2 - b_)/a_
forces the radial density to be nonincreasing in every direction (verified by
scan).  For n = 2 with exponent 1/2 the truncation can drop to 0; the
associated nonnegativity/no-turning-point function is exposed as ``gstar``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_tail, kappa_bessel
from .density import (a_over_d_integral, default_r_grid, e_over_d_integral,
                      h_derivative_at_zero, monotonicity_scan)
from .geometry import QuantityContext, quantities, v_plus_member
from .linalg import CovMatrix, as_vector, diamond_mat_raw
from .measures import (Atom, Curve, Ray, RayDensity, ThorinMeasure,
                       NotRaySupported, WvggParams, integrate, moment_strong,
                       ray_half_moment, sdcex_measure)
from .quadrature import IntegralResult
from .quadrature import improper_integral  # noqa: F401  (perfbench/tracing.py patches this binding)

PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class SubclassTag:
    tags: frozenset[str]
    drift_zero: bool

    def __contains__(self, tag: str) -> bool:
        return tag in self.tags


def _is_positive_multiple(p: np.ndarray, q: np.ndarray, tol: float = PATTERN_TOL) -> bool:
    nz = np.abs(q) > tol
    if np.any(~nz & (np.abs(p) > tol)):
        return False
    ratios = p[nz] / q[nz]
    return bool(ratios.size and np.all(ratios > 0)
                and np.max(np.abs(ratios - ratios[0])) <= tol * max(1.0, abs(ratios[0])))


def _matches_alpha_gamma(U: ThorinMeasure) -> bool:
    atoms = U.atoms()
    if len(atoms) != len(U.components) or not atoms:
        return False
    n = U.n
    core = [a for a in atoms if np.all(a.point > PATTERN_TOL)]
    if len(core) != 1:
        return False
    p = core[0].point
    alpha = p / float(p @ p)
    a = core[0].mass
    if np.any(a * alpha >= 1.0):
        return False
    axis: dict[int, Atom | None] = {k: None for k in range(n)}
    for atom in atoms:
        if atom is core[0]:
            continue
        nz = np.nonzero(atom.point > PATTERN_TOL)[0]
        if nz.size != 1 or axis[int(nz[0])] is not None:
            return False
        axis[int(nz[0])] = atom
    for k in range(n):
        beta_k = (1.0 - a * alpha[k]) / alpha[k]
        atom = axis[k]
        if atom is None:
            if abs(beta_k) > 1e-9:
                return False
            continue
        if abs(atom.point[k] - 1.0 / alpha[k]) > 1e-9 * max(1.0, 1.0 / alpha[k]):
            return False
        if abs(atom.mass - beta_k) > 1e-9 * max(1.0, abs(beta_k)):
            return False
    return True


def _matches_vg(U: ThorinMeasure, d: np.ndarray) -> bool:
    """Single atom b * delta_{b e / n} with zero subordinator drift."""
    if np.any(np.abs(d) > PATTERN_TOL):
        return False
    atoms = U.atoms()
    if len(atoms) != 1 or len(U.components) != 1:
        return False
    atom = atoms[0]
    n = atom.n
    target = np.full(n, atom.mass / n)
    return bool(np.max(np.abs(atom.point - target)) <= PATTERN_TOL * max(1.0, atom.mass))


def identify_subclass(params: WvggParams) -> SubclassTag:
    """Pattern-match measure/covariance/drift against the named process classes."""
    U, n = params.U, params.n
    tags = {"WVGG"}
    e = np.ones(n)
    if U.components:
        on_e_ray = all(
            (isinstance(c, Atom) and _is_positive_multiple(c.point, e)) or
            (isinstance(c, Ray) and _is_positive_multiple(c.direction, e))
            for c in U.components)
        d_on_e = (not np.any(params.d)) or _is_positive_multiple(params.d, e)
        if on_e_ray and d_on_e:
            tags.add("VGG_n1")
        if len(U.atoms()) == len(U.components):
            tags.add("WVMG")
        if _matches_alpha_gamma(U):
            tags.add("WVAG")
        if _matches_vg(U, params.d):
            tags.add("VG")
    off_diag = params.sigma.entries - np.diag(np.diag(params.sigma.entries))
    if np.max(np.abs(off_diag), initial=0.0) <= PATTERN_TOL:
        tags.add("VGG_nn")
    return SubclassTag(frozenset(tags), not np.any(params.mu))


# -- classification ------------------------------------------------------------

# share of checked directions on which a numeric clause must hold (rules 8-9)
POSITIVE_FRACTION = 0.05


@dataclass
class Budget:
    s_samples: int = 64
    r_grid: np.ndarray = field(default_factory=lambda: default_r_grid(count=120))
    scan_directions: int = 16
    seed: int = 0
    time_limit_s: float | None = None


def _json_number(x):
    """x itself when finite; strict JSON has no token for inf or nan, so +inf
    is written "Divergent" and the others as their str."""
    if isinstance(x, float) and not math.isfinite(x):
        return "Divergent" if x > 0 else str(x)
    return x


@dataclass
class Evidence:
    """One named numeric fact; tol records the fact's tolerance (0.0 when the
    value is exact, a quadrature/threshold scale otherwise)."""
    name: str
    value: float | str
    tol: float = 0.0
    note: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "value": _json_number(self.value),
               "tol": _json_number(self.tol)}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ClassificationReport:
    verdict: str                      # SD | NOT_SD | INCONCLUSIVE
    rule: str
    evidence: list[Evidence] = field(default_factory=list)
    numeric_only: bool = False
    seed: int = 0
    tags: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "rule": self.rule,
                "numeric_only": self.numeric_only,
                "evidence": [e.to_json() for e in self.evidence],
                "seed": self.seed, "tags": sorted(self.tags)}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2, allow_nan=False)


class BudgetExhausted(Exception):
    """Raised inside the ladder once ``Budget.time_limit_s`` has passed."""


def _sample_sphere_directions(params: WvggParams, budget: Budget) -> list[np.ndarray]:
    """Seeded directions on the unit sphere with all components nonzero,
    half of them biased toward the drift direction (the known cone member)."""
    rng = np.random.default_rng(budget.seed)
    n = params.n
    mu = params.mu
    mu_hat = mu / np.linalg.norm(mu) if np.any(mu) else None
    out: list[np.ndarray] = []
    attempts = 0
    while len(out) < budget.s_samples and attempts < 50 * budget.s_samples:
        attempts += 1
        z = rng.normal(size=n)
        if mu_hat is not None and len(out) % 2 == 0:
            z = mu_hat + 0.5 * z
        nrm = np.linalg.norm(z)
        if nrm < 1e-12:
            continue
        s = z / nrm
        if np.all(np.abs(s) > 1e-6):
            out.append(s)
    return out


def classify(params: WvggParams, budget: Budget | None = None,
             *, audit: bool = False) -> ClassificationReport:
    """Run the decision ladder (module docstring); ``audit`` runs every rule
    and raises AssertionError when their verdicts contradict each other."""
    budget = budget or Budget()
    t0 = time.perf_counter()

    def deadline():
        if budget.time_limit_s is not None and time.perf_counter() - t0 > budget.time_limit_s:
            raise BudgetExhausted

    tag = identify_subclass(params)
    evidence: list[Evidence] = []
    fired: list[tuple[str, str]] = []
    try:
        for hit in _ladder(params, budget, tag, evidence, deadline):
            fired.append(hit)
            if not audit:
                break
        if {"SD", "NOT_SD"} <= {v for v, _ in fired}:
            raise AssertionError(f"ladder inconsistency: {fired}")
        if audit and fired:
            evidence.append(Evidence("audit_rules_fired", float(len(fired)),
                                     note=";".join(r for _, r in fired)))
        verdict, rule = fired[0] if fired else ("INCONCLUSIVE", "no-rule")
        numeric_only = rule.endswith("-numeric")
    except BudgetExhausted:
        evidence.append(Evidence("budget_exhausted", 1.0, note="partial evidence only"))
        verdict, rule, numeric_only = "INCONCLUSIVE", "budget-exhausted", True
    return ClassificationReport(verdict, rule, evidence, numeric_only,
                                budget.seed, sorted(tag.tags))


def _token(rule: str, numeric: bool) -> str:
    """The rule token, marked ``-numeric`` when its verdict rests on the detector."""
    return rule + "-numeric" if numeric else rule


def _enough(hits: int, checked: int) -> bool:
    return hits >= max(1, math.ceil(POSITIVE_FRACTION * checked))


def _ladder(params: WvggParams, budget: Budget, tag: SubclassTag,
            evidence: list[Evidence], deadline):
    """Yield (verdict, rule) for each rule that fires, in ladder order,
    appending every rule's evidence as it goes; ``deadline()`` raises
    BudgetExhausted once the time limit has passed."""
    n = params.n
    mu_zero = not np.any(params.mu)
    invertible = params.sigma.invertible

    # 1-2: sufficient conditions
    if n == 1:
        yield "SD", "Thm3.1(n=1)"
    if mu_zero:
        evidence.append(Evidence("mu_norm", 0.0, note="driftless subordinate"))
        yield "SD", "Thm3.1(iii)"

    # 3: invertibility hypothesis
    if not invertible:
        evidence.append(Evidence("sigma_det", params.sigma.det, tol=1e-12))
        yield "INCONCLUSIVE", "Thm3.2-hypothesis(|Sigma|=0)"

    positive = params.U.positive_part()
    # 4: need orthant mass
    if not mu_zero and invertible and not positive:
        evidence.append(Evidence("orthant_mass", 0.0,
                                 note="no Thorin mass in the open orthant"))
        yield "INCONCLUSIVE", "Thm3.2(vii)-no-positive-mass"

    # the necessary conditions of Thm 3.2 assume n >= 2, mu != 0, an
    # invertible Sigma and orthant mass
    if mu_zero or not invertible or not positive or n < 2:
        evidence.append(Evidence("cone_samples_accepted", 0.0, note="of 0 sphere samples"))
        return

    # 5: finitely supported
    if len(params.U.atoms()) == len(params.U.components):
        evidence.append(Evidence("orthant_atoms", float(len(positive))))
        yield "NOT_SD", ("Cor3.5(ii)" if "WVAG" in tag else
                         "Cor3.6(ii)" if "WVMG" in tag else "Thm3.2(vii)")

    # 6: ray-supported half moments
    try:
        moments = [m.result for m in ray_half_moment(params.U)]
    except NotRaySupported:
        moments = []
    for i, r in enumerate(moments):
        evidence.append(Evidence(f"ray_half_moment[{i}]",
                                 r.value if r.finite else math.inf, tol=r.error))
    if moments and all(r.finite and r.value > 0 for r in moments):
        yield "NOT_SD", _token("Cor3.3(ii)" if "VGG_n1" in tag else "Thm3.2(vi)",
                               any(r.numeric for r in moments))
    deadline()

    # 7: strong moment functional
    strong = moment_strong(params.U)
    evidence.append(Evidence("moment_strong",
                             strong.value if strong.finite else math.inf,
                             tol=strong.error))
    if strong.finite and strong.value > 0:
        yield "NOT_SD", _token("Cor3.4(ii)" if ("VGG_nn" in tag and "VGG_n1" not in tag)
                               else "Thm3.2(v)", strong.numeric)
    deadline()

    # 8: sampled cone directions with finite A/D and positive E/D integrals
    samples = _sample_sphere_directions(params, budget)
    accepted: list[np.ndarray] = []
    note = f"of {len(samples)} sphere samples"
    if n <= 4:
        ctx = QuantityContext(params.mu, params.sigma)
        for s in samples:
            if v_plus_member(ctx, s).member is True:
                accepted.append(s)
            deadline()
    else:
        note += "; cone membership is not checked above n = 4"
    evidence.append(Evidence("cone_samples_accepted", float(len(accepted)), note=note))
    if accepted:
        positive_e = []
        for s in accepted:
            # E/D reads divergent wherever A/D does (one pass gives both)
            e_res = e_over_d_integral(params, s)
            if e_res.finite and e_res.value > 1e-12:
                positive_e.append(e_res.value)
            deadline()
        evidence.append(Evidence("rule8_pass_fraction",
                                 len(positive_e) / len(accepted), tol=POSITIVE_FRACTION))
        if positive_e:
            evidence.append(Evidence("min_mean_positivity", min(positive_e), tol=1e-12))
        if _enough(len(positive_e), len(accepted)):
            yield "NOT_SD", "Thm3.2(iv)-numeric"
    deadline()

    # 9: positive derivative at 0, or a strict radial increase
    scanned = samples[:budget.scan_directions]
    if not scanned:
        return
    h0_positive = []
    for s in scanned:
        res = h_derivative_at_zero(params, s)
        if res.applicable:
            h0_positive.append(res.value > 1e-12)
        deadline()
    if h0_positive:
        evidence.append(Evidence("h0_positive_fraction",
                                 sum(h0_positive) / len(h0_positive), tol=POSITIVE_FRACTION))
        if _enough(sum(h0_positive), len(h0_positive)):
            yield "NOT_SD", "Thm3.2(iii)-numeric"

    scan = []
    for s in scanned:
        scan += monotonicity_scan(params, [s], budget.r_grid)
        deadline()
    increases = [v for v in scan if not v.nonincreasing]
    evidence.append(Evidence("strict_increase_fraction", len(increases) / len(scan),
                             tol=POSITIVE_FRACTION))
    if increases:
        evidence.append(Evidence("r0_witness", increases[0].r0, tol=1e-6,
                                 note="first strict radial increase"))
    if _enough(len(increases), len(scan)):
        yield "NOT_SD", "Thm3.2(ii)-numeric"


# -- equivalent conditions for the A/D integrability ---------------------------

@dataclass
class EquivalenceReport:
    clause: str                   # "(i)" | "(ii)" | "(iii)" | "direct-only"
    equivalent_finite: bool | None
    direct_finite: bool
    agree: bool
    equivalent_value: float | None = None
    direct_value: float | None = None


def _on_unit_sphere(components) -> bool:
    """Atoms and curves only, at unit norm (a curve at the nodes of its rule)."""
    for c in components:
        if isinstance(c, Ray):
            return False
        points = c.point[None, :] if isinstance(c, Atom) else c.points(c.rule[0])
        if np.max(np.abs(np.linalg.norm(points, axis=-1) - 1.0)) > 1e-12:
            return False
    return True


def equivalent_conditions(params: WvggParams, s) -> EquivalenceReport:
    """Shape-specific equivalents of the A/D integrability, cross-checked
    against the direct quadrature; the two verdicts must agree."""
    n = params.n
    sv = as_vector(s, n)
    positive = params.U.positive_part()
    kinds = {type(c) for c in positive}
    direct = a_over_d_integral(params, sv)

    def sphere_weight(points, t):
        # ||s||^(1-n)_{M^-1} / sqrt(prod u) at u = t * points
        q = quantities(params.mu, params.sigma.entries, sv, points).q / t
        return q ** ((1.0 - n) / 2.0) / np.sqrt(t ** n * np.prod(points, axis=-1))

    clause = "direct-only"
    equiv: IntegralResult | None = None
    if _on_unit_sphere(positive) and positive:
        clause = "(ii)"
        equiv = integrate(positive, sphere_weight)
    elif Ray in kinds and Curve not in kinds:
        clause = "(iii)"
        tails = ray_half_moment(params.U, tail_only=True)
        divergent = any(not m.result.finite for m in tails)
        total = math.inf if divergent else sum(m.result.value for m in tails)
        equiv = IntegralResult(total, 0.0, divergent)
    elif kinds == {Atom}:
        # atoms keep the support away from the origin (rays took clause (iii))
        clause = "(i)"
        equiv = integrate(positive, lambda points, t: (
            t * np.linalg.norm(points, axis=-1) * sphere_weight(points, t)))

    if equiv is None:
        return EquivalenceReport("direct-only", None, direct.finite, True,
                                 None, direct.value if direct.finite else None)
    agree = equiv.finite == direct.finite
    return EquivalenceReport(clause, equiv.finite, direct.finite, agree,
                             equiv.value if equiv.finite else None,
                             direct.value if direct.finite else None)


# -- tuned self-decomposable construction --------------------------------------

@dataclass
class Counterexample:
    a: float
    b: float
    g: float
    U: ThorinMeasure
    params: WvggParams
    verification: list
    e_bar: float
    h: float
    a_low: float
    b_low: float


class VerificationError(AssertionError):
    pass


def check_sd_construction(n: int, c: float, alpha, mu,
                          sigma: CovMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, mu) as length-n vectors once the construction can take its
    inputs: c in [1/2, 1], n >= 2, alpha in the open orthant, mu nonzero and
    an invertible Sigma; ValueError otherwise.  ``load_config`` calls it too,
    so a config the builder would reject fails as a config error."""
    if not 0.5 <= c <= 1.0:
        raise ValueError("exponent c must lie in [1/2, 1]")
    if n < 2:
        raise ValueError("construction requires n >= 2")
    al = as_vector(alpha, n)
    muv = as_vector(mu, n)
    if np.any(al <= 0):
        raise ValueError("alpha must lie in the open positive orthant")
    if not np.any(muv):
        raise ValueError("mu must be nonzero")
    if not sigma.invertible:
        raise ValueError("Sigma must be invertible")
    return al, muv


def build_sd_counterexample(n: int, c: float, d, alpha, mu, sigma: CovMatrix,
                            axis_measures: list[RayDensity | None] | None = None,
                            *, s_count: int = 32, r_grid=None,
                            margin_tol: float = 1e-10,
                            verify: bool = True) -> Counterexample:
    """Construct the tuned truncated-power-law measure and verify by scan.

    With M = alpha <> Sigma and m = alpha <> mu: b = 1 and a = 2/||m||^2_{M^-1}
    fix the rate/shape coupling; the truncation is g = 1 v (h^2 - b_)/a_ where
    h = E_bar sqrt(pi) Gamma(nu+1/2)/Gamma(nu), E_bar = sup_s <s, m>_{M^-1},
    a_ = inf_s 2||s||^2_{M^-1}, b_ = ||m||^2_{M^-1} inf_s ||s||^2_{M^-1}.
    """
    al, muv = check_sd_construction(n, c, alpha, mu, sigma)
    dv = as_vector(d, n)

    m_mat = diamond_mat_raw(al, sigma.entries)
    m_vec = al * muv
    sol = np.linalg.solve(m_mat, m_vec)
    m_norm2 = float(m_vec @ sol)
    if m_norm2 <= 0:
        raise ValueError("alpha <> mu must be nonzero")
    b = 1.0
    a = 2.0 * b / m_norm2

    m_inv = np.linalg.inv(m_mat)
    lam_min = float(np.linalg.eigvalsh(0.5 * (m_inv + m_inv.T))[0])
    e_bar = float(np.linalg.norm(sol))          # sup_{|s|=1} <s, M^{-1} m>
    a_low = 2.0 * lam_min
    b_low = m_norm2 * lam_min
    nu = n / 2.0
    h = e_bar * math.sqrt(math.pi) * math.gamma(nu + 0.5) / math.gamma(nu)
    g = max(1.0, (h * h - b_low) / a_low)

    U = sdcex_measure(a, b, c, g, al, axis_measures)
    params = WvggParams(dv, muv, sigma, U)

    verification = []
    if verify:
        s_grid = _sphere_grid(n, s_count)
        rs = default_r_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
        verification = monotonicity_scan(params, s_grid, rs, tol=margin_tol)
        bad = [v for v in verification if not v.nonincreasing]
        if bad:
            raise VerificationError(
                f"radial density increases at r0={bad[0].r0} despite tuning; "
                "quadrature tolerance too loose")
    return Counterexample(a, b, g, U, params, verification,
                          e_bar, h, a_low, b_low)


def _sphere_grid(n: int, count: int) -> list[np.ndarray]:
    """Deterministic direction grid on the unit sphere."""
    if n == 2:
        angles = (np.arange(count) + 0.5) * (2.0 * math.pi / count)
        return [np.array([math.cos(t), math.sin(t)]) for t in angles]
    rng = np.random.default_rng(1234)
    out = []
    while len(out) < count:
        z = rng.normal(size=n)
        nrm = np.linalg.norm(z)
        if nrm > 1e-12:
            out.append(z / nrm)
    return out


def gstar(t: float, f_s: float) -> float:
    """kappa_1(t) + (1/t - f_s) int_t^inf kappa_1; nonnegative for |f_s| <= 1,
    which is the n = 2, c = 1/2, g = 0 monotonicity certificate."""
    if t <= 0:
        raise ValueError("t must be positive")
    return kappa_bessel(1.0, t) + (1.0 / t - f_s) * bessel_tail(1.0, t)


def gstar_deriv(t: float, f_s: float) -> float:
    """Derivative of gstar in t; strictly negative for f_s <= 1 by the
    K_0/K_1 ratio bound."""
    if t <= 0:
        raise ValueError("t must be positive")
    tail = bessel_tail(1.0, t)
    return (-t * kappa_bessel(0.0, t) + (f_s - 1.0 / t) * kappa_bessel(1.0, t)
            - tail / (t * t))


def gstar_f_values(alpha, mu, sigma: CovMatrix, s_list) -> list[float]:
    """f_s = E_s / sqrt(b_s) for directions s; |f_s| <= 1 by Cauchy-Schwarz."""
    al = as_vector(alpha, sigma.n)[None, :]
    muv = as_vector(mu, sigma.n)
    out = []
    for s in s_list:
        qq = quantities(muv, sigma.entries, as_vector(s, sigma.n), al)
        out.append(float(qq.e[0] / np.sqrt(qq.m[0] * qq.q[0])))
    return out

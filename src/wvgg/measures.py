"""Thorin measures: components, named families, validity and moment checks.

A measure is a finite list of components on [0, inf)^n minus the origin:

* ``Atom(mass, point)``
* ``Ray(direction, density)`` -- image of a density w(v) dv on (0, inf) under
  v -> v * direction; densities are named (registry) so measures serialise.
* ``Curve(name, interval)`` -- image of Lebesgue measure on a parameter
  interval under a named map, e.g. theta -> (cos theta^2, sin theta^2); a
  curve carries its kinks and the fixed node rule split at them, computed
  once, and every curve integral is split at its kinks.

Validity is the finiteness of int (1 + ln^- ||u||) ^ (1 / ||u||) dU, checked
numerically with divergence detection.  The moment functionals below feed the
self-decomposability ladder:

* strong moment: int (1 + ||u||^(1/2)) (||u||^n / prod u)^(1/2) dU over the
  open positive orthant,
* per-ray half moments int v^(1/2) dU_k (full and tail-only variants).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import quantities
from .linalg import CovMatrix, DimensionError, as_vector
from .quadrature import IntegralResult, gauss_nodes, improper_integral

__all__ = [
    "Atom", "Ray", "Curve", "RayDensity", "ThorinMeasure", "WvggParams",
    "NotRaySupported", "register_ray_density", "make_ray_density",
    "alpha_gamma_measure", "beta2_measure", "circle_measure", "sdcex_measure",
    "integrate", "integrate_component", "validate", "moment_strong", "ray_half_moment",
    "measure_to_json", "measure_from_json", "params_to_json", "params_from_json",
]


class NotRaySupported(Exception):
    """The positive-orthant part of the measure is not carried by rays."""


@dataclass(frozen=True)
class RayDensity:
    """Named radial density w(v) on (support_lo, support_hi) in (0, inf).

    ``pole_at_0``: exponent p with w(v) ~ (v - lo)^p at the lower support end
    (0 when bounded); ``decay_at_inf``: exponent q with w(v) ~ v^q at infinity.
    The hints drive quadrature grading only; verdicts never trust them.
    ``half_moment``: the exact int v^(1/2) w(v) dv (inf when it diverges), or
    None to leave it to the divergence detector.
    """
    name: str
    params: dict
    fn: Callable[[np.ndarray], np.ndarray]
    support_lo: float = 0.0
    support_hi: float = math.inf
    pole_at_0: float = 0.0
    decay_at_inf: float = 0.0
    half_moment: float | None = None

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(v, dtype=float))


def _beta2_density(params: dict) -> RayDensity:
    a, b = float(params["a"]), float(params["b"])
    if a <= 0 or b <= 0:
        raise ValueError("beta2 requires a, b > 0")
    lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    norm = math.exp(lognorm)

    def w(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        pos = v > 0
        out[pos] = norm * v[pos] ** (a - 1.0) * (1.0 + v[pos]) ** (-a - b)
        return out

    # B(a + 1/2, b - 1/2) / B(a, b), finite only for b > 1/2
    half = (math.exp(math.lgamma(a + 0.5) + math.lgamma(b - 0.5) - math.lgamma(a)
                     - math.lgamma(b)) if b > 0.5 else math.inf)
    return RayDensity("beta2", {"a": a, "b": b}, w,
                      pole_at_0=a - 1.0, decay_at_inf=-(1.0 + b), half_moment=half)


def _power_cut_density(params: dict) -> RayDensity:
    a, b = float(params["a"]), float(params["b"])
    c, g = float(params["c"]), float(params.get("g", 0.0))
    if a <= 0 or b <= 0 or c <= 0 or g < 0:
        raise ValueError("power_cut requires a, b, c > 0 and g >= 0")

    def w(v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        sel = v > g
        out[sel] = (a * v[sel] + b) ** (-c)
        return out

    return RayDensity("power_cut", {"a": a, "b": b, "c": c, "g": g}, w,
                      support_lo=g, pole_at_0=0.0, decay_at_inf=-c)


_RAY_DENSITIES: dict[str, Callable[[dict], RayDensity]] = {
    "beta2": _beta2_density,
    "power_cut": _power_cut_density,
}


def register_ray_density(name: str, builder: Callable[[dict], RayDensity]) -> None:
    """Plugin hook for user-supplied named radial densities (e.g. GH-type)."""
    _RAY_DENSITIES[name] = builder


def make_ray_density(name: str, params: dict) -> RayDensity:
    try:
        builder = _RAY_DENSITIES[name]
    except KeyError:
        raise KeyError(f"unknown ray density {name!r}; register it first") from None
    return builder(params)


_CURVES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "circle_theta": lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
    "circle_theta2": lambda t: np.stack([np.cos(t ** 2), np.sin(t ** 2)], axis=-1),
}


@dataclass(frozen=True)
class Atom:
    mass: float
    point: np.ndarray

    def __post_init__(self):
        p = as_vector(self.point)
        object.__setattr__(self, "point", p)
        if self.mass <= 0:
            raise ValueError("atom mass must be positive")
        if np.any(p < 0) or not np.any(p):
            raise ValueError("atom point must be in the nonnegative orthant, nonzero")

    @property
    def n(self) -> int:
        return self.point.size


@dataclass(frozen=True)
class Ray:
    direction: np.ndarray
    density: RayDensity

    def __post_init__(self):
        d = as_vector(self.direction)
        object.__setattr__(self, "direction", d)
        if np.any(d < 0) or not np.any(d):
            raise ValueError("ray direction must be in the nonnegative orthant, nonzero")

    @property
    def n(self) -> int:
        return self.direction.size


@dataclass(frozen=True)
class Curve:
    """Image of Lebesgue measure on ``interval`` under a named map c(theta).
    The min-matrix in u <> Sigma switches branch wherever two coordinates of
    c(theta) cross, so every curve integrand has a derivative kink there."""
    curve: str
    interval: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.curve not in _CURVES:
            raise KeyError(f"unknown curve {self.curve!r}")
        lo, hi = self.interval
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError("curve parameter interval must be bounded, nonempty")

    def points(self, thetas: np.ndarray) -> np.ndarray:
        return _CURVES[self.curve](np.asarray(thetas, dtype=float))

    @property
    def n(self) -> int:
        return self.points(np.array([0.5 * sum(self.interval)])).shape[-1]

    @cached_property
    def kinks(self) -> tuple[float, ...]:
        """Interior parameter values, ascending, where the coordinate ordering
        of c(theta) changes: sign flips of each coordinate difference over
        2,001 probes, each bisected to 1e-14 relative."""
        lo, hi = self.interval
        ts = np.linspace(lo, hi, 2001)
        pts = self.points(ts)
        brks = []
        for i, j in itertools.combinations(range(pts.shape[1]), 2):
            diff = pts[:, i] - pts[:, j]
            for k in np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]:
                a, b, fa = float(ts[k]), float(ts[k + 1]), float(diff[k])
                for _ in range(80):
                    m = 0.5 * (a + b)
                    pm = self.points(np.array([m]))[0]
                    fm = float(pm[i] - pm[j])
                    if fa * fm <= 0:
                        b = m
                    else:
                        a, fa = m, fm
                    if b - a < 1e-14 * max(1.0, abs(b)):
                        break
                brks.append(0.5 * (a + b))
        return tuple(sorted(b for b in brks if lo < b < hi))

    @cached_property
    def rule(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta nodes, weights) of the curve's fixed rule: 10-point
        Gauss-Legendre panels split at the kinks, 12 even panels per segment,
        log-graded to 1e-12 toward the interval ends and to 1e-8 toward the
        kinks."""
        lo, hi = self.interval
        cuts = [lo, *self.kinks, hi]
        # relative offsets of the graded panel edges next to an end and a kink
        end, kink = np.geomspace(1e-12, 0.5, 30), np.geomspace(1e-8, 0.5, 12)
        parts = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            left = end if a == lo else kink
            right = end if b == hi else kink
            parts += [a + (b - a) * left, np.linspace(a, b, 13), b - (b - a) * right]
        edges = np.sort(np.concatenate(parts))
        return gauss_nodes(edges[np.append(True, np.diff(edges) > 0)])

    @cached_property
    def in_open_orthant(self) -> bool:
        """Whether c(theta) lies in the open positive orthant at every node of
        the rule (endpoint exceptions being parameter-null)."""
        return bool(np.all(self.points(self.rule[0]) > 0))


Component = Atom | Ray | Curve


def integrate_component(c: Component, g) -> IntegralResult:
    """int g dU over one component, with divergence detection.

    ``g(points, t)`` evaluates a functional at the points t * points, for a
    batch ``points`` of shape (k, n) and a scalar or array t, broadcasting
    over both.  An atom passes its point with t = 1 and is weighted by its
    mass; a ray passes its direction once with t = v, the radial quadrature
    nodes, times its density; a curve passes its points c(theta) with t = 1.
    """
    if isinstance(c, Atom):
        return IntegralResult(c.mass * g(c.point[None, :], 1.0).item(), 0.0, False)
    if isinstance(c, Ray):
        direction = c.direction[None, :]
        return improper_integral(lambda v: g(direction, v) * c.density(v),
                                 lo=c.density.support_lo, hi=c.density.support_hi,
                                 open_lo=True, open_hi=True)
    lo, hi = c.interval
    return improper_integral(lambda thetas: g(c.points(thetas), 1.0),
                             lo=lo, hi=hi, open_lo=True, open_hi=True, points=c.kinks)


def integrate(components, g) -> IntegralResult:
    """Sum of int g dU over the components, with the sum of their errors and
    rounds; the first divergent component's result is returned as is."""
    total, err, rounds = 0.0, 0.0, 0
    for c in components:
        res = integrate_component(c, g)
        if not res.finite:
            return res
        total += res.value
        err += res.error
        rounds += res.rounds
    return IntegralResult(total, err, False, rounds)


def _validity_weight(norms: np.ndarray) -> np.ndarray:
    return np.minimum(1.0 + np.maximum(-np.log(norms), 0.0), 1.0 / norms)


@dataclass
class ValidationReport:
    valid: bool
    integral_value: float
    per_component: list[IntegralResult]
    offending: int | None = None


class ThorinMeasure:
    """Finite list of measure components with a validity certificate."""

    def __init__(self, n: int, components: list[Component], *, check: bool = True):
        self.n = int(n)
        for c in components:
            if c.n != self.n:
                raise DimensionError("component dimension mismatch")
        self.components = list(components)
        if check:
            report = validate(self)
            if not report.valid:
                raise ValueError(
                    f"not a Thorin measure: validity integral diverges "
                    f"(component {report.offending})")

    def atoms(self) -> list[Atom]:
        return [c for c in self.components if isinstance(c, Atom)]

    def rays(self) -> list[Ray]:
        return [c for c in self.components if isinstance(c, Ray)]

    def curves(self) -> list[Curve]:
        return [c for c in self.components if isinstance(c, Curve)]

    def positive_part(self) -> list[Component]:
        """Components whose support meets the open positive orthant (atoms and
        rays are kept only when fully inside; curves are kept when their
        interior lies inside, endpoint exceptions being parameter-null)."""
        out: list[Component] = []
        for c in self.components:
            if isinstance(c, Atom) and np.all(c.point > 0):
                out.append(c)
            elif isinstance(c, Ray) and np.all(c.direction > 0):
                out.append(c)
            elif isinstance(c, Curve) and c.in_open_orthant:
                out.append(c)
        return out

    def __repr__(self):
        kinds = ",".join(type(c).__name__ for c in self.components)
        return f"ThorinMeasure(n={self.n}, [{kinds}])"


def validate(measure: ThorinMeasure) -> ValidationReport:
    """Numerical check of the defining integrability condition."""

    def g(points, t):
        return _validity_weight(t * np.linalg.norm(points, axis=-1))

    results = [integrate_component(c, g) for c in measure.components]
    offending = next((i for i, r in enumerate(results) if not r.finite), None)
    total = sum(r.value for r in results) if offending is None else math.inf
    return ValidationReport(offending is None, total, results, offending)


# -- named families ----------------------------------------------------------

def alpha_gamma_measure(a: float, alpha) -> ThorinMeasure:
    """n+1 atoms: a at alpha/||alpha||^2 plus (1 - a alpha_k)/alpha_k at
    e_k/alpha_k; requires a * alpha_k < 1 throughout."""
    al = as_vector(alpha)
    n = al.size
    if a <= 0 or np.any(al <= 0):
        raise ValueError("need a > 0 and alpha in the open positive orthant")
    if np.any(a * al >= 1.0):
        raise ValueError("alpha-gamma constraint a * alpha_k < 1 violated")
    comps: list[Component] = [Atom(a, al / float(al @ al))]
    for k in range(n):
        beta_k = (1.0 - a * al[k]) / al[k]
        if beta_k > 1e-12:
            e_k = np.zeros(n)
            e_k[k] = 1.0 / al[k]
            comps.append(Atom(float(beta_k), e_k))
    return ThorinMeasure(n, comps)


def beta2_measure(a: float, b: float, direction) -> ThorinMeasure:
    """Probability law of a ratio of independent gammas, pushed onto a ray."""
    d = as_vector(direction)
    return ThorinMeasure(d.size, [Ray(d, make_ray_density("beta2", {"a": a, "b": b}))])


def circle_measure(parametrization: str) -> ThorinMeasure:
    """Unit-circle measures on theta in [0,1]: 'theta' (linear) or
    'theta_squared' (quadratic clustering at the first axis)."""
    name = {"theta": "circle_theta", "theta_squared": "circle_theta2"}.get(
        parametrization, parametrization)
    return ThorinMeasure(2, [Curve(name, (0.0, 1.0))])


def sdcex_measure(a: float, b: float, c: float, g: float, alpha,
                  ray_measures: list[RayDensity | None] | None = None) -> ThorinMeasure:
    """Truncated power-law ray along alpha/||alpha||^2 plus optional axis rays."""
    al = as_vector(alpha)
    n = al.size
    if a <= 0 or b <= 0:
        raise ValueError("need a, b > 0")
    comps: list[Component] = [
        Ray(al / float(al @ al),
            make_ray_density("power_cut", {"a": a, "b": b, "c": c, "g": g}))]
    if ray_measures:
        if len(ray_measures) != n:
            raise DimensionError("need one (possibly None) axis density per coordinate")
        for k, dens in enumerate(ray_measures):
            if dens is None:
                continue
            e_k = np.zeros(n)
            e_k[k] = 1.0
            comps.append(Ray(e_k, dens))
    return ThorinMeasure(n, comps)


# -- moment functionals -------------------------------------------------------

def moment_strong(measure: ThorinMeasure) -> IntegralResult:
    """int (1 + ||u||^(1/2)) (||u||^n / prod u)^(1/2) dU over the open orthant."""

    def g(points, t):
        # the orthant factor is scale free, so only the first factor sees t
        norms = np.linalg.norm(points, axis=-1)
        factor = norms ** (measure.n / 2.0) / np.sqrt(np.prod(points, axis=-1))
        return (1.0 + np.sqrt(t * norms)) * factor

    return integrate(measure.positive_part(), g)


@dataclass
class RayMoment:
    direction: np.ndarray
    result: IntegralResult

    @property
    def divergent(self) -> bool:
        return not self.result.finite


def ray_half_moment(measure: ThorinMeasure, *, tail_only: bool = False) -> list[RayMoment]:
    """Per-ray int v^(1/2) dU_k (or the tail over (1, inf)); requires the
    positive-orthant part to be ray-supported (an atom is a point mass on its
    own direction).  A density's exact ``half_moment`` replaces the detector
    on the full moment."""
    positive = measure.positive_part()
    if any(isinstance(c, Curve) for c in positive):
        raise NotRaySupported("positive-orthant mass carried by a curve component")
    out = []
    for comp in positive:
        if isinstance(comp, Atom):
            v0 = float(np.linalg.norm(comp.point))
            val = comp.mass * math.sqrt(v0) if (not tail_only or v0 > 1.0) else 0.0
            out.append(RayMoment(comp.point / v0, IntegralResult(val, 0.0, False)))
            continue
        exact = comp.density.half_moment
        if exact is not None and not tail_only:
            finite = math.isfinite(exact)
            out.append(RayMoment(comp.direction, IntegralResult(
                exact, 0.0 if finite else math.inf, not finite)))
            continue
        lo = comp.density.support_lo
        hi = comp.density.support_hi
        if tail_only:
            lo = max(lo, 1.0)

        def f(v):
            return np.sqrt(v) * comp.density(v)

        res = improper_integral(f, lo=lo, hi=hi,
                                open_lo=(not tail_only) or lo > 1.0, open_hi=True)
        out.append(RayMoment(comp.direction, res))
    return out


@dataclass(frozen=True)
class WvggParams:
    """Full parameter set (d, mu, Sigma, U) of the process family."""
    d: np.ndarray
    mu: np.ndarray
    sigma: CovMatrix
    U: ThorinMeasure

    def __post_init__(self):
        n = self.sigma.n
        object.__setattr__(self, "d", as_vector(self.d, n))
        object.__setattr__(self, "mu", as_vector(self.mu, n))
        if np.any(self.d < 0):
            raise ValueError("subordinator drift d must be nonnegative")
        if self.U.n != n:
            raise DimensionError("measure dimension mismatch")

    @property
    def n(self) -> int:
        return self.sigma.n

    @cached_property
    def ray_moments(self) -> list[IntegralResult]:
        """For each positive-part ray u = v alpha, in order, one detector run of
        int (sqrt(2 v ||alpha||^2 + m) + i) w(v) dv, m = ||alpha <> mu||^2 in
        the inverse of alpha <> Sigma: the A moment and the mass under one
        verdict.  A(s, v alpha) = sqrt(q_s) times the real integrand while E_s
        and D_s do not depend on v (``geometry.quantities``), so every
        direction's A/D and E/D reuse these; Sigma must be invertible."""
        out = []
        for ray in self.U.positive_part():
            if isinstance(ray, Ray):
                qq = quantities(self.mu, self.sigma.entries, ray.direction,
                                ray.direction[None, :])
                out.append(integrate_component(
                    ray, lambda points, t: np.sqrt(2.0 * t * qq.uu + qq.m) + 1j))
        return out


# -- JSON ----------------------------------------------------------------------

def measure_to_json(measure: ThorinMeasure) -> dict:
    comps = []
    for c in measure.components:
        if isinstance(c, Atom):
            comps.append({"kind": "atom", "mass": c.mass, "point": c.point.tolist()})
        elif isinstance(c, Ray):
            comps.append({"kind": "ray", "direction": c.direction.tolist(),
                          "density": {"name": c.density.name, **c.density.params}})
        else:
            comps.append({"kind": "curve", "curve": c.curve,
                          "interval": list(c.interval)})
    return {"n": measure.n, "components": comps}


def measure_from_json(obj: dict, *, check: bool = True) -> ThorinMeasure:
    comps: list[Component] = []
    for c in obj["components"]:
        kind = c["kind"]
        if kind == "atom":
            comps.append(Atom(float(c["mass"]), np.asarray(c["point"], dtype=float)))
        elif kind == "ray":
            dens = dict(c["density"])
            name = dens.pop("name")
            comps.append(Ray(np.asarray(c["direction"], dtype=float),
                             make_ray_density(name, dens)))
        elif kind == "curve":
            comps.append(Curve(c["curve"], tuple(c.get("interval", (0.0, 1.0)))))
        else:
            raise ValueError(f"unknown component kind {kind!r}")
    return ThorinMeasure(int(obj["n"]), comps, check=check)


def params_to_json(params: WvggParams) -> dict:
    return {"d": params.d.tolist(), "mu": params.mu.tolist(),
            "sigma": params.sigma.entries.tolist(),
            "U": measure_to_json(params.U)}


def params_from_json(obj: dict) -> WvggParams:
    return WvggParams(np.asarray(obj["d"], dtype=float),
                      np.asarray(obj["mu"], dtype=float),
                      CovMatrix(np.asarray(obj["sigma"], dtype=float)),
                      measure_from_json(obj["U"]))

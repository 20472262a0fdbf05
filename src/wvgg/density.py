"""Polar Levy density of the process family and its radial calculus.

For direction s and radius r > 0 the density against dr/r and surface measure,
restricted to the open orthant part of the Thorin measure, is

    h_s(r) = c_n int exp{r E(s,u)} kappa_{n/2}{r A(s,u)} dU(u) / D(s,u),

with c_n = 2 / (2 pi)^(n/2).  Its radial derivative moves under the integral
(one E-term minus an r A^2 kappa_{(n-2)/2} term), and when the A/D integral is
finite the derivative has the finite right limit

    c_n 2^((n-2)/2) Gamma(n/2) int E(s,u) dU(u) / D(s,u)   at r -> 0+.

Each direction is discretised once, for h, dh and the A/D and E/D integrals:

* atoms and curves: the atoms and the nodes of each curve's own rule
  (``Curve.rule``, split at its kinks) are r-independent, so they form one
  weighted point set whose geometric quantities are cached per direction,
  and every integral over them is a plain weighted sum;
* rays u = v * alpha: E and D are invariant along the ray while
  A(s, v alpha)^2 = (2 v ||alpha||^2 + m) q (``geometry.quantities``), so a
  single radial quadrature remains (for h graded against density poles via a
  power substitution, truncated where the Bessel kernel is spent; for A/D
  and E/D the divergence detector);
* a curve meeting the face u_k = 0 at a direction with s_k = 0 makes |M|
  vanish while q stays bounded, so every integrand there grows like 1/D: the
  detector decides int 1/D over such curves once, and where it diverges h
  raises ArithmeticError and A/D and E/D read divergent.

Every term is assembled as exp(r E + ln kappa - ln D) to dodge overflow in
either factor.  Evaluations require n >= 2; n = 1 is not applicable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bessel import kappa_log_grid
from .geometry import Quantities, quantities
from .linalg import CovMatrix, as_vector, diamond_mat_raw
from .measures import Atom, Ray, RayDensity, ThorinMeasure, WvggParams, integrate
from .quadrature import IntegralResult, gauss_nodes
from .quadrature import improper_integral  # noqa: F401  (perfbench/tracing.py patches this binding)

BESSEL_CUT = 80.0
_GRADE_DECADES = 10
_PANELS_PER_DECADE = 4


class NotApplicableError(Exception):
    """Raised when the polar-density machinery does not apply (n = 1)."""


def c_n(n: int) -> float:
    return 2.0 / (2.0 * math.pi) ** (n / 2.0)


# -- per-direction geometry ---------------------------------------------------

class _DirectionGeometry:
    """Cached component geometry for one direction s.

    Atoms and curve quadrature nodes form one weighted point set (weights are
    masses and parameter-quadrature weights) with r-independent E, A, ln D.
    Rays keep their kernel row at the direction, since their radial nodes
    depend on r.  ``divergent`` holds the detector's verdict on int 1/D over
    the curves that meet a face u_k = 0 where s_k = 0.
    """

    def __init__(self, params: WvggParams, s):
        if params.n < 2:
            raise NotApplicableError("polar density needs n >= 2")
        self.params = params
        self.s = as_vector(s, params.n)
        if not np.any(self.s):
            raise ValueError("direction must be nonzero")
        if not params.sigma.invertible:
            raise ValueError("Sigma must be invertible")
        mu, sigma = params.mu, params.sigma.entries
        points, weights = [np.zeros((0, params.n))], [np.zeros(0)]
        self.rays: list[tuple[Ray, Quantities]] = []
        on_face = []
        for c in params.U.positive_part():
            if isinstance(c, Atom):
                points.append(c.point[None, :])
                weights.append(np.array([c.mass]))
            elif isinstance(c, Ray):
                self.rays.append((c, quantities(mu, sigma, self.s, c.direction[None, :])))
            else:
                nodes, w = c.rule
                points.append(c.points(nodes))
                weights.append(w)
                ends = c.points(np.array(c.interval))
                if np.any((self.s == 0) & np.any(ends == 0, axis=0)):
                    on_face.append(c)
        self.weights = np.concatenate(weights)
        self.nodes = quantities(mu, sigma, self.s, np.concatenate(points))
        self.a = self.nodes.a()
        self.divergent = bool(on_face) and not integrate(
            on_face, lambda p, t: np.exp(-quantities(mu, sigma, self.s, p).logd)).finite


def _ray_vgrid(qq: Quantities, density: RayDensity, r: float):
    """Graded radial nodes (v, y-jacobian weights) truncated at Bessel cutoff."""
    lo = density.support_lo
    x_lo = r * float(qq.a(lo)[0])
    x_hi = max(x_lo + BESSEL_CUT, BESSEL_CUT)
    v_cut = ((x_hi / r) ** 2 / float(qq.q[0]) - float(qq.m[0])) / (2.0 * float(qq.uu[0]))
    v_cut = min(v_cut, density.support_hi)
    if v_cut <= lo:
        return None
    q = 1.0 + min(density.pole_at_0, 0.0)
    y_hi = (v_cut - lo) ** q
    # low end anchored absolutely (not to the r-dependent cutoff), so the
    # truncated tail mass cannot drift with r and pollute finite differences
    y_lo = max(y_hi * 1e-22, min(y_hi * 10.0 ** (-_GRADE_DECADES), 1e-12))
    decades = math.log10(y_hi / y_lo)
    panels = max(8, int(math.ceil(decades * _PANELS_PER_DECADE)))
    y, wts = gauss_nodes(np.geomspace(y_lo, y_hi, panels + 1))
    v = lo + y ** (1.0 / q)
    jac = (1.0 / q) * y ** (1.0 / q - 1.0)
    return v, wts * jac


def _kernel_sum(n: int, r: float, w: np.ndarray, e: np.ndarray, a: np.ndarray,
                logd: np.ndarray, derivative: bool) -> tuple[float, float]:
    """sum w exp(r E - ln D) kappa_{n/2}(r A) and, with ``derivative``, its
    derivative in r (0.0 without)."""
    logk = kappa_log_grid(n / 2.0, r * a)
    base = np.exp(r * e - logd + logk)
    h = float(np.sum(w * base))
    if not derivative:
        return h, 0.0
    logk2 = kappa_log_grid((n - 2) / 2.0, r * a)
    base2 = np.exp(r * e - logd + logk2)
    return h, float(np.sum(w * (e * base - r * a ** 2 * base2)))


def _h_terms(geom: _DirectionGeometry, rs, *, derivative: bool) -> np.ndarray:
    """Rows h_s and, with ``derivative``, its radial derivative (zeros
    without) at each radius of rs, from the component sums in exp-assembled
    form."""
    if geom.divergent:
        raise ArithmeticError("density diverges at this direction: a curve meets "
                              "the orthant face where the direction is zero")
    n = geom.params.n
    nodes = geom.nodes
    out = np.empty((2, len(rs)))
    for i, r in enumerate(rs):
        r = float(r)
        total = (np.array(_kernel_sum(n, r, geom.weights, nodes.e, geom.a, nodes.logd,
                                      derivative))
                 if geom.weights.size else np.zeros(2))
        for ray, qq in geom.rays:
            grid = _ray_vgrid(qq, ray.density, r)
            if grid is None:
                continue
            v, wts = grid
            total += _kernel_sum(n, r, wts * ray.density(v), qq.e, qq.a(v), qq.logd,
                                 derivative)
        if not np.all(np.isfinite(total)):
            raise ArithmeticError("component integral overflowed; parameters too extreme")
        out[:, i] = c_n(n) * total
    return out


def h_density(params: WvggParams, s, r: float) -> float:
    """Polar density h_s(r); nonnegative, n >= 2."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return float(_h_terms(_DirectionGeometry(params, s), [r], derivative=False)[0, 0])


def h_derivative(params: WvggParams, s, r: float) -> float:
    """Radial derivative of h_s at r, computed under the integral."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return float(_h_terms(_DirectionGeometry(params, s), [r], derivative=True)[1, 0])


def h_many(params: WvggParams, s, rs: np.ndarray, *, derivative: bool = False) -> np.ndarray:
    return _h_terms(_DirectionGeometry(params, s), rs, derivative=derivative)[int(derivative)]


# -- moment integrals against the measure -------------------------------------

def _over_d_integrals(U: ThorinMeasure, mu, sigma: CovMatrix,
                      s) -> tuple[IntegralResult, IntegralResult]:
    """(int A/D dU, int E/D dU) over the open orthant, the real and imaginary
    parts of (A + iE)/D: summed over the direction's atoms and curve nodes,
    and integrated with divergence detection along its rays.  |E| = |y.z| <=
    sqrt(q m) <= A at every point (``geometry.quantities``), so one divergence
    verdict serves both."""
    geom = _DirectionGeometry(WvggParams(np.zeros(sigma.n), mu, sigma, U), s)
    if geom.divergent:
        return IntegralResult(math.inf, math.inf, True), IntegralResult(math.inf, math.inf, True)
    nodes = geom.nodes

    def g(points, t):
        qq = quantities(geom.params.mu, sigma.entries, geom.s, points)
        return (qq.a(t) + 1j * qq.e) * np.exp(-qq.logd)

    res = integrate([ray for ray, _ in geom.rays], g)
    if res.finite:
        res.value += complex(np.sum(geom.weights * (geom.a + 1j * nodes.e) * np.exp(-nodes.logd)))
    return replace(res, value=res.value.real), replace(res, value=res.value.imag)


def a_over_d_integral(U: ThorinMeasure, mu, sigma: CovMatrix, s) -> IntegralResult:
    """int A(s,u) dU(u) / D(s,u) over the open orthant, with divergence detection."""
    return _over_d_integrals(U, mu, sigma, s)[0]


def e_over_d_integral(U: ThorinMeasure, mu, sigma: CovMatrix, s) -> IntegralResult:
    """int E(s,u) dU(u) / D(s,u) over the open orthant; divergent wherever A/D is."""
    return _over_d_integrals(U, mu, sigma, s)[1]


@dataclass
class DerivativeAtZero:
    applicable: bool
    value: float | None
    a_integral: IntegralResult
    e_integral: IntegralResult


def h_derivative_at_zero(params: WvggParams, s) -> DerivativeAtZero:
    """Right-hand limit of the radial derivative at 0.

    The finiteness of the A/D integral is the standing hypothesis; when it
    fails the limit is not extrapolated and the result is marked inapplicable.
    """
    a_res, e_res = _over_d_integrals(params.U, params.mu, params.sigma, s)
    n = params.n
    value = c_n(n) * 2.0 ** ((n - 2) / 2.0) * math.gamma(n / 2.0) * e_res.value
    return DerivativeAtZero(a_res.finite, value if a_res.finite else None, a_res, e_res)


# -- characteristic exponent ---------------------------------------------------

def char_exponent(params: WvggParams, theta) -> complex:
    """Characteristic exponent: Brownian part for drift d plus the principal-
    branch log integral against the full Thorin measure."""
    th = as_vector(theta, params.n)
    mu, sigma = params.mu, params.sigma.entries

    def log_arg(points, t):
        # 1 + (-i <u <> mu, theta> + theta (u <> Sigma) theta' / 2) / ||u||^2 at
        # u = t * points: the numerator scales by t, the norm by t^2.  The
        # quadratic form is taken point by point because the char-exponent
        # workload of perfbench counts these diamond_mat_raw calls; batching it
        # waits for that count to change (ROADMAP).
        quads = np.array([float(th @ diamond_mat_raw(p, sigma) @ th) for p in points])
        z = -1j * ((points * mu) @ th) + 0.5 * quads
        return 1.0 + z / (t * np.einsum("kj,kj->k", points, points))

    dmu = params.d * mu
    dsig = diamond_mat_raw(params.d, sigma)
    val = 1j * float(dmu @ th) - 0.5 * float(th @ dsig @ th)
    res = integrate(params.U.components, lambda p, t: np.log(log_arg(p, t)))
    return complex(val - res.require_finite("characteristic-exponent integral"))


def vg_char_exponent_closed_form(b: float, sigma: CovMatrix, theta) -> complex:
    """Closed form for the driftless single-gamma case: -b ln{(b + ||theta||^2_Sigma/2)/b}."""
    th = as_vector(theta, sigma.n)
    return complex(-b * math.log((b + 0.5 * float(th @ sigma.entries @ th)) / b))


def vg_levy_density(b: float, mu, sigma: CovMatrix, y) -> float:
    """Levy density of the variance-gamma process with rate b, drift mu and
    invertible covariance Sigma, at y != 0."""
    if b <= 0:
        raise ValueError("rate must be positive")
    if not sigma.invertible:
        raise ValueError("Sigma must be invertible")
    yv = as_vector(y, sigma.n)
    if not np.any(yv):
        raise ValueError("y must be nonzero")
    mu = as_vector(mu, sigma.n)
    n = sigma.n
    sol = np.linalg.solve(sigma.entries, np.stack([yv, mu], axis=1))
    qy = float(yv @ sol[:, 0])
    cross = float(yv @ sol[:, 1])
    qmu = float(mu @ sol[:, 1])
    norm_y = math.sqrt(qy)
    logk = float(kappa_log_grid(n / 2.0, np.array([math.sqrt(2.0 * b + qmu) * norm_y]))[0])
    log_val = (math.log(c_n(n) * b) - 0.5 * math.log(sigma.det)
               - n * math.log(norm_y) + cross + logk)
    return math.exp(log_val)


# -- curves, CSV, monotonicity -------------------------------------------------

@dataclass
class DensityCurve:
    s: np.ndarray
    r_grid: np.ndarray
    values: np.ndarray
    deriv: np.ndarray
    quadrature_err: np.ndarray


def default_r_grid(r_min: float = 1e-4, r_max: float = 50.0, count: int = 200) -> np.ndarray:
    return np.geomspace(r_min, r_max, count)


def density_curve(params: WvggParams, s, r_grid=None) -> DensityCurve:
    rs = default_r_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    geom = _DirectionGeometry(params, s)
    values, deriv = _h_terms(geom, rs, derivative=True)
    err = np.abs(values) * 1e-7
    return DensityCurve(as_vector(s, params.n), rs, values, deriv, err)


def write_density_csv(curve: DensityCurve, path: str) -> None:
    n = curve.s.size
    header = ",".join(f"s_{k+1}" for k in range(n)) + ",r,h,dh,err"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(curve.r_grid.size):
            fields = [f"{v:.17g}" for v in curve.s]
            fields += [f"{curve.r_grid[i]:.17g}", f"{curve.values[i]:.17g}",
                       f"{curve.deriv[i]:.17g}", f"{curve.quadrature_err[i]:.17g}"]
            fh.write(",".join(fields) + "\n")


def read_density_csv(path: str) -> DensityCurve:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        n = sum(1 for h in header if h.startswith("s_"))
        rows = [list(map(float, line.strip().split(","))) for line in fh if line.strip()]
    arr = np.asarray(rows)
    return DensityCurve(arr[0, :n], arr[:, n], arr[:, n + 1], arr[:, n + 2], arr[:, n + 3])


@dataclass
class MonotonicityVerdict:
    s: np.ndarray
    nonincreasing: bool
    r0: float | None
    margin: float


def monotonicity_scan(params: WvggParams, s_samples, r_grid=None,
                      *, tol: float = 1e-6) -> list[MonotonicityVerdict]:
    """Flag directions whose radial density strictly increases somewhere on the
    grid: h(r_{i+1}) > h(r_i) (1 + tol)."""
    rs = default_r_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    out = []
    for s in s_samples:
        vals = h_many(params, s, rs)
        ratios = vals[1:] / np.maximum(vals[:-1], 1e-300)
        # pairs this deep in the underflow floor carry no signal
        meaningful = vals[1:] > 1e-250
        bad = np.nonzero((ratios > 1.0 + tol) & meaningful)[0]
        if bad.size:
            i = int(bad[0])
            out.append(MonotonicityVerdict(as_vector(s), False, float(rs[i + 1]),
                                           float(ratios.max() - 1.0)))
        else:
            out.append(MonotonicityVerdict(as_vector(s), True, None,
                                           float(ratios.max() - 1.0)))
    return out

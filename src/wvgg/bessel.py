"""Scaled modified Bessel kernel of the second kind on the positive real axis.

The central object is

    kappa_rho(w) = w^rho K_rho(w) = 2^(rho-1) * int_0^inf t^(rho-1)
                   exp{-t - w^2/(4t)} dt,     rho >= 0, w > 0,

evaluated through the integral representation after the substitution t = e^x,
which turns the integrand into a doubly-exponentially decaying analytic
function of x.  The trapezoidal rule on such integrands is spectrally
accurate; step halving (cap 12 levels) supplies the error estimate.

Facts exercised by the rest of the package and pinned by tests:

* kappa_rho is nonincreasing on (0, inf) and bounded by kappa_rho(0+)
  = 2^(rho-1) Gamma(rho) for rho > 0, while kappa_0(r) ~ ln(1/r) as r -> 0.
* d kappa_nu(w) / dw = -w kappa_{nu-1}(w) for nu >= 1.
* sup_{r>0} r kappa_rho(r) is finite and r kappa_rho(r) -> 0 as r -> 0.
* int_r^inf kappa_nu(v) dv <= sqrt(pi) Gamma(nu+1/2)/Gamma(nu) * kappa_nu(r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import gauss_panels, golden_section

EULER_GAMMA = 0.5772156649015328606
LOG2 = math.log(2.0)

# below this argument the rho = 0 integrand is numerically stiff; use the
# log asymptotic K_0(w) = L + (w^2/4)(L + 1), L = ln(2/w) - gamma
SMALL_W0 = 1e-4


@dataclass
class BesselEval:
    rho: float
    w: float
    value: float
    abs_err_est: float


def _check_args(rho: float, w: float) -> None:
    if w <= 0.0 or not math.isfinite(w):
        raise ValueError(f"argument must be positive, got w={w}")
    if rho < 0.0:
        raise ValueError(f"order must be nonnegative, got rho={rho}")


def _k0_small(w):
    ell = np.log(2.0 / w) - EULER_GAMMA
    return ell + 0.25 * w * w * (ell + 1.0)


def _window(rho: float, beta: float, tau: float) -> tuple[float, float]:
    x0 = math.log(tau)
    x_left = min(x0, math.log(beta)) - 6.0
    x_right = max(x0, math.log(50.0 + 14.0 * rho)) + 2.0
    return x_left, x_right


def _log_trapezoid(rho: float, w: float, h: float) -> float:
    """log of the Sommerfeld integral at step h (trapezoid in x = ln t)."""
    beta = 0.25 * w * w
    tau = 0.5 * (rho + math.hypot(rho, w))
    x_left, x_right = _window(rho, beta, tau)
    x = np.arange(x_left, x_right + h, h)
    g = rho * x - np.exp(x) - beta * np.exp(-x)
    m = float(np.max(g))
    s = float(np.exp(g - m).sum()) * h
    return (rho - 1.0) * LOG2 + m + math.log(s)


def kappa_log(rho: float, w: float) -> float:
    """ln kappa_rho(w), overflow/underflow-safe."""
    _check_args(rho, w)
    if rho == 0.0 and w < SMALL_W0:
        return math.log(_k0_small(w))
    h = 0.5
    prev = _log_trapezoid(rho, w, h)
    for _ in range(12):
        h *= 0.5
        cur = _log_trapezoid(rho, w, h)
        if abs(cur - prev) <= 1e-13 * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


def kappa_bessel_eval(rho: float, w: float) -> BesselEval:
    """Evaluate kappa_rho(w) with an absolute error estimate."""
    _check_args(rho, w)
    if rho == 0.0 and w < SMALL_W0:
        v = float(_k0_small(w))
        return BesselEval(rho, w, v, abs(v) * 1e-6)
    h = 0.5
    prev = _log_trapezoid(rho, w, h)
    cur = prev
    for _ in range(12):
        h *= 0.5
        cur = _log_trapezoid(rho, w, h)
        if abs(cur - prev) <= 1e-13 * max(1.0, abs(cur)):
            break
        prev = cur
    value = math.exp(cur)
    return BesselEval(rho, w, value, value * min(abs(cur - prev), 1.0))


@lru_cache(maxsize=1 << 16)
def _kappa_cached(rho: float, w: float) -> float:
    return math.exp(kappa_log(rho, w))


def kappa_bessel(rho: float, w: float) -> float:
    """kappa_rho(w) = w^rho K_rho(w) for rho >= 0, w > 0."""
    _check_args(rho, w)
    return _kappa_cached(float(rho), float(w))


def kappa_log_grid(rho: float, ws: np.ndarray, h: float = 0.0625) -> np.ndarray:
    """ln kappa_rho over an array of positive arguments (one shared grid)."""
    ws = np.asarray(ws, dtype=float)
    if np.any(ws <= 0.0):
        raise ValueError("arguments must be positive")
    out = np.empty_like(ws)
    flat = ws.ravel()
    res = out.ravel()
    small = (flat < SMALL_W0) & (rho == 0.0)
    if np.any(small):
        res[small] = np.log(_k0_small(flat[small]))
    big = ~small
    idx = np.nonzero(big)[0]
    for start in range(0, idx.size, 4096):
        sel = idx[start:start + 4096]
        wchunk = flat[sel]
        beta = 0.25 * wchunk * wchunk
        tau = 0.5 * (rho + np.hypot(rho, wchunk))
        x_left = min(float(np.min(np.log(beta))), float(np.min(np.log(tau)))) - 6.0
        x_right = max(float(np.max(np.log(tau))), math.log(50.0 + 14.0 * rho)) + 2.0
        x = np.arange(x_left, x_right + h, h)
        g = rho * x[None, :] - np.exp(x)[None, :] - beta[:, None] * np.exp(-x)[None, :]
        m = g.max(axis=1)
        s = np.exp(g - m[:, None]).sum(axis=1) * h
        res[sel] = (rho - 1.0) * LOG2 + m + np.log(s)
    return out


def kappa_grid(rho: float, ws: np.ndarray) -> np.ndarray:
    """kappa_rho over an array of positive arguments."""
    return np.exp(kappa_log_grid(rho, ws))


def kappa_zero_limit(rho: float) -> float:
    """kappa_rho(0+) = 2^(rho-1) Gamma(rho) for rho > 0, +inf for rho = 0."""
    if rho <= 0.0:
        return math.inf
    return 2.0 ** (rho - 1.0) * math.gamma(rho)


def kappa_bessel_sup(rho: float) -> float:
    """sup_{r>0} r * kappa_rho(r), by grid bracketing plus golden-section.

    The vanishing of r*kappa_rho(r) at the origin is verified alongside; the
    check scales with kappa_rho(0+) since that is the approach rate.
    """
    if rho < 0.0:
        raise ValueError("order must be nonnegative")
    rs = np.exp(np.linspace(math.log(1e-6), math.log(80.0), 400))
    vals = rs * kappa_grid(rho, rs)
    i = int(np.argmax(vals))
    lo = math.log(rs[max(i - 1, 0)])
    hi = math.log(rs[min(i + 1, rs.size - 1)])

    def neg(lr: float) -> float:
        r = math.exp(lr)
        return -r * kappa_bessel(rho, r)

    _, neg_sup = golden_section(neg, lo, hi, iters=80, tol=1e-12)
    sup = max(-neg_sup, float(vals[i]))

    r_probe = 1e-8
    limit_scale = max(1.0, kappa_zero_limit(rho)) if rho > 0 else 1.0
    if r_probe * kappa_bessel(rho, r_probe) > 1e-6 * limit_scale:
        raise ArithmeticError("r * kappa_rho(r) fails to vanish at the origin")
    return sup


def _tail_edges(nu: float, r: float) -> np.ndarray:
    cut = 80.0 + 10.0 * nu
    offsets = np.concatenate([[0.0], np.geomspace(1e-9 * max(1.0, r), cut, 200)])
    return r + offsets


def bessel_tail(nu: float, r: float) -> float:
    """int_r^inf kappa_nu(v) dv, relative accuracy well below 1e-8."""
    if r <= 0.0:
        raise ValueError("lower limit must be positive")
    if nu < 0.0:
        raise ValueError("order must be nonnegative")
    value, _ = gauss_panels(lambda v: kappa_grid(nu, v), _tail_edges(nu, r), order=24)
    return value


def bessel_tail_many(nu: float, rs: np.ndarray) -> np.ndarray:
    """int_r^inf kappa_nu(v) dv for an array of lower limits (one sweep)."""
    rs = np.asarray(rs, dtype=float)
    if np.any(rs <= 0.0):
        raise ValueError("lower limits must be positive")
    order = np.argsort(rs.ravel())
    sorted_r = rs.ravel()[order]
    rmax = float(sorted_r[-1])
    tail = bessel_tail(nu, rmax)
    out = np.empty_like(sorted_r)
    out[-1] = tail
    acc = tail
    for i in range(sorted_r.size - 2, -1, -1):
        a, b = float(sorted_r[i]), float(sorted_r[i + 1])
        if b > a:
            panels = max(4, int(math.ceil((b - a) / 0.25)) + 4)
            edges = np.linspace(a, b, panels + 1)
            seg, _ = gauss_panels(lambda v: kappa_grid(nu, v), edges, order=16)
            acc += seg
        out[i] = acc
    res = np.empty_like(out)
    res[order] = out
    return res.reshape(rs.shape)


def kappa_tail_weighted(nu: float, p: float, t: float) -> float:
    """int_t^inf kappa_nu(v) v^p dv (p may be negative; t > 0)."""
    if t <= 0.0:
        raise ValueError("lower limit must be positive")
    value, _ = gauss_panels(lambda v: kappa_grid(nu, v) * v ** p,
                            _tail_edges(nu, t), order=24)
    return value


def bessel_derivative_check(nu: float, w: float) -> float:
    """Residual of d kappa_nu / dw = -w kappa_{nu-1}(w) against a central difference.

    Returns |fd + w kappa_{nu-1}(w)| / max(1, |w kappa_{nu-1}(w)|); nu >= 1.
    """
    if nu < 1.0:
        raise ValueError("identity requires nu >= 1")
    _check_args(nu, w)
    h = 1e-5 * max(1.0, w)
    fd = (kappa_bessel(nu, w + h) - kappa_bessel(nu, w - h)) / (2.0 * h)
    target = -w * kappa_bessel(nu - 1.0, w)
    return abs(fd - target) / max(1.0, abs(target))

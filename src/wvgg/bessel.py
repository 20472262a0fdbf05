"""Scaled modified Bessel kernel of the second kind on the positive real axis.

The central object is

    kappa_rho(w) = w^rho K_rho(w) = 2^(rho-1) * int_0^inf t^(rho-1)
                   exp{-t - w^2/(4t)} dt,     rho >= 0, w > 0,

evaluated through the integral representation after the substitution t = e^x,
where the log-integrand g(x) = rho x - e^x - beta e^(-x), beta = w^2/4, is
concave with its peak at the saddle t* = (rho + sqrt(rho^2 + w^2))/2.  Each
argument gets its own trapezoid grid: centred at its saddle, reaching out to
where g has fallen DROP below its peak, with a step of at most
min(1/4, 1/(2 sqrt(-g''(x*)))).  On such a grid the trapezoidal rule converges
exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014), so one fixed grid
per argument is exact to rounding for every w, from 1e-12 up: no step halving
and no small-argument branch.

The next order down is one weight away on the same nodes:
kappa_{rho-1}(w) = 2^(rho-2) int e^{g(x)} e^{-x} dx.  So ``lower=True`` sums
e^{g} and e^{g} e^{-x} in one pass, on a grid with order rho's step (the finer
one) over the union of the two orders' windows; the radial derivative of the
density, which needs kappa_{n/2} and kappa_{(n-2)/2} at the same arguments,
calls the kernel once.

Facts pinned by tests (the second and fourth are also rows of
``wvgg verify-lemmas``):

* kappa_rho is nonincreasing on (0, inf) and bounded by kappa_rho(0+)
  = 2^(rho-1) Gamma(rho) for rho > 0, while kappa_0(r) ~ ln(1/r) as r -> 0.
* d kappa_nu(w) / dw = -w kappa_{nu-1}(w) for nu >= 1.
* sup_{r>0} r kappa_rho(r) is finite and r kappa_rho(r) -> 0 as r -> 0.
* int_r^inf kappa_nu(v) dv <= sqrt(pi) Gamma(nu+1/2)/Gamma(nu) * kappa_nu(r).
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import gauss_panels

LOG2 = math.log(2.0)
DROP = 40.0            # window edge: the log-integrand this far below its peak
_NODE_QUANTUM = 16     # node counts are rounded up to a multiple of this, so a
                       # batch falls into few groups of equal count
_CHUNK_CELLS = 1 << 13  # grid cells evaluated at once; keeps the temporaries in cache


def _reach(c: np.ndarray) -> np.ndarray:
    """An offset s > 0 with e^s - 1 - s >= c: sqrt(2c), or ln(1 + 2c) when
    c > 1.3 and that is smaller."""
    s = np.sqrt(2.0 * c)
    big = c > 1.3
    s[big] = np.minimum(s[big], np.log1p(2.0 * c[big]))
    return s


def _window(rho: float, w: np.ndarray):
    """Order rho's grid for each w: (c, t*, b, step, left reach, right reach),
    with c = -g''(x*) = 2 t* - rho and b = beta/t* = t* - rho; the reaches are
    offsets from x* = ln t* where g has fallen at least DROP below its peak."""
    c = np.hypot(rho, w)
    t = 0.5 * (rho + c)
    b = w * (0.25 * w / t)
    h = np.minimum(0.25, 0.5 / np.sqrt(c))
    s_left = _reach(DROP / b)
    if rho > 0.0:
        s_left = np.minimum(s_left, (DROP + t) / rho)
    return c, t, b, h, s_left, _reach(DROP / t)


def kappa_log_grid(rho: float, ws, *, lower: bool = False) -> np.ndarray:
    """ln kappa_rho(w) for every w of ws (rho >= 0, every w finite and > 0).

    About x* = ln t*, with b = beta/t* = t* - rho and s = x - x*, the
    log-integrand is g(x*) - 4 b sinh^2(s/2) - rho (e^s - 1 - s): both terms
    are nonpositive, so it is evaluated without cancellation at every w.
    Writing a = e^|s| - 1, 4 sinh^2(s/2) = a^2/(1 + a).  The window follows
    from the bounds g(x*) - g(x* + s) >= t* (e^s - 1 - s) and
    g(x*) - g(x* - s) >= b (e^s - 1 - s), or >= rho s - t*.  Each value
    depends on its own argument only, not on the rest of the batch.

    With ``lower`` (rho >= 1) the result has shape (2,) + ws.shape and holds
    [ln kappa_rho, ln kappa_{rho-1}] from one pass over one grid per
    argument: kappa_{rho-1}(w) = 2^(rho-2) int e^{g(x)} e^{-x} dx, so the
    lower order reuses every exponential of the rho sum and only weights it
    by e^{-s} = 1 - d (s > 0) or 1 + a (s < 0), with d = a/(1 + a).  That
    grid keeps order rho's step, which is the finer of the two since c grows
    with rho, and spans the union of both orders' windows, the rho - 1 one
    shifted by ln(t*_rho / t*_{rho-1}) onto x*_rho: each order meets its own
    DROP and step criterion.
    """
    ws = np.asarray(ws, dtype=float)
    if not 0.0 <= rho < math.inf or not np.all(np.isfinite(ws) & (ws > 0.0)):
        raise ValueError(f"need order rho >= 0 and finite arguments w > 0, got rho={rho}")
    if lower and not rho >= 1.0:
        raise ValueError(f"the lower order rho - 1 needs rho >= 1, got rho={rho}")
    w = ws.ravel()
    c, t, b, h, s_left, s_right = _window(rho, w)
    if lower:
        _, t_low, _, _, left_low, right_low = _window(rho - 1.0, w)
        shift = np.log(t / t_low)
        s_left = np.maximum(s_left, left_low + shift)
        s_right = np.maximum(s_right, right_low - shift)
    n_left = np.ceil(s_left / h)
    count = n_left + np.ceil(s_right / h) + 1.0
    count = (_NODE_QUANTUM * np.ceil(count / _NODE_QUANTUM)).astype(int)
    out = np.empty((2 if lower else 1, w.size))
    for n in np.flatnonzero(np.bincount(count)):
        rows = np.nonzero(count == n)[0]
        step = max(1, _CHUNK_CELLS // n)
        k = np.arange(n, dtype=float)
        for start in range(0, rows.size, step):
            sel = rows[start:start + step]
            s = (k - n_left[sel, None]) * h[sel, None]
            right = s > 0.0
            a = np.expm1(np.abs(s))
            d = a / (1.0 + a)
            g = a * d
            g *= -b[sel, None]
            if rho > 0.0:
                g -= rho * (np.where(right, a, -d) - s)
            e = np.exp(g)
            out[0, sel] = np.log(h[sel] * e.sum(axis=1))
            if lower:
                e *= np.where(right, 1.0 - d, 1.0 + a)
                out[1, sel] = np.log(h[sel] * e.sum(axis=1))
    log_t = np.log(t)
    out[0] += (rho - 1.0) * LOG2 + rho * log_t - c
    if not lower:
        return out[0].reshape(ws.shape)
    out[1] += (rho - 2.0) * LOG2 + (rho - 1.0) * log_t - c
    return out.reshape((2,) + ws.shape)


def kappa_bessel(rho: float, w: float) -> float:
    """kappa_rho(w) = w^rho K_rho(w) for rho >= 0, w > 0."""
    return math.exp(float(kappa_log_grid(rho, np.array([w], dtype=float))[0]))


def kappa_grid(rho: float, ws: np.ndarray) -> np.ndarray:
    """kappa_rho over an array of positive arguments."""
    return np.exp(kappa_log_grid(rho, ws))


def _tail_edges(nu: float, r: float) -> np.ndarray:
    cut = 80.0 + 10.0 * nu
    offsets = np.concatenate([[0.0], np.geomspace(1e-9 * max(1.0, r), cut, 200)])
    return r + offsets


def bessel_tail(nu: float, r: float) -> float:
    """int_r^inf kappa_nu(v) dv, relative accuracy well below 1e-8."""
    if r <= 0.0:
        raise ValueError("lower limit must be positive")
    value, _ = gauss_panels(lambda v: kappa_grid(nu, v), _tail_edges(nu, r))
    return value


def bessel_derivative_check(nu: float, w: float) -> float:
    """Residual of d kappa_nu / dw = -w kappa_{nu-1}(w) against a central difference.

    Returns |fd + w kappa_{nu-1}(w)| / max(1, |w kappa_{nu-1}(w)|); nu >= 1.
    """
    if nu < 1.0:
        raise ValueError("identity requires nu >= 1")
    h = 1e-5 * max(1.0, w)
    fd = (kappa_bessel(nu, w + h) - kappa_bessel(nu, w - h)) / (2.0 * h)
    target = -w * kappa_bessel(nu - 1.0, w)
    return abs(fd - target) / max(1.0, abs(target))

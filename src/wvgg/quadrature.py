"""Vectorised panel quadrature, improper integrals with divergence detection,
and the golden-section line search.

Two workhorses live here:

* :func:`gauss_panels` -- composite Gauss-Legendre over explicit panel edges,
  evaluating the (vectorised) integrand once on the full node array.  An error
  estimate comes from comparing against the half-order rule on the same panels.
  :func:`gauss_nodes` returns the nodes and weights of such a rule, for the
  fixed rules of the density code (a curve's ``rule``, a ray's radial grid).

* :func:`improper_integral` -- a window-refinement driver for integrals over
  ``(lo, hi)`` whose endpoints may be singular or infinite.  Each round shrinks
  the offset from a singular endpoint and extends the truncation window
  geometrically while doubling the panel count; given interior kinks are
  panel edges in every round.  An integral is declared
  divergent when the partial value keeps growing by more than 5% over the final
  three rounds, or exceeds 1e12.  This is a finite-vs-infinite detector, not a
  high-precision evaluator near the divergence boundary: with the 12-round
  ladder reaching 1e12, tail exponents in roughly (-1.05, -1] are reported
  divergent although the integral is finite (and symmetrically at the origin).
  Callers needing sharper boundaries must integrate in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

CLIP = 1e12
GROWTH_TOL = 0.05
ROUNDS = 12
ORDER = 24
NODE_ORDER = 10
_SHRINK = 10.0
_GROW = 10.0


class DivergentIntegral(Exception):
    """Raised when a divergent integral is used where a finite one is required."""


@dataclass
class IntegralResult:
    value: float | complex
    error: float
    divergent: bool
    rounds: int = 0

    @property
    def finite(self) -> bool:
        return (not self.divergent) and cmath.isfinite(self.value)

    def require_finite(self, what: str = "integral") -> float | complex:
        if not self.finite:
            raise DivergentIntegral(f"{what} diverges (last partial {self.value:.6g})")
        return self.value


@lru_cache(maxsize=32)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gauss_panels(f: Callable[[np.ndarray], np.ndarray],
                 edges: np.ndarray) -> tuple[float | complex, float]:
    """Composite Gauss-Legendre quadrature of a vectorised integrand, real
    or complex, of ``ORDER`` nodes per panel.

    Returns ``(value, error_estimate)``; the estimate is the difference from
    the embedded half-order rule.  Infinite integrand values (or parts) are
    clipped to +-1e300, so a blow-up reads as a huge partial value to the
    divergence detector; a NaN raises ArithmeticError.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def run(n):
        x, w = _leggauss(n)
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        vals = np.asarray(f(nodes)).reshape(len(a), n)
        if np.isnan(vals).any():
            raise ArithmeticError("integrand is NaN at a quadrature node")
        vals = np.nan_to_num(vals, posinf=1e300, neginf=-1e300)
        return np.sum((vals * w[None, :]).sum(axis=1) * half).item()

    value = run(ORDER)
    coarse = run(ORDER // 2)
    return value, abs(value - coarse)


def gauss_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite ``NODE_ORDER``-point Gauss-Legendre
    rule on the panels between consecutive ``edges``, panel by panel."""
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    x, w = _leggauss(NODE_ORDER)
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel())


def log_edges(lo: float, hi: float, panels: int) -> np.ndarray:
    """Geometrically spaced panel edges on (lo, hi), lo > 0."""
    return np.exp(np.linspace(math.log(lo), math.log(hi), panels + 1))


def improper_integral(f: Callable[[np.ndarray], np.ndarray],
                      lo: float = 0.0,
                      hi: float = math.inf,
                      *,
                      open_lo: bool | None = None,
                      open_hi: bool | None = None,
                      points: tuple[float, ...] = ()) -> IntegralResult:
    """Integrate ``f`` over (lo, hi) with divergence detection.

    ``open_lo``/``open_hi`` mark endpoints to be approached through a shrinking
    offset (defaults: lo == 0, hi == inf).  ``points``, ascending, are interior
    points where the integrand is not smooth (a derivative kink); every round
    makes each one a panel edge.  The integrand, real or complex, must be
    vectorised and finite on the open interval.
    """
    if open_lo is None:
        open_lo = (lo == 0.0)
    if open_hi is None:
        open_hi = math.isinf(hi)
    span = (hi - lo) if math.isfinite(hi) else 1.0
    d0 = 1e-2 * span
    r0 = 10.0 * max(1.0, abs(lo))

    vals: list[float] = []
    growths: list[float] = []
    err = math.inf
    for k in range(ROUNDS):
        a_k = lo + d0 * _SHRINK ** (-k) if open_lo else lo
        if open_hi:
            b_k = (hi - d0 * _SHRINK ** (-k)) if math.isfinite(hi) else r0 * _GROW ** k
        else:
            b_k = hi
        if not b_k > a_k:
            continue
        panels = min(64 * 2 ** k, 1024)
        if a_k > 0:
            edges = log_edges(a_k, b_k, panels)
        else:
            edges = np.linspace(a_k, b_k, panels + 1)
        cuts = [p for p in points if a_k < p < b_k]
        if cuts:
            edges = np.insert(edges, np.searchsorted(edges, cuts), cuts)
        value, err = gauss_panels(f, edges)
        vals.append(value)
        if len(vals) >= 2:
            prev = vals[-2]
            growths.append(abs(value - prev) / max(abs(prev), 1e-300))
        if abs(value) > CLIP:
            return IntegralResult(value, math.inf, True, k + 1)
        if len(growths) >= 3 and all(g > 0.5 for g in growths[-3:]) and k >= 5:
            return IntegralResult(value, math.inf, True, k + 1)
        if len(growths) >= 3 and all(g < 1e-10 for g in growths[-3:]):
            return IntegralResult(value, max(err, abs(value - prev) * 2), False, k + 1)

    if not vals:
        raise ValueError("empty integration window")
    if len(growths) >= 3 and all(g > GROWTH_TOL for g in growths[-3:]):
        return IntegralResult(vals[-1], math.inf, True, ROUNDS)
    tail_err = abs(vals[-1] - vals[-2]) if len(vals) >= 2 else err
    return IntegralResult(vals[-1], max(err, tail_err), False, ROUNDS)


def golden_section(f: Callable[[float], float], a: float, b: float, *,
                   iters: int, tol: float) -> tuple[float, float]:
    """Golden-section minimisation of f on [a, b] for at most ``iters``
    bracket reductions or until the bracket is narrower than ``tol``; returns
    the better (t, f(t)) of the final bracket's two probes."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < tol:
            break
    return (c, fc) if fc < fd else (d, fd)

"""Exponent/argument/denominator quantities and uniform strict positivity.

For a Brownian drift mu and invertible covariance Sigma, with M = u <> Sigma:

    E(x, u) = <x, u <> mu>_{M^-1}
    A(x, u) = sqrt( (2 ||u||^2 + ||u <> mu||^2_{M^-1}) ||x||^2_{M^-1} )
    D(x, u) = ||x||^n_{M^-1} |M|^{1/2}

E is invariant under positive scaling of u, and the infimum of E(x, .) over
the open positive orthant reduces, per coordinate permutation, to a minimum
over ratio vectors v in [0,1]^(n-1) of  mu (Delta_n(v) * Sigma)^{-1} x'.  That
ratio form extends continuously to the faces of the box (the Hadamard product
Delta_n(v) * Sigma stays invertible there) and is what the grid search uses;
reconstructing u from near-face ratio vectors is numerically hopeless.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import CovMatrix, DimensionError, as_vector, delta_matrix_batch, diamond_mat_raw
from .quadrature import golden_section

INTERIOR_CLIP = 1e-8
BOUNDARY_TOL = 1e-6
GRID_POINTS = 17


@dataclass(frozen=True)
class QuantityContext:
    """Drift/covariance pair entering every quantity; |Sigma| > 0 required."""
    mu: np.ndarray
    sigma: CovMatrix

    def __post_init__(self):
        mu = as_vector(self.mu, self.sigma.n)
        object.__setattr__(self, "mu", mu)
        if not self.sigma.invertible:
            raise ValueError("Sigma must be invertible")

    @property
    def n(self) -> int:
        return self.sigma.n


class Quantities(NamedTuple):
    """Geometry of a batch of orthant points u against one x, M = u <> Sigma."""
    e: np.ndarray       # E(x, u)
    logd: np.ndarray    # ln D(x, u)
    q: np.ndarray       # ||x||^2_{M^-1}
    m: np.ndarray       # ||u <> mu||^2_{M^-1}
    uu: np.ndarray      # ||u||^2

    def a(self, t=1.0) -> np.ndarray:
        """A(x, t u) for t > 0 (E and D do not depend on t)."""
        return np.sqrt((2.0 * t * self.uu + self.m) * self.q)


def quantities(mu: np.ndarray, sigma: np.ndarray, x: np.ndarray,
               us: np.ndarray) -> Quantities:
    """E, ln D, q, m and ||u||^2 for the orthant points ``us``, shape (k, n).

    One batched Cholesky factor L of M serves every quantity: with the forward
    solves y = L^-1 x and z = L^-1 (u <> mu), q = |y|^2, m = |z|^2, E = y.z and
    ln|M| = 2 sum ln L_ii, so D never forms a determinant that can under- or
    overflow.  Scaling u by t > 0 scales M by t, which leaves E and D unchanged
    and gives A(x, t u) = sqrt((2 t ||u||^2 + m) q): a ray needs one call at its
    direction whatever its radial nodes.
    """
    us = np.asarray(us, dtype=float)
    n = us.shape[1]
    chol = np.linalg.cholesky(diamond_mat_raw(us, sigma))
    rhs = np.stack([np.broadcast_to(x, us.shape), us * mu], axis=2)
    y = np.empty_like(rhs)
    for i in range(n):
        y[:, i] = ((rhs[:, i] - (chol[:, i, :i, None] * y[:, :i]).sum(axis=1))
                   / chol[:, i, i, None])
    q = np.einsum("kj,kj->k", y[..., 0], y[..., 0])
    e = np.einsum("kj,kj->k", y[..., 0], y[..., 1])
    m = np.einsum("kj,kj->k", y[..., 1], y[..., 1])
    logd = (n / 2.0) * np.log(q) + np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    return Quantities(e, logd, q, m, np.einsum("kj,kj->k", us, us))


def _at(ctx: QuantityContext, x, u) -> Quantities:
    return quantities(ctx.mu, ctx.sigma.entries, as_vector(x, ctx.n), _check_u(ctx, u)[None, :])


def e_quantity(ctx: QuantityContext, x, u) -> float:
    """Exponent quantity <x, u <> mu>_{(u <> Sigma)^{-1}}."""
    return float(_at(ctx, x, u).e[0])


def a_quantity(ctx: QuantityContext, x, u) -> float:
    """Argument quantity entering the Bessel kernel; strictly positive for x != 0."""
    return float(_at(ctx, x, u).a()[0])


def d_quantity(ctx: QuantityContext, y, u) -> float:
    """Denominator quantity ||y||^n |u <> Sigma|^{1/2}; y must be nonzero."""
    if not np.any(as_vector(y, ctx.n)):
        raise ValueError("y must be nonzero")
    return math.exp(_at(ctx, y, u).logd[0])


def ade_quantities(ctx: QuantityContext, x, u) -> tuple[float, float, float]:
    """(A, D, E) from one kernel call."""
    qq = _at(ctx, x, u)
    return float(qq.a()[0]), math.exp(qq.logd[0]), float(qq.e[0])


def _check_u(ctx: QuantityContext, u) -> np.ndarray:
    uv = as_vector(u, ctx.n)
    if np.any(uv <= 0):
        raise ValueError("u must lie in the open positive orthant")
    return uv


@dataclass
class InfimumEstimate:
    value: float
    argmin_v: np.ndarray
    permutation: list[int]
    boundary: bool
    certified_positive: bool
    uncertainty: float = 0.0
    samples: int = 0


def u_from_ratios(v: np.ndarray) -> np.ndarray:
    """Ascending u with u_n = 1 and u_k = prod(v_k..v_{n-1})."""
    vv = np.asarray(v, dtype=float)
    u = np.ones(vv.size + 1)
    u[:-1] = np.cumprod(vv[::-1])[::-1]
    return u


def _ratio_objective_batch(mu_p: np.ndarray, sigma_p: np.ndarray, x_p: np.ndarray,
                           vs: np.ndarray) -> np.ndarray:
    """mu (Delta_n(v) * Sigma)^{-1} x' over a batch of ratio vectors."""
    deltas = delta_matrix_batch(vs) * sigma_p[None, :, :]
    sols = np.linalg.solve(deltas, np.broadcast_to(x_p, (vs.shape[0], x_p.size))[..., None])
    return np.einsum("k,mk->m", mu_p, sols[..., 0])


def _coordinate_descent(fun, v0: np.ndarray, lo: float, hi: float,
                        sweeps: int = 40) -> tuple[np.ndarray, float]:
    v = v0.copy()
    best = fun(v)
    for _ in range(sweeps):
        improved = best
        for k in range(v.size):
            vk = v.copy()

            def f1(t):
                vk[k] = t
                return fun(vk)

            t_best, f_best = golden_section(f1, lo, hi, iters=60, tol=1e-13)
            for t_cand in (lo, hi):
                vk[k] = t_cand
                f_cand = fun(vk)
                if f_cand < f_best:
                    t_best, f_best = t_cand, f_cand
            if f_best < best:
                v[k] = t_best
                best = f_best
        if improved - best <= 1e-15 * (1.0 + abs(best)):
            break
    return v, best


def usp_infimum(ctx: QuantityContext, x, *, grid_points: int = GRID_POINTS,
                eps: float = INTERIOR_CLIP) -> InfimumEstimate:
    """inf over the open positive orthant of E(x, u).

    Runs the ratio-vector grid per coordinate permutation (v in [eps,1]^(n-1);
    the full closed box when x == mu, where the face values are exact) and
    refines the best cells by coordinate descent.  certified_positive demands
    the refined value exceed ten times the refinement delta.
    """
    n = ctx.n
    if n > 6:
        raise DimensionError("exhaustive permutation scan limited to n <= 6")
    xv = as_vector(x, ctx.n)
    x_is_mu = np.array_equal(xv, ctx.mu)

    if n == 1:
        val = float(ctx.mu[0] * xv[0] / ctx.sigma.entries[0, 0])
        return InfimumEstimate(val, np.zeros(0), [0], False, val > 0, 0.0, 1)

    lo = 0.0 if x_is_mu else eps
    axis = np.linspace(lo, 1.0, grid_points)
    grids = np.stack([g.ravel() for g in np.meshgrid(*([axis] * (n - 1)), indexing="ij")],
                     axis=1)

    best = math.inf
    best_grid = math.inf
    best_v = None
    best_perm = None
    samples = 0
    candidates = []
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        mu_p = ctx.mu[p]
        x_p = xv[p]
        sigma_p = ctx.sigma.entries[np.ix_(p, p)]
        vals = _ratio_objective_batch(mu_p, sigma_p, x_p, grids)
        samples += vals.size
        i = int(np.argmin(vals))
        candidates.append((float(vals[i]), grids[i].copy(), p, mu_p, sigma_p, x_p))
        if vals[i] < best_grid:
            best_grid = float(vals[i])

    candidates.sort(key=lambda c: c[0])
    for val0, v0, p, mu_p, sigma_p, x_p in candidates[:3]:
        fun = lambda v: float(_ratio_objective_batch(mu_p, sigma_p, x_p, v[None, :])[0])
        v_ref, val_ref = _coordinate_descent(fun, v0, lo, 1.0)
        if val_ref < best:
            best = val_ref
            best_v = v_ref
            best_perm = p

    uncertainty = max(best_grid - best, 0.0) + 1e-13 * (1.0 + abs(best))
    certified = best > 10.0 * uncertainty
    boundary = bool(np.any(best_v < BOUNDARY_TOL))
    return InfimumEstimate(best, best_v, best_perm, boundary, certified,
                           uncertainty, samples)


@dataclass
class MembershipResult:
    member: bool | None            # None encodes "unknown"
    evidence: InfimumEstimate


def v_plus_member(ctx: QuantityContext, x) -> MembershipResult:
    """Membership probe for the cone where E(x, .) stays uniformly positive.

    True requires a certified-positive infimum; a negative estimate witnesses
    non-membership; anything in between is unknown (deliberately: the cone is
    open and boundary membership is undecidable numerically).
    """
    xv = as_vector(x, ctx.n)
    if not np.any(xv) or not np.any(ctx.mu):
        ev = InfimumEstimate(0.0, np.zeros(max(ctx.n - 1, 0)), list(range(ctx.n)),
                             False, False, 0.0, 0)
        return MembershipResult(False, ev)
    est = usp_infimum(ctx, xv)
    if est.value < 0.0:
        return MembershipResult(False, est)
    if est.certified_positive:
        return MembershipResult(True, est)
    return MembershipResult(None, est)


@dataclass
class ScanResult:
    estimate: float
    finite_or_positive: bool
    argmin_u: np.ndarray = field(default_factory=lambda: np.zeros(0))


_SCAN_OBJECTIVES = {
    "inf_norm_y": lambda qq: np.sqrt(qq.q),
    "sup_norm_umu": lambda qq: -np.sqrt(qq.m),
    "sup_abs_E": lambda qq: -np.abs(qq.e),
    "inf_D": lambda qq: np.exp(qq.logd),
}


def extremal_scan(ctx: QuantityContext, which: str, arg=None) -> ScanResult:
    """Grid + local refinement over the positive part of the unit sphere for
    the four extremal quantities (inf ||y||, sup ||u <> mu||, sup |E|, inf D).
    """
    if which not in _SCAN_OBJECTIVES:
        raise ValueError(f"unknown scan kind {which!r}")
    n = ctx.n
    xv = as_vector(arg, n) if arg is not None else ctx.mu

    def objective(us: np.ndarray) -> np.ndarray:
        return _SCAN_OBJECTIVES[which](quantities(ctx.mu, ctx.sigma.entries, xv, us))

    if which == "inf_norm_y" and not np.any(xv):
        raise ValueError("argument must be nonzero")
    if which == "inf_D" and np.any(xv == 0.0):
        raise ValueError("argument must have all components nonzero")

    # deterministic sphere grid: normalised positive lattice directions
    ticks = np.linspace(0.05, 1.0, 7 if n <= 3 else 5)
    mesh = np.stack([g.ravel() for g in np.meshgrid(*([ticks] * n), indexing="ij")], axis=1)
    mesh = mesh / np.linalg.norm(mesh, axis=1, keepdims=True)
    vals = objective(mesh)
    i = int(np.argmin(vals))
    u0 = mesh[i]

    from scipy.optimize import minimize

    def obj_log(t):
        u = np.exp(np.clip(t, -34, 34))
        return float(objective((u / np.linalg.norm(u))[None, :])[0])

    res = minimize(obj_log, np.log(u0), method="Nelder-Mead",
                   options={"maxiter": 600, "xatol": 1e-11, "fatol": 1e-13})
    val = min(float(res.fun), float(vals[i]))
    u_best = np.exp(np.clip(res.x, -34, 34))
    u_best = u_best / np.linalg.norm(u_best)

    if which in ("inf_norm_y", "inf_D"):
        estimate = val
        ok = estimate > 1e-10
    else:
        estimate = -val
        ok = estimate < 1e10
    return ScanResult(estimate, ok, u_best)

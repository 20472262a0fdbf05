"""Diamond/Hadamard matrix algebra and the pattern-matrix determinant checks.

Conventions: vectors are 1-d numpy arrays (row vectors), <x, y>_S = x S y' and
||x||_S^2 = <x, x>_S.  The diamond products are

    x <> mu    = (x_1 mu_1, ..., x_n mu_n)
    x <> Sigma = (min(x_k, x_l))_{kl} * Sigma      (entrywise product)

Oppenheim's and Hadamard's inequalities bound |u <> Sigma| / prod(u) between
|Sigma| and prod(Sigma_kk) for u in the open positive orthant, which keeps all
the derived quadratic forms well defined.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

DET_TOL = 1e-12
EIG_TOL = 1e-9
MAX_DIM = 16
SPD_RIDGE = 1e-6


class DimensionError(ValueError):
    pass


def as_vector(x, n: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if n is not None and v.size != n:
        raise DimensionError(f"dimension mismatch: expected {n}, got {v.size}")
    return v


class CovMatrix:
    """Symmetric nonnegative-definite matrix with cached determinant.

    Symmetry must be exact; asymmetric inputs are rejected rather than
    symmetrised so that caller bugs stay visible.  Nonnegative definiteness is
    enforced up to -1e-9 relative to the trace.
    """

    __slots__ = ("entries", "n", "det", "invertible", "eig_min")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n > MAX_DIM:
            raise DimensionError(f"dimension {n} exceeds supported maximum {MAX_DIM}")
        if not np.array_equal(a, a.T):
            raise ValueError("matrix is not symmetric; refusing to symmetrise")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        eig_min = float(np.linalg.eigvalsh(a)[0]) if n else 0.0
        tol = EIG_TOL * max(1.0, float(np.trace(a)))
        if eig_min < -tol:
            raise ValueError(f"matrix is not nonnegative definite (min eig {eig_min:.3e})")
        self.entries = a
        self.n = n
        self.eig_min = eig_min
        self.det = float(np.linalg.det(a))
        self.invertible = abs(self.det) > DET_TOL

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)

    def __repr__(self):
        return f"CovMatrix(n={self.n}, det={self.det:.6g})"


def _as_matrix(sigma) -> np.ndarray:
    return sigma.entries if isinstance(sigma, CovMatrix) else np.asarray(sigma, dtype=float)


def diamond_vec(x, mu) -> np.ndarray:
    """Componentwise product x <> mu."""
    xv = as_vector(x)
    mv = as_vector(mu, xv.size)
    return xv * mv


def min_matrix(x) -> np.ndarray:
    """Matrix of pairwise minima (x_k ^ x_l)."""
    xv = as_vector(x)
    return np.minimum.outer(xv, xv)


def diamond_mat(x, sigma) -> CovMatrix:
    """x <> Sigma = (min matrix of x) entrywise-times Sigma.

    Nonnegative definiteness of the result is guaranteed only for x >= 0
    (Oppenheim); negative entries trigger a warning and skip that check.
    """
    xv = as_vector(x)
    s = _as_matrix(sigma)
    if s.shape[0] != xv.size:
        raise DimensionError("dimension mismatch between vector and matrix")
    product = min_matrix(xv) * s
    if np.any(xv < 0):
        warnings.warn("diamond product with negative entries need not be a covariance matrix")
        out = CovMatrix.__new__(CovMatrix)
        out.entries = product
        out.n = xv.size
        out.eig_min = float(np.linalg.eigvalsh(product)[0])
        out.det = float(np.linalg.det(product))
        out.invertible = abs(out.det) > DET_TOL
        return out
    return CovMatrix(product)


def diamond_mat_raw(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Unchecked x <> Sigma for hot loops; caller guarantees x >= 0.  A batch
    x of shape (k, n) gives the k matrices, shape (k, n, n)."""
    return np.minimum(x[..., :, None], x[..., None, :]) * sigma


class OppenheimRatio(NamedTuple):
    ratio: float
    lower: float
    upper: float


def oppenheim_ratio(sigma: CovMatrix, u) -> OppenheimRatio:
    """|u <> Sigma| / prod(u) together with its Oppenheim/Hadamard bounds."""
    uv = as_vector(u, sigma.n)
    if np.any(uv <= 0):
        raise ValueError("u must have strictly positive components")
    if not sigma.invertible:
        raise ValueError("Sigma must be invertible")
    ratio = float(np.linalg.det(diamond_mat_raw(uv, sigma.entries)) / np.prod(uv))
    lower = sigma.det
    upper = float(np.prod(np.diag(sigma.entries)))
    slack = 1e-10
    if ratio < lower * (1.0 - slack) - slack or ratio > upper * (1.0 + slack) + slack:
        raise ArithmeticError(
            f"Oppenheim/Hadamard bounds violated: {lower} <= {ratio} <= {upper}")
    return OppenheimRatio(ratio, lower, upper)


# -- pattern matrices -------------------------------------------------------

def xi_matrix(x) -> np.ndarray:
    """The (n+1) x (n+1) matrix with diagonal 2, row k < n+1 filled with x_k
    off the diagonal and the last row filled with ones."""
    xv = as_vector(x)
    n = xv.size
    m = np.empty((n + 1, n + 1))
    for k in range(n):
        m[k, :] = xv[k]
    m[n, :] = 1.0
    np.fill_diagonal(m, 2.0)
    return m


def xi_det(x) -> float:
    """Determinant of the pattern matrix; a degree-n polynomial, affine in
    each coordinate."""
    return float(np.linalg.det(xi_matrix(x)))


def _int_det(rows: list[list[int]]):
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    from fractions import Fraction
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    assert det.denominator == 1
    return int(det)


def xi_corner_set(n: int) -> list[tuple[int, ...]]:
    """Zero-prefix/one-suffix corners (plus 0 and e) that carry the extrema of
    the pattern determinant over the unit box."""
    corners = [tuple([0] * k + [1] * (n - k)) for k in range(n + 1)]
    return corners


def xi_extrema(n: int) -> tuple[int, int]:
    """Exact (min, max) of the pattern determinant over [0,1]^n.

    Corner enumeration suffices: the determinant is affine in each coordinate,
    permutation invariant and harmonic, so the extrema sit on the listed
    corner set.  Values are exact integers via a fraction-free determinant.
    """
    if not 1 <= n <= 8:
        raise ValueError("corner enumeration supported for 1 <= n <= 8")
    vals = []
    for corner in xi_corner_set(n):
        m = np.asarray(xi_matrix(np.asarray(corner, dtype=float)), dtype=float)
        vals.append(_int_det([[int(round(v)) for v in row] for row in m]))
    return min(vals), max(vals)


def upsilon_matrix(v) -> CovMatrix:
    """Symmetric matrix with diagonal 2 and (k,l) entry 1 + prod(v_k..v_{l-1}),
    that is Delta + Delta'; nonnegative definite for v in [0,1]^(n-1)."""
    delta = delta_matrix(v)
    return CovMatrix(delta + delta.T)


def theta_matrix(u) -> CovMatrix:
    """Symmetric matrix with entries t(u_k/u_l), t(x) = (1 ^ x) + (1 ^ 1/x)."""
    uv = as_vector(u)
    if np.any(uv <= 0):
        raise ValueError("u must have strictly positive components")
    ratio = uv[:, None] / uv[None, :]
    m = np.minimum(1.0, ratio) + np.minimum(1.0, 1.0 / ratio)
    m = 0.5 * (m + m.T)
    return CovMatrix(m)


def delta_matrix(v) -> np.ndarray:
    """Lower triangle of ones, upper (k,l) entry prod(v_k..v_{l-1}).

    With v_k = u_k / u_{k+1} for ascending u this is (u <> Sigma) diag(1/u)
    divided entrywise by Sigma, and stays invertible against any invertible
    covariance matrix for v in [0,1]^(n-1).
    """
    vv = as_vector(v)
    if np.any((vv < 0) | (vv > 1)):
        raise ValueError("v must lie in [0, 1]^(n-1)")
    return delta_matrix_batch(vv[None, :])[0]


def delta_matrix_batch(vs: np.ndarray) -> np.ndarray:
    """delta_matrix over a batch of ratio vectors, shape (m, n-1) -> (m, n, n)."""
    vs = np.asarray(vs, dtype=float)
    m, nm1 = vs.shape
    n = nm1 + 1
    out = np.ones((m, n, n))
    for i in range(n):
        prod = np.ones(m)
        for j in range(i + 1, n):
            prod = prod * vs[:, j - 1]
            out[:, i, j] = prod
    return out


def sigma_sym(u, sigma: CovMatrix) -> CovMatrix:
    """Symmetrisation of (u <> Sigma) diag(1/u); positive definite for u > 0
    and invertible Sigma, since twice this matrix is theta_matrix(u) * Sigma."""
    uv = as_vector(u, sigma.n)
    if np.any(uv <= 0):
        raise ValueError("u must have strictly positive components")
    m = diamond_mat_raw(uv, sigma.entries) / uv[None, :]
    return CovMatrix(0.5 * (m + m.T))


def random_spd(rng: np.random.Generator, n: int, *, min_det: float = 0.0) -> CovMatrix:
    """Random SPD matrix A A' + SPD_RIDGE I, rescaled to trace n; rejection on a
    minimum determinant when requested."""
    while True:
        a = rng.normal(size=(n, n))
        m = a @ a.T
        m = 0.5 * (m + m.T) + SPD_RIDGE * np.eye(n)
        m = m * (n / np.trace(m))
        m = 0.5 * (m + m.T)
        cov = CovMatrix(m)
        if cov.det >= min_det:
            return cov

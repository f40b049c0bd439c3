"""Dense linear algebra helpers for small symmetric positive definite systems.

All matrices in this package are tiny (single-digit dimensions), dense and
real.  Symmetric inputs are validated against a relative asymmetry tolerance
and then symmetrized (averaged with their transpose) to absorb round-off;
positive definiteness is always decided by an attempted Cholesky
factorization, which is the gate every downstream model check relies on.
"""

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, NotSymmetric, RankDeficient

#: Relative tolerance for the symmetry check of symmetric-matrix inputs.
SYMMETRY_RTOL = 1e-12


def as_sym(m, name="matrix"):
    """Validate and symmetrize a square matrix.

    Raises NotSymmetric when the asymmetry exceeds ``SYMMETRY_RTOL``
    relative to the largest entry.  Returns ``(m + m.T) / 2``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"{name} must be square, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > SYMMETRY_RTOL * scale:
        raise NotSymmetric(
            f"{name} is not symmetric: max |m - m^T| = {asym:.3e} "
            f"(tolerance {SYMMETRY_RTOL:.1e} relative)"
        )
    return 0.5 * (m + m.T)


def cholesky(m, name="matrix"):
    """Lower-triangular L with m = L L^T; raises NotPositiveDefinite."""
    m = as_sym(m, name)
    try:
        return scipy.linalg.cholesky(m, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite") from exc


def is_positive_definite(m):
    """True iff the (symmetrized) matrix admits a Cholesky factorization."""
    try:
        cholesky(m)
    except (NotPositiveDefinite, NotSymmetric):
        return False
    return True


def inverse(m, name="matrix"):
    """Inverse of a symmetric positive definite matrix, symmetrized."""
    low = cholesky(m, name)
    inv = scipy.linalg.cho_solve((low, True), np.eye(low.shape[0]))
    return 0.5 * (inv + inv.T)


def log_determinant(m, name="matrix"):
    """log det of a symmetric positive definite matrix via Cholesky."""
    low = cholesky(m, name)
    return 2.0 * float(np.sum(np.log(np.diag(low))))


def left_pseudo_inverse(a):
    """Left pseudo-inverse (a^T a)^{-1} a^T of a full-column-rank matrix.

    For invertible square ``a`` this equals the ordinary inverse.  Raises
    RankDeficient when ``a^T a`` is singular (column rank deficiency).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise RankDeficient(f"expected a matrix, got shape {a.shape}")
    gram = a.T @ a
    try:
        low = scipy.linalg.cholesky(0.5 * (gram + gram.T), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficient("matrix does not have full column rank") from exc
    return scipy.linalg.cho_solve((low, True), a.T)


def solve_spd(m, b, name="matrix"):
    """Solve m x = b for symmetric positive definite m."""
    low = cholesky(m, name)
    return scipy.linalg.cho_solve((low, True), np.asarray(b, dtype=float))

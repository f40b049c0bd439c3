"""Dense linear algebra helpers for small symmetric positive definite systems.

All matrices in this package are tiny (single-digit dimensions), dense and
real.  Symmetric inputs are validated against a relative asymmetry tolerance
and then symmetrized (averaged with their transpose) to absorb round-off;
positive definiteness is always decided by an attempted Cholesky
factorization, which is the gate every downstream model check relies on.
"""

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

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
    """Lower-triangular L with m = L L^T, by one LAPACK dpotrf call.

    Raises ValueError for a non-finite entry (checked first, as
    ``scipy.linalg.cholesky``'s ``check_finite`` did), NotSymmetric as
    ``as_sym`` does and NotPositiveDefinite when the factorization fails.
    """
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    m = as_sym(m, name)
    low, info = scipy.linalg.lapack.dpotrf(m, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(f"{name} is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf argument {-info} is invalid")
    return low


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

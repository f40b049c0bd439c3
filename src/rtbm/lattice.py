"""Lattice machinery backing the theta summation kernel.

A lattice is represented by a real (g, g) basis matrix whose *rows* are the
basis vectors; for a quadratic form Omega = L L^T the relevant lattice is
generated by the rows of the Cholesky factor L.  The module provides

  * ``Form``, where a positive definite Omega is factored and its log det,
    inverse, shortest vector and Poisson-dual form are derived, once each,
  * LLL basis reduction (delta = 0.75 by default),
  * the exact shortest-vector length: by Lagrange-Gauss reduction for
    g <= 2, else scanned from the LLL-reduced basis, and
  * exhaustive enumeration of integer points inside an ellipsoid
    (n - c)^T Omega (n - c) <= R^2 by recursive one-dimensional sections.
"""

import functools
import math

import numpy as np
import scipy.linalg

from .errors import DegenerateBasis, PointBudgetExceeded
from .numerics import cholesky

#: Default Lovász parameter for LLL reduction.
LLL_DELTA = 0.75

#: Default cap on enumerated points; exceeding it raises instead of truncating,
#: because silent truncation would invalidate the certified theta tail bound.
POINT_BUDGET = 10**7


def _gram_schmidt(basis):
    """Gram-Schmidt data (orthogonal vectors and mu coefficients) of rows."""
    g = basis.shape[0]
    ortho = np.zeros_like(basis)
    mu = np.zeros((g, g))
    for i in range(g):
        ortho[i] = basis[i]
        for j in range(i):
            denom = ortho[j] @ ortho[j]
            if denom <= 0.0:
                raise DegenerateBasis("Gram determinant underflow in Gram-Schmidt")
            mu[i, j] = (basis[i] @ ortho[j]) / denom
            ortho[i] = ortho[i] - mu[i, j] * ortho[j]
    return ortho, mu


def _checked_basis(basis):
    """``basis`` as a float array; DegenerateBasis unless square and independent."""
    b = np.array(basis, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DegenerateBasis(f"basis must be square, got shape {b.shape}")
    g = b.shape[0]
    flat = b.ravel().tolist()  # Python floats: a 2x2 check in a few operations
    if not all(map(math.isfinite, flat)) or not any(flat):
        raise DegenerateBasis("zero or non-finite basis")
    if g > 2:
        det = np.linalg.det(b)
    else:
        det = flat[0] if g == 1 else flat[0] * flat[3] - flat[1] * flat[2]
    if abs(det) < 1e-12 * max(map(abs, flat)) ** g:
        raise DegenerateBasis("basis vectors are linearly dependent")
    return b


def lll_reduce(basis, delta=LLL_DELTA):
    """LLL-reduce a lattice basis given as rows of a (g, g) matrix.

    The output spans the same lattice, is size-reduced (|mu_ij| <= 1/2) and
    satisfies the Lovász condition with the given delta in (0.25, 1).
    """
    if not 0.25 < delta < 1.0:
        raise ValueError(f"delta must lie in (0.25, 1), got {delta}")
    b = _checked_basis(basis)
    g = b.shape[0]
    ortho, mu = _gram_schmidt(b)
    k = 1
    while k < g:
        # Size-reduce b_k against all predecessors, updating mu as we go;
        # the Gram-Schmidt vectors are invariant under these subtractions.
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                b[k] -= q * b[j]
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
        lhs = ortho[k] @ ortho[k]
        rhs = (delta - mu[k, k - 1] ** 2) * (ortho[k - 1] @ ortho[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[[k, k - 1]] = b[[k - 1, k]]
            ortho, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
    return b


@functools.lru_cache(maxsize=256)
def _coefficient_box(half):
    """Integer vectors c != 0 with |c_i| <= half[i], one of each pair +-c.

    Rows come in lexicographic order, so the first half of the box holds
    exactly one of c and -c for every c != 0 and stops before the origin.
    """
    half = np.array(half, dtype=np.int64)
    box = np.indices(2 * half + 1).reshape(half.size, -1).T - half
    return box[: box.shape[0] // 2].astype(float)


def _gauss_shortest(b):
    """lambda_1 of the lattice of a checked 2x2 basis by Lagrange-Gauss reduction.

    Reduces the pair (u, w) of lattice vectors, each kept as its two
    coordinates and its integer coefficients over the rows of ``b``, until
    |u . w| <= |u|^2 / 2 and |u| <= |w|; then u is a shortest nonzero
    vector.  Its length is evaluated afresh from its coefficients, so it is
    the length of an actual lattice vector.
    """
    (p, q), (r, s) = b.tolist()
    u, w = [p, q, 1, 0], [r, s, 0, 1]
    if r * r + s * s < p * p + q * q:
        u, w = w, u
    while True:
        u_sq = u[0] * u[0] + u[1] * u[1]
        k = round((u[0] * w[0] + u[1] * w[1]) / u_sq)
        w = [wi - k * ui for wi, ui in zip(w, u)]
        if w[0] * w[0] + w[1] * w[1] >= u_sq:
            break
        u, w = w, u
    return math.hypot(u[2] * p + u[3] * r, u[2] * q + u[3] * s)


def shortest_vector_estimate(basis):
    """Exact length lambda_1 of the shortest nonzero lattice vector.

    The theta tail bound counts lattice points with balls of radius
    rho/2, so it needs rho <= lambda_1; the shortest row of an LLL-reduced
    basis only bounds lambda_1 from above.  That row length rho_LLL limits
    the search: a vector v = c B with |v| <= rho_LLL has coefficients
    |c_i| = |v . (B^{-1})_{:, i}| <= rho_LLL |(B^{-1})_{:, i}|, and in a
    reduced basis this box is a few integers wide, so it is scanned whole.
    For g <= 2 Lagrange-Gauss reduction gives lambda_1 directly.
    """
    if np.shape(basis) in ((1, 1), (2, 2)):
        b = _checked_basis(basis)
        return abs(float(b[0, 0])) if b.shape[0] == 1 else _gauss_shortest(b)
    reduced = lll_reduce(basis)  # checks the basis
    gram = reduced @ reduced.T
    rho_sq = float(gram.diagonal().min())
    # |(B^{-1})_{:, i}|^2 is the i-th diagonal entry of gram^{-1}
    half = np.sqrt(rho_sq * np.linalg.inv(gram).diagonal()) * (1.0 + 1e-9)
    box = _coefficient_box(tuple(half.astype(np.int64).tolist()))
    return math.sqrt(float(((box @ gram) * box).sum(axis=1).min(initial=rho_sq)))


class Form:
    """A positive definite matrix Omega and everything derived from it.

    ``matrix`` is Omega (symmetrized) and ``low`` its lower Cholesky factor.
    ``log_det``, ``inverse``, ``rho`` (lambda_1 of the lattice spanned by the
    rows of ``low``) and ``dual`` (the Form of 4 pi^2 Omega^{-1}) are computed
    on first use and kept.  A given ``low`` is trusted, and ``matrix`` with
    it.  Both arrays are read-only.
    """

    def __init__(self, matrix, low=None, name="omega"):
        if low is None:
            low = cholesky(matrix, name)  # checks symmetry and definiteness
            matrix = np.asarray(matrix, dtype=float)
            matrix = 0.5 * (matrix + matrix.T)
        for arr in (matrix, low):
            arr.setflags(write=False)
        self.matrix = matrix
        self.low = low

    @classmethod
    def of(cls, omega, name="omega"):
        """``omega`` itself when it is a Form, else the Form of that matrix."""
        return omega if isinstance(omega, cls) else cls(omega, name=name)

    @functools.cached_property
    def log_det(self):
        return 2.0 * float(np.sum(np.log(np.diag(self.low))))

    def solve(self, b):
        """Omega^{-1} b, column by column for a matrix ``b``."""
        return scipy.linalg.cho_solve((self.low, True), np.asarray(b, dtype=float))

    @functools.cached_property
    def inverse(self):
        """Omega^{-1}, symmetrized."""
        low_inv = scipy.linalg.solve_triangular(self.low, np.eye(self.low.shape[0]), lower=True)
        inv = low_inv.T @ low_inv
        return 0.5 * (inv + inv.T)

    @functools.cached_property
    def rho(self):
        return shortest_vector_estimate(self.low)

    @functools.cached_property
    def dual(self):
        return Form(4.0 * math.pi**2 * self.inverse, name="dual form")


def enumerate_ellipsoid(form, center, radius, budget=POINT_BUDGET):
    """All integer points n with (n - center)^T Omega (n - center) <= radius^2.

    ``form`` is Omega or its ``Form``.  With Omega = L L^T, the last
    coordinate is fixed over its admissible integer interval, recursing on
    the remaining section one dimension lower; the innermost level emits a
    contiguous integer range.  Returns the (N, g) integer array of exactly
    the solution set (exhaustive, distinct, in no promised order).

    Raises PointBudgetExceeded when the count passes ``budget``, and
    ValueError unless the radius is positive and finite and the center finite.
    """
    form = Form.of(form, "form")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    g = form.matrix.shape[0]
    if center.shape != (g,):
        raise ValueError(f"center must have shape ({g},), got {center.shape}")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not np.isfinite(center).all():
        raise ValueError(f"center must be finite, got {center}")
    upper = form.low.T  # (n-c)^T Omega (n-c) = ||U (n-c)||^2

    points = []
    count = [0]
    prefix = np.zeros(g, dtype=np.int64)

    def recurse(i, budget_sq, shift):
        # shift[j] = sum_{l > i} U[j, l] (n_l - c_l) for j <= i
        u_ii = upper[i, i]
        half = np.sqrt(budget_sq) if budget_sq > 0.0 else 0.0
        lo = int(np.ceil(center[i] + (-half - shift[i]) / u_ii))
        hi = int(np.floor(center[i] + (half - shift[i]) / u_ii))
        if hi < lo:
            return
        if i == 0:
            block = np.arange(lo, hi + 1, dtype=np.int64)
            count[0] += block.size
            if count[0] > budget:
                raise PointBudgetExceeded(
                    f"ellipsoid enumeration passed {budget} points"
                )
            rows = np.empty((block.size, g), dtype=np.int64)
            rows[:, 0] = block
            rows[:, 1:] = prefix[1:]
            points.append(rows)
            return
        for n_i in range(lo, hi + 1):
            prefix[i] = n_i
            step = u_ii * (n_i - center[i]) + shift[i]
            rest = budget_sq - step * step
            if rest < 0.0:
                continue
            recurse(i - 1, rest, shift + upper[:, i] * (n_i - center[i]))

    # Recurse with a hair of slack, then filter on the exact quadratic
    # predicate, so boundary membership is decided by one code path only.
    r_sq = radius * radius
    recurse(g - 1, r_sq * (1.0 + 1e-12) + 1e-300, np.zeros(g))
    if not points:
        return np.empty((0, g), dtype=np.int64)
    pts = np.concatenate(points, axis=0)
    diff = pts - center
    return pts[np.einsum("ij,jk,ik->i", diff, form.matrix, diff) <= r_sq]

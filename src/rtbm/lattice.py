"""Lattice machinery backing the theta summation kernel.

A lattice is represented by a real (g, g) basis matrix whose *rows* are the
basis vectors; for a quadratic form Omega = L L^T the relevant lattice is
generated by the rows of the Cholesky factor L.  The module provides

  * ``Form``, where a positive definite Omega is factored and its log det,
    inverse, shortest vector and Poisson-dual form are derived, once each;
    the dual is factored from L^{-1}, not again,
  * LLL basis reduction (delta = 0.75 by default),
  * the exact shortest-vector length: by Lagrange-Gauss reduction for
    g <= 2, else scanned from the LLL-reduced basis, and
  * exhaustive enumeration of integer points inside an ellipsoid
    (n - c)^T Omega (n - c) <= R^2 by recursive one-dimensional sections.

The dimensions here are tiny (g <= 4 in practice) and a theta evaluation
often sums only a few points, so the fixed cost of each call matters more
than its per-point cost.  The LLL reduction and the enumeration recursion
therefore run on lists of Python floats, which cost a fraction of numpy
scalars and of numpy calls on 3x3 arrays.  The enumeration builds its
output array once, in numpy, from one record per innermost range.
"""

import functools
import math
import operator

import numpy as np
import scipy.linalg.lapack

from .errors import DegenerateBasis, PointBudgetExceeded
from .numerics import cholesky

#: Default Lovász parameter for LLL reduction.
LLL_DELTA = 0.75

#: Default cap on enumerated points; exceeding it raises instead of truncating,
#: because silent truncation would invalidate the certified theta tail bound.
POINT_BUDGET = 10**7


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _gram_schmidt(basis):
    """Gram-Schmidt vectors and mu coefficients of the rows of a list of lists."""
    g = len(basis)
    ortho = []
    mu = [[0.0] * g for _ in range(g)]
    for i, row in enumerate(basis):
        vec = row
        for j, o in enumerate(ortho):
            denom = _dot(o, o)
            if denom <= 0.0:
                raise DegenerateBasis("Gram determinant underflow in Gram-Schmidt")
            m = mu[i][j] = _dot(row, o) / denom
            vec = [v - m * x for v, x in zip(vec, o)]
        ortho.append(vec)
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
    b = _checked_basis(basis).tolist()
    g = len(b)
    ortho, mu = _gram_schmidt(b)
    k = 1
    while k < g:
        # Size-reduce b_k against all predecessors, updating mu as we go;
        # the Gram-Schmidt vectors are invariant under these subtractions.
        mu_k = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mu_k[j])
            if q != 0:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for l in range(j):
                    mu_k[l] -= q * mu[j][l]
                mu_k[j] -= q
        lhs = _dot(ortho[k], ortho[k])
        rhs = (delta - mu_k[k - 1] ** 2) * _dot(ortho[k - 1], ortho[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            ortho, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
    return np.array(b)


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


class _derived:
    """``functools.cached_property`` without its lock.

    Before Python 3.12 the first read of a cached_property takes a lock
    shared by every instance, about a microsecond, and each fresh training
    candidate reads eight of them.  A Form is not shared between threads
    while it is being derived, and a race would only derive a value twice.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Form:
    """A positive definite matrix Omega and everything derived from it.

    ``matrix`` is Omega (symmetrized) and ``low`` its lower Cholesky factor
    L.  ``log_det``, ``low_inv`` (L^{-1}), ``inverse``, ``rho`` (lambda_1 of
    the lattice spanned by the rows of ``low``) and ``dual`` (the Form of
    4 pi^2 Omega^{-1} in reversed coordinates, factored from L^{-1}) are
    computed on first use and kept, so a Form is factored at most once.  A
    given ``low`` is trusted, and ``matrix`` with it.  Both arrays are
    read-only.  ``memo`` keeps what other modules derive from the Form under
    their own keys: ``theta`` keeps its dual k-sets there.
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
        self.memo = {}

    @classmethod
    def of(cls, omega, name="omega"):
        """``omega`` itself when it is a Form, else the Form of that matrix."""
        return omega if isinstance(omega, cls) else cls(omega, name=name)

    @_derived
    def log_det(self):
        """log det Omega = 2 sum_i log L_ii, on Python floats (g is tiny)."""
        return 2.0 * sum(map(math.log, self.low.diagonal().tolist()))

    def solve(self, b):
        """Omega^{-1} b, column by column for a matrix ``b``.

        LAPACK dpotrs on the cached factor: the routine ``cho_solve`` wraps,
        without its finiteness scans.  ``b`` must be finite; every caller
        passes a validated model's parameters or input already checked.
        """
        x, info = scipy.linalg.lapack.dpotrs(self.low, np.asarray(b, dtype=float), lower=1)
        if info != 0:
            raise ValueError(f"dpotrs argument {-info} is invalid")
        return x

    @_derived
    def low_inv(self):
        """L^{-1}, by one triangular inverse (LAPACK dtrtri, no input checks)."""
        low_inv, info = scipy.linalg.lapack.dtrtri(self.low, lower=1)
        if info != 0:
            raise DegenerateBasis(f"singular factor (dtrtri info {info})")
        return low_inv

    @_derived
    def inverse(self):
        """Omega^{-1} = L^{-T} L^{-1}, symmetrized."""
        inv = self.low_inv.T @ self.low_inv
        return 0.5 * (inv + inv.T)

    @_derived
    def rho(self):
        return shortest_vector_estimate(self.low)

    @_derived
    def dual(self):
        """The Form of J 4 pi^2 Omega^{-1} J, J reversing the coordinates.

        4 pi^2 Omega^{-1} = (2 pi L^{-T}) (2 pi L^{-T})^T with L^{-T} upper
        triangular, so in reversed coordinates 2 pi J L^{-T} J is its lower
        factor and nothing is factored again.  Its lattice is the rows of
        2 pi L^{-T} with their coordinates reversed, so ``rho`` is that of
        4 pi^2 Omega^{-1}; a point k' of its ellipsoids is k = J k'.
        """
        flip = slice(None, None, -1)
        matrix = np.ascontiguousarray((4.0 * math.pi**2 * self.inverse)[flip, flip])
        low = np.ascontiguousarray((2.0 * math.pi * self.low_inv.T)[flip, flip])
        return Form(matrix, low=low, name="dual form")


def enumerate_ellipsoid(form, center, radius, budget=POINT_BUDGET, half=False):
    """All integer points n with (n - center)^T Omega (n - center) <= radius^2.

    ``form`` is Omega or its ``Form``.  With Omega = L L^T, the last
    coordinate is fixed over its admissible integer interval, recursing on
    the remaining section one dimension lower; the innermost level emits a
    contiguous integer range.  Returns the (N, g) integer array of exactly
    the solution set (exhaustive, distinct, in no promised order).

    ``half`` asks, for center 0, for one point of each pair +-n != 0: the
    one whose last nonzero coordinate, the outermost one the recursion
    fixes, is positive.  The recursion then skips the negative branches, as
    the set is symmetric bit for bit (negating a point negates every shift
    and step exactly).  The budget still counts the whole ellipsoid, 2 N + 1
    points, so the half set raises exactly where the full one would.

    Raises PointBudgetExceeded when the count passes ``budget``, and
    ValueError unless the radius is positive and finite and the center finite
    (and 0 for ``half``).
    """
    form = Form.of(form, "form")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    g = form.matrix.shape[0]
    if center.shape != (g,):
        raise ValueError(f"center must have shape ({g},), got {center.shape}")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    c = center.tolist()
    if not all(map(math.isfinite, c)):
        raise ValueError(f"center must be finite, got {center}")
    if half and any(c):
        raise ValueError(f"a half set needs center 0, got {center}")
    limit = budget
    if half:  # its N points stand for 2 N + 1, the origin always among them
        limit = (budget - 1) // 2
        if limit < 0:
            raise PointBudgetExceeded(f"ellipsoid enumeration passed {budget} points")
    # (n-c)^T Omega (n-c) = ||L^T (n-c)||^2, and row i of L is column i of
    # L^T; the recursion runs on Python floats (see the module docstring).
    low = form.low.tolist()
    heads = [row[:i] for i, row in enumerate(low)]  # U[:i, i] of each level i
    ranges = []  # per innermost range: lo minus the points before it, n_1..n_{g-1}
    sizes = []
    count = 0
    prefix = [0] * g  # prefix[0] holds the range's lo minus the running count

    def recurse(i, budget_sq, shift, outer_zero):
        # shift[j] = sum_{l > i} U[j, l] (n_l - c_l) for j <= i, U = L^T;
        # outer_zero: a half set whose coordinates above i are all 0
        nonlocal count
        u_ii = low[i][i]
        reach = math.sqrt(budget_sq) if budget_sq > 0.0 else 0.0
        lo = math.ceil(c[i] + (-reach - shift[i]) / u_ii)
        hi = math.floor(c[i] + (reach - shift[i]) / u_ii)
        if outer_zero:  # n_i > 0, or n_i = 0 and the rest of a half set below
            lo = max(lo, 1 if i == 0 else 0)
        if hi < lo:
            return
        if i == 0:
            prefix[0] = lo - count
            ranges.extend(prefix)
            sizes.append(hi + 1 - lo)
            count += sizes[-1]
            if count > limit:
                raise PointBudgetExceeded(
                    f"ellipsoid enumeration passed {budget} points"
                )
            return
        for n_i in range(lo, hi + 1):
            prefix[i] = n_i
            d = n_i - c[i]
            step = u_ii * d + shift[i]
            rest = budget_sq - step * step
            if rest < 0.0:
                continue
            recurse(i - 1, rest, [s + u * d for s, u in zip(shift, heads[i])],
                    outer_zero and n_i == 0)

    # Recurse with a hair of slack, then filter on the exact quadratic
    # predicate, so boundary membership is decided by one code path only.
    r_sq = radius * radius
    recurse(g - 1, r_sq * (1.0 + 1e-12) + 1e-300, [0.0] * g, half)
    if not sizes:
        return np.empty((0, g), dtype=np.int64)
    # One column per point, repeated from its range's entry; adding the
    # running index turns the first row into the range itself.
    table = np.array(ranges, dtype=np.int64).reshape(-1, g).T
    pts = table.repeat(sizes, axis=1)
    pts[0] += np.arange(count)
    pts = pts.T
    diff = pts - center
    return pts[np.einsum("ij,jk,ik->i", diff, form.matrix, diff) <= r_sq]

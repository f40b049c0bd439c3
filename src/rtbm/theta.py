"""Certified-error evaluation of the rescaled Riemann-Theta function.

The rescaled theta function evaluated here is the absolutely convergent
lattice sum

    theta_tilde(z | Omega) = sum_{n in Z^g} exp(-1/2 n^T Omega n + n^T z),

with Omega real symmetric positive definite and z complex.  Only finitely
many terms matter for a given accuracy: the real exponent is maximized at
the continuous point c = Omega^{-1} Re(z), and the terms decay like a
Gaussian in the Omega-distance from c.  The evaluator sums exactly the
integer points inside the ellipsoid (n - c)^T Omega (n - c) <= R^2, with R
chosen so that a rigorous bound on the omitted tail is below the requested
epsilon.  The point set depends only on Omega and the ellipsoid center, so
one enumeration can serve a whole batch of arguments (uniform
approximation), and the same point set feeds the value, the gradient and
the second-moment sums.

Tail bound.  Writing Omega = L L^T, the terms beyond radius R form a
Gaussian sum over the shifted lattice {L^T (n - c)} outside the ball of
radius R.  With rho the shortest nonzero vector of the lattice L^T Z^g,
balls of radius rho/2 around distinct points are disjoint, which bounds
the number of points within distance r by (1 + 2r/rho)^g; integrating the
Gaussian against that count gives

    tail(R) <= sum_{k=0..g} C(g,k) (2/rho)^k 2^{k/2} Gamma(k/2+1, R^2/2),

an upper incomplete gamma expression driven by rho.  The bound is valid for
every R > 0, decreasing in R, and decreasing in rho, so coarser lattices
never require a larger radius.

Scaling convention.  Values are returned as (log_magnitude, phase); the
certified ``tail_bound`` is the absolute error of the *reduced* sum, i.e.
of theta_tilde scaled by exp(-max real exponent).  For real z the reduced
sum is >= 1, so the bound is also a relative error bound on the value.

Dual form.  Poisson summation (Jacobi's imaginary transformation) gives,
for real x,

    theta_tilde(x | Omega) = (2 pi)^{g/2} det(Omega)^{-1/2}
                             * exp(1/2 x^T Omega^{-1} x)
                             * sum_{k in Z^g} exp(-2 pi^2 k^T Omega^{-1} k)
                                              cos(2 pi k^T Omega^{-1} x).

The dual weights are the Gaussian terms of the form A = 4 pi^2 Omega^{-1}
centered at the origin, so one k-set serves every argument with no shift
or enlargement.  Point counts scale as sqrt(det Omega) / (2 pi)^g against
1 / sqrt(det Omega) for the primal sum, so ``theta_tilde_batch`` uses the
dual for real arguments when log det Omega < g log(2 pi).  Certificate: the
k-set is the ellipsoid of A at the radius where the tail bound above, with
rho the shortest vector of the A-lattice, is tail <= eps/2.  With
``others`` the enumerated k != 0 weights plus that tail, the dual sum is at
least 1 - others; the form is used only when others <= 1/2, and the
returned bound tail / (1 - others) <= eps is then a relative error bound,
as for the primal sum at real z.  Otherwise the primal sum runs.  The
point sets behind moments and sampling (``_theta_sum``) stay primal.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from . import lattice
from .errors import PointBudgetExceeded
from .numerics import as_sym, cholesky, solve_spd

#: Default requested tail error for theta evaluations.
DEFAULT_EPS = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ThetaValue:
    """One theta evaluation in log-magnitude/phase form.

    value = exp(log_magnitude) * exp(i * phase); ``tail_bound`` is the
    certified absolute error of the reduced (max-exponent-rescaled) sum and
    never exceeds the requested epsilon; ``radius`` and ``point_count``
    describe the ellipsoid actually summed.
    """

    log_magnitude: float
    phase: float
    tail_bound: float
    radius: float
    point_count: int

    @property
    def log_complex(self):
        """log theta as a complex number (principal phase branch)."""
        return complex(self.log_magnitude, self.phase)

    @property
    def value(self):
        """theta as a complex float; may overflow for large arguments."""
        return np.exp(self.log_magnitude) * np.exp(1j * self.phase)


class _TailBound:
    """Certified reduced-tail bound for one (dimension, rho) pair.

    Precomputes the per-order coefficients so that repeated evaluations
    (radius bisection) cost one vectorized incomplete-gamma call each.
    """

    def __init__(self, g, rho):
        if rho <= 0.0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.g = g
        ks = np.arange(g + 1, dtype=float)
        self.s = 0.5 * ks + 1.0
        self.log_gamma_s = scipy.special.gammaln(self.s)
        self.log_coeff = (
            np.log([math.comb(g, k) for k in range(g + 1)])
            + ks * math.log(2.0 / rho)
            + 0.5 * ks * math.log(2.0)
        )

    def log_bound(self, radius):
        x = max(0.5 * radius * radius, 1e-300)
        reg = scipy.special.gammaincc(self.s, x)
        safe = np.where(reg > 0.0, reg, 1.0)
        exact = np.log(safe) + self.log_gamma_s
        # Underflow fallback: Gamma(s, x) <= 2 x^{s-1} e^{-x} for x >= 2(s-1).
        capped = math.log(2.0) + (self.s - 1.0) * math.log(x) - x
        terms = self.log_coeff + np.where(reg > 0.0, exact, capped)
        m = terms.max()
        return float(m + math.log(np.sum(np.exp(terms - m))))

    def solve_radius(self, log_epsilon):
        """Smallest radius (to ~0.1%) with log bound <= log_epsilon."""
        lo, hi = 0.0, 4.0
        while self.log_bound(hi) > log_epsilon:
            lo, hi = hi, 2.0 * hi
            if hi > 1e9:
                raise ValueError("tail bound cannot reach requested epsilon")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.log_bound(mid) > log_epsilon:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-3 * hi:
                break
        return hi


def log_tail_bound(g, rho, radius):
    """log of the certified bound on the reduced theta tail beyond ``radius``."""
    return _TailBound(g, rho).log_bound(radius)


def radius_for_epsilon(omega, epsilon, rho):
    """Smallest radius whose certified tail bound is below ``epsilon``.

    ``rho`` must be a lower bound on the shortest nonzero vector of the
    lattice spanned by the rows of the Cholesky factor of omega.  The
    result is monotone non-increasing in epsilon and never increases when
    the lattice gets coarser (e.g. omega -> 4 omega).
    """
    omega = as_sym(omega, "omega")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    g = omega.shape[0]
    return _TailBound(g, rho).solve_radius(math.log(epsilon))


def _lattice_rho(omega):
    """Shortest nonzero vector length of the Cholesky-factor lattice of omega."""
    low = cholesky(omega, "omega")
    return lattice.shortest_vector_estimate(low)


@dataclass(frozen=True)
class ThetaSum:
    """Value of one theta evaluation together with its summation data.

    ``points`` are the enumerated integer vectors, ``log_weights`` their real
    exponents -1/2 n^T Omega n + n^T Re(z); the reduced sum and the maximum
    exponent reconstruct the value.  Shared by the discrete sampler and the
    hidden-sector moments so that certification and sampling use one point
    set.
    """

    value: ThetaValue
    points: np.ndarray
    log_weights: np.ndarray
    max_log_weight: float
    reduced_sum: complex
    center: np.ndarray


def _theta_sum(z, omega, eps=DEFAULT_EPS, budget=lattice.POINT_BUDGET):
    """Evaluate theta_tilde and keep the enumerated point data."""
    omega = as_sym(omega, "omega")
    g = omega.shape[0]
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (g,):
        raise ValueError(f"z must have shape ({g},), got {z.shape}")
    if eps <= 0.0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    x, y = z.real, z.imag

    rho = _lattice_rho(omega)
    c = solve_spd(omega, x, "omega")
    # Upper bound on the gap between the continuous exponent maximum and the
    # best integer exponent; folded into the radius so the certified bound
    # stays below eps on the reduced-sum scale.
    e_cont = 0.5 * float(x @ c)
    n0 = np.round(c)
    e_round = float(-0.5 * n0 @ omega @ n0 + n0 @ x)
    gap_ub = max(e_cont - e_round, 0.0)
    bound = _TailBound(g, rho)
    radius = bound.solve_radius(math.log(eps) - gap_ub)

    pts = lattice.enumerate_ellipsoid(omega, c, radius, budget=budget).points
    log_w = -0.5 * np.einsum("ij,jk,ik->i", pts, omega, pts) + pts @ x
    m = float(np.max(log_w))
    shifted = np.exp(log_w - m)
    if np.any(y):
        reduced = complex(np.sum(shifted * np.exp(1j * (pts @ y))))
    else:
        reduced = complex(np.sum(shifted))
    tail = math.exp(bound.log_bound(radius) + (e_cont - m))
    mag = abs(reduced)
    value = ThetaValue(
        log_magnitude=m + (math.log(mag) if mag > 0.0 else -math.inf),
        phase=float(np.angle(reduced)),
        tail_bound=tail,
        radius=float(radius),
        point_count=pts.shape[0],
    )
    return ThetaSum(
        value=value,
        points=pts,
        log_weights=log_w,
        max_log_weight=m,
        reduced_sum=reduced,
        center=c,
    )


def theta_tilde(z, omega, eps=DEFAULT_EPS):
    """theta_tilde(z | Omega) with a certified tail bound below ``eps``."""
    return _theta_sum(z, omega, eps).value


def theta_tilde_grad(z, omega, eps=DEFAULT_EPS):
    """Gradient of log theta_tilde, plus the theta value.

    Component i is the weighted lattice average (sum n_i w_n) / (sum w_n)
    over the same point set as the value sum.
    """
    data = _theta_sum(z, omega, eps)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.exp(data.log_weights - data.max_log_weight).astype(complex)
    if np.any(zz.imag):
        w = w * np.exp(1j * (data.points @ zz.imag))
    grad = (data.points.T @ w) / data.reduced_sum
    return grad, data.value


def theta_tilde_hess(z, omega, eps=DEFAULT_EPS):
    """Second-moment ratios (sum n_i n_j w_n) / (sum w_n), plus the value."""
    data = _theta_sum(z, omega, eps)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.exp(data.log_weights - data.max_log_weight).astype(complex)
    if np.any(zz.imag):
        w = w * np.exp(1j * (data.points @ zz.imag))
    pts = data.points.astype(float)
    hess = (pts.T * w) @ pts / data.reduced_sum
    return 0.5 * (hess + hess.T), data.value


def _cube_radius(omega):
    """Max Omega-norm of a point of the centered half-unit cube (its corners)."""
    g = omega.shape[0]
    corners = np.array(
        [[0.5 if (i >> b) & 1 else -0.5 for b in range(g)] for i in range(2**g)]
    )
    return float(np.sqrt(np.max(np.einsum("ij,jk,ik->i", corners, omega, corners))))


def _dual_batch(xs, omega, eps, budget, chunk):
    """Poisson-dual theta_tilde_batch for real arguments, or None.

    None means the dual form does not apply: det Omega >= (2 pi)^g, or the
    dual sum's k != 0 mass (enumerated weights plus certified tail) exceeds
    1/2, or the dual ellipsoid passes ``budget``.  Otherwise returns the
    (log_magnitude, phase, tail_bound) arrays, with the tail bound a
    relative error below ``eps`` (see the module docstring).
    """
    g = omega.shape[0]
    low = cholesky(omega, "omega")
    log_det = 2.0 * float(np.sum(np.log(np.diag(low))))
    if log_det >= g * _LOG_2PI:
        return None
    low_inv = scipy.linalg.solve_triangular(low, np.eye(g), lower=True)
    omega_inv = low_inv.T @ low_inv
    # Dual form A = 4 pi^2 Omega^{-1}; the rows of 2 pi L^{-T} span its lattice.
    rho = lattice.shortest_vector_estimate(2.0 * math.pi * low_inv.T)
    if 2.0 * math.exp(-0.5 * rho * rho) > 0.5:
        return None  # the pair +-k of shortest dual vectors alone breaks the guard
    bound = _TailBound(g, rho)
    radius = bound.solve_radius(math.log(0.5 * eps))
    tail = math.exp(bound.log_bound(radius))
    try:
        ks = lattice.enumerate_ellipsoid(
            4.0 * math.pi**2 * omega_inv, np.zeros(g), radius, budget=budget
        ).points
    except PointBudgetExceeded:
        return None
    # One k of each pair +-k (first nonzero coordinate positive); the cosine
    # is even in k, so the pair contributes twice the kept term.
    lead = ks[np.arange(ks.shape[0]), np.argmax(ks != 0, axis=1)]
    half = ks[lead > 0].astype(float)
    quad = np.einsum("ij,jk,ik->i", half, omega_inv, half)
    weights = 2.0 * np.exp(-2.0 * math.pi**2 * quad)
    others = float(np.sum(weights)) + tail
    if others > 0.5:
        return None

    ys = xs @ omega_inv
    log_mag = 0.5 * (g * _LOG_2PI - log_det) + 0.5 * np.einsum("ij,ij->i", xs, ys)
    chunk = max(1, min(chunk, int(4e6 // max(half.shape[0], 1))))  # cap scratch memory
    for start in range(0, xs.shape[0], chunk):
        end = min(start + chunk, xs.shape[0])
        cosines = np.cos((2.0 * math.pi * ys[start:end]) @ half.T)
        log_mag[start:end] += np.log1p(cosines @ weights)
    n = xs.shape[0]
    return log_mag, np.zeros(n), np.full(n, tail / (1.0 - others))


def theta_tilde_batch(zs, omega, eps=DEFAULT_EPS, budget=lattice.POINT_BUDGET, chunk=512):
    """theta_tilde for a batch of arguments sharing one Omega.

    For real arguments with det Omega < (2 pi)^g, sums the Poisson-dual
    series over one dual point set (see the module docstring) when its
    guard holds.  Otherwise enumerates one base point set around the
    origin, enlarged by the half-unit-cube radius, and shifts it by the
    rounded ellipsoid center of every argument.  The certified tail bound
    of each evaluation is below ``eps``.  Returns (log_magnitude, phase,
    tail_bound) arrays.
    """
    omega = as_sym(omega, "omega")
    g = omega.shape[0]
    zs = np.atleast_2d(np.asarray(zs, dtype=complex))
    if zs.shape[1] != g:
        raise ValueError(f"arguments must have {g} columns, got {zs.shape[1]}")
    if eps <= 0.0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    xs, ys = zs.real, zs.imag
    complex_args = bool(np.any(ys))
    if not complex_args:
        dual = _dual_batch(xs, omega, eps, budget, chunk)
        if dual is not None:
            return dual

    rho = _lattice_rho(omega)
    centers = solve_spd(omega, xs.T, "omega").T
    shifts = np.round(centers)
    e_cont = 0.5 * np.einsum("ij,ij->i", xs, centers)
    e_round = (
        -0.5 * np.einsum("ij,jk,ik->i", shifts, omega, shifts)
        + np.einsum("ij,ij->i", shifts, xs)
    )
    gaps = np.maximum(e_cont - e_round, 0.0)
    gap_ub = float(np.max(gaps))
    bound = _TailBound(g, rho)
    radius = bound.solve_radius(math.log(eps) - gap_ub)
    base = lattice.enumerate_ellipsoid(
        omega, np.zeros(g), radius + _cube_radius(omega), budget=budget
    ).points
    if base.shape[0] == 0:
        raise PointBudgetExceeded("empty base point set")
    base_f = base.astype(float)
    base_q = 0.5 * np.einsum("ij,jk,ik->i", base_f, omega, base_f)
    log_tail = bound.log_bound(radius)

    # exponent(i, k) = -1/2 (s_i + b_k)^T Omega (s_i + b_k) + (s_i + b_k)^T x_i
    #               = b_k^T (x_i - Omega s_i) + [s_i^T x_i - 1/2 s_i^T Omega s_i]
    #                 - 1/2 b_k^T Omega b_k.
    # The continuous maximum e_cont_i bounds every exponent from above, so it
    # serves as the log-sum-exp reference without a max pass; the reduced sum
    # then lies in [exp(-gap_i), point count], safely inside double range.
    chunk = max(1, min(chunk, int(4e6 // max(base.shape[0], 1))))  # cap scratch memory
    n = zs.shape[0]
    log_mag = np.empty(n)
    phase = np.empty(n)
    tail = np.empty(n)
    for start in range(0, n, chunk):
        end = min(start + chunk, n)
        s = shifts[start:end]
        x = xs[start:end]
        row = (
            np.einsum("ij,ij->i", s, x)
            - 0.5 * np.einsum("ij,jk,ik->i", s, omega, s)
            - e_cont[start:end]
        )
        expo = (x - s @ omega) @ base_f.T
        expo += row[:, None]
        expo -= base_q[None, :]
        ref = e_cont[start:end].copy()
        if gap_ub > 600.0:
            # Reduced terms would underflow; fall back to an exact max pass.
            shift_m = np.max(expo, axis=1)
            expo -= shift_m[:, None]
            ref += shift_m
        np.exp(expo, out=expo)
        if complex_args:
            y = ys[start:end]
            ph = np.einsum("ij,ij->i", s, y)[:, None] + y @ base_f.T
            total = np.einsum("ik,ik->i", expo, np.exp(1j * ph))
        else:
            total = np.sum(expo, axis=1).astype(complex)
        mag = np.abs(total)
        with np.errstate(divide="ignore"):
            log_mag[start:end] = ref + np.log(mag)
        phase[start:end] = np.angle(total)
        # certified: actual max exponent >= e_round, so tail/reduced-scale
        # error is at most exp(log_tail + gap).
        tail[start:end] = np.exp(log_tail + gaps[start:end])
    return log_mag, phase, tail

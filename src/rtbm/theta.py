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
epsilon.  One primal kernel sums every batch, one argument being a batch
of one row: one enumeration, shifted by each argument's rounded center,
needs to cover only the offsets of the batch's centers from their rounded
centers, so it is centered on those offsets and widened by their spread,
not by the whole half-unit cube as in the uniform approximation of
Deconinck et al. (below).  ``RtbmModel.hidden_params`` keeps one argument's
point set, that of the hidden normalizer, and every hidden-sector
expectation averages over it.

Tail bound.  Writing Omega = L L^T, the terms beyond radius R form a
Gaussian sum over the shifted lattice {L^T (n - c)} outside the ball of
radius R.  With rho the shortest nonzero vector of the lattice L^T Z^g,
balls of radius rho/2 around distinct points are disjoint, which bounds
the number of points within distance r by (1 + 2r/rho)^g; integrating the
Gaussian against that count gives

    tail(R) <= sum_{k=0..g} C(g,k) (2/rho)^k 2^{k/2} Gamma(k/2+1, R^2/2),

an upper incomplete gamma expression driven by rho (Deconinck et al.,
"Computing Riemann theta functions", Math. Comp. 73 (2004)).  The bound is
valid for every R > 0, decreasing in R, and decreasing in rho, so coarser
lattices never require a larger radius.

Radius solve.  In x = R^2/2 every Gamma(k/2+1, x) is e^{-x} times a closed
form in sqrt(x) (with erfcx for odd k), so the log bound and its slope cost
a few float operations and cannot underflow.  The radius is the root of
log bound = log eps, found by Newton's method in x from the asymptotic root
of Gamma(s, x) ~ x^{s-1} e^{-x}, with a bracket and a bisection step
whenever Newton leaves it.  It is aimed a hair inside eps, so round-off
cannot undo the certificate, lands within 1e-7 (relative) above the
smallest certified radius, and is checked once through ``log_bound``.

Scaling convention.  Values are returned as (log_magnitude, phase); the
certified ``tail_bound`` is the absolute error of the *reduced* sum, i.e.
of theta_tilde scaled by exp(-max real exponent).  For real z the reduced
sum is >= 1, so the bound is also a relative error bound on the value.
``theta_tilde`` measures it from the largest summed term, as bound(R)
exp(e_cont - max); a primal batch from the rounded center's, as bound(R)
exp(e_cont - e_round).

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
rho the shortest vector of the A-lattice, is tail <= eps/2.  The k-set is
enumerated over ``lattice.Form.dual`` of Omega's Form, which is J A J with
J reversing the coordinates: with Omega = L L^T, its lower factor is
2 pi J L^{-T} J, so it needs no factorization of its own.  Its points are
J k, flipped back before summing, and its rho is that of A.  log det Omega
and Omega^{-1} come from the same Form, so a caller that keeps the Form
(the model keeps one per matrix) derives each of them once.  With
``others`` the enumerated k != 0 weights plus that tail, the dual sum is at
least 1 - others; the form is used only when others <= 1/2, and the
returned bound tail / (1 - others) <= eps is then a relative error bound,
as for the primal sum at real z.  Otherwise the primal sum runs.

``_dual_terms`` is the one place that builds a dual k-set: it applies the
guards, solves the radius and enumerates one k of each pair +-k directly,
in the enumerator's half-set mode (the set is symmetric about its center
0, and the budget still counts the whole of it), and returns the half-set,
the weights (each pair counted twice), the tail and the relative bound, or
None.  ``_kept_dual_terms`` keeps that result, None included, on the Form
per (eps, budget): the model's numerator, its normalizer and a primal batch
over the same Form read one verdict and build the k-set at most once.
``_reweigh`` weighs a k-set, and is its only other consumer: it re-weighs a
k-set built for Q for a form S <= Q, whose sum Q's k-set and tail also
certify (see ``_reweigh``), so the model's hidden normalizer over S reads
the k-set of its numerator over Q.  ``_dual_series`` is the one evaluator
of the series, log1p(cos(args @ freq + phase0) @ weights), in blocks of
rows that stay on the heap.  ``_dual_batch`` calls it with args = x,
freq = 2 pi Omega^{-1} k and phase0 = 0; the model's density plan calls it
with args = v, its phases being affine in v (see ``rtbm.model``).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from . import lattice
from .errors import PointBudgetExceeded
# perfbench/spans.py wraps cholesky and solve_spd in every module that binds
# them, so they stay bound here although every factor comes from lattice.Form.
from .numerics import as_sym, cholesky, solve_spd  # noqa: F401

#: Default requested tail error for theta evaluations.
DEFAULT_EPS = 1e-12

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_PI = math.sqrt(math.pi)
#: Arguments per block of the batch kernels (capped further by scratch memory).
_CHUNK = 512


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
    def value(self):
        """theta as a complex float; may overflow for large arguments."""
        return np.exp(self.log_magnitude) * np.exp(1j * self.phase)


class _TailBound:
    """Certified reduced-tail bound for one (dimension, rho) pair."""

    def __init__(self, g, rho):
        if rho <= 0.0:
            raise ValueError(f"rho must be positive, got {rho}")
        scale = 2.0 * math.sqrt(2.0) / rho
        self.coeff = [math.comb(g, k) * scale**k for k in range(g + 1)]

    def _log_bound_at(self, x):
        """log of the bound at x = R^2/2, and its derivative in x.

        e^x Gamma(s, x) runs up from 1 at s = 1 and sqrt(pi)/2 erfcx(sqrt(x))
        + sqrt(x) at s = 3/2 by Gamma(s + 1, x) = s Gamma(s, x) + x^s e^{-x};
        d/dx Gamma(s, x) = -x^{s-1} e^{-x}.
        """
        r = math.sqrt(x)
        # e^x Gamma(s, x) for the next even and odd order, from s = 1 and 3/2
        gam = [1.0, 0.5 * _SQRT_PI * float(scipy.special.erfcx(r)) + r]
        total = slope = 0.0
        power = 1.0  # r^k = x^{s-1}
        for k, c in enumerate(self.coeff):
            total += c * gam[k % 2]
            slope += c * power
            gam[k % 2] = (0.5 * k + 1.0) * gam[k % 2] + power * x
            power *= r
        return math.log(total) - x, -slope / total

    def log_bound(self, radius):
        return self._log_bound_at(0.5 * radius * radius)[0]

    def solve_radius(self, log_epsilon):
        """Smallest radius (to 1e-7 relative) with log bound <= log_epsilon.

        Safeguarded Newton in x; see "Radius solve" in the module docstring.
        """
        target = log_epsilon - 1e-9 * (1.0 + abs(log_epsilon))
        # one fixed-point step of x = -log_epsilon + log poly(x), the asymptotic root
        x0 = max(-log_epsilon, 1.0)
        poly = sum(c * x0 ** (0.5 * k) for k, c in enumerate(self.coeff))
        x = max(-log_epsilon + math.log(poly), 0.0)
        lo, hi = 0.0, math.inf  # log bound above target at lo, at most target at hi
        for _ in range(200):
            value, slope = self._log_bound_at(x)
            if value > target:
                lo = x
            else:
                hi = x
            newton = x - (value - target) / slope
            if lo >= (1.0 - 1e-7) * hi or (x == hi and x - newton <= 1e-7 * x):
                break
            if x == lo:
                newton *= 1.0 + 1e-8  # from below, land on the certified side
            x = newton if lo < newton < hi else 0.5 * (lo + hi)
        if not hi < 5e17:
            raise ValueError("tail bound cannot reach requested epsilon")
        radius = math.sqrt(2.0 * hi)
        if self.log_bound(radius) > log_epsilon:
            raise FloatingPointError("radius solve lost its certificate to round-off")
        return radius


def _check_eps(eps):
    """Raise ValueError unless 0 < eps < 1: eps >= 1 certifies nothing."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")


def radius_for_epsilon(omega, epsilon, rho):
    """Smallest radius whose certified tail bound is below ``epsilon``.

    ``rho`` must be a lower bound on the shortest nonzero vector of the
    lattice spanned by the rows of the Cholesky factor of omega.  The
    result is monotone non-increasing in epsilon and never increases when
    the lattice gets coarser (e.g. omega -> 4 omega).
    """
    omega = as_sym(omega, "omega")
    _check_eps(epsilon)
    g = omega.shape[0]
    return _TailBound(g, rho).solve_radius(math.log(epsilon))


@dataclass(frozen=True)
class ThetaSum:
    """Value of one theta evaluation together with its summation data.

    ``points`` are the integer vectors the primal kernel summed (its base set
    shifted by the rounded center), ``log_weights`` their real exponents
    -1/2 n^T Omega n + n^T Re(z), and ``max_log_weight`` the largest, from
    which ``value.tail_bound`` is measured: the reduced sum is
    exp(value.log_magnitude - max_log_weight).  ``RtbmModel.hidden_params``
    keeps one such point set for the sampler, the CDF and every expectation.
    """

    value: ThetaValue
    points: np.ndarray
    log_weights: np.ndarray
    max_log_weight: float


def _row_dots(a, b):
    """The dot products of the rows of a and b, each summed left to right.

    einsum's kernel for contiguous rows sums in another order, so its result
    would depend on whether the arguments arrived as a real array or as the
    real part of a complex one.
    """
    return (a * b).sum(axis=1)


class _Centers:
    """Ellipsoid centers c = Omega^{-1} x of real arguments (rows of xs).

    ``gaps`` bound how far the best integer exponent (at least the one at the
    rounded center ``shifts``) falls below its continuous maximum ``e_cont``
    at c; ``radius`` folds the largest gap into the certified tail bound, and
    ``log_tail`` is the log of that bound at ``radius``.
    """

    def __init__(self, form, xs, eps):
        self.centers = form.solve(xs.T).T
        self.shifts = np.round(self.centers)
        self.e_cont = 0.5 * _row_dots(xs, self.centers)
        e_round = -0.5 * np.einsum("ij,ij->i", self.shifts @ form.matrix, self.shifts)
        e_round += _row_dots(self.shifts, xs)
        self.gaps = np.maximum(self.e_cont - e_round, 0.0)
        self.gap_ub = float(np.max(self.gaps))
        bound = _TailBound(xs.shape[1], form.rho)
        self.radius = bound.solve_radius(math.log(eps) - self.gap_ub)
        self.log_tail = bound.log_bound(self.radius)


def _arguments(zs, g, eps):
    """(xs, ys), the real and imaginary parts of the argument rows ``zs``; ys
    is None for real rows, a zero imaginary part included (its real part made
    contiguous, to give a real array's bits).  Raises ValueError for a wrong
    shape, a non-finite argument or eps outside (0, 1)."""
    complex_args = np.iscomplexobj(zs)
    zs = zs.astype(complex if complex_args else float, copy=False)
    if zs.ndim != 2 or zs.shape[1] != g:
        raise ValueError(f"arguments must be rows of {g} entries, got shape {zs.shape}")
    if not np.isfinite(zs).all():
        raise ValueError("arguments must be finite")
    _check_eps(eps)
    if complex_args and np.any(zs.imag):
        return zs.real, zs.imag
    return (np.ascontiguousarray(zs.real) if complex_args else zs), None


def _theta_sum(z, omega, eps=DEFAULT_EPS, budget=lattice.POINT_BUDGET):
    """theta_tilde at one argument, the primal kernel's batch of one row, with
    its point data; the tail bound is measured from the largest term."""
    form = lattice.Form.of(omega)
    xs, ys = _arguments(np.atleast_1d(np.asarray(z))[None, :], form.matrix.shape[0], eps)
    cs, base, (log_mag, phase, _) = _primal_batch(form, xs, ys, eps, budget)
    pts = base + cs.shifts[0].astype(base.dtype)
    log_w = -0.5 * np.einsum("ij,jk,ik->i", pts, form.matrix, pts) + pts @ xs[0]
    m = float(np.max(log_w))
    value = ThetaValue(
        log_magnitude=float(log_mag[0]),
        phase=float(phase[0]),
        tail_bound=math.exp(cs.log_tail + (cs.e_cont[0] - m)),
        radius=float(cs.radius),
        point_count=pts.shape[0],
    )
    return ThetaSum(value=value, points=pts, log_weights=log_w, max_log_weight=m)


def theta_tilde(z, omega, eps=DEFAULT_EPS):
    """theta_tilde(z | Omega) with a certified tail bound below ``eps``.

    Here and in the other evaluators ``omega`` may be a ``lattice.Form``.
    A non-finite z raises ValueError.
    """
    return _theta_sum(z, omega, eps).value


def _offset_cover(offsets, omega):
    """Center m and radius max_i |o_i - m|_Omega of a ball holding the offsets.

    m is the midpoint of the offsets' bounding box or the origin, whichever
    needs the smaller radius.  Offsets lie in the half-unit cube, so the
    radius is at most that of the cube's corners, and at most max_i |o_i|.
    """
    if offsets.shape[0] == 1:
        return offsets[0], 0.0
    rows = np.ascontiguousarray(offsets.T)  # (g, n): numpy reduces along rows fast
    mid = 0.5 * (np.min(rows, axis=1) + np.max(rows, axis=1))

    def reach(m):
        dev = rows - m[:, None]
        return math.sqrt(float(np.max(np.sum((omega @ dev) * dev, axis=0))))

    return min(((m, reach(m)) for m in (mid, np.zeros_like(mid))), key=lambda c: c[1])


def _dual_terms(form, eps, budget):
    """The dual k-set of ``form``: (half, weights, tail, rel), or None.

    ``half`` holds one k of each pair +-k != 0 of the certified dual
    ellipsoid (as floats, one per row), ``weights`` their terms
    2 exp(-2 pi^2 k^T Omega^{-1} k), the pair counted twice as the cosine is
    even in k, ``tail`` the certified bound on the omitted terms, and
    ``rel`` = tail / (1 - others) the certified relative error of the dual
    sum (see the module docstring).  None means the dual form does not
    apply: det Omega >= (2 pi)^g, or the k != 0 mass (enumerated weights
    plus tail) exceeds 1/2, or the dual ellipsoid passes ``budget`` (all
    of it, although only half of it is enumerated).
    """
    g = form.matrix.shape[0]
    if form.log_det >= g * _LOG_2PI:
        return None
    rho = form.dual.rho
    if 2.0 * math.exp(-0.5 * rho * rho) > 0.5:
        return None  # the pair +-k of shortest dual vectors alone breaks the guard
    bound = _TailBound(g, rho)
    radius = bound.solve_radius(math.log(0.5 * eps))
    tail = math.exp(bound.log_bound(radius))
    try:
        ks = lattice.enumerate_ellipsoid(form.dual, np.zeros(g), radius, budget=budget, half=True)
    except PointBudgetExceeded:
        return None
    # the dual Form is in reversed coordinates: its half set keeps the k
    # whose first nonzero coordinate is positive
    return _reweigh(np.array(ks[:, ::-1], dtype=float), tail, form)


def _kept_dual_terms(form, eps, budget):
    """``_dual_terms`` of ``form``, built once per (eps, budget) and kept in
    the Form's ``memo``, a None verdict included."""
    key = ("dual terms", eps, budget)
    if key not in form.memo:
        form.memo[key] = _dual_terms(form, eps, budget)
    return form.memo[key]


def _reweigh(half, tail, form):
    """The dual terms of ``form`` over a half k-set certified with ``tail``.

    Returns (half, weights, tail, rel) as ``_dual_terms`` does, with the
    weights 2 exp(-2 pi^2 k^T Omega^{-1} k) of ``form`` (k^T Omega^{-1} k
    as |L^{-1} k|^2, from the factor's inverse) and
    rel = tail / (1 - others), or None when others > 1/2.  ``_dual_terms``
    weighs its own k-set here.  A k-set built for Q also serves any form
    S <= Q, as the model's Schur complement S = Q - W^T T^{-1} W is:

      * S^{-1} >= Q^{-1}, so |k|_{S*} >= |k|_{Q*} for every k, in the dual
        norms |k|_{X*}^2 = 4 pi^2 k^T X^{-1} k;
      * so the shortest vector of S's dual lattice is at least rho_Q, and as
        the Deconinck bound decreases in rho, Q's tail(R) bounds the terms
        of S beyond S's ellipsoid of radius R;
      * that ellipsoid lies inside Q's, so the k S omits (those outside
        Q's ellipsoid) are fewer still;
      * every S weight is at most its Q weight, so others_S <= others_Q
        <= 1/2, and rel_S <= rel_Q <= eps.

    Rounding.  In floats S <= Q holds only up to the rounding of
    Q = S + W^T T^{-1} W (or of S = Q - W^T T^{-1} W), a few ulps of the
    entries of Q and W^T T^{-1} W, so an omitted k has
    |k|_{S*}^2 >= (1 - delta) |k|_{Q*}^2 with delta of order g u cond(Q),
    u the unit roundoff.  That scales each omitted term by at most
    exp(delta |k|_{Q*}^2 / 2), so their sum exceeds Q's tail(R) by at most
    a relative delta (R^2 / 2 + g) to first order: a term outside Q's
    ellipsoid is still covered, by a bound that is itself rounded.  The
    radius solve aims 1e-9 (1 + |log eps|) inside its target (in log),
    which absorbs that while delta stays below about 1e-10, cond(Q) up to
    about 1e5; beyond, the bound is off by that relative amount of itself,
    as any certificate computed from a rounded inverse is.  With W = 0 the
    Schur pass subtracts zeros and S equals Q bit for bit; S and Q
    factored from their matrices then give Q's own terms.
    """
    y = half @ form.low_inv.T  # rows L^{-1} k: |y|^2 = k^T Omega^{-1} k
    weights = 2.0 * np.exp(-2.0 * math.pi**2 * _row_dots(y, y))
    others = float(weights.sum()) + tail
    if others > 0.5:
        return None
    return half, weights, tail, tail / (1.0 - others)


#: Elements of one (rows x K) phase block of the dual series: 120 KB, under
#: glibc's 128 KB mmap threshold, so the block comes from the heap and is
#: not page-faulted afresh on every call.
_SERIES_BLOCK = 15 << 10


def _dual_series(args, freq, phase0, weights):
    """log1p(cos(args @ freq + phase0) @ weights), one value per row of ``args``.

    The dual series of ``_dual_terms``: ``freq`` has one column and
    ``phase0`` one entry per kept k, and the rows run in blocks of
    ``_SERIES_BLOCK`` phases through one reused buffer.
    """
    n = args.shape[0]
    out = np.empty(n)
    rows = max(1, _SERIES_BLOCK // max(weights.size, 1))
    buf = np.empty((min(rows, n), weights.size))
    for start in range(0, n, rows):
        end = min(start + rows, n)
        phases = np.matmul(args[start:end], freq, out=buf[: end - start])
        phases += phase0
        np.cos(phases, out=phases)
        np.log1p(phases @ weights, out=out[start:end])
    return out


def _dual_batch(xs, form, eps, budget):
    """Poisson-dual theta_tilde_batch for real arguments over ``form``, or None.

    None where the Form's kept ``_dual_terms`` are None, so a Form that
    failed the guards once is not enumerated again before its primal sum.
    Otherwise the (log_magnitude, phase, tail_bound) arrays of the dual
    series at the real rows ``xs``; the tail bound is the terms' relative
    error ``rel``.
    """
    terms = _kept_dual_terms(form, eps, budget)
    if terms is None:
        return None
    half, weights, _, rel = terms
    g = form.matrix.shape[0]
    log_mag = 0.5 * (g * _LOG_2PI - form.log_det) + 0.5 * _row_dots(xs, xs @ form.inverse)
    log_mag += _dual_series(xs, (2.0 * math.pi) * (form.inverse @ half.T), 0.0, weights)
    n = xs.shape[0]
    return log_mag, np.zeros(n), np.full(n, rel)


def _primal_batch(form, xs, ys, eps, budget):
    """The primal sum over one base set: (centers, base set, values).

    ``xs`` and ``ys`` are the real and imaginary parts of the arguments (ys
    None for real ones); ``centers`` is their ``_Centers``, and ``values``
    the (log_magnitude, phase, tail_bound) arrays of ``theta_tilde_batch``.
    """
    omega = form.matrix
    cs = _Centers(form, xs, eps)
    mid, spread = _offset_cover(cs.centers - cs.shifts, omega)
    base = lattice.enumerate_ellipsoid(form, mid, cs.radius + spread, budget=budget)
    if base.shape[0] == 0:
        raise PointBudgetExceeded("empty base point set")
    base_f = base.astype(float)
    base_q = 0.5 * np.einsum("ij,jk,ik->i", base_f, omega, base_f)

    # exponent(i, k) = -1/2 (s_i + b_k)^T Omega (s_i + b_k) + (s_i + b_k)^T x_i
    #               = e_round_i + b_k^T (x_i - Omega s_i) - 1/2 b_k^T Omega b_k,
    # with e_round_i = s_i^T x_i - 1/2 s_i^T Omega s_i the exponent at the
    # rounded center, the log-sum-exp reference.  The rounded center lies
    # sqrt(2 gap_i) from c_i, and log_bound(R) >= -R^2/2 puts that inside R
    # as eps < 1, so b = 0 is summed and no exponent exceeds e_cont_i: the
    # reduced sum lies in [1, point count * exp(gap_i)], inside double range
    # unless a gap passes 600.
    n = xs.shape[0]
    chunk = max(1, min(_CHUNK, int(4e6 // base.shape[0])))  # cap the (chunk, points) buffer
    log_mag = np.empty(n)
    phase = np.empty(n)
    for start in range(0, n, chunk):
        end = min(start + chunk, n)
        s = cs.shifts[start:end]
        x = xs[start:end]
        s_omega = s @ omega
        ref = _row_dots(s, x) - 0.5 * np.einsum("ij,ij->i", s_omega, s)
        expo = (x - s_omega) @ base_f.T
        expo -= base_q[None, :]
        if cs.gap_ub > 600.0:
            # Reduced terms could overflow; fall back to an exact max pass.
            shift_m = np.max(expo, axis=1)
            expo -= shift_m[:, None]
            ref += shift_m
        np.exp(expo, out=expo)
        if ys is not None:
            y = ys[start:end]
            ph = np.einsum("ij,ij->i", s, y)[:, None] + y @ base_f.T
            total = np.einsum("ik,ik->i", expo, np.exp(1j * ph))
        else:
            total = np.sum(expo, axis=1).astype(complex)
        mag = np.abs(total)
        with np.errstate(divide="ignore"):
            log_mag[start:end] = ref + np.log(mag)
        phase[start:end] = np.angle(total)
    # certified: actual max exponent >= e_round, so tail/reduced-scale error
    # is at most exp(log_tail + gap).
    return cs, base, (log_mag, phase, np.exp(cs.log_tail + cs.gaps))


def theta_tilde_batch(zs, omega, eps=DEFAULT_EPS, budget=lattice.POINT_BUDGET):
    """theta_tilde for a batch of arguments sharing one Omega.

    For real arguments with det Omega < (2 pi)^g, sums the Poisson-dual
    series over one dual point set (see the module docstring) when its
    guard holds.  Otherwise enumerates one base point set around a center
    m of the offsets o_i = c_i - round(c_i) of the ellipsoid centers (see
    ``_offset_cover``), at radius R + max_i |o_i - m|_Omega, and shifts it
    by every argument's rounded center; by the triangle inequality it holds
    each argument's own ellipsoid of radius R.  The certified tail bound
    of each evaluation is below ``eps``.  Returns (log_magnitude, phase,
    tail_bound) arrays; an empty batch gives empty arrays, and a non-finite
    argument raises ValueError on either path.
    """
    form = lattice.Form.of(omega)
    xs, ys = _arguments(np.atleast_2d(np.asarray(zs)), form.matrix.shape[0], eps)
    if xs.shape[0] == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    if ys is None:
        dual = _dual_batch(xs, form, eps, budget)
        if dual is not None:
            return dual
    return _primal_batch(form, xs, ys, eps, budget)[2]

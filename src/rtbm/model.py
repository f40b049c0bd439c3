"""The Riemann-Theta Boltzmann machine and its closed-form densities.

The model couples continuous visible units v in R^{N_v} to integer hidden
units h in Z^{N_h} through the quadratic energy

    E(v, h) = 1/2 h^T Q h + h^T W^T v + 1/2 v^T T v + B_h^T h + B_v^T v,

with T, Q symmetric positive definite and the full coupling block positive
definite, which is equivalent to positive definiteness of the Schur
complement S = Q - W^T T^{-1} W.  Everything downstream follows from three
closed forms:

  * the hidden marginal P(h) is a discrete Gaussian on Z^{N_h} with
    precision Omega_h = S and linear term b_h = B_h - W^T T^{-1} B_v,
    normalized by theta_b = theta_tilde(b_h | Omega_h);
  * the conditional P(v | h) is Gaussian with precision T and mean
    mu(h) = -T^{-1} (W h + B_v);
  * the visible marginal P(v) is the (infinite) Gaussian mixture
    sum_h P(v | h) P(h), which collapses to a Gaussian prefactor times a
    ratio of two theta evaluations.

The derived hidden-sector parameters (T^{-1} W, S, the Cholesky factor of S
and b_h) come from one cached Schur pass per model, ``RtbmModel.schur``.
The densities need only the value of theta_b, not its points: it comes from
the primal point set when ``hidden_params`` has already built it, else from
the Poisson-dual form of ``theta._dual_batch`` (certified relative error r,
entered as log V + log1p(r) so that log_norm stays an upper bound on
log theta_b), else from ``hidden_params``.  The sampler, the CDF, the hidden
pmf, the characteristic functions and the moments use the primal point set.

All densities are exposed in log domain; theta magnitudes can be
astronomically large, but their logs and ratios are stable.  Only real
cross couplings (phase I of the paper) are modelled; ``from_dict`` rejects
any other phase.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.special

from . import lattice, numerics, theta
from .errors import (
    InvalidModel,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
    UnsupportedDimension,
)

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SchurComplement:
    """The hidden-sector parameters derived from (T, Q, W, B_v, B_h).

    ``t_inv_w`` is T^{-1} W, ``omega`` the Schur complement
    S = Q - W^T T^{-1} W (symmetrized), ``omega_low`` its lower Cholesky
    factor and ``bias`` the linear term b_h = B_h - W^T T^{-1} B_v.
    """

    t_inv_w: np.ndarray
    omega: np.ndarray
    omega_low: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class HiddenGaussianParams:
    """Primal point set of the hidden sector, computed once per model and epsilon.

    ``omega`` and ``bias`` are the Schur complement S and b_h of
    ``RtbmModel.schur``.  ``points`` and ``log_weights`` hold the
    certification ellipsoid of the normalizer theta_b with the unnormalized
    log masses -1/2 h^T omega h - bias^T h; ``log_norm`` is
    log(theta_n + eps(R)), so the enumerated masses sum to
    theta_n / (theta_n + eps(R)) < 1, and ``p_outside`` is the certified
    bound eps(R) / (theta_n + eps(R)) on the mass outside the ellipsoid.
    ``log_pdf_visible`` takes its normalizer from here when this set exists;
    otherwise it uses the dual form, log V + log1p(r) with r the dual's
    certified relative error, which is an upper bound on log theta_b too.
    """

    omega: np.ndarray
    bias: np.ndarray
    theta_value: theta.ThetaValue
    points: np.ndarray = field(repr=False)
    log_weights: np.ndarray = field(repr=False)
    max_log_weight: float
    log_norm: float
    p_outside: float
    epsilon: float


def _freeze(arr):
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _as_batch(x, width, name):
    """Coerce to a (n, width) float array; report whether input was one point."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
        single = True
    elif x.ndim == 1:
        x = x.reshape(1, -1)
        single = True
    elif x.ndim == 2:
        single = False
    else:
        raise ValueError(f"{name} must be a vector or a matrix, got ndim {x.ndim}")
    if x.shape[1] != width:
        raise ValueError(f"{name} must have {width} columns, got {x.shape[1]}")
    return x, single


class RtbmModel:
    """Parameter container; the single source of truth for all densities.

    Construction checks shapes only; ``validate`` checks the positive
    definiteness invariants.  Instances are immutable and safe to share.
    """

    def __init__(self, t, q, w, bv, bh):
        t = np.atleast_2d(np.asarray(t, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        w = np.atleast_2d(np.asarray(w, dtype=float))
        bv = np.atleast_1d(np.asarray(bv, dtype=float))
        bh = np.atleast_1d(np.asarray(bh, dtype=float))
        nv, nh = t.shape[0], q.shape[0]
        bad = []
        if t.shape != (nv, nv):
            bad.append(f"t must be square, got {t.shape}")
        if q.shape != (nh, nh):
            bad.append(f"q must be square, got {q.shape}")
        if w.shape != (nv, nh):
            bad.append(f"w must have shape ({nv}, {nh}), got {w.shape}")
        if bv.shape != (nv,):
            bad.append(f"bv must have shape ({nv},), got {bv.shape}")
        if bh.shape != (nh,):
            bad.append(f"bh must have shape ({nh},), got {bh.shape}")
        if bad:
            raise InvalidModel(bad)
        self.t = _freeze(t)
        self.q = _freeze(q)
        self.w = _freeze(w)
        self.bv = _freeze(bv)
        self.bh = _freeze(bh)
        self._cache = {}

    @property
    def nv(self):
        return self.t.shape[0]

    @property
    def nh(self):
        return self.q.shape[0]

    def __repr__(self):
        return f"RtbmModel(nv={self.nv}, nh={self.nh})"

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        """Plain-python parameter dictionary (row-major nested lists)."""
        return {
            "format_version": 1,
            "nv": self.nv,
            "nh": self.nh,
            "phase": "I",  # kept so that model files and fingerprints stay the same
            "t": self.t.tolist(),
            "q": self.q.tolist(),
            "w": self.w.tolist(),
            "bv": self.bv.tolist(),
            "bh": self.bh.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``; a ``"phase"`` other than "I" is rejected."""
        if d.get("phase", "I") != "I":
            raise InvalidModel(f"phase {d['phase']!r} is not supported, only 'I' (real couplings)")
        return cls(t=d["t"], q=d["q"], w=d["w"], bv=d["bv"], bh=d["bh"])

    def fingerprint(self):
        """Stable hash of the exact parameter values."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- validation --------------------------------------------------------

    def validate(self):
        """Check all invariants; returns PD margins, raises InvalidModel.

        The margins are the minimum Cholesky pivots of T, Q and the Schur
        complement S = Q - W^T T^{-1} W.
        """
        violations = []
        margins = {}
        factors = {"t": self._t_cholesky, "q": lambda: numerics.cholesky(self.q, "q")}
        for name, factor in factors.items():
            try:
                margins[name] = float(np.min(np.diag(factor())))
            except NotSymmetric:
                violations.append(f"{name} is not symmetric")
            except NotPositiveDefinite:
                violations.append(f"{name} is not positive definite")
        if "t" in margins:
            try:
                margins["s"] = float(np.min(np.diag(self.schur().omega_low)))
            except (NotPositiveDefinite, NotSymmetric):
                violations.append(
                    "schur complement q - w^T t^{-1} w is not positive definite"
                )
        if violations:
            raise InvalidModel(violations)
        return margins

    def is_valid(self):
        try:
            self.validate()
        except InvalidModel:
            return False
        return True

    def _require_valid(self):
        key = ("valid",)
        if key not in self._cache:
            self.validate()
            self._cache[key] = True

    # -- derived parameters --------------------------------------------------

    def schur(self):
        """The Schur pass (T^{-1} W, S, its Cholesky factor, b_h), cached.

        Raises NotPositiveDefinite when T or S is not positive definite.
        """
        key = ("schur",)
        if key not in self._cache:
            t_inv_w = self._solve_t(self.w)
            omega = self.q - self.w.T @ t_inv_w
            omega = 0.5 * (omega + omega.T)  # derived matrix; round-off asymmetry is ours
            self._cache[key] = SchurComplement(
                t_inv_w=_freeze(t_inv_w),
                omega=_freeze(omega),
                omega_low=_freeze(numerics.cholesky(omega, "schur complement")),
                bias=_freeze(self.bh - t_inv_w.T @ self.bv),
            )
        return self._cache[key]

    def hidden_params(self, eps=theta.DEFAULT_EPS, budget=None):
        """Hidden-sector primal point set, cached per (epsilon, budget)."""
        self._require_valid()
        key = ("hidden", eps, budget)
        if key not in self._cache:
            sc = self.schur()
            data = theta._theta_sum(
                -sc.bias, sc.omega, eps, budget=budget or lattice.POINT_BUDGET
            )
            tail = data.value.tail_bound
            reduced = abs(data.reduced_sum)
            log_norm = data.max_log_weight + math.log(reduced + tail)
            p_outside = tail / (reduced + tail)
            self._cache[key] = HiddenGaussianParams(
                omega=sc.omega,
                bias=sc.bias,
                theta_value=data.value,
                points=data.points,
                log_weights=data.log_weights,
                max_log_weight=data.max_log_weight,
                log_norm=log_norm,
                p_outside=p_outside,
                epsilon=eps,
            )
        return self._cache[key]

    def _log_norm(self, eps, budget):
        """log theta_b for the densities, cached per (epsilon, budget).

        The primal point set's ``log_norm`` when ``hidden_params`` has built
        it; else the dual form at -b_h over S, log V + log1p(r): the dual
        sum V is within relative error r of theta_b (its k != 0 mass is at
        most 1/2), so V (1 + r) bounds theta_b from above, as the primal
        log(reduced + tail) does.  Where the dual does not apply, the point
        set is built.
        """
        hp = self._cache.get(("hidden", eps, budget))
        if hp is not None:
            return hp.log_norm
        key = ("dual_norm", eps, budget)
        if key not in self._cache:
            sc = self.schur()
            dual = theta._dual_batch(
                -sc.bias[None, :], sc.omega, eps, budget or lattice.POINT_BUDGET, chunk=1
            )
            if dual is None:
                return self.hidden_params(eps, budget).log_norm
            log_mag, _, rel = dual
            self._cache[key] = float(log_mag[0]) + math.log1p(float(rel[0]))
        return self._cache[key]

    def _t_cholesky(self):
        """Lower Cholesky factor of T, cached: the one factorization of T."""
        key = ("chol_t",)
        if key not in self._cache:
            self._cache[key] = numerics.cholesky(self.t, "t")
        return self._cache[key]

    def _solve_t(self, b):
        """T^{-1} b from the cached factor of T."""
        return scipy.linalg.cho_solve((self._t_cholesky(), True), np.asarray(b, dtype=float))

    def _log_gauss_norm(self):
        """1/2 (log det T - nv log 2 pi), the log normalizer of N(., T^{-1})."""
        log_det = 2.0 * float(np.sum(np.log(np.diag(self._t_cholesky()))))
        return 0.5 * (log_det - self.nv * _LOG_2PI)

    # -- densities ----------------------------------------------------------

    def log_pdf_visible(self, v, eps=theta.DEFAULT_EPS, budget=None):
        """log P(v); accepts one point (nv,) or a batch (n, nv).

        ``budget`` caps the enumerated theta points (PointBudgetExceeded
        beyond it); the default is the lattice module's global cap.  The
        numerator is one ``theta_tilde_batch`` over Q.  The normalizer
        theta_b is the point set's ``log_norm`` when ``hidden_params`` has
        built it for (eps, budget); otherwise the Poisson-dual value
        log V + log1p(r), with r the dual's certified relative error; and
        where the dual does not apply, ``hidden_params`` builds the point set.
        """
        self._require_valid()
        v, single = _as_batch(v, self.nv, "v")
        log_norm = self._log_norm(eps, budget)
        u = v + self._solve_t(self.bv)
        quad = np.einsum("ij,jk,ik->i", u, self.t, u)
        log_gauss = self._log_gauss_norm() - 0.5 * quad
        zs = v @ self.w + self.bh
        log_num, _, _ = theta.theta_tilde_batch(
            zs, self.q, eps, budget=budget or lattice.POINT_BUDGET
        )
        out = log_gauss + log_num - log_norm
        return float(out[0]) if single else out

    def log_pmf_hidden(self, h, eps=theta.DEFAULT_EPS):
        """log P(h) for integer hidden states; single (nh,) or batch (n, nh)."""
        self._require_valid()
        h, single = _as_batch(h, self.nh, "h")
        hp = self.hidden_params(eps)
        log_w = (
            -0.5 * np.einsum("ij,jk,ik->i", h, hp.omega, h) - h @ hp.bias
        )
        out = log_w - hp.log_norm
        return float(out[0]) if single else out

    def conditional_mean(self, h):
        """mu(h) = -T^{-1} (W h + B_v), the mean of P(v | h)."""
        self._require_valid()
        hh, single = _as_batch(h, self.nh, "h")
        mu = -self._solve_t((hh @ self.w.T + self.bv).T).T
        return mu[0] if single else mu

    def log_pdf_conditional(self, v, h):
        """log P(v | h): Gaussian with precision T and mean mu(h)."""
        self._require_valid()
        v = np.atleast_1d(np.asarray(v, dtype=float))
        mu = self.conditional_mean(h)
        d = v - mu
        return float(self._log_gauss_norm() - 0.5 * d @ self.t @ d)

    # -- characteristic functions --------------------------------------------

    def characteristic_visible(self, r, eps=theta.DEFAULT_EPS):
        """phi_v(r) = E[exp(i r^T v)]; exactly 1 at r = 0."""
        self._require_valid()
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if r.shape != (self.nv,):
            raise ValueError(f"r must have shape ({self.nv},), got {r.shape}")
        hp = self.hidden_params(eps)
        t_inv_bv = self._solve_t(self.bv)
        t_inv_r = self._solve_t(r)
        # theta_tilde is even in z; evaluating at -(bias) - i W^T T^{-1} r makes
        # r = 0 reuse the cached normalizer evaluation exactly, so phi(0) = 1.
        z_num = -hp.bias - 1j * (self.w.T @ t_inv_r)
        num = theta.theta_tilde(z_num, hp.omega, eps)
        den = hp.theta_value
        log_phi = (
            -1j * (r @ t_inv_bv)
            - 0.5 * (r @ t_inv_r)
            + (num.log_complex - den.log_complex)
        )
        return complex(np.exp(log_phi))

    def characteristic_hidden(self, r, eps=theta.DEFAULT_EPS):
        """phi_h(r) = E[exp(i r^T h)]; exactly 1 at r = 0."""
        self._require_valid()
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if r.shape != (self.nh,):
            raise ValueError(f"r must have shape ({self.nh},), got {r.shape}")
        hp = self.hidden_params(eps)
        num = theta.theta_tilde(-hp.bias + 1j * r, hp.omega, eps)
        return complex(np.exp(num.log_complex - hp.theta_value.log_complex))

    # -- hidden moments --------------------------------------------------------

    def hidden_mean(self, eps=theta.DEFAULT_EPS):
        """E[h], from the gradient of log theta at the hidden-sector argument."""
        hp = self.hidden_params(eps)
        grad, _ = theta.theta_tilde_grad(-hp.bias, hp.omega, eps)
        return grad.real

    def hidden_covariance(self, eps=theta.DEFAULT_EPS):
        """cov(h), second-moment theta ratios minus the mean outer product."""
        hp = self.hidden_params(eps)
        second, _ = theta.theta_tilde_hess(-hp.bias, hp.omega, eps)
        mean = self.hidden_mean(eps)
        cov = second.real - np.outer(mean, mean)
        return 0.5 * (cov + cov.T)

    # -- affine transform -------------------------------------------------------

    def affine_transform(self, a, b):
        """Model of w = A v + b for full-column-rank A.

        The precision acts through its inverse (T^{-1} -> A T^{-1} A^T) and
        the remaining parameters follow the left pseudo-inverse action; the
        hidden-sector law is unchanged.  The result is validated and an
        InvalidModel error surfaced if the transformed precision fails
        positive definiteness (possible for dimension-raising A).
        """
        self._require_valid()
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape[1] != self.nv:
            raise ValueError(f"matrix must have {self.nv} columns, got {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError(f"shift must have shape ({a.shape[0]},), got {b.shape}")
        a_plus = numerics.left_pseudo_inverse(a)  # raises RankDeficient
        t_inv = numerics.inverse(self.t, "t")
        t_inv_new = numerics.as_sym(a @ t_inv @ a.T, "transformed t^{-1}")
        try:
            t_new = numerics.inverse(t_inv_new, "transformed t^{-1}")
        except NotPositiveDefinite as exc:
            raise InvalidModel(
                "transformed precision is not positive definite "
                "(dimension-raising transforms are not guaranteed to stay valid)"
            ) from exc
        w_new = a_plus.T @ self.w
        bv_new = a_plus.T @ self.bv - t_new @ b
        bh_new = self.bh - w_new.T @ b
        out = RtbmModel(t_new, self.q, w_new, bv_new, bh_new)
        out.validate()
        return out

    # -- cumulative distribution -------------------------------------------------

    def cdf_visible_1d(self, x, eps=theta.DEFAULT_EPS):
        """P(v <= x) for one-dimensional models, as a weighted sum of normal CDFs."""
        self._require_valid()
        if self.nv != 1:
            raise UnsupportedDimension(
                f"cdf_visible_1d requires nv = 1, got nv = {self.nv}"
            )
        hp = self.hidden_params(eps)
        masses = np.exp(hp.log_weights - hp.log_norm)
        mus = self.conditional_mean(hp.points.astype(float))[:, 0]
        sigma = 1.0 / math.sqrt(self.t[0, 0])
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        # one (n, points) buffer, reused in place: a fresh temporary this
        # large is a new mmap from the allocator, page-faulted on every call
        zc = xs[:, None] - mus[None, :]
        zc /= sigma
        out = np.clip(scipy.special.ndtr(zc, out=zc) @ masses, 0.0, 1.0)
        return float(out[0]) if np.ndim(x) == 0 else out

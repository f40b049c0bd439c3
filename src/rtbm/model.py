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

T, Q and S each have one cached ``lattice.Form`` per model, which derives
the matrix's factor, log det, inverse, shortest vector and dual form once;
S's is part of the one Schur pass, ``RtbmModel.schur``, which also forms
b_h.  The densities need only the value of theta_b, not its points: it
comes from the Poisson-dual form of ``theta._dual_batch`` (certified
relative error r, entered as log V + log1p(r) so that log_norm stays an
upper bound on log theta_b), else from ``hidden_params``.  That primal
point set is the one enumeration of the hidden sector.  The hidden pmf
reads it, and ``RtbmModel._mixture`` builds on it the one mixture table
per epsilon: the normalized masses P(h), the component means mu(h) and,
for the sampler, Walker's alias table over the masses.  The sampler, the
CDF, the moments and both characteristic functions read that table (the
moments and characteristic functions are mass-weighted averages over its
points), so each mu(h) is computed once.  In 1d every mixture
component has the same width, so ``cdf_visible_1d`` evaluates a batch from
small Taylor tables at nodes one width apart, with a remainder bounded by
Cramer's inequality, in place of one normal CDF per point and hidden state.

log P(v) is the Gaussian prefactor plus log theta_tilde(W^T v + B_h | Q)
less log theta_b.  Where Q's Poisson-dual form applies
(``theta._dual_terms``), Jacobi's transformation turns the numerator into a
Gaussian in v times a cosine series whose phases are affine in v, and

    log P(v) = c0 + beta^T v - 1/2 v^T A v
               + log1p(sum_k w_k cos(f_k^T v + phi_k)),

    A    = T - W Q^{-1} W^T   (the Schur complement of Q in the coupling
                               block, so positive definite),
    beta = W Q^{-1} B_h - B_v,
    f_k  = 2 pi W Q^{-1} k,  phi_k = 2 pi B_h^T Q^{-1} k,
    c0   = 1/2 log det T - nv/2 log 2 pi - 1/2 B_v^T T^{-1} B_v
           + nh/2 log 2 pi - 1/2 log det Q + 1/2 B_h^T Q^{-1} B_h
           - log theta_b,

with k over one of each pair +-k of the dual k-set and w_k its weights.
These terms form one density plan per model, epsilon and budget
(``RtbmModel._density``), so a batch costs one product and one cosine per
point and k.  The k-set, the weights and the tail are those of
``theta._dual_batch``, so the numerator keeps its certified relative error
r = tail / (1 - others) <= eps.  Elsewhere the numerator is one
``theta_tilde_batch`` over W^T v + B_h.

All densities are exposed in log domain; theta magnitudes can be
astronomically large, but their logs and ratios are stable.  Only real
cross couplings (phase I of the paper) are modelled; ``from_dict`` rejects
any other phase.
"""

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
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

    ``form`` is the ``lattice.Form`` of the Schur complement
    S = Q - W^T T^{-1} W (symmetrized) and ``bias`` the linear term
    b_h = B_h - W^T T^{-1} B_v.
    """

    form: lattice.Form
    bias: np.ndarray


@dataclass(frozen=True)
class HiddenGaussianParams:
    """Primal point set of the hidden sector, computed once per model and epsilon.

    ``points`` and ``log_weights`` hold the certification ellipsoid of the
    normalizer theta_b with the unnormalized log masses
    -1/2 h^T S h - b_h^T h (S and b_h from ``RtbmModel.schur``);
    ``log_norm`` is log(theta_n + eps(R)), so the enumerated masses sum to
    theta_n / (theta_n + eps(R)) < 1, and ``p_outside`` is the certified
    bound eps(R) / (theta_n + eps(R)) on the mass outside the ellipsoid.
    ``RtbmModel._mixture`` builds the one mixture table over these points.
    """

    points: np.ndarray = field(repr=False)
    log_weights: np.ndarray = field(repr=False)
    log_norm: float
    p_outside: float


class _Mixture:
    """The visible mixture sum_h P(h) N(mu(h), T^{-1}) over the points of
    ``hidden_params``, one table per model and epsilon.

    ``masses`` are P(h) = exp(log_weights - log_norm), which sum to
    1 - p_outside, and ``means`` the component means mu(h), one row per
    point.  The sampler draws from ``alias``, built on first use; the CDF,
    the moments and both characteristic functions read the masses and means.
    """

    def __init__(self, points, masses, means):
        self.points = points
        self.masses = masses
        self.means = means
        self.total = np.sum(masses)

    def average(self, f):
        """sum_h P(h) f(h) / sum_h P(h) over ``points``, for the rows f(h) of ``f``.

        Each component is one contiguous pairwise sum, as the total mass is,
        so f = 1 gives exactly 1.
        """
        f = np.asarray(f, dtype=float)
        cols = np.ascontiguousarray(f.reshape(f.shape[0], -1).T)
        return (np.sum(cols * self.masses, axis=-1) / self.total).reshape(f.shape[1:])

    @functools.cached_property
    def alias(self):
        """Walker's alias table (prob, alias) over ``masses``; see ``_alias_table``."""
        return _alias_table(self.masses)


def _alias_table(masses):
    """Walker's alias table (prob, alias) over ``masses``, by Vose's construction.

    With K points, column j is picked with probability 1/K and gives j with
    probability prob[j], else alias[j]; so point i is drawn with probability
    (prob[i] + sum_{j: alias[j] = i} (1 - prob[j])) / K.  With the scaled
    masses a_i = K m_i / sum m, each small point (a_s < 1) keeps a_s of its
    column and gives the rest to the current large point, whose residual
    a_l - sum (1 - a_s) is kept together with its rounding error (Fast2Sum),
    so the many deficits a large point takes add up no rounding; a large
    point whose residual falls below 1 becomes small.  Zero masses are paired
    first and are no point's alias, so they are never drawn.

    The a_i miss summing to K by a few ulp each, mostly by one rounding they
    all share; the large points give up that excess in proportion to their
    a_i, and what rounding takes from a large point that turns small goes to
    the next one, so neither piles up on the last (the largest mass).  Every
    point's probability is then within a few ulp of its mass, save that each
    small point's own rounding (an ulp at most) lands on a large one, which
    shows relative to it only where many small masses are equal.
    """
    k = masses.size
    scaled = masses * k / np.sum(masses)
    prob = scaled.tolist()
    alias = list(range(k))
    is_large = scaled >= 1.0
    large = np.flatnonzero(is_large).tolist()
    if large:
        # the a_i miss summing to K by this much, mostly one rounding they
        # all share; the large points give it up in proportion to their a_i
        share = -math.fsum(prob + [-float(k)]) / math.fsum(scaled[is_large])
        top = int(np.argmax(scaled))  # at the bottom of the stack: paired last
        large.remove(top)
        large.insert(0, top)
    small = np.flatnonzero(scaled == 0.0).tolist()  # popped first
    small[:0] = np.flatnonzero(~is_large & (scaled > 0.0)).tolist()
    pop = small.pop
    carry = 0.0  # what rounding took from the last large point turned small
    while small and large:
        l = large.pop()
        have = prob[l]
        low = share * have + carry  # the rounding error of have
        while small:
            s = pop()
            alias[s] = l
            need = 1.0 - prob[s]
            rest = have - need
            low += (have - rest) - need  # exact while have >= need
            have = rest
            if rest + low < 1.0:  # l turns small
                prob[l] = rest + low
                carry = (rest - prob[l]) + low
                small.append(l)
                break
        else:
            large.append(l)
    for i in small + large:  # full columns, up to rounding
        prob[i] = 1.0
    return np.array(prob), np.array(alias, dtype=np.intp)


class _DualDensity:
    """log P(v) = c0 + beta^T v - 1/2 v^T A v + log1p(sum_k w_k cos(f_k^T v + phi_k)).

    The envelope form of the module docstring, over the k-set and weights of
    ``theta._dual_terms`` for Q, with ``log_norm`` (log theta_b) in c0.
    """

    def __init__(self, m, terms, log_norm):
        half, self.weights, _ = terms
        q = m._form("q")
        w_q = m.w @ q.inverse
        q_bh = q.inverse @ m.bh
        a = m.t - w_q @ m.w.T
        self.neg_half_a = -0.25 * (a + a.T)
        self.beta = w_q @ m.bh - m.bv
        self.freq = (2.0 * math.pi) * (w_q @ half.T)
        self.phase0 = (2.0 * math.pi) * (half @ q_bh)
        self.c0 = (
            m._log_gauss_norm()
            - 0.5 * float(m.bv @ m._form("t").solve(m.bv))
            + 0.5 * (m.nh * _LOG_2PI - q.log_det)
            + 0.5 * float(m.bh @ q_bh)
            - log_norm
        )

    def __call__(self, v):
        out = theta._dual_series(v, self.freq, self.phase0, self.weights)
        out += np.einsum("ij,ij->i", v @ self.neg_half_a + self.beta, v)
        out += self.c0
        return out


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
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
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
        complement S = Q - W^T T^{-1} W.  Non-finite parameters are reported
        before anything is factored.
        """
        violations = [
            f"{name} is not finite"
            for name in ("t", "q", "w", "bv", "bh")
            if not np.isfinite(getattr(self, name)).all()
        ]
        if violations:
            raise InvalidModel(violations)
        margins = {}
        for name in ("t", "q"):
            try:
                margins[name] = float(np.min(np.diag(self._form(name).low)))
            except NotSymmetric:
                violations.append(f"{name} is not symmetric")
            except NotPositiveDefinite:
                violations.append(f"{name} is not positive definite")
        if "t" in margins:
            try:
                margins["s"] = float(np.min(np.diag(self.schur().form.low)))
            except (NotPositiveDefinite, NotSymmetric):
                violations.append(
                    "schur complement q - w^T t^{-1} w is not positive definite"
                )
        if violations:
            raise InvalidModel(violations)
        self._cache[("valid",)] = True
        return margins

    def is_valid(self):
        try:
            self.validate()
        except InvalidModel:
            return False
        return True

    def _require_valid(self):
        if ("valid",) not in self._cache:
            self.validate()  # caches its success

    # -- derived parameters --------------------------------------------------

    def _form(self, name):
        """The ``lattice.Form`` of T or Q (``name`` "t" or "q"), cached."""
        key = ("form", name)
        if key not in self._cache:
            self._cache[key] = lattice.Form(getattr(self, name), name=name)
        return self._cache[key]

    def schur(self):
        """The Schur pass (the Form of S and b_h, from T^{-1} W), cached.

        Raises NotPositiveDefinite when T or S is not positive definite.
        """
        key = ("schur",)
        if key not in self._cache:
            t_inv_w = self._form("t").solve(self.w)
            omega = self.q - self.w.T @ t_inv_w
            omega = 0.5 * (omega + omega.T)  # derived matrix; round-off asymmetry is ours
            self._set_schur(t_inv_w, lattice.Form(omega, name="schur complement"))
        return self._cache[key]

    def _set_schur(self, t_inv_w, form):
        self._cache[("schur",)] = SchurComplement(
            form=form,
            bias=_freeze(self.bh - t_inv_w.T @ self.bv),
        )

    @classmethod
    def _from_factors(cls, t_low, s_low, w, bv, bh):
        """Model with T = t_low t_low^T and Schur complement S = s_low s_low^T.

        ``t_low`` and ``s_low`` must be lower triangular with a positive
        diagonal.  Q is S + W^T T^{-1} W, so the model is valid by
        construction.  The two factors seed the Forms of T and S (the latter
        in the Schur pass), so neither T nor S is factored or formed again.
        """
        t_form = lattice.Form(t_low @ t_low.T, low=t_low)
        t_inv_w = t_form.solve(w)
        s = s_low @ s_low.T
        q = s + w.T @ t_inv_w
        m = cls(t_form.matrix, 0.5 * (q + q.T), w, bv, bh)
        m._cache[("form", "t")] = t_form
        m._set_schur(t_inv_w, lattice.Form(0.5 * (s + s.T), low=s_low))
        return m

    def hidden_params(self, eps=theta.DEFAULT_EPS, budget=lattice.POINT_BUDGET):
        """Hidden-sector primal point set, cached per (epsilon, budget)."""
        self._require_valid()
        key = ("hidden", eps, budget)
        if key not in self._cache:
            sc = self.schur()
            data = theta._theta_sum(-sc.bias, sc.form, eps, budget=budget)
            tail = data.value.tail_bound
            reduced = abs(data.reduced_sum)
            log_norm = data.max_log_weight + math.log(reduced + tail)
            p_outside = tail / (reduced + tail)
            self._cache[key] = HiddenGaussianParams(
                points=data.points,
                log_weights=data.log_weights,
                log_norm=log_norm,
                p_outside=p_outside,
            )
        return self._cache[key]

    def _mixture(self, eps=theta.DEFAULT_EPS):
        """The visible mixture over the points of ``hidden_params``, cached per epsilon."""
        key = ("mixture", eps)
        if key not in self._cache:
            hp = self.hidden_params(eps)
            self._cache[key] = _Mixture(
                hp.points, np.exp(hp.log_weights - hp.log_norm), self.conditional_mean(hp.points)
            )
        return self._cache[key]

    def _log_norm(self, eps, budget=lattice.POINT_BUDGET):
        """log theta_b for the densities, one cached value per (epsilon, budget).

        The dual form at -b_h over S, log V + log1p(r): the dual sum V is
        within relative error r of theta_b (its k != 0 mass is at most 1/2),
        so V (1 + r) bounds theta_b from above, as the primal
        log(reduced + tail) does.  Where the dual does not apply, the point
        set's ``log_norm``.  The choice depends only on the model, not on
        whether ``hidden_params`` has run, so log P(v) does not either.
        """
        key = ("log_norm", eps, budget)
        if key not in self._cache:
            sc = self.schur()
            dual = theta._dual_batch(-sc.bias[None, :], sc.form, eps, budget)
            if dual is None:
                self._cache[key] = self.hidden_params(eps, budget).log_norm
            else:
                log_mag, _, rel = dual
                self._cache[key] = float(log_mag[0]) + math.log1p(float(rel[0]))
        return self._cache[key]

    def _density(self, eps, budget=lattice.POINT_BUDGET):
        """The envelope form of log P(v) (a ``_DualDensity``), cached per
        (epsilon, budget); None where Q's dual form does not apply."""
        key = ("density", eps, budget)
        if key not in self._cache:
            terms = theta._dual_terms(self._form("q"), eps, budget)
            self._cache[key] = (
                None if terms is None else _DualDensity(self, terms, self._log_norm(eps, budget))
            )
        return self._cache[key]

    def _log_gauss_norm(self):
        """1/2 (log det T - nv log 2 pi), the log normalizer of N(., T^{-1})."""
        return 0.5 * (self._form("t").log_det - self.nv * _LOG_2PI)

    # -- densities ----------------------------------------------------------

    def log_pdf_visible(self, v, eps=theta.DEFAULT_EPS, budget=lattice.POINT_BUDGET):
        """log P(v); accepts one point (nv,) or a batch (n, nv).

        ``budget`` caps the enumerated theta points (PointBudgetExceeded
        beyond it); the default is the lattice module's global cap.  Where
        Q's dual form applies, the value is the envelope form of the module
        docstring, c0 + beta^T v - 1/2 v^T A v + log1p(sum_k w_k
        cos(f_k^T v + phi_k)) with A = T - W Q^{-1} W^T,
        beta = W Q^{-1} B_h - B_v, f_k = 2 pi W Q^{-1} k and
        phi_k = 2 pi B_h^T Q^{-1} k, from the plan of ``_density``; its
        numerator has the dual's certified relative error
        r = tail / (1 - others) <= eps, as before.  Elsewhere the numerator is one ``theta_tilde_batch`` over
        Q at W^T v + B_h.  The normalizer theta_b is the Poisson-dual value
        log V + log1p(r), with r the dual's certified relative error; where
        the dual does not apply, it is the ``log_norm`` of the point set that
        ``hidden_params`` builds.
        """
        self._require_valid()
        v, single = _as_batch(v, self.nv, "v")
        log_norm = self._log_norm(eps, budget)
        density = self._density(eps, budget)
        if density is not None:
            out = density(v)
        else:
            u = v + self._form("t").solve(self.bv)
            quad = np.einsum("ij,jk,ik->i", u, self.t, u)
            log_gauss = self._log_gauss_norm() - 0.5 * quad
            zs = v @ self.w + self.bh
            log_num, _, _ = theta.theta_tilde_batch(zs, self._form("q"), eps, budget=budget)
            out = log_gauss + log_num - log_norm
        return float(out[0]) if single else out

    def log_pmf_hidden(self, h, eps=theta.DEFAULT_EPS):
        """log P(h) for integer hidden states; single (nh,) or batch (n, nh)."""
        self._require_valid()
        h, single = _as_batch(h, self.nh, "h")
        hp = self.hidden_params(eps)
        sc = self.schur()
        log_w = -0.5 * np.einsum("ij,jk,ik->i", h, sc.form.matrix, h) - h @ sc.bias
        out = log_w - hp.log_norm
        return float(out[0]) if single else out

    def conditional_mean(self, h):
        """mu(h) = -T^{-1} (W h + B_v), the mean of P(v | h).

        Each row's value does not depend on the batch it is in, so the
        sampler's table of means and ``sample_conditional`` agree bit for bit.
        """
        self._require_valid()
        hh, single = _as_batch(h, self.nh, "h")
        if hh.shape[0] == 1:
            # numpy multiplies a single row by another BLAS routine, whose
            # rounding can differ from a batch's in the last bit
            wh = (np.repeat(hh, 2, axis=0) @ self.w.T)[:1]
        else:
            wh = hh @ self.w.T
        mu = -self._form("t").solve((wh + self.bv).T).T
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
        """phi_v(r) = E[exp(i r^T v)]; exactly 1 at r = 0.

        The mixture sum_h P(h) exp(i r^T mu(h) - 1/2 r^T T^{-1} r) over the
        points of ``hidden_params`` (the table of ``_mixture``); |error| <= 2
        ``p_outside``, as the omitted terms and the masses' renormalization
        error are each at most that mass.
        """
        self._require_valid()
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if r.shape != (self.nv,):
            raise ValueError(f"r must have shape ({self.nv},), got {r.shape}")
        if not np.isfinite(r).all():
            raise ValueError("r must be finite")
        mix = self._mixture(eps)
        phase = mix.means @ r
        cos, sin = mix.average(np.stack([np.cos(phase), np.sin(phase)], axis=1))
        return complex(cos, sin) * math.exp(-0.5 * (r @ self._form("t").solve(r)))

    def characteristic_hidden(self, r, eps=theta.DEFAULT_EPS):
        """phi_h(r) = E[exp(i r^T h)] over ``hidden_params``, |error| <= 2 ``p_outside``
        (see ``characteristic_visible``); exactly 1 at r = 0."""
        self._require_valid()
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if r.shape != (self.nh,):
            raise ValueError(f"r must have shape ({self.nh},), got {r.shape}")
        if not np.isfinite(r).all():
            raise ValueError("r must be finite")
        mix = self._mixture(eps)
        phase = mix.points @ r
        cos, sin = mix.average(np.stack([np.cos(phase), np.sin(phase)], axis=1))
        return complex(cos, sin)

    # -- hidden moments --------------------------------------------------------

    def hidden_mean(self, eps=theta.DEFAULT_EPS):
        """E[h], the average of h over the points of ``hidden_params``."""
        mix = self._mixture(eps)
        return mix.average(mix.points)

    def hidden_covariance(self, eps=theta.DEFAULT_EPS):
        """cov(h), the average of (h - E[h]) (h - E[h])^T over the same points."""
        mix = self._mixture(eps)
        d = mix.points - self.hidden_mean(eps)
        return mix.average(d[:, :, None] * d[:, None, :])

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
        t_inv_new = a @ self._form("t").inverse @ a.T
        try:
            t_new = lattice.Form(t_inv_new, name="transformed t^{-1}").inverse
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
        """P(v <= x) for one-dimensional models; a scalar gives a float, an
        array keeps its shape.

        F(x) = sum_h m_h Phi(sqrt(T) (x - mu(h))) over the points of
        ``hidden_params``, whose masses m_h sum to M = 1 - ``p_outside``;
        every component has the same width 1 / sqrt(T).  Batches are evaluated
        from Taylor tables, as in the fast Gauss transform (Greengard & Strain
        1991).  The nodes x_j sit one width apart, so every x is within half a
        width of one.  A node that holds at least ``_CDF_NODE_POINTS`` points
        gets the ``_CDF_ORDER`` Taylor coefficients of F in sqrt(T) (x - x_j),
        and each of its points costs one Horner pass.  The other points, and
        nodes whose lower mass F (or upper mass M - F) is below
        ``_CDF_TAIL_MASS``, take the direct sum of normal CDFs, which keeps
        ndtr's relative accuracy in the tails; so does a batch too small to
        pay for tables.  Above the weighted median of the means both paths
        evaluate the upper mass G and return M - G, so values near 1 are not
        sums of many rounded terms and stay non-decreasing.

        |returned - F_true| <= ``p_outside`` + M ``_taylor_remainder(_CDF_ORDER)``
        (6.3e-18) + rounding.  The masses and the omitted states are off by
        at most ``p_outside`` in all; the tables' Lagrange remainder is
        bounded by Cramer's inequality.  Where every component's upper tail
        underflows (x = +inf, or about 38 widths above every mean) the value
        is exactly 1, and at x = -inf and far below it is exactly 0.  NaN
        raises ValueError.
        """
        self._require_valid()
        if self.nv != 1:
            raise UnsupportedDimension(
                f"cdf_visible_1d requires nv = 1, got nv = {self.nv}"
            )
        xs = np.asarray(x, dtype=float)
        if np.isnan(xs).any():
            raise ValueError("x must not be NaN")
        key = ("cdf", eps)
        if key not in self._cache:
            mix = self._mixture(eps)
            self._cache[key] = _VisibleCdf(mix.means[:, 0], mix.masses, math.sqrt(self.t[0, 0]))
        out = self._cache[key](xs.ravel())
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


#: Cramer's constant, rounded up: |He_n(z)| exp(-z^2 / 4) <= _CRAMER sqrt(n!)
#: for every real z and n >= 0 (Abramowitz & Stegun 22.14.17, whose H_n are
#: 2^(n/2) He_n(z sqrt 2)).
_CRAMER = 1.0865


def _taylor_remainder(k):
    """Bound on |Phi(z + d) - sum_{i<k} Phi^(i)(z) d^i / i!| over real z, |d| <= 1/2.

    The Lagrange remainder is Phi^(k)(xi) d^k / k!, and
    Phi^(k) = (-1)^(k-1) He_{k-1} phi with |He_{k-1} phi| <= _CRAMER
    sqrt((k-1)!) / sqrt(2 pi).
    """
    return (_CRAMER / math.sqrt(2.0 * math.pi) * math.sqrt(math.factorial(k - 1))
            * 0.5**k / math.factorial(k))


#: Bound on the CDF tables' Taylor remainder per unit of hidden mass, a tenth
#: of the unit roundoff.
_CDF_TAYLOR_TOL = 1e-17

#: Coefficients per node table: the least order whose remainder meets
#: _CDF_TAYLOR_TOL (21).
_CDF_ORDER = next(k for k in itertools.count(1) if _taylor_remainder(k) <= _CDF_TAYLOR_TOL)

#: Points a node must hold to get a table; fewer take the direct sum.
_CDF_NODE_POINTS = 2 * _CDF_ORDER

#: Building tables costs about a hundred numpy calls, so a batch builds them
#: only when their points would cost at least this many normal CDFs (points
#: times hidden states) on the direct sum.
_CDF_TABLE_TERMS = 1 << 15

#: Nodes whose lower (or upper) mass is below this take the direct sum.
_CDF_TAIL_MASS = 1e-3

#: Elements of one (points x hidden states) block of the direct sum.
_CDF_BLOCK = 1 << 15

#: Points per Horner block: each of its few buffers is 32 KB, so they come
#: from the allocator's heap and are reused from block to block.
_CDF_HORNER_CHUNK = 1 << 12


class _VisibleCdf:
    """F(x) = sum_h m_h Phi(s (x - mu_h)), s = sqrt(T), and its node tables.

    Nodes sit at x_j = split + j / s for integers j, with ``split`` the
    weighted median of the means, where F and G = M - F are both at least
    M / 4.  Up to node 0 the tables and the direct sum give F; from node 1
    on they give G, in the variable -(x - x_j) s, and the result is M - G.
    """

    def __init__(self, mus, masses, scale):
        self.mus = mus
        self.masses = masses
        self.scale = scale
        self.total = float(masses.sum())
        order = mus.argsort(kind="stable")  # on a few hundred points, cheaper than the default
        cum = masses[order].cumsum()
        self.split = float(mus[order[cum.searchsorted(0.5 * cum[-1])]])
        self.upper_from = self.split + 0.5 / scale  # where node 1 begins

    def __call__(self, x):
        out = None
        if x.size * self.mus.size >= _CDF_TABLE_TERMS:
            out = self._tabulated(x)
        if out is None:
            out = self._direct(x)
        return np.clip(out, 0.0, 1.0, out=out)

    def _direct(self, x):
        """The direct sum, at most ``_CDF_BLOCK`` (point, state) pairs at a time."""
        rows = max(1, _CDF_BLOCK // self.mus.size)
        if x.size <= rows:
            return self._block(x)
        out = np.empty(x.size)
        for lo in range(0, x.size, rows):
            out[lo:lo + rows] = self._block(x[lo:lo + rows])
        return out

    def _block(self, x):
        """F at x, or M - G above the split."""
        upper = x > self.upper_from
        z = np.subtract.outer(x, self.mus)
        z *= self.scale
        np.negative(z, out=z, where=upper[:, None])
        mass = scipy.special.ndtr(z, out=z) @ self.masses
        # G is 0 only where every upper tail underflows: F is 1 there, as at +inf
        one = upper & (mass == 0.0)
        np.subtract(self.total, mass, out=mass, where=upper)
        mass[one] = 1.0
        return mass

    def _tabulated(self, x):
        """F at x, with the points of dense, non-tail nodes evaluated from
        their tables and the others by the direct sum; None when no node gets
        a table.

        Besides the result, only the node numbers are as long as the batch;
        the rest works ``_CDF_HORNER_CHUNK`` points at a time, in buffers the
        allocator reuses from chunk to chunk.
        """
        # 41 widths beyond every mean each Phi is exactly 0 or 1, and such
        # nodes are tail nodes; clamping keeps the node numbers finite.
        lo, hi = self.mus.min() - 41.0 / self.scale, self.mus.max() + 41.0 / self.scale
        nodes = np.clip(x, lo, hi)
        nodes -= self.split
        nodes *= self.scale
        np.rint(nodes, out=nodes)
        first = nodes.min()
        nodes -= first
        idx = nodes.astype(np.intp)
        del nodes
        span = int(idx.max()) + 1
        if span <= 2 * x.size:  # memory O(n) either way
            values, counts = first + np.arange(span), np.bincount(idx)
        else:
            values, idx, counts = np.unique(idx, return_inverse=True, return_counts=True)
            values = first + values
        dense = np.flatnonzero(counts >= _CDF_NODE_POINTS)
        if counts[dense].sum() * self.mus.size < _CDF_TABLE_TERMS:
            return None
        j = values[dense]
        z = np.subtract.outer(self.split + j / self.scale, self.mus)
        z *= np.where(j > 0, -self.scale, self.scale)[:, None]
        mass = scipy.special.ndtr(z) @ self.masses  # F(x_j), or G(x_j) above the split
        keep = mass >= _CDF_TAIL_MASS
        if not keep.any():
            return None
        coef = self._tables(z[keep], mass[keep])
        table = np.full(values.size, -1)
        table[dense[keep]] = np.arange(coef.shape[1])
        out = np.empty(x.size)
        rest = []
        for start in range(0, x.size, _CDF_HORNER_CHUNK):
            s = slice(start, start + _CDF_HORNER_CHUNK)
            k = idx[s]
            ix, j = table.take(k), values.take(k)
            upper = j > 0
            d = j / self.scale
            d += self.split
            # a point left to the direct sum (ix = -1) runs through table 0,
            # which mode="clip" picks, on its clamped x: finite values that
            # the direct sum overwrites below, never inf * 0
            np.subtract(np.clip(x[s], lo, hi), d, out=d)
            d *= self.scale
            np.negative(d, out=d, where=upper)
            # one coefficient row at a time: a (_CDF_ORDER, chunk) gather
            # would be a fresh mmap, page-faulted on every call
            acc = coef[-1].take(ix, mode="clip")
            row = np.empty_like(acc)
            for i in range(_CDF_ORDER - 2, -1, -1):
                acc *= d
                acc += coef[i].take(ix, out=row, mode="clip")
            np.subtract(self.total, acc, out=out[s], where=upper)
            np.copyto(out[s], acc, where=~upper)
            direct = np.flatnonzero(ix < 0)
            if direct.size:
                rest.append(direct + start)
        if rest:
            rest = np.concatenate(rest)
            out[rest] = self._direct(x[rest])
        return out

    def _tables(self, z, mass):
        """(``_CDF_ORDER``, nodes) Taylor coefficients of sum_h m_h Phi(z_h + d) in d.

        Row 0 is ``mass``, the value at d = 0, and row k is
        (-1)^(k-1) / k! sum_h m_h He_{k-1}(z_h) phi(z_h), with He from its
        three-term recurrence.  z is clamped to +-40, where phi underflows
        to 0, so He stays finite.
        """
        z = np.clip(z, -40.0, 40.0)
        w = np.exp(-0.5 * z * z) * (self.masses / math.sqrt(2.0 * math.pi))
        coef = np.empty((_CDF_ORDER, z.shape[0]))
        coef[0] = mass
        he_prev, he = np.zeros_like(z), np.ones_like(z)  # He_{-1} = 0, He_0 = 1
        for k in range(1, _CDF_ORDER):
            coef[k] = np.einsum("ij,ij->i", w, he) * ((-1) ** (k - 1) / math.factorial(k))
            if k + 1 < _CDF_ORDER:
                he_prev, he = he, z * he - (k - 1) * he_prev
        return coef

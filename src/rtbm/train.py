"""Maximum-likelihood training via CMA-ES over a feasible reparameterization.

The trainable parameters are packed into one flat vector that cannot leave
the valid region: T and the Schur complement S = Q - W^T T^{-1} W are stored
as lower-triangular Cholesky factors with log-transformed diagonals, and Q
is reconstructed as S + W^T T^{-1} W.  Every finite vector therefore decodes
to a model whose coupling block is positive definite, so the optimizer needs
no penalties or feasibility rejections.

The optimizer is a self-contained standard (mu/mu_w, lambda) CMA-ES:
weighted recombination of the best half of each sampled generation,
cumulative step-size adaptation, and rank-one plus rank-mu covariance
updates.  Likelihoods during search run at a relaxed theta epsilon for
speed; the winning candidate is re-scored at the strict default epsilon.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from . import lattice, theta
from .errors import ObjectiveNonFinite, RtbmError
from .model import RtbmModel
# perfbench/spans.py wraps these names in every module that binds them, so
# they stay bound here although training now reads cached factors instead.
from .numerics import cholesky, solve_spd  # noqa: F401

#: Theta tail error used while the optimizer explores; final scores use
#: theta.DEFAULT_EPS.
TRAIN_EPS = 1e-8

#: Enumeration cap during training; candidates needing more points than this
#: are hopeless fits and are scored +inf instead of being enumerated.
TRAIN_POINT_BUDGET = 200_000


# -- parameter vector codec ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tril_indices(n):
    return np.tril_indices(n)


@functools.lru_cache(maxsize=None)
def _packed_diagonal(n):
    """Positions of the diagonal in a row-major packed lower triangle."""
    return np.cumsum(np.arange(1, n + 1)) - 1


def param_dim(nv, nh):
    """Length of the flat parameter vector for given model dimensions."""
    return nv * (nv + 1) // 2 + nh * (nh + 1) // 2 + nv * nh + nv + nh


def encode(m):
    """Flatten a valid model into an unconstrained parameter vector."""
    parts = []
    for low in (m._form("t").low, m.schur().form.low):
        packed = low[_tril_indices(low.shape[0])].copy()
        packed[_packed_diagonal(low.shape[0])] = np.log(np.diag(low))
        parts.append(packed)
    parts.append(m.w.ravel())
    parts.append(m.bv)
    parts.append(m.bh)
    return np.concatenate(parts)


def _unpack_cholesky(packed, n):
    packed = packed.copy()
    diag = _packed_diagonal(n)
    packed[diag] = np.exp(packed[diag])
    low = np.zeros((n, n))
    low[_tril_indices(n)] = packed
    return low


def decode(vec, nv, nh):
    """Rebuild a model from a flat vector; valid by construction.

    The unpacked factors of T and S seed the model's Forms of T and S, so
    the likelihood factors neither again.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (param_dim(nv, nh),):
        raise ValueError(
            f"expected parameter vector of length {param_dim(nv, nh)}, "
            f"got shape {vec.shape}"
        )
    i = 0
    nt = nv * (nv + 1) // 2
    t_low = _unpack_cholesky(vec[i : i + nt], nv)
    i += nt
    ns = nh * (nh + 1) // 2
    s_low = _unpack_cholesky(vec[i : i + ns], nh)
    i += ns
    w = vec[i : i + nv * nh].reshape(nv, nh)
    i += nv * nh
    bv = vec[i : i + nv]
    i += nv
    bh = vec[i : i + nh]
    return RtbmModel._from_factors(t_low, s_low, w, bv, bh)


# -- likelihood ------------------------------------------------------------------


def negative_log_likelihood(m, data, eps=theta.DEFAULT_EPS, budget=lattice.POINT_BUDGET):
    """-sum_i log P(v_i) over the rows of ``data``."""
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    return -float(m.log_pdf_visible(data, eps, budget=budget).sum())


# -- CMA-ES ------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings; population defaults to 4 + floor(3 ln d).

    Settings that would search nothing raise ValueError on construction;
    the instance is frozen, so they cannot be set afterwards either.
    """

    population: int | None = None
    sigma0: float = 0.3
    max_evals: int = 50_000
    tol_rel: float = 1e-8
    tol_window: int = 50
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        # each of these would search nothing and return the starting model
        if not (math.isfinite(self.sigma0) and self.sigma0 > 0.0):
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        for name in ("max_evals", "restarts", "tol_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.population is not None and self.population < 4:
            raise ValueError(f"population must be >= 4, got {self.population}")

    def resolve_population(self, dim):
        return 4 + int(3 * math.log(dim)) if self.population is None else self.population


@dataclass
class OptResult:
    """Outcome of one CMA-ES run."""

    best_x: np.ndarray
    best_f: float
    evaluations: int
    converged: bool
    trace: list = field(repr=False)
    sigma_trace: list = field(repr=False)


@dataclass
class FitResult:
    """Outcome of a maximum-likelihood fit."""

    model: RtbmModel
    best_nll: float
    nll_refined: float
    evaluations: int
    converged: bool
    trace: list = field(repr=False)
    seed: int = 0
    restart_nlls: list = field(default_factory=list)


def cma_es_minimize(objective, x0, config=None):
    """Standard covariance matrix adaptation evolution strategy.

    Samples ``lambda`` candidates per generation from N(m, sigma^2 C), ranks
    them, recombines the best half with log-decreasing weights, and adapts
    the evolution paths, the step size (cumulative step-size adaptation) and
    the covariance (rank-one plus rank-mu).  Stops on the evaluation budget
    or when the best value improves by less than tol_rel (relative) over
    tol_window generations.  Candidates scoring non-finite are ranked last;
    a non-finite value at the starting point raises ObjectiveNonFinite.
    """
    config = config or TrainConfig()
    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[0]
    lam = config.resolve_population(d)
    mu = lam // 2
    raw = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw / np.sum(raw)
    mu_eff = 1.0 / np.sum(weights**2)

    c_sigma = (mu_eff + 2.0) / (d + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / d) / (d + 4.0 + 2.0 * mu_eff / d)
    c_1 = 2.0 / ((d + 1.3) ** 2 + mu_eff)
    c_mu = min(
        1.0 - c_1,
        2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((d + 2.0) ** 2 + mu_eff),
    )
    chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))

    rng = np.random.default_rng(config.seed)
    mean = x0.copy()
    sigma = float(config.sigma0)
    cov = np.eye(d)
    p_sigma = np.zeros(d)
    p_c = np.zeros(d)
    eig_b = np.eye(d)
    eig_d = np.ones(d)

    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ObjectiveNonFinite(f"objective is {f0} at the starting point")
    best_x, best_f = x0.copy(), f0
    evals = 1
    trace = [best_f]
    sigma_trace = [sigma]
    converged = False
    gen = 0

    while evals + lam <= config.max_evals:
        gen += 1
        z = rng.standard_normal((lam, d))
        y = z * eig_d @ eig_b.T  # rows: B (D z_i)
        xs = mean + sigma * y
        fs = np.empty(lam)
        for i in range(lam):
            fi = objective(xs[i])
            fs[i] = fi if math.isfinite(fi) else np.inf
        evals += lam
        order = np.argsort(fs, kind="stable")
        if fs[order[0]] < best_f:
            best_f = float(fs[order[0]])
            best_x = xs[order[0]].copy()

        y_sel = y[order[:mu]]
        y_w = weights @ y_sel
        mean = mean + sigma * y_w

        inv_sqrt_y = eig_b @ ((eig_b.T @ y_w) / eig_d)
        p_sigma = (1.0 - c_sigma) * p_sigma + math.sqrt(
            c_sigma * (2.0 - c_sigma) * mu_eff
        ) * inv_sqrt_y
        norm_ps = float(np.linalg.norm(p_sigma))
        denom = math.sqrt(1.0 - (1.0 - c_sigma) ** (2 * gen))
        h_sigma = norm_ps / denom < (1.4 + 2.0 / (d + 1.0)) * chi_n
        p_c = (1.0 - c_c) * p_c + (
            math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w if h_sigma else 0.0
        )

        rank_mu = (y_sel.T * weights) @ y_sel
        cov = (
            (1.0 - c_1 - c_mu) * cov
            + c_1 * (np.outer(p_c, p_c) + (0.0 if h_sigma else c_c * (2.0 - c_c)) * cov)
            + c_mu * rank_mu
        )
        cov = 0.5 * (cov + cov.T)
        sigma *= math.exp(min(1.0, (c_sigma / d_sigma) * (norm_ps / chi_n - 1.0)))

        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 1e-30, None)
        eig_d = np.sqrt(vals)
        eig_b = vecs

        trace.append(best_f)
        sigma_trace.append(sigma)
        if len(trace) > config.tol_window:
            past = trace[-config.tol_window - 1]
            if past - best_f <= config.tol_rel * max(1.0, abs(best_f)):
                converged = True
                break

    return OptResult(
        best_x=best_x,
        best_f=best_f,
        evaluations=evals,
        converged=converged,
        trace=trace,
        sigma_trace=sigma_trace,
    )


# -- fitting -----------------------------------------------------------------------


def _initial_vector(data, nv, nh, rng):
    """Start at the best single-Gaussian fit and seed small cross couplings."""
    mean = np.mean(data, axis=0)
    cov = np.cov(data, rowvar=False).reshape(nv, nv)
    cov = cov + 1e-6 * np.trace(cov) / nv * np.eye(nv) + 1e-12 * np.eye(nv)
    t0 = np.linalg.inv(cov)
    t0 = 0.5 * (t0 + t0.T)
    bv0 = -t0 @ mean
    w0 = rng.normal(0.0, 0.1, size=(nv, nh))
    m0 = RtbmModel(t0, np.eye(nh) + w0.T @ np.linalg.solve(t0, w0), w0, bv0, np.zeros(nh))
    return encode(m0)


def _log_ball_volume(g):
    return 0.5 * g * math.log(math.pi) - scipy.special.gammaln(0.5 * g + 1.0)


def _too_many_points(m, eps=TRAIN_EPS, budget=TRAIN_POINT_BUDGET):
    """Cheap point-count estimate of the candidate's hidden-normalizer ellipsoid.

    A candidate whose hidden normalizer would need more than ``budget``
    lattice points is a hopeless fit; skipping it keeps the optimizer from
    spending seconds enumerating a doomed model.  The primal ellipsoid of the
    visible numerator, over Q, never has a larger estimate: S = Q - W^T T^{-1} W
    <= Q gives S_ii <= Q_ii, hence a smaller rho bound and a larger radius for
    S, and det S <= det Q.  S's factor and log det come from the Form of
    the model's cached Schur pass, which the likelihood then reuses.

    ``fit`` runs it only on candidates whose Q has no dual k-set
    (``RtbmModel._q_terms`` is None).  Where that k-set exists it certifies
    the numerator and, re-weighed by S, the normalizer, so no primal
    ellipsoid is built and there is nothing to size.  The name stays as it
    is because the benchmark's span recorder wraps it.
    """
    g = m.nh
    form = m.schur().form
    rho_ub = float(np.min(np.linalg.norm(form.low, axis=1)))
    radius = theta._TailBound(g, rho_ub).solve_radius(math.log(eps))
    log_count = _log_ball_volume(g) + g * math.log(radius + 1.0) - 0.5 * form.log_det
    return log_count > math.log(budget)


def fit(data, nh, config=None):
    """Maximum-likelihood fit of an RTBM with ``nh`` hidden units.

    Runs CMA-ES from a data-driven start, once per restart with fresh seeds,
    and keeps the lowest negative log likelihood.  The search scores at the
    relaxed TRAIN_EPS; the reported ``nll_refined`` re-scores the winning
    model at the strict default epsilon.  ``restart_nlls`` holds each
    restart's best search NLL in seed order, so a stalled restart shows
    against the others.
    """
    config = config or TrainConfig()
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    n, nv = data.shape
    if n < 10:
        raise ValueError(f"need at least 10 samples, got {n}")
    if nh < 1:
        raise ValueError(f"need at least one hidden unit, got {nh}")

    def objective(vec):
        try:
            cand = decode(vec, nv, nh)
            # Q's dual k-set certifies both theta sums; only without it does
            # the likelihood build S's primal ellipsoid, which the pre-check sizes
            if cand._q_terms(TRAIN_EPS, TRAIN_POINT_BUDGET) is None and _too_many_points(cand):
                return np.inf
            return negative_log_likelihood(
                cand, data, TRAIN_EPS, budget=TRAIN_POINT_BUDGET
            )
        except (RtbmError, ValueError, FloatingPointError, np.linalg.LinAlgError):
            return np.inf

    best = None
    total_evals = 0
    restart_nlls = []
    for r in range(config.restarts):
        seed_r = config.seed + r
        rng = np.random.default_rng(seed_r)
        x0 = _initial_vector(data, nv, nh, rng)
        res = cma_es_minimize(objective, x0, dataclasses.replace(config, seed=seed_r))
        total_evals += res.evaluations
        restart_nlls.append(res.best_f)
        if best is None or res.best_f < best[0].best_f:
            best = (res, seed_r)

    res, seed_r = best
    model = decode(res.best_x, nv, nh)
    model.validate()
    refined = negative_log_likelihood(model, data, theta.DEFAULT_EPS)
    return FitResult(
        model=model,
        best_nll=res.best_f,
        nll_refined=refined,
        evaluations=total_evals,
        converged=res.converged,
        trace=res.trace,
        seed=seed_r,
        restart_nlls=restart_nlls,
    )

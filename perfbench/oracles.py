"""Independent reference values for the benchmark's output checks.

Everything here works from a model's public parameter arrays (t, q, w, bv,
bh) with plain numpy sums over the integer hidden lattice, using the RTBM's
defining Gaussian-mixture identity

    P(v) = sum_h N(v; mu(h), T^{-1}) P(h) = sum_h exp(-E(v, h)) / Z,

    E(v, h) = 1/2 h^T Q h + h^T W^T v + 1/2 v^T T v + B_h^T h + B_v^T v,
    P(h) ~ exp(-1/2 h^T S h - b^T h),   S = Q - W^T T^{-1} W,
                                        b = B_h - W^T T^{-1} B_v,
    mu(h) = -T^{-1} (W h + B_v).

Nothing here calls into rtbm, so a defect in the theta kernel, the lattice
enumeration or the certified tail bound cannot hide on both sides of a check.
"""

import math

import numpy as np
import scipy.special

#: Half-width of the scanned hidden box around the prior center, in marginal
#: standard deviations; the prior mass beyond it is below 1e-16.
BOX_SIGMAS = 8.5

#: Radius, in posterior standard deviations (Q-distance), of the stencil of
#: hidden states summed for each visible point; the omitted posterior mass is
#: below 1e-12 of the total.
STENCIL_SIGMAS = 8.0

#: Largest hidden box the oracle will scan.
MAX_BOX_POINTS = 2_000_000

#: Largest (rows x hidden states) block held in memory at once.
BLOCK = 2_000_000

#: Absolute tolerance on log densities (the theta kernel runs at 1e-12).
TOL_LOG_PDF = 1e-8

#: Absolute tolerance on CDF values and on hidden moments.
TOL_VALUE = 1e-9

#: Significance of the KS test applied to every sample batch.
KS_ALPHA = 1e-6

#: Grid points used to bracket the KS distance of a large sample.
KS_GRID = 4096


class OracleError(Exception):
    """The oracle cannot produce a reference value for these inputs."""


def _inv_sym(m):
    inv = np.linalg.inv(m)
    return 0.5 * (inv + inv.T)


def _logsumexp(a, axis=None):
    top = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis) if axis is not None else float(out.ravel()[0])


def _lattice_box(center, half_widths, form=None, radius=None):
    """Integer points of the box center +- half_widths, optionally cut to an
    ellipsoid d^T form d <= radius^2 around the origin."""
    axes = [np.arange(math.floor(c - h), math.ceil(c + h) + 1) for c, h in zip(center, half_widths)]
    size = math.prod(len(a) for a in axes)
    if size > MAX_BOX_POINTS:
        raise OracleError(f"hidden box of {size} points exceeds {MAX_BOX_POINTS}")
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    if form is not None:
        pts = pts[np.einsum("ij,jk,ik->i", pts, form, pts) <= radius * radius]
    return pts


class MixtureOracle:
    """Reference densities, CDF and hidden moments of one model."""

    def __init__(self, t, q, w, bv, bh):
        self.t = np.atleast_2d(np.asarray(t, dtype=float))
        self.q = np.atleast_2d(np.asarray(q, dtype=float))
        self.w = np.atleast_2d(np.asarray(w, dtype=float))
        self.bv = np.atleast_1d(np.asarray(bv, dtype=float))
        self.bh = np.atleast_1d(np.asarray(bh, dtype=float))
        self.nv, self.nh = self.w.shape
        t_inv = _inv_sym(self.t)
        s = self.q - self.w.T @ t_inv @ self.w
        s = 0.5 * (s + s.T)
        b = self.bh - self.w.T @ t_inv @ self.bv
        sign, log_det_t = np.linalg.slogdet(self.t)
        if sign <= 0 or np.linalg.eigvalsh(s)[0] <= 0.0 or np.linalg.eigvalsh(self.q)[0] <= 0.0:
            raise OracleError("model is not positive definite")
        self.q_inv = _inv_sym(self.q)

        # Prior P(h) on a box around its center.
        s_inv = _inv_sym(s)
        self.points = _lattice_box(-s_inv @ b, BOX_SIGMAS * np.sqrt(np.diag(s_inv)))
        log_w = -0.5 * np.einsum("ij,jk,ik->i", self.points, s, self.points) - self.points @ b
        log_w_sum = _logsumexp(log_w)
        self.log_mass = log_w - log_w_sum
        self.mus = -(self.points @ self.w.T + self.bv) @ t_inv

        # Z = sum_h int exp(-E(v, h)) dv, from the same prior sum.
        self.log_z = (
            log_w_sum + 0.5 * self.bv @ t_inv @ self.bv
            + 0.5 * (self.nv * math.log(2.0 * math.pi) - log_det_t)
        )

        # Offsets from the rounded posterior center that cover every hidden
        # state within STENCIL_SIGMAS of the exact center; rounding moves the
        # center by at most the Q-norm of a half-unit cube corner.
        corners = (np.indices((2,) * self.nh).reshape(self.nh, -1).T - 0.5)
        shift = math.sqrt(float(np.max(np.einsum("ij,jk,ik->i", corners, self.q, corners))))
        radius = STENCIL_SIGMAS + shift
        self.stencil = _lattice_box(
            np.zeros(self.nh), radius * np.sqrt(np.diag(self.q_inv)), self.q, radius
        )
        self.stencil_q = 0.5 * np.einsum("ij,jk,ik->i", self.stencil, self.q, self.stencil)

    @classmethod
    def of(cls, m):
        return cls(m.t, m.q, m.w, m.bv, m.bh)

    def log_pdf(self, v):
        """log P(v) = log sum_h exp(-E(v, h)) - log Z over each v's stencil."""
        v = np.asarray(v, dtype=float).reshape(-1, self.nv)
        g = self.bh + v @ self.w  # coefficient of h in E(v, h)
        base = np.round(-g @ self.q_inv)
        # -E(v, base + d) = -1/2 d^T Q d - d^T (Q base + g) + e0(v)
        lin = base @ self.q + g
        e0 = (
            -0.5 * np.einsum("ij,jk,ik->i", base, self.q, base) - np.sum(base * g, axis=1)
            - 0.5 * np.einsum("ij,jk,ik->i", v, self.t, v) - v @ self.bv
        )
        out = np.empty(v.shape[0])
        step = max(1, BLOCK // self.stencil.shape[0])
        for i in range(0, v.shape[0], step):
            expo = -(lin[i : i + step] @ self.stencil.T) - self.stencil_q
            out[i : i + step] = _logsumexp(expo, axis=1)
        return e0 + out - self.log_z

    def nll(self, data):
        return -float(np.sum(self.log_pdf(data)))

    def cdf(self, x):
        """sum_h P(h) Phi((x - mu(h)) sqrt(T)) over the prior box."""
        if self.nv != 1:
            raise OracleError("the CDF oracle needs a one-dimensional visible sector")
        x = np.asarray(x, dtype=float).ravel()
        mass, mus = np.exp(self.log_mass), self.mus[:, 0]
        scale = math.sqrt(self.t[0, 0])
        out = np.empty(x.shape[0])
        step = max(1, BLOCK // mus.shape[0])
        for i in range(0, x.shape[0], step):
            out[i : i + step] = scipy.special.ndtr((x[i : i + step, None] - mus[None, :]) * scale) @ mass
        return out

    def hidden_moments(self):
        mass = np.exp(self.log_mass)
        mean = mass @ self.points
        cov = (self.points.T * mass) @ self.points - np.outer(mean, mean)
        return mean, 0.5 * (cov + cov.T)

    def ks_bracket(self, samples, grid=KS_GRID):
        """Bounds (low, high) on sup_x |S_n(x) - F(x)| for a 1d sample.

        F is evaluated only at order statistics of evenly spaced ranks; the
        exact deviations there give the lower bound, and monotonicity of S_n
        and F between neighbouring grid points gives the upper bound.  With
        at most ``grid`` samples the two bounds coincide with the exact value.
        """
        x = np.sort(np.asarray(samples, dtype=float).ravel())
        n = x.size
        idx = np.unique(np.linspace(0, n - 1, min(grid, n)).astype(np.int64))
        f = self.cdf(x[idx])
        exact = np.maximum((idx + 1) / n - f, f - idx / n)
        between = np.maximum(idx[1:] / n - f[:-1], f[1:] - (idx[:-1] + 1) / n)
        return float(exact.max()), float(max(exact.max(), between.max(initial=0.0)))


def ks_threshold(n, alpha=KS_ALPHA):
    """DKW bound: P(KS distance > threshold) <= alpha for an exact sampler."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


# -- checks: each returns a list of problems, empty when the output passes ----


def check_nll(oracle, data, got):
    want = oracle.nll(data)
    tol = TOL_LOG_PDF * np.asarray(data).shape[0]
    if not abs(got - want) <= tol:
        return [f"nll {got!r} differs from mixture identity {want!r} by more than {tol:.1e}"]
    return []


def check_log_pdf(oracle, v, got):
    err = float(np.max(np.abs(np.asarray(got) - oracle.log_pdf(v)), initial=0.0))
    if not err <= TOL_LOG_PDF:
        return [f"log_pdf_visible is off the mixture identity by {err:.3e} (> {TOL_LOG_PDF:.0e})"]
    return []


def check_cdf(oracle, x, got):
    err = float(np.max(np.abs(np.asarray(got) - oracle.cdf(x)), initial=0.0))
    if not err <= TOL_VALUE:
        return [f"cdf_visible_1d is off the normal-CDF mixture by {err:.3e} (> {TOL_VALUE:.0e})"]
    return []


def check_sample(oracle, samples):
    n = np.asarray(samples).size
    _, high = oracle.ks_bracket(samples)
    limit = ks_threshold(n)
    if not high <= limit:
        return [f"KS distance of {n} samples is up to {high:.4f} > {limit:.4f} (alpha {KS_ALPHA:.0e})"]
    return []


def check_report_ks(oracle, samples, got):
    low, high = oracle.ks_bracket(samples)
    tol = 10 * TOL_VALUE
    if not low - tol <= got <= high + tol:
        return [f"report ks {got!r} lies outside the oracle bracket [{low!r}, {high!r}]"]
    return []


def check_moments(oracle, mean, cov):
    want_mean, want_cov = oracle.hidden_moments()
    err = max(
        float(np.max(np.abs(np.asarray(mean) - want_mean))),
        float(np.max(np.abs(np.asarray(cov) - want_cov))),
    )
    scale = 1.0 + float(np.max(np.abs(want_cov)))
    if not err <= TOL_VALUE * scale:
        return [f"hidden moments are off the box sums by {err:.3e}"]
    return []

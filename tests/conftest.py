"""Shared oracles and factories for the test suite.

The brute-force helpers here are deliberately independent of the library's
evaluation path: plain box sums over the integer lattice, direct quadratic
scans, and quadrature.  Expected values in the tests are computed from
these oracles (or verified against them), never from the code under test.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from rtbm.model import RtbmModel


def brute_force_theta(z, omega, half=25):
    """Box sum of exp(-1/2 n^T Omega n + n^T z) as (log magnitude, phase)."""
    omega = np.asarray(omega, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    g = omega.shape[0]
    grids = np.meshgrid(*[np.arange(-half, half + 1)] * g, indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1).astype(float)
    expo = -0.5 * np.einsum("ij,jk,ik->i", pts, omega, pts) + pts @ z
    m = float(np.max(expo.real))
    total = np.sum(np.exp(expo - m))
    return m + np.log(abs(total)), float(np.angle(total))


def brute_force_theta_moments(z, omega, half=25):
    """(value, first-moment vector, second-moment matrix) ratios by box sum."""
    omega = np.asarray(omega, dtype=float)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    g = omega.shape[0]
    grids = np.meshgrid(*[np.arange(-half, half + 1)] * g, indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1).astype(float)
    expo = -0.5 * np.einsum("ij,jk,ik->i", pts, omega, pts) + pts @ z
    w = np.exp(expo - np.max(expo.real))
    total = np.sum(w)
    first = pts.T @ w / total
    second = (pts.T * w) @ pts / total
    return total, first, second


def _box_points(g, half):
    grids = np.meshgrid(*[np.arange(-half, half + 1)] * g, indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1).astype(float)
    on_face = np.max(np.abs(pts), axis=1) == half
    return pts, on_face


def _box_logsumexp(on_face, expo_of, ncols, chunk):
    """Column-wise log sum of exp(expo_of(cols)) over the box; None if short.

    A box is short when some column's largest term on the box faces is not
    below e^-40 of its largest term overall.
    """
    out = np.empty(ncols)
    for lo in range(0, ncols, chunk):
        expo = expo_of(slice(lo, min(lo + chunk, ncols)))
        top = np.max(expo, axis=0)
        if np.any(np.max(expo[on_face], axis=0) > top - 40.0):
            return None
        out[lo:lo + expo.shape[1]] = top + np.log(np.sum(np.exp(expo - top), axis=0))
    return out


def brute_force_log_pdf_visible(m, v, max_half=48):
    """log P(v) by box sums of the joint density exp(-E(v, h)) over Z^nh.

    Uses only the raw parameters (T, Q, W, B_v, B_h) and numpy.  The
    normalizer integrates v out in closed form, leaving a second box sum.
    The box half-width doubles from 4 until, for every v and for the
    normalizer, the terms on the box faces are below e^-40 of the largest
    term; RuntimeError if that needs more than ``max_half``.
    """
    t, q, w, bv, bh = m.t, m.q, m.w, m.bv, m.bh
    v = np.asarray(v, dtype=float).reshape(-1, t.shape[0])
    nv, g = w.shape
    zs = (v @ w + bh).T  # (g, n): the joint exponent is linear in h through these
    log_gauss_v = -0.5 * np.einsum("ij,jk,ik->i", v, t, v) - v @ bv
    _, log_det_t = np.linalg.slogdet(t)
    half = 4
    while True:
        pts, on_face = _box_points(g, half)
        quad_q = -0.5 * np.einsum("ij,jk,ik->i", pts, q, pts)
        c = pts @ w.T + bv  # (P, nv): W h + B_v
        norm_expo = quad_q - pts @ bh + 0.5 * np.einsum(
            "ij,ij->i", c, np.linalg.solve(t, c.T).T
        )
        log_norm = _box_logsumexp(on_face, lambda s: norm_expo[:, None], 1, 1)
        chunk = max(1, 4_000_000 // len(pts))
        log_num = _box_logsumexp(
            on_face, lambda s: quad_q[:, None] - pts @ zs[:, s], len(v), chunk
        )
        if log_norm is not None and log_num is not None:
            break
        if half >= max_half:
            raise RuntimeError(
                f"box sum not converged at half-width {half} (cap {max_half})"
            )
        half = min(2 * half, max_half)
    log_z = 0.5 * nv * np.log(2.0 * np.pi) - 0.5 * log_det_t + log_norm[0]
    return log_gauss_v + log_num - log_z


def brute_force_cdf_visible_1d(m, x, max_half=48):
    """P(v <= x) of an nv = 1 model by a box sum over Z^nh.

    Uses only the raw parameters and numpy/scipy: P(h) is proportional to
    exp(-1/2 h^T S h - b^T h) with S = Q - W^T W / T and b = B_h - W^T B_v / T
    formed here, and the CDF is sum_h P(h) Phi(sqrt(T) (x - mu(h))) with
    mu(h) = -(W h + B_v) / T.  The box half-width doubles from 4 until every
    log weight on the box faces is 50 below the largest; RuntimeError if that
    needs more than ``max_half``.  States 60 below the largest log weight are
    dropped (their total mass is far below 1e-16).
    """
    t = float(m.t[0, 0])
    w = m.w[0]
    s = m.q - np.outer(w, w) / t
    b = m.bh - w * m.bv[0] / t
    half = 4
    while True:
        pts, on_face = _box_points(w.size, half)
        log_w = -0.5 * np.einsum("ij,jk,ik->i", pts, s, pts) - pts @ b
        if np.max(log_w[on_face]) < np.max(log_w) - 50.0:
            break
        if half >= max_half:
            raise RuntimeError(f"box sum not converged at half-width {half} (cap {max_half})")
        half = min(2 * half, max_half)
    keep = log_w > np.max(log_w) - 60.0
    mass = np.exp(log_w[keep] - np.max(log_w))
    mass /= np.sum(mass)
    mus = -(pts[keep] @ w + m.bv[0]) / t
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(x.size)
    for lo in range(0, x.size, 256):
        z = (x[lo:lo + 256, None] - mus[None, :]) * np.sqrt(t)
        out[lo:lo + 256] = scipy.special.ndtr(z) @ mass
    return out


def brute_force_ellipsoid(omega, center, radius):
    """All integer points with (n-c)^T Omega (n-c) <= R^2 by box scan."""
    omega = np.asarray(omega, dtype=float)
    center = np.asarray(center, dtype=float)
    g = omega.shape[0]
    lam_min = np.linalg.eigvalsh(omega)[0]
    half = int(np.ceil(radius / np.sqrt(lam_min))) + int(np.ceil(np.max(np.abs(center)))) + 1
    grids = np.meshgrid(*[np.arange(-half, half + 1)] * g, indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=1)
    diff = pts - center
    q = np.einsum("ij,jk,ik->i", diff, omega, diff)
    return pts[q <= radius * radius]


def random_pd_matrix(rng, n, ridge=1.0):
    g = rng.normal(size=(n, n))
    return g.T @ g + ridge * np.eye(n)


def random_valid_model(rng, nv=None, nh=None, w_scale=0.7, b_scale=0.5):
    """Random model that is valid by construction (Q built from a PD Schur)."""
    nv = nv or int(rng.integers(1, 4))
    nh = nh or int(rng.integers(1, 4))
    t = random_pd_matrix(rng, nv)
    s = random_pd_matrix(rng, nh, ridge=0.5)
    w = rng.normal(scale=w_scale, size=(nv, nh))
    q = s + w.T @ np.linalg.solve(t, w)
    return RtbmModel(
        t,
        0.5 * (q + q.T),
        w,
        rng.normal(scale=b_scale, size=nv),
        rng.normal(scale=b_scale, size=nh),
    )


@pytest.fixture
def test_model_1d():
    """The 1d reference model: T=1, Q=2, W=1, B=0 (Schur complement 1)."""
    return RtbmModel([[1.0]], [[2.0]], [[1.0]], [0.0], [0.0])


@pytest.fixture
def serve_doc():
    """The benchmark's committed serving model (nv=1, nh=2), as its JSON document."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "serve_model.json"
    return json.loads(path.read_text())

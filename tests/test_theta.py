import itertools
import math
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtbm import lattice, theta
from rtbm.errors import NotPositiveDefinite

from conftest import brute_force_theta, random_pd_matrix


def log_theta(z, omega, eps=1e-13):
    value = theta.theta_tilde(z, omega, eps)
    return complex(value.log_magnitude, value.phase)


class TestThetaTilde:
    def test_scalar_reference_value(self):
        # brute force sum of exp(-n^2) over |n| <= 10
        value = theta.theta_tilde([0.0], [[2.0]])
        brute = np.sum(np.exp(-np.arange(-10, 11) ** 2.0))
        npt.assert_allclose(np.exp(value.log_magnitude), brute, atol=1e-12)
        npt.assert_allclose(np.exp(value.log_magnitude), 1.7726372, atol=1e-6)
        assert value.phase == 0.0

    def test_diagonal_omega_factorizes(self):
        q1, q2 = 1.3, 2.4
        joint = theta.theta_tilde([0.0, 0.0], np.diag([q1, q2]))
        a = theta.theta_tilde([0.0], [[q1]])
        b = theta.theta_tilde([0.0], [[q2]])
        npt.assert_allclose(
            joint.log_magnitude, a.log_magnitude + b.log_magnitude, rtol=1e-12
        )

    def test_quasi_periodicity(self):
        # theta(z + Omega m) = exp(1/2 m^T Omega m + m^T z) theta(z)
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = int(rng.integers(1, 3))
            omega = random_pd_matrix(rng, g)
            z = rng.uniform(-1, 1, g) + 1j * rng.uniform(-1, 1, g)
            m = rng.integers(-2, 3, g).astype(float)
            lhs = log_theta(z + omega @ m, omega)
            rhs = log_theta(z, omega) + (0.5 * m @ omega @ m + m @ z)
            npt.assert_allclose(np.exp(lhs - rhs), 1.0, rtol=1e-9)

    def test_unrescaled_periodicity_through_rescaling(self):
        # theta(z + m | tau) = theta(z | tau) for integer m, tau = i Y:
        # in rescaled form both sides are theta_tilde(2 pi i z | 2 pi Y).
        rng = np.random.default_rng(1)
        y = random_pd_matrix(rng, 2)
        z = rng.uniform(-0.4, 0.4, 2)
        m = np.array([1.0, -2.0])
        lhs = log_theta(2j * np.pi * (z + m), 2 * np.pi * y)
        rhs = log_theta(2j * np.pi * z, 2 * np.pi * y)
        npt.assert_allclose(np.exp(lhs - rhs), 1.0, rtol=1e-9)

    def test_brute_force_oracle_small(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            g = int(rng.integers(1, 4))
            omega = random_pd_matrix(rng, g)
            z = rng.uniform(-3, 3, g) + 1j * rng.uniform(-3, 3, g)
            value = theta.theta_tilde(z, omega, 1e-12)
            log_mag, phase = brute_force_theta(z, omega)
            rel = abs(np.exp(complex(value.log_magnitude - log_mag, value.phase - phase)) - 1)
            assert rel < 1e-10
            assert value.tail_bound <= 1e-12 * (1 + 1e-9)

    def test_scalar_high_precision_vs_wide_box(self):
        value = theta.theta_tilde([0.0], [[2.0]], 1e-12)
        brute = np.sum(np.exp(-np.arange(-30, 31) ** 2.0))
        assert abs(np.exp(value.log_magnitude) - brute) <= 1e-12

    def test_log_domain_handles_huge_exponents(self):
        # max real exponent ~ 700 would overflow a direct sum
        omega = np.array([[2.0]])
        z = np.array([53.0])  # e_cont = z^2 / (2 omega) ~ 702
        value = theta.theta_tilde(z, omega)
        log_mag, _ = brute_force_theta(z, omega, half=60)
        assert np.isfinite(value.log_magnitude)
        assert value.log_magnitude > 690.0
        npt.assert_allclose(value.log_magnitude, log_mag, rtol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("scale", [0.5, 50.0])  # det below and above (2 pi)^2
    def test_epsilon_outside_unit_interval_rejected(self, eps, scale):
        # eps >= 1 certifies nothing, and the primal batch's base set need not
        # hold every argument's best point there.
        omega = scale * np.eye(2)
        with pytest.raises(ValueError, match="epsilon"):
            theta.theta_tilde([0.1, 0.2], omega, eps)
        with pytest.raises(ValueError, match="epsilon"):
            theta.theta_tilde_batch([[0.1, 0.2], [0.2, 0.4]], omega, eps)

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            theta.theta_tilde([0.0], [[-1.0]])

    def test_tail_bound_below_requested(self):
        rng = np.random.default_rng(3)
        for eps in (1e-6, 1e-10, 1e-14):
            omega = random_pd_matrix(rng, 2)
            z = rng.uniform(-2, 2, 2)
            value = theta.theta_tilde(z, omega, eps)
            assert value.tail_bound <= eps * (1 + 1e-9)

    def test_halving_epsilon_never_decreases_points(self):
        rng = np.random.default_rng(4)
        omega = random_pd_matrix(rng, 2)
        z = rng.uniform(-2, 2, 2)
        eps = 1e-4
        last = 0
        for _ in range(20):
            count = theta.theta_tilde(z, omega, eps).point_count
            assert count >= last
            last = count
            eps /= 2.0


class TestRadiusForEpsilon:
    def test_monotone_in_epsilon(self):
        omega = np.array([[2.0]])
        rho = lattice.Form(omega).rho
        radii = [theta.radius_for_epsilon(omega, eps, rho) for eps in (1e-4, 1e-8, 1e-12)]
        assert radii[0] <= radii[1] <= radii[2]

    def test_certifies_the_tail(self):
        omega = np.array([[2.0]])
        rho = lattice.Form(omega).rho
        r = theta.radius_for_epsilon(omega, 1e-12, rho)
        # true tail of the centered sum beyond r
        n = np.arange(-60, 61)
        q = np.sqrt(2.0) * np.abs(n)
        true_tail = np.sum(np.exp(-(n**2.0))[q > r])
        assert true_tail <= 1e-12

    def test_coarser_lattice_never_needs_larger_radius(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            omega = random_pd_matrix(rng, 2, ridge=0.5)
            r1 = theta.radius_for_epsilon(omega, 1e-12, lattice.Form(omega).rho)
            r4 = theta.radius_for_epsilon(4 * omega, 1e-12, lattice.Form(4 * omega).rho)
            assert r4 <= r1 + 1e-9


def reference_log_tail_bound(g, rho, radius):
    """The tail bound of the module docstring from scipy's regularized gamma."""
    s = 0.5 * np.arange(g + 1) + 1.0
    terms = (
        np.log([math.comb(g, k) for k in range(g + 1)])
        + np.arange(g + 1) * np.log(2.0 * np.sqrt(2.0) / rho)
        + np.log(scipy.special.gammaincc(s, 0.5 * radius * radius))
        + scipy.special.gammaln(s)
    )
    return float(scipy.special.logsumexp(terms))


class TestRadiusSolve:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        g=st.integers(1, 4),
        rho=st.floats(0.05, 20.0),
        radius=st.floats(0.0, 14.0),
    )
    def test_log_bound_matches_incomplete_gamma(self, g, rho, radius):
        got = theta._TailBound(g, rho).log_bound(radius)
        npt.assert_allclose(got, reference_log_tail_bound(g, rho, radius), rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        g=st.integers(1, 4),
        rho=st.floats(0.05, 20.0),
        log_eps=st.floats(-50.0, -2.0),
        gap=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    )
    def test_certified_tight_and_cheap(self, g, rho, log_eps, gap):
        bound = theta._TailBound(g, rho)
        calls = []

        def counting(radius, _inner=bound.log_bound):
            calls.append(radius)
            return _inner(radius)

        bound.log_bound = counting
        target = log_eps - gap
        radius = bound.solve_radius(target)
        assert len(calls) <= 5
        assert reference_log_tail_bound(g, rho, radius) <= target
        # smallest certified radius, by bisection on the reference bound
        lo, hi = 0.0, radius
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if reference_log_tail_bound(g, rho, mid) > target:
                lo = mid
            else:
                hi = mid
        assert radius <= hi * (1.0 + 1e-3)


class TestThetaBatch:
    def test_matches_single_evaluations(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            g = int(rng.integers(1, 4))
            omega = random_pd_matrix(rng, g)
            zs = rng.uniform(-4, 4, (30, g))
            if rng.random() < 0.5:
                zs = zs + 1j * rng.uniform(-2, 2, (30, g))
            log_mag, phase, tail = theta.theta_tilde_batch(zs, omega, 1e-12)
            for i in range(zs.shape[0]):
                single = theta.theta_tilde(zs[i], omega, 1e-12)
                npt.assert_allclose(log_mag[i], single.log_magnitude, atol=1e-10)
                assert abs(np.angle(np.exp(1j * (phase[i] - single.phase)))) < 1e-10
                assert tail[i] <= 1e-12 * (1 + 1e-9)

    def test_reassociation_stability(self, monkeypatch):
        # summation partitioning (chunk size) must not change results beyond
        # floating point reassociation noise
        rng = np.random.default_rng(11)
        omega = random_pd_matrix(rng, 2)
        zs = rng.uniform(-3, 3, (100, 2))
        b = theta.theta_tilde_batch(zs, omega)[0]
        monkeypatch.setattr(theta, "_CHUNK", 7)
        a = theta.theta_tilde_batch(zs, omega)[0]
        npt.assert_allclose(a, b, rtol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_single_argument_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            theta.theta_tilde([0.5, bad], np.eye(2))

    @pytest.mark.parametrize("scale, dual", [(0.5, True), (50.0, False)])  # det vs (2 pi)^2
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_argument_rejected(self, scale, dual, bad):
        form = lattice.Form(scale * np.eye(2))
        ones = np.ones((1, 2))
        assert (theta._dual_batch(ones, form, 1e-12, lattice.POINT_BUDGET) is not None) == dual
        with pytest.raises(ValueError, match="finite"):
            theta.theta_tilde_batch([[0.5, 0.0], [bad, 0.0]], form, 1e-12)

    @pytest.mark.parametrize("scale, dual", [(0.5, True), (50.0, False)])  # det vs (2 pi)^2
    def test_real_arguments_agree_in_any_layout(self, scale, dual):
        # a real batch gives the same bits as an array, a list, a Fortran
        # array or the real part of a complex array with zero imaginary part
        form = lattice.Form(scale * np.array([[1.0, 0.3], [0.3, 0.8]]))
        assert (theta._dual_terms(form, 1e-12, lattice.POINT_BUDGET) is not None) == dual
        xs = np.random.default_rng(12).uniform(-3.0, 3.0, (40, 2))
        real = theta.theta_tilde_batch(xs, form, 1e-12)
        for zs in (xs.tolist(), np.asfortranarray(xs), xs.astype(complex)):
            for a, b in zip(theta.theta_tilde_batch(zs, form, 1e-12), real):
                npt.assert_array_equal(a, b)


@st.composite
def ill_conditioned_forms(draw):
    """(g, Omega): eigenvalues from lam_min in [0.3, 3] up to lam_min * cond,
    cond in [1, 1e3], in a random orientation; det Omega falls on both sides
    of (2 pi)^g."""
    g = draw(st.integers(1, 3))
    lam_min = draw(st.floats(0.3, 3.0))
    cond = draw(st.floats(1.0, 1e3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = np.sort(rng.uniform(0.0, 1.0, g))
    spread[0], spread[-1] = 0.0, 1.0 if g > 1 else spread[-1]
    lam = lam_min * cond**spread
    rot, _ = np.linalg.qr(rng.normal(size=(g, g)))
    omega = rot @ np.diag(lam) @ rot.T
    return g, 0.5 * (omega + omega.T), rng


def _box_half(z, omega):
    """Half-width of a box sum accurate to 1e-10 at this Omega and argument."""
    lam_min = np.linalg.eigvalsh(omega)[0]
    center = np.linalg.solve(omega, np.real(z))
    return int(np.max(np.abs(center)) + np.sqrt(100.0 / lam_min)) + 2


def _box_reference(x, omega):
    """brute_force_theta with a box wide enough for 1e-10 at this Omega."""
    return brute_force_theta(x, omega, half=_box_half(x, omega))[0]


class TestThetaBatchDual:
    """The Poisson-dual batch path against box sums and theta identities."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ill_conditioned_forms())
    def test_matches_brute_force(self, case):
        g, omega, rng = case
        xs = rng.uniform(-3.0, 3.0, (4, g))
        log_mag, phase, tail = theta.theta_tilde_batch(xs, omega, 1e-12)
        for i in range(xs.shape[0]):
            assert abs(log_mag[i] - _box_reference(xs[i], omega)) < 1e-10
        npt.assert_array_equal(phase, 0.0)
        assert np.all(tail <= 1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ill_conditioned_forms())
    def test_quasi_periodicity(self, case):
        # theta(x + Omega m) = exp(1/2 m^T Omega m + m^T x) theta(x)
        g, omega, rng = case
        xs = rng.uniform(-2.0, 2.0, (6, g))
        ms = rng.integers(-2, 3, (6, g)).astype(float)
        base = theta.theta_tilde_batch(xs, omega, 1e-12)[0]
        moved = theta.theta_tilde_batch(xs + ms @ omega, omega, 1e-12)[0]
        expected = (
            base + 0.5 * np.einsum("ij,jk,ik->i", ms, omega, ms) + np.sum(ms * xs, axis=1)
        )
        npt.assert_allclose(moved, expected, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("dual", [True, False])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=ill_conditioned_forms())
    def test_even_in_the_argument(self, case, dual):
        # theta(-x) = theta(x): the summation lattice is symmetric under n -> -n.
        g, omega, rng = case
        xs = rng.uniform(-3.0, 3.0, (5, g))
        form = lattice.Form(omega)
        assume((theta._dual_batch(xs, form, 1e-12, lattice.POINT_BUDGET) is not None) == dual)
        plus = theta.theta_tilde_batch(xs, omega, 1e-12)
        minus = theta.theta_tilde_batch(-xs, omega, 1e-12)
        npt.assert_allclose(minus[0], plus[0], rtol=1e-13, atol=1e-12)
        npt.assert_array_equal(minus[2], plus[2])

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_dual_used_below_threshold(self, g):
        omega = np.eye(g)  # det 1 < (2 pi)^g; k != 0 mass about 2g e^{-2 pi^2}
        xs = np.random.default_rng(g).uniform(-3.0, 3.0, (5, g))
        dual = theta._dual_batch(xs, lattice.Form(omega), 1e-12, lattice.POINT_BUDGET)
        assert dual is not None
        for i in range(xs.shape[0]):
            assert abs(dual[0][i] - _box_reference(xs[i], omega)) < 1e-10
        assert np.all(dual[2] <= 1e-12)

    @pytest.mark.parametrize("scale", [0.5, 50.0])  # det below and above (2 pi)^2
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_empty_batch_on_every_path(self, scale, dtype):
        omega = scale * np.eye(2)
        zs = np.empty((0, 2), dtype=dtype)
        out = theta.theta_tilde_batch(zs, omega, 1e-12)
        assert [a.shape for a in out] == [(0,)] * 3

    def test_primal_above_threshold(self):
        omega = 50.0 * np.eye(1)  # det > 2 pi
        xs = np.ones((2, 1))
        assert theta._dual_batch(xs, lattice.Form(omega), 1e-12, lattice.POINT_BUDGET) is None

    def test_guard_failure_falls_back_to_primal(self):
        # det 144 < (2 pi)^3, but the four dual vectors +-e1, +-e2 carry
        # 4 exp(-2 pi^2 / 12) = 0.77 > 1/2 of the k = 0 term, while one pair
        # alone (0.39) passes the shortest-vector pre-check.
        omega = np.diag([12.0, 12.0, 1.0])
        a_inv = np.linalg.inv(omega)
        mass = 4.0 * np.exp(-2.0 * np.pi**2 * a_inv[0, 0])
        assert mass > 0.5 and mass / 2.0 <= 0.5
        xs = np.random.default_rng(0).uniform(-3.0, 3.0, (5, 3))
        assert theta._dual_batch(xs, lattice.Form(omega), 1e-12, lattice.POINT_BUDGET) is None
        log_mag, _, tail = theta.theta_tilde_batch(xs, omega, 1e-12)
        for i in range(xs.shape[0]):
            assert abs(log_mag[i] - _box_reference(xs[i], omega)) < 1e-10
        assert np.all(tail <= 1e-12)


@st.composite
def primal_forms(draw):
    """(g, Omega, rng) with det Omega > (2 pi)^g, where real batches sum primal.

    Eigenvalues run from lam_min in [1, 3] up to lam_min * cond, cond in
    [1, 100], scaled up where needed to det Omega = excess * (2 pi)^g."""
    g = draw(st.integers(1, 3))
    lam_min = draw(st.floats(1.0, 3.0))
    cond = draw(st.floats(1.0, 100.0))
    excess = draw(st.floats(1.05, 20.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = lam_min * cond ** np.sort(rng.uniform(0.0, 1.0, g))
    lam *= max(1.0, (excess * (2.0 * np.pi) ** g / np.prod(lam)) ** (1.0 / g))
    rot, _ = np.linalg.qr(rng.normal(size=(g, g)))
    omega = rot @ np.diag(lam) @ rot.T
    return g, 0.5 * (omega + omega.T), rng


def _line_batch(rng, g, n):
    """z = v w + b with v from a mixture of 1-3 narrow components, so the
    ellipsoid centers of the batch cluster on a few spots of one line."""
    means = rng.uniform(-1.5, 1.5, int(rng.integers(1, 4)))
    v = means[rng.integers(0, means.size, n)] + 0.02 * rng.normal(size=n)
    w, b = rng.normal(scale=1.5, size=g), rng.normal(size=g)
    return v[:, None] * w + b, v


def _primal_batches(rng, g, n=200):
    """Line and spread batches, each real and complex, by name."""
    line, v = _line_batch(rng, g, n)
    spread = rng.uniform(-3.0, 3.0, (n, g))
    return {
        "line": line,
        "complex line": line + 1j * v[:, None] * rng.normal(size=g),
        "spread": spread,
        "complex spread": spread + 1j * rng.uniform(-1.0, 1.0, (n, g)),
    }


def _half_cube_radius(omega):
    corners = np.array(list(itertools.product((-0.5, 0.5), repeat=omega.shape[0])))
    return float(np.sqrt(np.max(np.einsum("ij,jk,ik->i", corners, omega, corners))))


class TestThetaBatchPrimal:
    """The primal batch, whose base set is centered on the batch's offsets."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(primal_forms())
    def test_matches_brute_force(self, case):
        g, omega, rng = case
        for name, zs in _primal_batches(rng, g).items():
            log_mag, phase, tail = theta.theta_tilde_batch(zs, omega, 1e-12)
            assert np.all(tail <= 1e-12), name
            for i in rng.choice(zs.shape[0], 4, replace=False):
                ref_mag, ref_phase = brute_force_theta(zs[i], omega, half=_box_half(zs[i], omega))
                rel = abs(np.exp(complex(log_mag[i] - ref_mag, phase[i] - ref_phase)) - 1.0)
                assert rel < 1e-10, name

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(primal_forms())
    def test_base_radius_within_offsets_reach(self, case):
        # R + max_i |o_i|_Omega, o_i = c_i - round(c_i), bounds the base
        # set's radius, and R + the half-cube radius bounds that.
        g, omega, rng = case
        form = lattice.Form(omega)
        cube = _half_cube_radius(omega)
        batches = _primal_batches(rng, g)
        # a line whose offsets stay inside (-0.45, 0.45)^g: c_i = s + u + v_i d
        v = rng.uniform(-1.0, 1.0, 200)
        d, u = rng.uniform(-0.2, 0.2, g), rng.uniform(-0.25, 0.25, g)
        s = rng.integers(-2, 3, g)
        batches["inner line"] = (v[:, None] * d + s + u) @ omega
        batches["complex inner line"] = batches["inner line"] + 1j * rng.uniform(-1.0, 1.0, g)
        for name, zs in batches.items():
            with mock.patch.object(lattice, "enumerate_ellipsoid",
                                   wraps=lattice.enumerate_ellipsoid) as spy:
                theta.theta_tilde_batch(zs, form, 1e-12)
            assert spy.call_count == 1, name
            radius = spy.call_args.args[2]
            xs = zs.real
            r = theta._Centers(form, xs, 1e-12).radius
            centers = np.linalg.solve(omega, xs.T).T
            offsets = centers - np.round(centers)
            reach = np.sqrt(np.max(np.einsum("ij,jk,ik->i", offsets, omega, offsets)))
            assert radius <= (r + reach) * (1.0 + 1e-12), name
            assert r + reach <= (r + cube) * (1.0 + 1e-12), name
            if "inner" in name:
                assert radius < r + cube, name

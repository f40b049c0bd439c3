import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtbm import lattice, theta
from rtbm.errors import NotPositiveDefinite

from conftest import brute_force_theta, brute_force_theta_moments, random_pd_matrix


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
        rho = theta._lattice_rho(omega)
        radii = [theta.radius_for_epsilon(omega, eps, rho) for eps in (1e-4, 1e-8, 1e-12)]
        assert radii[0] <= radii[1] <= radii[2]

    def test_certifies_the_tail(self):
        omega = np.array([[2.0]])
        rho = theta._lattice_rho(omega)
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
            r1 = theta.radius_for_epsilon(omega, 1e-12, theta._lattice_rho(omega))
            r4 = theta.radius_for_epsilon(4 * omega, 1e-12, theta._lattice_rho(4 * omega))
            assert r4 <= r1 + 1e-9


class TestThetaGradient:
    def test_zero_at_symmetric_point(self):
        rng = np.random.default_rng(6)
        omega = random_pd_matrix(rng, 3)
        grad, _ = theta.theta_tilde_grad(np.zeros(3), omega)
        npt.assert_allclose(grad, 0.0, atol=1e-12)

    def test_scalar_brute_force_ratio(self):
        grad, _ = theta.theta_tilde_grad([0.5], [[2.0]])
        n = np.arange(-10, 11)
        w = np.exp(-(n**2.0) + 0.5 * n)
        npt.assert_allclose(grad[0].real, np.sum(n * w) / np.sum(w), rtol=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        worst = 0.0
        for _ in range(20):
            g = int(rng.integers(1, 4))
            omega = random_pd_matrix(rng, g)
            z = rng.uniform(-2, 2, g) + 1j * rng.uniform(-1, 1, g)
            grad, _ = theta.theta_tilde_grad(z, omega, 1e-13)
            for i in range(g):
                e = np.zeros(g)
                e[i] = h
                lp = log_theta(z + e, omega)
                lm = log_theta(z - e, omega)
                d_mag = (lp.real - lm.real) / (2 * h)
                d_ph = np.angle(np.exp(1j * (lp.imag - lm.imag))) / (2 * h)
                worst = max(worst, abs(grad[i] - complex(d_mag, d_ph)))
        assert worst < 1e-6


class TestThetaHessian:
    def test_scalar_second_moment(self):
        # brute force: sum n^2 e^{-n^2} / sum e^{-n^2} over |n| <= 10
        second, _ = theta.theta_tilde_hess([0.0], [[2.0]])
        n = np.arange(-10, 11)
        w = np.exp(-(n**2.0))
        expected = np.sum(n**2 * w) / np.sum(w)
        npt.assert_allclose(second[0, 0].real, expected, rtol=1e-12)
        npt.assert_allclose(second[0, 0].real, 0.49897907, atol=1e-7)

    def test_diagonal_omega_gives_diagonal_second_moment(self):
        second, _ = theta.theta_tilde_hess([0.0, 0.0], np.diag([1.5, 2.5]))
        npt.assert_allclose(second[0, 1], 0.0, atol=1e-12)

    def test_covariance_is_psd_for_real_argument(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = int(rng.integers(1, 4))
            omega = random_pd_matrix(rng, g)
            z = rng.uniform(-2, 2, g)
            second, _ = theta.theta_tilde_hess(z, omega)
            grad, _ = theta.theta_tilde_grad(z, omega)
            cov = second.real - np.outer(grad.real, grad.real)
            assert np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) >= -1e-10

    def test_matches_brute_force_moments(self):
        rng = np.random.default_rng(9)
        omega = random_pd_matrix(rng, 2)
        z = rng.uniform(-2, 2, 2) + 1j * rng.uniform(-1, 1, 2)
        second, _ = theta.theta_tilde_hess(z, omega, 1e-13)
        grad, _ = theta.theta_tilde_grad(z, omega, 1e-13)
        _, first_bf, second_bf = brute_force_theta_moments(z, omega)
        npt.assert_allclose(grad, first_bf, atol=1e-10)
        npt.assert_allclose(second, second_bf, atol=1e-10)


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

    def test_reassociation_stability(self):
        # summation partitioning (chunk size) must not change results beyond
        # floating point reassociation noise
        rng = np.random.default_rng(11)
        omega = random_pd_matrix(rng, 2)
        zs = rng.uniform(-3, 3, (100, 2))
        a = theta.theta_tilde_batch(zs, omega, chunk=7)[0]
        b = theta.theta_tilde_batch(zs, omega, chunk=100)[0]
        npt.assert_allclose(a, b, rtol=1e-13)


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


def _box_reference(x, omega):
    """brute_force_theta with a box wide enough for 1e-10 at this Omega."""
    lam_min = np.linalg.eigvalsh(omega)[0]
    center = np.linalg.solve(omega, x)
    half = int(np.max(np.abs(center)) + np.sqrt(100.0 / lam_min)) + 2
    return brute_force_theta(x, omega, half=half)[0]


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
        assume((theta._dual_batch(xs, omega, 1e-12, lattice.POINT_BUDGET, 512) is not None) == dual)
        plus = theta.theta_tilde_batch(xs, omega, 1e-12)
        minus = theta.theta_tilde_batch(-xs, omega, 1e-12)
        npt.assert_allclose(minus[0], plus[0], rtol=1e-13, atol=1e-12)
        npt.assert_array_equal(minus[2], plus[2])

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_dual_used_below_threshold(self, g):
        omega = np.eye(g)  # det 1 < (2 pi)^g; k != 0 mass about 2g e^{-2 pi^2}
        xs = np.random.default_rng(g).uniform(-3.0, 3.0, (5, g))
        dual = theta._dual_batch(xs, omega, 1e-12, lattice.POINT_BUDGET, 512)
        assert dual is not None
        for i in range(xs.shape[0]):
            assert abs(dual[0][i] - _box_reference(xs[i], omega)) < 1e-10
        assert np.all(dual[2] <= 1e-12)

    def test_primal_above_threshold(self):
        omega = 50.0 * np.eye(1)  # det > 2 pi
        xs = np.ones((2, 1))
        assert theta._dual_batch(xs, omega, 1e-12, lattice.POINT_BUDGET, 512) is None

    def test_guard_failure_falls_back_to_primal(self):
        # det 144 < (2 pi)^3, but the four dual vectors +-e1, +-e2 carry
        # 4 exp(-2 pi^2 / 12) = 0.77 > 1/2 of the k = 0 term, while one pair
        # alone (0.39) passes the shortest-vector pre-check.
        omega = np.diag([12.0, 12.0, 1.0])
        a_inv = np.linalg.inv(omega)
        mass = 4.0 * np.exp(-2.0 * np.pi**2 * a_inv[0, 0])
        assert mass > 0.5 and mass / 2.0 <= 0.5
        xs = np.random.default_rng(0).uniform(-3.0, 3.0, (5, 3))
        assert theta._dual_batch(xs, omega, 1e-12, lattice.POINT_BUDGET, 512) is None
        log_mag, _, tail = theta.theta_tilde_batch(xs, omega, 1e-12)
        for i in range(xs.shape[0]):
            assert abs(log_mag[i] - _box_reference(xs[i], omega)) < 1e-10
        assert np.all(tail <= 1e-12)

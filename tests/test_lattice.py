import numpy as np
import numpy.testing as npt
import pytest

from rtbm import lattice
from rtbm.errors import DegenerateBasis, PointBudgetExceeded

from conftest import brute_force_ellipsoid, random_pd_matrix


def gram_schmidt_data(basis):
    """Independent Gram-Schmidt for checking the LLL output conditions."""
    g = basis.shape[0]
    ortho = np.zeros_like(basis)
    mu = np.zeros((g, g))
    for i in range(g):
        ortho[i] = basis[i]
        for j in range(i):
            mu[i, j] = (basis[i] @ ortho[j]) / (ortho[j] @ ortho[j])
            ortho[i] -= mu[i, j] * ortho[j]
    return ortho, mu


def assert_lll_conditions(basis, delta=0.75):
    ortho, mu = gram_schmidt_data(basis)
    g = basis.shape[0]
    for i in range(g):
        for j in range(i):
            assert abs(mu[i, j]) <= 0.5 + 1e-9, "size reduction violated"
    for k in range(1, g):
        lhs = ortho[k] @ ortho[k]
        rhs = (delta - mu[k, k - 1] ** 2) * (ortho[k - 1] @ ortho[k - 1])
        assert lhs >= rhs - 1e-9, "Lovász condition violated"


def assert_same_lattice(original, reduced):
    # reduced = U original with U integer, |det U| = 1
    u = reduced @ np.linalg.inv(original)
    npt.assert_allclose(u, np.round(u), atol=1e-8)
    npt.assert_allclose(abs(np.linalg.det(np.round(u))), 1.0, atol=1e-8)


class TestLllReduce:
    def test_identity_is_fixed(self):
        npt.assert_allclose(lattice.lll_reduce(np.eye(3)), np.eye(3))

    def test_classic_two_dim(self):
        # {(1,1),(2,1)} spans Z^2; the reduced vectors have squared norm 1.
        basis = np.array([[1.0, 1.0], [2.0, 1.0]])
        red = lattice.lll_reduce(basis.copy())
        norms = np.sort(np.sum(red**2, axis=1))
        npt.assert_allclose(norms, [1.0, 1.0])
        assert_same_lattice(basis, red)
        assert_lll_conditions(red)

    def test_permuted_reduced_basis_satisfies_conditions(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = int(rng.integers(2, 5))
            basis = rng.normal(size=(g, g)) + 2 * np.eye(g)
            red = lattice.lll_reduce(basis)
            perm = red[rng.permutation(g)]
            out = lattice.lll_reduce(perm)
            assert_lll_conditions(out)
            assert_same_lattice(perm, out)

    def test_random_bases(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = int(rng.integers(1, 6))
            basis = rng.normal(size=(g, g))
            while abs(np.linalg.det(basis)) < 0.1:
                basis = rng.normal(size=(g, g))
            red = lattice.lll_reduce(basis)
            assert_lll_conditions(red)
            assert_same_lattice(basis, red)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateBasis):
            lattice.lll_reduce([[1.0, 1.0], [2.0, 2.0]])

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            lattice.lll_reduce(np.eye(2), delta=1.5)


class TestShortestVectorEstimate:
    def test_identity_dim3(self):
        assert lattice.shortest_vector_estimate(np.eye(3)) == 1.0

    def test_classic_basis_against_exhaustive(self):
        basis = np.array([[1.0, 1.0], [2.0, 1.0]])
        est = lattice.shortest_vector_estimate(basis)
        # exhaustive search over coefficients in [-5, 5]
        coeffs = np.array(
            [(a, b) for a in range(-5, 6) for b in range(-5, 6) if (a, b) != (0, 0)]
        )
        true_min = np.min(np.linalg.norm(coeffs @ basis, axis=1))
        npt.assert_allclose(est, true_min)
        npt.assert_allclose(est, 1.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        base = lattice.shortest_vector_estimate(basis)
        npt.assert_allclose(lattice.shortest_vector_estimate(7.0 * basis), 7.0 * base)

    def test_upper_bounds_true_minimum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            basis = rng.normal(size=(2, 2)) + np.eye(2)
            if abs(np.linalg.det(basis)) < 0.1:
                continue
            est = lattice.shortest_vector_estimate(basis)
            coeffs = np.array(
                [(a, b) for a in range(-8, 9) for b in range(-8, 9) if (a, b) != (0, 0)]
            )
            true_min = np.min(np.linalg.norm(coeffs @ basis, axis=1))
            assert est >= true_min - 1e-12
            assert est <= 2.0 ** ((2 - 1) / 2) * true_min + 1e-9  # LLL factor, g=2


    def test_exact_where_lll_row_is_not_shortest(self):
        # The shortest row of the LLL-reduced Cholesky basis has length
        # 1.9987, but n = (0, -1, -1) gives sqrt(n^T Omega n) = 1.8598; the
        # theta tail bound needs the latter (a lower bound on lambda_1).
        omega = np.array([
            [4.979636, -1.093806, 2.033744],
            [-1.093806, 4.457523, -2.496789],
            [2.033744, -2.496789, 3.99488],
        ])
        n = np.array([0.0, -1.0, -1.0])
        est = lattice.shortest_vector_estimate(np.linalg.cholesky(omega))
        npt.assert_allclose(est, np.sqrt(n @ omega @ n), rtol=1e-12)

    def test_exact_on_random_forms(self):
        rng = np.random.default_rng(4)
        r = np.arange(-6, 7)
        for g in (1, 2, 3, 4):
            coeffs = np.stack(np.meshgrid(*[r] * g), axis=-1).reshape(-1, g)
            coeffs = coeffs[np.any(coeffs != 0, axis=1)]
            for _ in range(100):
                a = rng.normal(size=(g, g))
                omega = a @ a.T + 0.1 * np.eye(g)
                est = lattice.shortest_vector_estimate(np.linalg.cholesky(omega))
                true_min = np.sqrt(np.min(np.einsum("ij,jk,ik->i", coeffs, omega, coeffs)))
                npt.assert_allclose(est, true_min, rtol=1e-12)


class TestEnumerateEllipsoid:
    def test_one_dim_interval(self):
        out = lattice.enumerate_ellipsoid([[1.0]], [0.0], 3.5)
        npt.assert_array_equal(np.sort(out.points[:, 0]), np.arange(-3, 4))

    def test_unit_circle(self):
        out = lattice.enumerate_ellipsoid(np.eye(2), [0.0, 0.0], 1.0)
        got = {tuple(p) for p in out.points}
        assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_shifted_center_matches_brute_force(self):
        out = lattice.enumerate_ellipsoid([[2.0, 0.0], [0.0, 2.0]], [0.3, 0.0], 2.0)
        expected = brute_force_ellipsoid(np.diag([2.0, 2.0]), [0.3, 0.0], 2.0)
        assert {tuple(p) for p in out.points} == {tuple(p) for p in expected}

    def test_exhaustive_random(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            g = int(rng.integers(1, 5))
            omega = random_pd_matrix(rng, g, ridge=0.3)
            center = rng.uniform(-2, 2, g)
            radius = float(rng.uniform(0.5, 2.5))
            out = lattice.enumerate_ellipsoid(omega, center, radius)
            expected = brute_force_ellipsoid(omega, center, radius)
            assert {tuple(p) for p in out.points} == {tuple(p) for p in expected}

    def test_all_points_satisfy_bound(self):
        rng = np.random.default_rng(5)
        omega = random_pd_matrix(rng, 3, ridge=0.3)
        center = rng.uniform(-1, 1, 3)
        out = lattice.enumerate_ellipsoid(omega, center, 2.5)
        diff = out.points - center
        q = np.einsum("ij,jk,ik->i", diff, omega, diff)
        assert np.all(q <= 2.5**2)
        assert len({tuple(p) for p in out.points}) == len(out)

    def test_budget_enforced(self):
        with pytest.raises(PointBudgetExceeded):
            lattice.enumerate_ellipsoid(np.eye(2), [0.0, 0.0], 300.0, budget=1000)

    def test_empty_result_allowed(self):
        out = lattice.enumerate_ellipsoid([[1.0]], [0.5], 0.2)
        assert len(out) == 0

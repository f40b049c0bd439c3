import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from rtbm import lattice, numerics
from rtbm.errors import NotPositiveDefinite, NotSymmetric, RankDeficient

from conftest import random_pd_matrix


def inverse(m):
    return lattice.Form(m).inverse


class TestCholesky:
    def test_identity(self):
        npt.assert_allclose(numerics.cholesky(np.eye(3)), np.eye(3))

    def test_two_by_two(self):
        # [[4,2],[2,5]] factors as [[2,0],[1,2]]; verified by L L^T.
        low = numerics.cholesky([[4.0, 2.0], [2.0, 5.0]])
        npt.assert_allclose(low, [[2.0, 0.0], [1.0, 2.0]])
        npt.assert_allclose(low @ low.T, [[4.0, 2.0], [2.0, 5.0]])

    def test_indefinite_rejected(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            numerics.cholesky([[1.0, 2.0], [2.0, 1.0]])

    def test_semidefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            numerics.cholesky(np.zeros((2, 2)))

    def test_strictly_diagonally_dominant(self):
        # [[2,1],[1,2]] factors as [[sqrt 2, 0], [1/sqrt 2, sqrt(3/2)]]
        low = numerics.cholesky([[2.0, 1.0], [1.0, 2.0]])
        npt.assert_allclose(low, [[np.sqrt(2.0), 0.0], [np.sqrt(0.5), np.sqrt(1.5)]])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            numerics.cholesky([[1.0, 0.5], [0.0, 1.0]])

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = random_pd_matrix(rng, int(rng.integers(1, 7)), ridge=0.1)
            low = numerics.cholesky(m)
            npt.assert_allclose(low @ low.T, 0.5 * (m + m.T), rtol=1e-10, atol=1e-12)

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = random_pd_matrix(rng, int(rng.integers(1, 7)), ridge=float(rng.uniform(1e-3, 2.0)))
            m = 0.5 * (m + m.T)
            for arr in (m, np.asfortranarray(m)):
                npt.assert_array_equal(numerics.cholesky(arr), scipy.linalg.cholesky(m, lower=True))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        m = np.eye(2)
        m[where] = m[where[::-1]] = bad
        with pytest.raises(ValueError, match="finite"):
            numerics.cholesky(m)


class TestInverse:
    """``lattice.Form.inverse``, the one inverse of a positive definite matrix."""

    def test_identity(self):
        npt.assert_allclose(inverse(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        npt.assert_allclose(inverse([[2.0, 0.0], [0.0, 4.0]]), [[0.5, 0.0], [0.0, 0.25]])

    def test_two_by_two_closed_form(self):
        # adj / det with det = 16
        npt.assert_allclose(
            inverse([[4.0, 2.0], [2.0, 5.0]]),
            [[0.3125, -0.125], [-0.125, 0.25]],
        )

    def test_inverse_involution(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = random_pd_matrix(rng, int(rng.integers(1, 6)))
            npt.assert_allclose(
                inverse(inverse(m)),
                0.5 * (m + m.T),
                rtol=1e-8,
                atol=1e-10,
            )

    def test_product_is_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = random_pd_matrix(rng, int(rng.integers(1, 6)))
            npt.assert_allclose(m @ inverse(m), np.eye(m.shape[0]), atol=1e-10)


class TestLeftPseudoInverse:
    def test_identity(self):
        npt.assert_allclose(numerics.left_pseudo_inverse(np.eye(2)), np.eye(2))

    def test_invertible_square_equals_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        npt.assert_allclose(
            numerics.left_pseudo_inverse(a), np.linalg.inv(a), rtol=1e-9, atol=1e-11
        )

    def test_tall_column(self):
        # (a^T a)^{-1} a^T with a^T a = 2
        npt.assert_allclose(
            numerics.left_pseudo_inverse([[1.0], [1.0]]), [[0.5, 0.5]]
        )

    def test_left_inverse_property(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, rows + 1))
            a = rng.normal(size=(rows, cols))
            npt.assert_allclose(
                numerics.left_pseudo_inverse(a) @ a, np.eye(cols), atol=1e-10
            )

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            numerics.left_pseudo_inverse([[1.0, 1.0], [2.0, 2.0]])


class TestSymmetrization:
    def test_roundoff_absorbed(self):
        m = np.array([[2.0, 1.0 + 5e-14], [1.0, 2.0]])
        out = numerics.as_sym(m)
        npt.assert_allclose(out, out.T)

    def test_gross_asymmetry_rejected(self):
        with pytest.raises(NotSymmetric):
            numerics.as_sym([[2.0, 1.0 + 1e-6], [1.0, 2.0]])

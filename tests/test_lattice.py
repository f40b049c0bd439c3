import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtbm import lattice, theta
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


def box_scan_shortest(basis):
    """lambda_1 of the rows of ``basis`` by a scan of a whole coefficient box.

    A vector c B no longer than r, the shortest row, has coefficients
    |c_i| <= r |(B^{-1})_{:, i}|; the box is scanned in slices of its last
    coordinate to bound memory.
    """
    g = basis.shape[0]
    r = float(np.min(np.linalg.norm(basis, axis=1)))
    half = np.floor(r * np.linalg.norm(np.linalg.inv(basis), axis=0) * (1 + 1e-9)).astype(int)
    widths = 2 * half[:-1] + 1
    inner = np.indices(widths).reshape(g - 1, int(np.prod(widths))).T - half[:-1]
    head = inner @ basis[:-1]
    best = r * r
    step = max(1, 200_000 // len(inner))
    for lo in range(-half[-1], half[-1] + 1, step):
        last = np.arange(lo, min(lo + step, half[-1] + 1))
        vecs = head[None, :, :] + last[:, None, None] * basis[-1]
        sq = np.sum(vecs**2, axis=2)
        sq[(last == 0)[:, None] & np.all(inner == 0, axis=1)[None, :]] = np.inf
        best = min(best, float(sq.min()))
    return np.sqrt(best)


@st.composite
def skewed_bases(draw):
    """(basis, low): ``low`` is the lower Cholesky factor of a form with
    condition number 1 to 1e6, rounded to 26 bits, and ``basis`` is U low for
    a unimodular U made of up to four row operations, so the two span the
    same lattice exactly (every product fits in a double)."""
    g = draw(st.integers(1, 2))
    cond = draw(st.floats(1.0, 1e6))
    scale = draw(st.floats(0.1, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = scale * cond ** np.linspace(0.0, 1.0, g)
    rot, _ = np.linalg.qr(rng.normal(size=(g, g)))
    low = np.linalg.cholesky(rot @ np.diag(lam) @ rot.T)
    unit = 2.0 ** (np.ceil(np.log2(np.max(np.abs(low)))) - 26)
    low = np.round(low / unit) * unit
    u = np.diag(rng.choice([-1, 1], g))
    for k in range(draw(st.integers(0, 4)) if g == 2 else 0):
        u[k % 2] += int(rng.integers(-3, 4)) * u[1 - k % 2]
    return (u @ low).astype(float), low


class TestGaussReduction:
    """lambda_1 for g <= 2, where Lagrange-Gauss reduction replaces LLL."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(skewed_bases())
    def test_exact_against_box_scan(self, case):
        basis, low = case
        npt.assert_allclose(
            lattice.shortest_vector_estimate(basis), box_scan_shortest(low), rtol=1e-12
        )

    @pytest.mark.parametrize("basis", [
        [[1.0, 2.0]],
        [[0.0]],
        [[0.0, 0.0], [0.0, 0.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
        [[np.inf]],
        [[1.0, 1.0], [2.0, 2.0]],
    ])
    def test_degenerate_rejected(self, basis):
        with pytest.raises(DegenerateBasis):
            lattice.shortest_vector_estimate(basis)


class TestEnumerateEllipsoid:
    def test_one_dim_interval(self):
        out = lattice.enumerate_ellipsoid([[1.0]], [0.0], 3.5)
        npt.assert_array_equal(np.sort(out[:, 0]), np.arange(-3, 4))

    def test_unit_circle(self):
        out = lattice.enumerate_ellipsoid(np.eye(2), [0.0, 0.0], 1.0)
        got = {tuple(p) for p in out}
        assert got == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_shifted_center_matches_brute_force(self):
        out = lattice.enumerate_ellipsoid([[2.0, 0.0], [0.0, 2.0]], [0.3, 0.0], 2.0)
        expected = brute_force_ellipsoid(np.diag([2.0, 2.0]), [0.3, 0.0], 2.0)
        assert {tuple(p) for p in out} == {tuple(p) for p in expected}

    def test_exhaustive_random(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            g = int(rng.integers(1, 5))
            omega = random_pd_matrix(rng, g, ridge=0.3)
            center = rng.uniform(-2, 2, g)
            radius = float(rng.uniform(0.5, 2.5))
            out = lattice.enumerate_ellipsoid(omega, center, radius)
            expected = brute_force_ellipsoid(omega, center, radius)
            assert {tuple(p) for p in out} == {tuple(p) for p in expected}

    def test_all_points_satisfy_bound(self):
        rng = np.random.default_rng(5)
        omega = random_pd_matrix(rng, 3, ridge=0.3)
        center = rng.uniform(-1, 1, 3)
        out = lattice.enumerate_ellipsoid(omega, center, 2.5)
        diff = out - center
        q = np.einsum("ij,jk,ik->i", diff, omega, diff)
        assert np.all(q <= 2.5**2)
        assert len({tuple(p) for p in out}) == len(out)

    def test_budget_enforced(self):
        with pytest.raises(PointBudgetExceeded):
            lattice.enumerate_ellipsoid(np.eye(2), [0.0, 0.0], 300.0, budget=1000)

    def test_empty_result_allowed(self):
        out = lattice.enumerate_ellipsoid([[1.0]], [0.5], 0.2)
        assert len(out) == 0


@st.composite
def pd_matrices(draw):
    """A random positive definite (g, g) matrix, g = 1-4, and a generator."""
    g = draw(st.integers(1, 4))
    ridge = draw(st.floats(0.3, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_pd_matrix(rng, g, ridge=ridge), rng


class TestForm:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=pd_matrices())
    def test_derived_quantities_match_independent_ones(self, case):
        omega, _ = case
        form = lattice.Form(omega)
        # relative, with an absolute floor where log det passes through 0
        npt.assert_allclose(form.log_det, np.linalg.slogdet(omega)[1], rtol=1e-12, atol=1e-12)
        inv = np.linalg.inv(omega)
        assert np.linalg.norm(form.inverse - inv) <= 1e-12 * np.linalg.norm(inv)
        # the dual lattice is spanned by the rows of 2 pi L^{-T}
        basis = 2.0 * np.pi * np.linalg.inv(np.linalg.cholesky(omega)).T
        npt.assert_allclose(form.dual.rho, lattice.shortest_vector_estimate(basis), rtol=1e-12)
        npt.assert_allclose(form.dual.matrix, 4.0 * np.pi**2 * form.inverse, rtol=0, atol=0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=pd_matrices())
    def test_form_and_matrix_give_the_same_results(self, case):
        omega, rng = case
        g = omega.shape[0]
        form = lattice.Form(omega)
        z = rng.uniform(-2.0, 2.0, g) + 1j * rng.uniform(-1.0, 1.0, g)
        assert theta.theta_tilde(z, form, 1e-10) == theta.theta_tilde(z, omega, 1e-10)
        xs = rng.uniform(-2.0, 2.0, (4, g))
        for got, want in zip(theta.theta_tilde_batch(xs, form, 1e-10),
                             theta.theta_tilde_batch(xs, omega, 1e-10)):
            npt.assert_array_equal(got, want)
        center = rng.uniform(-1.0, 1.0, g)
        npt.assert_array_equal(lattice.enumerate_ellipsoid(form, center, 2.0),
                               lattice.enumerate_ellipsoid(omega, center, 2.0))

    def test_given_factor_is_trusted_and_arrays_are_read_only(self):
        low = np.array([[2.0, 0.0], [1.0, 3.0]])
        form = lattice.Form(low @ low.T, low=low)
        assert form.low is low
        npt.assert_allclose(form.log_det, np.log(36.0))
        with pytest.raises(ValueError):
            form.matrix[0, 0] = 1.0
        assert lattice.Form.of(form) is form

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.stats

from rtbm import lattice, numerics, theta, train
from rtbm.errors import InvalidModel, RankDeficient, UnsupportedDimension
from rtbm.model import RtbmModel

from conftest import brute_force_theta, random_pd_matrix, random_valid_model


def mixture_log_pdf(m, v, eps=1e-12):
    """Independent path: law-of-total-probability sum over the hidden ellipsoid."""
    hp = m.hidden_params(eps)
    terms = [
        m.log_pdf_conditional(v, h) + m.log_pmf_hidden(h)
        for h in hp.points.astype(float)
    ]
    return float(np.logaddexp.reduce(terms))


class TestValidate:
    def test_schur_complement_positive(self):
        m = RtbmModel([[1.0]], [[2.0]], [[1.0]], [0.0], [0.0])
        margins = m.validate()
        # S = 2 - 1*1*1 = 1
        npt.assert_allclose(margins["s"], 1.0)
        assert margins["t"] > 0 and margins["q"] > 0

    def test_schur_boundary_rejected(self):
        m = RtbmModel([[1.0]], [[1.0]], [[1.0]], [0.0], [0.0])
        with pytest.raises(InvalidModel, match="schur"):
            m.validate()

    def test_asymmetric_t_rejected(self):
        m = RtbmModel([[1.0, 0.3], [0.0, 1.0]], [[1.0]], [[0.0], [0.0]], [0.0, 0.0], [0.0])
        with pytest.raises(InvalidModel, match="symmetric"):
            m.validate()

    def test_shape_mismatch_rejected_at_construction(self):
        with pytest.raises(InvalidModel):
            RtbmModel([[1.0]], [[1.0]], [[1.0, 2.0]], [0.0], [0.0, 0.0])

    def test_every_violation_listed(self):
        m = RtbmModel([[-1.0]], [[-2.0]], [[0.0]], [0.0], [0.0])
        with pytest.raises(InvalidModel) as err:
            m.validate()
        assert len(err.value.violations) == 2


class TestLogPdfVisible:
    def test_reduces_to_standard_normal_when_uncoupled(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.7])
        npt.assert_allclose(
            m.log_pdf_visible([0.0]), np.log(1.0 / np.sqrt(2 * np.pi)), atol=1e-10
        )

    def test_normalization_by_quadrature(self, test_model_1d):
        xs = np.linspace(-10.0, 10.0, 10_000)
        pdf = np.exp(test_model_1d.log_pdf_visible(xs.reshape(-1, 1)))
        npt.assert_allclose(scipy.integrate.trapezoid(pdf, xs), 1.0, atol=1e-6)

    def test_equals_mixture_form(self, test_model_1d):
        for v in (-2.5, -0.4, 0.9, 3.1):
            direct = test_model_1d.log_pdf_visible([v])
            npt.assert_allclose(direct, mixture_log_pdf(test_model_1d, [v]), rtol=1e-10)

    def test_mixture_identity_random_models(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            m = random_valid_model(rng)
            scale = np.sqrt(np.diag(np.linalg.inv(m.t)))
            mean = m.conditional_mean(np.zeros(m.nh))
            for _ in range(6):
                v = mean + rng.uniform(-3, 3, m.nv) * scale
                a = m.log_pdf_visible(v)
                b = mixture_log_pdf(m, v)
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    def test_finite_for_extreme_arguments(self, test_model_1d):
        for v in (-80.0, 80.0):
            assert np.isfinite(test_model_1d.log_pdf_visible([v]))

    def test_phase_two_rejected(self):
        d = RtbmModel([[1.0]], [[2.0]], [[1.0]], [0.0], [0.0]).to_dict()
        d["phase"] = "II"
        with pytest.raises(InvalidModel, match="phase"):
            RtbmModel.from_dict(d)

    def test_t_factored_once_per_model(self, serve_doc, monkeypatch):
        # T, Q and S are each factored once per model, and no matrix (the
        # dual forms included) twice, across validate and repeated densities
        m = RtbmModel.from_dict(serve_doc)
        s = m.q - m.w.T @ np.linalg.solve(m.t, m.w)
        calls = []

        def counting(mat, name="matrix", _inner=numerics.cholesky):
            calls.append(np.array(mat, dtype=float))
            return _inner(mat, name)

        for module in (numerics, theta, train, lattice):
            monkeypatch.setattr(module, "cholesky", counting)
        m.validate()
        m.log_pdf_visible([[7.0], [9.0]])
        m.log_pdf_visible([8.0])

        def times(target):
            return sum(c.shape == target.shape and np.allclose(c, target, rtol=1e-10, atol=0.0)
                       for c in calls)

        assert [times(x) for x in (m.t, m.q, s)] == [1, 1, 1]
        assert [times(c) for c in calls] == [1] * len(calls)


def model_with_schur(s, seed):
    """Valid model with nv = 2, random couplings and Schur complement ``s``."""
    rng = np.random.default_rng(seed)
    g = s.shape[0]
    t = random_pd_matrix(rng, 2)
    w = rng.normal(scale=0.7, size=(2, g))
    q = s + w.T @ np.linalg.solve(t, w)
    return RtbmModel(
        t, 0.5 * (q + q.T), w, rng.normal(scale=0.5, size=2), rng.normal(scale=0.5, size=g)
    )


# (Schur complement, whether det S < (2 pi)^g so that the dual form applies)
SCHUR_CASES = [
    (np.array([[0.8]]), True),
    (np.array([[9.0]]), False),
    (np.array([[1.5, 0.4], [0.4, 0.9]]), True),
    (np.array([[9.0, 2.0], [2.0, 7.0]]), False),
    (np.array([[2.0, 0.3, -0.2], [0.3, 1.2, 0.1], [-0.2, 0.1, 0.7]]), True),
    (np.array([[8.0, 1.0, 0.5], [1.0, 9.0, -1.0], [0.5, -1.0, 6.0]]), False),
]


class TestSchurPass:
    def test_cached_and_consistent(self):
        m = random_valid_model(np.random.default_rng(4), nv=2, nh=3)
        sc = m.schur()
        assert m.schur() is sc
        expected = m.q - m.w.T @ np.linalg.solve(m.t, m.w)
        npt.assert_allclose(sc.form.matrix, expected, atol=1e-12)
        npt.assert_array_equal(sc.form.matrix, sc.form.matrix.T)
        npt.assert_allclose(sc.form.low @ sc.form.low.T, sc.form.matrix, atol=1e-12)
        npt.assert_allclose(sc.bias, m.bh - m.w.T @ np.linalg.solve(m.t, m.bv), atol=1e-12)
        npt.assert_allclose(m.validate()["s"], np.min(np.diag(sc.form.low)))
        hp = m.hidden_params()
        assert hp.omega is sc.form.matrix and hp.bias is sc.bias


class TestEmptyBatch:
    @pytest.mark.parametrize("s, dual", SCHUR_CASES)
    def test_log_pdf_visible_of_no_points(self, s, dual):
        # here det Q lies on the same side of (2 pi)^g as det S, so the
        # numerator batch takes the dual and the primal path
        m = model_with_schur(s, seed=s.shape[0])
        assert dual == (np.linalg.slogdet(m.q)[1] < s.shape[0] * np.log(2.0 * np.pi))
        assert m.log_pdf_visible(np.empty((0, m.nv))).shape == (0,)


class TestDualNormalizer:
    """log_pdf_visible's normalizer theta(-b_h | S) without the primal point set."""

    @pytest.mark.parametrize("s, dual", SCHUR_CASES)
    def test_log_norm_against_brute_force(self, s, dual):
        m = model_with_schur(s, seed=s.shape[0])
        sc = m.schur()
        xs = -sc.bias[None, :]
        assert (theta._dual_batch(xs, sc.form, 1e-12, lattice.POINT_BUDGET, 1) is not None) == dual
        assert dual == (np.linalg.slogdet(s)[1] < s.shape[0] * np.log(2.0 * np.pi))
        log_norm = m._log_norm(1e-12, None)
        assert abs(log_norm - brute_force_theta(-sc.bias, sc.form.matrix)[0]) < 1e-10
        # The dual value leaves the point set unbuilt; the fallback builds it.
        assert (("hidden", 1e-12, None) in m._cache) == (not dual)

    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    @pytest.mark.parametrize("s", [c for c, dual in SCHUR_CASES if dual])
    def test_agrees_with_primal_within_eps(self, s, eps):
        m = model_with_schur(s, seed=7)
        dual = m._log_norm(eps, None)
        assert ("hidden", eps, None) not in m._cache
        assert abs(dual - m.hidden_params(eps).log_norm) <= eps

    @pytest.mark.parametrize("s", [c for c, _ in SCHUR_CASES])
    def test_log_pdf_independent_of_point_set(self, s):
        fresh, built = model_with_schur(s, seed=11), model_with_schur(s, seed=11)
        built.hidden_params()
        v = np.random.default_rng(3).normal(scale=2.0, size=(50, 2))
        npt.assert_allclose(fresh.log_pdf_visible(v), built.log_pdf_visible(v), rtol=0, atol=1e-12)


class TestLogPmfHidden:
    def test_scalar_values_against_brute_force(self):
        # omega_h = 2, b_h = 0: masses e^{-n^2} / sum e^{-n^2}
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        n = np.arange(-10, 11)
        norm = np.sum(np.exp(-(n**2.0)))
        npt.assert_allclose(m.log_pmf_hidden([0]), np.log(1.0 / norm), atol=1e-9)
        npt.assert_allclose(m.log_pmf_hidden([1]), -1.0 - np.log(norm), atol=1e-9)
        npt.assert_allclose(m.log_pmf_hidden([0]), -0.572468, atol=1e-5)

    def test_symmetry_at_zero_bias(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        for h in (1, 2, 3):
            assert m.log_pmf_hidden([h]) == m.log_pmf_hidden([-h])

    def test_mass_sums_to_one_over_ellipsoid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = random_valid_model(rng)
            hp = m.hidden_params()
            total = np.sum(np.exp(m.log_pmf_hidden(hp.points.astype(float))))
            assert 1.0 - 1e-8 <= total <= 1.0


class TestConditional:
    def test_mean_direct_substitution(self):
        m = RtbmModel([[1.0]], [[2.0]], [[1.0]], [0.0], [0.0])
        npt.assert_allclose(m.conditional_mean([3.0]), [-3.0])

    def test_mean_constant_when_uncoupled(self):
        m = RtbmModel([[2.0]], [[2.0]], [[0.0]], [1.0], [0.0])
        for h in (-2.0, 0.0, 5.0):
            npt.assert_allclose(m.conditional_mean([h]), [-0.5])

    def test_mean_linearity(self):
        rng = np.random.default_rng(2)
        m = random_valid_model(rng, nv=2, nh=2)
        h1, h2 = np.array([1.0, -2.0]), np.array([3.0, 1.0])
        base = m.conditional_mean(np.zeros(2))
        lhs = m.conditional_mean(h1 + h2) - base
        rhs = (m.conditional_mean(h1) - base) + (m.conditional_mean(h2) - base)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_peak_log_density(self):
        rng = np.random.default_rng(3)
        m = random_valid_model(rng, nv=2, nh=1)
        h = np.array([1.0])
        peak = m.log_pdf_conditional(m.conditional_mean(h), h)
        expected = -0.5 * 2 * np.log(2 * np.pi) + 0.5 * np.linalg.slogdet(m.t)[1]
        npt.assert_allclose(peak, expected, rtol=1e-12)

    def test_standard_normal_case(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        npt.assert_allclose(
            m.log_pdf_conditional([1.0], [0.0]),
            scipy.stats.norm.logpdf(1.0),
            rtol=1e-12,
        )

    def test_bayes_posterior_normalizes(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = random_valid_model(rng, nv=1, nh=2)
            v = rng.normal(size=1)
            hp = m.hidden_params()
            log_post = [
                m.log_pdf_conditional(v, h) + m.log_pmf_hidden(h) - m.log_pdf_visible(v)
                for h in hp.points.astype(float)
            ]
            npt.assert_allclose(np.sum(np.exp(log_post)), 1.0, atol=1e-8)


class TestCharacteristicFunctions:
    def test_visible_at_zero_is_exactly_one(self):
        rng = np.random.default_rng(5)
        m = random_valid_model(rng, nv=2, nh=2)
        assert m.characteristic_visible(np.zeros(2)) == 1.0 + 0.0j

    def test_visible_gaussian_when_uncoupled(self):
        m = RtbmModel([[2.0]], [[2.0]], [[0.0]], [1.0], [0.3])
        for r in (-1.2, 0.4, 2.0):
            expected = np.exp(-1j * r * 0.5 - 0.25 * r * r)
            npt.assert_allclose(m.characteristic_visible([r]), expected, atol=1e-12)

    def test_visible_matches_quadrature(self, test_model_1d):
        xs = np.linspace(-12.0, 12.0, 24_001)
        pdf = np.exp(test_model_1d.log_pdf_visible(xs.reshape(-1, 1)))
        for r in (0.5, 1.5, 3.0):
            quad = scipy.integrate.trapezoid(np.exp(1j * r * xs) * pdf, xs)
            npt.assert_allclose(
                test_model_1d.characteristic_visible([r]), quad, atol=1e-4
            )

    def test_hidden_at_zero_is_exactly_one(self):
        rng = np.random.default_rng(6)
        m = random_valid_model(rng, nv=1, nh=3)
        assert m.characteristic_hidden(np.zeros(3)) == 1.0 + 0.0j

    def test_hidden_gradient_gives_mean(self):
        rng = np.random.default_rng(7)
        m = random_valid_model(rng, nv=2, nh=2)
        mean = m.hidden_mean()
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (m.characteristic_hidden(e) - m.characteristic_hidden(-e)) / (2 * h)
            npt.assert_allclose(fd, 1j * mean[i], atol=1e-6)

    def test_hidden_real_and_even_for_symmetric_model(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        for r in (0.3, 1.1):
            phi = m.characteristic_hidden([r])
            npt.assert_allclose(phi.imag, 0.0, atol=1e-12)
            npt.assert_allclose(phi, m.characteristic_hidden([-r]), atol=1e-12)


class TestHiddenMoments:
    def test_mean_zero_at_zero_bias(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        npt.assert_allclose(m.hidden_mean(), [0.0], atol=1e-12)

    def test_scalar_mean_brute_force(self):
        # omega_h = 2, b_h = 0.5: sum n e^{-n^2 - n/2} / sum e^{-n^2 - n/2}
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.5])
        n = np.arange(-10, 11)
        w = np.exp(-(n**2.0) - 0.5 * n)
        npt.assert_allclose(m.hidden_mean()[0], np.sum(n * w) / np.sum(w), atol=1e-10)

    def test_scalar_covariance_brute_force(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        n = np.arange(-10, 11)
        w = np.exp(-(n**2.0))
        expected = np.sum(n**2 * w) / np.sum(w)
        npt.assert_allclose(m.hidden_covariance()[0, 0], expected, atol=1e-10)
        npt.assert_allclose(m.hidden_covariance()[0, 0], 0.49897907, atol=1e-7)

    def test_moments_match_direct_lattice_sums(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            m = random_valid_model(rng)
            hp = m.hidden_params()
            pts = hp.points.astype(float)
            masses = np.exp(m.log_pmf_hidden(pts))
            masses = masses / masses.sum()
            mean_direct = masses @ pts
            cov_direct = (pts - mean_direct).T * masses @ (pts - mean_direct)
            npt.assert_allclose(m.hidden_mean(), mean_direct, atol=1e-10)
            npt.assert_allclose(m.hidden_covariance(), cov_direct, atol=1e-10)

    def test_covariance_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = random_valid_model(rng)
            eig = np.linalg.eigvalsh(m.hidden_covariance())
            assert np.min(eig) >= -1e-10

    def test_diagonal_omega_gives_diagonal_covariance(self):
        m = RtbmModel(np.eye(2), np.diag([2.0, 3.0]), np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        cov = m.hidden_covariance()
        npt.assert_allclose(cov[0, 1], 0.0, atol=1e-12)


class TestAffineTransform:
    def test_identity_is_noop(self):
        rng = np.random.default_rng(10)
        m = random_valid_model(rng, nv=2, nh=2)
        out = m.affine_transform(np.eye(2), np.zeros(2))
        for f in ("t", "q", "w", "bv", "bh"):
            npt.assert_allclose(getattr(out, f), getattr(m, f), atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        m = random_valid_model(rng, nv=2, nh=2)
        a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        b = rng.normal(size=2)
        back = m.affine_transform(a, b).affine_transform(
            np.linalg.inv(a), -np.linalg.solve(a, b)
        )
        for f in ("t", "q", "w", "bv", "bh"):
            npt.assert_allclose(getattr(back, f), getattr(m, f), atol=1e-10)

    def test_change_of_variables_identity(self):
        rng = np.random.default_rng(12)
        m = random_valid_model(rng, nv=2, nh=2)
        theta_rot = np.pi / 4
        a = 2.0 * np.array(
            [[np.cos(theta_rot), -np.sin(theta_rot)], [np.sin(theta_rot), np.cos(theta_rot)]]
        )
        b = np.array([1.0, 2.0])
        out = m.affine_transform(a, b)
        vs = rng.normal(size=(40, 2))
        lhs = out.log_pdf_visible(vs @ a.T + b)
        rhs = m.log_pdf_visible(vs) - np.log(abs(np.linalg.det(a)))
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_hidden_sector_invariant(self):
        rng = np.random.default_rng(13)
        m = random_valid_model(rng, nv=2, nh=3)
        a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        b = rng.normal(size=2)
        out = m.affine_transform(a, b)
        hp, hp_out = m.hidden_params(), out.hidden_params()
        npt.assert_allclose(hp.omega, hp_out.omega, atol=1e-10)
        npt.assert_allclose(hp.bias, hp_out.bias, atol=1e-10)
        npt.assert_allclose(m.hidden_mean(), out.hidden_mean(), atol=1e-10)

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(14)
        m = random_valid_model(rng, nv=2, nh=1)
        with pytest.raises(RankDeficient):
            m.affine_transform(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))

    def test_dimension_raising_failure_surfaces(self):
        # A tall full-column-rank map makes the transformed precision
        # singular; the failure must surface as InvalidModel, not silently.
        rng = np.random.default_rng(15)
        m = random_valid_model(rng, nv=1, nh=1)
        with pytest.raises(InvalidModel):
            m.affine_transform(np.array([[1.0], [1.0]]), np.zeros(2))


class TestCdfVisible1d:
    def test_symmetric_gaussian_midpoint(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        npt.assert_allclose(m.cdf_visible_1d(0.0), 0.5, atol=1e-10)

    def test_upper_limit(self, test_model_1d):
        hp = test_model_1d.hidden_params()
        mus = test_model_1d.conditional_mean(hp.points.astype(float))[:, 0]
        far = float(np.max(mus) + 12.0)
        npt.assert_allclose(test_model_1d.cdf_visible_1d(far), 1.0, atol=1e-8)
        assert test_model_1d.cdf_visible_1d(float(np.min(mus) - 12.0)) <= 1e-8

    def test_monotone(self, test_model_1d):
        xs = np.linspace(-8, 8, 200)
        cdf = test_model_1d.cdf_visible_1d(xs)
        assert np.all(np.diff(cdf) >= 0)

    def test_derivative_matches_density(self, test_model_1d):
        rng = np.random.default_rng(16)
        h = 1e-5
        for x in rng.uniform(-4, 4, 50):
            fd = (test_model_1d.cdf_visible_1d(x + h) - test_model_1d.cdf_visible_1d(x - h)) / (2 * h)
            pdf = np.exp(test_model_1d.log_pdf_visible([x]))
            assert abs(fd - pdf) < 1e-5

    def test_multivariate_rejected(self):
        rng = np.random.default_rng(17)
        m = random_valid_model(rng, nv=2, nh=1)
        with pytest.raises(UnsupportedDimension):
            m.cdf_visible_1d(0.0)


class TestSerialization:
    def test_dict_round_trip(self):
        rng = np.random.default_rng(18)
        m = random_valid_model(rng, nv=2, nh=2)
        m2 = RtbmModel.from_dict(m.to_dict())
        for f in ("t", "q", "w", "bv", "bh"):
            npt.assert_array_equal(getattr(m, f), getattr(m2, f))
        assert m.fingerprint() == m2.fingerprint()

    def test_phase_one_files_keep_their_fingerprint(self, serve_doc):
        assert RtbmModel.from_dict(serve_doc).fingerprint() == "233216ad28de6670"
        del serve_doc["phase"]
        assert RtbmModel.from_dict(serve_doc).fingerprint() == "233216ad28de6670"

    def test_fingerprint_sensitive_to_parameters(self):
        rng = np.random.default_rng(19)
        m = random_valid_model(rng, nv=1, nh=1)
        bumped = RtbmModel(m.t, m.q, m.w, m.bv + 1e-12, m.bh)
        assert m.fingerprint() != bumped.fingerprint()

    def test_parameters_immutable(self):
        rng = np.random.default_rng(20)
        m = random_valid_model(rng, nv=1, nh=1)
        with pytest.raises(ValueError):
            m.t[0, 0] = 5.0

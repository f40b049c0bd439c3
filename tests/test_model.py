import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtbm import lattice, model, numerics, theta, train
from rtbm.errors import InvalidModel, PointBudgetExceeded, RankDeficient, UnsupportedDimension
from rtbm.model import RtbmModel
from rtbm.sampler import RngStream, sample_visible

from conftest import (
    brute_force_cdf_visible_1d,
    brute_force_log_pdf_visible,
    brute_force_theta,
    brute_force_theta_moments,
    random_pd_matrix,
    random_valid_model,
)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("names", [("bv",), ("bh",), ("w",), ("t", "w"), ("q", "bh")])
    def test_non_finite_parameters_named(self, bad, names):
        params = dict(t=[[1.0]], q=[[2.0]], w=[[0.1]], bv=[0.0], bh=[0.0])
        for name in names:
            params[name] = np.full(np.shape(params[name]), bad)
        m = RtbmModel(**params)
        with pytest.raises(InvalidModel) as err:
            m.validate()
        assert err.value.violations == [f"{name} is not finite" for name in names]
        assert not m.is_valid()
        # every method that needs a valid model says why, not scipy
        with pytest.raises(InvalidModel, match="not finite"):
            m.log_pdf_visible([0.0])
        with pytest.raises(InvalidModel, match="not finite"):
            sample_visible(m, 10, RngStream(0))


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

    @pytest.mark.parametrize("dual", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, serve_doc, dual, bad):
        if dual:
            m = RtbmModel.from_dict(serve_doc)
        else:
            m = RtbmModel([[1.0]], 50.0 * np.eye(2), [[1.0, 0.5]], [0.0], [0.0, 0.0])
        ones = np.ones((1, m.nh))
        numerator = theta._dual_batch(ones, m._form("q"), 1e-12, lattice.POINT_BUDGET)
        assert (numerator is not None) == dual
        with pytest.raises(ValueError, match="finite"):
            m.log_pdf_visible(np.array([[0.5], [bad]]))

    def test_zero_budget_is_a_budget(self, serve_doc):
        m = RtbmModel.from_dict(serve_doc)
        with pytest.raises(PointBudgetExceeded):
            m.hidden_params(budget=0)
        with pytest.raises(PointBudgetExceeded):
            m.log_pdf_visible(np.ones(m.nv), budget=0)
        with pytest.raises(PointBudgetExceeded):
            train.negative_log_likelihood(m, np.ones((3, m.nv)), budget=0)
        assert m.hidden_params() is m.hidden_params(budget=lattice.POINT_BUDGET)

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
        assert m.schur() is sc
        pts = hp.points.astype(float)
        log_w = -0.5 * np.einsum("ij,jk,ik->i", pts, sc.form.matrix, pts) - pts @ sc.bias
        npt.assert_allclose(hp.log_weights, log_w, rtol=0, atol=1e-12)


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
        assert (theta._dual_batch(xs, sc.form, 1e-12, lattice.POINT_BUDGET) is not None) == dual
        assert dual == (np.linalg.slogdet(s)[1] < s.shape[0] * np.log(2.0 * np.pi))
        log_norm = m._log_norm(1e-12, lattice.POINT_BUDGET)
        assert abs(log_norm - brute_force_theta(-sc.bias, sc.form.matrix)[0]) < 1e-10
        # The dual value leaves the point set unbuilt; the fallback builds it.
        assert (("hidden", 1e-12, lattice.POINT_BUDGET) in m._cache) == (not dual)

    @pytest.mark.parametrize("eps", [1e-8, 1e-12])
    @pytest.mark.parametrize("s", [c for c, dual in SCHUR_CASES if dual])
    def test_agrees_with_primal_within_eps(self, s, eps):
        m = model_with_schur(s, seed=7)
        dual = m._log_norm(eps, lattice.POINT_BUDGET)
        assert ("hidden", eps, lattice.POINT_BUDGET) not in m._cache
        assert abs(dual - m.hidden_params(eps).log_norm) <= eps

    @pytest.mark.parametrize("s", [c for c, _ in SCHUR_CASES])
    def test_log_pdf_independent_of_point_set(self, s):
        fresh, built = model_with_schur(s, seed=11), model_with_schur(s, seed=11)
        built.hidden_params()
        v = np.random.default_rng(3).normal(scale=2.0, size=(50, 2))
        npt.assert_array_equal(fresh.log_pdf_visible(v), built.log_pdf_visible(v))


def numerator_log_pdf(m, v, eps=1e-12):
    """log P(v) as the Gaussian prefactor times a theta batch over Q: the
    numerator theta_tilde(v W + B_h | Q) from ``theta_tilde_batch``."""
    u = v + np.linalg.solve(m.t, m.bv)
    log_gauss = m._log_gauss_norm() - 0.5 * np.einsum("ij,jk,ik->i", u, m.t, u)
    log_num = theta.theta_tilde_batch(v @ m.w + m.bh, m._form("q"), eps)[0]
    return log_gauss + log_num - m._log_norm(eps, lattice.POINT_BUDGET)


def drawn_model(seed, nv, nh, dual):
    """``random_valid_model``, with Q scaled by 50 for the primal numerator.

    Q -> 50 Q keeps the model valid (S grows by 49 Q) and puts det Q above
    (2 pi)^nh, as det Q >= det S >= 0.5^nh.
    """
    m = random_valid_model(np.random.default_rng(seed), nv=nv, nh=nh)
    if not dual:
        m = RtbmModel(m.t, 50.0 * m.q, m.w, m.bv, m.bh)
    return m


def points_around_mean(m, n, seed):
    """n points within four marginal widths of the mean of P(v | h = 0)."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(np.diag(np.linalg.inv(m.t)))
    return m.conditional_mean(np.zeros(m.nh)) + rng.uniform(-4.0, 4.0, (n, m.nv)) * scale


class TestDensityPlan:
    """log P(v) in envelope form from the cached plan of ``RtbmModel._density``."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.booleans()
    )
    def test_against_brute_force_and_numerator_batch(self, seed, nv, nh, dual):
        m = drawn_model(seed, nv, nh, dual)
        has_plan = m._density(1e-12) is not None
        assume(has_plan == dual)  # a few unscaled Q fail the dual guard
        v = points_around_mean(m, 6, seed)
        got = m.log_pdf_visible(v)
        scale = np.maximum(1.0, np.abs(got))
        assert np.all(np.abs(got - brute_force_log_pdf_visible(m, v)) <= 1e-10 * scale)
        assert np.all(np.abs(got - numerator_log_pdf(m, v)) <= 1e-12 * scale)

    def test_serve_model_in_several_blocks(self, serve_doc):
        m = RtbmModel.from_dict(serve_doc)
        v = sample_visible(m, 10**4, RngStream(5)).samples
        plan = m._density(1e-12)
        assert v.shape[0] > 1.5 * theta._SERIES_BLOCK // plan.weights.size
        got = m.log_pdf_visible(v)
        scale = np.maximum(1.0, np.abs(got))
        assert np.all(np.abs(got - numerator_log_pdf(m, v)) <= 1e-12 * scale)
        assert np.all(np.abs(got - brute_force_log_pdf_visible(m, v)) <= 1e-10 * scale)

    def test_second_call_builds_nothing(self, serve_doc, monkeypatch):
        m = RtbmModel.from_dict(serve_doc)
        v = np.linspace(0.0, 20.0, 50)[:, None]
        first = m.log_pdf_visible(v)
        calls = []
        for owner, name in ((lattice, "enumerate_ellipsoid"), (theta._TailBound, "solve_radius")):
            def counting(*args, _inner=getattr(owner, name), _name=name, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        npt.assert_array_equal(m.log_pdf_visible(v), first)
        assert calls == []

    @pytest.mark.parametrize("dual", [True, False])
    def test_zero_budget_raises_before_and_after_the_plan(self, dual):
        m = drawn_model(2, 2, 2, dual)
        assert (m._density(1e-12) is not None) == dual
        v = points_around_mean(m, 3, 0)
        for _ in range(2):
            with pytest.raises(PointBudgetExceeded):
                m.log_pdf_visible(v, budget=0)
            m.log_pdf_visible(v)

    @pytest.mark.parametrize("dual", [True, False])
    def test_empty_batch_and_single_point(self, dual):
        m = drawn_model(3, 2, 3, dual)
        assert (m._density(1e-12) is not None) == dual
        assert m.log_pdf_visible(np.empty((0, m.nv))).shape == (0,)
        v = points_around_mean(m, 1, 1)
        single = m.log_pdf_visible(v[0])
        assert isinstance(single, float)
        assert single == m.log_pdf_visible(v)[0]


class TestOneHiddenPointSet:
    def test_expectations_reuse_the_point_set(self, monkeypatch, serve_doc):
        m = RtbmModel.from_dict(serve_doc)
        m.hidden_params()
        calls = []
        for module, name in ((theta, "_theta_sum"), (lattice, "enumerate_ellipsoid")):
            def counting(*args, _inner=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        m.hidden_mean(), m.hidden_covariance()
        m.characteristic_hidden(np.ones(m.nh)), m.characteristic_visible(np.ones(m.nv))
        assert calls == []


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

    def test_within_twice_p_outside_of_box_sums(self):
        # phi_h(r) = theta(-b_h + i r | S) / theta(-b_h | S); phi_v(r) is the
        # ratio at -b_h - i W^T T^{-1} r times exp(-i r^T T^{-1} B_v - r^T T^{-1} r / 2)
        rng = np.random.default_rng(20)
        for k in range(9):
            m = random_valid_model(rng, nv=1 + k % 2, nh=1 + k % 3)
            sc = m.schur()
            log_den = brute_force_theta(-sc.bias, sc.form.matrix)[0]

            def ratio(z):
                log_mag, phase = brute_force_theta(z, sc.form.matrix)
                return np.exp(log_mag - log_den + 1j * phase)

            r_hidden = rng.normal(scale=2.0, size=(3, m.nh))
            r_visible = rng.normal(scale=2.0, size=(3, m.nv))
            want_h = [ratio(-sc.bias + 1j * r) for r in r_hidden]
            want_v = []
            for r in r_visible:
                t_inv_r = np.linalg.solve(m.t, r)
                gauss = np.exp(-1j * t_inv_r @ m.bv - 0.5 * r @ t_inv_r)
                want_v.append(gauss * ratio(-sc.bias - 1j * (m.w.T @ t_inv_r)))
            for eps in (1e-3, 1e-6, 1e-12):
                bound = 2.0 * m.hidden_params(eps).p_outside
                for r, want in zip(r_hidden, want_h):
                    assert abs(m.characteristic_hidden(r, eps) - want) <= bound
                for r, want in zip(r_visible, want_v):
                    assert abs(m.characteristic_visible(r, eps) - want) <= bound


class TestHiddenMoments:
    def test_mean_zero_at_zero_bias(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        npt.assert_allclose(m.hidden_mean(), [0.0], atol=1e-12)
        omega = random_pd_matrix(np.random.default_rng(6), 3)
        m = RtbmModel([[1.0]], omega, np.zeros((1, 3)), [0.0], np.zeros(3))
        npt.assert_allclose(m.hidden_mean(), np.zeros(3), atol=1e-12)

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

    def test_against_box_sums(self):
        rng = np.random.default_rng(21)
        for k in range(9):
            m = random_valid_model(rng, nh=1 + k % 3)
            sc = m.schur()
            _, first, second = brute_force_theta_moments(-sc.bias, sc.form.matrix)
            cov = (second - np.outer(first, first)).real
            npt.assert_allclose(m.hidden_mean(), first.real, rtol=0, atol=1e-10)
            npt.assert_allclose(m.hidden_covariance(), cov, rtol=0, atol=1e-10)

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
        sc, sc_out = m.schur(), out.schur()
        npt.assert_allclose(sc.form.matrix, sc_out.form.matrix, atol=1e-10)
        npt.assert_allclose(sc.bias, sc_out.bias, atol=1e-10)
        npt.assert_allclose(m.hidden_mean(), out.hidden_mean(), atol=1e-10)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(nv=st.integers(1, 2), nh=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_characteristic_function_of_image(self, nv, nh, seed):
        # w = A v + b: E[exp(i r^T w)] = exp(i r^T b) phi_v(A^T r)
        rng = np.random.default_rng(seed)
        m = random_valid_model(rng, nv=nv, nh=nh)
        a = rng.normal(size=(nv, nv)) + 2.0 * np.eye(nv)
        b = rng.normal(size=nv)
        r = rng.normal(size=nv)
        got = m.affine_transform(a, b).characteristic_visible(r)
        want = np.exp(1j * r @ b) * m.characteristic_visible(a.T @ r)
        assert abs(got - want) <= 1e-12

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


class TestNonFiniteInput:
    """Every density, mass, characteristic function and CDF rejects NaN by
    naming its argument; only the CDF takes the infinite limits."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call, name", [
        pytest.param(lambda m, b: m.log_pmf_hidden([b, 0.0]), "h", id="log_pmf_hidden"),
        pytest.param(lambda m, b: m.log_pmf_hidden([[0.0, 0.0], [0.0, b]]), "h",
                     id="log_pmf_hidden-batch"),
        pytest.param(lambda m, b: m.characteristic_hidden([b, 0.0]), "r",
                     id="characteristic_hidden"),
        pytest.param(lambda m, b: m.characteristic_visible([b]), "r",
                     id="characteristic_visible"),
        pytest.param(lambda m, b: m.log_pdf_visible([b]), "v", id="log_pdf_visible"),
    ])
    def test_rejected_by_name(self, serve_doc, call, name, bad):
        m = RtbmModel.from_dict(serve_doc)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(m, bad)

    @pytest.mark.parametrize("x", [np.nan, [0.5, np.nan]])
    def test_cdf_rejects_nan(self, serve_doc, x):
        m = RtbmModel.from_dict(serve_doc)
        with pytest.raises(ValueError, match="^x must not be NaN"):
            m.cdf_visible_1d(x)

    def test_cdf_limits_are_exact(self, serve_doc):
        m = RtbmModel.from_dict(serve_doc)
        assert m.cdf_visible_1d(np.inf) == 1.0
        assert m.cdf_visible_1d(-np.inf) == 0.0
        out = m.cdf_visible_1d(np.array([np.inf, 0.0, -np.inf]))
        assert out[0] == 1.0 and out[2] == 0.0 and 0.0 < out[1] < 1.0


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


def _model_1d(seed, nh, wide):
    """A valid nv = 1 model.  Narrow ones have their means within a few widths
    1 / sqrt(T) of each other; wide ones spread them over tens of widths."""
    rng = np.random.default_rng(seed)
    t = np.array([[rng.uniform(0.3, 3.0)]])
    s = random_pd_matrix(rng, nh, ridge=0.5) * (0.3 if wide else 1.0)
    w = rng.normal(scale=3.0 if wide else 0.7, size=(1, nh))
    q = s + w.T @ np.linalg.solve(t, w)
    return RtbmModel(t, 0.5 * (q + q.T), w, rng.normal(scale=0.5, size=1),
                     rng.normal(scale=0.5, size=nh))


def _normal_cdf_sum(m, x):
    """The CDF as one normal CDF per (point, hidden state) over ``hidden_params``:
    the direct formula the node tables must reproduce."""
    hp = m.hidden_params()
    masses = np.exp(hp.log_weights - hp.log_norm)
    mus = m.conditional_mean(hp.points)[:, 0]
    sigma = 1.0 / np.sqrt(m.t[0, 0])
    return np.concatenate([
        np.clip(scipy.special.ndtr((x[lo:lo + 256, None] - mus) / sigma) @ masses, 0.0, 1.0)
        for lo in range(0, x.size, 256)
    ])


def _grid_1d(m, n, sigmas=15.0):
    """n sorted points from sigmas widths below the lowest mean to as far above the highest."""
    mus = m.conditional_mean(m.hidden_params().points)[:, 0]
    sigma = 1.0 / np.sqrt(m.t[0, 0])
    return np.linspace(mus.min() - sigmas * sigma, mus.max() + sigmas * sigma, n)


_models_1d = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())


class TestCdfTables:
    """The node tables against the direct sum and a box-sum oracle."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_models_1d)
    def test_matches_the_normal_cdf_sum(self, params):
        m = _model_1d(*params)
        x = _grid_1d(m, 4001)
        got = m.cdf_visible_1d(x)
        want = _normal_cdf_sum(m, x)
        assert np.max(np.abs(got - want)) <= 2e-15
        tail = want < 1e-3
        assert np.all(np.abs(got[tail] - want[tail]) <= 1e-10 * want[tail])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_models_1d)
    def test_non_decreasing_on_dense_grids(self, params):
        m = _model_1d(*params)
        assert np.all(np.diff(m.cdf_visible_1d(_grid_1d(m, 20001))) >= 0.0)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(_models_1d)
    def test_within_p_outside_of_the_box_sum(self, params):
        m = _model_1d(*params)
        x = _grid_1d(m, 2001, sigmas=5.0)
        err = np.max(np.abs(m.cdf_visible_1d(x) - brute_force_cdf_visible_1d(m, x)))
        assert err <= m.hidden_params().p_outside + 1e-14

    def test_nodes_spanning_more_than_twice_the_batch(self):
        # means 400 widths apart, over thousands of widths: two dense clusters
        # and the far points span more nodes than twice the batch, so the
        # nodes are counted by sorting
        m = RtbmModel([[1.0]], [[160000.7]], [[400.0]], [0.0], [-0.35])
        mus = m.conditional_mean(m.hidden_params().points)[:, 0]
        rng = np.random.default_rng(21)
        x = np.concatenate([rng.normal(0.0, 0.3, 1100), rng.normal(-400.0, 0.3, 1100),
                            [mus.min() - 50.0, mus.max() + 50.0]])
        assert np.ptp(mus) > 2 * x.size
        x.sort()
        got = m.cdf_visible_1d(x)
        assert got[0] == 0.0 and got[-1] == 1.0  # 50 widths beyond every mean
        assert np.max(np.abs(got - _normal_cdf_sum(m, x))[1:-1]) <= 2e-15
        assert np.all(np.diff(got) >= 0.0)

    @pytest.mark.parametrize("seed, nh, wide", [(3, 1, False), (5, 2, True), (8, 3, True)])
    def test_limits_are_exact_without_warnings(self, serve_doc, seed, nh, wide):
        for m in (RtbmModel.from_dict(serve_doc), _model_1d(seed, nh, wide)):
            x = np.concatenate([[np.inf, 1e300, -1e300, -np.inf], _grid_1d(m, 4000)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = m.cdf_visible_1d(x)
                assert [m.cdf_visible_1d(v) for v in (np.inf, 1e300, -1e300, -np.inf)] == [1, 1, 0, 0]
            assert out[:4].tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_shapes(self, serve_doc):
        m = RtbmModel.from_dict(serve_doc)
        x = _grid_1d(m, 3000, sigmas=3.0)
        flat = m.cdf_visible_1d(x)
        assert flat.shape == (3000,)
        column = m.cdf_visible_1d(x[:, None])
        assert column.shape == (3000, 1)
        npt.assert_array_equal(column[:, 0], flat)
        one = m.cdf_visible_1d(float(x[1234]))
        assert isinstance(one, float)
        assert abs(one - flat[1234]) <= 2e-15

    def test_memory_is_bounded(self, serve_doc):
        m = RtbmModel.from_dict(serve_doc)
        x = sample_visible(m, 10**5, RngStream(3)).samples[:, 0]
        m.cdf_visible_1d(x[:64])
        tracemalloc.start()
        try:
            m.cdf_visible_1d(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestCdfBound:
    """The Taylor order comes from a proven bound on the remainder."""

    def test_cramer_inequality(self):
        z = np.linspace(-45.0, 45.0, 180001)
        for n in range(model._CDF_ORDER):
            he = scipy.special.eval_hermitenorm(n, z)
            bound = model._CRAMER * math.sqrt(math.factorial(n))
            assert np.max(np.abs(he) * np.exp(-0.25 * z * z)) <= bound

    def test_order_is_the_least_that_meets_the_tolerance(self):
        k = model._CDF_ORDER
        assert model._taylor_remainder(k) <= model._CDF_TAYLOR_TOL < model._taylor_remainder(k - 1)

    def test_remainder_bounds_the_truncated_series(self):
        # one component, evaluated at its own node: the truncation error of the
        # order-k series never exceeds the stated remainder, for every k
        z = np.linspace(-8.0, 8.0, 161)
        d = np.array([-0.5, -0.3, 0.1, 0.5])
        exact = scipy.special.ndtr(z[:, None] + d)
        for k in range(2, model._CDF_ORDER + 1):
            series = scipy.special.ndtr(z)[:, None] + sum(
                (-1) ** (i - 1) * scipy.special.eval_hermitenorm(i - 1, z)[:, None]
                * np.exp(-0.5 * z[:, None] ** 2) / math.sqrt(2 * math.pi) * d**i / math.factorial(i)
                for i in range(1, k)
            )
            assert np.max(np.abs(series - exact)) <= model._taylor_remainder(k) + 1e-15


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

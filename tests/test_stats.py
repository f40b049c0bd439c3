import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats

from rtbm import stats
from rtbm.errors import LengthMismatch, UnsupportedDimension
from rtbm.model import RtbmModel
from rtbm.sampler import RngStream, sample_visible

from conftest import random_valid_model


class TestHistogram:
    def test_counts_and_densities(self):
        h = stats.histogram([0.0, 0.5, 1.0, 1.5, 2.0], bins=5)
        assert h.n_bins == 5
        assert h.counts.sum() == 5
        npt.assert_allclose(np.sum(h.densities * h.width), 1.0)

    def test_extremes_sit_in_outermost_bins(self):
        h = stats.histogram([0.0, 10.0], bins=11)
        assert h.counts[0] == 1 and h.counts[-1] == 1

    def test_explicit_range(self):
        h = stats.histogram([0.1, 0.9], bins=10, rng=(0.0, 1.0))
        npt.assert_allclose(h.edges[0], 0.0)
        npt.assert_allclose(h.edges[-1], 1.0)


class TestChi2:
    def test_zero_when_histogram_equals_model(self):
        # synthetic histogram whose densities equal the model density exactly
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        edges = np.linspace(-3, 3, 21)
        lower = edges[:-1]
        dens = np.exp(m.log_pdf_visible(lower.reshape(-1, 1)))
        h = stats.Histogram(edges=edges, counts=np.zeros(20, int), densities=dens, n_samples=1)
        npt.assert_allclose(stats.chi2_rtbm(h, m), 0.0, atol=1e-20)

    def test_single_bin_hand_value(self):
        # O = 2P with P = 0.1: (O-P)^2 / P = 0.1
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        x = float(np.sqrt(-2.0 * np.log(0.1 * np.sqrt(2 * np.pi))))  # N(0,1) density 0.1
        p = float(np.exp(m.log_pdf_visible([x])))
        h = stats.Histogram(
            edges=np.array([x, x + 0.1]),
            counts=np.array([1]),
            densities=np.array([2 * p]),
            n_samples=1,
        )
        npt.assert_allclose(stats.chi2_rtbm(h, m), p, rtol=1e-12)
        npt.assert_allclose(stats.chi2_rtbm(h, m), 0.1, atol=1e-8)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        x = rng.normal(size=2000)
        a = stats.chi2_rtbm(stats.histogram(x, 30), m)
        b = stats.chi2_rtbm(stats.histogram(rng.permutation(x), 30), m)
        npt.assert_allclose(a, b, rtol=1e-12)

    def test_multivariate_rejected(self):
        rng = np.random.default_rng(1)
        m = random_valid_model(rng, nv=2, nh=1)
        h = stats.histogram([0.0, 1.0], bins=2)
        with pytest.raises(UnsupportedDimension):
            stats.chi2_rtbm(h, m)


class TestMse:
    def test_identical_series(self):
        assert stats.mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert stats.mse([1.0, 1.0], [0.0, 0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            stats.mse([1.0], [1.0, 2.0])


class TestKsDistance:
    def test_vanishes_against_own_empirical_cdf(self):
        # the two-sided step formula has an irreducible 1/n discretization
        # against the sample's own right-continuous empirical CDF
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        sx = np.sort(x)

        def ecdf(v):
            return np.searchsorted(sx, v, side="right") / sx.size

        assert stats.ks_distance(x, ecdf) <= 1.0 / x.size + 1e-12

    def test_quantile_construction(self):
        n = 1000
        q = scipy.stats.norm.ppf((np.arange(1, n + 1)) / (n + 1))
        d = stats.ks_distance(q, scipy.stats.norm.cdf)
        assert d <= 1.0 / (n + 1) + 1e-9

    def test_normal_sample_within_critical_band(self):
        rng = np.random.default_rng(3)
        n = 100_000
        x = rng.normal(size=n)
        d = stats.ks_distance(x, scipy.stats.norm.cdf)
        assert d <= 1.63 / np.sqrt(n)

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.3, 1.2, 800)
        ours = stats.ks_distance(x, scipy.stats.norm.cdf)
        ref = scipy.stats.kstest(x, scipy.stats.norm.cdf).statistic
        npt.assert_allclose(ours, ref, rtol=1e-12)


class TestCentralMoments:
    def test_constant_sample(self):
        npt.assert_allclose(stats.central_moments([3.0, 3.0, 3.0]), (3.0, 0.0, 0.0, 0.0))

    def test_two_point_sample(self):
        npt.assert_allclose(stats.central_moments([-1.0, 1.0]), (0.0, 1.0, 0.0, 1.0))

    def test_power_mean_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=200) * rng.uniform(0.1, 5)
            _, mu2, _, mu4 = stats.central_moments(x)
            assert mu2 >= 0.0
            assert mu4 >= mu2**2 - 1e-12


class TestModelMoments1d:
    def test_standard_normal_moments(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        npt.assert_allclose(stats.model_moments_1d(m), (0.0, 1.0, 0.0, 3.0), atol=1e-10)

    def test_uncoupled_gaussian_exact(self):
        # W = 0: moments of N(-bv/t, 1/t) exactly
        m = RtbmModel([[4.0]], [[2.0]], [[0.0]], [2.0], [0.0])
        mean, mu2, mu3, mu4 = stats.model_moments_1d(m)
        npt.assert_allclose(mean, -0.5, atol=1e-10)
        npt.assert_allclose(mu2, 0.25, atol=1e-10)
        npt.assert_allclose(mu3, 0.0, atol=1e-10)
        npt.assert_allclose(mu4, 3 * 0.25**2, atol=1e-10)

    def test_mean_matches_characteristic_function(self, test_model_1d):
        h = 1e-6
        cf_mean = (
            (test_model_1d.characteristic_visible([h]) - test_model_1d.characteristic_visible([-h]))
            / (2j * h)
        ).real
        mean = stats.model_moments_1d(test_model_1d)[0]
        assert abs(mean - cf_mean) < 1e-5

    def test_sampled_moments_converge(self, test_model_1d):
        n = 200_000
        s = sample_visible(test_model_1d, n, RngStream(8)).samples[:, 0]
        got = stats.central_moments(s)
        want = stats.model_moments_1d(test_model_1d)
        npt.assert_allclose(got[0], want[0], atol=0.02)
        npt.assert_allclose(got[1], want[1], rtol=0.03)

    def test_multivariate_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(UnsupportedDimension):
            stats.model_moments_1d(random_valid_model(rng, nv=2, nh=1))


class TestBuildReport:
    def test_self_consistency(self, test_model_1d):
        n = 50_000
        s = sample_visible(test_model_1d, n, RngStream(9)).samples[:, 0]
        ref = sample_visible(test_model_1d, n, RngStream(10)).samples[:, 0]
        report = stats.build_report(test_model_1d, s, ref)
        assert report.chi2_over_bins < 0.1
        assert report.ks < 0.01
        assert report.mse_sampling_rtbm >= 0.0
        d = report.to_dict()
        assert set(d["moments"]) == {"sampling", "model", "reference"}
        assert d["n_bins"] == 50

    def test_fields_are_the_public_metrics_and_the_pdf_is_evaluated_once(self, serve_doc, monkeypatch):
        m = RtbmModel.from_dict(serve_doc)
        s = sample_visible(m, 20_000, RngStream(11)).samples[:, 0]
        ref = np.random.default_rng(12).gamma(7.5, 1.0, 5000)
        hist = stats.histogram(s)
        model_pdf = np.exp(m.log_pdf_visible(hist.lower_edges.reshape(-1, 1)))
        ref_dens = stats.histogram(ref, rng=(hist.edges[0], hist.edges[-1])).densities
        want = stats.ValidationReport(
            chi2_over_bins=stats.chi2_rtbm(hist, m) / hist.n_bins,
            mse_sampling_rtbm=stats.mse(hist.densities, model_pdf),
            mse_sampling_pdf=stats.mse(hist.densities, ref_dens),
            mse_pdf_rtbm=stats.mse(ref_dens, model_pdf),
            ks=stats.ks_distance(s, m.cdf_visible_1d),
            moments_sampling=stats.central_moments(s),
            moments_model=stats.model_moments_1d(m),
            moments_reference=stats.central_moments(ref),
            n_samples=s.size,
            n_bins=hist.n_bins,
        )
        calls = []
        log_pdf = RtbmModel.log_pdf_visible
        monkeypatch.setattr(RtbmModel, "log_pdf_visible",
                            lambda self, *a, **k: calls.append(1) or log_pdf(self, *a, **k))
        assert stats.build_report(m, s, ref) == want
        assert len(calls) == 1

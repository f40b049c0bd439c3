import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rtbm import model, sampler, stats
from rtbm.errors import TruncationMassTooLarge
from rtbm.model import RtbmModel
from rtbm.sampler import HiddenSamplerState, RngStream

from conftest import random_valid_model


@pytest.fixture
def discrete_model():
    """Hidden law with omega_h = 2, b_h = 0: masses proportional to e^{-n^2}."""
    return RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])


@st.composite
def mass_vectors(draw):
    """K = 1-2000 masses: all equal, or exp(-d) for depths d spread over a
    span of nats; past 745 nats (span 760) they underflow to 0."""
    k = draw(st.integers(1, 2000))
    if draw(st.booleans()):
        return np.full(k, draw(st.floats(1e-300, 1e300)))
    span = draw(st.sampled_from([760.0, 30.0, 1.0, 1e-6]))
    d = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, span, k)
    return np.exp(d.min() - d)


def alias_law(prob, alias):
    """P(i) = (prob[i] + sum_{j: alias[j] = i} (1 - prob[j])) / K, summed exactly."""
    terms = [[p] for p in prob.tolist()]
    for j, i in enumerate(alias.tolist()):
        terms[i].append(1.0 - prob[j])
    return np.array([math.fsum(t) for t in terms]) / prob.size


class _LastUniform:
    """Stands in for a generator: every uniform is 1 - 2^-53, the largest below 1."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0**-53)


class TestAliasTable:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(masses=mass_vectors())
    def test_law_is_the_normalized_masses(self, masses):
        prob, alias = model._alias_table(masses)
        k = masses.size
        assert prob.shape == alias.shape == (k,)
        assert np.all((prob >= 0.0) & (prob <= 1.0))
        assert np.all((alias >= 0) & (alias < k))
        # relative, except where float64 itself has no relative precision
        npt.assert_allclose(alias_law(prob, alias), masses / math.fsum(masses),
                            rtol=1e-14, atol=np.finfo(float).tiny)
        # a zero mass keeps nothing of its column and is no column's alias
        zero = masses == 0.0
        assert np.all(prob[zero] == 0.0)
        assert not zero[alias].any()

    @pytest.mark.parametrize("k", [1, 2, 3, 141, 1024, 1999, 2000, 2**16 + 1])
    def test_last_uniform_stays_in_range(self, k):
        masses = np.exp(-0.01 * np.arange(k))
        mix = model._Mixture(np.arange(k)[:, None], masses, np.zeros((k, 1)))
        state = HiddenSamplerState(mix.points, masses, 0.0, _mixture=mix)
        idx = sampler._draw(state, _LastUniform(), 5)
        assert idx.shape == (5,)
        assert np.all((idx >= 0) & (idx < k))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123).generator().standard_normal(8)
        b = RngStream(123).generator().standard_normal(8)
        npt.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(8)
        b = RngStream(123, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_split(self):
        s = RngStream(5)
        assert s.split(3) == RngStream(5, 3)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1, 0, "mt19937").generator()


class TestSampleHidden:
    def test_max_weight_point_always_accepted(self, discrete_model):
        state = HiddenSamplerState.from_model(discrete_model)
        idx = int(np.argmax(state.accept_prob))
        npt.assert_array_equal(state.points[idx], [0])
        assert state.accept_prob[idx] == 1.0

    def test_frequencies_match_exact_masses(self, discrete_model):
        state = HiddenSamplerState.from_model(discrete_model)
        draws = sampler.sample_hidden(state, RngStream(7), size=100_000)[:, 0]
        # exact masses by brute force
        n = np.arange(-10, 11)
        w = np.exp(-(n**2.0))
        p = w / w.sum()
        cats = [-2, -1, 0, 1, 2]
        observed = [np.sum(draws == c) for c in cats]
        expected = [100_000 * p[list(n).index(c)] for c in cats]
        observed.append(100_000 - sum(observed))
        expected.append(100_000 - sum(expected))
        result = scipy.stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_symmetric_mean_within_clt_band(self, discrete_model):
        state = HiddenSamplerState.from_model(discrete_model)
        draws = sampler.sample_hidden(state, RngStream(11), size=100_000)[:, 0]
        sigma = np.sqrt(discrete_model.hidden_covariance()[0, 0])
        assert abs(draws.mean()) <= 3.0 * sigma / np.sqrt(100_000)

    def test_truncation_mass_guard(self, discrete_model):
        with pytest.raises(TruncationMassTooLarge):
            HiddenSamplerState.from_model(discrete_model, eps=0.05)

    def test_serve_model_frequencies_match_pmf(self, serve_doc):
        # a peaked two-dimensional law: most of the 141 certified points carry
        # almost no mass (their mean P(h) / max P(h) is 0.035)
        m = RtbmModel.from_dict(serve_doc)
        state = HiddenSamplerState.from_model(m)
        n = 100_000
        draws = sampler.sample_hidden(state, RngStream(12), size=n)
        expected = n * np.exp(m.log_pmf_hidden(state.points.astype(float)))
        index = {tuple(p): i for i, p in enumerate(state.points)}
        observed = np.bincount([index[tuple(h)] for h in draws], minlength=len(index))
        big = expected >= 20
        assert big.sum() >= 5
        obs = np.append(observed[big], n - observed[big].sum())
        exp = np.append(expected[big], n - expected[big].sum())
        assert scipy.stats.chisquare(obs, exp).pvalue > 0.01

    def test_draws_are_certified_points(self, serve_doc):
        m = RtbmModel.from_dict(serve_doc)
        state = HiddenSamplerState.from_model(m)
        draws = sampler.sample_hidden(state, RngStream(13), size=10_000)
        rows = {tuple(p) for p in state.points}
        assert draws.shape == (10_000, m.nh)
        assert all(tuple(h) in rows for h in draws)
        single = sampler.sample_hidden(state, RngStream(13))
        assert single.shape == (m.nh,)
        npt.assert_array_equal(single, draws[0])

    def test_reproducible_given_stream(self, discrete_model):
        state = HiddenSamplerState.from_model(discrete_model)
        a = sampler.sample_hidden(state, RngStream(14, 2), size=1000)
        b = sampler.sample_hidden(state, RngStream(14, 2), size=1000)
        npt.assert_array_equal(a, b)


class TestSampleConditional:
    def test_standard_normal_variance(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        draws = sampler.sample_conditional(m, [0.0], RngStream(5), size=100_000)[:, 0]
        assert abs(draws.mean()) <= 3.0 / np.sqrt(100_000)
        assert abs(draws.var() - 1.0) <= 3.0 * np.sqrt(2.0 / 100_000)

    def test_covariance_is_inverse_precision(self):
        m = RtbmModel(
            np.diag([4.0, 1.0]), [[1.0]], np.zeros((2, 1)), np.zeros(2), [0.0]
        )
        draws = sampler.sample_conditional(m, [0.0], RngStream(6), size=100_000)
        cov = np.cov(draws, rowvar=False)
        npt.assert_allclose(cov, np.diag([0.25, 1.0]), atol=0.02)

    def test_deterministic(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.5]], [0.1], [0.0])
        a = sampler.sample_conditional(m, [1.0], RngStream(9))
        b = sampler.sample_conditional(m, [1.0], RngStream(9))
        npt.assert_array_equal(a, b)

    def test_mean_is_conditional_mean(self):
        rng = np.random.default_rng(0)
        m = random_valid_model(rng, nv=2, nh=2)
        h = np.array([1.0, -1.0])
        draws = sampler.sample_conditional(m, h, RngStream(10), size=50_000)
        npt.assert_allclose(
            draws.mean(axis=0),
            m.conditional_mean(h),
            atol=4.0 * np.sqrt(np.max(np.diag(np.linalg.inv(m.t))) / 50_000),
        )


class TestSampleVisible:
    def test_uncoupled_model_draws_are_gaussian(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        n = 100_000
        batch = sampler.sample_visible(m, n, RngStream(21))
        ks = scipy.stats.kstest(batch.samples[:, 0], scipy.stats.norm.cdf).statistic
        assert ks < 1.63 / np.sqrt(n)  # 99% Kolmogorov band

    def test_empirical_cdf_converges_to_model_cdf(self, test_model_1d):
        n = 200_000
        batch = sampler.sample_visible(test_model_1d, n, RngStream(22))
        xs = np.sort(batch.samples[:, 0])
        model_cdf = test_model_1d.cdf_visible_1d(xs)
        i = np.arange(1, n + 1)
        ks = np.max(np.maximum(i / n - model_cdf, model_cdf - (i - 1) / n))
        assert ks < 1.63 / np.sqrt(n)

    def test_mean_matches_characteristic_function(self, test_model_1d):
        n = 100_000
        batch = sampler.sample_visible(test_model_1d, n, RngStream(23))
        h = 1e-6
        cf_mean = (
            (test_model_1d.characteristic_visible([h]) - test_model_1d.characteristic_visible([-h]))
            / (2j * h)
        ).real
        sigma = np.sqrt(batch.samples[:, 0].var())
        assert abs(batch.samples[:, 0].mean() - cf_mean) <= 3 * sigma / np.sqrt(n)

    def test_batch_metadata(self, test_model_1d):
        batch = sampler.sample_visible(test_model_1d, 100, RngStream(3, 4))
        assert batch.seed == 3 and batch.stream_id == 4
        assert batch.model_fingerprint == test_model_1d.fingerprint()
        assert batch.p_outside <= 1e-10
        assert len(batch) == 100

    def test_two_stage_composition(self, test_model_1d):
        batch = sampler.sample_visible(test_model_1d, 500, RngStream(24))
        gen = RngStream(24).generator()
        state = HiddenSamplerState.from_model(test_model_1d)
        hs = sampler.sample_hidden(state, gen, size=500)
        vs = sampler.sample_conditional(test_model_1d, hs, gen, size=500)
        npt.assert_array_equal(batch.samples, vs)

    @pytest.mark.parametrize("n", [1, 2, 7, 500])
    @pytest.mark.parametrize("nv, nh, seed", [(0, 0, 0), (1, 3, 1), (2, 2, 2), (3, 2, 3)])
    def test_two_stage_composition_gathers_the_same_means(self, serve_doc, n, nv, nh, seed):
        # the table's means are gathered, sample_conditional computes them
        # afresh for the drawn states; they agree to the bit for any batch
        m = (RtbmModel.from_dict(serve_doc) if nv == 0
             else random_valid_model(np.random.default_rng(seed), nv=nv, nh=nh))
        batch = sampler.sample_visible(m, n, RngStream(seed, 1))
        gen = RngStream(seed, 1).generator()
        hs = sampler.sample_hidden(HiddenSamplerState.from_model(m), gen, size=n)
        npt.assert_array_equal(batch.samples, sampler.sample_conditional(m, hs, gen, size=n))

    def test_memory_of_a_large_batch(self, serve_doc):
        # no (n, nh) array and no copy of the drawn states, only their indices
        m = RtbmModel.from_dict(serve_doc)
        sampler.sample_visible(m, 64, RngStream(0))  # builds the mixture table
        tracemalloc.start()
        try:
            sampler.sample_visible(m, 10**6, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20

    def test_one_mixture_table(self, serve_doc, monkeypatch):
        # the sampler, the CDF, the moments and the characteristic function
        # all read one table of means
        m = RtbmModel.from_dict(serve_doc)
        calls = []
        mean = RtbmModel.conditional_mean

        def counting(self, h):
            calls.append(np.shape(h))
            return mean(self, h)

        monkeypatch.setattr(RtbmModel, "conditional_mean", counting)
        sampler.sample_visible(m, 1000, RngStream(2))
        m.cdf_visible_1d(np.linspace(-5.0, 20.0, 3000))
        stats.model_moments_1d(m)
        m.characteristic_visible([0.3])
        sampler.sample_visible(m, 10, RngStream(3))
        assert calls == [(len(m.hidden_params().points), m.nh)]

    def test_bit_identical_given_stream(self, test_model_1d):
        a = sampler.sample_visible(test_model_1d, 500, RngStream(42))
        b = sampler.sample_visible(test_model_1d, 500, RngStream(42))
        npt.assert_array_equal(a.samples, b.samples)

    def test_count_validated(self, test_model_1d):
        with pytest.raises(ValueError):
            sampler.sample_visible(test_model_1d, 0, RngStream(1))

import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats

from rtbm import lattice, numerics, theta, train
from rtbm.errors import ObjectiveNonFinite
from rtbm.model import RtbmModel
from rtbm.sampler import RngStream, sample_visible
from rtbm.train import TrainConfig

from conftest import random_valid_model


class TestParamCodec:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_valid_model(rng)
            vec = train.encode(m)
            m2 = train.decode(vec, m.nv, m.nh)
            for f in ("t", "q", "w", "bv", "bh"):
                npt.assert_allclose(
                    getattr(m2, f), getattr(m, f), rtol=1e-12, atol=1e-12
                )

    def test_structural_feasibility(self):
        # every finite vector decodes to a model passing validation
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            vec = rng.normal(0.0, 2.0, train.param_dim(1, 2))
            assert train.decode(vec, 1, 2).is_valid()

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            train.decode(np.zeros(3), 1, 2)

    def test_param_dim(self):
        # lower triangles of T and S, W block, both biases
        assert train.param_dim(1, 2) == 1 + 3 + 2 + 1 + 2
        assert train.param_dim(2, 3) == 3 + 6 + 6 + 2 + 3


class TestFactorHandOff:
    """decode hands its factors of T and S to the model."""

    def test_one_evaluation_factors_once(self, monkeypatch):
        # no factorization through numerics.cholesky: T and S arrive from
        # decode, Q's Form is seeded by decode's one dpotrf, and the dual
        # forms of S and Q reuse their primal factors' inverses
        calls = []

        def counting(m, name="matrix", _inner=numerics.cholesky):
            calls.append(name)
            return _inner(m, name)

        for module in (numerics, theta, train, lattice):
            monkeypatch.setattr(module, "cholesky", counting)
        data = np.random.default_rng(12).gamma(7.5, 1.0, 500)
        rng = np.random.default_rng(11)
        x0 = train._initial_vector(data.reshape(-1, 1), 1, 2, rng)
        scored = 0
        for vec in [x0] + [x0 + rng.normal(0.0, 0.3, x0.shape) for _ in range(15)]:
            calls.clear()
            cand = train.decode(vec, 1, 2)
            if train._too_many_points(cand):
                continue
            nll = train.negative_log_likelihood(
                cand, data, train.TRAIN_EPS, budget=train.TRAIN_POINT_BUDGET
            )
            assert np.isfinite(nll)
            assert calls == []
            scored += 1
        assert scored >= 10

    @pytest.mark.parametrize("nv,nh", [(1, 2), (2, 3)])
    def test_cached_factors_match_fresh(self, nv, nh):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = train.decode(rng.normal(0.0, 0.5, train.param_dim(nv, nh)), nv, nh)
            fresh = RtbmModel(m.t, m.q, m.w, m.bv, m.bh)
            pairs = [(m._form("t").low, fresh._form("t").low)]
            pairs += [(m.schur().bias, fresh.schur().bias)]
            pairs += [
                (getattr(m.schur().form, f), getattr(fresh.schur().form, f))
                for f in ("matrix", "low", "log_det")
            ]
            for got, want in pairs:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            # Q's Form is seeded by one dpotrf, bit for bit the fresh factor
            assert ("form", "q") in m._cache
            for f in ("matrix", "low"):
                npt.assert_array_equal(getattr(m._form("q"), f), getattr(fresh._form("q"), f))
            assert m.validate()["q"] == fresh.validate()["q"]


class TestNegativeLogLikelihood:
    def test_standard_normal_at_origin(self):
        m = RtbmModel([[1.0]], [[2.0]], [[0.0]], [0.0], [0.0])
        npt.assert_allclose(
            train.negative_log_likelihood(m, np.array([[0.0]])),
            0.5 * np.log(2 * np.pi),
            atol=1e-10,
        )

    def test_duplication_doubles(self, test_model_1d):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(50, 1))
        once = train.negative_log_likelihood(test_model_1d, data)
        twice = train.negative_log_likelihood(test_model_1d, np.vstack([data, data]))
        npt.assert_allclose(twice, 2.0 * once, rtol=1e-12)

    def test_matches_mixture_form(self, test_model_1d):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(100, 1))
        hp = test_model_1d.hidden_params()
        total = 0.0
        for v in data:
            terms = [
                test_model_1d.log_pdf_conditional(v, h) + test_model_1d.log_pmf_hidden(h)
                for h in hp.points.astype(float)
            ]
            total -= np.logaddexp.reduce(terms)
        npt.assert_allclose(
            train.negative_log_likelihood(test_model_1d, data), total, rtol=1e-10
        )


class TestCmaEs:
    def test_sphere(self):
        res = train.cma_es_minimize(
            lambda x: float(x @ x), np.ones(10), TrainConfig(max_evals=5000, seed=1)
        )
        assert res.best_f < 1e-10
        assert res.evaluations <= 5000

    def test_rosenbrock(self):
        def rosen(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

        res = train.cma_es_minimize(
            rosen, np.array([-1.0, 1.0]), TrainConfig(max_evals=20_000, seed=1)
        )
        assert res.best_f < 1e-6

    def test_deterministic_trace(self):
        cfg = TrainConfig(max_evals=600, seed=9)
        a = train.cma_es_minimize(lambda x: float(x @ x), np.ones(4), cfg)
        b = train.cma_es_minimize(lambda x: float(x @ x), np.ones(4), cfg)
        assert a.trace == b.trace
        npt.assert_array_equal(a.best_x, b.best_x)

    def test_best_trace_non_increasing(self):
        res = train.cma_es_minimize(
            lambda x: float(x @ x), np.ones(6), TrainConfig(max_evals=2000, seed=2)
        )
        assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
        assert res.best_f == min(res.trace)

    def test_sigma_decays_on_sphere(self):
        res = train.cma_es_minimize(
            lambda x: float(x @ x), np.ones(6), TrainConfig(max_evals=4000, seed=3)
        )
        sig = res.sigma_trace
        assert len(sig) > 40
        # geometric decay once adaptation settles
        assert sig[40] < sig[20]
        assert sig[-1] < 1e-2 * sig[20]

    def test_non_finite_start_rejected(self):
        with pytest.raises(ObjectiveNonFinite):
            train.cma_es_minimize(
                lambda x: float("nan"), np.zeros(3), TrainConfig(max_evals=100)
            )

    def test_non_finite_candidates_survivable(self):
        def holey(x):
            v = float(x @ x)
            return np.inf if v > 0.5 else v

        res = train.cma_es_minimize(
            holey, np.zeros(4) + 0.1, TrainConfig(max_evals=2000, seed=4)
        )
        assert res.best_f < 1e-6


class TestFit:
    def test_gaussian_data_recovered(self):
        rng = np.random.default_rng(5)
        data = rng.normal(1.5, 2.0, 1200)
        result = train.fit(
            data, 1, TrainConfig(max_evals=1200, restarts=1, seed=0)
        )
        assert result.converged or result.evaluations >= 1100
        n = 50_000
        draws = sample_visible(result.model, n, RngStream(1)).samples[:, 0]
        ks = scipy.stats.kstest(draws, scipy.stats.norm(1.5, 2.0).cdf).statistic
        assert ks < 0.03

    def test_best_nll_is_trace_minimum(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=300)
        result = train.fit(data, 1, TrainConfig(max_evals=600, restarts=1, seed=1))
        npt.assert_allclose(result.best_nll, min(result.trace))
        assert result.model.is_valid()

    def test_restart_nlls_one_per_restart(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=300)
        result = train.fit(data, 1, TrainConfig(max_evals=200, restarts=3, seed=4))
        assert len(result.restart_nlls) == 3
        assert min(result.restart_nlls) == result.best_nll
        assert result.restart_nlls[result.seed - 4] == result.best_nll

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=300)
        cfg = TrainConfig(max_evals=400, restarts=1, seed=2)
        a = train.fit(data, 1, cfg)
        b = train.fit(data, 1, cfg)
        npt.assert_array_equal(a.model.t, b.model.t)
        npt.assert_array_equal(a.model.w, b.model.w)
        assert a.best_nll == b.best_nll

    def test_input_validation(self):
        with pytest.raises(ValueError):
            train.fit(np.zeros(5), 1, TrainConfig())
        with pytest.raises(ValueError):
            train.fit(np.zeros(100), 0, TrainConfig())

    @pytest.mark.parametrize("sigma0", [0.0, -1.0, np.nan, np.inf])
    def test_sigma0_must_be_positive_and_finite(self, sigma0):
        with pytest.raises(ValueError, match="sigma0"):
            TrainConfig(sigma0=sigma0)

    @pytest.mark.parametrize("max_evals", [0, -5])
    def test_max_evals_must_be_positive(self, max_evals):
        with pytest.raises(ValueError, match="max_evals"):
            TrainConfig(max_evals=max_evals)

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_must_be_positive(self, restarts):
        # before, restarts < 1 ran one restart
        with pytest.raises(ValueError, match="restarts"):
            TrainConfig(restarts=restarts)

    @pytest.mark.parametrize("tol_window", [0, -1])
    def test_tol_window_must_be_positive(self, tol_window):
        with pytest.raises(ValueError, match="tol_window"):
            TrainConfig(tol_window=tol_window)

    @pytest.mark.parametrize("population", [0, 3, -1])
    def test_population_below_four_rejected(self, population):
        with pytest.raises(ValueError, match="population"):
            TrainConfig(population=population).resolve_population(5)
        with pytest.raises(ValueError, match="population"):
            train.fit(np.random.default_rng(0).normal(size=50), 1, TrainConfig(population=population))

    def test_population_default(self):
        assert TrainConfig().resolve_population(5) == 4 + int(3 * np.log(5))


class TestPreCheckPlacement:
    def test_precheck_runs_exactly_where_q_has_no_dual_k_set(self, monkeypatch):
        # Q's dual k-set certifies both theta sums, so the primal point-count
        # pre-check runs only on candidates without one
        data = np.random.default_rng(5).gamma(7.5, 1.0, 300)
        decoded, checked = [], []

        def spy_decode(*args, _inner=train.decode):
            decoded.append(_inner(*args))
            return decoded[-1]

        def spy_precheck(m, *args, _inner=train._too_many_points, **kwargs):
            checked.append(m)
            return _inner(m, *args, **kwargs)

        monkeypatch.setattr(train, "decode", spy_decode)
        monkeypatch.setattr(train, "_too_many_points", spy_precheck)
        cfg = TrainConfig(max_evals=97, population=24, sigma0=0.5, restarts=1, seed=1)
        train.fit(data, 2, cfg)
        scored = decoded[:-1]  # the last decode rebuilds the winner
        key = (train.TRAIN_EPS, train.TRAIN_POINT_BUDGET)
        primal = [m for m in scored if m._q_terms(*key) is None]
        assert 0 < len(primal) < len(scored)
        assert len(checked) == len(primal)
        assert all(a is b for a, b in zip(checked, primal))

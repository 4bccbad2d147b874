"""The batched scoring engine, ``posterior.score_models``, against the scalar
reference ``fit_model``: property tests over random designs in all three
families and both priors, degenerate designs, and greedy search with and
without a per-model scorer.  Also the mode search's start rule: the mode
stays in the MLE's orthant and improves on its start point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlselect.glm import Dataset, fit_mle, log_likelihood
from nlselect.modelspace import (ModelIndex, enumerate_models, enumerate_strata,
                                 greedy_search)
from nlselect.numerics import make_stream
from nlselect.posterior import MAX_MODE_ITER, find_posterior_mode, fit_model, score_models
from nlselect.priors import NonlocalPriorSpec, log_prior, spimom

# Absolute tolerance on a log marginal: the engine runs the same steps as
# fit_model in another floating-point order, so stopping points differ only
# within the gradient tolerance.
LOGM_TOL = 1e-6

# Fixed examples keep the suite deterministic from run to run.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def same_logm(want: float, got: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return want == got
    return abs(want - got) <= LOGM_TOL


def random_dataset(family, seed, n, p, duplicate=False, separated=False):
    """Random design; ``duplicate`` copies column 1 into column 2, and
    ``separated`` makes logistic responses a step function of column 1."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if duplicate:
        X[:, 1] = X[:, 0]
    beta = rng.normal(scale=0.8, size=p) * (rng.uniform(size=p) < 0.5)
    theta = X @ beta
    dispersion = 1.0
    if family == "gaussian":
        dispersion = float(rng.choice([0.5, 1.0, 2.0]))
        y = theta + math.sqrt(dispersion) * rng.normal(size=n)
    elif family == "logistic":
        if separated:
            y = (X[:, 0] > 0).astype(float)
        else:
            y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    else:
        y = rng.poisson(np.exp(np.clip(theta, -5.0, 5.0))).astype(float)
    return Dataset(y=y, X=X, family=family, dispersion=dispersion)


@st.composite
def datasets(draw, p_range=(2, 5), duplicates=True):
    family = draw(st.sampled_from(["gaussian", "logistic", "poisson"]))
    return random_dataset(
        family, seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(15, 120)), p=draw(st.integers(*p_range)),
        duplicate=duplicates and draw(st.booleans()),
        separated=family == "logistic" and draw(st.booleans()))


priors = st.builds(NonlocalPriorSpec, kind=st.sampled_from(["pimom", "spimom"]),
                   r=st.sampled_from([1.0, 2.0]), scale=st.sampled_from([0.3, 1.0, 3.0]))


def blocks(models):
    """ModelIndex objects as one-row blocks for score_models, in the order given."""
    return [np.array([J.indices], dtype=int).reshape(1, J.size) for J in models]


def assert_matches_scalar(d, models, spec):
    scores = score_models(d, blocks(models), spec)
    fits = [fit_model(d, J, spec) for J in models]
    for J, fit, got in zip(models, fits, scores.log_marginal):
        assert same_logm(fit.log_marginal, got), (J, fit.log_marginal, got)
    assert scores.excluded.tolist() == [f.saddle for f in fits]
    return scores, fits


class TestAgainstScalarReference:
    @PROPERTY
    @given(datasets(), priors)
    def test_log_marginals_and_exclusions(self, d, spec):
        assert_matches_scalar(d, enumerate_models(d.p, min(3, d.p)), spec)

    def test_duplicated_column_is_excluded(self):
        for family in ("gaussian", "logistic", "poisson"):
            d = random_dataset(family, seed=3, n=60, p=4, duplicate=True)
            scores, _ = assert_matches_scalar(d, enumerate_models(4, 3), spimom())
            models = enumerate_models(4, 3)
            both = [J.contains(ModelIndex((1, 2))) for J in models]
            assert scores.excluded.tolist() == both
            assert np.all(scores.log_marginal[both] == -math.inf)

    def test_saddle_at_mode_is_excluded(self):
        # Mirror-image rows keep every iterate on the diagonal b1 = b2.  The
        # columns are nearly collinear, so across the diagonal the
        # likelihood is almost flat and the piMOM curvature at |b| = 3
        # (beyond sqrt(3), where it turns negative) wins: the search
        # converges to a saddle, and the Hessian test must exclude it.
        X = np.tile([[1.0, 0.9375], [0.9375, 1.0]], (8, 1))
        d = Dataset(y=X @ np.array([3.0, 3.0]), X=X, family="gaussian")
        spec = NonlocalPriorSpec(kind="pimom")
        scores, _ = assert_matches_scalar(d, enumerate_models(2, 2), spec)
        assert scores.excluded.tolist() == [False, False, False, True]
        assert scores.converged[3]

    def test_separated_logistic_is_flagged(self):
        d = random_dataset("logistic", seed=5, n=80, p=3, separated=True)
        models = enumerate_models(3, 3)
        assert_matches_scalar(d, models, spimom())
        scores = score_models(d, blocks(models), spimom())
        flags = [fit_mle(d, J).separation for J in models]
        assert scores.separation.tolist() == flags
        assert any(flags)

    def test_order_and_strata_do_not_matter(self):
        d = random_dataset("poisson", seed=8, n=90, p=5)
        models = enumerate_models(5, 3)
        whole = score_models(d, enumerate_strata(5, 3), spimom())
        shuffled = np.random.default_rng(0).permutation(len(models))
        part = score_models(d, blocks([models[i] for i in shuffled]), spimom())
        for j, i in enumerate(shuffled):
            assert same_logm(whole.log_marginal[i], part.log_marginal[j])

    def test_empty_model_is_exact_loglik(self):
        d = random_dataset("gaussian", seed=1, n=40, p=2)
        scores = score_models(d, blocks([ModelIndex()]), spimom())
        assert scores.log_marginal[0] == fit_model(d, ModelIndex(), spimom()).log_marginal
        assert scores.converged[0] and scores.iterations[0] == 0

    def test_columns_beyond_p_rejected(self):
        d = random_dataset("gaussian", seed=1, n=40, p=2)
        with pytest.raises(ValueError):
            score_models(d, blocks([ModelIndex((1, 3))]), spimom())


def benchmark_gaussian_input(k=3):
    """p = 30, n = 800 Gaussian data with the truth on columns 1 and 2: input
    k of the ``fit-enum-gaussian`` benchmark workload at run seed 0."""
    rng = np.random.default_rng([0, 1, k])
    X = rng.normal(size=(800, 30))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = X[:, :2] @ np.array([1.0, -0.8]) + rng.normal(size=800)
    return Dataset(y=y, X=X, family="gaussian")


class TestStalledSearch:
    # On input 4, model {7,8,19} stops short of the 1e-8 n gradient
    # tolerance after 6 iterations: from there step-halving accepts only
    # candidates equal to beta.  Without the stall stop the search spins to
    # the 200-iteration cap with beta frozen; its log marginal is this value.
    MODEL = ModelIndex((7, 8, 19))
    LOG_MARGINAL_AT_CAP = -1796.7787702118192

    def test_scalar_search_stops_at_resolution(self):
        fit = fit_model(benchmark_gaussian_input(4), self.MODEL, spimom())
        assert not fit.converged
        assert fit.iterations <= 12
        assert abs(fit.log_marginal - self.LOG_MARGINAL_AT_CAP) <= 1e-8

    def test_engine_stops_at_resolution(self):
        d = benchmark_gaussian_input(4)
        models = enumerate_models(30, 3)
        scores = score_models(d, enumerate_strata(30, 3), spimom())
        i = models.index(self.MODEL)
        assert not scores.converged[i]
        assert scores.iterations[i] <= 12
        assert abs(scores.log_marginal[i] - self.LOG_MARGINAL_AT_CAP) <= 1e-8
        # no row of the batch runs to the cap and holds the others' loop open
        assert scores.iterations.max() < MAX_MODE_ITER


class TestSearchStart:
    @PROPERTY
    @given(datasets(duplicates=False), priors)
    def test_mode_keeps_orthant_and_improves_on_start(self, d, spec):
        # the start is sign(b) max(|b|, delta0) for MLE coordinate b, with
        # exact zeros at +delta0
        delta0 = max((spec.scale / d.n) ** (1.0 / (2.0 + 2.0 * spec.zeta)), 1e-4)
        for J in enumerate_models(d.p, min(3, d.p)):
            mle = fit_mle(d, J)
            pm = find_posterior_mode(d, J, spec, mle)
            b = mle.beta_hat
            start = np.where(b < 0.0, -1.0, 1.0) * np.maximum(np.abs(b), delta0)
            assert np.all(pm.beta_pm != 0.0), J
            assert np.all(np.sign(pm.beta_pm[b != 0.0]) == np.sign(b[b != 0.0])), J
            start_value = log_likelihood(d, J, start) + log_prior(start, spec)
            assert pm.log_post_unnorm >= start_value, J

    def test_null_mode_scale_start_halves_iterations(self):
        # Starting each coordinate at least the null-mode scale from zero:
        # the MLE start took 40,072 iterations on these 4,526 models.
        scores = score_models(benchmark_gaussian_input(), enumerate_strata(30, 3), spimom())
        assert scores.iterations.sum() <= 22_000


class TestGreedySearch:
    # No duplicated columns here: they make exact ties between models, and
    # a walk's tie-break would then hang on the last bit of each scorer.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(datasets(p_range=(6, 12), duplicates=False), st.integers(0, 1000))
    def test_batched_walk_matches_per_model_scorer(self, d, seed):
        spec = spimom()
        batched, top = greedy_search(d, spec, q=3, budget=80, stream=make_stream(seed))
        single, single_top = greedy_search(
            d, spec, q=3, budget=80, stream=make_stream(seed),
            score_fn=lambda J: fit_model(d, J, spec).log_marginal)
        assert [m for m, _, _ in batched.entries] == [m for m, _, _ in single.entries]
        assert top == single_top
        for (_, a, _), (_, b, _) in zip(batched.entries, single.entries):
            assert same_logm(b, a)

"""The batched scoring engine, ``posterior.score_models``, against the scalar
reference ``fit_model``, ``fit_mle`` and ``find_posterior_mode``: property
tests that every field of every row equals the reference bit for bit over
random designs in all three families and both priors, degenerate designs,
and greedy search with and without a per-model scorer, and that a row does
not depend on the other rows of its batch.  Also the mode search's start
rule: the mode stays in the MLE's orthant and improves on its start point,
and the searches' deterministic iteration totals on benchmark inputs stay
within their bounds.  And a ``Dataset``'s state: scores do not depend on
the design's memory layout or on a second thread, and X'X is its one
p x p array."""

import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import per_model_scorer

from nlselect import glm, posterior
from nlselect.glm import Dataset, log_likelihood
from nlselect.modelspace import (ModelIndex, enumerate_models, enumerate_strata,
                                 greedy_search, normalize_strata)
from nlselect.numerics import NotPositiveDefinite, factor_logdet, make_stream
from nlselect.posterior import (MAX_MODE_ITER, ModelScores, find_posterior_mode, fit_mle,
                                fit_model, score_models)
from nlselect.priors import NonlocalPriorSpec, log_prior, spimom

# Fixed examples keep the suite deterministic from run to run.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def random_dataset(family, seed, n, p, duplicate=False, separated=False,
                   beta_scale=0.8, theta_clip=5.0):
    """Random design; ``duplicate`` copies column 1 into column 2, and
    ``separated`` makes logistic responses a step function of column 1.
    Poisson means are e^theta with theta clipped at +-``theta_clip``."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if duplicate:
        X[:, 1] = X[:, 0]
    beta = rng.normal(scale=beta_scale, size=p) * (rng.uniform(size=p) < 0.5)
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
        y = rng.poisson(np.exp(np.clip(theta, -theta_clip, theta_clip))).astype(float)
    return Dataset(y=y, X=X, family=family, dispersion=dispersion)


@st.composite
def datasets(draw, p_range=(2, 5), duplicates=True):
    family = draw(st.sampled_from(["gaussian", "logistic", "poisson"]))
    return random_dataset(
        family, seed=draw(st.integers(0, 2**32 - 1)),
        n=draw(st.integers(15, 120)), p=draw(st.integers(*p_range)),
        duplicate=duplicates and draw(st.booleans()),
        separated=family == "logistic" and draw(st.booleans()))


@st.composite
def large_count_poisson(draw):
    """Poisson data with coefficients of scale 2 and theta clipped at 9:
    counts reach the thousands, where |log_base| (the sum of log y!) far
    exceeds the log-likelihood."""
    return random_dataset(
        "poisson", seed=draw(st.integers(0, 2**32 - 1)), n=draw(st.integers(15, 200)),
        p=draw(st.integers(2, 5)), beta_scale=2.0, theta_clip=9.0)


priors = st.builds(NonlocalPriorSpec, kind=st.sampled_from(["pimom", "spimom"]),
                   r=st.sampled_from([1.0, 2.0]), scale=st.sampled_from([0.3, 1.0, 3.0]))


def blocks(models):
    """ModelIndex objects as one-row blocks for score_models, in the order given."""
    return [np.array([J.indices], dtype=int).reshape(1, J.size) for J in models]


def assert_matches_scalar(d, models, spec):
    """Every field of every row equals the scalar reference: the log marginal
    and exclusion of ``fit_model``; the MLE, ``mle_converged``,
    ``mle_iterations`` and ``separation`` of ``fit_mle``; the mode,
    ``converged`` and ``iterations`` of ``find_posterior_mode``; log det H*
    of ``factor_logdet``; and NaN padding beyond each model's size."""
    scores = score_models(d, blocks(models), spec)
    fits = [fit_model(d, J, spec) for J in models]
    assert scores.log_marginal.tolist() == [f.log_marginal for f in fits]
    assert scores.excluded.tolist() == [f.saddle for f in fits]
    for i, J in enumerate(models):
        k = J.size
        assert np.isnan(scores.mle[i, k:]).all() and np.isnan(scores.mode[i, k:]).all()
        try:
            mle = fit_mle(d, J)
        except NotPositiveDefinite:  # rank-deficient: no MLE, no mode
            assert np.isnan(scores.mle[i]).all() and np.isnan(scores.mode[i]).all(), J
            assert np.isnan(scores.logdet[i]), J
            assert not (scores.mle_converged[i] or scores.converged[i]
                        or scores.separation[i] or scores.iterations[i]), J
            continue
        pm = find_posterior_mode(d, J, spec, mle)
        np.testing.assert_array_equal(scores.mle[i, :k], mle.beta_hat)
        np.testing.assert_array_equal(scores.mode[i, :k], pm.beta_pm)
        assert scores.mle_converged[i] == mle.converged, J
        assert scores.mle_iterations[i] == mle.iterations, J
        assert scores.separation[i] == mle.separation, J
        assert scores.converged[i] == pm.converged, J
        assert scores.iterations[i] == pm.iterations, J
        logdet = math.nan if fits[i].saddle else factor_logdet(pm.neg_hessian_logpost)[1]
        np.testing.assert_array_equal(scores.logdet[i], logdet)
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
            assert np.isnan(scores.mle[both]).all() and np.isnan(scores.logdet[both]).all()
            # the origin's Hessian, w0 X'X from the cached sums, is singular too
            with pytest.raises(NotPositiveDefinite):
                fit_mle(d, ModelIndex((1, 2)))

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

    def test_mle_converged_at_iteration_cap(self, monkeypatch):
        # With one Newton step allowed, the score test runs at the iterate
        # that step reached: a Gaussian MLE is exact after one step, a
        # logistic one is not.
        monkeypatch.setattr(posterior, "MAX_NEWTON_ITER", 1)
        for family, want in (("gaussian", True), ("logistic", False)):
            d = random_dataset(family, seed=4, n=80, p=3)
            models = enumerate_models(3, 3)[1:]
            scores = score_models(d, blocks(models), spimom())
            assert scores.mle_converged.tolist() == [fit_mle(d, J).converged for J in models]
            assert scores.mle_converged.tolist() == [want] * len(models)

    @pytest.mark.parametrize("family", ["gaussian", "poisson"])
    def test_mode_converged_at_iteration_cap(self, monkeypatch, family):
        # With the cap at the uncapped search's iteration count j, the
        # gradient test runs at the iterate the j-th step reached, where the
        # uncapped search met it: both paths return that search unchanged.
        d = random_dataset(family, seed=4, n=80, p=3)
        J, spec = ModelIndex((1, 2, 3)), spimom()
        free, free_fit = score_models(d, blocks([J]), spec), fit_model(d, J, spec)
        j = int(free.iterations[0])
        assert j >= 1 and free.converged[0] and free_fit.iterations == j
        monkeypatch.setattr(posterior, "MAX_MODE_ITER", j)
        capped, fit = score_models(d, blocks([J]), spec), fit_model(d, J, spec)
        assert capped.iterations[0] == fit.iterations == j
        assert capped.converged[0] and fit.converged
        np.testing.assert_array_equal(capped.mode, free.mode)
        assert capped.log_marginal[0] == free.log_marginal[0]
        assert capped.logdet[0] == free.logdet[0]
        np.testing.assert_array_equal(fit.beta_pm, free_fit.beta_pm)
        assert fit.log_marginal == free_fit.log_marginal
        assert (factor_logdet(fit.neg_hessian_logpost)[1]
                == factor_logdet(free_fit.neg_hessian_logpost)[1])

    def test_separated_logistic_is_flagged(self):
        d = random_dataset("logistic", seed=5, n=80, p=3, separated=True)
        models = enumerate_models(3, 3)
        assert_matches_scalar(d, models, spimom())
        scores = score_models(d, blocks(models), spimom())
        flags = [fit_mle(d, J).separation for J in models]
        assert scores.separation.tolist() == flags
        assert any(flags)

    @PROPERTY
    @given(datasets(), priors, st.data())
    def test_order_and_strata_do_not_matter(self, d, spec, data):
        # A random subset of the enumeration, shuffled, as one-row blocks
        # beside an empty (0, q) block and under a random batch size: every
        # field of every row equals that model's row in the full run.
        q = min(3, d.p)
        models = enumerate_models(d.p, q)
        whole = score_models(d, enumerate_strata(d.p, q), spec)
        picked = data.draw(st.lists(st.sampled_from(range(len(models))), unique=True))
        batch_floats = data.draw(st.integers(1, 2**16))
        with mock.patch.object(glm, "BATCH_FLOATS", batch_floats):
            part = score_models(d, [np.empty((0, q), dtype=int)]
                                + blocks([models[i] for i in picked]), spec)
        for f in fields(ModelScores):
            np.testing.assert_array_equal(getattr(part, f.name),
                                          getattr(whole, f.name)[picked], f.name)

    def test_columns_beyond_p_rejected(self):
        d = random_dataset("gaussian", seed=1, n=40, p=2)
        with pytest.raises(ValueError):
            score_models(d, blocks([ModelIndex((1, 3))]), spimom())


class TestEmptyModel:
    """The empty model runs the MLE and the mode search through the same loops
    as every other model; both stop at iteration 0 on the empty gradient, and
    its Laplace marginal is the exact log-likelihood."""

    @staticmethod
    def assert_exact(d, spec, scores, i):
        empty = ModelIndex()
        want = log_likelihood(d, empty, [])
        assert scores.log_marginal[i] == fit_model(d, empty, spec).log_marginal == want
        assert not scores.excluded[i] and not scores.separation[i]
        assert scores.converged[i] and scores.mle_converged[i]
        assert scores.iterations[i] == 0 and scores.logdet[i] == 0.0
        assert np.isnan(scores.mle[i]).all() and np.isnan(scores.mode[i]).all()

    @pytest.mark.parametrize("kind", ["pimom", "spimom"])
    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    def test_alone(self, family, kind):
        d = random_dataset(family, seed=1, n=40, p=2)
        spec = NonlocalPriorSpec(kind=kind)
        self.assert_exact(d, spec, score_models(d, blocks([ModelIndex()]), spec), 0)

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    def test_among_larger_blocks(self, family):
        d = random_dataset(family, seed=2, n=60, p=3)
        empty, singles, pairs = enumerate_strata(3, 2)
        scores = score_models(d, [singles[:2], empty, pairs, singles[2:]], spimom())
        self.assert_exact(d, spimom(), scores, 2)
        assert scores.mle.shape[1] == 2 and np.isnan(scores.mle[2]).all()
        # the other rows are scored as if the empty model were not there
        others = score_models(d, [singles[:2], pairs, singles[2:]], spimom())
        keep = np.arange(7) != 2
        np.testing.assert_array_equal(scores.log_marginal[keep], others.log_marginal)
        np.testing.assert_array_equal(scores.mode[keep], others.mode)


def benchmark_gaussian_input(k=3):
    """p = 30, n = 800 Gaussian data with the truth on columns 1 and 2: input
    k of the ``fit-enum-gaussian`` benchmark workload at run seed 0."""
    rng = np.random.default_rng([0, 1, k])
    X = rng.normal(size=(800, 30))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = X[:, :2] @ np.array([1.0, -0.8]) + rng.normal(size=800)
    return Dataset(y=y, X=X, family="gaussian")


def benchmark_glm_input(family):
    """p = 15, n = 1600 logistic or Poisson data with the truth on columns 1
    and 2: input 0 of the ``fit-enum-glm`` benchmark workload at run seed 0."""
    rng = np.random.default_rng([0, {"logistic": 2, "poisson": 3}[family], 0])
    X = rng.normal(size=(1600, 15))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    if family == "logistic":
        theta = X[:, :2] @ np.array([1.0, -0.8])
        y = (rng.uniform(size=1600) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    else:
        y = rng.poisson(np.exp(X[:, :2] @ np.array([0.5, -0.4]))).astype(float)
    return Dataset(y=y, X=X, family=family)


def count_objective_calls(fn):
    """``fn()`` and the number of ``batch_evaluate`` calls it made, through
    the engine's and the reference's loops alike."""
    calls, kernel = [], glm.batch_evaluate

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    with mock.patch.object(posterior, "batch_evaluate", counted), \
            mock.patch.object(glm, "batch_evaluate", counted):
        return fn(), len(calls)


class TestStalledSearch:
    # On input 4, model {7,20,23} reaches, after 2 iterations, an iterate
    # whose Newton step gains less than the log posterior resolves (the
    # decrement test) while the gradient is still above the 1e-8 n
    # tolerance.  That step gets one trial; it is rejected, so the search
    # stops there, certified at resolution.  Without the decrement test it
    # spent up to 60 halvings per iteration (72 objective calls in all) and
    # ended unconverged; without any stall stop it spun to the
    # 200-iteration cap with beta frozen, at this log marginal.
    MODEL = ModelIndex((7, 20, 23))
    LOG_MARGINAL_AT_CAP = -1791.785637310164

    def test_scalar_search_stops_at_resolution(self):
        fit, calls = count_objective_calls(
            lambda: fit_model(benchmark_gaussian_input(4), self.MODEL, spimom()))
        assert fit.converged
        assert fit.iterations <= 12
        assert abs(fit.log_marginal - self.LOG_MARGINAL_AT_CAP) <= 1e-8
        # the MLE's start and one trial, then the mode's start, its 2 steps
        # and the rejected flat trial: the mode search reads the MLE's
        # Hessian from the GlmFit instead of evaluating the MLE again
        assert calls == 6

    def test_engine_stops_at_resolution(self):
        d = benchmark_gaussian_input(4)
        models = enumerate_models(30, 3)
        scores, calls = count_objective_calls(
            lambda: score_models(d, enumerate_strata(30, 3), spimom()))
        i = models.index(self.MODEL)
        assert scores.converged[i]
        assert scores.iterations[i] <= 12
        assert abs(scores.log_marginal[i] - self.LOG_MARGINAL_AT_CAP) <= 1e-8
        # no row of the batch runs to the cap and holds the others' loop open
        assert scores.iterations.max() < MAX_MODE_ITER
        assert not np.any(~scores.converged & ~scores.excluded)
        # halving every flat step to the 60-halving cap took 160 calls here
        assert calls <= 30


class TestFusedKernel:
    """One ``batch_evaluate`` call per Newton point for a whole stratum,
    walked in chunks of n-row temporaries."""

    @pytest.mark.parametrize("family", ["logistic", "poisson"])
    def test_kernel_calls_per_fit(self, family):
        # 1,152 models in four batches, one per size: two loops of at most a
        # few iterations each (the per-20-model batches made 470-500 calls)
        d = benchmark_glm_input(family)
        _, calls = count_objective_calls(
            lambda: score_models(d, enumerate_strata(15, 3), spimom()))
        assert calls <= 40

    @pytest.mark.parametrize("family", ["logistic", "poisson"])
    def test_chunk_boundaries_do_not_matter(self, family):
        # chunks of 4 models: the strata of 7, 21 and 35 models each span
        # several chunks and end in a ragged one
        d = random_dataset(family, seed=7, n=1600, p=7)
        strata = enumerate_strata(7, 3)
        whole = score_models(d, strata, spimom())
        with mock.patch.object(glm, "BATCH_FLOATS", 4 * 3200 + 3199):
            assert glm.chunk_rows(d) == 4
            assert all(len(b) % 4 and len(b) > 4 for b in strata[1:])
            chunked = score_models(d, strata, spimom())
        for f in fields(ModelScores):
            np.testing.assert_array_equal(getattr(chunked, f.name),
                                          getattr(whole, f.name), f.name)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults by getrusage, as Linux reports them")
    def test_second_scoring_takes_no_page_faults(self):
        # the kernel allocates its n-row temporaries once per call, not once
        # per chunk, and the allocator hands the freed buffer back to the next
        # call, so scoring the input again takes almost no minor faults (a
        # kernel that allocates each chunk's temporaries takes thousands)
        import resource

        d = benchmark_glm_input("logistic")
        strata = enumerate_strata(15, 3)
        score_models(d, strata, spimom())
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        score_models(d, strata, spimom())
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200

    def test_batch_mle_is_the_engine_mle(self):
        # the one MLE stage that score_models and the mle-rate study share: a
        # rank-deficient design is singular with a NaN MLE
        d = random_dataset("logistic", seed=3, n=60, p=4, duplicate=True)
        models = enumerate_models(4, 2)[5:]
        assert all(J.size == 2 for J in models)
        mle = posterior.batch_mle(glm.model_batch(d, np.array([J.cols for J in models])))
        scores = score_models(d, blocks(models), spimom())
        np.testing.assert_array_equal(mle.beta, scores.mle)
        assert mle.converged.tolist() == scores.mle_converged.tolist()
        assert mle.singular.tolist() == [J == ModelIndex((1, 2)) for J in models]

    def test_zero_coordinate_is_rejected_silently(self):
        # a trial point with a zero coordinate is off the prior's support:
        # value -inf, and no priors.AtOrigin or warning from the derivatives
        # that nothing reads; the other rows are unaffected
        d = random_dataset("logistic", seed=8, n=60, p=2)
        batch = glm.model_batch(d, np.array([[0, 1], [0, 1]]))
        beta = np.array([[0.0, 0.7], [0.4, -0.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, g, h = posterior._log_posterior(batch, beta, spimom())
        assert value[0] == -math.inf
        one = posterior._log_posterior(batch.take([1]), beta[1:], spimom())
        for got, want in zip((value, g, h), one):
            np.testing.assert_array_equal(got[1:], want)
        assert value[1] == log_likelihood(d, ModelIndex((1, 2)), beta[1]) + log_prior(
            beta[1], spimom())


def assert_same_scores(got, want):
    for f in fields(ModelScores):
        np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name), f.name)


class TestDatasetState:
    """A ``Dataset`` caches each sufficient statistic once and keeps no
    scratch: its results depend neither on the caller's memory layout nor
    on other threads scoring it, and X'X is its one p x p array."""

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    def test_memory_layout_does_not_matter(self, family):
        # an F-ordered copy and a strided view of the design, and a strided
        # view and a copy of the response, give the scores of the C-ordered
        # arrays bit for bit (X'y differs in its last bits when BLAS reads X
        # or y in another order)
        d = benchmark_gaussian_input() if family == "gaussian" else benchmark_glm_input(family)
        strata = enumerate_strata(d.p, 2)
        want = score_models(d, strata, spimom())
        wide = np.zeros((d.n, 2 * d.p))
        wide[:, ::2] = d.X
        table = np.column_stack([d.X, d.y])  # y as the CLI reads it, a column of the file
        for X, y in ((np.asfortranarray(d.X), d.y), (wide[:, ::2], d.y),
                     (d.X, table[:, -1]), (d.X, d.y.copy())):
            other = Dataset(y=y, X=X, family=family, dispersion=d.dispersion)
            assert_same_scores(score_models(other, strata, spimom()), want)

    def test_two_threads_score_one_dataset(self):
        # 176 models each, with thread switches as often as the interpreter
        # allows; each thread must get the serial scores bit for bit
        d = random_dataset("logistic", seed=11, n=1600, p=10)
        strata = enumerate_strata(10, 3)
        want = score_models(d, strata, spimom())
        got = [None, None]

        def run(i):
            got[i] = score_models(d, strata, spimom())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for scores in got:
            assert_same_scores(scores, want)

    def test_high_dimensional_search_holds_one_gram(self):
        # p = 2,000 >> n = 100: X'X takes 8p^2 = 32 MB, and nothing else in
        # the walk comes near half of that
        rng = np.random.default_rng(12)
        n, p = 100, 2000
        X = rng.normal(size=(n, p))
        theta = X[:, :2] @ np.array([1.0, -0.8])
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
        d = Dataset(y=y, X=X, family="logistic")
        tracemalloc.start()
        try:
            greedy_search(d, spimom(), q=3, budget=50, stream=make_stream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * p * p


def assert_every_row_has_a_status(d, spec):
    # Each row is certified (the gradient test, or the decrement test at
    # resolution) or excluded, every kept marginal is finite, and the model
    # posterior sums to 1.
    q = min(3, d.p)
    strata = enumerate_strata(d.p, q)
    scores = score_models(d, strata, spec)
    assert np.all(scores.converged | scores.excluded)
    assert np.isfinite(scores.log_marginal[~scores.excluded]).all()
    post = normalize_strata(strata, scores.log_marginal)
    assert abs(post.probability.sum() - 1.0) <= 1e-9


class TestEveryFitHasAStatus:
    def test_noisy_poisson_objective_certified(self):
        # Counts up to 156, whose log y! terms exceed the log posterior:
        # its rounding has a standard deviation of about 18 eps |objective|
        # here, and the search stalls with g'H^-1 g at 13 eps |objective|.
        # A bound of a few eps would leave this row unconverged.
        d = random_dataset("poisson", seed=3008507012, n=27, p=3, duplicate=True)
        spec = NonlocalPriorSpec(kind="pimom", r=2.0, scale=0.3)
        scores, _ = assert_matches_scalar(d, [ModelIndex((1, 3))], spec)
        assert scores.converged[0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(datasets(), priors)
    def test_converged_or_excluded(self, d, spec):
        assert_every_row_has_a_status(d, spec)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(large_count_poisson(), priors)
    def test_large_counts_converged_or_excluded(self, d, spec):
        assert_every_row_has_a_status(d, spec)

    @pytest.mark.parametrize("kind", ["pimom", "spimom"])
    @pytest.mark.parametrize("seed", [23, 102])
    def test_large_counts_certified_at_the_constant_scale(self, seed, kind):
        # Counts up to 8,149 (seed 23) and 8,072 (seed 102): the objective
        # adds the kernel to log_base = -sum log y!, so it rounds at the scale
        # of |log_base|, far above |objective|.  A decrement bound taken from
        # |objective| alone left three of these rows unconverged.
        rng = np.random.default_rng([seed, 77])
        n, p = int(rng.integers(15, 201)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, p))
        theta = np.minimum(X @ rng.normal(scale=2.0, size=p), 9.0)
        d = Dataset(y=rng.poisson(np.exp(theta)).astype(float), X=X, family="poisson")
        assert d.y.max() > 8000
        spec = NonlocalPriorSpec(kind=kind, r=1.0, scale=1.0)
        scores, _ = assert_matches_scalar(d, enumerate_models(p, p), spec)
        assert np.all(scores.converged | scores.excluded)
        # one-row blocks and the size strata give the same rows
        batched = score_models(d, enumerate_strata(p, p), spec)
        for f in fields(ModelScores):
            np.testing.assert_array_equal(getattr(batched, f.name), getattr(scores, f.name))


class TestSearchStart:
    @PROPERTY
    @given(datasets(duplicates=False), priors)
    def test_mode_keeps_orthant_and_improves_on_start(self, d, spec):
        # the start is sign(b) max(|b|, delta0) for MLE coordinate b, with
        # exact zeros at +delta0
        delta0 = max((spec.scale / d.n) ** (1.0 / (2.0 + spec.e)), 1e-4)
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

    @pytest.mark.parametrize("family, bound", [("logistic", 1_350), ("poisson", 1_390)])
    def test_stationary_point_start_iterations(self, family, bound):
        # Mode iterations over these 576 models, a deterministic count: the
        # per-coordinate stationary-point start takes 1,313 (logistic) and
        # 1,346 (Poisson); the start at sign(b) max(|b|, delta0) took 3,056
        # and 2,294.  The bound leaves a 3% margin for rounding.
        scores = score_models(benchmark_glm_input(family), enumerate_strata(15, 3), spimom())
        assert scores.iterations.sum() <= bound


class TestGreedySearch:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(datasets(p_range=(6, 12)), st.integers(0, 1000))
    def test_batched_walk_matches_per_model_scorer(self, d, seed):
        spec = spimom()
        batched, top = greedy_search(d, spec, q=3, budget=80, stream=make_stream(seed))
        single, single_top = greedy_search(
            d, spec, q=3, budget=80, stream=make_stream(seed),
            score_fn=per_model_scorer(lambda J: fit_model(d, J, spec).log_marginal))
        assert [m for m, _, _ in batched.entries] == [m for m, _, _ in single.entries]
        assert top == single_top
        np.testing.assert_array_equal(batched.log_marginal, single.log_marginal)


def assert_sign_symmetric(d, flip, spec, q=3):
    """Scoring with the ``flip`` columns negated gives the same marginals,
    flags and counts bit for bit, and exactly negated MLE and mode
    coordinates on those columns."""
    strata = enumerate_strata(d.p, min(q, d.p))
    plain = score_models(d, strata, spec)
    negated = score_models(Dataset(y=d.y, X=d.X * np.where(flip, -1.0, 1.0), family=d.family,
                                   dispersion=d.dispersion), strata, spec)
    for name in ("log_marginal", "excluded", "converged", "iterations", "separation",
                 "mle_converged", "mle_iterations", "logdet"):
        np.testing.assert_array_equal(getattr(negated, name), getattr(plain, name), err_msg=name)
    # the sign each coordinate of each model takes, 1 on the NaN padding
    width = plain.mle.shape[1]
    signs = np.concatenate([np.pad(np.where(flip[rows - 1], -1.0, 1.0),
                                   ((0, 0), (0, width - rows.shape[1])), constant_values=1.0)
                            for rows in strata])
    for name in ("mle", "mode"):
        np.testing.assert_array_equal(getattr(negated, name), getattr(plain, name) * signs,
                                      err_msg=name)


class TestSignSymmetry:
    # negating a column negates its coefficient and nothing else: the
    # likelihood, both priors and every solver are exactly odd or even in it
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(datasets(), priors, st.data())
    def test_negated_columns(self, d, spec, data):
        flip = np.array(data.draw(st.lists(st.booleans(), min_size=d.p, max_size=d.p)))
        assert_sign_symmetric(d, flip, spec)

    @pytest.mark.parametrize("kind", ["pimom", "spimom"])
    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    def test_benchmark_inputs(self, family, kind):
        d = benchmark_gaussian_input() if family == "gaussian" else benchmark_glm_input(family)
        flip = np.random.default_rng(81).uniform(size=d.p) < 0.5
        assert_sign_symmetric(d, flip, NonlocalPriorSpec(kind=kind))

"""Model enumeration, posterior normalization, the nested / non-nested
masses, and the cached greedy search against an exhaustive oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import per_model_scorer

from nlselect.glm import Dataset
from nlselect.modelspace import (ModelIndex, TooManyModels, _neighbors, enumerate_models,
                                 enumerate_strata, greedy_search, normalize_strata,
                                 posterior_probs)
from nlselect.numerics import make_stream
from nlselect.posterior import fit_model
from nlselect.priors import spimom

M = ModelIndex


class TestModelIndex:
    def test_canonical_constructor(self):
        assert M.of([3, 1, 3]).indices == (1, 3)

    def test_rejects_unsorted_or_nonpositive(self):
        with pytest.raises(ValueError):
            M((2, 1))
        with pytest.raises(ValueError):
            M((0, 1))

    def test_ordering_is_lexicographic(self):
        assert M(()) < M((1,)) < M((1, 2)) < M((2,))

    def test_contains(self):
        assert M((1, 2, 5)).contains(M((2, 5)))
        assert not M((1, 2)).contains(M((3,)))


class TestEnumerateModels:
    def test_counts_p3_q2(self):
        models = enumerate_models(3, 2)
        assert [m.indices for m in models] == [
            (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]

    def test_full_power_set(self):
        assert len(enumerate_models(3, 3)) == 8

    def test_q_zero(self):
        assert enumerate_models(5, 0) == [M(())]

    def test_cap(self):
        with pytest.raises(TooManyModels):
            enumerate_models(40, 10)

    def test_monotone_in_q(self):
        counts = [len(enumerate_models(8, q)) for q in range(9)]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_strata_shapes_and_order(self):
        strata = enumerate_strata(6, 3)
        assert [rows.shape for rows in strata] == [(1, 0), (6, 1), (15, 2), (20, 3)]
        assert [tuple(r) for rows in strata for r in rows.tolist()] == \
               [m.indices for m in enumerate_models(6, 3)]


class TestPosteriorProbs:
    def test_equal_marginals(self):
        post = posterior_probs([(M((1,)), -5.0), (M((2,)), -5.0)])
        assert [p for _, _, p in post.entries] == pytest.approx([0.5, 0.5])

    def test_log3_ratio(self):
        post = posterior_probs([(M((1,)), 0.0), (M((2,)), math.log(3.0))])
        assert post.probability_of(M((1,))) == pytest.approx(0.25)
        assert post.probability_of(M((2,))) == pytest.approx(0.75)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        models = enumerate_models(4, 2)
        logm = rng.normal(scale=50.0, size=len(models))
        a = posterior_probs(list(zip(models, logm)))
        b = posterior_probs(list(zip(models, logm + 333.0)))
        for (_, _, pa), (_, _, pb) in zip(a.entries, b.entries):
            assert pa == pytest.approx(pb, abs=1e-14)

    def test_minus_inf_gets_zero(self):
        post = posterior_probs([(M((1,)), -math.inf), (M((2,)), 1.0)])
        assert post.probability_of(M((1,))) == 0.0
        assert post.probability_of(M((2,))) == 1.0

    def test_sums_to_one_and_permutation_invariant(self):
        rng = np.random.default_rng(1)
        models = enumerate_models(5, 2)
        logm = rng.normal(scale=200.0, size=len(models))
        entries = list(zip(models, logm))
        post = posterior_probs(entries)
        assert sum(p for _, _, p in post.entries) == pytest.approx(1.0, abs=1e-12)
        shuffled = [entries[i] for i in rng.permutation(len(entries))]
        post2 = posterior_probs(shuffled)
        assert [(m.indices, p) for m, _, p in post.entries] == \
               [(m.indices, p) for m, _, p in post2.entries]

    def test_duplicate_model_rejected(self):
        with pytest.raises(ValueError):
            posterior_probs([(M((1,)), 0.0), (M((1,)), 1.0)])

    def test_masses_with_truth(self):
        models = enumerate_models(3, 2)
        post = posterior_probs([(m, 0.0) for m in models], truth=M((1,)))
        assert post.probability_of(M((1,))) + post.mass_a + post.mass_b == \
            pytest.approx(1.0, abs=1e-12)
        assert post.mass_a == pytest.approx(2.0 / 7.0)  # {1,2}, {1,3}
        assert post.mass_b == pytest.approx(4.0 / 7.0)

    def test_probability_of_every_model(self):
        rng = np.random.default_rng(3)
        models = enumerate_models(6, 3)
        kept = [m for m in models if rng.uniform() < 0.6]
        post = posterior_probs([(m, v) for m, v in zip(kept, rng.normal(size=len(kept)))])
        for m, _, prob in post.entries:
            assert post.probability_of(m) == prob
        for m in set(models) - set(kept):
            assert post.probability_of(m) == 0.0
        assert post.probability_of(M((1, 2, 3, 4))) == 0.0

    def test_masses_add_left_to_right(self):
        # the masses are bit-for-bit a running sum over the rows in order
        rng = np.random.default_rng(4)
        models = enumerate_models(12, 3)
        truth = M((2, 5))
        post = posterior_probs(list(zip(models, rng.normal(scale=2.0, size=len(models)))),
                               truth=truth)
        mass_a = mass_b = 0.0
        for m, _, prob in post.entries:
            if m == truth:
                continue
            if m.contains(truth):
                mass_a += prob
            else:
                mass_b += prob
        assert (post.mass_a, post.mass_b) == (mass_a, mass_b)

    def test_normalize_strata_needs_one_marginal_per_model(self):
        with pytest.raises(ValueError):
            normalize_strata(enumerate_strata(3, 1), np.zeros(3))

    def test_normalize_strata_all_excluded_is_uniform(self):
        post = normalize_strata(enumerate_strata(3, 1), np.full(4, -math.inf))
        np.testing.assert_array_equal(post.probability, np.full(4, 0.25))

    def test_posterior_identity(self):
        # 1/prob(truth) - 1 == (sum_A M + sum_B M) / M_truth
        rng = np.random.default_rng(7)
        models = enumerate_models(6, 3)
        truth = M((1, 2))
        logm = rng.normal(scale=3.0, size=len(models))
        entries = list(zip(models, logm))
        post = posterior_probs(entries, truth=truth)
        lhs = 1.0 / post.probability_of(truth) - 1.0
        lm_truth = dict((m.indices, v) for m, v in entries)[truth.indices]
        others = [v for m, v in entries if m != truth]
        rhs = sum(math.exp(v - lm_truth) for v in others)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPartition:
    """The strict supersets (A) and non-supersets (B) of the truth, read off
    posterior_probs' masses: model i gets marginal 2^i, so a mass times the
    normalizer is the bit mask of its set and pins the set exactly."""

    @staticmethod
    def masks(truth):
        models = enumerate_models(3, 2)
        post = posterior_probs([(m, i * math.log(2.0)) for i, m in enumerate(models)],
                               truth=truth)
        z = 2.0 ** len(models) - 1.0

        def members(mass):
            mask = round(mass * z)
            assert mass * z == pytest.approx(mask, abs=1e-9)
            return {m.indices for i, m in enumerate(models) if mask >> i & 1}

        return members(post.mass_a), members(post.mass_b)

    def test_example_truth_singleton(self):
        a, b = self.masks(M((1,)))
        assert a == {(1, 2), (1, 3)}
        assert b == {(), (2,), (3,), (2, 3)}

    def test_empty_truth(self):
        a, b = self.masks(M(()))
        assert len(a) == 6 and len(b) == 0

    def test_truth_at_bound(self):
        a, b = self.masks(M((1, 2)))
        assert a == set()
        assert (1, 2) not in b and len(b) == 6


def strong_signal_dataset(seed, n=250, p=8):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = X[:, [0, 2]] @ np.array([1.4, -1.1]) + rng.normal(size=n)
    return Dataset(y=y, X=X, family="gaussian")


class TestGreedySearch:
    def test_zero_budget_scores_only_empty(self):
        d = strong_signal_dataset(0)
        post, top = greedy_search(d, spimom(), q=2, budget=0, stream=make_stream(1))
        assert [m.indices for m, _, _ in post.entries] == [()]
        assert top == M(())

    def test_deterministic_given_seed(self):
        d = strong_signal_dataset(1)
        a = greedy_search(d, spimom(), q=3, budget=60, stream=make_stream(9))
        b = greedy_search(d, spimom(), q=3, budget=60, stream=make_stream(9))
        assert [(m.indices, lm) for m, lm, _ in a[0].entries] == \
               [(m.indices, lm) for m, lm, _ in b[0].entries]
        assert a[1] == b[1]

    def test_never_scores_a_model_twice(self):
        d = strong_signal_dataset(2)
        seen = []

        def counting_score(J):
            seen.append(J)
            return fit_model(d, J, spimom()).log_marginal

        greedy_search(d, spimom(), q=3, budget=80, stream=make_stream(3),
                      score_fn=per_model_scorer(counting_score))
        assert len(seen) == len(set(seen))

    def test_budget_caps_evaluations(self):
        d = strong_signal_dataset(3)
        calls = []

        def counting_score(J):
            calls.append(J)
            return fit_model(d, J, spimom()).log_marginal

        greedy_search(d, spimom(), q=3, budget=10, stream=make_stream(4),
                      score_fn=per_model_scorer(counting_score))
        assert len(calls) <= 11  # start model plus the budget

    def test_keeps_each_scored_row_in_strata_order(self):
        d = strong_signal_dataset(5)
        post, _ = greedy_search(d, spimom(), q=3, budget=40, stream=make_stream(2))
        scores = post.scores
        assert scores.log_marginal.tobytes() == post.log_marginal.tobytes()
        assert scores.mode.shape == (len(post.entries), 3)
        for i, (m, _, _) in enumerate(post.entries):
            alone = fit_model(d, m, spimom())
            np.testing.assert_allclose(scores.mode[i, :m.size], alone.beta_pm,
                                       rtol=1e-6, atol=1e-9)
            assert np.isnan(scores.mode[i, m.size:]).all()

    def test_matches_enumeration_on_strong_signals(self):
        hits = 0
        for seed in range(6):
            d = strong_signal_dataset(seed + 100)
            spec = spimom()
            models = enumerate_models(d.p, 2)
            entries = [(J, fit_model(d, J, spec).log_marginal) for J in models]
            exhaustive_top = posterior_probs(entries).top
            _, top = greedy_search(d, spec, q=2, budget=100,
                                   stream=make_stream(seed))
            hits += top == exhaustive_top
        assert hits >= 5


class TestWalkOrder:
    """One walk pinned model by model.  The fake scorer makes many exact
    ties, the stream takes random moves at steps 0 and 1, and the budget
    runs out mid-step.  At current model {1,4,6} the walk scores
    (1,2,4,6), (1,3,4,6), (1,4), ... in plain tuple order, not size-major,
    so the pinned order changes if the neighbor order, the tie-break or the
    budget cut does."""

    VISITS = [
        (), (1,), (2,), (3,), (4,), (5,), (6,), (7,),
        (1, 6), (2, 6), (3, 6), (4, 6), (5, 6), (6, 7),
        (1, 4, 6), (2, 4, 6), (3, 4, 6), (4, 5, 6), (4, 6, 7),
        (1, 2, 4, 6), (1, 3, 4, 6), (1, 4), (1, 4, 5, 6), (1, 4, 6, 7),
        (1, 2, 4), (1, 3, 4), (1, 4, 5), (1, 4, 7), (1, 2, 3, 4),
        (1, 3), (1, 3, 4, 5), (1, 3, 4, 7), (3, 4),
    ]

    def test_visit_order_and_top(self):
        rng = np.random.default_rng(0)
        d = Dataset(y=rng.normal(size=20), X=rng.normal(size=(20, 7)))
        seen = []

        def tied_score(J):
            seen.append(J.indices)
            return float(sum(J.indices) % 3 + (J.size == 2))

        post, top = greedy_search(d, spimom(), q=4, budget=32, stream=make_stream(4),
                                  score_fn=per_model_scorer(tied_score))
        assert seen == self.VISITS
        assert top == M((1, 4))
        assert sorted(m.indices for m, _, _ in post.entries) == sorted(self.VISITS)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            greedy_search(strong_signal_dataset(0), spimom(), q=2, budget=-1,
                          stream=make_stream(0))


class TestNeighbors:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_single_additions_and_deletions_in_tuple_order(self, data):
        p = data.draw(st.integers(1, 12))
        q = data.draw(st.integers(0, p))
        current = tuple(sorted(data.draw(st.sets(st.integers(1, p), max_size=q))))
        deletions = [tuple(j for j in current if j != drop) for drop in current]
        additions = ([tuple(sorted(current + (j,))) for j in range(1, p + 1) if j not in current]
                     if len(current) < q else [])
        assert _neighbors(current, p, q) == sorted(deletions + additions)

"""Model space under a sparsity bound: enumeration, posterior probabilities
with the nested / non-nested masses around a reference model, and a cached
stochastic greedy search for spaces too large to enumerate.

A set of models is held as strata: entry k of the list is an (M_k, k)
integer array whose rows are the 1-based column indices of the size-k
models, strictly increasing along each row and lexicographic down the
array.  The enumerator, the normalizer and the search work on strata and
arrays of log marginals.  :class:`ModelIndex` is the one-model form used at
the edges: a truth, a top model.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import posterior
from .numerics import RandomStream, derive_stream

ENUMERATION_CAP = 1_000_000


class TooManyModels(Exception):
    """Requested enumeration exceeds the documented model-count cap."""


@dataclass(frozen=True, order=True)
class ModelIndex:
    """Canonical submodel: a strictly increasing tuple of 1-based column indices.

    Equality and ordering are plain tuple comparisons, so the empty model is
    the smallest and ties between models are broken lexicographically.
    """

    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        idx = tuple(int(j) for j in self.indices)
        if any(j < 1 for j in idx):
            raise ValueError(f"indices must be >= 1, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices: Iterable[int]) -> "ModelIndex":
        """Build from any iterable, sorting and deduplicating."""
        return cls(tuple(sorted(set(int(j) for j in indices))))

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def cols(self) -> np.ndarray:
        """Zero-based column positions into a design matrix."""
        return np.asarray(self.indices, dtype=int) - 1

    def contains(self, other: "ModelIndex") -> bool:
        return set(other.indices) <= set(self.indices)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices)) + "}"


@dataclass(eq=False)
class ModelPosterior:
    """Normalized posterior over an evaluated model set.

    The models are ``strata`` (see the module docstring); ``log_marginal``
    and ``probability`` hold one value per model in strata order, which is
    size-major, then lexicographic.  Probabilities are normalized over
    exactly the models present.  :meth:`set_truth` fills ``mass_a``, the
    probability of a reference model's strict supersets, and ``mass_b``, the
    probability of models missing at least one of its indices, so
    prob(truth) + mass_a + mass_b = 1.  ``scores``, when set, holds each
    model's ``posterior.ModelScores`` row in strata order.
    """

    strata: list[np.ndarray]
    log_marginal: np.ndarray
    probability: np.ndarray
    mass_a: Optional[float] = None
    mass_b: Optional[float] = None
    scores: Optional[posterior.ModelScores] = None

    @property
    def entries(self) -> "_Entries":
        """(model, log_marginal, probability) rows in strata order."""
        return _Entries(self)

    @cached_property
    def _starts(self) -> list[int]:
        # position of each stratum's first row in the flat model order
        sizes = [rows.shape[0] for rows in self.strata]
        return [sum(sizes[:k]) for k in range(len(sizes))]

    def _model(self, i: int) -> tuple[int, ...]:
        # the last stratum starting at or before i is the one holding row i
        k = bisect.bisect_right(self._starts, i) - 1
        return tuple(self.strata[k][i - self._starts[k]].tolist())

    def probability_of(self, model: ModelIndex) -> float:
        """Probability of ``model``, 0 when it was not evaluated."""
        k = model.size
        if k >= len(self.strata):
            return 0.0
        hit = np.flatnonzero((self.strata[k] == model.indices).all(axis=1))
        return float(self.probability[self._starts[k] + hit[0]]) if hit.size else 0.0

    def set_truth(self, truth: ModelIndex) -> None:
        """Set ``mass_a`` and ``mass_b`` around the reference model ``truth``."""
        t = np.asarray(truth.indices, dtype=int)
        contains = np.concatenate([(rows[:, :, None] == t).any(axis=1).all(axis=1)
                                   for rows in self.strata])
        size = np.concatenate([np.full(rows.shape[0], rows.shape[1])
                               for rows in self.strata])
        self.mass_a = _sum_in_order(self.probability[contains & (size > t.size)])
        self.mass_b = _sum_in_order(self.probability[~contains])

    @property
    def top_row(self) -> int:
        """Position of the highest-marginal model in strata order; ties go
        to the lexicographically smallest model."""
        ties = np.flatnonzero(self.log_marginal == self.log_marginal.max())
        return min(ties.tolist(), key=self._model)

    @property
    def top(self) -> ModelIndex:
        """The model at ``top_row``."""
        return ModelIndex(self._model(self.top_row))


class _Entries:
    """The rows of a :class:`ModelPosterior` as (ModelIndex, log_marginal,
    probability) triples.  The ModelIndex objects are built only when the
    rows are iterated, so taking the length costs nothing."""

    def __init__(self, post: ModelPosterior):
        self._post = post

    def __len__(self) -> int:
        return self._post.log_marginal.shape[0]

    def __iter__(self) -> Iterator[tuple[ModelIndex, float, float]]:
        post = self._post
        models = (ModelIndex(row) for rows in post.strata for row in rows.tolist())
        return zip(models, post.log_marginal.tolist(), post.probability.tolist())


def _sum_in_order(x: np.ndarray) -> float:
    # Left to right in row order, as a loop over the rows adds; np.sum's
    # pairwise blocking rounds differently.
    return float(np.cumsum(x)[-1]) if x.size else 0.0


def enumerate_strata(p: int, q: int) -> list[np.ndarray]:
    """All submodels of {1..p} of size 0..q as strata: entry k is the
    (C(p, k), k) array of the size-k models in lexicographic order.

    Raises
    ------
    TooManyModels
        If sum_{k<=q} C(p, k) exceeds ``ENUMERATION_CAP``.
    """
    if not (0 <= q <= p):
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")
    counts = [math.comb(p, k) for k in range(q + 1)]
    if sum(counts) > ENUMERATION_CAP:
        raise TooManyModels(
            f"{sum(counts)} models exceeds the cap of {ENUMERATION_CAP}")
    return [_rows(itertools.combinations(range(1, p + 1), k), m, k)
            for k, m in enumerate(counts)]


def _rows(models: Iterable[tuple[int, ...]], m: int, k: int) -> np.ndarray:
    """The (m, k) integer array whose rows are the given m size-k models."""
    return np.fromiter(itertools.chain.from_iterable(models), dtype=int,
                       count=m * k).reshape(m, k)


def enumerate_models(p: int, q: int) -> list[ModelIndex]:
    """:func:`enumerate_strata` as one ModelIndex per model, size-major then
    lexicographic."""
    return [ModelIndex(row) for rows in enumerate_strata(p, q)
            for row in rows.tolist()]


def normalize_strata(strata: list[np.ndarray], log_marginal: np.ndarray
                     ) -> ModelPosterior:
    """Posterior probabilities of the models of ``strata``, whose log
    marginals are given in strata order.

    Probabilities are proportional to exp(log_marginal) under the uniform
    model prior, normalized by log-sum-exp with max subtraction.  Models
    with a -inf marginal (excluded models) get probability zero.  If every
    marginal is -inf the posterior degenerates to uniform.
    """
    logm = np.asarray(log_marginal, dtype=float)
    if logm.shape != (sum(rows.shape[0] for rows in strata),):
        raise ValueError("need one log marginal per model")
    if not logm.size:
        raise ValueError("no models to normalize")
    mx = logm.max()
    if mx == -math.inf:
        probs = np.full(logm.size, 1.0 / logm.size)
    else:
        w = np.exp(logm - mx)
        probs = w / w.sum()
    return ModelPosterior(strata=strata, log_marginal=logm, probability=probs)


def _size_major(model: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return len(model), model


def _as_strata(models: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Strata of distinct models listed size-major, then lexicographic."""
    groups: list[list[tuple[int, ...]]] = [[] for _ in range(len(models[-1]) + 1)]
    for m in models:
        groups[len(m)].append(m)
    return [_rows(g, len(g), k) for k, g in enumerate(groups)]


def posterior_probs(entries: Sequence[tuple[ModelIndex, float]],
                    truth: Optional[ModelIndex] = None) -> ModelPosterior:
    """:func:`normalize_strata` for (model, log_marginal) pairs in any order,
    with the masses around ``truth`` when one is given."""
    if not entries:
        raise ValueError("entries must be nonempty")
    pairs = sorted(((m.indices, lm) for m, lm in entries),
                   key=lambda e: _size_major(e[0]))
    models = [m for m, _ in pairs]
    if len(set(models)) != len(models):
        raise ValueError("duplicate model in entries")
    post = normalize_strata(_as_strata(models), [lm for _, lm in pairs])
    if truth is not None:
        post.set_truth(truth)
    return post


def _neighbors(current: tuple[int, ...], p: int, q: int) -> list[tuple[int, ...]]:
    """The single-addition neighbors of ``current`` (if below the size bound
    q) and its single-deletion neighbors, in plain tuple order."""
    out = [current[:i] + current[i + 1:] for i in range(len(current))]
    if len(current) < q:
        # the indices j of each gap between current's, inserted at the gap
        bounds = (0, *current, p + 1)
        for i in range(len(current) + 1):
            head, tail = current[:i], current[i:]
            out.extend(head + (j,) + tail for j in range(bounds[i] + 1, bounds[i + 1]))
    out.sort()
    return out


def greedy_search(d, spec, q: int, budget: int, stream: RandomStream,
                  score_fn: Optional[Callable[..., posterior.ModelScores]] = None,
                  ) -> tuple[ModelPosterior, ModelIndex]:
    """Stochastic greedy walk over the bounded model space.

    Starts at the empty model (always scored).  Each step scores every
    unseen single-addition neighbor (if below the size bound) and
    single-deletion neighbor, then moves to the best-scoring neighbor with
    probability 0.9 or to a uniformly random scored neighbor with
    probability 0.1.  Neighbors are listed in plain tuple order of their
    indices (not size-major), and ties between best neighbors go to the
    first in that order.  Every score is cached, no model is ever scored
    twice, and ``budget`` counts scores beyond the start model.  When the
    budget runs out mid-step, the step scores the first unseen neighbors in
    that order.

    A step's unseen neighbors get their ``ModelScores`` rows from one call
    ``score_fn(d, blocks, spec)`` (``posterior.score_models`` by default, a
    fake in tests): the runs of equal size in neighbor order, then an empty
    (0, q) block so that every step's rows have width q.

    Stopping rule (fixed here, deterministic): the walk ends when the score
    budget runs out, when no neighbor beat the current model for 3
    consecutive steps, or when 3 consecutive steps scored nothing new; the
    saturation clause is what terminates a walk cycling inside an already
    fully cached neighborhood.

    Returns the posterior over the visited (scored) set, their rows as its
    ``scores``, and the best visited model, bit-reproducible from (inputs, stream).
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    # read at call time, so a replaced posterior.score_models is the one called
    score_fn = score_fn or posterior.score_models
    parts: list[posterior.ModelScores] = []
    cache: dict[tuple[int, ...], float] = {}  # in the row order of parts

    def score(models: list[tuple[int, ...]]) -> None:
        runs = [list(g) for _, g in itertools.groupby(models, key=len)]
        blocks = [_rows(run, len(run), len(run[0])) for run in runs]
        parts.append(score_fn(d, [*blocks, np.empty((0, q), dtype=int)], spec))
        cache.update(zip(models, parts[-1].log_marginal.tolist()))
    p = d.X.shape[1]
    current: tuple[int, ...] = ()
    score([current])
    evals = 0
    stalls = 0
    saturated = 0
    step = 0
    while evals < budget and stalls < 3 and saturated < 3:
        neighbors = _neighbors(current, p, q)
        fresh = [nb for nb in neighbors if nb not in cache][:budget - evals]
        if fresh:
            score(fresh)
        evals += len(fresh)
        saturated = 0 if fresh else saturated + 1
        scored = [nb for nb in neighbors if nb in cache]
        if not scored:
            break
        best_lm = max(cache[m] for m in scored)
        best = next(m for m in scored if cache[m] == best_lm)  # the first in tuple order
        stalls = 0 if best_lm > cache[current] else stalls + 1
        rng = derive_stream(stream, step).generator
        if rng.uniform() < 0.9:
            current = best
        else:
            current = scored[int(rng.integers(len(scored)))]
        step += 1
    models = sorted(cache, key=_size_major)
    row = {m: i for i, m in enumerate(cache)}
    post = normalize_strata(_as_strata(models), [cache[m] for m in models])
    post.scores = posterior.ModelScores.gather(parts, [row[m] for m in models])
    return post, post.top

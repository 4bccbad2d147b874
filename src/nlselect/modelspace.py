"""Model space under a sparsity bound: enumeration, posterior probabilities
with the nested / non-nested masses around a reference model, and a cached
stochastic greedy search for spaces too large to enumerate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

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

    def with_added(self, j: int) -> "ModelIndex":
        return ModelIndex.of(self.indices + (j,))

    def with_removed(self, j: int) -> "ModelIndex":
        return ModelIndex(tuple(i for i in self.indices if i != j))

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices)) + "}"


@dataclass
class ModelPosterior:
    """Normalized posterior over an evaluated model set.

    ``entries`` rows are (model, log_marginal, probability), probabilities
    normalized over exactly the models present.  When a reference ``truth``
    is supplied, ``mass_a`` collects the probability of its strict supersets
    and ``mass_b`` the probability of models missing at least one of its
    indices, so prob(truth) + mass_a + mass_b = 1.
    """

    entries: list[tuple[ModelIndex, float, float]]
    q: int
    truth: Optional[ModelIndex] = None
    mass_a: Optional[float] = None
    mass_b: Optional[float] = None

    def probability_of(self, model: ModelIndex) -> float:
        for m, _, prob in self.entries:
            if m == model:
                return prob
        return 0.0

    def log_marginal_of(self, model: ModelIndex) -> float:
        for m, lm, _ in self.entries:
            if m == model:
                return lm
        raise KeyError(f"model {model} was not evaluated")

    @property
    def top(self) -> ModelIndex:
        """Highest-marginal model; ties go to the lexicographically smallest."""
        best_lm = max(lm for _, lm, _ in self.entries)
        return min(m for m, lm, _ in self.entries if lm == best_lm)


def enumerate_models(p: int, q: int, cap: int = ENUMERATION_CAP) -> list[ModelIndex]:
    """All submodels of {1..p} of size 0..q, size-major then lexicographic.

    Raises
    ------
    TooManyModels
        If sum_{k<=q} C(p, k) exceeds ``cap``.
    """
    if not (0 <= q <= p):
        raise ValueError(f"need 0 <= q <= p, got q={q}, p={p}")
    count = sum(math.comb(p, k) for k in range(q + 1))
    if count > cap:
        raise TooManyModels(f"{count} models exceeds the cap of {cap}")
    out: list[ModelIndex] = []
    for k in range(q + 1):
        out.extend(ModelIndex(c) for c in itertools.combinations(range(1, p + 1), k))
    return out


def posterior_probs(entries: Sequence[tuple[ModelIndex, float]],
                    truth: Optional[ModelIndex] = None,
                    q: Optional[int] = None) -> ModelPosterior:
    """Posterior probabilities over an evaluated model set.

    Probabilities are proportional to exp(log_marginal) under the uniform
    model prior, normalized by log-sum-exp with max subtraction.  Entries
    with a -inf marginal (excluded models) get probability zero.  If every
    entry is -inf the posterior degenerates to uniform.
    """
    if not entries:
        raise ValueError("entries must be nonempty")
    models = [m for m, _ in entries]
    if len(set(models)) != len(models):
        raise ValueError("duplicate model in entries")
    logm = np.asarray([lm for _, lm in entries], dtype=float)
    mx = logm.max()
    if math.isinf(mx) and mx < 0:
        probs = np.full(len(entries), 1.0 / len(entries))
    else:
        w = np.exp(logm - mx)
        probs = w / w.sum()
    rows = sorted(
        zip(models, logm.tolist(), probs.tolist()),
        key=lambda row: (row[0].size, row[0].indices),
    )
    q_eff = q if q is not None else max(m.size for m in models)
    post = ModelPosterior(entries=list(rows), q=q_eff, truth=truth)
    if truth is not None:
        mass_a = mass_b = 0.0
        for m, _, prob in post.entries:
            if m == truth:
                continue
            if m.contains(truth):
                mass_a += prob
            else:
                mass_b += prob
        post.mass_a = mass_a
        post.mass_b = mass_b
    return post


def greedy_search(d, spec, q: int, budget: int, stream: RandomStream,
                  score_fn: Optional[Callable[[ModelIndex], float]] = None,
                  ) -> tuple[ModelPosterior, ModelIndex]:
    """Stochastic greedy walk over the bounded model space.

    Starts at the empty model (always scored).  Each step scores every
    unseen single-addition neighbor (if below the size bound) and
    single-deletion neighbor, then moves to the best-scoring neighbor with
    probability 0.9 or to a uniformly random scored neighbor with
    probability 0.1.  Every score is cached, no model is ever scored twice,
    and ``budget`` counts scores beyond the start model.  When the budget
    runs out mid-step, the step scores the first unseen neighbors in model
    order.

    By default a step's unseen neighbors are scored together by
    ``posterior.score_models``; a per-model ``score_fn`` replaces that
    scorer (the walk is the same, so tests can substitute a fake).

    Stopping rule (fixed here, deterministic): the walk ends when the score
    budget runs out, when no neighbor beat the current model for 3
    consecutive steps, or when 3 consecutive steps scored nothing new; the
    saturation clause is what terminates a walk cycling inside an already
    fully cached neighborhood.

    Returns the posterior renormalized over the visited (scored) set and the
    best visited model; both are bit-reproducible from (inputs, stream).
    """
    if score_fn is None:
        # local import: posterior depends on glm which depends on this module
        from .posterior import score_models

        def score_batch(models: list[ModelIndex]) -> list[float]:
            return score_models(d, models, spec).log_marginal.tolist()
    else:
        def score_batch(models: list[ModelIndex]) -> list[float]:
            return [score_fn(m) for m in models]
    p = d.X.shape[1]
    current = ModelIndex()
    cache: dict[ModelIndex, float] = {current: score_batch([current])[0]}
    evals = 0
    stalls = 0
    saturated = 0
    step = 0
    while evals < budget and stalls < 3 and saturated < 3:
        neighbors: list[ModelIndex] = []
        if current.size < q:
            neighbors.extend(current.with_added(j)
                             for j in range(1, p + 1) if j not in current.indices)
        neighbors.extend(current.with_removed(j) for j in current.indices)
        neighbors.sort()
        fresh = [nb for nb in neighbors if nb not in cache][:budget - evals]
        if fresh:
            cache.update(zip(fresh, score_batch(fresh)))
        evals += len(fresh)
        saturated = 0 if fresh else saturated + 1
        scored = [nb for nb in neighbors if nb in cache]
        if not scored:
            break
        best_lm = max(cache[m] for m in scored)
        best = min(m for m in scored if cache[m] == best_lm)
        stalls = 0 if best_lm > cache[current] else stalls + 1
        rng = derive_stream(stream, step).generator
        if rng.uniform() < 0.9:
            current = best
        else:
            current = scored[int(rng.integers(len(scored)))]
        step += 1
    post = posterior_probs(list(cache.items()), q=q)
    return post, post.top

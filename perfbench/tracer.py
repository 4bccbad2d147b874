"""Per-layer tracing from outside the program.

``Tracer.install`` wraps every public function of each nlselect module,
plus the private ones a metric names, at every module binding that refers to
it: ``nlselect.posterior.log_likelihood`` and ``nlselect.glm.log_likelihood``
are two bindings of one function and both get the same wrapper.  Functions
imported inside a function body (``greedy_search`` imports ``fit_model`` at
call time) resolve to the wrapper too, because the module attribute is
replaced.  ``SpdMatrix`` is traced through its ``__init__``.

Each wrapper pushes a frame on one call stack, so a function's self time is
its duration minus the wrapped calls made inside it.  Inner calls (about 300
per scored model) only bump per-function counters; spans are kept only for
``fit_model`` and for the op around it, all tagged with the op id, so memory
stays bounded by the number of models.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict

LAYERS = ("cli", "experiments", "modelspace", "posterior", "glm", "priors", "numerics")
# Private functions that a per-layer metric names.
PRIVATE = {"glm": ("_neg_hessian_entries",)}
# Wrapped functions whose outermost calls also add to a shared group time.
GROUPS = {
    "glm._neg_hessian_entries": "glm.hessian",
    "glm.neg_hessian": "glm.hessian",
    "priors.log_prior": "priors",
    "priors.log_prior_grad": "priors",
    "priors.log_prior_neg_hessian": "priors",
}
SPANS = ("posterior.fit_model",)


def _posterior_fit(counts, fit) -> None:
    counts["posterior.excluded"] += fit.log_marginal == -math.inf


def _posterior_mode(counts, fit) -> None:
    counts["posterior.mode_iterations"] += fit.iterations
    counts["posterior.mode_nonconverged"] += not fit.converged


def _glm_fit(counts, fit) -> None:
    counts["glm.mle_iterations"] += fit.iterations


def _greedy(counts, result) -> None:
    counts["modelspace.greedy_search.scored"] += len(result[0].entries)


# Counters read from return values.
HOOKS = {
    "posterior.fit_model": _posterior_fit,
    "posterior.find_posterior_mode": _posterior_mode,
    "glm.fit_mle": _glm_fit,
    "modelspace.greedy_search": _greedy,
}


def _targets(only=None) -> dict:
    """Map each function to trace to its key ``<layer>.<name>``."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module("nlselect." + layer)
        for attr, val in vars(mod).items():
            if not (inspect.isfunction(val) and val.__module__ == mod.__name__):
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            key = f"{layer}.{attr}"
            if only is None or key in only:
                out[val] = key
    return out


class Tracer:
    """Call counts, inclusive and self times, result counters and spans."""

    def __init__(self, only=None):
        self.only = only
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.op_id = 0
        self._depth = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def reset(self) -> None:
        """Start a new op: clear the per-op counters (spans are kept)."""
        for d in (self.calls, self.incl, self.self_s, self.counts, self._depth):
            d.clear()
        self._stack.clear()

    def _wrap(self, key: str, fn):
        stack, depth, calls = self._stack, self._depth, self.calls
        incl, self_s, counts = self.incl, self.self_s, self.counts
        group = GROUPS.get(key)
        hook = HOOKS.get(key)
        spans = self.spans if key in SPANS else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] += 1
            if group:
                depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[1]
                depth[key] -= 1
                if not depth[key]:
                    incl[key] += dt
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        incl[group] += dt
                if stack:
                    stack[-1][1] += dt
                if spans is not None:
                    spans.append((tracer.op_id, key, t0, t0 + dt,
                                  stack[-1][0] if stack else "op"))
            if hook:
                hook(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        targets = _targets(self.only)
        wrappers = {fn: self._wrap(key, fn) for fn, key in targets.items()}
        mods = [importlib.import_module("nlselect")]
        mods += [importlib.import_module("nlselect." + layer) for layer in LAYERS]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        if self.only is None:
            cls = importlib.import_module("nlselect.numerics").SpdMatrix
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap("numerics.SpdMatrix", cls.__init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def per_op_metrics(t: Tracer) -> tuple[dict, dict]:
    """(exact counts, seconds) for the op just traced."""
    c, inc, sf, n = t.calls, t.incl, t.self_s, t.counts
    counts = {
        "posterior.fit_model.calls": c["posterior.fit_model"],
        "posterior.mode_iterations": n["posterior.mode_iterations"],
        "posterior.mode_nonconverged": n["posterior.mode_nonconverged"],
        "posterior.excluded": n["posterior.excluded"],
        "glm.mle_iterations": n["glm.mle_iterations"],
        "glm.log_likelihood.calls": c["glm.log_likelihood"],
        "glm.score.calls": c["glm.score"],
        "glm.hessian.calls": c["glm._neg_hessian_entries"],
        "priors.calls": sum(c[k] for k, g in GROUPS.items() if g == "priors"),
        "numerics.factor_logdet.calls": c["numerics.factor_logdet"],
        "numerics.SpdMatrix.calls": c["numerics.SpdMatrix"],
        "modelspace.greedy_search.scored": n["modelspace.greedy_search.scored"],
        "experiments.simulate_dataset.calls": c["experiments.simulate_dataset"],
    }
    seconds = {
        "posterior.fit_model.s": inc["posterior.fit_model"],
        "posterior.find_posterior_mode.s": inc["posterior.find_posterior_mode"],
        "posterior.find_posterior_mode.self_s": sf["posterior.find_posterior_mode"],
        "posterior.laplace_log_marginal.s": inc["posterior.laplace_log_marginal"],
        "glm.fit_mle.s": inc["glm.fit_mle"],
        "glm.fit_mle.self_s": sf["glm.fit_mle"],
        "glm.log_likelihood.s": inc["glm.log_likelihood"],
        "glm.score.s": inc["glm.score"],
        "glm.hessian.s": inc["glm.hessian"],
        "priors.s": inc["priors"],
        "numerics.factor_logdet.s": inc["numerics.factor_logdet"],
        "numerics.SpdMatrix.s": inc["numerics.SpdMatrix"],
        "numerics.extremal_eigenvalues.s": inc["numerics.extremal_eigenvalues"],
        "numerics.spectral_norm.s": inc["numerics.spectral_norm"],
        "modelspace.enumerate_models.s": inc["modelspace.enumerate_models"],
        "modelspace.posterior_probs.s": inc["modelspace.posterior_probs"],
        "modelspace.greedy_search.self_s": sf["modelspace.greedy_search"],
        "experiments.simulate_dataset.s": inc["experiments.simulate_dataset"],
        "experiments.hessian_diagnostics.s": inc["experiments.hessian_diagnostics"],
        "experiments.consistency_study.self_s": sf["experiments.consistency_study"],
        "cli.read_dataset_csv.s": inc["cli.read_dataset_csv"],
        "cli.to_json.s": inc["cli.to_json"],
        "cli.write_atomic.s": inc["cli.write_atomic"],
    }
    for layer in LAYERS:
        seconds[layer + ".self_s"] = t.layer_self_s(layer)
    return counts, seconds

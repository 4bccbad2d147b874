"""Bayesian variable selection for GLMs with product nonlocal priors."""

from .glm import Dataset, GlmFit, fit_mle, log_likelihood, neg_hessian, score
from .modelspace import (ModelIndex, ModelPosterior, TooManyModels,
                         enumerate_models, enumerate_strata, greedy_search,
                         normalize_strata, posterior_probs)
from .numerics import (NoBracket, NoConvergence, NotPositiveDefinite,
                       RandomStream, SpdMatrix, adaptive_quad, derive_stream,
                       factor_logdet, make_stream, root_find)
from .posterior import (ModelScores, PosteriorFit, find_posterior_mode,
                        fit_model, laplace_log_marginal, score_models)
from .priors import (AtOrigin, NonlocalPriorSpec, log_prior, log_prior_grad,
                     log_prior_neg_hessian, pimom, spimom, spimom_mixture_quad)

__version__ = "0.1.0"

__all__ = [
    "AtOrigin", "Dataset", "GlmFit", "ModelIndex", "ModelPosterior", "ModelScores",
    "NoBracket", "NoConvergence", "NonlocalPriorSpec", "NotPositiveDefinite",
    "PosteriorFit", "RandomStream", "SpdMatrix", "TooManyModels",
    "adaptive_quad", "derive_stream", "enumerate_models", "enumerate_strata",
    "factor_logdet", "find_posterior_mode", "fit_mle", "fit_model", "greedy_search",
    "laplace_log_marginal", "log_likelihood", "log_prior", "log_prior_grad",
    "log_prior_neg_hessian", "make_stream", "neg_hessian", "normalize_strata",
    "pimom", "posterior_probs", "root_find", "score", "score_models", "spimom",
    "spimom_mixture_quad",
]

"""Equivalence set restricted latent class models.

Bayesian latent class models whose classes may share item response
probabilities through equivalence set restrictions, fitted by MCMC with a
repelled beta prior on the shared probabilities, plus identifiability
checking, simulation, and cross-validated evaluation.
"""

from .kernels import ACTIVE_BACKEND
from .model import (
    Dataset,
    ModelState,
    PriorConfig,
    base_vector_log_prior,
    bell,
    canonicalize,
    full_log_joint,
    stirling2,
)
from .mcmc import McmcConfig, PosteriorDraws, run_chain, run_chains

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_BACKEND",
    "Dataset",
    "McmcConfig",
    "ModelState",
    "PosteriorDraws",
    "PriorConfig",
    "base_vector_log_prior",
    "bell",
    "canonicalize",
    "full_log_joint",
    "run_chain",
    "run_chains",
    "stirling2",
    "__version__",
]

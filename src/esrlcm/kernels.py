"""Hot numeric kernels of the sampler sweep, in plain numpy.

``categorical_rows`` consumes caller-supplied uniforms, so its draws are
reproducible given those uniforms.
"""

import numpy as np

ACTIVE_BACKEND = "numpy"


def class_loglik(x, log_theta, log_one_minus_theta):
    """Per-observation, per-class Bernoulli log likelihood matrix (n x C)."""
    x = x.astype(np.float64, copy=False)
    return x @ log_theta.T + (1.0 - x) @ log_one_minus_theta.T


def categorical_rows(logp, u):
    """Sample one category per row of unnormalized log probabilities.

    Row i is normalized by max-subtraction and the draw consumes ``u[i]``:
    it picks the first category whose cumulative weight reaches
    ``u[i]`` times the row total.
    """
    shift = logp - logp.max(axis=1, keepdims=True)
    p = np.exp(shift)
    cum = np.cumsum(p, axis=1)
    target = u * cum[:, -1]
    return (cum < target[:, None]).sum(axis=1).astype(np.int64)


def class_counts(x, memberships, n_classes):
    """Per-class success counts (C x J) and per-class totals (C,), as floats."""
    n = x.shape[0]
    onehot = np.zeros((n, n_classes), dtype=np.float64)
    if n:
        onehot[np.arange(n), memberships] = 1.0
    successes = onehot.T @ x.astype(np.float64, copy=False)
    return successes, onehot.sum(axis=0)

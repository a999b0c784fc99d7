"""Hot numeric kernels of the sweep, in plain numpy.

``x`` is the float64, C-contiguous response matrix that ``Dataset`` keeps,
so each kernel reads it once without a cast. ``categorical_rows`` consumes
caller-supplied uniforms, so its draws are reproducible given those uniforms.
"""

import numpy as np

ACTIVE_BACKEND = "numpy"


def class_loglik(x, log_theta, log_one_minus_theta):
    """Per-observation, per-class Bernoulli log likelihood matrix (n x C).

    One matmul: x log(theta) + (1 - x) log(1 - theta) regrouped as
    x (log(theta) - log(1 - theta)) + sum_j log(1 - theta).
    """
    return x @ (log_theta - log_one_minus_theta).T + log_one_minus_theta.sum(axis=1)


def categorical_rows(logp, u):
    """Sample one category per row of unnormalized log probabilities.

    Row i is normalized by max-subtraction and the draw consumes ``u[i]``:
    it picks the first category whose cumulative weight reaches
    ``u[i]`` times the row total. The work runs on a contiguous C x n copy,
    so each reduction walks whole rows; the arithmetic is the row-wise one.
    """
    logp = np.ascontiguousarray(logp.T)
    p = np.exp(logp - logp.max(axis=0))
    cum = np.cumsum(p, axis=0)
    return (cum < u * cum[-1]).sum(axis=0).astype(np.int64)


def class_counts(x, memberships, n_classes):
    """Per-class success counts (C x J) and per-class totals (C,), as floats.

    Successes are one product of a C x n class indicator with ``x``; the
    sums are of 0/1 terms, so they are exact in any order.
    """
    member = (memberships == np.arange(n_classes)[:, None]).astype(np.float64)
    return member @ x, np.bincount(memberships, minlength=n_classes).astype(np.float64)

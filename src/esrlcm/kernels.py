"""Hot numeric kernels of the sweep, in plain numpy.

``x`` is the float64, F-contiguous (item-major) response matrix that
``Dataset`` keeps, so each kernel reads it once without a cast, and
``x.T`` is C-contiguous. The kernels are class-major:
log likelihoods, logits and counts are (C, n) or (C, J) blocks, one row per
class, so a per-class term is one row add and the membership draw makes no
transposing copy. ``categorical_rows`` consumes caller-supplied uniforms, so
its draws are reproducible given those uniforms. ``class_counts`` counts
every row once; ``update_class_counts`` carries those counts to new
memberships from the rows whose class changed, with the same bits.
"""

import numpy as np

ACTIVE_BACKEND = "numpy"


def class_loglik(x, log_theta, log_one_minus_theta):
    """Per-class, per-observation Bernoulli log likelihood block (C x n).

    One matmul: x log(theta) + (1 - x) log(1 - theta) regrouped as
    (log(theta) - log(1 - theta)) x' + sum_j log(1 - theta). Both parameter
    blocks are made C-contiguous first, so the result has the same bits
    whatever the memory layout of the parameters; with the item-major ``x``
    of ``Dataset`` the product is an untransposed (C, J) @ (J, n) GEMM. A
    row-major ``x`` gives the same values, but BLAS may round the last bit
    of some differently. The result is C-contiguous
    and the sum is added in place, one row per class, so the result is the
    only C x n temporary.
    """
    log_theta = np.ascontiguousarray(log_theta)
    log_one_minus_theta = np.ascontiguousarray(log_one_minus_theta)
    out = (log_theta - log_one_minus_theta) @ x.T
    out += log_one_minus_theta.sum(axis=1)[:, None]
    return out


def categorical_rows(logp, u):
    """Sample one category per column of a (K, n) block of unnormalized log
    probabilities.

    Column i is normalized by max-subtraction and the draw consumes ``u[i]``:
    it picks the first category whose cumulative weight reaches ``u[i]``
    times the column total. The work runs in place on one C-contiguous copy,
    so ``logp`` is left as it was; a C-contiguous ``logp`` is copied without
    a transpose. The running sums and the pick count advance one whole row
    of n at a time, faster than numpy's axis-0 ``cumsum`` and ``sum``; the
    additions and their order are the per-observation ones.
    """
    cum = np.array(logp, order="C")
    cum -= cum.max(axis=0)
    np.exp(cum, out=cum)
    for c in range(1, len(cum)):
        cum[c] += cum[c - 1]
    threshold = u * cum[-1]
    pick = np.zeros(cum.shape[1], dtype=np.int64)
    for row in cum:
        pick += row < threshold
    return pick


def class_counts(x, memberships, n_classes):
    """Per-class success counts (C x J) and per-class totals (C,), as floats.

    Successes are one product of a C x n class indicator with ``x``; the
    sums are of 0/1 terms, so they are exact in any order.
    """
    member = (memberships == np.arange(n_classes)[:, None]).astype(np.float64)
    return member @ x, np.bincount(memberships, minlength=n_classes).astype(np.float64)


def update_class_counts(x, old, new, counts):
    """The ``class_counts`` of memberships ``new``, from ``counts``, those of
    ``old``, and the rows whose class changed.

    A moved row adds its row of ``x`` to its new class and subtracts it from
    its old one: one product of a signed (C, k) one-hot block with the k
    moved rows. Every term and partial sum is an integer far below 2^53, so
    the result has the same bits as a full recount.
    """
    succ, totals = counts
    moved = np.flatnonzero(old != new)
    delta = np.zeros((len(totals), moved.size))
    cols = np.arange(moved.size)
    delta[new[moved], cols] = 1.0
    delta[old[moved], cols] = -1.0
    return succ + delta @ x[moved], totals + delta.sum(axis=1)

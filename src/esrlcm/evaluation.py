"""Model evaluation: predictive likelihood, class alignment, restriction
recovery metrics, and K-fold cross-validation."""

import hashlib

import numpy as np

from .mcmc import PosteriorDraws, run_lockstep
# kept importable by this name: perfbench/tracing.py patches evaluation.run_chain
from .mcmc import run_chain  # noqa: F401
from .model import Dataset, canonicalize


# Output elements (rows x draws x classes) of one holdout block: 2 MB of float64.
BLOCK_ELEMENTS = 2 ** 18


def _mixture_obs_loglik(x, pi, theta):
    """Mean over the rows of ``x`` of the log of the draw-averaged mixture density.

    ``pi`` is (D, C) and ``theta`` (D, C, J). A row's density is
    (1/D) sum_d sum_c pi[d, c] p(x | theta[d, c]), so its log is one
    log-sum-exp over all D * C class columns minus log D.

    A class's log term l = x log(theta) + (1 - x) log(1 - theta) + log(pi)
    is regrouped as a dot product of one weight row, the item log-odds
    log(theta) - log(1 - theta), the bias sum_j log(1 - theta) + log(pi) and
    a 1, with the column (x', 1, -shift). Rows are scored in blocks of at
    most ``BLOCK_ELEMENTS`` outputs through one reused (J + 2, rows) buffer of
    such columns, so one GEMM gives a block of l - shift, which is
    exponentiated in place and summed per row. A row's shift is the best of
    draw 0's C terms, from one small product, so the block needs no max pass.
    A row that has a class more than about 709 nats above that shift
    overflows the exp; it is scored again with its exact max.
    """
    n_obs = x.shape[0]
    if n_obs == 0:
        raise ValueError("the holdout has no observations")
    n_draws, n_classes, n_items = theta.shape
    theta = theta.reshape(n_draws * n_classes, n_items)
    log_one_minus_theta = np.log1p(-theta)
    weights = np.empty((len(theta), n_items + 2))
    np.subtract(np.log(theta), log_one_minus_theta, out=weights[:, :n_items])
    weights[:, n_items] = log_one_minus_theta.sum(axis=1) + np.log(pi).ravel()
    weights[:, n_items + 1] = 1.0
    rows = max(1, BLOCK_ELEMENTS // len(weights))
    buffer = np.empty((n_items + 2, min(rows, n_obs)))
    buffer[n_items] = 1.0
    total = 0.0
    for start in range(0, n_obs, rows):
        block = buffer[:, :min(rows, n_obs - start)]
        block[:n_items] = x[start:start + rows].T
        shift = (weights[:n_classes, :-1] @ block[:-1]).max(axis=0)
        block[-1] = -shift
        dens = weights @ block
        with np.errstate(over="ignore"):
            np.exp(dens, out=dens)
        dens = dens.sum(axis=0)
        over = ~np.isfinite(dens)
        if over.any():
            logp = weights[:, :-1] @ block[:-1, over]
            shift[over] = logp.max(axis=0)
            dens[over] = np.exp(logp - shift[over]).sum(axis=0)
        total += float((np.log(dens) + shift).sum())
    return total / n_obs - float(np.log(n_draws))


def align_classes(reference, target) -> np.ndarray:
    """Permutation matching target classes to reference classes.

    Returns ``perm`` minimizing the squared distance between ``reference``
    and ``target[perm]``, by optimal assignment on the class-by-class cost
    matrix.
    """
    reference = np.asarray(reference, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if reference.shape != target.shape:
        raise ValueError("reference and target must have identical shapes")
    # scipy.optimize costs about 0.35 s to import on top of scipy.special;
    # only commands that align classes (fit, metrics) should pay it
    from scipy.optimize import linear_sum_assignment

    cost = ((reference[:, None, :] - target[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(reference.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm


def predictive_loglik(draws: PosteriorDraws, holdout: Dataset,
                      mode: str = "predictive_mean", perms=None) -> float:
    """Average out-of-sample log likelihood per observation.

    ``predictive_mean`` scores each observation by the log of the average
    mixture density over retained draws; ``plug_in`` first aligns the draws
    to the highest log-joint draw and scores with the posterior-mean
    parameters. ``perms`` are as in :func:`posterior_mean_parameters`. A
    holdout with no observations raises ``ValueError``.
    """
    if draws.n_draws == 0:
        raise ValueError("draws must be nonempty")
    if mode == "predictive_mean":
        return _mixture_obs_loglik(holdout.x, draws.pi, draws.theta_matrices())
    if mode == "plug_in":
        pi_bar, theta_bar = posterior_mean_parameters(draws, perms)
        return _mixture_obs_loglik(holdout.x, pi_bar[None], theta_bar[None])
    raise ValueError(f"unknown mode {mode!r}")


def aligned_permutations(draws: PosteriorDraws):
    """Permutation per draw onto the highest log-joint draw's labeling."""
    if draws.n_draws == 0:
        raise ValueError("draws must be nonempty")
    thetas = draws.theta_matrices()
    ref = thetas[int(np.argmax(draws.log_joint))]
    return [align_classes(ref, theta) for theta in thetas]


def posterior_mean_parameters(draws: PosteriorDraws, perms=None):
    """Posterior-mean class weights and response matrix of aligned draws.

    ``perms`` are the draws' :func:`aligned_permutations`, computed when
    not given.
    """
    if perms is None:
        perms = aligned_permutations(draws)
    perms = np.asarray(perms)
    pi = np.take_along_axis(draws.pi, perms, axis=1).mean(axis=0)
    theta = np.take_along_axis(draws.theta_matrices(), perms[:, :, None], axis=1).mean(axis=0)
    return pi, theta


def mode_restrictions(draws: PosteriorDraws, perms=None) -> np.ndarray:
    """Most frequent partition per item among aligned draws, as (J, C) columns.

    Ties break toward fewer equivalence sets, then lexicographically.
    ``perms`` are as in :func:`posterior_mean_parameters`.
    """
    if perms is None:
        perms = aligned_permutations(draws)
    aligned = np.take_along_axis(draws.base_columns, np.asarray(perms)[:, None, :], axis=2)
    n_draws, n_items, n_classes = aligned.shape
    # one row per (item, draw): the item, then its canonical column; sorted
    # by item, then lexicographically, equal rows are runs
    rows = np.column_stack([np.repeat(np.arange(n_items), n_draws),
                            canonicalize(aligned).transpose(1, 0, 2).reshape(-1, n_classes)])
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, len(rows)])
    items, columns = rows[starts, 0], rows[starts, 1:]
    # per item: most frequent, then fewest sets; lexsort is stable, so then
    # lexicographically first
    best = np.lexsort((columns.max(axis=1), -counts, items))
    return columns[best[np.r_[True, np.diff(items[best]) != 0]]]


def restriction_sensitivity_specificity(truth, estimate, alignment=None):
    """Recovery rates of restricted and unrestricted class pairs.

    ``truth`` and ``estimate`` are (J, C) blocks of canonical columns, and
    truth class c is compared with estimate class ``alignment[c]``.
    Sensitivity is the fraction of truly restricted pairs (equal response
    probabilities) the estimate also restricts; specificity the fraction of
    truly unrestricted pairs kept unrestricted. Pairs aggregate over items.
    A component with no eligible pairs is returned as None.
    """
    if truth.shape != estimate.shape:
        raise ValueError("matrices must have identical dimensions")
    n_classes = truth.shape[1]
    if alignment is None:
        alignment = np.arange(n_classes)
    alignment = np.asarray(alignment, dtype=np.int64)

    i, k = np.triu_indices(n_classes, k=1)
    estimate = estimate[:, alignment]
    true_pairs = truth[:, i] == truth[:, k]  # item, class pair
    est_pairs = estimate[:, i] == estimate[:, k]
    total_restricted = int(true_pairs.sum())
    total_unrestricted = true_pairs.size - total_restricted
    hits_restricted = int((true_pairs & est_pairs).sum())
    hits_unrestricted = int((~true_pairs & ~est_pairs).sum())
    sensitivity = hits_restricted / total_restricted if total_restricted else None
    specificity = hits_unrestricted / total_unrestricted if total_unrestricted else None
    return sensitivity, specificity


def fold_assignments(seed: int, n: int, k: int) -> np.ndarray:
    """Deterministic, platform-stable fold labels in 0..k-1."""
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        digest = hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=8).digest()
        out[i] = int.from_bytes(digest, "big") % k
    return out


def kfold_cv(data: Dataset, prior_grid, config, k: int, seed: int = 0):
    """K-fold cross-validated predictive log likelihood per prior config.

    Returns one (config, mean out-of-sample log likelihood per observation)
    row per grid entry. Observations are assigned to folds by a stable hash
    of (seed, index); fold f's chain runs as chain index f of
    ``config.seed``, so every fold has its own stream. Each fold's split is
    built once, and the chains of the whole (prior, fold) grid run as one
    lockstep group (:func:`mcmc.run_lockstep`), in this process: a fold
    chain's draws are those :func:`mcmc.run_chain` would give it, and fold
    scores are summed fold by fold, as chain by chain. No worker pool: on
    a 2-vCPU host a forked 2-worker pool ran a 10-chain grid 30% slower
    than serial under default BLAS threads (481 vs 367 ms), and the package
    cannot pin BLAS to one thread once numpy is loaded.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if data.n < k:
        raise ValueError("need at least one observation per fold")
    folds = fold_assignments(seed, data.n, k)
    if np.bincount(folds, minlength=k).min() == 0:
        raise ValueError("a fold received no observations; lower k")

    splits = [(Dataset(data.x[folds != fold]), Dataset(data.x[folds == fold]))
              for fold in range(k)]
    chains = iter(run_lockstep([(train, prior, fold) for prior in prior_grid
                                for fold, (train, _) in enumerate(splits)], config))
    rows = []
    for prior in prior_grid:
        total = 0.0
        for _, test in splits:
            total += predictive_loglik(next(chains), test) * test.n
        rows.append((prior, total / data.n))
    return rows

"""Shared oracles and fixtures used across the test modules."""

import numpy as np
from scipy import integrate
from scipy.special import betaln, gammaln
from scipy.stats import beta as sp_beta
from scipy.stats import dirichlet as sp_dirichlet

from esrlcm import kernels, mcmc, simulation
from esrlcm.identifiability import _is_column_merge
from esrlcm.model import (
    Dataset,
    ModelState,
    PriorConfig,
    base_vector_log_prior,
    canonicalize,
    pad_theta_prime,
)
from esrlcm.repelled_beta import log_density_all_ones, log_gap_term, log_normalizer_all_ones


def quadrature_integral_all_ones(m, v):
    """Adaptive quadrature of the unnormalized all-ones density over (0,1)^m.

    Integrates the ordered region and multiplies by m! (the density is
    permutation symmetric), which keeps the integrand smooth.
    """
    if m == 1:
        return 1.0
    if m == 2:
        val, _ = integrate.dblquad(
            lambda r1, r2: (r2 - r1) ** v, 0, 1, 0, lambda r2: r2,
            epsabs=1e-12, epsrel=1e-11,
        )
        return 2.0 * val
    if m == 3:
        val, _ = integrate.tplquad(
            lambda r1, r2, r3: ((r2 - r1) * (r3 - r2)) ** v,
            0, 1, 0, lambda r3: r3, 0, lambda r3, r2: r2,
            epsabs=1e-12, epsrel=1e-11,
        )
        return 6.0 * val
    raise NotImplementedError("quadrature oracle covers m <= 3")


def iter_set_partitions(items):
    """Independent brute-force set partition enumeration for count oracles."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in iter_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [head]] + sub[i + 1:]
        yield [[head]] + sub


def all_partition_columns(n_classes: int):
    """All canonical partition columns of ``n_classes`` classes, lexicographic."""
    columns = []

    def grow(prefix, n_used):
        if len(prefix) == n_classes:
            columns.append(np.array(prefix, dtype=np.int64))
            return
        for label in range(1, n_used + 2):
            grow(prefix + [label], max(n_used, label))

    grow([1], 1)
    return columns


def fixture_columns(n_classes: int) -> np.ndarray:
    """The 32-item generation fixture's first ``n_classes`` classes, (32, C) canonical columns."""
    return canonicalize(simulation._load_fixture_table(n_classes))


def lcm_prior(n_classes, v_mode="free"):
    """The plain latent class model: zeta puts all its mass on C sets."""
    return PriorConfig(alpha_c=np.ones(n_classes), zeta=np.eye(n_classes)[-1], v_mode=v_mode)


def random_canonical_column(rng, n_classes):
    return canonicalize(rng.integers(1, n_classes + 1, size=n_classes))


def random_state(rng, n_classes, n_items, n, v_mode="free", max_v=2.0):
    """A random consistent model state, prior, and dataset."""
    columns = np.array([random_canonical_column(rng, n_classes) for _ in range(n_items)])
    theta_prime = pad_theta_prime(columns, [
        np.sort(rng.uniform(0.05, 0.95, size=column.max())) for column in columns
    ])
    pi = rng.dirichlet(np.ones(n_classes))
    state = ModelState(
        pi=pi,
        memberships=rng.integers(0, n_classes, size=n),
        columns=columns,
        theta_prime=theta_prime,
        v=rng.uniform(0.05, max_v * 0.95) if v_mode == "free" else 0.0,
    )
    prior = PriorConfig.default(n_classes, lam=rng.uniform(0.2, 1.0), v_mode=v_mode)
    data = Dataset(rng.integers(0, 2, size=(n, n_items)))
    return state, data, prior


def oracle_full_log_joint(state, data, prior):
    """Second, loop-based implementation of the joint density for cross-checks."""
    n_items, n_classes = state.columns.shape
    out = sp_dirichlet.logpdf(state.pi / state.pi.sum(), prior.alpha_c)
    for j in range(n_items):
        col = state.columns[j]
        n_sets = int(col.max())
        if prior.lam is not None:
            norm = sum(
                _count_partitions_with_blocks(n_classes, k) * prior.lam ** k
                for k in range(1, n_classes + 1)
            )
            out += n_sets * np.log(prior.lam) - np.log(norm)
        else:
            out += np.log(prior.zeta[n_sets - 1]) - np.log(
                _count_partitions_with_blocks(n_classes, n_sets)
            )
        # normalized repelled beta prior at all-ones shapes
        out += (
            gammaln((n_sets - 1) * (state.v + 1) + 2)
            - gammaln(n_sets + 1)
            - (n_sets - 1) * gammaln(state.v + 1)
        )
        sorted_theta = np.sort(state.theta_prime[j])
        for k in range(1, n_sets):
            out += state.v * np.log(sorted_theta[k] - sorted_theta[k - 1])
    if prior.v_mode == "free":
        out += prior.d1 * np.log(state.v) + prior.d2 * state.v
    theta = state.theta_matrix()
    for i in range(data.n):
        c = state.memberships[i]
        out += np.log(state.pi[c])
        for j in range(data.n_items):
            out += np.log(theta[c, j]) if data.x[i, j] == 1 else np.log(1 - theta[c, j])
    return float(out)


def oracle_mode_restrictions(base_columns, perms):
    """Per item, the most frequent of the (D, J, C) draws' aligned canonical
    columns, by one ``np.unique`` per item: ties go to fewer sets, then to
    the lexicographically first column."""
    aligned = np.take_along_axis(base_columns, np.asarray(perms)[:, None, :], axis=2)
    modes = []
    for draws_j in canonicalize(aligned).transpose(1, 0, 2):
        rows, counts = np.unique(draws_j, axis=0, return_counts=True)
        # np.unique sorts rows lexicographically and lexsort is stable
        modes.append(rows[np.lexsort((rows.max(axis=1), -counts))[0]])
    return np.array(modes)


def predictive_loglik_per_draw(draws, holdout) -> float:
    """Posterior-mean predictive log likelihood, one draw at a time.

    Each draw's per-row mixture log density is a log-sum-exp over its
    classes; the draws are combined with a running ``logaddexp``.
    """
    running = None
    for pi, theta in zip(draws.pi, draws.theta_matrices()):
        logp = kernels.class_loglik(holdout.x, np.log(theta), np.log1p(-theta))
        logp += np.log(pi)[:, None]
        shift = logp.max(axis=0)
        logp = np.log(np.exp(logp - shift).sum(axis=0)) + shift
        running = logp if running is None else np.logaddexp(running, logp)
    return float((running - np.log(draws.n_draws)).mean())


def _count_partitions_with_blocks(n, k):
    return sum(1 for p in iter_set_partitions(range(n)) if len(p) == k)


def _item_counts(column, memberships, x_j):
    """Per-set success/failure counts for one item from raw responses."""
    n_sets = int(column.max())
    by_class = column[memberships] - 1
    succ = np.bincount(by_class, weights=x_j, minlength=n_sets)
    tot = np.bincount(by_class, minlength=n_sets)
    return succ, tot - succ


def collapsed_item_loglik_v0(column, memberships, x_j) -> float:
    """Marginal log likelihood of one item's responses given its partition.

    Integrates the per-set response probabilities out under independent
    uniform priors, valid only at v = 0.
    """
    succ, fail = _item_counts(np.asarray(column), np.asarray(memberships), np.asarray(x_j))
    return float(betaln(1.0 + succ, 1.0 + fail).sum())


def gibbs_update_c(i, state, data, rng):
    """Redraw one observation's class membership."""
    theta = state.theta_matrix()
    x_i = data.x[i].astype(np.float64)
    loglik = x_i @ np.log(theta).T + (1.0 - x_i) @ np.log1p(-theta).T
    logp = np.log(state.pi) + loglik
    state.memberships[i] = kernels.categorical_rows(logp[:, None], rng.random(1))[0]
    return state


def conjugate_posterior(alpha, v, counts):
    """Posterior ``(alpha, v)`` after Bernoulli responses: shapes add counts,
    v unchanged. ``counts[k] = (successes, failures)`` observed for component k.
    """
    alpha, counts = np.asarray(alpha, dtype=np.float64), np.asarray(counts)
    if counts.shape != alpha.shape:
        raise ValueError(f"counts must have shape {alpha.shape}, got {counts.shape}")
    if np.any(counts < 0) or not np.all(counts == np.floor(counts)):
        raise ValueError("counts must be nonnegative integers")
    return alpha + counts, v


def log_density_unnormalized(alpha, rho, v):
    """Unnormalized repelled beta log density at ``rho`` for the (M, 2) shapes ``alpha``."""
    alpha, rho = np.asarray(alpha, dtype=np.float64), np.asarray(rho, dtype=np.float64)
    beta = np.sum((alpha[:, 0] - 1.0) * np.log(rho) + (alpha[:, 1] - 1.0) * np.log1p(-rho))
    return float(beta + log_gap_term(rho, v))


def sample_sorted_all_ones(m: int, v: float, rng) -> np.ndarray:
    """Exact sorted draw for the all-ones case via the gap Dirichlet."""
    return np.cumsum(rng.dirichlet(gaps_distribution(m, v)))[:m]


def normalizer_all_ones(m: int, v: float) -> float:
    """Normalizing constant for the all-ones shape matrix."""
    return float(np.exp(log_normalizer_all_ones(m, v)))


def gaps_distribution(m: int, v: float) -> np.ndarray:
    """Dirichlet parameters of the sorted-component gaps (all-ones case).

    The vector (rho_(1), rho_(2)-rho_(1), ..., 1-rho_(M)) of length M+1 is
    Dirichlet([1, v+1, ..., v+1, 1]). Cumulative sums of the first M gap
    draws give an exact monotone sample.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    out = np.full(m + 1, v + 1.0)
    out[0] = 1.0
    out[-1] = 1.0
    return out


def expected_rho(m: int, v: float, k: int) -> float:
    """Expectation of the k-th order statistic in the all-ones case."""
    if not 1 <= k <= m:
        raise ValueError(f"k must be in 1..{m}, got {k}")
    return (1.0 + (v + 1.0) * (k - 1)) / ((m - 1) * (v + 1.0) + 2.0)


def theta_from_base(theta_prime_j, column) -> np.ndarray:
    """Expand per-set response probabilities to per-class: theta[c] = theta'[label[c]]."""
    theta_prime_j = np.asarray(theta_prime_j, dtype=np.float64)
    column = np.asarray(column)
    if theta_prime_j.shape != (int(column.max()),):
        raise ValueError(
            f"theta' has length {theta_prime_j.size} but the column has {int(column.max())} sets"
        )
    return theta_prime_j[column - 1]


def is_merged_of(columns, merged) -> bool:
    """True when every row of the (J, C) block ``merged`` coarsens the same
    item's column of ``columns``.

    Per item j there must be a single-valued label map g with
    merged[j, c] = g(columns[j, c]) for every class.
    """
    columns, merged = np.asarray(columns), np.asarray(merged)
    if columns.shape != merged.shape:
        raise ValueError("blocks must have identical shapes")
    return all(map(_is_column_merge, columns, merged))


def _set_counts(column, succ_j, totals):
    """Per-set success/failure counts of one item from per-class counts."""
    n_sets = int(column.max())
    succ = np.bincount(column - 1, weights=succ_j, minlength=n_sets)
    return succ, np.bincount(column - 1, weights=totals, minlength=n_sets) - succ


def column_menu_loop(column, target, succ_j, totals, prior):
    """Per-candidate loop form of the base move menu and its log weights."""
    others = np.delete(column, target)
    raw = []
    for label in list(np.unique(others)) + [column.max() + 1]:
        cand = column.copy()
        cand[target] = label
        raw.append(canonicalize(cand))
    log_w = []
    for cand in raw:
        succ, fail = _set_counts(cand, succ_j, totals)
        log_w.append(base_vector_log_prior(cand, prior) + betaln(1.0 + succ, 1.0 + fail).sum())
    return raw, np.asarray(log_w)


def rj_log_acceptance_terms(col_old, theta_old, col_new, theta_new, succ_j, totals, prior, v):
    """Reversible jump log acceptance ratio term by term.

    Sums the partition prior ratio, the normalized repelled beta ratio, the
    item likelihood ratio, the conjugate beta proposal densities of every
    set of the reverse and the forward move, and the reverse-over-forward
    column weight ratio.
    """
    def loglik(col, theta):
        t = theta[col - 1]
        return succ_j @ np.log(t) + (totals - succ_j) @ np.log1p(-t)

    def proposal(col, theta):
        succ, fail = _set_counts(col, succ_j, totals)
        return sp_beta.logpdf(theta, 1.0 + succ, 1.0 + fail).sum()

    def log_weight(col):
        succ, fail = _set_counts(col, succ_j, totals)
        return base_vector_log_prior(col, prior) + betaln(1.0 + succ, 1.0 + fail).sum()

    return (
        base_vector_log_prior(col_new, prior) - base_vector_log_prior(col_old, prior)
        + log_density_all_ones(theta_new, v) - log_density_all_ones(theta_old, v)
        + loglik(col_new, theta_new) - loglik(col_old, theta_old)
        + proposal(col_old, theta_old) - proposal(col_new, theta_new)
        + log_weight(col_old) - log_weight(col_new)
    )


def one_lane(state, data, prior, rng):
    """A one-lane ``mcmc.Lanes`` block of ``state`` with the class counts of
    its memberships on ``data``; the state views the block from then on."""
    counts = kernels.class_counts(data.x, state.memberships, state.columns.shape[1])
    return mcmc.Lanes([state], [prior], [rng], [counts])

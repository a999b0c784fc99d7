"""Shared oracles and fixtures used across the test modules."""

import numpy as np
from scipy import integrate
from scipy.special import betaln, gammaln
from scipy.stats import dirichlet as sp_dirichlet

from esrlcm.mcmc import _pick_categorical
from esrlcm.model import (
    BaseClassMatrix,
    Dataset,
    ModelState,
    PriorConfig,
    canonicalize,
)
from esrlcm.repelled_beta import RepelledBetaParams, gaps_distribution


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


def random_canonical_column(rng, n_classes):
    return canonicalize(rng.integers(1, n_classes + 1, size=n_classes))


def random_state(rng, n_classes, n_items, n, v_mode="free", max_v=2.0):
    """A random consistent model state, prior, and dataset."""
    columns = [random_canonical_column(rng, n_classes) for _ in range(n_items)]
    base = BaseClassMatrix(np.column_stack(columns))
    theta_prime = [
        np.sort(rng.uniform(0.05, 0.95, size=base.n_base(j))) for j in range(n_items)
    ]
    pi = rng.dirichlet(np.ones(n_classes))
    state = ModelState(
        pi=pi,
        memberships=rng.integers(0, n_classes, size=n),
        base=base,
        theta_prime=theta_prime,
        v=rng.uniform(0.05, max_v * 0.95) if v_mode == "free" else 0.0,
    )
    prior = PriorConfig.default(n_classes, lam=rng.uniform(0.2, 1.0), v_mode=v_mode)
    data = Dataset(rng.integers(0, 2, size=(n, n_items)))
    return state, data, prior


def oracle_full_log_joint(state, data, prior):
    """Second, loop-based implementation of the joint density for cross-checks."""
    n_classes = state.base.n_classes
    out = sp_dirichlet.logpdf(state.pi / state.pi.sum(), prior.alpha_c)
    for j in range(state.base.n_items):
        col = state.base.column(j)
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
    state.memberships[i] = _pick_categorical(logp, rng)
    return state


def conjugate_posterior(params: RepelledBetaParams, counts) -> RepelledBetaParams:
    """Posterior after Bernoulli responses: shapes add counts, v unchanged.

    ``counts[k] = (successes, failures)`` observed for component k.
    """
    counts = np.asarray(counts)
    if counts.shape != (params.m, 2):
        raise ValueError(f"counts must have shape ({params.m}, 2), got {counts.shape}")
    if np.any(counts < 0) or not np.all(counts == np.floor(counts)):
        raise ValueError("counts must be nonnegative integers")
    return RepelledBetaParams(params.alpha + counts.astype(np.float64), params.v)


def sample_sorted_all_ones(m: int, v: float, rng) -> np.ndarray:
    """Exact sorted draw for the all-ones case via the gap Dirichlet."""
    return np.cumsum(rng.dirichlet(gaps_distribution(m, v)))[:m]

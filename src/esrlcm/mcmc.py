"""Posterior sampler: conjugate Gibbs sweeps, collapsed base class moves at
v = 0, reversible jump base class moves at v > 0, and an independence
Metropolis step on the repulsion exponent v.

Each sweep updates, in order: all memberships, the class weights, then the
base class columns and theta'. At v = 0 every item's column and theta' move
in one batched collapsed step; with v free each item takes a reversible
jump move followed by a repelled beta redraw of theta', and v comes last.
Chains are reproducible given (seed, chain index).
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammaln

from . import kernels, repelled_beta
from .model import (
    V_FIXED_ZERO,
    V_FREE,
    BaseClassMatrix,
    Dataset,
    ModelState,
    PriorConfig,
    base_vector_log_prior,
    canonicalize,
    full_log_joint,
    pad_theta_prime,
    theta_matrix,
)
from .repelled_beta import RepelledBetaParams, SamplingError

# Rejection proposals per exact theta' draw before the Metropolis fallback.
THETA_MAX_ATTEMPTS = 50_000


@dataclass
class McmcConfig:
    """Sweep counts, seeding, thinning, and the unrestricted switch.

    The v mode is the prior's. ``unrestricted`` pins every column to the
    all-distinct partition, recovering a plain latent class model.
    """

    n_main: int
    n_warmup: int = 0
    n_chains: int = 1
    seed: int = 0
    thin: int = 1
    store_c_every: int = 0
    unrestricted: bool = False

    def __post_init__(self):
        if self.n_main < 1:
            raise ValueError("n_main must be >= 1")
        if self.n_warmup < 0:
            raise ValueError("n_warmup must be >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.thin > self.n_main:
            raise ValueError(f"thin ({self.thin}) exceeds n_main ({self.n_main}): "
                             "no draw would be retained")
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative 64-bit integer")


@dataclass
class PosteriorDraws:
    """Retained draws of one chain plus sampler diagnostics.

    With D draws, J items and C classes, ``base_columns`` is (D, J, C) int64,
    so ``base_columns[d][j]`` is item j's canonical column in draw d, and
    ``theta_prime`` is (D, J, C) float64, each draw laid out like
    ``ModelState.theta_prime``.
    """

    iters: np.ndarray
    log_joint: np.ndarray
    v: np.ndarray
    pi: np.ndarray
    base_columns: np.ndarray
    theta_prime: np.ndarray
    memberships: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return len(self.iters)

    def theta_matrix(self, d: int) -> np.ndarray:
        return theta_matrix(self.base_columns[d], self.theta_prime[d])

    def to_jsonl(self, path) -> None:
        n_sets = self.base_columns.max(axis=2)
        with open(path, "w") as fh:
            for d in range(self.n_draws):
                rec = {
                    "iter": int(self.iters[d]),
                    "log_joint": float(self.log_joint[d]),
                    "v": float(self.v[d]),
                    "pi": self.pi[d].tolist(),
                    "B": self.base_columns[d].tolist(),
                    "theta_prime": [tp[:n].tolist()
                                    for tp, n in zip(self.theta_prime[d], n_sets[d])],
                }
                fh.write(json.dumps(rec) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "PosteriorDraws":
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
        if not recs:
            raise ValueError(f"draws file {path} holds no draws")
        base_columns = np.array([rec["B"] for rec in recs], dtype=np.int64)
        for col in np.unique(base_columns.reshape(-1, base_columns.shape[-1]), axis=0):
            if not np.array_equal(col, canonicalize(col)):
                raise ValueError(f"stored base column {col.tolist()} is not canonical")
        return cls(
            iters=np.array([rec["iter"] for rec in recs], dtype=np.int64),
            log_joint=np.array([rec["log_joint"] for rec in recs], dtype=np.float64),
            v=np.array([rec["v"] for rec in recs], dtype=np.float64),
            pi=np.array([rec["pi"] for rec in recs], dtype=np.float64),
            base_columns=base_columns,
            theta_prime=np.array([pad_theta_prime(cols, rec["theta_prime"])
                                  for cols, rec in zip(base_columns, recs)]),
        )

    def write_memberships(self, path) -> None:
        with open(path, "w") as fh:
            for it in sorted(self.memberships):
                fh.write(json.dumps({"iter": int(it), "c": self.memberships[it].tolist()}) + "\n")


# ---------------------------------------------------------------------------
# per-item count helpers
# ---------------------------------------------------------------------------

def _clip_unit(values):
    # keep response probabilities strictly interior so logs stay finite
    return np.clip(values, 1e-12, 1.0 - 1e-12)


def _set_counts(columns, succ, totals):
    """Per-set success and failure counts of canonical columns (..., C).

    ``succ`` holds per-class successes broadcastable against ``columns``;
    set s of a column is at index s - 1, and unused sets count zero.
    """
    member = columns[..., :, None] == np.arange(1, columns.shape[-1] + 1)  # class, set
    s = (member * succ[..., :, None]).sum(axis=-2)
    return s, (member * totals[:, None]).sum(axis=-2) - s


def _column_menu(columns, targets, succ, totals, prior):
    """Candidate columns and their log weights when, in each row of the
    (J, C) block ``columns``, class ``targets[i]`` may change its label.

    An item's menu is: join each equivalence set present among its other
    classes (ascending label), or open a fresh set (last); its current
    column is always in it. Rows are canonical and padded to C + 1 per item
    with weight -inf after the valid ones. A row's weight is its partition
    prior times its likelihood with theta' integrated out under independent
    uniform priors (v = 0). ``succ`` is (J, C), one row per item.
    """
    n_items, n_classes = columns.shape
    rows = np.arange(n_items)
    labels = np.arange(1, n_classes + 2)
    others = columns.copy()
    others[rows, targets] = 0
    fresh = columns.max(axis=1)[:, None] + 1
    valid = (others[:, :, None] == labels).any(axis=1) | (labels == fresh)
    # valid rows first, in label order; padding after them
    order = np.argsort(~valid, axis=1, kind="stable")
    raw = np.repeat(columns[:, None, :], labels.size, axis=1)
    raw[rows, :, targets] = labels[order]
    # canonical relabeling: each entry takes the rank of its label's first occurrence
    first = (raw[..., :, None] == raw[..., None, :]).argmax(axis=-1)
    menu = np.take_along_axis(np.cumsum(first == np.arange(n_classes), axis=-1), first, axis=-1)
    s, f = _set_counts(menu, succ[:, None, :], totals)
    log_w = base_vector_log_prior(menu, prior) + betaln(1.0 + s, 1.0 + f).sum(axis=-1)
    log_w[~np.take_along_axis(valid, order, axis=1)] = -np.inf
    return menu, log_w


def _pick_categorical(log_weights, rng) -> int:
    log_weights = np.asarray(log_weights, dtype=np.float64)
    p = np.exp(log_weights - log_weights.max())
    cum = np.cumsum(p)
    return int(np.searchsorted(cum, rng.random() * cum[-1], side="right").clip(0, p.size - 1))


def _class_count_cache(state, data):
    return kernels.class_counts(data.x, state.memberships, state.base.n_classes)


# ---------------------------------------------------------------------------
# base class updates
# ---------------------------------------------------------------------------

def _draw_theta_v0(items, columns, state, succ_items, totals, rng):
    """Conjugate theta' of every set of the given items' (J, C) columns at v = 0.

    Given the columns, the sets' response probabilities are independent
    betas, so one ``rng.beta`` call draws all of them, item by item in set
    order. ``succ_items`` is (J, C), one row per item.
    """
    s, f = _set_counts(columns, succ_items, totals)
    used = np.arange(columns.shape[1]) < columns.max(axis=1)[:, None]
    block = np.full(columns.shape, np.nan)
    block[used] = _clip_unit(rng.beta(1.0 + s[used], 1.0 + f[used]))
    state.theta_prime[items] = block


def gibbs_update_base_class_v0(items, state, data, prior, rng, counts=None):
    """Collapsed Gibbs move on the partitions of one item or an index array
    of items, valid at v = 0.

    Per item, a uniformly chosen class has its label resampled from the
    exact full conditional over the candidate menu, with theta' integrated
    out; theta' is then redrawn conjugately because the number of sets may
    have changed. Given the memberships the items are independent (the
    partition prior and the v = 0 prior factor over items), so all of them
    move in one array step.
    """
    succ, totals = counts if counts is not None else _class_count_cache(state, data)
    items = np.atleast_1d(items)
    succ_items = succ[:, items].T
    targets = rng.integers(state.base.n_classes, size=items.size)
    menu, log_w = _column_menu(state.base.labels[:, items].T, targets, succ_items, totals, prior)
    columns = menu[np.arange(items.size), kernels.categorical_rows(log_w, rng.random(items.size))]
    state.base.labels[:, items] = columns.T
    _draw_theta_v0(items, columns, state, succ_items, totals, rng)
    return state


def _rj_theta_proposal(col_old, theta_old, col_new, target, succ_j, totals, rng):
    """theta' for the proposed column of a reversible jump move.

    The destination set of the moved class and what remains of its source
    set are drawn from their conjugate betas, in label order; every other
    set keeps its members and its value.
    """
    theta_new = np.empty(col_new.max())
    theta_new[col_new - 1] = theta_old[col_old - 1]
    rest = col_old == col_old[target]
    rest[target] = False
    refresh = np.unique(np.append(col_new[rest], col_new[target])) - 1
    s_new, f_new = _set_counts(col_new, succ_j, totals)
    theta_new[refresh] = _clip_unit(rng.beta(1.0 + s_new[refresh], 1.0 + f_new[refresh]))
    return theta_new


def rj_update_base_class(j, state, data, prior, rng, counts=None):
    """Reversible jump move on one item's partition and theta', for v > 0.

    The column proposal is the collapsed v = 0 conditional over the menu and
    theta' comes from :func:`_rj_theta_proposal`. In Green's acceptance
    ratio the column weights, the partition priors, the likelihood and the
    beta proposal densities of the refreshed sets cancel: a refreshed set's
    beta density turns its likelihood into its collapsed term, and the
    untouched sets are equal on both sides. What is left is the ratio of
    the normalized repelled beta densities of the new and old theta'.
    """
    succ, totals = counts if counts is not None else _class_count_cache(state, data)
    succ_j = succ[:, j]
    col_old = state.base.column(j)
    theta_old = state.theta_prime[j, :col_old.max()]
    target = int(rng.integers(state.base.n_classes))
    menu, log_w = _column_menu(col_old[None, :], np.array([target]), succ_j[None, :],
                               totals, prior)
    col_new = menu[0, _pick_categorical(log_w[0], rng)]
    theta_new = _rj_theta_proposal(col_old, theta_old, col_new, target, succ_j, totals, rng)

    log_acc = (repelled_beta.log_density_all_ones(theta_new, state.v)
               - repelled_beta.log_density_all_ones(theta_old, state.v))
    accepted = np.log(rng.random()) < log_acc
    if accepted:
        state.base.labels[:, j] = col_new
        state.theta_prime[j] = np.nan
        state.theta_prime[j, :theta_new.size] = theta_new
    return state, bool(accepted)


# ---------------------------------------------------------------------------
# v updates
# ---------------------------------------------------------------------------

def _v_conditional_terms(state):
    """Set sizes and the summed negative log gaps entering the v conditional."""
    sizes = []
    d2_data = 0.0
    for j in range(state.base.n_items):
        n_sets = state.base.n_base(j)
        if n_sets >= 2:
            sizes.append(n_sets)
            gaps = np.diff(np.sort(state.theta_prime[j, :n_sets]))
            d2_data -= float(np.log(np.clip(gaps, 1e-300, None)).sum())
    return np.asarray(sizes, dtype=np.float64), d2_data


def _v_log_conditional(sizes, d2_data, prior):
    def logpost(v):
        out = prior.d1 * np.log(v) + (prior.d2 - d2_data) * v
        if sizes.size:
            out += float(np.sum(gammaln((sizes - 1.0) * (v + 1.0) + 2.0)
                                - (sizes - 1.0) * gammaln(v + 1.0)))
        return out

    return logpost


def _golden_max(f, lo, hi, tol):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    return (a + b) / 2.0


def map_v(state: ModelState, prior: PriorConfig, tol: float = 1e-4) -> float:
    """Mode of the full conditional of v on (0, max_v].

    A coarse grid brackets the maximum and golden-section search refines it
    to the absolute tolerance. Items with a single equivalence set drop out
    of the conditional.
    """
    sizes, d2_data = _v_conditional_terms(state)
    logpost = _v_log_conditional(sizes, d2_data, prior)
    grid = np.linspace(tol, prior.max_v, 129)
    values = [logpost(v) for v in grid]
    k = int(np.argmax(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    best = _golden_max(logpost, lo, hi, tol)
    if logpost(prior.max_v) >= logpost(best):
        return float(prior.max_v)
    return float(best)


def triangular_density(a: float, b: float, c: float, x: float) -> float:
    """Density of the triangular distribution on [a, c] with mode b.

    Zero outside [a, c]; the peak value 2/(c-a) at b makes the area one.
    """
    if not a < b < c:
        raise ValueError("need a < b < c")
    if x < a or x > c:
        return 0.0
    if x <= b:
        return 2.0 * (x - a) / ((c - a) * (b - a))
    return 2.0 * (c - x) / ((c - a) * (c - b))


def sample_triangular(a: float, b: float, c: float, rng) -> float:
    u = rng.random()
    split = (b - a) / (c - a)
    if u < split:
        return a + np.sqrt(u * (c - a) * (b - a))
    return c - np.sqrt((1.0 - u) * (c - a) * (c - b))


def metropolis_update_v(state, prior, rng):
    """Independence Metropolis step on v with a triangular proposal at the
    conditional mode."""
    sizes, d2_data = _v_conditional_terms(state)
    logpost = _v_log_conditional(sizes, d2_data, prior)
    eps = prior.max_v * 1e-9
    mode = float(np.clip(map_v(state, prior), eps, prior.max_v - eps))
    proposal = sample_triangular(0.0, mode, prior.max_v, rng)
    if not 0.0 < proposal < prior.max_v:
        return state, False
    log_acc = (
        logpost(proposal) - logpost(state.v)
        + np.log(triangular_density(0.0, mode, prior.max_v, state.v))
        - np.log(triangular_density(0.0, mode, prior.max_v, proposal))
    )
    accepted = np.log(rng.random()) < log_acc
    if accepted:
        state.v = float(proposal)
    return state, bool(accepted)


# ---------------------------------------------------------------------------
# conjugate updates
# ---------------------------------------------------------------------------

def gibbs_update_theta(j, state, data, prior, rng, counts=None,
                       max_attempts=THETA_MAX_ATTEMPTS):
    """Redraw theta' for item j from its repelled beta full conditional.

    The exact rejection draw is attempted first. When its budget of
    ``max_attempts`` proposals runs out (large repulsion with several
    near-identical sets), one independence Metropolis step with the same
    conjugate beta proposal is taken instead: the proposal density cancels
    the beta factors of the target, so the acceptance ratio is the gap-term
    ratio and the full conditional stays exactly invariant.

    Returns ``(state, attempts, fell_back)``.
    """
    succ, totals = counts if counts is not None else _class_count_cache(state, data)
    column = state.base.column(j)
    s_b, f_b = _set_counts(column, succ[:, j], totals)
    n_sets = column.max()
    params = RepelledBetaParams(np.column_stack([1.0 + s_b[:n_sets], 1.0 + f_b[:n_sets]]),
                                state.v)
    fell_back = False
    try:
        draw, attempts = repelled_beta.sample(params, rng, max_attempts, return_attempts=True)
        state.theta_prime[j, :n_sets] = _clip_unit(draw)
    except SamplingError:
        fell_back = True
        attempts = max_attempts
        proposal = _clip_unit(rng.beta(params.alpha[:, 0], params.alpha[:, 1]))
        log_acc = (repelled_beta.log_gap_term(proposal, state.v)
                   - repelled_beta.log_gap_term(state.theta_prime[j, :n_sets], state.v))
        if np.log(rng.random()) < log_acc:
            state.theta_prime[j, :n_sets] = proposal
    return state, attempts, fell_back


def gibbs_update_pi(state, prior, rng):
    """Redraw the class weights from their Dirichlet full conditional."""
    counts = np.bincount(state.memberships, minlength=state.base.n_classes)
    pi = rng.dirichlet(prior.alpha_c + counts)
    state.pi = np.clip(pi, 1e-300, None)
    state.pi /= state.pi.sum()
    return state


def _update_all_memberships(state, data, rng):
    # Memberships are conditionally independent given (pi, theta), so the
    # batched draw equals per-observation Gibbs.
    theta = state.theta_matrix()
    loglik = kernels.class_loglik(data.x, np.log(theta), np.log1p(-theta))
    logp = loglik + np.log(state.pi)[None, :]
    state.memberships = kernels.categorical_rows(logp, rng.random(data.n))
    return state


# ---------------------------------------------------------------------------
# chain driver
# ---------------------------------------------------------------------------

def _initial_state(data, prior, rng):
    n_classes = prior.n_classes
    base = BaseClassMatrix(
        np.tile(np.arange(1, n_classes + 1)[:, None], (1, data.n_items))
    )
    # v starts small: the over-dispersed start has near-identical response
    # probabilities per item, and a large initial v would deadlock the first
    # theta rejection sweep before the first v update can adapt.
    state = ModelState(
        pi=rng.dirichlet(prior.alpha_c),
        memberships=rng.integers(0, n_classes, size=data.n),
        base=base,
        theta_prime=_clip_unit(rng.random((data.n_items, n_classes))),
        v=min(0.1, prior.max_v / 2.0) if prior.v_mode == V_FREE else 0.0,
    )
    return state


def _check_start_reachable(prior, config):
    """Reject a zeta prior under which the chain can never leave its start.

    The chain starts with every column all-distinct (C sets), and one base
    move reaches only columns with C or C - 1 sets; an unrestricted fit
    stays at C sets.
    """
    n_reachable = 1 if config.unrestricted else 2
    if prior.zeta is not None and not prior.zeta[-n_reachable:].any():
        n_classes = prior.n_classes
        sets = " or ".join(str(n_classes - k) for k in range(n_reachable))
        raise ValueError(f"zeta {prior.zeta.tolist()} gives no mass to {sets} sets, "
                         f"so the chain cannot leave its {n_classes}-set start")


def run_chain(data: Dataset, prior: PriorConfig, config: McmcConfig,
              chain_index: int = 0) -> PosteriorDraws:
    """Run one chain and return the retained draws.

    Sweep order: memberships, pi, then at v = 0 one batched collapsed move
    of every item's column and theta', and at free v per item (reversible
    jump move, theta' Gibbs) followed by v. Warmup sweeps are discarded and
    every ``thin``-th main sweep is retained.
    """
    _check_start_reachable(prior, config)
    rng = np.random.default_rng(config.seed ^ chain_index)
    state = _initial_state(data, prior, rng)
    n_items = data.n_items
    items = np.arange(n_items)

    kept, memberships = [], {}  # one tuple per retained draw
    rj_accept = rj_total = v_accept = v_total = 0
    theta_attempts_total = 0
    theta_attempts_max = 0
    theta_mh_fallbacks = 0

    total_sweeps = config.n_warmup + config.n_main
    for sweep in range(total_sweeps):
        if data.n:
            _update_all_memberships(state, data, rng)
        counts = _class_count_cache(state, data)
        gibbs_update_pi(state, prior, rng)
        if prior.v_mode == V_FIXED_ZERO:
            if config.unrestricted:
                _draw_theta_v0(items, state.base.labels.T, state, counts[0].T, counts[1], rng)
            else:
                gibbs_update_base_class_v0(items, state, data, prior, rng, counts=counts)
        else:
            for j in range(n_items):
                if not config.unrestricted:
                    _, acc = rj_update_base_class(j, state, data, prior, rng, counts=counts)
                    rj_total += 1
                    rj_accept += acc
                _, attempts, fell_back = gibbs_update_theta(j, state, data, prior, rng,
                                                            counts=counts)
                theta_attempts_total += attempts
                theta_attempts_max = max(theta_attempts_max, attempts)
                theta_mh_fallbacks += fell_back
            _, acc = metropolis_update_v(state, prior, rng)
            v_total += 1
            v_accept += acc

        # memberships change only at the top of the sweep, so ``counts`` is
        # still the current class count when the draw is retained
        main_iter = sweep - config.n_warmup
        if main_iter >= 0 and (main_iter + 1) % config.thin == 0:
            if config.store_c_every and len(kept) % config.store_c_every == 0:
                memberships[main_iter] = state.memberships.copy()
            kept.append((main_iter, full_log_joint(state, data, prior, counts), state.v,
                         state.pi.copy(), state.base.labels.T.copy(), state.theta_prime.copy()))

    iters, log_joint, vs, pis, base_columns, theta_prime = zip(*kept)
    return PosteriorDraws(
        iters=np.array(iters, dtype=np.int64), log_joint=np.array(log_joint, dtype=np.float64),
        v=np.array(vs, dtype=np.float64), pi=np.array(pis, dtype=np.float64),
        base_columns=np.array(base_columns, dtype=np.int64),
        theta_prime=np.array(theta_prime, dtype=np.float64),
        memberships=memberships,
        stats={
            "chain_index": chain_index,
            "rj_accept_rate": rj_accept / rj_total if rj_total else None,
            "v_accept_rate": v_accept / v_total if v_total else None,
            "theta_attempts_total": theta_attempts_total,
            "theta_attempts_max": theta_attempts_max,
            "theta_mh_fallbacks": theta_mh_fallbacks,
        },
    )


def concat_draws(chains) -> PosteriorDraws:
    """Pool retained draws of several chains into one container."""
    if not chains:
        raise ValueError("no chains to concatenate")
    return PosteriorDraws(
        iters=np.concatenate([d.iters for d in chains]),
        log_joint=np.concatenate([d.log_joint for d in chains]),
        v=np.concatenate([d.v for d in chains]),
        pi=np.concatenate([d.pi for d in chains]),
        base_columns=np.concatenate([d.base_columns for d in chains]),
        theta_prime=np.concatenate([d.theta_prime for d in chains]),
        stats={"chains": [d.stats for d in chains]},
    )


def _run_chain_worker(args):
    data, prior, config, chain_index = args
    return run_chain(data, prior, config, chain_index=chain_index)


def run_chains(data, prior, config, n_threads=None):
    """Run ``config.n_chains`` independent chains, in parallel when allowed.

    Chain k is seeded as ``config.seed ^ k``. ``n_threads`` defaults to
    ``ESRLCM_THREADS``, else the CPU count. File output is left to the
    caller so that all writes happen in one place.
    """
    if config.n_chains == 1:
        return [run_chain(data, prior, config, chain_index=0)]
    if n_threads is None:
        env = os.environ.get("ESRLCM_THREADS", str(os.cpu_count() or 1))
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"ESRLCM_THREADS must be a positive integer, got {env!r}")
        n_threads = int(env)
    n_workers = max(1, min(n_threads, config.n_chains))
    args = [(data, prior, config, k) for k in range(config.n_chains)]
    if n_workers == 1:
        return [_run_chain_worker(a) for a in args]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_run_chain_worker, args))

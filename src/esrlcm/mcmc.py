"""Posterior sampler: conjugate Gibbs sweeps, one reversible jump base class
move (the collapsed Gibbs move at v = 0), and shrinkage slice updates of
theta' and the repulsion exponent v.

Each sweep updates, in order: all memberships, the class weights, then the
base class columns and theta'. The base move takes every item in one
batched step and redraws theta' conjugately; with v free it accepts each
item by its repelled beta density ratio and is followed by slice updates of
theta' and v. Chain k draws from child k of ``SeedSequence(seed)``, so
chains are reproducible given (seed, chain index) and no two (seed, chain
index) pairs share a stream.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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

    def theta_matrices(self) -> np.ndarray:
        """Every draw's per-class response matrix, one C-contiguous (D, C, J) array."""
        return theta_matrix(self.base_columns, self.theta_prime)

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
        cols = np.unique(base_columns.reshape(-1, base_columns.shape[-1]), axis=0)
        bad = (cols != canonicalize(cols)).any(axis=1)
        if bad.any():
            raise ValueError(f"stored base column {cols[bad][0].tolist()} is not canonical")
        return cls(
            iters=np.array([rec["iter"] for rec in recs], dtype=np.int64),
            log_joint=np.array([rec["log_joint"] for rec in recs], dtype=np.float64),
            v=np.array([rec["v"] for rec in recs], dtype=np.float64),
            pi=np.array([rec["pi"] for rec in recs], dtype=np.float64),
            base_columns=base_columns,
            theta_prime=pad_theta_prime(base_columns, [rec["theta_prime"] for rec in recs]),
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
    """Candidate labels and their log weights when, in each row of the
    (J, C) block ``columns``, class ``targets[i]`` may change its label.

    An item's menu is: join each equivalence set present among its other
    classes (ascending label), or open a fresh set (last); its current
    column is always in it. Both outputs are (J, C + 1): the label the
    target takes, and the candidate's log weight, -inf on the padding after
    the valid ones. :func:`_relabel` makes chosen candidates canonical. A
    weight is the partition prior times the likelihood with theta'
    integrated out under independent uniform priors (v = 0). The other
    classes' sets are counted once; a candidate changes only the set the
    target joins. ``succ`` is (J, C), one row per item.
    """
    # imported here: scipy.special costs about 0.28 s, which simulate never
    # needs; repeating the import costs under 1 µs, under 1% of this call
    from scipy.special import betaln

    n_items, n_classes = columns.shape
    rows = np.arange(n_items)
    labels = np.arange(1, n_classes + 2)
    others = columns.copy()
    others[rows, targets] = 0
    member = (others[:, :, None] == labels).astype(np.float64)  # item, class, label
    s = np.einsum("jc,jcl->jl", succ, member)
    f = totals @ member - s
    present = member.any(axis=1)
    valid = present | (labels == columns.max(axis=1)[:, None] + 1)
    # row k of the staircase is a canonical column with k + 1 sets
    by_n_sets = base_vector_log_prior(np.minimum.outer(labels[:-1], labels[:-1]), prior)
    n_sets = present.sum(axis=1)[:, None] + ~present  # a fresh set adds one
    sets = betaln(1.0 + s, 1.0 + f)
    s_t = succ[rows, targets][:, None]
    f_t = totals[targets][:, None] - s_t
    log_w = (by_n_sets[n_sets - 1] + (sets.sum(axis=1)[:, None] - sets)
             + betaln(1.0 + s + s_t, 1.0 + f + f_t))
    log_w[~valid] = -np.inf
    # valid labels first, in label order; padding after them
    order = np.argsort(~valid, axis=1, kind="stable")
    return labels[order], np.take_along_axis(log_w, order, axis=1)


def _relabel(columns, targets, new_labels):
    """Canonical columns after class ``targets[i]`` of row i of the (J, C)
    block ``columns`` takes the label ``new_labels[i]``."""
    moved = columns.copy()
    moved[np.arange(len(moved)), targets] = new_labels
    return canonicalize(moved)


def _class_count_cache(state, data):
    return kernels.class_counts(data.x, state.memberships, state.base.n_classes)


# ---------------------------------------------------------------------------
# base class updates
# ---------------------------------------------------------------------------

def _conjugate_theta(columns, succ_items, totals, rng):
    """NaN-padded theta' of every set of the (J, C) columns, each set drawn
    from its conjugate beta under a uniform prior.

    Given the columns and v = 0 the sets' response probabilities are
    independent betas, so one ``rng.beta`` call draws all of them, item by
    item in set order. ``succ_items`` is (J, C), one row per item.
    """
    s, f = _set_counts(columns, succ_items, totals)
    used = np.arange(columns.shape[1]) < columns.max(axis=1)[:, None]
    block = np.full(columns.shape, np.nan)
    block[used] = _clip_unit(rng.beta(1.0 + s[used], 1.0 + f[used]))
    return block


def _propose_columns(items, state, succ_items, totals, prior, rng):
    """In each item's row of the (J, C) block, a uniformly chosen class
    takes a label drawn from the collapsed v = 0 conditional over its menu.
    Returns the new canonical columns."""
    targets = rng.integers(state.base.n_classes, size=items.size)
    columns = state.base.labels[:, items].T
    labels, log_w = _column_menu(columns, targets, succ_items, totals, prior)
    picks = kernels.categorical_rows(log_w.T, rng.random(items.size))
    return _relabel(columns, targets, labels[np.arange(items.size), picks])


def _base_move(items, state, data, prior, rng, counts):
    """The base move of both v modes on one item or an index array of items.

    Each item's column comes from :func:`_propose_columns` and every set of
    it takes a fresh theta' from :func:`_conjugate_theta`. In Green's
    acceptance ratio (Green 1995, Biometrika 82(4)) the column weights,
    partition priors, likelihoods and beta densities then cancel, leaving
    the ratio of the normalized repelled beta densities of the new and old
    theta'. Given the memberships and v the items are independent, so at
    v > 0 each row accepts with its own uniform. At v = 0 the ratio is
    identically 1: every row is accepted and no uniform is drawn, which
    makes this the collapsed Gibbs move. Returns the number accepted.
    """
    succ, totals = counts if counts is not None else _class_count_cache(state, data)
    items = np.atleast_1d(items)
    succ_items = succ[:, items].T
    columns = _propose_columns(items, state, succ_items, totals, prior, rng)
    theta = _conjugate_theta(columns, succ_items, totals, rng)
    if state.v > 0:
        log_acc = (repelled_beta.log_density_all_ones(theta, state.v)
                   - repelled_beta.log_density_all_ones(state.theta_prime[items], state.v))
        accepted = np.log(rng.random(items.size)) < log_acc
        items, columns, theta = items[accepted], columns[accepted], theta[accepted]
    state.base.labels[:, items] = columns.T
    state.theta_prime[items] = theta
    return items.size


def gibbs_update_base_class_v0(items, state, data, prior, rng, counts=None):
    """Collapsed Gibbs move on the partitions and theta' of one item or an
    index array of items, valid at v = 0: :func:`_base_move`, which accepts
    every proposal there. Returns ``state``."""
    _base_move(items, state, data, prior, rng, counts)
    return state


def rj_update_base_class(items, state, data, prior, rng, counts=None):
    """Reversible jump move on the partitions and theta' of one item or an
    index array of items, for v > 0: :func:`_base_move`.

    Returns ``(state, n_accepted)``. Neither public move calls the other,
    and the name and the two-tuple are kept, because ``perfbench/tracing.py``
    wraps both bindings by name and reads ``result[1]`` here.
    """
    return state, _base_move(items, state, data, prior, rng, counts)


# ---------------------------------------------------------------------------
# slice updates of theta' and v
# ---------------------------------------------------------------------------

def _shrinkage_slice(logf, x0, lo, hi, rng):
    """One shrinkage slice update of each entry of ``x0`` on (lo, hi) (Neal
    2003, *Slice sampling*, Ann. Statist. 31(3)); ``logf(x, rows)`` is the
    log target of the entries ``rows`` at the points ``x``.

    An entry's level is its log target at ``x0`` minus an Exp(1) draw. Its
    first interval is the whole support, and each rejected point shrinks it
    toward ``x0``, which is always in the slice. A point equal to an
    interval end is rejected unevaluated, so ``logf`` never sees lo or hi.
    Returns the new points and the number of evaluations, levels included.
    """
    x = np.array(x0, dtype=np.float64)
    lo, hi = np.full(x.shape, float(lo)), np.full(x.shape, float(hi))
    rows = np.arange(x.size)
    level = logf(x, rows) - rng.standard_exponential(x.size)
    n_evals = x.size
    while rows.size:
        point = rng.uniform(lo[rows], hi[rows])
        inside = (lo[rows] < point) & (point < hi[rows])
        hit = np.zeros(rows.size, dtype=bool)
        if inside.any():
            hit[inside] = logf(point[inside], rows[inside]) >= level[rows[inside]]
            n_evals += int(inside.sum())
        x[rows[hit]] = point[hit]
        rows, point = rows[~hit], point[~hit]
        below = point < x[rows]
        lo[rows[below]] = point[below]
        hi[rows[~below]] = point[~below]
    return x, n_evals


def _v_log_conditional(state, prior):
    """The log full conditional of v, up to a constant, as a function of v.

    It is v's prior times every item's normalized repelled beta density of
    theta', the v terms of :func:`model.full_log_joint`, built once from the
    (J, C) theta' block. Gaps are floored at 1e-300, so it stays finite on
    (0, max_v) even where two components coincide.
    """
    ordered = np.sort(state.theta_prime, axis=1)  # NaN padding sorts last
    log_gaps = np.nansum(np.log(np.clip(np.diff(ordered, axis=1), 1e-300, None)))
    n_sets = state.base.labels.max(axis=0)

    def logpost(v):
        return (prior.d1 * np.log(v) + (prior.d2 + log_gaps) * v
                + repelled_beta.log_normalizer_all_ones(n_sets, v).sum())

    return logpost


def metropolis_update_v(state, prior, rng):
    """One shrinkage slice update of v on (0, max_v), by :func:`_shrinkage_slice`.

    Returns ``(state, n_evals)``, the number of conditional evaluations. The
    name and the two-tuple are kept because ``perfbench/tracing.py`` wraps
    this binding by name and reads ``result[1]``.
    """
    logpost = _v_log_conditional(state, prior)
    v, n_evals = _shrinkage_slice(lambda x, rows: logpost(x), [state.v], 0.0, prior.max_v, rng)
    state.v = float(v[0])
    return state, n_evals


def _theta_log_conditional(block, k, s, f, v):
    """The log conditional of set k of each row of the NaN-padded theta'
    block, as a :func:`_shrinkage_slice` target: the beta kernel of the
    set's counts ``s, f`` plus the row's gap term with set k at x."""
    def logf(x, rows):
        rho = block[rows]
        rho[:, k] = x
        return (s[rows] * np.log(x) + f[rows] * np.log1p(-x)
                + repelled_beta.log_gap_term(rho, v))

    return logf


def gibbs_update_theta(items, state, data, prior, rng, counts=None):
    """Slice update of the repelled beta theta' of one item or an index
    array of items: given the columns and v the items are independent, so
    set k of every item that has one moves in one :func:`_shrinkage_slice`
    call on (0, 1), for each k in turn.

    Returns ``(state, n_evals, False)``. The name and the three-tuple are
    kept because ``perfbench/tracing.py`` wraps this binding by name and
    reads ``result[1]`` and ``result[2]``.
    """
    succ, totals = counts if counts is not None else _class_count_cache(state, data)
    items = np.atleast_1d(items)
    columns = state.base.labels[:, items].T
    s, f = _set_counts(columns, succ[:, items].T, totals)
    n_sets = columns.max(axis=1)
    n_evals = 0
    for k in range(n_sets.max()):
        has = n_sets > k
        group = items[has]
        logf = _theta_log_conditional(state.theta_prime[group], k, s[has, k], f[has, k], state.v)
        state.theta_prime[group, k], evals = _shrinkage_slice(
            logf, state.theta_prime[group, k], 0.0, 1.0, rng)
        n_evals += evals
    return state, n_evals, False


# ---------------------------------------------------------------------------
# conjugate updates
# ---------------------------------------------------------------------------

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
    loglik += np.log(state.pi)[:, None]
    state.memberships = kernels.categorical_rows(loglik, rng.random(data.n))
    return state


# ---------------------------------------------------------------------------
# chain driver
# ---------------------------------------------------------------------------

def _initial_state(data, prior, rng):
    n_classes = prior.n_classes
    base = BaseClassMatrix(
        np.tile(np.arange(1, n_classes + 1)[:, None], (1, data.n_items))
    )
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
    of every item's column and theta', and at free v one batched reversible
    jump move, one batched slice update of theta' and one slice update of v.
    Warmup sweeps are discarded and every ``thin``-th main sweep is
    retained. ``stats["rj_accept_rate"]`` is accepted moves over items times
    free-v sweeps; ``stats["theta_evals_per_update"]`` and
    ``stats["v_evals_per_update"]`` are the mean numbers of log-density
    evaluations per slice update of one theta' component and of v, levels
    included (None at v = 0).
    """
    _check_start_reachable(prior, config)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(chain_index,)))
    state = _initial_state(data, prior, rng)
    items = np.arange(data.n_items)

    kept, memberships = [], {}  # one tuple per retained draw
    rj_accept = rj_total = theta_evals = theta_total = v_evals = v_total = 0

    total_sweeps = config.n_warmup + config.n_main
    for sweep in range(total_sweeps):
        if data.n:
            _update_all_memberships(state, data, rng)
        counts = _class_count_cache(state, data)
        gibbs_update_pi(state, prior, rng)
        if prior.v_mode == V_FIXED_ZERO:
            if config.unrestricted:
                state.theta_prime = _conjugate_theta(state.base.labels.T, counts[0].T,
                                                     counts[1], rng)
            else:
                gibbs_update_base_class_v0(items, state, data, prior, rng, counts=counts)
        else:
            if not config.unrestricted:
                _, n_accepted = rj_update_base_class(items, state, data, prior, rng, counts=counts)
                rj_accept += n_accepted
                rj_total += items.size
            _, n_evals, _ = gibbs_update_theta(items, state, data, prior, rng, counts=counts)
            theta_total += int(state.base.labels.max(axis=0).sum())
            theta_evals += n_evals
            _, n_evals = metropolis_update_v(state, prior, rng)
            v_total += 1
            v_evals += n_evals

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
            "theta_evals_per_update": theta_evals / theta_total if theta_total else None,
            "v_evals_per_update": v_evals / v_total if v_total else None,
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

    Chain k draws from child k of ``SeedSequence(config.seed)``, the
    stream ``SeedSequence.spawn`` would give it. ``n_threads`` defaults to
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
    # imported before the pool starts, so that forked workers inherit the
    # module instead of each importing it
    import scipy.special  # noqa: F401
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_run_chain_worker, args))

"""Posterior sampler: conjugate Gibbs sweeps, one reversible jump base class
move (the collapsed Gibbs move at v = 0), and shrinkage slice updates of
theta' and the repulsion exponent v.

Each sweep updates, in order: all memberships, the class weights, then the
base class columns and theta'. Every move acts on the whole block it is
given, never on a subset of items. The base move takes every item of
every chain in one batched step and redraws theta' conjugately; with v
free it accepts each item by its repelled beta density ratio and is
followed by one hyperrectangle slice update of every item's theta' row
(Neal 2003, §5.1) and one slice update of v, both by one shrinkage
routine. Chain k draws from child k of ``SeedSequence(seed)``, so chains
are reproducible given (seed, chain index) and no two (seed, chain index)
pairs share a stream.

:func:`run_lockstep` advances several independent chains one sweep at a
time and runs the base move once per sweep over all their items, stacked
in a :class:`Lanes` block; every other phase runs chain by chain, and
each chain's retained draws are scored after its last sweep, in one
stacked log-joint pass (:func:`model.log_joints`). Each chain's draws are
those of a one-chain run (:func:`run_chain`), so
``kfold_cv`` runs its whole (prior, fold) grid as one group and
``run_chains`` runs a fit's chains as one group, each in this process.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, repelled_beta
from .model import (
    V_FIXED_ZERO,
    V_FREE,
    Dataset,
    ModelState,
    PriorConfig,
    base_vector_log_prior,
    canonicalize,
    log_joints,
    parameter_record,
    read_parameters,
    theta_matrix,
    write_file,
)
# kept importable by this name: perfbench/tracing.py patches mcmc.full_log_joint
from .model import full_log_joint  # noqa: F401

@dataclass
class McmcConfig:
    """Sweep counts, seeding and thinning; the v mode is the prior's."""

    n_main: int
    n_warmup: int = 0
    n_chains: int = 1
    seed: int = 0
    thin: int = 1
    store_c_every: int = 0

    def __post_init__(self):
        if self.n_main < 1:
            raise ValueError("n_main must be >= 1")
        if self.n_warmup < 0:
            raise ValueError("n_warmup must be >= 0")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.store_c_every < 0:
            raise ValueError("store_c_every must be >= 0")
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
        write_file(path, "".join(
            json.dumps({"iter": int(self.iters[d]), "log_joint": float(self.log_joint[d]),
                        "v": float(self.v[d]),
                        **parameter_record(self.pi[d], self.base_columns[d],
                                           self.theta_prime[d])}) + "\n"
            for d in range(self.n_draws)))

    @classmethod
    def from_jsonl(cls, path) -> "PosteriorDraws":
        """Read a draws file, every record checked by :func:`model.read_parameters`."""
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise ValueError(f"draws file {path} holds no draws")
        block = read_parameters(lines, lambda d: f"draws file {path}, record {d + 1}: ",
                                {"iter": (int, 0), "log_joint": (float, 0), "v": (float, 0)})
        return cls(iters=block["iter"], log_joint=block["log_joint"], v=block["v"],
                   pi=block["pi"], base_columns=block["B"], theta_prime=block["theta_prime"])

    def write_memberships(self, path) -> None:
        write_file(path, "".join(json.dumps({"iter": int(it), "c": self.memberships[it].tolist()})
                                 + "\n" for it in sorted(self.memberships)))


# ---------------------------------------------------------------------------
# per-item count helpers
# ---------------------------------------------------------------------------

def _clip_unit(values):
    # keep response probabilities strictly interior so logs stay finite;
    # np.clip's argument handling costs more than the two passes
    return np.minimum(np.maximum(values, 1e-12), 1.0 - 1e-12)


def _set_counts(columns, succ, totals):
    """Per-set success and failure counts of the (R, C) canonical columns.

    ``succ`` is (R, C), one row per item, and ``totals`` broadcasts to it;
    set s of a column is at index s - 1, and unused sets count zero.
    """
    n_rows, n_classes = columns.shape
    bins = (np.arange(n_rows)[:, None] * n_classes + columns - 1).ravel()
    return tuple(np.bincount(bins, weights.ravel(), minlength=bins.size).reshape(n_rows, n_classes)
                 for weights in (succ, totals - succ))


def _log_prior_by_n_sets(prior):
    """The partition log prior of a canonical column by its number of sets:
    entry k is that of a column with k + 1 sets."""
    labels = np.arange(1, prior.n_classes + 1)
    # row k of this staircase is a canonical column with k + 1 sets
    return base_vector_log_prior(np.minimum.outer(labels, labels), prior)


_LOG_GAMMA = np.array([np.inf])


def _log_gamma_table(top):
    """``math.lgamma(k)`` for k = 0, 1, ..., at least ``top``, as one array
    (inf at k = 0). Its values depend on k alone, so one table serves the
    whole process: it is built once, and extended only when a larger ``top``
    arrives, so no sweep and no repeated fit of one data size rebuilds it
    (about 1.7 ms at n = 20,000)."""
    global _LOG_GAMMA
    table = _LOG_GAMMA
    if len(table) <= top:
        table = np.append(table, [math.lgamma(k) for k in range(len(table), top + 1)])
        _LOG_GAMMA = table
    return table


def _column_menu(columns, targets, succ, totals, log_prior_by_n_sets):
    """Candidate labels and their log weights when, in each row of the
    (R, C) block ``columns``, class ``targets[i]`` may change its label.

    An item's menu is: join each equivalence set present among its other
    classes (ascending label), or open a fresh set (last); its current
    column is always in it. Both outputs are (R, C + 1): the label the
    target takes, and the candidate's log weight, -inf on the padding after
    the valid ones. :func:`_relabel` makes chosen candidates canonical. A
    weight is the partition prior (``log_prior_by_n_sets``, see
    :func:`_log_prior_by_n_sets`) times the likelihood with theta'
    integrated out under independent uniform priors (v = 0). The other
    classes' sets are counted once; a candidate changes only the set the
    target joins. ``succ``, ``totals`` and ``log_prior_by_n_sets`` are
    (R, C), one row per item, so rows of different lanes may have their own
    totals and prior.
    """
    n_rows, n_classes = columns.shape
    rows = np.arange(n_rows)
    labels = np.arange(1, n_classes + 2)
    others = columns.copy()
    others[rows, targets] = 0
    # members, successes and failures binned by (row, label): bin 0 holds
    # the target alone, bins 1..C + 1 the candidate sets without it, C + 1
    # the fresh set; the sums are of integers, so exact in any order
    width = n_classes + 2
    bins = (rows[:, None] * width + others).ravel()
    members, s, f = (np.bincount(bins, weights, minlength=n_rows * width).reshape(n_rows, width)
                     for weights in (None, succ.ravel(), (totals - succ).ravel()))
    present = members[:, 1:] > 0
    invalid = ~(present | (labels == columns.max(axis=1)[:, None] + 1))
    n_sets = present.sum(axis=1)[:, None] + ~present  # a fresh set adds one
    by_n_sets = log_prior_by_n_sets[rows[:, None], n_sets - 1]
    # log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b) at integer a and b,
    # read from the table; a + b is at most a row's total count n, plus 2
    lgamma = _log_gamma_table(int(totals.sum(axis=-1).max()) + 2)
    s, f = s.astype(np.int64), f.astype(np.int64)
    a, b = 1 + s[:, 1:], 1 + f[:, 1:]
    sets = lgamma[a] + lgamma[b] - lgamma[a + b]
    a, b = a + s[:, :1], b + f[:, :1]
    log_w = (by_n_sets + (sets.sum(axis=1)[:, None] - sets)
             + (lgamma[a] + lgamma[b] - lgamma[a + b]))
    log_w[invalid] = -np.inf
    # valid labels first, in label order; padding after them
    order = np.argsort(invalid, axis=1, kind="stable")
    return labels[order], log_w[rows[:, None], order]


def _relabel(columns, targets, new_labels):
    """Canonical columns after class ``targets[i]`` of row i of the (R, C)
    block ``columns`` takes the label ``new_labels[i]``."""
    moved = columns.copy()
    moved[np.arange(len(moved)), targets] = new_labels
    return canonicalize(moved)


def _class_count_cache(data, old, new, counts):
    """The class counts of memberships ``new``, carried from ``counts``, those
    of ``old``, by :func:`kernels.update_class_counts`. The sweep calls this
    binding, which ``perfbench/tracing.py`` times by name as the class count
    phase."""
    return kernels.update_class_counts(data.x, old, new, counts)


# ---------------------------------------------------------------------------
# base class updates
# ---------------------------------------------------------------------------

class Lanes:
    """The base class state of K chains ("lanes") stacked for one base move.

    ``columns`` (K, J, C) and ``theta`` (K, J, C) hold lane k's canonical
    base class columns and NaN-padded theta', laid out as ``ModelState``
    keeps them; ``succ`` (K, C, J) and ``totals`` (K, C) are its class
    counts, as ``kernels.class_counts`` returns them, and lane k draws from
    ``rngs[k]``. ``staircase`` (K, C) is lane k's
    :func:`_log_prior_by_n_sets`. The blocks are copied from the states
    once; each state's columns and theta' then view its lane of them, and
    every update writes them in place, so a base move of the blocks moves
    every state and a slice update of a state's theta' writes the block.
    All lanes share C and J. A base move sets ``n_accepted`` and
    ``n_changed``, the number of items per lane whose move was accepted and
    whose column changed.
    """

    def __init__(self, states, priors, rngs, counts):
        self.states, self.rngs = list(states), list(rngs)
        self.columns = np.stack([state.columns for state in self.states])
        self.theta = np.stack([state.theta_prime for state in self.states])
        for state, columns, theta in zip(self.states, self.columns, self.theta):
            state.columns, state.theta_prime = columns, theta
        self.succ = np.stack([succ for succ, _ in counts])
        self.totals = np.stack([totals for _, totals in counts])
        self.staircase = np.stack([_log_prior_by_n_sets(prior) for prior in priors])
        self.n_accepted, self.n_changed = np.zeros((2, len(self.states)), dtype=np.int64)

    def counts(self, k):
        """Lane k's class counts, views of the blocks."""
        return self.succ[k], self.totals[k]


def _conjugate_theta(columns, succ, totals, rngs):
    """NaN-padded theta' of every set of the (R, C) columns, each set drawn
    from its conjugate beta under a uniform prior.

    Given the columns and v = 0 the sets' response probabilities are
    independent betas. The rows are split evenly into one run of rows per
    stream of ``rngs``, and one ``rng.beta`` call per stream draws all sets
    of its rows, item by item in set order. ``succ`` is (R, C), one row per
    item, and ``totals`` broadcasts to it.
    """
    s, f = _set_counts(columns, succ, totals)
    used = np.arange(columns.shape[1]) < columns.max(axis=1)[:, None]
    # the used sets in row order, so each stream's rows are one run of them
    a, b = 1.0 + s[used], 1.0 + f[used]
    bounds = np.cumsum([0, *used.reshape(len(rngs), -1).sum(axis=1)])
    block = np.full(columns.shape, np.nan)
    block[used] = _clip_unit(np.concatenate([rng.beta(a[lo:hi], b[lo:hi]) for rng, lo, hi
                                             in zip(rngs, bounds[:-1], bounds[1:])]))
    return block


def _propose_columns(columns, succ, totals, log_prior_by_n_sets, rngs):
    """In each row of the (R, C) block, a uniformly chosen class takes a
    label drawn from the collapsed v = 0 conditional over its menu.

    The rows are split evenly into one run of rows per stream of ``rngs``;
    each stream draws its rows' targets, then their pick uniforms. The other
    arguments are those of :func:`_column_menu`. Returns the new canonical
    columns.
    """
    n_items = len(columns) // len(rngs)
    targets = np.concatenate([rng.integers(columns.shape[1], size=n_items) for rng in rngs])
    labels, log_w = _column_menu(columns, targets, succ, totals, log_prior_by_n_sets)
    u = np.concatenate([rng.random(n_items) for rng in rngs])
    picks = kernels.categorical_rows(log_w.T, u)
    return _relabel(columns, targets, labels[np.arange(len(columns)), picks])


def _base_move(lanes):
    """The base move of both v modes on every item of every lane of the
    :class:`Lanes` block, as one stacked step over their (K·J, C) rows.

    Each item's column comes from :func:`_propose_columns` and every set of
    it takes a fresh theta' from :func:`_conjugate_theta`. In Green's
    acceptance ratio (Green 1995, Biometrika 82(4)) the column weights,
    partition priors, likelihoods and beta densities then cancel, leaving
    the ratio of the normalized repelled beta densities of the new and old
    theta'. Given the memberships and v the items are independent, so in a
    lane at v > 0 each row accepts with its own uniform from the lane's
    stream. At v = 0 the ratio is identically 1: every row is accepted and
    no uniform is drawn, which makes this the collapsed Gibbs move. Lanes
    share no draw and every row is computed on its own, so each lane's
    stream and state follow exactly as in a one-lane block. Writes the
    blocks in place and sets ``lanes.n_accepted`` and ``lanes.n_changed``,
    the numbers of items accepted and of columns changed per lane.
    """
    n_lanes, n_items, n_classes = lanes.columns.shape
    succ = lanes.succ.swapaxes(1, 2).reshape(-1, n_classes)
    totals, staircase = (np.repeat(block, n_items, axis=0)
                         for block in (lanes.totals, lanes.staircase))
    columns = _propose_columns(lanes.columns.reshape(-1, n_classes), succ, totals, staircase,
                               lanes.rngs)
    theta = _conjugate_theta(columns, succ, totals, lanes.rngs).reshape(lanes.theta.shape)
    columns = columns.reshape(lanes.columns.shape)
    n_accepted = np.full(n_lanes, n_items)
    for k, (state, rng) in enumerate(zip(lanes.states, lanes.rngs)):
        if state.v > 0:
            log_acc = (repelled_beta.log_density_all_ones(theta[k], state.v)
                       - repelled_beta.log_density_all_ones(lanes.theta[k], state.v))
            keep = (np.log(rng.random(n_items)) < log_acc)[:, None]
            columns[k] = np.where(keep, columns[k], lanes.columns[k])
            theta[k] = np.where(keep, theta[k], lanes.theta[k])
            n_accepted[k] = keep.sum()
    lanes.n_changed = (columns != lanes.columns).any(axis=2).sum(axis=1)
    lanes.columns[...], lanes.theta[...] = columns, theta
    lanes.n_accepted = n_accepted


def gibbs_update_base_class_v0(lanes):
    """Collapsed Gibbs move on the partitions and theta' of every item of
    every lane of ``lanes``, valid at v = 0: :func:`_base_move`, which
    accepts every proposal there. Returns ``lanes``."""
    _base_move(lanes)
    return lanes


def rj_update_base_class(lanes):
    """Reversible jump move on the partitions and theta' of every item of
    every lane of ``lanes``, for v > 0: :func:`_base_move`.

    Returns ``(lanes, n_accepted)``, the number accepted over all lanes;
    ``lanes.n_accepted`` has it per lane. Neither public move calls the
    other, and the name and the two-tuple are kept, because
    ``perfbench/tracing.py`` wraps both bindings by name and reads
    ``result[1]`` here.
    """
    _base_move(lanes)
    return lanes, int(lanes.n_accepted.sum())


# ---------------------------------------------------------------------------
# slice updates of theta' and v
# ---------------------------------------------------------------------------

def _shrinkage_slice(logf, x0, lo, hi, rng):
    """One hyperrectangle slice update of each row of the NaN-padded (rows,
    dims) block ``x0`` inside the box (lo, hi)^dims (Neal 2003, *Slice
    sampling*, Ann. Statist. 31(3), §5.1); ``logf(x, rows)`` is the log
    target of the rows ``rows`` at the points ``x``, one value per row.

    A row's level is its log target at ``x0`` minus an Exp(1) draw. Its
    first box is the whole support, and each rejected point shrinks every
    coordinate of the box toward ``x0``, which is always in the slice. A
    point with a coordinate on a box face is rejected unevaluated, so
    ``logf`` never sees lo or hi. NaN entries are padding: they stay NaN and
    draw no uniform. The real coordinates draw theirs in row-major order, so
    a one-coordinate row uses the stream as an interval update would.
    Returns the new points and the number of evaluations, levels included.
    """
    x = np.array(x0, dtype=np.float64)
    rows, real = np.arange(len(x)), ~np.isnan(x)
    level = logf(x, rows) - rng.standard_exponential(rows.size)
    n_evals = rows.size
    box_lo, box_hi = np.full(x.shape, float(lo)), np.full(x.shape, float(hi))
    while rows.size:
        # the arithmetic of rng.uniform(box_lo, box_hi) on the real entries,
        # without its per-call argument checks; padding stays NaN
        u = np.full(real.shape, np.nan)
        u[real] = rng.random(np.count_nonzero(real))
        point = box_lo + (box_hi - box_lo) * u
        # NaN compares False, so padding is never on a face
        inside = ~((point <= box_lo) | (box_hi <= point)).any(axis=1)
        hit = np.zeros(rows.size, dtype=bool)
        n_inside = np.count_nonzero(inside)
        if n_inside:
            hit[inside] = logf(point[inside], rows[inside]) >= level[inside]
            n_evals += n_inside
        x[rows[hit]] = point[hit]
        miss = ~hit
        rows, level, real, point = rows[miss], level[miss], real[miss], point[miss]
        below = point < x[rows]
        box_lo = np.where(below, point, box_lo[miss])
        box_hi = np.where(below, box_hi[miss], point)
    return x, n_evals


def _v_log_conditional(state, prior):
    """The log full conditional of v, up to a constant, as a function of v.

    It is v's prior times every item's normalized repelled beta density of
    theta', the v terms of :func:`model.full_log_joint`. The gap term is
    linear in v, so its sum over the (J, C) theta' block is built once, by
    ``log_gap_term`` at v = 1; where two sets of an item coincide it is -inf
    at every v > 0, as in the joint.
    """
    log_gaps = repelled_beta.log_gap_term(state.theta_prime, 1.0).sum()
    n_sets = state.columns.max(axis=1)

    def logpost(v):
        return (prior.d1 * np.log(v) + (prior.d2 + log_gaps) * v
                + repelled_beta.log_normalizer_all_ones(n_sets, v).sum())

    return logpost


def metropolis_update_v(state, prior, rng):
    """One shrinkage slice update of v on (0, max_v), by :func:`_shrinkage_slice`
    on the one-coordinate block ``[[v]]``.

    Returns ``(state, n_evals)``, the number of conditional evaluations. The
    name and the two-tuple are kept because ``perfbench/tracing.py`` wraps
    this binding by name and reads ``result[1]``.
    """
    logpost = _v_log_conditional(state, prior)
    v, n_evals = _shrinkage_slice(lambda x, rows: logpost(x[:, 0]), [[state.v]],
                                  0.0, prior.max_v, rng)
    state.v = float(v[0, 0])
    return state, n_evals


def gibbs_update_theta(state, rng, counts):
    """Slice update of the repelled beta theta' of every item: given the
    columns and v the items are independent, so each item's NaN-padded
    theta' row moves in its own box on (0, 1)^m, all rows in one
    :func:`_shrinkage_slice` call, and the result is written into the
    state's block in place. A row's target is its sets' summed beta kernels
    plus its repulsion gap term. ``counts`` are the ``kernels.class_counts``
    of the state's memberships.

    Returns ``(state, n_evals, False)``, ``n_evals`` counting one per row
    evaluation. The name and the three-tuple are kept because
    ``perfbench/tracing.py`` wraps this binding by name and reads
    ``result[1]`` and ``result[2]``.
    """
    succ, totals = counts
    s, f = _set_counts(state.columns, succ.T, totals)

    def logf(x, rows):
        # every real kernel term is <= 0 and padding gives NaN, so fmin with
        # 0 keeps the real terms and zeroes the padding
        return (np.fmin(s[rows] * np.log(x) + f[rows] * np.log1p(-x), 0.0).sum(axis=1)
                + repelled_beta.log_gap_term(x, state.v))

    state.theta_prime[...], n_evals = _shrinkage_slice(logf, state.theta_prime, 0.0, 1.0, rng)
    return state, n_evals, False


# ---------------------------------------------------------------------------
# conjugate updates
# ---------------------------------------------------------------------------

def gibbs_update_pi(state, prior, rng, totals):
    """Redraw the class weights from their Dirichlet full conditional, given
    ``totals``, the number of rows in each class."""
    pi = rng.dirichlet(prior.alpha_c + totals)
    state.pi = np.maximum(pi, 1e-300)
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
    state = ModelState(
        pi=rng.dirichlet(prior.alpha_c),
        memberships=rng.integers(0, n_classes, size=data.n),
        columns=np.tile(np.arange(1, n_classes + 1), (data.n_items, 1)),
        theta_prime=_clip_unit(rng.random((data.n_items, n_classes))),
        v=min(0.1, prior.max_v / 2.0) if prior.v_mode == V_FREE else 0.0,
    )
    return state


def _check_start_reachable(prior):
    """Reject a zeta prior whose support the chain cannot cover.

    The chain starts with every column all-distinct (C sets), and one base
    move changes a column's set count by at most one, into a count with
    mass. So the set counts with mass must be one unbroken run that reaches
    C - 1 or C.
    """
    if prior.zeta is None:
        return
    support = np.flatnonzero(prior.zeta) + 1
    if support[-1] < prior.n_classes - 1 or support[-1] - support[0] >= len(support):
        raise ValueError(f"zeta {prior.zeta.tolist()} must give mass to one unbroken run of set "
                         f"counts that reaches {prior.n_classes - 1} or {prior.n_classes} sets: "
                         "the chain starts at all-distinct columns, and a base move changes a "
                         "column's set count by at most one")


def run_lockstep(lanes, config: McmcConfig) -> list:
    """Run independent chains ("lanes") in lockstep and return each lane's
    retained draws, in lane order.

    ``lanes`` are (data, prior, chain index) triples; lane k draws from
    child ``chain index`` of ``SeedSequence(config.seed)``, so its draws,
    memberships and stats are those of a one-lane run, whatever the other
    lanes are. The lanes must share the item count, the class count and the
    v mode; their data and priors may differ.

    Sweep order, per lane: memberships, class counts, pi; then one base
    move of the whole :class:`Lanes` block, every item of every lane in one
    stacked step (at v = 0 the collapsed move of every column and theta', at
    free v the reversible jump move); then at free v, per lane, one slice
    update of every item's theta' row and one slice update of v. The class
    counts are counted in full once, before the first sweep; each sweep then
    updates them from the rows whose class its membership draw changed, with
    the bits of a full recount. Warmup sweeps are discarded and every
    ``thin``-th main sweep is retained with a copy of its carried counts;
    after the last sweep, each lane's retained draws are scored in one
    :func:`model.log_joints` pass, with the bits of one ``full_log_joint``
    call per draw.

    Per lane, ``stats["rj_accept_rate"]`` is accepted moves over items times
    free-v sweeps; ``stats["column_change_rate"]`` is the share of items
    whose column the base move changed, over items times sweeps in both v
    modes; ``stats["theta_evals_per_update"]`` and
    ``stats["v_evals_per_update"]`` are the mean numbers of log-target
    evaluations per slice update of one item's theta' row and of v, levels
    included (None at v = 0).
    """
    shapes = {(data.n_items, prior.n_classes, prior.v_mode) for data, prior, _ in lanes}
    if len(shapes) != 1:
        raise ValueError("chains run in lockstep must share the item count, the class "
                         f"count and the v mode, got {sorted(shapes)}")
    (n_items, _, v_mode), = shapes
    for _, prior, _ in lanes:
        _check_start_reachable(prior)
    rngs = [np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))
            for _, _, k in lanes]
    states = [_initial_state(data, prior, rng) for (data, prior, _), rng in zip(lanes, rngs)]
    # the class counts of the current memberships, carried across sweeps
    block = Lanes(states, [prior for _, prior, _ in lanes], rngs,
                  [kernels.class_counts(data.x, state.memberships, state.columns.shape[1])
                   for state, (data, _, _) in zip(states, lanes)])

    kept = [[] for _ in lanes]  # one tuple per retained draw
    memberships = [{} for _ in lanes]
    rj_accept, col_changes = np.zeros((2, len(lanes)), dtype=np.int64)
    theta_evals, v_evals = [0] * len(lanes), [0] * len(lanes)
    n_sweeps = config.n_warmup + config.n_main
    for sweep in range(n_sweeps):
        for k, (data, prior, _) in enumerate(lanes):
            state = states[k]
            old = state.memberships  # the draw makes a new array, so no copy
            _update_all_memberships(state, data, rngs[k])
            block.succ[k], block.totals[k] = _class_count_cache(data, old, state.memberships,
                                                                block.counts(k))
            gibbs_update_pi(state, prior, rngs[k], block.totals[k])
        if v_mode == V_FIXED_ZERO:
            gibbs_update_base_class_v0(block)
        else:
            rj_update_base_class(block)
            rj_accept += block.n_accepted
        col_changes += block.n_changed

        # memberships change only at the top of the sweep, so the carried
        # counts are still current when a draw is retained
        main_iter = sweep - config.n_warmup
        retain = main_iter >= 0 and (main_iter + 1) % config.thin == 0
        for k, (data, prior, _) in enumerate(lanes):
            state = states[k]
            if v_mode == V_FREE:
                _, n_evals, _ = gibbs_update_theta(state, rngs[k], block.counts(k))
                theta_evals[k] += n_evals
                _, n_evals = metropolis_update_v(state, prior, rngs[k])
                v_evals[k] += n_evals
            if retain:
                if config.store_c_every and len(kept[k]) % config.store_c_every == 0:
                    memberships[k][main_iter] = state.memberships.copy()
                kept[k].append((main_iter, state.v, state.pi.copy(), state.columns.copy(),
                                state.theta_prime.copy(), block.succ[k].copy(),
                                block.totals[k].copy()))

    moved = n_items * n_sweeps  # base moves per lane
    n_updates = n_sweeps if v_mode == V_FREE else 0  # slice updates of v per lane
    out = []
    for k, (_, prior, chain_index) in enumerate(lanes):
        iters, vs, pis, base_columns, theta_prime, succ, totals = map(np.array, zip(*kept[k]))
        out.append(PosteriorDraws(
            iters=iters, v=vs, pi=pis, base_columns=base_columns, theta_prime=theta_prime,
            log_joint=log_joints(pis, base_columns, theta_prime, vs, (succ, totals), prior),
            memberships=memberships[k],
            stats={
                "chain_index": chain_index,
                "rj_accept_rate": int(rj_accept[k]) / moved if v_mode == V_FREE else None,
                "column_change_rate": int(col_changes[k]) / moved,
                "theta_evals_per_update": (theta_evals[k] / (n_items * n_updates)
                                           if n_updates else None),
                "v_evals_per_update": v_evals[k] / n_updates if n_updates else None,
            },
        ))
    return out


def run_chain(data: Dataset, prior: PriorConfig, config: McmcConfig,
              chain_index: int = 0) -> PosteriorDraws:
    """Run one chain and return the retained draws: :func:`run_lockstep`
    with the one lane (data, prior, chain_index)."""
    return run_lockstep([(data, prior, chain_index)], config)[0]


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
    )


def run_chains(data, prior, config):
    """Run ``config.n_chains`` independent chains as one lockstep group
    (:func:`run_lockstep`) in this process and return their draws, in chain
    order.

    Chain k draws from child k of ``SeedSequence(config.seed)``, the
    stream ``SeedSequence.spawn`` would give it, so its draws are those of
    ``run_chain(..., chain_index=k)``. File output is left to the caller so
    that all writes happen in one place.
    """
    if config.n_chains == 1:
        # through the run_chain binding, which perfbench/tracing.py times as
        # the chain span that its per-phase readings of a fit nest under
        return [run_chain(data, prior, config)]
    return run_lockstep([(data, prior, k) for k in range(config.n_chains)], config)

"""Core data model: datasets, base class matrices, priors, and the joint density.

A base class matrix assigns every (class, item) pair an equivalence set
label; classes sharing a label for an item share that item's response
probability. Columns are kept in canonical form (labels ordered by first
occurrence, starting at 1) so equal partitions always compare equal.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np
from scipy.special import gammaln

from . import kernels, repelled_beta

V_FIXED_ZERO = "fixed_zero"
V_FREE = "free"


# ---------------------------------------------------------------------------
# partitions and counting
# ---------------------------------------------------------------------------

def canonicalize(raw_columns) -> np.ndarray:
    """Relabel columns of partition labels into canonical form.

    Takes one column or a (..., C) block of them, one column per last-axis
    row. In each column the first entry becomes 1 and each previously unseen
    label receives the next unused integer, so any two labelings of the same
    partition map to the same vector.
    """
    raw = np.asarray(raw_columns)
    if raw.ndim == 0 or raw.shape[-1] == 0:
        raise ValueError("a column must be a nonempty vector of labels")
    # each entry takes the rank of its label's first occurrence
    first = (raw[..., :, None] == raw[..., None, :]).argmax(axis=-1)
    opened = np.cumsum(first == np.arange(raw.shape[-1]), axis=-1, dtype=np.int64)
    return np.take_along_axis(opened, first, axis=-1)


def is_canonical(column) -> bool:
    column = np.asarray(column)
    return bool(np.array_equal(column, canonicalize(column)))


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple:
    # S(n, k) for k = 0..n, exact integers
    if n == 0:
        return (1,)
    prev = _stirling_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        above = prev[k] if k < n else 0
        row[k] = k * above + prev[k - 1]
    return tuple(row)


def stirling2(n_classes: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact integer."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    if not 1 <= k <= n_classes:
        raise ValueError(f"k must be in 1..{n_classes}, got {k}")
    return _stirling_row(n_classes)[k]


def bell(n_classes: int) -> int:
    """Number of set partitions of n_classes objects, exact integer."""
    if n_classes < 1:
        raise ValueError("n_classes must be >= 1")
    return sum(_stirling_row(n_classes)[1:])


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


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Binary response matrix, observations by items.

    The canonical CSV layout has a header ``item1,...,itemJ`` and one 0/1
    row per observation. Empty datasets (n = 0) are allowed so that
    prior-only chains can run. ``x`` is checked once here and kept as one
    float64, C-contiguous matrix: the dtype every kernel computes in.
    """

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValueError(f"x must be a 2-d matrix with at least one item, got shape {x.shape}")
        if x.size and not np.isin(x, (0, 1)).all():
            raise ValueError("all responses must be 0 or 1")
        self.x = np.ascontiguousarray(x, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_items(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        with open(path) as fh:
            n_items = len(fh.readline().strip().split(","))
            has_rows = any(map(str.strip, fh))  # stops at the first row
        if not has_rows:  # loadtxt would warn that the input has no data
            return cls(np.empty((0, n_items), dtype=np.int64))
        return cls(np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2))

    def to_csv(self, path) -> None:
        # x is 0/1, so each row is one digit per item, joined by commas
        header = ",".join(f"item{j + 1}" for j in range(self.n_items))
        rows = np.full((self.n, 2 * self.n_items), ord(","), dtype=np.uint8)
        np.add(self.x, ord("0"), out=rows[:, 0::2], casting="unsafe")
        rows[:, -1] = ord("\n")
        with open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            fh.write(rows.tobytes())


@dataclass
class BaseClassMatrix:
    """Classes-by-items matrix of equivalence set labels, columns canonical."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 2 or labels.shape[0] < 1 or labels.shape[1] < 1:
            raise ValueError(f"labels must be a C x J matrix, got shape {labels.shape}")
        bad = np.flatnonzero((labels != canonicalize(labels.T).T).any(axis=0))
        if bad.size:
            raise ValueError(f"column {bad[0]} is not in canonical form: {labels[:, bad[0]]}")
        self.labels = labels

    @classmethod
    def from_raw(cls, raw) -> "BaseClassMatrix":
        """Build from arbitrary labels, canonicalizing every column."""
        return cls(canonicalize(np.atleast_2d(np.asarray(raw)).T).T)

    @property
    def n_classes(self) -> int:
        return self.labels.shape[0]

    @property
    def n_items(self) -> int:
        return self.labels.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.labels[:, j]

    def n_base(self, j: int) -> int:
        """Number of equivalence sets for item j."""
        return int(self.labels[:, j].max())

    def n_base_all(self) -> np.ndarray:
        return self.labels.max(axis=0)

    def __eq__(self, other):
        return isinstance(other, BaseClassMatrix) and np.array_equal(self.labels, other.labels)


@dataclass
class PriorConfig:
    """Hyperparameters of the model priors.

    Exactly one of ``zeta`` (a distribution over the number of equivalence
    sets) or ``lam`` (the geometric-style penalty with P(column) proportional
    to lam**n_sets) must be given. ``alpha_c`` is the Dirichlet prior on the
    class weights and implicitly fixes the number of classes. The response
    probability prior is the repelled beta with all-ones shapes and exponent
    v, where v is either fixed at zero or free on (0, max_v) with log prior
    d1*log(v) + d2*v.
    """

    alpha_c: np.ndarray
    lam: float = None
    zeta: np.ndarray = None
    d1: float = 1.0
    d2: float = 1.0
    max_v: float = 2.0
    v_mode: str = V_FREE

    def __post_init__(self):
        self.alpha_c = np.asarray(self.alpha_c, dtype=np.float64)
        if self.alpha_c.ndim != 1 or self.alpha_c.size < 1 or np.any(self.alpha_c <= 0):
            raise ValueError("alpha_c must be a positive vector")
        if (self.lam is None) == (self.zeta is None):
            raise ValueError("exactly one of lam and zeta must be given")
        if self.lam is not None:
            if not 0 < self.lam <= 1:
                raise ValueError(f"lam must be in (0, 1], got {self.lam}")
            self.lam = float(self.lam)
        else:
            self.zeta = np.asarray(self.zeta, dtype=np.float64)
            if self.zeta.shape != (self.n_classes,):
                raise ValueError("zeta must have one entry per possible number of sets")
            if np.any(self.zeta < 0) or abs(self.zeta.sum() - 1.0) > 1e-9:
                raise ValueError("zeta must be a probability vector")
        if self.d1 <= 0 or self.d2 <= 0:
            raise ValueError("d1 and d2 must be positive")
        if self.max_v <= 0:
            raise ValueError("max_v must be positive")
        if self.v_mode not in (V_FIXED_ZERO, V_FREE):
            raise ValueError(f"v_mode must be '{V_FIXED_ZERO}' or '{V_FREE}'")

    @property
    def n_classes(self) -> int:
        return self.alpha_c.size

    @classmethod
    def default(cls, n_classes: int, lam: float = 1.0, v_mode: str = V_FREE,
                **kwargs) -> "PriorConfig":
        return cls(alpha_c=np.ones(n_classes), lam=lam, v_mode=v_mode, **kwargs)


@lru_cache(maxsize=None)
def _log_lambda_normalizer(n_classes: int, lam: float) -> float:
    # log sum_k S(C, k) lam^k, exact Stirling numbers in float accumulation
    row = _stirling_row(n_classes)
    return float(np.log(sum(row[k] * lam ** k for k in range(1, n_classes + 1))))


def base_vector_log_prior(columns, prior: PriorConfig):
    """Log prior probability of canonical base class columns.

    Takes one column, or a matrix with one column per row, and returns one
    value per column. With zeta: log zeta[n_sets] - log S(C, n_sets). With
    lam the prior is proportional to lam**n_sets, normalized over all
    partitions.
    """
    columns = np.asarray(columns)
    n_classes = columns.shape[-1]
    n_sets = columns.max(axis=-1)
    if prior.lam is not None:
        out = n_sets * float(np.log(prior.lam)) - _log_lambda_normalizer(n_classes, prior.lam)
    else:
        with np.errstate(divide="ignore"):  # zeta may give a set count no mass
            out = np.log(prior.zeta[n_sets - 1]) - np.log(_stirling_row(n_classes))[n_sets]
    return float(out) if columns.ndim == 1 else out


def pad_theta_prime(columns, vectors) -> np.ndarray:
    """Per-item theta' vectors as one block shaped like ``columns``, NaN past
    each item's set count. ``columns`` is (J, C) and ``vectors[j]`` needs one
    value per set of row j; for a (D, J, C) stack, ``vectors[d]`` holds the J
    vectors of draw d. Every value is copied in one pass."""
    columns = np.asarray(columns)
    n_sets = columns.max(axis=-1)
    draws = vectors if columns.ndim == 3 else [vectors]
    for draw_sets, draw in zip(n_sets.reshape(-1, columns.shape[-2]), draws):
        for j, t in enumerate(draw):
            # a list of floats is a vector; np.ndim, which copies, decides the rest
            if not (type(t) is list and all(type(x) is float for x in t)) and np.ndim(t) != 1:
                raise ValueError(f"theta' of item {j} must be a list of values, got {t!r}")
        lengths = list(map(len, draw))
        if lengths != draw_sets.tolist():
            raise ValueError(f"theta' lengths {lengths} do not match the set counts "
                             f"{draw_sets.tolist()} of the base class columns")
    block = np.full(columns.shape, np.nan)
    block[np.arange(columns.shape[-1]) < n_sets[..., None]] = np.fromiter(
        chain.from_iterable(chain.from_iterable(draws)), dtype=np.float64)
    return block


def theta_matrix(columns, theta_prime) -> np.ndarray:
    """Per-class response probabilities, a C-contiguous classes-by-items
    matrix, from the (J, C) canonical columns and the (J, C) padded theta'.
    A (..., J, C) stack of both gives the (..., C, J) stack of matrices."""
    theta = np.take_along_axis(theta_prime, columns - 1, axis=-1)
    return np.ascontiguousarray(theta.swapaxes(-1, -2))


@dataclass
class ModelState:
    """One MCMC state.

    ``memberships`` are 0-based class indices. ``theta_prime`` is a (J, C)
    float array: ``theta_prime[j, k]`` is the response probability of set
    k + 1 of item j, and entries past item j's set count are NaN. The state
    owns a copy of the block it is given. The per-class response matrix is
    always derived, never stored.
    """

    pi: np.ndarray
    memberships: np.ndarray
    base: BaseClassMatrix
    theta_prime: np.ndarray
    v: float = 0.0

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.memberships = np.asarray(self.memberships, dtype=np.int64)
        self.theta_prime = np.array(self.theta_prime, dtype=np.float64)
        n_classes = self.base.n_classes
        if self.pi.shape != (n_classes,):
            raise ValueError("pi length must equal the number of classes")
        if abs(self.pi.sum() - 1.0) > 1e-8 or np.any(self.pi <= 0):
            raise ValueError("pi must be a strictly positive probability vector")
        if self.memberships.size and (
            self.memberships.min() < 0 or self.memberships.max() >= n_classes
        ):
            raise ValueError("memberships out of range")
        past = np.arange(n_classes) >= self.base.n_base_all()[:, None]
        if not np.array_equal(np.isnan(self.theta_prime), past):  # False on a wrong shape too
            raise ValueError("theta_prime must be an items x classes block holding one value "
                             "per set of each item, NaN past them")
        if self.v < 0:
            raise ValueError("v must be nonnegative")

    def theta_matrix(self) -> np.ndarray:
        """Per-class response probabilities, classes by items."""
        return theta_matrix(self.base.labels.T, self.theta_prime)


def _log_dirichlet_pdf(x, alpha) -> float:
    return float(
        np.sum((alpha - 1.0) * np.log(x)) + gammaln(alpha.sum()) - gammaln(alpha).sum()
    )


def full_log_joint(state: ModelState, data: Dataset, prior: PriorConfig,
                   counts=None) -> float:
    """Log of the full joint density of parameters and data.

    Sums the Dirichlet prior on pi, per-item partition priors and normalized
    repelled beta priors on theta', the (unnormalized) prior on v when v is
    free, the membership probabilities, and the Bernoulli likelihood.
    ``counts`` are the ``kernels.class_counts`` of the state's memberships;
    they are recounted when not given.
    """
    n_classes = state.base.n_classes
    if data.n_items != state.base.n_items or prior.n_classes != n_classes:
        raise ValueError("state, data, and prior dimensions are inconsistent")
    if data.n != state.memberships.size:
        raise ValueError("memberships length does not match the dataset")

    per_item = np.column_stack([base_vector_log_prior(state.base.labels.T, prior),
                                repelled_beta.log_density_all_ones(state.theta_prime, state.v)])
    # a running sum in item order, the order a per-item loop would add in
    out = float(np.cumsum(np.append(_log_dirichlet_pdf(state.pi, prior.alpha_c), per_item))[-1])
    if prior.v_mode == V_FREE:
        if not 0.0 < state.v < prior.max_v:
            return -np.inf
        out += prior.d1 * float(np.log(state.v)) + prior.d2 * state.v

    if counts is None:
        counts = kernels.class_counts(data.x, state.memberships, n_classes)
    successes, totals = counts
    out += float(totals @ np.log(state.pi))
    theta = state.theta_matrix()
    failures = totals[:, None] - successes
    out += float(np.sum(successes * np.log(theta) + failures * np.log1p(-theta)))
    return out

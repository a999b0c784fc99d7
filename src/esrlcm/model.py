"""Core data model: datasets, base class columns, priors, and the joint density.

An item's base class column gives every class an equivalence set label;
classes sharing a label share that item's response probability. The columns
of all items form an int64 (J, C) block, one canonical column per row
(labels ordered by first occurrence, starting at 1), so equal partitions
always compare equal.
"""

import json
import math
import os
import reprlib
import stat
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from . import kernels, repelled_beta

V_FIXED_ZERO = "fixed_zero"
V_FREE = "free"


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_file(path, *parts) -> None:
    """Make ``parts`` (str or bytes-like, in order) the whole content of ``path``.

    An existing file is overwritten in place and then cut to the new length,
    never emptied first: on ext4 mounted with ``discard``, emptying a file
    that holds blocks costs 25-70 ms, overwriting it well under 1 ms. A
    caller builds its whole content first, so a fault while encoding leaves
    the old file as it was. Only a regular file is cut, as ``ftruncate``
    fails on a pipe or a device such as /dev/null. The write is not atomic.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for part in parts:
            fh.write(part.encode() if isinstance(part, str) else part)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


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
    flat = raw.reshape(-1, raw.shape[-1])
    # each entry takes the rank of its label's first occurrence
    first = (flat[:, :, None] == flat[:, None, :]).argmax(axis=2)
    opened = np.cumsum(first == np.arange(flat.shape[1]), axis=1, dtype=np.int64)
    return opened[np.arange(len(flat))[:, None], first].reshape(raw.shape)


def is_canonical(column) -> bool:
    column = np.asarray(column)
    return bool(np.array_equal(column, canonicalize(column)))


def check_columns(columns, where=lambda r: "") -> np.ndarray:
    """``columns`` as an int64 (J, C) block of canonical columns, one per
    row; else ``ValueError``, naming the first bad row r after ``where(r)``."""
    columns = np.asarray(columns, dtype=np.int64)
    if columns.ndim != 2 or columns.size == 0:
        raise ValueError(f"{where(0)}base columns must be a nonempty items x classes block, "
                         f"got shape {columns.shape}")
    bad = (columns != canonicalize(columns)).any(axis=1)
    if bad.any():
        raise ValueError(f"{where(bad.argmax())}base column {columns[bad][0].tolist()} "
                         "is not canonical")
    return columns


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


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    """Binary response matrix, observations by items.

    The canonical CSV layout has a header ``item1,...,itemJ`` and one 0/1
    row per observation. Empty datasets (n = 0) are allowed so that
    prior-only chains can run. ``x`` is checked once here and kept as one
    float64, F-contiguous (item-major) matrix: the dtype every kernel
    computes in, and a layout whose transpose ``x.T`` is C-contiguous, so
    the class-major likelihood product reads it untransposed.
    """

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValueError(f"x must be a 2-d matrix with at least one item, got shape {x.shape}")
        if not ((x == 0) | (x == 1)).all():
            raise ValueError("all responses must be 0 or 1")
        self.x = np.asfortranarray(x, dtype=np.float64)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_items(self) -> int:
        return self.x.shape[1]

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Read a data CSV.

        A file in the layout ``to_csv`` writes (after the header line, one
        digit per item, each followed by a comma or, last on its row, a
        newline) is read as raw bytes: the separators are checked where
        ``to_csv`` puts them and every other byte is a response. Any other
        file, such as one with CRLF line ends, no final newline, blank lines,
        spaces or multi-character fields, is parsed by ``np.loadtxt``. A
        header-only file gives a (0, J) dataset.
        """
        with open(path, "rb") as fh:
            width = 2 * len(fh.readline().strip().split(b","))
            body = fh.read()
        if len(body) % width == 0 and b"\n\n" not in body:
            rows = np.frombuffer(body, dtype=np.uint8).reshape(-1, width)
            if (rows[:, 1:-1:2] == ord(",")).all() and (rows[:, -1] == ord("\n")).all():
                return cls(rows[:, 0::2] - ord("0"))  # the 0/1 check rejects any other byte
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
        write_file(path, header + "\n", rows)


@dataclass
class PriorConfig:
    """Hyperparameters of the model priors.

    Exactly one of ``zeta`` (a distribution over the number of equivalence
    sets) or ``lam`` (the geometric-style penalty with P(column) proportional
    to lam**n_sets) must be given. ``alpha_c`` is the Dirichlet prior on the
    class weights and implicitly fixes the number of classes. The response
    probability prior is the repelled beta with all-ones shapes and exponent
    v, where v is either fixed at zero or free on (0, max_v) with log prior
    d1*log(v) + d2*v. The plain latent class model is the zeta that puts all
    its mass on C sets: every column then stays all-distinct.
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
            raise ValueError("exactly one of lambda and zeta must be given")
        if self.lam is not None:
            if not 0 < self.lam <= 1:
                raise ValueError(f"lambda must be in (0, 1], got {self.lam}")
            self.lam = float(self.lam)
        else:
            self.zeta = np.asarray(self.zeta, dtype=np.float64)
            if self.zeta.shape != (self.n_classes,):
                raise ValueError("zeta must have one entry per possible number of sets")
            if np.any(self.zeta < 0) or abs(self.zeta.sum() - 1.0) > 1e-9:
                raise ValueError("zeta must be a probability vector")
        for name in ("d1", "d2", "max_v"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
            setattr(self, name, float(value))
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


def pad_theta_prime(columns, vectors, where=lambda d: "") -> np.ndarray:
    """Per-item theta' vectors as one block shaped like ``columns``, NaN past
    each item's set count. ``columns`` is (J, C) and ``vectors[j]`` needs one
    value per set of row j; for a (D, J, C) stack, ``vectors[d]`` holds the J
    vectors of draw d, and its faults follow ``where(d)``. Every value must
    be a number; all are type-checked in one pass and copied in another."""
    columns = np.asarray(columns)
    n_sets = columns.max(axis=-1)
    draws = vectors if columns.ndim == 3 else [vectors]
    for d, (draw, counts) in enumerate(zip(draws, n_sets.reshape(-1, columns.shape[-2]).tolist())):
        # a list passes as it is; its values are checked below
        lengths = [len(t) if type(t) is list or np.ndim(t) == 1 else None
                   for t in (draw if type(draw) in (list, np.ndarray) else [draw])]
        if None in lengths:
            raise ValueError(f"{where(d)}theta' of item {lengths.index(None)} "
                             "must be a list of values")
        if lengths != counts:
            raise ValueError(f"{where(d)}theta' lengths {lengths} do not match the set counts "
                             f"{counts} of the base class columns")
    values = list(chain.from_iterable(chain.from_iterable(draws)))
    # numbers only: numpy would also convert a string such as "0.83", or a bool
    if not all(issubclass(kind, (int, float)) and kind is not bool
               for kind in set(map(type, values))):
        d, x = next((d, x) for d, draw in enumerate(draws) for x in chain.from_iterable(draw)
                    if not isinstance(x, (int, float)) or isinstance(x, bool))
        raise ValueError(f"{where(d)}theta' holds a value that is not a number: {x!r}")
    block = np.full(columns.shape, np.nan)
    block[np.arange(columns.shape[-1]) < n_sets[..., None]] = values
    return block


def check_parameters(pi, columns, theta_prime, where=lambda d: "") -> None:
    """Raise ``ValueError`` after ``where(d)`` for the first d of D stacked
    parameter sets ((D, C) ``pi``, (D, J, C) ``columns`` and ``theta_prime``)
    whose pi is not a strictly positive probability vector of C weights (its
    sum within 1e-8 of 1) or that has a real theta' value outside (0, 1);
    NaN fails both."""
    if pi.shape[-1] != columns.shape[-1]:
        raise ValueError(f"{where(0)}pi must hold one weight per class, got {pi[0].tolist()}")
    bad_pi = ~((np.abs(pi.sum(axis=-1) - 1.0) <= 1e-8) & (pi > 0).all(axis=-1))
    real = np.arange(columns.shape[-1]) < columns.max(axis=-1)[..., None]
    bad_theta = real & ~((theta_prime > 0) & (theta_prime < 1))
    if bad_pi.any():
        d = bad_pi.argmax()
        raise ValueError(f"{where(d)}pi must be a strictly positive probability vector, "
                         f"got {pi[d].tolist()}")
    if bad_theta.any():
        d, j, k = np.argwhere(bad_theta)[0]
        raise ValueError(f"{where(d)}theta_prime of item {j} holds {theta_prime[d, j, k]}, "
                         "outside (0, 1)")


def parameter_record(pi, columns, theta_prime) -> dict:
    """The stored fields of one parameter set as lists: ``pi``, the (J, C)
    columns as ``B`` and each item's theta' unpadded; see :func:`read_parameters`."""
    return {"pi": pi.tolist(), "B": columns.tolist(),
            "theta_prime": [t[:n].tolist() for t, n in zip(theta_prime, columns.max(1).tolist())]}


def read_parameters(texts, where, fields) -> dict:
    """The D >= 1 JSON records of ``texts``, with a model state's checks, as
    blocks: ``pi`` (D, C), ``B`` (D, J, C), the padded ``theta_prime`` (D, J, C)
    and each ``fields`` entry, name: (``int`` or ``float``, dimensions per record),
    each converted in one pass. A fault in record d raises ``ValueError`` after ``where(d)``."""
    fields = {**fields, "pi": (float, 1), "B": (int, 2)}
    recs = []
    for d, text in enumerate(texts):
        try:
            rec = json.loads(text)
        except ValueError as err:
            raise ValueError(f"{where(d)}{err}") from None
        for name in [*fields, "theta_prime"]:
            if type(rec) is not dict or name not in rec:
                raise ValueError(f"{where(d)}no field {name!r}")
        recs.append(rec)
    out = {}
    for name, (kind, ndim) in fields.items():
        values = [rec[name] for rec in recs]
        out[name] = _block(values, kind, ndim)
        if out[name] is None:  # the record at fault ends the shortest prefix that fails
            d = bisect_left(range(len(values)), True,
                            key=lambda n: _block(values[:n + 1], kind, ndim) is None)
            shape = ("one {}", "a vector of {}s", "a 2-d block of {}s")[ndim].format(kind.__name__)
            raise ValueError(f"{where(d)}field {name!r} must be {shape}"
                             f"{' like the first record' * (d > 0)}, "
                             f"got {reprlib.repr(values[d])}")
    check_columns(np.concatenate(out["B"]), lambda r: where(r // out["B"].shape[1]))
    out["theta_prime"] = pad_theta_prime(out["B"], [rec["theta_prime"] for rec in recs], where)
    check_parameters(out["pi"], out["B"], out["theta_prime"], where)
    return out


def _block(values, kind, ndim):
    """``values``, one per record, as one ``kind`` array of ``ndim`` + 1 dimensions, else None.
    A JSON true or false is not a number, although numpy reads it as 1 or 0
    among numbers."""
    try:
        block = np.array(values)
    except ValueError:  # ragged
        return None
    fits = block.size == 0 or block.dtype.kind in ("i" if kind is int else "if")
    if not fits or block.ndim != ndim + 1:
        return None
    for _ in range(ndim):
        values = chain.from_iterable(values)
    return None if bool in set(map(type, values)) else block.astype(kind)


def theta_matrix(columns, theta_prime) -> np.ndarray:
    """Per-class response probabilities, a C-contiguous classes-by-items
    matrix, from the (J, C) canonical columns and the (J, C) padded theta'.
    A (..., J, C) stack of both gives the (..., C, J) stack of matrices."""
    n_classes = columns.shape[-1]
    flat = theta_prime.reshape(-1, n_classes)
    theta = flat[np.arange(len(flat))[:, None], columns.reshape(-1, n_classes) - 1]
    return np.ascontiguousarray(theta.reshape(columns.shape).swapaxes(-1, -2))


@dataclass
class ModelState:
    """One MCMC state.

    ``memberships`` are 0-based class indices. ``columns`` is the (J, C)
    int64 block of canonical base class columns, one row per item, and
    ``theta_prime`` a (J, C) float array: ``theta_prime[j, k]`` is the
    response probability of set k + 1 of item j, in (0, 1), and entries
    past item j's set count are NaN. The state owns a copy of the theta'
    block it is given. The per-class response matrix is always derived,
    never stored.
    """

    pi: np.ndarray
    memberships: np.ndarray
    columns: np.ndarray
    theta_prime: np.ndarray
    v: float = 0.0

    def __post_init__(self):
        self.columns = check_columns(self.columns)
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.memberships = np.asarray(self.memberships, dtype=np.int64)
        self.theta_prime = np.array(self.theta_prime, dtype=np.float64)
        n_classes = self.columns.shape[1]
        if self.pi.shape != (n_classes,):
            raise ValueError("pi length must equal the number of classes")
        c = self.memberships
        if c.ndim != 1 or c.size and (c.min() < 0 or c.max() >= n_classes):
            raise ValueError(f"memberships must be a vector of class indices below {n_classes}")
        past = np.arange(n_classes) >= self.columns.max(axis=1)[:, None]
        if not np.array_equal(np.isnan(self.theta_prime), past):  # False on a wrong shape too
            raise ValueError("theta_prime must be an items x classes block holding one value "
                             "per set of each item, NaN past them")
        check_parameters(self.pi[None], self.columns[None], self.theta_prime[None])
        if self.v < 0:
            raise ValueError("v must be nonnegative")

    def theta_matrix(self) -> np.ndarray:
        """Per-class response probabilities, classes by items."""
        return theta_matrix(self.columns, self.theta_prime)


def log_joints(pi, columns, theta_prime, v, counts, prior: PriorConfig) -> np.ndarray:
    """The full log joint density of D draws, one value per draw, in one
    stacked pass: :func:`full_log_joint` is its one-draw case.

    ``pi`` is (D, C), ``columns`` and ``theta_prime`` are (D, J, C), each
    draw laid out as ``ModelState`` keeps it, ``v`` is (D,), and ``counts``
    are each draw's ``kernels.class_counts`` stacked, (D, C, J) successes
    and (D, C) totals. A draw's terms are summed as a one-draw pass sums
    them: the priors in a running sum along its row, in item order; then
    the v prior; then its ``totals @ log pi``; then its likelihood terms in
    one sum over its contiguous (C, J) block. So every value has the bits a
    one-draw call gives it, whatever the other draws are.
    """
    v = np.asarray(v, dtype=np.float64)
    successes, totals = counts
    n_draws, n_items, _ = columns.shape
    log_pi = np.log(pi)
    priors = np.empty((n_draws, 1 + 2 * n_items))
    alpha = prior.alpha_c
    priors[:, 0] = (((alpha - 1.0) * log_pi).sum(axis=1) + math.lgamma(alpha.sum())
                    - np.array([math.lgamma(a) for a in alpha.tolist()]).sum())
    priors[:, 1::2] = base_vector_log_prior(columns, prior)
    priors[:, 2::2] = repelled_beta.log_density_all_ones(theta_prime, v[:, None])
    out = np.cumsum(priors, axis=1)[:, -1]
    if prior.v_mode == V_FREE:
        in_range = (0.0 < v) & (v < prior.max_v)
        inside = np.where(in_range, v, 1.0)  # the log of v is taken only in range
        out += prior.d1 * np.log(inside) + prior.d2 * inside
        out[~in_range] = -np.inf  # the terms added below are finite
    out += [t @ lp for t, lp in zip(totals, log_pi)]
    theta = theta_matrix(columns, theta_prime)
    failures = totals[:, :, None] - successes
    terms = successes * np.log(theta) + failures * np.log1p(-theta)
    out += terms.reshape(n_draws, -1).sum(axis=1)
    return out


def full_log_joint(state: ModelState, data: Dataset, prior: PriorConfig,
                   counts=None) -> float:
    """Log of the full joint density of parameters and data.

    Sums the Dirichlet prior on pi, per-item partition priors and normalized
    repelled beta priors on theta', the (unnormalized) prior on v when v is
    free (-inf when v is outside (0, max_v)), the membership probabilities,
    and the Bernoulli likelihood: the one-draw case of :func:`log_joints`.
    ``counts`` are the ``kernels.class_counts`` of the state's memberships;
    they are recounted when not given.
    """
    n_items, n_classes = state.columns.shape
    if data.n_items != n_items or prior.n_classes != n_classes:
        raise ValueError("state, data, and prior dimensions are inconsistent")
    if data.n != state.memberships.size:
        raise ValueError("memberships length does not match the dataset")
    if counts is None:
        counts = kernels.class_counts(data.x, state.memberships, n_classes)
    successes, totals = counts
    return float(log_joints(state.pi[None], state.columns[None], state.theta_prime[None],
                            [state.v], (successes[None], totals[None]), prior)[0])

"""Synthetic data generation from the fixed simulation fixtures.

The 32-item generation fixtures ship as CSV data files (one for up to 5
classes, one for up to 16); their labels are 0-indexed and not in first
occurrence order, so columns are canonicalized on load. Response
probabilities are evenly spaced between 1/(2B) and 1 - 1/(2B) per item,
assigned by the fixture's printed label (label 0 lowest), and classes are
equally likely a priori.
"""

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .model import BaseClassMatrix, Dataset, pad_theta_prime, theta_matrix

SUPPORTED_CLASS_COUNTS = (4, 5, 8, 11, 16)
HOLDOUT_SEED_OFFSET = 2 ** 32


def _load_fixture_table(n_classes: int) -> np.ndarray:
    name = "sim_base_classes_c5.csv" if n_classes <= 5 else "sim_base_classes_c16.csv"
    path = resources.files("esrlcm.data").joinpath(name)
    with path.open() as fh:
        table = np.loadtxt(fh, delimiter=",", skiprows=1, dtype=np.int64)
    return table[:, 1:]  # drop the item index column; rows are items


def fixture_base_matrix(n_classes: int) -> BaseClassMatrix:
    """The 32-item generation fixture truncated to its first ``n_classes`` columns."""
    if n_classes not in SUPPORTED_CLASS_COUNTS:
        raise ValueError(f"supported class counts are {SUPPORTED_CLASS_COUNTS}")
    table = _load_fixture_table(n_classes)[:, :n_classes]
    return BaseClassMatrix.from_raw(table.T)


def _even_spacing(label, n_sets) -> np.ndarray:
    """Response probability (2t + 1) / (2B) of 0-indexed set label t of B,
    so sets 0..B-1 run evenly from 1/(2B) to 1 - 1/(2B). Broadcasts."""
    return (2.0 * np.asarray(label) + 1.0) / (2.0 * np.asarray(n_sets))


def _fixture_theta_prime(n_classes: int) -> np.ndarray:
    """Truth theta' as a (J, C) block indexed by canonical label, NaN past
    each item's set count.

    The evenly spaced values attach to the fixture's printed labels (printed
    label t gets (2t + 1) / (2B), see :func:`_even_spacing`), then follow
    each label through canonicalization, so an item's B sets take the values (2b - 1) / (2B),
    b = 1..B, in some order.
    """
    printed = _load_fixture_table(n_classes)[:, :n_classes]
    columns = fixture_base_matrix(n_classes).labels.T
    values = _even_spacing(printed, columns.max(axis=1)[:, None])
    theta = np.full(columns.shape, np.nan)
    # classes sharing a printed label share a canonical one, so repeats agree
    theta[np.arange(columns.shape[0])[:, None], columns - 1] = values
    return theta


@dataclass
class SimulationTruth:
    """Generating parameters of one synthetic dataset. ``theta_prime`` is laid
    out like ``ModelState.theta_prime``; the truth JSON stores it unpadded."""

    base: BaseClassMatrix
    theta_prime: np.ndarray
    pi: np.ndarray
    memberships: np.ndarray
    seed: int

    def theta_matrix(self) -> np.ndarray:
        return theta_matrix(self.base.labels.T, self.theta_prime)

    def to_json(self, path) -> None:
        rec = {
            "seed": int(self.seed),
            "pi": self.pi.tolist(),
            "B": self.base.labels.T.tolist(),
            "theta_prime": [t[:n].tolist()
                            for t, n in zip(self.theta_prime, self.base.n_base_all())],
            "c": self.memberships.tolist(),
        }
        # one dumps call runs the C encoder; json.dump streams through the
        # pure-Python one, which is slow over n membership ints
        with open(path, "w") as fh:
            fh.write(json.dumps(rec))

    @classmethod
    def from_json(cls, path) -> "SimulationTruth":
        with open(path) as fh:
            rec = json.load(fh)
        base = BaseClassMatrix(np.array(rec["B"]).T)
        return cls(
            base=base,
            theta_prime=pad_theta_prime(base.labels.T, rec["theta_prime"]),
            pi=np.asarray(rec["pi"], dtype=np.float64),
            memberships=np.asarray(rec["c"], dtype=np.int64),
            seed=int(rec["seed"]),
        )


def _draw(theta, pi, n, rng):
    memberships = rng.choice(pi.size, size=n, p=pi)
    x = (rng.random((n, theta.shape[1])) < theta[memberships]).astype(np.int8)
    return x, memberships


def simulate(n_classes: int, n: int, seed: int):
    """Generate one dataset from the fixture truth; deterministic given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = fixture_base_matrix(n_classes)
    truth = SimulationTruth(
        base=base,
        theta_prime=_fixture_theta_prime(n_classes),
        pi=np.full(n_classes, 1.0 / n_classes),
        memberships=np.empty(0, dtype=np.int64),
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    x, memberships = _draw(truth.theta_matrix(), truth.pi, n, rng)
    truth.memberships = memberships
    return Dataset(x), truth


def simulate_holdout(truth: SimulationTruth, n: int) -> Dataset:
    """Companion holdout from the same truth, on an independent stream."""
    rng = np.random.default_rng(truth.seed + HOLDOUT_SEED_OFFSET)
    x, _ = _draw(truth.theta_matrix(), truth.pi, n, rng)
    return Dataset(x)

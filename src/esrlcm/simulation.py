"""Synthetic data generation from the fixed simulation fixtures.

The 32-item generation fixtures ship as CSV data files (one for up to 5
classes, one for up to 16); their labels are 0-indexed and not in first
occurrence order, so columns are canonicalized on load. Response
probabilities are evenly spaced between 1/(2B) and 1 - 1/(2B) per item,
assigned by the fixture's printed label (label 0 lowest), and classes are
equally likely a priori.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .model import Dataset, ModelState, canonicalize, parameter_record, read_parameters

SUPPORTED_CLASS_COUNTS = (4, 5, 8, 11, 16)
HOLDOUT_SEED_OFFSET = 2 ** 32


def _load_fixture_table(n_classes: int) -> np.ndarray:
    if n_classes not in SUPPORTED_CLASS_COUNTS:
        raise ValueError(f"supported class counts are {SUPPORTED_CLASS_COUNTS}")
    name = "sim_base_classes_c5.csv" if n_classes <= 5 else "sim_base_classes_c16.csv"
    path = resources.files("esrlcm.data").joinpath(name)
    with path.open() as fh:
        table = np.loadtxt(fh, delimiter=",", skiprows=1, dtype=np.int64)
    return table[:, 1:n_classes + 1]  # printed labels; rows are items


def _even_spacing(label, n_sets) -> np.ndarray:
    """Response probability (2t + 1) / (2B) of 0-indexed set label t of B,
    so sets 0..B-1 run evenly from 1/(2B) to 1 - 1/(2B). Broadcasts."""
    return (2.0 * np.asarray(label) + 1.0) / (2.0 * np.asarray(n_sets))


def _fixture_theta_prime(printed, columns) -> np.ndarray:
    """Truth theta' as a (J, C) block indexed by canonical label, NaN past
    each item's set count, from the fixture's printed labels and their
    canonical ``columns``.

    The evenly spaced values attach to the fixture's printed labels (printed
    label t gets (2t + 1) / (2B), see :func:`_even_spacing`), then follow
    each label through canonicalization, so an item's B sets take the values (2b - 1) / (2B),
    b = 1..B, in some order.
    """
    values = _even_spacing(printed, columns.max(axis=1)[:, None])
    theta = np.full(columns.shape, np.nan)
    # classes sharing a printed label share a canonical one, so repeats agree
    theta[np.arange(columns.shape[0])[:, None], columns - 1] = values
    return theta


@dataclass
class SimulationTruth(ModelState):
    """Generating parameters of one synthetic dataset: a ``ModelState`` at
    v = 0, with its checks, plus the data ``seed``."""

    seed: int = field(kw_only=True)

    def to_json(self, path) -> None:
        rec = {"seed": int(self.seed), **parameter_record(self.pi, self.columns, self.theta_prime),
               "c": self.memberships.tolist()}
        # json.dumps runs the C encoder; json.dump streams through the slow Python one
        with open(path, "w") as fh:
            fh.write(json.dumps(rec))

    @classmethod
    def from_json(cls, path) -> "SimulationTruth":
        with open(path) as fh:
            rec = read_parameters([fh.read()], lambda d: f"truth file {path}: ",
                                  {"seed": (int, 0), "c": (int, 1)})
        return cls(pi=rec["pi"][0], memberships=rec["c"][0], columns=rec["B"][0],
                   theta_prime=rec["theta_prime"][0], seed=int(rec["seed"][0]))


def _draw(theta, pi, n, rng):
    memberships = rng.choice(pi.size, size=n, p=pi)
    x = (rng.random((n, theta.shape[1])) < theta[memberships]).astype(np.int8)
    return x, memberships


def simulate(n_classes: int, n: int, seed: int):
    """Generate one dataset from the fixture truth; deterministic given seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    printed = _load_fixture_table(n_classes)
    columns = canonicalize(printed)
    truth = SimulationTruth(
        pi=np.full(n_classes, 1.0 / n_classes),
        memberships=np.empty(0, dtype=np.int64),
        columns=columns,
        theta_prime=_fixture_theta_prime(printed, columns),
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

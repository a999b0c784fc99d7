"""Checks of the benchmark's bulk ESS against series with a known answer.

Run from the repository root: python3 -m pytest -q perfbench/test_ess.py
"""

import numpy as np
import pytest
from scipy.signal import lfilter

from ess import bulk_ess

N = 20_000


def ar1(rho, n, seed):
    """Stationary AR(1) series with unit innovations."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=n)
    noise[0] /= np.sqrt(1.0 - rho ** 2)
    return lfilter([1.0], [1.0, -rho], noise)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iid_series_has_ess_near_its_length(seed):
    draws = np.random.default_rng(seed).normal(size=N)
    assert bulk_ess(draws) == pytest.approx(N, rel=0.1)


@pytest.mark.parametrize("rho, rel", [(0.5, 0.1), (0.9, 0.25)])
def test_ar1_series_matches_the_analytic_ess(rho, rel):
    expected = N * (1.0 - rho) / (1.0 + rho)
    assert bulk_ess(ar1(rho, N, seed=3)) == pytest.approx(expected, rel=rel)


def test_chains_pool_their_draws():
    draws = np.random.default_rng(4).normal(size=(4, N // 4))
    assert bulk_ess(draws) == pytest.approx(N, rel=0.1)


def test_rank_normalization_ignores_heavy_tails():
    draws = np.random.default_rng(5).standard_cauchy(size=N)
    assert bulk_ess(draws) == pytest.approx(N, rel=0.1)


def test_split_halves_expose_a_trend():
    rng = np.random.default_rng(6)
    drifting = np.linspace(0.0, 1.0, N) + 0.05 * rng.normal(size=N)
    assert bulk_ess(drifting) < 10


def test_constant_and_short_series_are_rejected():
    with pytest.raises(ValueError):
        bulk_ess(np.ones(100))
    with pytest.raises(ValueError):
        bulk_ess(np.arange(6.0))

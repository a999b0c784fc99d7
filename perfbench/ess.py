"""Rank-normalized split bulk effective sample size.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC", Bayesian Analysis 16(2): each chain is split
in half, the pooled draws are replaced by normal scores of their ranks, and
the autocorrelation sum is truncated by Geyer's initial monotone sequence.
"""

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _split_chains(draws):
    draws = np.atleast_2d(np.asarray(draws, dtype=np.float64))
    half = draws.shape[1] // 2
    return np.concatenate([draws[:, :half], draws[:, -half:]], axis=0)


def _rank_normalize(draws):
    ranks = rankdata(draws, method="average").reshape(draws.shape)
    return ndtri((ranks - 0.375) / (draws.size + 0.25))


def _autocovariance(chains):
    # Biased autocovariance per chain via a zero-padded FFT.
    n = chains.shape[1]
    centered = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def _ess(chains):
    n_chains, n = chains.shape
    acov = _autocovariance(chains)
    within = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if n_chains > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float(n_chains * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer's initial positive sequence: sum pairs while their sum is positive,
    # capped to keep the pair sums nonincreasing (initial monotone sequence).
    total = 0.0
    prev_pair = np.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev_pair)
        total += pair
        prev_pair = pair
        t += 2
    tau = max(-1.0 + 2.0 * total, 1.0 / np.log10(n_chains * n))
    return float(n_chains * n / tau)


def bulk_ess(draws) -> float:
    """Bulk ESS of draws shaped (chains, draws) or (draws,) for one chain."""
    chains = _split_chains(draws)
    if chains.shape[1] < 4:
        raise ValueError("need at least 8 draws per chain for a split ESS")
    if np.ptp(chains) == 0.0:
        raise ValueError("constant draws have no effective sample size")
    return _ess(_rank_normalize(chains))

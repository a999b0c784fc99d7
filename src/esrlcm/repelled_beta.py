"""The repelled beta distribution family.

A vector rho in (0,1)^M follows a repelled beta distribution when its density
is proportional to

    prod_k rho_k^(a_k1 - 1) (1 - rho_k)^(a_k2 - 1)
        * prod_{k=2..M} (rho_(k) - rho_(k-1))^v

where rho_(k) denotes the k-th order statistic and v >= 0 is a repulsion
exponent. At v = 0 the components are independent betas; as v grows the
components are pushed apart. With all shape parameters equal to one the
normalizing constant is known in closed form, the sorted gaps follow a
Dirichlet distribution, and the family is conjugate for Bernoulli responses.
"""

from dataclasses import dataclass

import numpy as np


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


@dataclass(frozen=True)
class RepelledBetaParams:
    """Shape matrix (M x 2, entries > 0) and repulsion exponent v >= 0."""

    alpha: np.ndarray
    v: float = 0.0

    def __post_init__(self):
        alpha = np.atleast_2d(np.asarray(self.alpha, dtype=np.float64))
        if alpha.ndim != 2 or alpha.shape[1] != 2 or alpha.shape[0] < 1:
            raise ValueError(f"alpha must be an M x 2 matrix with M >= 1, got shape {alpha.shape}")
        if not np.all(alpha > 0):
            raise ValueError("all alpha entries must be strictly positive")
        if not np.isfinite(self.v) or self.v < 0:
            raise ValueError(f"v must be a finite nonnegative real, got {self.v}")
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "v", float(self.v))

    @property
    def m(self) -> int:
        """Number of components."""
        return self.alpha.shape[0]


def _check_rho(params, rho):
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (params.m,):
        raise ValueError(f"rho must have shape ({params.m},), got {rho.shape}")
    if np.any(rho <= 0.0) or np.any(rho >= 1.0):
        raise ValueError("rho components must lie strictly inside (0, 1)")
    return rho


def log_density_unnormalized(params: RepelledBetaParams, rho) -> float:
    """Log of the unnormalized density at ``rho``.

    Returns -inf when v > 0 and two components coincide. The gap term is
    omitted entirely at v = 0, so ties are harmless there.
    """
    rho = _check_rho(params, rho)
    a1 = params.alpha[:, 0]
    a2 = params.alpha[:, 1]
    out = float(np.sum((a1 - 1.0) * np.log(rho) + (a2 - 1.0) * np.log1p(-rho)))
    if params.v > 0:
        out += log_gap_term(rho, params.v)
    return out


def log_gap_term(rho, v: float):
    """The repulsion term v * sum(log gaps) of the sorted components.

    ``rho`` is one vector, giving one value, or a matrix of rows padded with
    NaN past their component counts, giving one value per row. Zero when
    v = 0 or there is a single component, -inf when v > 0 and two components
    coincide. Unvalidated: callers pass components inside (0, 1).
    """
    if v == 0.0:
        return 0.0
    # NaN sorts last, so a padded row's NaN gaps follow its real ones; real
    # gaps are below one, so fmin with 0 keeps their logs and zeroes each NaN
    ordered = np.sort(rho)
    with np.errstate(divide="ignore"):  # coinciding components give -inf
        return v * np.fmin(np.log(ordered[..., 1:] - ordered[..., :-1]), 0.0).sum(axis=-1)


def log_normalizer_all_ones(m, v: float):
    """Log normalizing constant for the all-ones shape matrix.

    The constant is Gamma((M-1)(v+1)+2) / (M! Gamma(v+1)^(M-1)). ``m`` is one
    component count, giving one value, or an array of them, giving an array.
    A sampler hot path, unvalidated: callers pass counts m >= 1 and v >= 0.
    """
    # imported here: scipy.special costs about 0.28 s, which simulate never needs
    from scipy.special import gammaln

    return gammaln((m - 1) * (v + 1.0) + 2.0) - gammaln(m + 1) - (m - 1) * gammaln(v + 1.0)


def log_density_all_ones(rho, v: float):
    """Normalized log density for the all-ones shape matrix.

    ``rho`` is one vector, giving one value, or a matrix of rows padded with
    NaN past their component counts, giving one value per row. A sampler hot
    path: the components are already inside (0, 1), so only the normalizer
    and the gap term are left to compute.
    """
    return (log_normalizer_all_ones(rho.shape[-1] - np.isnan(rho).sum(axis=-1), v)
            + log_gap_term(rho, v))


def sample(params: RepelledBetaParams, rng, max_attempts: int = 1_000_000):
    """Exact draw by rejection from independent beta proposals.

    A proposal is accepted with probability ``prod(gaps)**v``, a valid
    acceptance probability because every gap is below one and v >= 0.
    Raises :class:`SamplingError` once ``max_attempts`` proposals have been
    rejected; a silently truncated draw would bias the Gibbs chain that
    consumes it.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    a1 = params.alpha[:, 0]
    a2 = params.alpha[:, 1]
    m = params.m
    uniform_shapes = bool(np.all(params.alpha == 1.0))  # Beta(1,1) draws are uniforms

    def propose(k):
        if uniform_shapes:
            return rng.random((k, m))
        return rng.beta(a1, a2, size=(k, m))

    if m == 1 or params.v == 0.0:
        return propose(1)[0]

    attempts = 0
    batch = 64
    while attempts < max_attempts:
        k = min(batch, max_attempts - attempts)
        props = propose(k)
        ordered = np.sort(props, axis=1)
        log_acc = params.v * np.sum(np.log(ordered[:, 1:] - ordered[:, :-1]), axis=1)
        accepted = np.log(rng.random(k)) < log_acc
        hit = int(accepted.argmax())  # the first acceptance, or 0 when none
        if accepted[hit]:
            return props[hit]
        attempts += k
        batch = min(batch * 4, 65536)
    raise SamplingError(
        f"no acceptance in {max_attempts} attempts (m={m}, v={params.v}); "
        "the repulsion exponent is too large for rejection sampling at this dimension"
    )

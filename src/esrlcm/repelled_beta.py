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

:func:`log_gap_term` is the one gap formula: the normalized all-ones
density, the sampler's v conditional and the rejection sampler all score the
repulsion through it.
"""

import numpy as np


class SamplingError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


def log_gap_term(rho, v):
    """The repulsion term v * sum(log gaps) of the sorted components.

    ``rho`` is one vector, giving one value, or a stack of rows padded with
    NaN past their component counts, giving one value per row. ``v`` is one
    exponent, or an array of them that broadcasts against the rows' values.
    Zero where v = 0, even where two components coincide, or where there is
    a single component; -inf where v > 0 and two components coincide.
    Unvalidated: callers pass components inside (0, 1).
    """
    n_nonzero = np.count_nonzero(v)
    if not n_nonzero:
        return 0.0
    # NaN sorts last, so a padded row's NaN gaps follow its real ones; real
    # gaps are below one, so fmin with 0 keeps their logs and zeroes each NaN
    ordered = np.sort(rho)
    with np.errstate(divide="ignore"):  # coinciding components give -inf
        logs = np.fmin(np.log(ordered[..., 1:] - ordered[..., :-1]), 0.0).sum(axis=-1)
    if n_nonzero == np.size(v):
        return v * logs
    # some exponents are zero: their rows take 0, not 0 * -inf
    return np.multiply(v, logs, out=np.zeros(np.broadcast(v, logs).shape), where=v != 0.0)


def log_normalizer_all_ones(m, v):
    """Log normalizing constant for the all-ones shape matrix.

    The constant is Gamma((M-1)(v+1)+2) / (M! Gamma(v+1)^(M-1)). ``m`` is one
    component count, giving one value, or an array of them, giving an array;
    ``v`` is one exponent or an array of them that broadcasts against ``m``.
    A sampler hot path, unvalidated: callers pass counts m >= 1 and v >= 0.
    """
    # imported here: scipy.special costs about 0.28 s, which simulate never needs
    from scipy.special import gammaln

    return gammaln((m - 1) * (v + 1.0) + 2.0) - gammaln(m + 1) - (m - 1) * gammaln(v + 1.0)


def log_density_all_ones(rho, v):
    """Normalized log density for the all-ones shape matrix.

    ``rho`` is one vector, giving one value, or a stack of rows padded with
    NaN past their component counts, giving one value per row; ``v`` is as
    in :func:`log_gap_term`. A sampler hot path: the components are already
    inside (0, 1), so only the normalizer and the gap term are left to
    compute.
    """
    return (log_normalizer_all_ones(rho.shape[-1] - np.isnan(rho).sum(axis=-1), v)
            + log_gap_term(rho, v))


def sample(alpha, rng, max_attempts: int = 1_000_000, v: float = 0.0):
    """Exact draw for the (M, 2) shapes ``alpha`` and exponent ``v``, by
    rejection from independent beta proposals.

    A proposal is accepted with probability ``exp(log_gap_term(rho, v))``,
    the product of its gaps to the power v, valid because every gap is
    below one. Raises :class:`SamplingError` once ``max_attempts`` proposals
    have been rejected; a silently truncated draw would bias any chain that
    consumes it. ``v`` comes last because ``perfbench/tracing.py`` reads the
    third positional argument as the budget. Callers pass positive shapes
    and v >= 0.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    alpha = np.asarray(alpha, dtype=np.float64)
    m = alpha.shape[0]
    uniform_shapes = bool(np.all(alpha == 1.0))  # Beta(1,1) draws are uniforms

    def propose(k):
        if uniform_shapes:
            return rng.random((k, m))
        return rng.beta(alpha[:, 0], alpha[:, 1], size=(k, m))

    if m == 1 or v == 0.0:
        return propose(1)[0]

    attempts = 0
    batch = 64
    while attempts < max_attempts:
        k = min(batch, max_attempts - attempts)
        props = propose(k)
        accepted = np.log(rng.random(k)) < log_gap_term(props, v)
        hit = int(accepted.argmax())  # the first acceptance, or 0 when none
        if accepted[hit]:
            return props[hit]
        attempts += k
        batch = min(batch * 4, 65536)
    raise SamplingError(
        f"no acceptance in {max_attempts} attempts (m={m}, v={v}); "
        "the repulsion exponent is too large for rejection sampling at this dimension"
    )

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (shown even under captured output).
The heavy end-to-end recovery run keeps its artifacts in a session cache so
the out-of-sample comparisons reuse one fit.
"""

import time

import numpy as np
import pytest

from esrlcm import evaluation, identifiability, kernels, repelled_beta, simulation
from esrlcm.mcmc import (
    Lanes,
    McmcConfig,
    gibbs_update_base_class_v0,
    gibbs_update_theta,
    rj_update_base_class,
    run_chain,
)
from esrlcm.model import (
    BaseClassMatrix,
    Dataset,
    ModelState,
    PriorConfig,
    base_vector_log_prior,
    bell,
    full_log_joint,
    stirling2,
)

from helpers import (
    all_partition_columns,
    expected_rho,
    iter_set_partitions,
    normalizer_all_ones,
    oracle_full_log_joint,
    quadrature_integral_all_ones,
    random_state,
)
from test_identifiability import EXAMPLE_B, EXAMPLE_M, random_base


def report(capsys, n, ok, detail=""):
    with capsys.disabled():
        print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_normalizer_quadrature(capsys):
    start = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        for v in (0.0, 0.5, 1.0, 2.0):
            total = normalizer_all_ones(m, v) * quadrature_integral_all_ones(m, v)
            worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    report(capsys, 1, ok, f"max |Z*I - 1| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_sampler_moments(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    alpha = np.ones((3, 2))
    n_draws = 200_000
    draws = np.empty((n_draws, 3))
    for i in range(n_draws):
        draws[i] = repelled_beta.sample(alpha, rng, v=2.0)
    draws.sort(axis=1)
    expected = np.array([expected_rho(3, 2.0, k) for k in (1, 2, 3)])
    se = draws.std(axis=0) / np.sqrt(n_draws)
    err = np.abs(draws.mean(axis=0) - expected)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(err < 4 * se)) and elapsed < 30.0
    report(capsys, 2, ok,
           f"means {draws.mean(axis=0).round(4)} vs {expected}, {elapsed:.1f}s")


def test_criterion_3_partition_prior_recovery(capsys):
    start = time.perf_counter()
    prior = PriorConfig.default(3, lam=0.5, v_mode="fixed_zero")
    data = Dataset(np.empty((0, 2), dtype=int))
    draws = run_chain(data, prior, McmcConfig(n_main=50_000, seed=31))
    target = {
        tuple(col.tolist()): np.exp(base_vector_log_prior(col, prior))
        for col in all_partition_columns(3)
    }
    worst = 0.0
    for j in range(2):
        freq = {}
        for d in range(draws.n_draws):
            key = tuple(draws.base_columns[d][j].tolist())
            freq[key] = freq.get(key, 0) + 1
        for key, target_p in target.items():
            got = freq.get(key, 0) / draws.n_draws
            worst = max(worst, abs(got - target_p))
    elapsed = time.perf_counter() - start
    ok = worst < 0.02 and elapsed < 60.0
    report(capsys, 3, ok, f"max |freq - prior| = {worst:.4f}, {elapsed:.1f}s")


def test_criterion_4_rj_gibbs_consistency(capsys):
    start = time.perf_counter()
    x = (np.arange(20) < 12).astype(int).reshape(-1, 1)
    data = Dataset(x)
    memberships = np.tile([0, 1], 10)
    prior = PriorConfig.default(2, lam=1.0, v_mode="fixed_zero")
    sweeps = 100_000
    # the memberships never change, so neither do the class counts
    counts = kernels.class_counts(data.x, memberships, 2)

    def chain(kind):
        rng = np.random.default_rng(41 if kind == "gibbs" else 42)
        state = ModelState(
            pi=np.array([0.5, 0.5]), memberships=memberships,
            base=BaseClassMatrix(np.array([[1], [2]])),
            theta_prime=np.array([[0.4, 0.6]]),
            v=0.0 if kind == "gibbs" else 1e-6,
        )
        lanes = Lanes([state], [prior], [rng], [counts])
        merged = 0
        for _ in range(sweeps):
            if kind == "gibbs":
                gibbs_update_base_class_v0(0, lanes)
            else:
                rj_update_base_class(0, lanes)
                gibbs_update_theta(0, state, data, prior, rng, counts)
            merged += state.base.column(0)[1] == 1
        return merged / sweeps

    gibbs_freq = chain("gibbs")
    rj_freq = chain("rj")
    gap = abs(gibbs_freq - rj_freq)
    elapsed = time.perf_counter() - start
    ok = gap < 0.03
    report(capsys, 4, ok,
           f"P(merged): gibbs {gibbs_freq:.4f} vs rj {rj_freq:.4f}, {elapsed:.0f}s")


def test_criterion_5_identifiability(capsys):
    start = time.perf_counter()
    greedy = identifiability.greedy_search(EXAMPLE_B, EXAMPLE_M)
    ok = greedy.identifiable
    rng = np.random.default_rng(5)
    ok = ok and identifiability.numeric_verify(
        EXAMPLE_B, EXAMPLE_M, greedy.witness.tripartition, rng, trials=10
    )
    violations = 0
    greedy_hits = 0
    fixture_rng = np.random.default_rng(55)
    for _ in range(200):
        n_classes = int(fixture_rng.integers(2, 6))
        n_items = int(fixture_rng.integers(2, 9))
        base = random_base(fixture_rng, n_classes, n_items)
        levels = fixture_rng.integers(2, 4, size=n_items)
        if identifiability.greedy_search(base, levels).identifiable:
            greedy_hits += 1
            if not identifiability.exhaustive_search(base, levels).identifiable:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = ok and violations == 0 and elapsed < 300.0
    report(capsys, 5, ok,
           f"worked example identifiable, {greedy_hits} greedy hits, "
           f"{violations} containment violations, {elapsed:.0f}s")


def test_criterion_6_combinatorics(capsys):
    ok = bell(4) == 15 and bell(8) == 4140
    for n in range(1, 9):
        by_blocks = {}
        for part in iter_set_partitions(range(n)):
            by_blocks[len(part)] = by_blocks.get(len(part), 0) + 1
        for k in range(1, n + 1):
            ok = ok and stirling2(n, k) == by_blocks.get(k, 0)
    report(capsys, 6, ok, "bell(4)=15, bell(8)=4140, stirling2 vs enumeration")


@pytest.fixture(scope="module")
def recovery_run():
    start = time.perf_counter()
    data, truth = simulation.simulate(4, 2000, seed=7)
    holdout = simulation.simulate_holdout(truth, 20_000)
    config = McmcConfig(n_main=1500, n_warmup=1500, seed=7)
    prior = PriorConfig.default(4, lam=0.5, v_mode="free")
    draws = run_chain(data, prior, config)
    unrestricted = run_chain(
        data, PriorConfig.default(4, lam=0.5, v_mode="free"),
        McmcConfig(n_main=1500, n_warmup=1500, seed=7, unrestricted=True),
    )
    return {
        "truth": truth,
        "holdout": holdout,
        "draws": draws,
        "unrestricted": unrestricted,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_7_desk_scale_recovery(capsys, recovery_run):
    start = time.perf_counter()
    truth = recovery_run["truth"]
    draws = recovery_run["draws"]
    holdout = recovery_run["holdout"]

    mode = evaluation.mode_restrictions(draws)
    _, theta_bar = evaluation.posterior_mean_parameters(draws)
    alignment = evaluation.align_classes(truth.theta_matrix(), theta_bar)
    sens, spec = evaluation.restriction_sensitivity_specificity(truth.base, mode, alignment)

    oos = evaluation.predictive_loglik(draws, holdout)
    oos_unrestricted = evaluation.predictive_loglik(recovery_run["unrestricted"], holdout)
    elapsed = recovery_run["elapsed"] + time.perf_counter() - start

    ok = (
        sens >= 0.95
        and spec >= 0.98
        and abs(oos - (-18.687)) <= 0.05
        and oos >= oos_unrestricted
        and elapsed < 900.0
    )
    report(
        capsys, 7, ok,
        f"sens {sens:.3f}, spec {spec:.3f}, oos {oos:.3f} "
        f"(target -18.687 +- 0.05), unrestricted {oos_unrestricted:.3f}, {elapsed:.0f}s",
    )


def test_criterion_8_joint_density_oracle(capsys):
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        n_classes = int(rng.integers(2, 5))
        state, data, prior = random_state(
            rng, n_classes, int(rng.integers(1, 4)), int(rng.integers(0, 7)),
            v_mode="free" if rng.random() < 0.5 else "fixed_zero",
        )
        got = full_log_joint(state, data, prior)
        want = oracle_full_log_joint(state, data, prior)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst < 1e-10
    report(capsys, 8, ok, f"max relative gap {worst:.2e} over 100 random states")

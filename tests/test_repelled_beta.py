import numpy as np
import pytest
from scipy import integrate, stats

from esrlcm import repelled_beta as rb

from helpers import (
    conjugate_posterior,
    expected_rho,
    gaps_distribution,
    log_density_unnormalized,
    normalizer_all_ones,
    quadrature_integral_all_ones,
    sample_sorted_all_ones,
)


class TestLogDensityUnnormalized:
    def test_uniform_case_is_zero(self):
        assert rb.log_density_all_ones(np.array([0.3, 0.7]), 0.0) == 0.0

    def test_single_gap_term(self):
        assert rb.log_gap_term(np.array([0.3, 0.7]), 1.0) == pytest.approx(np.log(0.4))

    def test_hand_evaluated_example(self):
        got = log_density_unnormalized([[2, 1], [1, 1]], [0.5, 0.9], 2.0)
        assert got == pytest.approx(np.log(0.5) + 2 * np.log(0.4))

    def test_tie_gives_minus_inf_when_repelling(self):
        assert rb.log_gap_term(np.array([0.4, 0.4]), 1.0) == -np.inf

    def test_tie_harmless_at_v_zero(self):
        assert np.isfinite(rb.log_density_all_ones(np.array([0.4, 0.4]), 0.0))

    def test_padded_rows_match_their_vectors(self):
        # the gap term of a NaN-padded row is that of its real components
        rows = [[0.3, 0.7], [0.1, 0.5, 0.9], [0.6]]
        block = np.array([r + [np.nan] * (3 - len(r)) for r in rows])
        got = rb.log_gap_term(block, 2.0)
        assert np.array_equal(got, [rb.log_gap_term(np.array(r), 2.0) for r in rows])

    def test_permutation_symmetry_all_ones(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rho = rng.uniform(0.01, 0.99, size=4)
            perm = rng.permutation(4)
            assert rb.log_density_all_ones(rho, 1.5) == pytest.approx(
                rb.log_density_all_ones(rho[perm], 1.5)
            )


class TestNormalizer:
    def test_dimension_one_is_uniform(self):
        for v in (0.0, 0.5, 2.0):
            assert normalizer_all_ones(1, v) == pytest.approx(1.0)

    def test_two_independent_uniforms(self):
        assert normalizer_all_ones(2, 0.0) == pytest.approx(1.0)

    def test_against_quadrature_m2_v1(self):
        # 1 / integral of |x - y| over the unit square
        integral = quadrature_integral_all_ones(2, 1.0)
        assert normalizer_all_ones(2, 1.0) == pytest.approx(1.0 / integral)
        assert normalizer_all_ones(2, 1.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0, 2.0])
    def test_integrates_to_one(self, m, v):
        total = normalizer_all_ones(m, v) * quadrature_integral_all_ones(m, v)
        assert abs(total - 1.0) < 1e-6


class TestSampling:
    def test_v_zero_matches_independent_betas(self):
        rng = np.random.default_rng(11)
        alpha = np.array([[2.0, 3.0], [1.0, 1.0]])
        draws = np.array([rb.sample(alpha, rng, v=0.0) for _ in range(100_000)])
        ks1 = stats.kstest(draws[:, 0], stats.beta(2, 3).cdf)
        ks2 = stats.kstest(draws[:, 1], stats.beta(1, 1).cdf)
        assert ks1.pvalue > 0.01 and ks2.pvalue > 0.01

    def test_single_component_is_a_beta_draw(self):
        rng = np.random.default_rng(5)
        draws = np.array([rb.sample([[5.0, 2.0]], rng, v=3.0) for _ in range(50_000)]).ravel()
        assert stats.kstest(draws, stats.beta(5, 2).cdf).pvalue > 0.01

    def test_sorted_sample_means_match_order_statistic_expectations(self):
        rng = np.random.default_rng(42)
        draws = np.sort([rb.sample(np.ones((3, 2)), rng, v=2.0) for _ in range(30_000)], axis=1)
        expected = [expected_rho(3, 2.0, k) for k in (1, 2, 3)]
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 4 * se)

    def test_sorted_rejection_and_gap_dirichlet_agree(self):
        rng = np.random.default_rng(3)
        rejected = np.sort([rb.sample(np.ones((2, 2)), rng, v=1.0) for _ in range(40_000)], axis=1)
        via_gaps = np.array([sample_sorted_all_ones(2, 1.0, rng) for _ in range(40_000)])
        for k in range(2):
            assert stats.ks_2samp(rejected[:, k], via_gaps[:, k]).pvalue > 0.01

    def test_attempt_budget_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(rb.SamplingError):
            rb.sample(np.ones((6, 2)), rng, max_attempts=50, v=40.0)


class TestGapsDistribution:
    def test_uniform_order_statistics(self):
        assert np.allclose(gaps_distribution(2, 0.0), [1, 1, 1])

    def test_repelled_case(self):
        assert np.allclose(gaps_distribution(3, 2.0), [1, 3, 3, 1])

    def test_fractional_exponent(self):
        assert np.allclose(gaps_distribution(4, 0.5), [1, 1.5, 1.5, 1.5, 1])


class TestExpectedRho:
    def test_median_of_three_uniforms(self):
        assert expected_rho(3, 0.0, 2) == pytest.approx(0.5)

    def test_monte_carlo_over_gap_dirichlet(self):
        rng = np.random.default_rng(8)
        draws = np.array([sample_sorted_all_ones(3, 2.0, rng)[0] for _ in range(200_000)])
        assert expected_rho(3, 2.0, 1) == pytest.approx(draws.mean(), abs=4 * draws.std() / 450)
        assert expected_rho(3, 2.0, 1) == pytest.approx(1 / 8)

    def test_max_of_pair_against_quadrature(self):
        val, _ = integrate.dblquad(
            lambda x, y: max(x, y) * 3.0 * abs(x - y), 0, 1, 0, 1,
            epsabs=1e-10, epsrel=1e-9,
        )
        assert expected_rho(2, 1.0, 2) == pytest.approx(val, abs=1e-6)
        assert expected_rho(2, 1.0, 2) == pytest.approx(0.75)

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            expected_rho(3, 1.0, 4)


class TestConjugacy:
    def test_no_data_leaves_params_unchanged(self):
        alpha, v = conjugate_posterior(np.ones((2, 2)), 1.0, np.zeros((2, 2), dtype=int))
        assert np.allclose(alpha, np.ones((2, 2))) and v == 1.0

    def test_componentwise_addition(self):
        alpha, _ = conjugate_posterior(np.ones((2, 2)), 0.0, [[2, 1], [0, 0]])
        assert np.allclose(alpha, [[3, 2], [1, 1]])

    def test_v_invariant(self):
        alpha, v = conjugate_posterior([[3, 2], [1, 4]], 1.0, [[1, 1], [2, 0]])
        assert np.allclose(alpha, [[4, 3], [3, 4]]) and v == 1.0

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            conjugate_posterior(np.ones((2, 2)), 0.0, [[-1, 0], [0, 0]])

    def test_posterior_density_is_prior_plus_likelihood(self):
        # posterior log density differs from prior + Bernoulli log likelihood
        # by a rho-independent constant, checked on pairs of rho values
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            alpha, v = rng.uniform(0.5, 3.0, size=(m, 2)), float(rng.uniform(0, 2))
            counts = rng.integers(0, 5, size=(m, 2))
            post, v_post = conjugate_posterior(alpha, v, counts)
            rho_a = rng.uniform(0.05, 0.95, size=m)
            rho_b = rng.uniform(0.05, 0.95, size=m)

            def bern(rho):
                return float(
                    np.sum(counts[:, 0] * np.log(rho) + counts[:, 1] * np.log1p(-rho))
                )

            diff_post = (log_density_unnormalized(post, rho_a, v_post)
                         - log_density_unnormalized(post, rho_b, v_post))
            diff_prior = (
                log_density_unnormalized(alpha, rho_a, v) + bern(rho_a)
                - log_density_unnormalized(alpha, rho_b, v) - bern(rho_b)
            )
            assert diff_post == pytest.approx(diff_prior, abs=1e-9)

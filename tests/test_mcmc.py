import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import beta as beta_fn

from esrlcm import kernels, mcmc, repelled_beta
from esrlcm.mcmc import (
    McmcConfig,
    PosteriorDraws,
    gibbs_update_base_class_v0,
    gibbs_update_pi,
    gibbs_update_theta,
    metropolis_update_v,
    rj_update_base_class,
    run_chain,
)
from esrlcm.model import (
    BaseClassMatrix,
    Dataset,
    ModelState,
    PriorConfig,
    base_vector_log_prior,
    full_log_joint,
    pad_theta_prime,
)
from esrlcm.repelled_beta import log_density_all_ones

from helpers import (
    all_partition_columns,
    collapsed_item_loglik_v0,
    column_menu_loop,
    expected_rho,
    gibbs_update_c,
    one_lane,
    random_canonical_column,
    random_state,
    rj_log_acceptance_terms,
)


def make_state(columns, theta_prime, memberships, pi=None, v=0.0):
    base = BaseClassMatrix(np.column_stack([np.asarray(c) for c in columns]))
    n_classes = base.n_classes
    if pi is None:
        pi = np.full(n_classes, 1.0 / n_classes)
    return ModelState(
        pi=pi,
        memberships=np.asarray(memberships, dtype=np.int64),
        base=base,
        theta_prime=pad_theta_prime(base.labels.T, theta_prime),
        v=v,
    )


def column_menu(columns, targets, succ, totals, prior):
    """``mcmc._column_menu`` of one lane's rows: its totals and its prior's
    staircase are the same for every row."""
    return mcmc._column_menu(columns, targets, succ, np.broadcast_to(totals, succ.shape),
                             np.broadcast_to(mcmc._log_prior_by_n_sets(prior), succ.shape))


def menu_columns(columns, targets, labels):
    """The canonical candidate columns, (J, C + 1, C), of a menu's labels."""
    n_items, n_rows = labels.shape
    moved = mcmc._relabel(np.repeat(columns, n_rows, axis=0), np.repeat(targets, n_rows),
                          labels.ravel())
    return moved.reshape(n_items, n_rows, -1)


def partition_distribution(chain_columns, n_classes):
    counts = {}
    for col in chain_columns:
        counts[tuple(col)] = counts.get(tuple(col), 0) + 1
    total = sum(counts.values())
    return {key: value / total for key, value in counts.items()}


def exact_prior(prior, n_classes):
    return {
        tuple(col.tolist()): np.exp(base_vector_log_prior(col, prior))
        for col in all_partition_columns(n_classes)
    }


class TestCollapsedLoglik:
    def test_no_observations(self):
        got = collapsed_item_loglik_v0(np.array([1, 2]), np.empty(0, dtype=int), np.empty(0))
        assert got == pytest.approx(0.0)

    def test_merged_pair(self):
        got = collapsed_item_loglik_v0(np.array([1, 1]), np.array([0, 1]), np.array([1, 0]))
        assert got == pytest.approx(np.log(1 / 6))

    def test_split_pair(self):
        got = collapsed_item_loglik_v0(np.array([1, 2]), np.array([0, 1]), np.array([1, 0]))
        assert got == pytest.approx(np.log(1 / 4))


class TestBaseClassGibbsV0:
    def test_candidate_odds_match_hand_calculation(self):
        # merge vs split posterior odds 2:3 for one success/one failure pair
        column = np.array([1, 2])
        succ_j = np.array([1.0, 0.0])
        totals = np.array([1.0, 1.0])
        prior = PriorConfig.default(2, lam=1.0, v_mode="fixed_zero")
        labels, log_w = column_menu(column[None], np.array([1]), succ_j[None], totals, prior)
        menu = menu_columns(column[None], np.array([1]), labels)
        weights = {tuple(row.tolist()): np.exp(w)
                   for row, w in zip(menu[0], log_w[0]) if w > -np.inf}
        assert weights[(1, 1)] / weights[(1, 2)] == pytest.approx(2 / 3)

    def test_menu_matches_loop_form(self):
        # per item of a block: same canonical rows in the same order, same
        # weights, then padding with weight -inf that no draw can pick; the
        # pick at fixed uniforms is the row the loop's weights select
        rng = np.random.default_rng(11)
        for trial in range(400):
            n_classes = int(rng.integers(1, 9))
            n_items = int(rng.integers(1, 6))
            columns = np.array([random_canonical_column(rng, n_classes) for _ in range(n_items)])
            totals = rng.integers(0, 20, size=n_classes).astype(float)
            succ = np.floor(rng.random((n_items, n_classes)) * (totals + 1))
            if trial % 2:
                prior = PriorConfig.default(n_classes, lam=rng.uniform(0.2, 1.0))
            else:
                zeta = rng.dirichlet(np.ones(n_classes))
                if trial % 4 == 0:
                    # set counts no current column has may get no mass, as
                    # a chain's state always keeps some
                    unused = np.ones(n_classes, dtype=bool)
                    unused[columns.max(axis=1) - 1] = False
                    zeta[unused & (rng.random(n_classes) < 0.7)] = 0.0
                prior = PriorConfig(alpha_c=np.ones(n_classes), zeta=zeta / zeta.sum())
            targets = rng.integers(n_classes, size=n_items)
            labels, log_w = column_menu(columns, targets, succ, totals, prior)
            assert log_w.shape == (n_items, n_classes + 1)
            assert not np.isnan(log_w).any()
            menu = menu_columns(columns, targets, labels)
            ref_ws = []
            for i in range(n_items):
                rows, ref_w = column_menu_loop(columns[i], int(targets[i]), succ[i], totals,
                                               prior)
                k = len(rows)
                assert np.array_equal(menu[i, :k], np.array(rows))
                assert np.allclose(log_w[i, :k], ref_w, rtol=1e-12, atol=1e-12)
                assert np.all(log_w[i, k:] == -np.inf)
                ref_ws.append(ref_w)
            for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
                picks = kernels.categorical_rows(log_w.T, np.full(n_items, u))
                expected = [kernels.categorical_rows(w[:, None], np.array([u]))[0]
                            for w in ref_ws]
                assert picks.tolist() == expected

    def test_prior_only_chain_recovers_partition_prior(self):
        rng = np.random.default_rng(0)
        prior = PriorConfig.default(3, lam=0.5, v_mode="fixed_zero")
        data = Dataset(np.empty((0, 1), dtype=int))
        state = make_state([[1, 2, 3]], [[0.2, 0.5, 0.8]], [])
        seen = []
        lanes = one_lane(state, data, prior, rng)
        for _ in range(20_000):
            gibbs_update_base_class_v0(0, lanes)
            seen.append(state.base.column(0).tolist())
        freq = partition_distribution(seen, 3)
        for col, target in exact_prior(prior, 3).items():
            assert freq.get(col, 0.0) == pytest.approx(target, abs=0.03)

    def test_batched_move_is_exactly_stationary(self):
        # one call moves three items with different fixed counts; each item's
        # columns follow its collapsed posterior over the 5 partitions, and
        # each set's theta' its conjugate beta
        rng = np.random.default_rng(12)
        prior = PriorConfig.default(3, lam=0.5, v_mode="fixed_zero")
        totals = np.array([6.0, 3.0, 5.0])
        succ = np.array([[5.0, 0.0, 2.0], [1.0, 1.0, 4.0], [3.0, 3.0, 0.0]]).T  # class x item
        data = Dataset(np.empty((0, 3), dtype=int))
        state = make_state([[1, 2, 3]] * 3, [[0.2, 0.5, 0.8]] * 3, [])
        seen = [{} for _ in range(3)]
        theta_sums = [{} for _ in range(3)]
        n_sweeps = 30_000
        lanes = mcmc.Lanes([state], [prior], [rng], [(succ, totals)])
        for _ in range(n_sweeps):
            gibbs_update_base_class_v0(np.arange(3), lanes)
            for j in range(3):
                key = tuple(state.base.column(j).tolist())
                seen[j][key] = seen[j].get(key, 0) + 1
                theta_sums[j][key] = (theta_sums[j].get(key, 0.0)
                                      + state.theta_prime[j, :state.base.n_base(j)])
        for j in range(3):
            weights = {}
            for col in all_partition_columns(3):
                s = np.bincount(col - 1, weights=succ[:, j])
                f = np.bincount(col - 1, weights=totals) - s
                weights[tuple(col.tolist())] = (np.exp(base_vector_log_prior(col, prior))
                                                * np.prod(beta_fn(1.0 + s, 1.0 + f)), s, f)
            norm = sum(w for w, _, _ in weights.values())
            for key, (w, s, f) in weights.items():
                assert seen[j].get(key, 0) / n_sweeps == pytest.approx(w / norm, abs=0.015)
                if seen[j].get(key, 0) > 2_000:
                    mean = theta_sums[j][key] / seen[j][key]
                    assert np.allclose(mean, (1.0 + s) / (2.0 + s + f), atol=0.01)

    def test_posterior_frequencies_match_enumeration(self):
        # two observations, one success and one failure, exact two-partition posterior
        rng = np.random.default_rng(1)
        prior = PriorConfig.default(2, lam=1.0, v_mode="fixed_zero")
        data = Dataset(np.array([[1], [0]]))
        state = make_state([[1, 2]], [[0.4, 0.6]], [0, 1])
        seen = []
        lanes = one_lane(state, data, prior, rng)
        for _ in range(20_000):
            gibbs_update_base_class_v0(0, lanes)
            seen.append(state.base.column(0).tolist())
        freq = partition_distribution(seen, 2)
        assert freq[(1, 1)] == pytest.approx(2 / 5, abs=0.02)
        assert freq[(1, 2)] == pytest.approx(3 / 5, abs=0.02)


class TestReversibleJump:
    def test_prior_recovery_with_repulsion(self):
        # the dimension-changing moves must keep the partition prior exact,
        # which exercises the normalizer ratio across dimensions
        rng = np.random.default_rng(7)
        prior = PriorConfig.default(3, lam=0.5, v_mode="free")
        data = Dataset(np.empty((0, 1), dtype=int))
        state = make_state([[1, 2, 3]], [[0.2, 0.5, 0.8]], [], v=0.5)
        seen = []
        lanes = one_lane(state, data, prior, rng)
        for _ in range(30_000):
            rj_update_base_class(0, lanes)
            gibbs_update_theta(0, state, data, prior, rng, lanes.counts(0))
            seen.append(state.base.column(0).tolist())
        freq = partition_distribution(seen, 3)
        for col, target in exact_prior(prior, 3).items():
            assert freq.get(col, 0.0) == pytest.approx(target, abs=0.02)

    def test_batched_move_keeps_each_items_prior(self):
        # one call moves three items whose padded theta' rows differ (3, 2
        # and 1 sets). Both updates keep the prior, so the state read between
        # them follows it too: there a move that skipped its acceptance step
        # would show freshly drawn, unrepelled theta'
        rng = np.random.default_rng(23)
        v = 0.5
        prior = PriorConfig.default(3, lam=0.5, v_mode="free")
        data = Dataset(np.empty((0, 3), dtype=int))
        state = make_state([[1, 2, 3], [1, 1, 2], [1, 1, 1]],
                           [[0.2, 0.5, 0.8], [0.3, 0.7], [0.4]], [], v=v)
        items = np.arange(3)
        seen = [[] for _ in items]
        two_set_draws = [[] for _ in items]
        lanes = one_lane(state, data, prior, rng)
        for _ in range(30_000):
            rj_update_base_class(items, lanes)
            for j in items:
                seen[j].append(state.base.column(j).tolist())
                if state.base.n_base(j) == 2:
                    two_set_draws[j].append(np.sort(state.theta_prime[j, :2]))
            gibbs_update_theta(items, state, data, prior, rng, lanes.counts(0))
        expected = [expected_rho(2, v, k) for k in (1, 2)]
        for j in items:
            freq = partition_distribution(seen[j], 3)
            for col, target in exact_prior(prior, 3).items():
                assert freq.get(col, 0.0) == pytest.approx(target, abs=0.02)
            assert np.allclose(np.mean(two_set_draws[j], axis=0), expected, atol=0.01)

    def test_batched_rows_move_independently(self):
        # a uniform shared by all rows leaves each item's own chain exact but
        # couples the items; under the prior they are independent, so the
        # number of one-set items is binomial. A strong repulsion makes many
        # moves reject, which a shared uniform would synchronize
        rng = np.random.default_rng(5)
        n_items, v = 100, 5.0
        prior = PriorConfig.default(3, lam=0.5, v_mode="free")
        data = Dataset(np.empty((0, n_items), dtype=int))
        state = make_state([[1, 2, 3]] * n_items, [[0.2, 0.5, 0.8]] * n_items, [], v=v)
        items = np.arange(n_items)
        n_one_set = []
        lanes = one_lane(state, data, prior, rng)
        for sweep in range(4_400):
            rj_update_base_class(items, lanes)
            gibbs_update_theta(items, state, data, prior, rng, lanes.counts(0))
            if sweep >= 400:
                n_one_set.append(np.sum(state.base.labels.max(axis=0) == 1))
        p = np.exp(base_vector_log_prior(np.array([1, 1, 1]), prior))
        assert np.var(n_one_set) / (n_items * p * (1 - p)) == pytest.approx(1.0, abs=0.3)

    def test_matches_collapsed_gibbs_at_vanishing_v(self):
        rng = np.random.default_rng(3)
        prior = PriorConfig.default(2, lam=1.0, v_mode="fixed_zero")
        x = (np.arange(20) < 12).astype(int).reshape(-1, 1)
        data = Dataset(x)
        memberships = np.tile([0, 1], 10)

        state = make_state([[1, 2]], [[0.4, 0.6]], memberships)
        gibbs_seen = []
        lanes = one_lane(state, data, prior, rng)
        for _ in range(25_000):
            gibbs_update_base_class_v0(0, lanes)
            gibbs_seen.append(state.base.column(0).tolist())

        state = make_state([[1, 2]], [[0.4, 0.6]], memberships, v=1e-6)
        rj_seen = []
        lanes = one_lane(state, data, prior, rng)
        for _ in range(25_000):
            rj_update_base_class(0, lanes)
            gibbs_update_theta(0, state, data, prior, rng, lanes.counts(0))
            rj_seen.append(state.base.column(0).tolist())

        gibbs_freq = partition_distribution(gibbs_seen, 2)
        rj_freq = partition_distribution(rj_seen, 2)
        for col in gibbs_freq:
            assert rj_freq.get(col, 0.0) == pytest.approx(gibbs_freq[col], abs=0.03)

    def test_theta_prior_moments_at_fixed_v(self):
        # conditional on a two-set column, sorted theta' must match the
        # order statistic expectations of the gap representation
        rng = np.random.default_rng(19)
        prior = PriorConfig.default(3, lam=0.5, v_mode="free")
        data = Dataset(np.empty((0, 1), dtype=int))
        state = make_state([[1, 2, 3]], [[0.2, 0.5, 0.8]], [], v=1.0)
        two_set_draws = []
        lanes = one_lane(state, data, prior, rng)
        for _ in range(30_000):
            rj_update_base_class(0, lanes)
            gibbs_update_theta(0, state, data, prior, rng, lanes.counts(0))
            if state.base.n_base(0) == 2:
                two_set_draws.append(np.sort(state.theta_prime[0, :2]))
        two_set_draws = np.asarray(two_set_draws)
        assert two_set_draws.shape[0] > 5_000
        expected = [expected_rho(2, 1.0, k) for k in (1, 2)]
        assert np.allclose(two_set_draws.mean(axis=0), expected, atol=0.01)


class TestReversibleJumpRatio:
    def test_density_ratio_equals_term_by_term_ratio(self):
        # the partition priors, likelihoods, conjugate beta proposals of
        # every set and column weights cancel, leaving each row's repelled
        # beta density ratio
        rng = np.random.default_rng(41)
        for trial in range(300):
            n_classes = int(rng.integers(2, 9))
            n_items = int(rng.integers(1, 6))
            n = int(rng.integers(0, 61))
            x = rng.integers(0, 2, size=(n, n_items))
            succ, totals = kernels.class_counts(x, rng.integers(0, n_classes, size=n), n_classes)
            succ = succ.T
            if trial % 2:
                prior = PriorConfig.default(n_classes, lam=rng.uniform(0.2, 1.0))
            else:
                prior = PriorConfig(alpha_c=np.ones(n_classes),
                                    zeta=rng.dirichlet(np.ones(n_classes)))
            v = rng.uniform(0.05, 2.0)
            col_old = np.array([random_canonical_column(rng, n_classes) for _ in range(n_items)])
            theta_old = pad_theta_prime(col_old, [rng.uniform(0.01, 0.99, size=c.max())
                                                  for c in col_old])
            targets = rng.integers(n_classes, size=n_items)
            labels, log_w = column_menu(col_old, targets, succ, totals, prior)
            picks = rng.integers(np.isfinite(log_w).sum(axis=1))
            col_new = mcmc._relabel(col_old, targets, labels[np.arange(n_items), picks])
            theta_new = mcmc._conjugate_theta(col_new, succ, totals, [rng])
            short = log_density_all_ones(theta_new, v) - log_density_all_ones(theta_old, v)
            for i in range(n_items):
                old, new = theta_old[i, :col_old[i].max()], theta_new[i, :col_new[i].max()]
                full = rj_log_acceptance_terms(col_old[i], old, col_new[i], new,
                                               succ[i], totals, prior, v)
                assert short[i] == pytest.approx(full, rel=1e-10, abs=1e-10)
                assert np.isnan(theta_new[i, col_new[i].max():]).all()

    def test_at_v_zero_equals_the_collapsed_move(self):
        # at v = 0 the density ratio is identically 1, so the reversible
        # jump move accepts every row without a uniform: it is the collapsed
        # Gibbs move, and both are the bare proposal, draw for draw
        rng = np.random.default_rng(12)
        n_classes, n_items = 5, 12
        prior = PriorConfig.default(n_classes, lam=0.5)
        data = Dataset(rng.integers(0, 2, size=(80, n_items)))
        columns = [random_canonical_column(rng, n_classes) for _ in range(n_items)]
        memberships = rng.integers(0, n_classes, size=data.n)
        succ, totals = kernels.class_counts(data.x, memberships, n_classes)
        items = np.arange(n_items)
        states = [make_state(columns, [np.full(c.max(), 0.5) for c in columns], memberships)
                  for _ in range(3)]
        rngs = [np.random.default_rng(99) for _ in range(3)]
        gibbs, rj = (mcmc.Lanes([state], [prior], [gen], [(succ, totals)])
                     for state, gen in zip(states[:2], rngs))
        rows = np.broadcast_to(totals, succ.T.shape)
        staircase = np.broadcast_to(mcmc._log_prior_by_n_sets(prior), succ.T.shape)
        for _ in range(20):
            gibbs_update_base_class_v0(items, gibbs)
            _, n_accepted = rj_update_base_class(items, rj)
            assert n_accepted == n_items
            proposed = mcmc._propose_columns(states[2].base.labels.T, succ.T, rows, staircase,
                                             [rngs[2]])
            states[2].base.labels[:] = proposed.T
            states[2].theta_prime = mcmc._conjugate_theta(proposed, succ.T, totals, [rngs[2]])
        for state, gen in zip(states[1:], rngs[1:]):
            assert np.array_equal(state.base.labels, states[0].base.labels)
            assert np.array_equal(state.theta_prime, states[0].theta_prime, equal_nan=True)
            assert gen.bit_generator.state == rngs[0].bit_generator.state

    def test_zeta_without_mass_on_the_start_leaves_it(self):
        # the all-distinct start has zero prior mass here; the chain must
        # leave it and never come back
        rng = np.random.default_rng(8)
        data = Dataset(rng.integers(0, 2, size=(60, 4)))
        prior = PriorConfig(alpha_c=np.ones(4), zeta=np.array([0.4, 0.3, 0.3, 0.0]))
        draws = run_chain(data, prior, McmcConfig(n_main=20, n_warmup=20, seed=1))
        assert np.all(np.isfinite(draws.log_joint))
        assert draws.base_columns.max() < 4
        assert draws.stats["rj_accept_rate"] > 0


class TestMetropolisV:
    def test_long_run_matches_quadrature_normalized_conditional(self):
        rng = np.random.default_rng(9)
        prior = PriorConfig.default(2, lam=0.5, v_mode="free")
        state = make_state([[1, 2]], [[0.25, 0.75]], [], v=1.0)
        draws = []
        for _ in range(40_000):
            metropolis_update_v(state, prior, rng)
            draws.append(state.v)
        draws = np.asarray(draws)

        def target(v):
            return (v + 2) * (v + 1) * v * np.exp((1.0 - (-np.log(0.5))) * v)

        norm, _ = integrate.quad(target, 0, 2)
        edges = np.quantile(draws, np.linspace(0, 1, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            mass, _ = integrate.quad(target, lo, hi)
            assert mass / norm == pytest.approx(0.1, abs=0.02)

    def test_v_stays_inside_support(self):
        rng = np.random.default_rng(2)
        prior = PriorConfig.default(2, lam=0.5, v_mode="free")
        state = make_state([[1, 2]], [[0.4, 0.6]], [], v=1.0)
        for _ in range(500):
            metropolis_update_v(state, prior, rng)
            assert 0.0 < state.v < prior.max_v

    def test_v_update_terminates_on_tied_theta(self):
        # where two sets coincide the conditional is -inf at every v, so the
        # level is -inf and the first evaluated point is in the slice
        rng = np.random.default_rng(4)
        prior = PriorConfig.default(2, lam=0.5, v_mode="free")
        state = make_state([[1, 2]], [[0.5, 0.5]], [], v=1.0)
        for _ in range(100):
            _, n_evals = metropolis_update_v(state, prior, rng)
            assert n_evals >= 2
            assert 0.0 < state.v < prior.max_v

        class FixedFirstPoint:
            # a stream whose first unit draw and Exp(1) draw are given; the
            # first point is lo + (hi - lo) * unit on the interval (0, max_v)
            def __init__(self, first, exponential):
                self.first, self.exponential = first, exponential

            def standard_exponential(self, size):
                return np.full(size, self.exponential)

            def random(self, size):
                u = rng.random(size) if self.first is None else np.full(size, self.first)
                self.first = None
                return u

        # the interval's lower end, exactly 0, is rejected unevaluated, so
        # there is no log(0) warning (an error in this suite)
        metropolis_update_v(state, prior, FixedFirstPoint(0.0, 1.0))
        assert 0.0 < state.v < prior.max_v
        # at a zero Exp(1) draw the current v is still inside the slice
        # (max_v is 2, so v / max_v * max_v is exactly v)
        v = state.v
        _, n_evals = metropolis_update_v(state, prior, FixedFirstPoint(v / prior.max_v, 0.0))
        assert (state.v, n_evals) == (v, 2)

    def test_v_conditional_matches_joint(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            state, data, prior = random_state(rng, int(rng.integers(1, 9)),
                                              int(rng.integers(1, 6)), int(rng.integers(0, 30)))
            logpost = mcmc._v_log_conditional(state, prior)
            v1, v2 = rng.uniform(0.0, prior.max_v, size=2)
            joints = []
            for v in (v1, v2):
                state.v = v
                joints.append(full_log_joint(state, data, prior))
            assert logpost(v1) - logpost(v2) == pytest.approx(joints[0] - joints[1],
                                                              rel=1e-10, abs=1e-10)
        # on a block with two coinciding sets both give -inf, with no gap floor
        prior = PriorConfig.default(3, lam=0.5, v_mode="free")
        data = Dataset(np.array([[0, 1], [1, 1]]))
        state = make_state([[1, 2, 3], [1, 2, 3]], [[0.2, 0.5, 0.5], [0.1, 0.4, 0.8]], [0, 2],
                           v=1.0)
        assert mcmc._v_log_conditional(state, prior)(state.v) == -np.inf
        assert full_log_joint(state, data, prior) == -np.inf


class TestSetCounts:
    def test_set_counts_match_the_per_column_bincount(self):
        from helpers import _set_counts

        rng = np.random.default_rng(14)
        for n_classes in range(1, 9):
            columns = np.array([random_canonical_column(rng, n_classes) for _ in range(30)])
            totals = rng.integers(0, 50, size=n_classes).astype(np.float64)
            succ = np.floor(rng.random((30, n_classes)) * (totals + 1))
            s, f = mcmc._set_counts(columns, succ, totals)
            for col, succ_j, s_j, f_j in zip(columns, succ, s, f):
                ref_s, ref_f = _set_counts(col, succ_j, totals)
                n_sets = col.max()
                assert np.array_equal(s_j[:n_sets], ref_s) and np.array_equal(f_j[:n_sets], ref_f)
                assert not s_j[n_sets:].any() and not f_j[n_sets:].any()


class TestThetaGibbs:
    def test_prior_draw_is_uniform_at_v_zero(self):
        rng = np.random.default_rng(21)
        prior = PriorConfig.default(2, lam=1.0, v_mode="fixed_zero")
        data = Dataset(np.empty((0, 1), dtype=int))
        state = make_state([[1, 2]], [[0.4, 0.6]], [])
        draws = []
        counts = kernels.class_counts(data.x, state.memberships, state.base.n_classes)
        for _ in range(20_000):
            gibbs_update_theta(0, state, data, prior, rng, counts)
            draws.append(state.theta_prime[0].copy())
        draws = np.asarray(draws)
        assert stats.kstest(draws[:, 0], stats.uniform.cdf).pvalue > 0.01

    def test_conjugate_counts(self):
        # three successes and one failure in one set: Beta(4, 2)
        rng = np.random.default_rng(22)
        prior = PriorConfig.default(2, lam=1.0, v_mode="fixed_zero")
        data = Dataset(np.array([[1], [1], [1], [0]]))
        state = make_state([[1, 1]], [[0.5]], [0, 1, 0, 1])
        draws = []
        counts = kernels.class_counts(data.x, state.memberships, state.base.n_classes)
        for _ in range(30_000):
            gibbs_update_theta(0, state, data, prior, rng, counts)
            draws.append(state.theta_prime[0][0])
        assert stats.kstest(np.asarray(draws), stats.beta(4, 2).cdf).pvalue > 0.01

    @pytest.mark.parametrize("v", [0.5, 2.0])
    @pytest.mark.parametrize("with_data", [False, True])
    @pytest.mark.parametrize("n_sets", [2, 3])
    def test_one_batched_step_keeps_the_exact_conditional(self, n_sets, with_data, v):
        # one slice step from exact repelled beta draws must leave every
        # order statistic distributed as fresh exact draws
        rng = np.random.default_rng(100 * n_sets + 10 * with_data + int(v))
        n_items = 20_000
        succ = np.array([1.0, 3.0, 5.0][:n_sets]) if with_data else np.zeros(n_sets)
        totals = np.full(n_sets, 6.0 if with_data else 0.0)
        alpha = np.column_stack([1.0 + succ, 1.0 + totals - succ])

        def exact():
            return np.array([repelled_beta.sample(alpha, rng, v=v) for _ in range(n_items)])

        state = make_state(np.tile(np.arange(1, n_sets + 1), (n_items, 1)), exact(), [], v=v)
        counts = (np.tile(succ[:, None], (1, n_items)), totals)
        _, n_evals, fell_back = gibbs_update_theta(np.arange(n_items), state, None, None, rng,
                                                   counts=counts)
        assert n_evals >= 2 * n_items and not fell_back
        moved, fresh = np.sort(state.theta_prime, axis=1), np.sort(exact(), axis=1)
        for k in range(n_sets):
            assert stats.ks_2samp(moved[:, k], fresh[:, k]).pvalue > 0.01
            se = np.hypot(moved[:, k].std(), fresh[:, k].std()) / np.sqrt(n_items)
            assert abs(moved[:, k].mean() - fresh[:, k].mean()) < 4 * se

    def test_points_on_interval_ends_are_not_evaluated(self):
        # a first point exactly at 0 and a second exactly at 1 are rejected
        # unevaluated, so there is no log(0) warning (an error in this suite)
        rng = np.random.default_rng(26)

        class EndsFirst:
            def __init__(self):
                self.ends = ["lo", "hi"]

            def standard_exponential(self, size):
                return rng.standard_exponential(size)

            def random(self, size):
                # a unit draw of 0 puts a point on the box's lower face, 1 on its upper
                if self.ends:
                    return np.full(size, 0.0 if self.ends.pop(0) == "lo" else 1.0)
                return rng.random(size)

        data = Dataset(np.array([[1, 0], [0, 1], [1, 1]]))
        prior = PriorConfig.default(3, lam=1.0, v_mode="free")
        state = make_state([[1, 2, 3], [1, 2, 2]], [[0.2, 0.5, 0.8], [0.3, 0.6]], [0, 1, 2],
                           v=1.0)
        gibbs_update_theta(np.arange(2), state, data, prior, EndsFirst(),
                           kernels.class_counts(data.x, state.memberships, 3))
        used = ~np.isnan(state.theta_prime)
        assert np.array_equal(used, [[True] * 3, [True, True, False]])
        assert np.all((state.theta_prime[used] > 0) & (state.theta_prime[used] < 1))

    def test_padding_draws_no_uniform(self):
        # NaN columns are padding: a padded block lands on the points of the
        # bare one-coordinate block and leaves the stream where it does
        x0 = np.random.default_rng(27).uniform(0.05, 0.95, size=(50, 1))
        padded = np.hstack([x0, np.full((50, 2), np.nan)])

        def logf(x, rows):  # the Beta(2, 5) kernel of the real coordinate
            return np.log(x[:, 0]) + 4.0 * np.log1p(-x[:, 0])

        rngs = np.random.default_rng(28), np.random.default_rng(28)
        bare, n_bare = mcmc._shrinkage_slice(logf, x0, 0.0, 1.0, rngs[0])
        out, n_out = mcmc._shrinkage_slice(logf, padded, 0.0, 1.0, rngs[1])
        assert not np.array_equal(bare, x0)
        assert np.array_equal(out[:, :1], bare) and n_out == n_bare
        assert np.isnan(out[:, 1:]).all()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_success_orientation(self):
        # successes must land in the first shape slot: posterior mean above 1/2
        rng = np.random.default_rng(23)
        prior = PriorConfig.default(1, lam=1.0, v_mode="fixed_zero")
        data = Dataset(np.array([[1]] * 9 + [[0]]))
        state = make_state([[1]], [[0.5]], [0] * 10)
        draws = []
        counts = kernels.class_counts(data.x, state.memberships, state.base.n_classes)
        for _ in range(5_000):
            gibbs_update_theta(0, state, data, prior, rng, counts)
            draws.append(state.theta_prime[0][0])
        assert np.mean(draws) == pytest.approx(10 / 12, abs=0.02)


class TestPiAndMemberships:
    def test_pi_conjugacy(self):
        rng = np.random.default_rng(31)
        prior = PriorConfig.default(2, lam=1.0)
        state = make_state([[1, 2]], [[0.4, 0.6]], [0, 0, 0, 1], v=1.0)
        totals = np.bincount(state.memberships, minlength=2)
        draws = np.array([gibbs_update_pi(state, prior, rng, totals).pi.copy()
                          for _ in range(20_000)])
        assert draws[:, 0].mean() == pytest.approx(2 / 3, abs=0.01)

    def test_pi_prior_draw_without_data(self):
        rng = np.random.default_rng(32)
        prior = PriorConfig.default(3, lam=1.0)
        state = make_state([[1, 2, 3]], [[0.2, 0.5, 0.8]], [], v=1.0)
        totals = np.bincount(state.memberships, minlength=3)
        draws = np.array([gibbs_update_pi(state, prior, rng, totals).pi.copy()
                          for _ in range(20_000)])
        assert np.allclose(draws.mean(axis=0), 1 / 3, atol=0.01)

    def test_membership_uniform_when_classes_identical(self):
        rng = np.random.default_rng(33)
        state = make_state([[1, 1]], [[0.7]], [0], pi=np.array([0.5, 0.5]))
        data = Dataset(np.array([[1]]))
        picks = [gibbs_update_c(0, state, data, rng).memberships[0] for _ in range(10_000)]
        assert np.mean(picks) == pytest.approx(0.5, abs=0.02)

    def test_membership_hand_bayes(self):
        rng = np.random.default_rng(34)
        state = make_state([[1, 2]], [[0.8, 0.2]], [0], pi=np.array([0.5, 0.5]))
        data = Dataset(np.array([[1]]))
        picks = [gibbs_update_c(0, state, data, rng).memberships[0] for _ in range(20_000)]
        assert 1.0 - np.mean(picks) == pytest.approx(0.8, abs=0.01)

    def test_membership_degenerate_prior(self):
        rng = np.random.default_rng(35)
        state = make_state([[1, 2]], [[0.8, 0.2]], [1],
                           pi=np.array([1.0 - 1e-12, 1e-12]))
        data = Dataset(np.array([[0]]))
        for _ in range(50):
            assert gibbs_update_c(0, state, data, rng).memberships[0] == 0


class TestRunChain:
    def small_inputs(self, v_mode="free", n=12, seed=99):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.integers(0, 2, size=(n, 2)))
        prior = PriorConfig.default(2, lam=0.5, v_mode=v_mode)
        return data, prior

    def test_retained_shapes_and_thinning(self):
        data, prior = self.small_inputs()
        draws = run_chain(data, prior, McmcConfig(n_main=10, n_warmup=3, thin=2, seed=1))
        assert draws.n_draws == 5
        assert draws.pi.shape == (5, 2)
        assert draws.base_columns.shape == draws.theta_prime.shape == (5, 2, 2)
        assert len(draws.base_columns[0]) == 2
        # one theta' per set of each item, NaN past its set count
        past = np.arange(2) >= draws.base_columns.max(axis=2)[..., None]
        assert np.array_equal(np.isnan(draws.theta_prime), past)

    def test_v_evals_per_update_stat(self):
        data, prior = self.small_inputs()
        draws = run_chain(data, prior, McmcConfig(n_main=10, n_warmup=3, seed=1))
        assert draws.stats["v_evals_per_update"] >= 1
        data, prior = self.small_inputs("fixed_zero")
        draws = run_chain(data, prior, McmcConfig(n_main=10, n_warmup=3, seed=1))
        assert draws.stats["v_evals_per_update"] is None

    def test_theta_evals_per_update_stat(self):
        data, prior = self.small_inputs()
        draws = run_chain(data, prior, McmcConfig(n_main=10, n_warmup=3, seed=1))
        assert draws.stats["theta_evals_per_update"] >= 1
        data, prior = self.small_inputs("fixed_zero")
        draws = run_chain(data, prior, McmcConfig(n_main=10, n_warmup=3, seed=1))
        assert draws.stats["theta_evals_per_update"] is None

    def test_rj_accept_rate_counts_items_per_sweep(self):
        # a one-set proposal has density ratio 1, so every move is accepted;
        # a rate over sweeps instead of item moves would read 3
        rng = np.random.default_rng(5)
        data = Dataset(rng.integers(0, 2, size=(30, 3)))
        prior = PriorConfig.default(1, lam=0.5, v_mode="free")
        draws = run_chain(data, prior, McmcConfig(n_main=10, n_warmup=3, seed=1))
        assert draws.stats["rj_accept_rate"] == 1.0
        prior = PriorConfig.default(4, lam=0.5, v_mode="free")
        draws = run_chain(data, prior, McmcConfig(n_main=10, n_warmup=3, seed=1))
        assert 0.0 < draws.stats["rj_accept_rate"] <= 1.0

    @pytest.mark.parametrize("v_mode", ["free", "fixed_zero"])
    def test_column_change_rate_counts_changed_columns(self, v_mode):
        # every retained draw follows one sweep, so the changed columns
        # between consecutive draws, from the all-distinct start, are the
        # base move's changes
        data, _ = self.small_inputs(n=30)
        prior = PriorConfig.default(3, lam=0.5, v_mode=v_mode)
        draws = run_chain(data, prior, McmcConfig(n_main=40, seed=3))
        start = np.tile(np.arange(1, 4), (1, data.n_items, 1))
        columns = np.concatenate([start, draws.base_columns])
        changed = (columns[1:] != columns[:-1]).any(axis=2)
        assert 0 < changed.sum() < changed.size
        assert draws.stats["column_change_rate"] == changed.sum() / changed.size
        draws = run_chain(data, prior, McmcConfig(n_main=5, seed=3, unrestricted=True))
        assert draws.stats["column_change_rate"] is None

    def test_same_seed_same_draws(self):
        data, prior = self.small_inputs()
        config = McmcConfig(n_main=20, n_warmup=5, seed=7)
        a = run_chain(data, prior, config)
        b = run_chain(data, prior, config)
        assert np.array_equal(a.log_joint, b.log_joint)
        assert np.array_equal(a.v, b.v)

    def test_chain_index_changes_stream(self):
        data, prior = self.small_inputs()
        config = McmcConfig(n_main=20, seed=7)
        a = run_chain(data, prior, config, chain_index=0)
        b = run_chain(data, prior, config, chain_index=1)
        assert not np.array_equal(a.log_joint, b.log_joint)

    @pytest.mark.parametrize("v_mode", ["free", "fixed_zero"])
    def test_no_stream_shared_across_seeds(self, v_mode):
        # seeding chain k with seed XOR k made chain 1 of seed 7 chain 0 of seed 6
        data, prior = self.small_inputs(v_mode)
        a = run_chain(data, prior, McmcConfig(n_main=20, seed=7), chain_index=1)
        b = run_chain(data, prior, McmcConfig(n_main=20, seed=6), chain_index=0)
        assert not np.array_equal(a.log_joint, b.log_joint)
        assert not np.array_equal(a.pi, b.pi)

    def test_stored_columns_canonical_and_log_joint_consistent(self):
        data, prior = self.small_inputs()
        draws = run_chain(data, prior, McmcConfig(n_main=30, n_warmup=10, seed=3,
                                                  store_c_every=1))
        from esrlcm.model import canonicalize

        for d in range(0, draws.n_draws, 7):
            for col in draws.base_columns[d]:
                assert np.array_equal(col, canonicalize(col))
        # recompute the joint from the stored state at stored-membership iterations
        for it, c in draws.memberships.items():
            d = int(np.flatnonzero(draws.iters == it)[0])
            state = ModelState(
                pi=draws.pi[d],
                memberships=c,
                base=BaseClassMatrix(draws.base_columns[d].T),
                theta_prime=draws.theta_prime[d],
                v=draws.v[d],
            )
            assert full_log_joint(state, data, prior) == pytest.approx(draws.log_joint[d])
            assert np.array_equal(draws.theta_matrices()[d], state.theta_matrix())

    @pytest.mark.parametrize("v_mode", ["free", "fixed_zero"])
    def test_retained_log_joint_equals_a_fresh_joint_exactly(self, v_mode):
        # the chain reuses the sweep's class counts; a recount must agree bit for bit
        data, prior = self.small_inputs(v_mode, n=40)
        draws = run_chain(data, prior, McmcConfig(n_main=20, n_warmup=5, seed=11,
                                                  store_c_every=1))
        assert len(draws.memberships) == draws.n_draws
        for it, c in draws.memberships.items():
            d = int(np.flatnonzero(draws.iters == it)[0])
            state = ModelState(pi=draws.pi[d], memberships=c,
                               base=BaseClassMatrix(draws.base_columns[d].T),
                               theta_prime=draws.theta_prime[d], v=draws.v[d])
            assert full_log_joint(state, data, prior) == draws.log_joint[d]

    COUNT_CASES = [("fixed_zero", False, 60), ("free", False, 60), ("fixed_zero", True, 60),
                   ("free", True, 60), ("fixed_zero", False, 0)]

    @pytest.mark.parametrize("v_mode, unrestricted, n", COUNT_CASES)
    def test_carried_counts_equal_a_full_recount_every_sweep(self, monkeypatch, v_mode,
                                                             unrestricted, n):
        rng = np.random.default_rng(12)
        data = Dataset(rng.integers(0, 2, size=(n, 4)))
        prior = PriorConfig.default(3, lam=0.5, v_mode=v_mode)
        carry, draw_pi, sweeps, pi_totals = mcmc._class_count_cache, mcmc.gibbs_update_pi, [], []

        def checked(data, old, new, counts):
            # the counts carried in are those of ``old``, and those carried
            # out equal a recount of ``new``, bit for bit
            recount = kernels.class_counts(data.x, old, 3)
            assert [a.tobytes() for a in counts] == [a.tobytes() for a in recount]
            out = carry(data, old, new, counts)
            recount = kernels.class_counts(data.x, new, 3)
            assert [a.tobytes() for a in out] == [a.tobytes() for a in recount]
            sweeps.append(np.count_nonzero(old != new))
            return out

        def pi_checked(state, prior, rng, totals):
            # pi is drawn from the counts of the current memberships
            recount = np.bincount(state.memberships, minlength=3).astype(np.float64)
            assert totals.tobytes() == recount.tobytes()
            pi_totals.append(totals)
            return draw_pi(state, prior, rng, totals)

        monkeypatch.setattr(mcmc, "_class_count_cache", checked)
        monkeypatch.setattr(mcmc, "gibbs_update_pi", pi_checked)
        run_chain(data, prior, McmcConfig(n_main=15, n_warmup=10, seed=2,
                                          unrestricted=unrestricted))
        assert len(sweeps) == len(pi_totals) == 25
        assert (sum(sweeps) > 0) == (n > 0)

    @pytest.mark.parametrize("v_mode, unrestricted, n", COUNT_CASES)
    def test_draws_equal_those_of_a_full_recount_each_sweep(self, monkeypatch, v_mode,
                                                            unrestricted, n):
        rng = np.random.default_rng(13)
        data = Dataset(rng.integers(0, 2, size=(n, 4)))
        prior = PriorConfig.default(3, lam=0.5, v_mode=v_mode)
        config = McmcConfig(n_main=15, n_warmup=10, seed=3, unrestricted=unrestricted,
                            store_c_every=1)
        carried = run_chain(data, prior, config)
        monkeypatch.setattr(mcmc, "_class_count_cache",
                            lambda data, old, new, counts: kernels.class_counts(data.x, new, 3))
        recounted = run_chain(data, prior, config)
        for name in ("iters", "log_joint", "v", "pi", "base_columns", "theta_prime"):
            assert getattr(carried, name).tobytes() == getattr(recounted, name).tobytes(), name
        assert all(carried.memberships[it].tobytes() == c.tobytes()
                   for it, c in recounted.memberships.items())

    def test_prior_recovery_through_full_chain(self):
        prior = PriorConfig.default(3, lam=0.5, v_mode="fixed_zero")
        data = Dataset(np.empty((0, 2), dtype=int))
        draws = run_chain(data, prior, McmcConfig(n_main=15_000, n_warmup=500, seed=5))
        target = exact_prior(prior, 3)
        for j in range(2):
            freq = partition_distribution(
                [draws.base_columns[d][j].tolist() for d in range(draws.n_draws)], 3
            )
            for col, p in target.items():
                assert freq.get(col, 0.0) == pytest.approx(p, abs=0.03)

    def test_unrestricted_flag_pins_columns(self):
        data, prior = self.small_inputs()
        draws = run_chain(data, prior, McmcConfig(n_main=10, seed=2, unrestricted=True))
        for d in range(draws.n_draws):
            for col in draws.base_columns[d]:
                assert col.tolist() == [1, 2]

    def test_fixed_zero_mode_keeps_v_zero(self):
        data, prior = self.small_inputs(v_mode="fixed_zero")
        draws = run_chain(data, prior, McmcConfig(n_main=10, seed=2))
        assert np.all(draws.v == 0.0)

    def test_jsonl_roundtrip(self, tmp_path):
        # a free-v C = 4 chain whose set counts vary: reading pads theta'
        # with NaN and writing slices it off, so the bytes come back unchanged
        rng = np.random.default_rng(4)
        data = Dataset(rng.integers(0, 2, size=(60, 5)))
        prior = PriorConfig.default(4, lam=0.5, v_mode="free")
        draws = run_chain(data, prior, McmcConfig(n_main=30, n_warmup=10, seed=4))
        n_sets = draws.base_columns.max(axis=2)
        assert n_sets.min() < n_sets.max()
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        draws.to_jsonl(first)
        again = PosteriorDraws.from_jsonl(first)
        again.to_jsonl(second)
        assert first.read_bytes() == second.read_bytes()
        assert "NaN" not in first.read_text()
        assert np.array_equal(again.iters, draws.iters)
        assert np.array_equal(again.log_joint, draws.log_joint)
        assert np.array_equal(again.v, draws.v)
        assert np.array_equal(again.pi, draws.pi)
        assert np.array_equal(again.base_columns, draws.base_columns)
        assert np.array_equal(again.theta_prime, draws.theta_prime, equal_nan=True)

    def test_run_chains_multiple(self):
        data, prior = self.small_inputs()
        config = McmcConfig(n_main=10, seed=3, n_chains=2)
        chains = mcmc.run_chains(data, prior, config, n_threads=1)
        assert len(chains) == 2
        assert not np.array_equal(chains[0].log_joint, chains[1].log_joint)
        pooled = mcmc.concat_draws(chains)
        assert pooled.n_draws == 20

    def test_one_chain_runs_through_the_run_chain_binding(self, monkeypatch):
        # perfbench/tracing.py times a fit's chain by wrapping this binding
        data, prior = self.small_inputs()
        calls, run_chain = [], mcmc.run_chain
        monkeypatch.setattr(mcmc, "run_chain", lambda *args: calls.append(1) or run_chain(*args))
        mcmc.run_chains(data, prior, McmcConfig(n_main=3, seed=3))
        assert calls == [1]


class TestLockstep:
    DRAW_FIELDS = ("iters", "log_joint", "v", "pi", "base_columns", "theta_prime")

    def lanes(self, v_mode):
        # different data sizes (one lane empty), different priors, chain
        # indices out of order
        rng = np.random.default_rng(21)
        priors = [PriorConfig.default(3, lam=0.5, v_mode=v_mode),
                  PriorConfig.default(3, lam=1.0, v_mode=v_mode),
                  PriorConfig(alpha_c=np.array([1.0, 2.0, 0.5]),
                              zeta=np.array([0.2, 0.3, 0.5]), v_mode=v_mode)]
        sizes, indices = (50, 0, 23), (3, 0, 1)
        return [(Dataset(rng.integers(0, 2, size=(n, 4))), prior, k)
                for n, prior, k in zip(sizes, priors, indices)]

    @pytest.mark.parametrize("v_mode", ["fixed_zero", "free"])
    @pytest.mark.parametrize("unrestricted", [False, True])
    def test_each_lane_equals_a_one_lane_run(self, v_mode, unrestricted):
        lanes = self.lanes(v_mode)
        config = McmcConfig(n_main=12, n_warmup=5, seed=9, thin=2, store_c_every=2,
                            unrestricted=unrestricted)
        together = mcmc.run_lockstep(lanes, config)
        assert len(together) == len(lanes)
        for draws, (data, prior, k) in zip(together, lanes):
            alone = run_chain(data, prior, config, chain_index=k)
            for name in self.DRAW_FIELDS:
                assert getattr(draws, name).tobytes() == getattr(alone, name).tobytes(), name
            assert draws.memberships.keys() == alone.memberships.keys()
            assert all(draws.memberships[it].tobytes() == c.tobytes()
                       for it, c in alone.memberships.items())
            assert draws.stats == alone.stats

    def test_lanes_must_share_their_shapes(self):
        data, prior, _ = self.lanes("free")[0]
        other = Dataset(np.zeros((5, 3), dtype=np.int64))
        config = McmcConfig(n_main=2)
        with pytest.raises(ValueError, match="lockstep"):
            mcmc.run_lockstep([(data, prior, 0), (other, prior, 1)], config)
        zero = PriorConfig.default(3, lam=0.5, v_mode="fixed_zero")
        with pytest.raises(ValueError, match="lockstep"):
            mcmc.run_lockstep([(data, prior, 0), (data, zero, 1)], config)

    def test_run_chains_in_one_worker_equals_chain_by_chain(self):
        data, prior, _ = self.lanes("free")[0]
        config = McmcConfig(n_main=8, n_warmup=3, seed=4, n_chains=3)
        for k, draws in enumerate(mcmc.run_chains(data, prior, config, n_threads=1)):
            alone = run_chain(data, prior, config, chain_index=k)
            assert draws.log_joint.tobytes() == alone.log_joint.tobytes()
            assert draws.stats == alone.stats


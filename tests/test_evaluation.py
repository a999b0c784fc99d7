import itertools

import numpy as np
import pytest

from esrlcm import evaluation as ev
from esrlcm.mcmc import McmcConfig, PosteriorDraws, run_chain
from esrlcm.model import Dataset, PriorConfig, canonicalize, pad_theta_prime

from helpers import oracle_mode_restrictions, predictive_loglik_per_draw


def draws_from_states(states):
    """Assemble a PosteriorDraws container from (pi, columns, theta', v, lj)."""
    return PosteriorDraws(
        iters=np.arange(len(states)),
        log_joint=np.array([s[4] for s in states], dtype=float),
        v=np.array([s[3] for s in states], dtype=float),
        pi=np.array([s[0] for s in states], dtype=float),
        base_columns=np.array([s[1] for s in states]),
        theta_prime=np.array([pad_theta_prime(s[1], s[2]) for s in states]),
    )


def random_draws(rng, n_draws, n_sets, n_classes=5):
    """Random draws with item j's columns split into ``n_sets[j]`` sets."""
    states = []
    for _ in range(n_draws):
        cols = [canonicalize(np.append(np.arange(1, k + 1), rng.integers(1, k + 1, n_classes - k)))
                for k in n_sets]
        theta = [rng.uniform(0.05, 0.95, k) for k in n_sets]
        states.append((rng.dirichlet(np.ones(n_classes)), cols, theta, 0.0, float(rng.normal())))
    return draws_from_states(states)


class TestPredictiveLoglik:
    def test_single_draw_single_cell(self):
        draws = draws_from_states([(np.array([1.0]), [[1]], [[0.7]], 0.0, 0.0)])
        holdout = Dataset(np.array([[1]]))
        assert ev.predictive_loglik(draws, holdout) == pytest.approx(np.log(0.7))

    def test_duplicate_draws_are_idempotent(self):
        state = (np.array([0.4, 0.6]), [[1, 2], [1, 1]], [[0.3, 0.8], [0.5]], 0.0, 0.0)
        one = draws_from_states([state])
        two = draws_from_states([state, state])
        holdout = Dataset(np.array([[1, 0], [0, 1], [1, 1]]))
        for mode in ("predictive_mean", "plug_in"):
            assert ev.predictive_loglik(two, holdout, mode) == pytest.approx(
                ev.predictive_loglik(one, holdout, mode)
            )
        # with identical draws the two scoring modes coincide exactly
        assert ev.predictive_loglik(two, holdout, "plug_in") == pytest.approx(
            ev.predictive_loglik(two, holdout, "predictive_mean")
        )

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        states = []
        for d in range(3):
            pi = rng.dirichlet([1, 1])
            cols = [np.array([1, 2]), np.array([1, 1])]
            theta = [np.sort(rng.uniform(0.1, 0.9, 2)), rng.uniform(0.1, 0.9, 1)]
            states.append((pi, cols, theta, 0.0, float(rng.normal())))
        draws = draws_from_states(states)
        holdout = Dataset(np.array([[1, 0], [0, 1]]))

        dens = np.zeros((2, 3))
        for i, d in itertools.product(range(2), range(3)):
            pi, cols, theta, _, _ = states[d]
            total = 0.0
            for c in range(2):
                p = 1.0
                for j in range(2):
                    t = theta[j][cols[j][c] - 1]
                    p *= t if holdout.x[i, j] == 1 else 1 - t
                total += pi[c] * p
            dens[i, d] = total
        expected = np.mean(np.log(dens.mean(axis=1)))
        assert ev.predictive_loglik(draws, holdout) == pytest.approx(expected)

    def test_empty_draws_rejected(self):
        draws = draws_from_states([])
        with pytest.raises(ValueError):
            ev.predictive_loglik(draws, Dataset(np.array([[1]])))

    @pytest.mark.parametrize("mode", ["predictive_mean", "plug_in"])
    def test_empty_holdout_rejected(self, mode):
        draws = random_draws(np.random.default_rng(5), 3, [1, 2, 3])
        with np.errstate(all="raise"), pytest.raises(ValueError, match="no observations"):
            ev.predictive_loglik(draws, Dataset(np.empty((0, 3))), mode)

    @pytest.mark.parametrize("block_elements", [ev.BLOCK_ELEMENTS, 7 * 5 * 4, 1])
    def test_matches_per_draw_oracle_across_blocks(self, monkeypatch, block_elements):
        # 7 draws x 5 classes = 35 class columns: 140 outputs make blocks of
        # 4 rows, which 37 rows do not fill evenly; 1 gives one row per block
        rng = np.random.default_rng(6)
        draws = random_draws(rng, 7, [1, 5, 2, 3, 1, 4])
        holdout = Dataset(rng.integers(0, 2, size=(37, 6)))
        monkeypatch.setattr(ev, "BLOCK_ELEMENTS", block_elements)
        assert ev.predictive_loglik(draws, holdout) == pytest.approx(
            predictive_loglik_per_draw(draws, holdout), rel=1e-12)

    def test_plug_in_equals_predictive_mean_on_one_draw(self):
        rng = np.random.default_rng(7)
        draws = random_draws(rng, 1, [2, 5, 1, 3])
        holdout = Dataset(rng.integers(0, 2, size=(23, 4)))
        assert ev.predictive_loglik(draws, holdout, "plug_in") == pytest.approx(
            ev.predictive_loglik(draws, holdout, "predictive_mean"), rel=1e-12)


class TestAlignClasses:
    def test_identity(self):
        theta = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert ev.align_classes(theta, theta).tolist() == [0, 1]

    def test_row_swap_recovers_inverse(self):
        theta = np.array([[0.1, 0.9], [0.8, 0.2], [0.5, 0.5]])
        swapped = theta[[2, 0, 1]]
        perm = ev.align_classes(theta, swapped)
        assert np.allclose(swapped[perm], theta)

    def test_noisy_permutation_recovery(self):
        rng = np.random.default_rng(1)
        theta = rng.uniform(0.1, 0.9, size=(4, 6))
        applied = rng.permutation(4)
        target = theta[applied] + rng.normal(0, 0.01, size=theta.shape)
        perm = ev.align_classes(theta, target)
        assert np.allclose(target[perm], theta, atol=0.05)


class TestModeRestrictions:
    def constant_theta_states(self, columns_per_draw):
        # identical theta matrices so alignment is the identity
        states = []
        for cols in columns_per_draw:
            theta = [np.array([0.2, 0.8])[: max(c)] for c in cols]
            states.append((np.array([0.5, 0.5]), cols, theta, 0.0, 0.0))
        return draws_from_states(states)

    def test_unanimous(self):
        draws = self.constant_theta_states([[[1, 2]]] * 4)
        assert ev.mode_restrictions(draws)[0].tolist() == [1, 2]

    def test_majority(self):
        cols = [[[1, 1]]] * 6 + [[[1, 2]]] * 4
        draws = self.constant_theta_states(cols)
        assert ev.mode_restrictions(draws)[0].tolist() == [1, 1]

    def test_tie_breaks_to_fewer_sets(self):
        cols = [[[1, 1]]] * 5 + [[[1, 2]]] * 5
        draws = self.constant_theta_states(cols)
        assert ev.mode_restrictions(draws)[0].tolist() == [1, 1]

    @pytest.mark.parametrize("n_classes", [2, 3, 4, 8, 16])
    def test_matches_the_per_item_unique_oracle(self, n_classes):
        rng = np.random.default_rng(n_classes)
        for trial in range(20):
            n_draws, n_items = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            # few distinct labels per item, so columns repeat and counts tie
            raw = rng.integers(0, rng.integers(1, 4, size=n_items)[:, None],
                               size=(n_draws, n_items, n_classes))
            if trial % 2:
                # two columns per item, each drawn equally often: every mode is a tie
                pair = canonicalize(rng.integers(0, 3, size=(2, n_items, n_classes)))
                raw = np.tile(pair, (int(rng.integers(1, 6)), 1, 1))
            columns = canonicalize(raw)
            draws = PosteriorDraws(
                iters=np.arange(len(columns)), log_joint=np.zeros(len(columns)),
                v=np.zeros(len(columns)), pi=np.full((len(columns), n_classes), 1 / n_classes),
                base_columns=columns, theta_prime=np.zeros(columns.shape))
            perms = [rng.permutation(n_classes) for _ in range(len(columns))]
            want = oracle_mode_restrictions(columns, perms)
            assert np.array_equal(ev.mode_restrictions(draws, perms), want)

    def test_output_canonical(self):
        draws = self.constant_theta_states([[[1, 2]], [[1, 2]]])
        mode = ev.mode_restrictions(draws)
        from esrlcm.model import canonicalize

        assert np.array_equal(mode[0], canonicalize(mode[0]))


class TestRestrictionMetrics:
    def test_perfect_recovery(self):
        truth = np.array([[1, 2, 2], [1, 1, 2]])
        sens, spec = ev.restriction_sensitivity_specificity(truth, truth)
        assert sens == 1.0 and spec == 1.0

    def test_single_item_hand_count(self):
        truth = np.array([[1, 1, 2]])
        estimate = np.array([[1, 2, 2]])
        sens, spec = ev.restriction_sensitivity_specificity(truth, estimate)
        assert sens == 0.0 and spec == 0.5

    def test_fully_unrestricted_estimate(self):
        truth = np.array([[1, 1, 2], [1, 2, 2]])
        estimate = np.tile(np.array([1, 2, 3]), (2, 1))
        sens, spec = ev.restriction_sensitivity_specificity(truth, estimate)
        assert sens == 0.0 and spec == 1.0

    def test_simultaneous_permutation_invariance(self):
        rng = np.random.default_rng(2)
        from esrlcm.model import canonicalize

        for _ in range(20):
            truth = canonicalize(rng.integers(1, 4, size=(4, 3)).T)
            estimate = canonicalize(rng.integers(1, 4, size=(4, 3)).T)
            base_metrics = ev.restriction_sensitivity_specificity(truth, estimate)
            perm = rng.permutation(4)
            truth_p = canonicalize(truth[:, perm])
            estimate_p = canonicalize(estimate[:, perm])
            assert ev.restriction_sensitivity_specificity(truth_p, estimate_p) == base_metrics

    def test_no_restricted_pairs_reports_none(self):
        truth = np.array([[1, 2]])
        estimate = np.array([[1, 1]])
        sens, spec = ev.restriction_sensitivity_specificity(truth, estimate)
        assert sens is None and spec == 0.0

    def test_alignment_applied_to_estimate(self):
        truth = np.array([[1, 1, 2]])
        estimate = np.array([[1, 2, 2]])
        # permuting classes 0 and 2 of the estimate makes it match the truth
        sens, spec = ev.restriction_sensitivity_specificity(
            truth, estimate, alignment=np.array([2, 1, 0])
        )
        assert (sens, spec) == (1.0, 1.0)


class TestKfoldCv:
    def test_fold_assignment_deterministic_and_stable(self):
        a = ev.fold_assignments(7, 100, 5)
        b = ev.fold_assignments(7, 100, 5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, ev.fold_assignments(8, 100, 5))
        assert a.min() >= 0 and a.max() < 5

    def test_each_fold_gets_its_own_chain_index(self, monkeypatch):
        # seeding fold k with seed + k made fold 1 of seed 6 fold 0 of seed 7;
        # the whole grid runs as one lockstep group, each prior's folds as
        # chain indices 0..k-1 of the run's seed
        calls = []

        def fake_run_lockstep(lanes, config):
            calls.append((config.seed, [index for _, _, index in lanes]))
            return [None] * len(lanes)

        monkeypatch.setattr(ev, "run_lockstep", fake_run_lockstep)
        monkeypatch.setattr(ev, "predictive_loglik", lambda draws, test: 0.0)
        data = Dataset(np.zeros((40, 2), dtype=np.int64))
        grid = [PriorConfig.default(1, lam=lam, v_mode="fixed_zero") for lam in (1.0, 0.5)]
        ev.kfold_cv(data, grid, McmcConfig(n_main=5, seed=6), k=4)
        assert calls == [(6, [0, 1, 2, 3, 0, 1, 2, 3])]

    @pytest.mark.parametrize("v_mode", ["fixed_zero", "free"])
    def test_rows_equal_a_per_fold_run_chain_reference(self, v_mode):
        rng = np.random.default_rng(8)
        data = Dataset(rng.integers(0, 2, size=(90, 4)))
        grid = [PriorConfig.default(3, lam=0.5, v_mode=v_mode),
                PriorConfig(alpha_c=np.ones(3), zeta=np.array([0.2, 0.3, 0.5]), v_mode=v_mode)]
        config = McmcConfig(n_main=6, n_warmup=4, seed=12)
        rows = ev.kfold_cv(data, grid, config, k=3, seed=2)
        folds = ev.fold_assignments(2, data.n, 3)
        for (prior, value), expected_prior in zip(rows, grid):
            assert prior is expected_prior
            total = 0.0
            for fold in range(3):
                train = Dataset(data.x[folds != fold])
                test = Dataset(data.x[folds == fold])
                draws = run_chain(train, prior, config, chain_index=fold)
                total += ev.predictive_loglik(draws, test) * test.n
            assert value == total / data.n

    def test_rejects_small_problems(self):
        data = Dataset(np.array([[1], [0]]))
        prior = PriorConfig.default(1, lam=1.0, v_mode="fixed_zero")
        with pytest.raises(ValueError):
            ev.kfold_cv(data, [prior], McmcConfig(n_main=5), k=3)

    def test_duplicated_halves_agree(self):
        rng = np.random.default_rng(3)
        half = rng.integers(0, 2, size=(60, 2))
        data = Dataset(np.vstack([half, half]))
        prior = PriorConfig.default(2, lam=1.0, v_mode="fixed_zero")
        config = McmcConfig(n_main=200, n_warmup=100, seed=1)
        rows = ev.kfold_cv(data, [prior], config, k=2, seed=5)
        assert len(rows) == 1
        assert np.isfinite(rows[0][1])

    def test_toy_model_matches_analytic_expectation(self):
        # two-class, two-item truth: the CV score must approach the exact
        # expected log likelihood computed by enumerating the four patterns
        rng = np.random.default_rng(4)
        pi = np.array([0.5, 0.5])
        theta = np.array([[0.9, 0.8], [0.2, 0.3]])
        n = 800
        c = rng.integers(0, 2, size=n)
        x = (rng.random((n, 2)) < theta[c]).astype(int)
        data = Dataset(x)

        exact = 0.0
        for pattern in itertools.product((0, 1), repeat=2):
            px = sum(
                pi[k] * np.prod([theta[k, j] if pattern[j] else 1 - theta[k, j]
                                 for j in range(2)])
                for k in range(2)
            )
            exact += px * np.log(px)

        prior = PriorConfig.default(2, lam=1.0, v_mode="fixed_zero")
        config = McmcConfig(n_main=400, n_warmup=200, seed=2)
        rows = ev.kfold_cv(data, [prior], config, k=4, seed=11)
        assert rows[0][1] == pytest.approx(exact, abs=0.08)

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esrlcm import kernels
from esrlcm import model as em
from esrlcm.model import (
    Dataset,
    ModelState,
    PriorConfig,
    base_vector_log_prior,
    bell,
    canonicalize,
    full_log_joint,
    log_joints,
    stirling2,
)

from helpers import all_partition_columns, iter_set_partitions, oracle_full_log_joint, random_state, theta_from_base


class TestCanonicalize:
    @pytest.mark.parametrize(
        "raw, expected",
        [([1, 2, 1], [1, 2, 1]), ([3, 3, 1, 2], [1, 1, 2, 3]), ([2, 1, 2], [1, 2, 1])],
    )
    def test_examples(self, raw, expected):
        assert canonicalize(raw).tolist() == expected

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8))
    def test_idempotent(self, raw):
        once = canonicalize(raw)
        assert np.array_equal(canonicalize(once), once)

    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=7),
        st.randoms(use_true_random=False),
    )
    def test_partition_invariant_under_relabeling(self, raw, rnd):
        labels = sorted(set(raw))
        shuffled = labels[:]
        rnd.shuffle(shuffled)
        relabel = dict(zip(labels, shuffled))
        assert np.array_equal(canonicalize(raw), canonicalize([relabel[x] for x in raw]))

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4),
           st.integers(min_value=1, max_value=3), st.randoms(use_true_random=False))
    def test_block_equals_row_by_row(self, n_classes, n_rows, depth, rnd):
        block = np.array([[rnd.randint(-2, 9) for _ in range(n_classes)]
                          for _ in range(n_rows * depth)]).reshape(depth, n_rows, n_classes)
        got = canonicalize(block)
        assert got.shape == block.shape and got.dtype == np.int64
        for idx in np.ndindex(depth, n_rows):
            ranks = {}  # first-occurrence ranking, one label at a time
            expected = [ranks.setdefault(label, len(ranks) + 1) for label in block[idx].tolist()]
            assert got[idx].tolist() == canonicalize(block[idx]).tolist() == expected

    def test_empty_column_rejected(self):
        for raw in ([], np.empty((3, 0))):
            with pytest.raises(ValueError, match="nonempty"):
                canonicalize(raw)


class TestCounting:
    def test_stirling_brute_force(self):
        for n in range(1, 9):
            by_blocks = {}
            for part in iter_set_partitions(range(n)):
                by_blocks[len(part)] = by_blocks.get(len(part), 0) + 1
            for k in range(1, n + 1):
                assert stirling2(n, k) == by_blocks.get(k, 0)

    def test_stirling_recurrence(self):
        for n in range(2, 17):
            for k in range(2, n):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    def test_stirling_single_block(self):
        for n in range(1, 10):
            assert stirling2(n, 1) == 1

    def test_stirling_examples(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25

    def test_stirling_domain(self):
        with pytest.raises(ValueError):
            stirling2(4, 0)
        with pytest.raises(ValueError):
            stirling2(4, 5)

    def test_bell_values(self):
        assert bell(1) == 1
        assert bell(4) == 15
        assert bell(8) == 4140

    def test_bell_binomial_recurrence(self):
        for n in range(1, 12):
            assert bell(n + 1) == sum(math.comb(n, k) * (bell(k) if k else 1) for k in range(n + 1))

    def test_exact_at_large_counts(self):
        # values beyond 64-bit range must stay exact
        assert stirling2(32, 16) == sum(
            (-1) ** i * math.comb(16, i) * (16 - i) ** 32 for i in range(17)
        ) // math.factorial(16)


class TestBasePrior:
    def test_uniform_when_lambda_one(self):
        prior = PriorConfig.default(3, lam=1.0)
        for col in all_partition_columns(3):
            assert base_vector_log_prior(col, prior) == pytest.approx(np.log(1 / 5))

    def test_lambda_half(self):
        prior = PriorConfig.default(3, lam=0.5)
        got = base_vector_log_prior(np.array([1, 1, 2]), prior)
        assert got == pytest.approx(np.log(0.25 / 1.375))

    def test_zeta_form(self):
        prior = PriorConfig(alpha_c=np.ones(3), zeta=np.ones(3) / 3)
        got = base_vector_log_prior(np.array([1, 1, 2]), prior)
        assert got == pytest.approx(np.log(1 / 9))

    @pytest.mark.parametrize("n_classes", range(2, 7))
    def test_normalizes_over_all_partitions(self, n_classes):
        for prior in (
            PriorConfig.default(n_classes, lam=0.6),
            PriorConfig(alpha_c=np.ones(n_classes), zeta=np.full(n_classes, 1 / n_classes)),
        ):
            total = sum(
                np.exp(base_vector_log_prior(col, prior))
                for col in all_partition_columns(n_classes)
            )
            assert total == pytest.approx(1.0)


class TestThetaFromBase:
    def test_examples(self):
        assert theta_from_base([0.9], np.array([1, 1, 1])).tolist() == [0.9, 0.9, 0.9]
        assert theta_from_base([0.2, 0.8], np.array([1, 2, 1])).tolist() == [0.2, 0.8, 0.2]
        assert theta_from_base([0.1, 0.5, 0.9], np.array([1, 2, 3])).tolist() == [0.1, 0.5, 0.9]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            theta_from_base([0.2], np.array([1, 2, 1]))


class TestCsvReader:
    """``Dataset.from_csv``: ``to_csv``'s byte layout is read from the raw
    bytes, any other file by ``np.loadtxt``."""

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
        return calls

    @staticmethod
    def loadtxt_reference(path):
        return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (200, 5), (20000, 32)])
    def test_byte_path_equals_loadtxt(self, tmp_path, shape, loadtxt_calls):
        path = tmp_path / "d.csv"
        Dataset(np.random.default_rng(sum(shape)).integers(0, 2, size=shape)).to_csv(path)
        got = Dataset.from_csv(path)
        assert loadtxt_calls == []
        assert got.x.dtype == np.float64 and got.x.flags.f_contiguous
        assert np.array_equal(got.x, Dataset(self.loadtxt_reference(path)).x)

    @pytest.mark.parametrize("text", [
        "item1,item2\r\n0,1\r\n1,1\r\n",  # CRLF line ends
        "item1,item2\n0,1\n1,1",  # no final newline
        "item1,item2\n0, 1\n1, 1\n",  # space after the comma
        "item1,item2\n 0,1\n 1,1\n",  # space before the digit
        "item1,item2\n00,1\n1,01\n",  # multi-character fields
        "item1\n0\n1\n\n\n",  # blank lines, which a one-item layout could absorb
    ])
    def test_other_layouts_fall_back_to_loadtxt(self, tmp_path, text, loadtxt_calls):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        got = Dataset.from_csv(path)
        assert loadtxt_calls == [1]
        assert np.array_equal(got.x, Dataset(self.loadtxt_reference(path)).x)
        assert got.n == 2

    @pytest.mark.parametrize("digit", ["2", "a"])
    def test_bad_digit_rejected(self, tmp_path, digit, loadtxt_calls):
        path = tmp_path / "d.csv"
        path.write_bytes(f"item1,item2\n0,1\n1,{digit}\n".encode())
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset.from_csv(path)
        assert loadtxt_calls == []

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "d.csv"
        Dataset(np.empty((0, 3))).to_csv(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Dataset.from_csv(path)
        assert got.x.shape == (0, 3)


class TestTypes:
    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_dataset_rejects_nonbinary(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset(np.array([[0, 1], [1, bad]]))

    def test_dataset_csv_roundtrip(self, tmp_path):
        data = Dataset(np.array([[0, 1, 1], [1, 0, 0]]))
        path = tmp_path / "d.csv"
        data.to_csv(path)
        assert path.read_text().splitlines()[0] == "item1,item2,item3"
        again = Dataset.from_csv(path)
        assert np.array_equal(again.x, data.x)

    def test_dataset_x_is_float64_f_contiguous(self):
        # item-major, so the likelihood product reads x.T as a C-contiguous block
        data = Dataset(np.array([[0, 1], [1, 0], [1, 0]], dtype=np.int8))
        assert data.x.dtype == np.float64 and data.x.flags["F_CONTIGUOUS"]
        assert data.x.T.flags["C_CONTIGUOUS"]
        assert data.x.tolist() == [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]

    def test_dataset_csv_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        Dataset(rng.integers(0, 2, size=(50, 4))).to_csv(first)
        Dataset.from_csv(first).to_csv(second)
        assert first.read_bytes() == second.read_bytes()
        rows = first.read_text().splitlines()[1:]
        assert set(",".join(rows).split(",")) == {"0", "1"}

    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 1), (200, 5)])
    def test_dataset_csv_bytes_match_savetxt(self, tmp_path, shape):
        data = Dataset(np.random.default_rng(sum(shape)).integers(0, 2, size=shape))
        data.to_csv(tmp_path / "fast.csv")
        header = ",".join(f"item{j + 1}" for j in range(shape[1]))
        np.savetxt(tmp_path / "ref.csv", data.x, fmt="%d", delimiter=",", header=header,
                   comments="")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_empty_dataset_allowed(self):
        assert Dataset(np.empty((0, 3))).n == 0

    def test_prior_requires_exactly_one_parameterization(self):
        with pytest.raises(ValueError):
            PriorConfig(alpha_c=np.ones(2))
        with pytest.raises(ValueError):
            PriorConfig(alpha_c=np.ones(2), lam=0.5, zeta=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("columns, message", [
        ([[2, 1]], "base column [2, 1] is not canonical"),
        ([[1, 2], [1, 3]], "base column [1, 3] is not canonical"),
        ([1, 2], "nonempty items x classes block, got shape (2,)"),
        ([[[1, 2]]], "nonempty items x classes block, got shape (1, 1, 2)"),
        (np.empty((0, 2)), "nonempty items x classes block, got shape (0, 2)"),
        ([[1, 2, 3]], "pi length must equal the number of classes"),
    ])
    def test_model_state_requires_canonical_columns(self, columns, message):
        with pytest.raises(ValueError) as err:
            ModelState(pi=np.array([0.5, 0.5]), memberships=np.array([0]),
                       columns=np.array(columns), theta_prime=np.array([[0.5, 0.6]]))
        assert message in str(err.value)

    @pytest.mark.parametrize("memberships", [[[1]], 1, [[0, 1], [1, 0]]])
    def test_model_state_requires_a_membership_vector(self, memberships):
        with pytest.raises(ValueError, match="memberships must be a vector of class indices"):
            ModelState(pi=np.array([0.5, 0.5]), memberships=memberships,
                       columns=np.array([[1, 2]]), theta_prime=np.array([[0.5, 0.6]]))

    def test_model_state_validates_theta_lengths(self):
        columns = np.array([[1, 2]])
        # theta' is a J x C block with one value per set and NaN past them:
        # reject a wrong shape, a NaN where the column has a set, and a value
        # past the column's set count
        for theta_prime in ([[0.5]], [[0.5, np.nan]]):
            with pytest.raises(ValueError):
                ModelState(
                    pi=np.array([0.5, 0.5]),
                    memberships=np.array([0]),
                    columns=columns,
                    theta_prime=np.array(theta_prime),
                    v=0.0,
                )
        with pytest.raises(ValueError, match="NaN past them"):
            ModelState(pi=np.array([0.5, 0.5]), memberships=np.array([0]),
                       columns=np.array([[1, 1]]),
                       theta_prime=np.array([[0.5, 0.6]]))

    @pytest.mark.parametrize("pi, theta_prime, message", [
        ([5.0, 5.0], [[0.5, 0.6]], "pi must be a strictly positive probability vector"),
        ([np.nan, 1.0], [[0.5, 0.6]], "pi must be a strictly positive probability vector"),
        ([1.0, 0.0], [[0.5, 0.6]], "pi must be a strictly positive probability vector"),
        ([0.5, 0.5], [[0.5, 1.5]], "theta_prime of item 0 holds 1.5, outside (0, 1)"),
        ([0.5, 0.5], [[0.0, 0.6]], "theta_prime of item 0 holds 0.0, outside (0, 1)"),
    ])
    def test_model_state_rejects_values_outside_their_range(self, pi, theta_prime, message):
        with pytest.raises(ValueError) as err:
            ModelState(pi=np.array(pi), memberships=np.array([0]), columns=np.array([[1, 2]]),
                       theta_prime=np.array(theta_prime))
        assert message in str(err.value)


class TestFullLogJoint:
    def test_degenerate_single_cell_model(self):
        state = ModelState(
            pi=np.array([1.0]),
            memberships=np.array([0]),
            columns=np.array([[1]]),
            theta_prime=np.array([[0.7]]),
            v=0.0,
        )
        data = Dataset(np.array([[1]]))
        prior = PriorConfig.default(1, lam=1.0, v_mode="fixed_zero")
        assert full_log_joint(state, data, prior) == pytest.approx(np.log(0.7))

    def test_membership_change_is_additive(self):
        rng = np.random.default_rng(2)
        state, data, prior = random_state(rng, 3, 2, 5)
        base_value = full_log_joint(state, data, prior)
        theta = state.theta_matrix()
        old_c, new_c = state.memberships[0], (state.memberships[0] + 1) % 3

        def terms(c):
            x = data.x[0]
            lik = np.sum(x * np.log(theta[c]) + (1 - x) * np.log1p(-theta[c]))
            return np.log(state.pi[c]) + lik

        state.memberships[0] = new_c
        assert full_log_joint(state, data, prior) - base_value == pytest.approx(
            terms(new_c) - terms(old_c)
        )

    @pytest.mark.parametrize("v_mode", ["free", "fixed_zero"])
    def test_matches_independent_oracle(self, v_mode):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n_classes = int(rng.integers(2, 5))
            state, data, prior = random_state(
                rng, n_classes, int(rng.integers(1, 4)), int(rng.integers(0, 7)), v_mode
            )
            assert full_log_joint(state, data, prior) == pytest.approx(
                oracle_full_log_joint(state, data, prior), rel=1e-10
            )

    def test_finite_for_interior_states(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            state, data, prior = random_state(rng, 3, 3, 4)
            assert np.isfinite(full_log_joint(state, data, prior))

    @pytest.mark.parametrize("v_mode", ["free", "fixed_zero"])
    def test_given_counts_equal_recount(self, v_mode):
        rng = np.random.default_rng(29)
        for _ in range(20):
            state, data, prior = random_state(rng, 3, 4, int(rng.integers(0, 30)), v_mode)
            counts = kernels.class_counts(data.x, state.memberships, 3)
            assert full_log_joint(state, data, prior, counts=counts) == \
                full_log_joint(state, data, prior)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(4)
        state, data, prior = random_state(rng, 3, 2, 5)
        with pytest.raises(ValueError):
            full_log_joint(state, Dataset(np.zeros((5, 9))), prior)


class TestLogJoints:
    """The stacked pass gives every draw the bits of a one-draw call."""

    @staticmethod
    def stacked_and_single(states, data, prior):
        counts = [kernels.class_counts(data.x, state.memberships, prior.n_classes)
                  for state in states]
        stacked = log_joints(np.array([state.pi for state in states]),
                             np.array([state.columns for state in states]),
                             np.array([state.theta_prime for state in states]),
                             [state.v for state in states],
                             tuple(map(np.array, zip(*counts))), prior)
        return stacked, np.array([full_log_joint(state, data, prior) for state in states])

    @staticmethod
    def random_draws(rng, n_draws, v_mode, n_classes=4):
        """``n_draws`` random states that share one data set, and a prior."""
        n_items, n = int(rng.integers(1, 9)), int(rng.integers(0, 60))
        first, data, prior = random_state(rng, n_classes, n_items, n, v_mode)
        states = [first] + [random_state(rng, n_classes, n_items, n, v_mode)[0]
                            for _ in range(n_draws - 1)]
        return states, data, prior

    @pytest.mark.parametrize("v_mode", ["fixed_zero", "free"])
    def test_bit_equal_to_one_draw_calls(self, v_mode):
        rng = np.random.default_rng(31)
        for n_classes in (1, 2, 4, 9, 16):
            states, data, prior = self.random_draws(rng, 7, v_mode, n_classes)
            stacked, single = self.stacked_and_single(states, data, prior)
            assert np.isfinite(single).all()
            assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("v_mode", ["fixed_zero", "free"])
    def test_tied_theta(self, v_mode):
        # two coinciding sets give -inf at v > 0; at v = 0 the gap term is 0
        rng = np.random.default_rng(37)
        states, data, prior = self.random_draws(rng, 4, v_mode)
        for state in states[1:3]:
            state.columns[0] = np.arange(1, 5)
            state.theta_prime[0] = 0.5
        stacked, single = self.stacked_and_single(states, data, prior)
        assert np.array_equal(stacked, single)
        assert np.isfinite(single).tolist() == [True, v_mode != "free", v_mode != "free", True]

    def test_zeta_with_zero_mass_set_counts(self):
        rng = np.random.default_rng(41)
        states, data, _ = self.random_draws(rng, 6, "fixed_zero")
        prior = PriorConfig(alpha_c=np.ones(4), zeta=np.array([0.5, 0.0, 0.5, 0.0]),
                            v_mode="fixed_zero")
        for state, n_sets in zip(states, (1, 2, 3, 4, 1, 3)):
            state.columns[:] = np.minimum(np.arange(1, 5), n_sets)
            state.theta_prime[:] = np.where(np.arange(4) < n_sets, 0.3, np.nan)
            state.theta_prime[:, :n_sets] += np.arange(n_sets) / 10
        stacked, single = self.stacked_and_single(states, data, prior)
        assert np.array_equal(stacked, single)
        assert np.isfinite(single).tolist() == [True, False, True, False, True, True]

    def test_v_outside_its_support(self):
        rng = np.random.default_rng(43)
        states, data, prior = self.random_draws(rng, 5, "free")
        for state, v in zip(states, (0.0, 0.5, prior.max_v, 3 * prior.max_v, 1e-9)):
            state.v = v
        states[0].columns[0] = np.arange(1, 5)  # tied theta' at v = 0 too
        states[0].theta_prime[0] = 0.5
        stacked, single = self.stacked_and_single(states, data, prior)
        assert np.array_equal(stacked, single)
        assert np.isfinite(single).tolist() == [False, True, False, False, True]

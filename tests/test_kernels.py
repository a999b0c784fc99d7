import numpy as np
import pytest

from esrlcm import kernels


def random_inputs(seed, n=200, n_classes=5, n_items=7):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n, n_items)).astype(np.int8)
    theta = rng.uniform(0.05, 0.95, size=(n_classes, n_items))
    memberships = rng.integers(0, n_classes, size=n)
    logp = rng.normal(size=(n_classes, n))
    u = rng.random(n)
    return x, theta, memberships, logp, u


class TestBackendEquivalence:
    """Each kernel against an explicit per-row or per-class formula."""

    def test_class_loglik_matches_numpy_reference(self):
        x, theta, _, _, _ = random_inputs(0)
        got = kernels.class_loglik(x, np.log(theta), np.log1p(-theta))
        ref = np.array([
            [sum(np.log(t[j]) if row[j] == 1 else np.log(1.0 - t[j]) for j in range(row.size))
             for row in x]
            for t in theta
        ])
        assert np.allclose(got, ref, atol=1e-10)

    def test_class_loglik_on_float_x_matches_per_row_reference(self):
        x, theta, _, _, _ = random_inputs(4)
        x = x.astype(np.float64)
        got = kernels.class_loglik(x, np.log(theta), np.log1p(-theta))
        ref = np.array([
            [sum(np.log(t[j]) if row[j] == 1.0 else np.log(1.0 - t[j]) for j in range(row.size))
             for row in x]
            for t in theta
        ])
        assert np.allclose(got, ref, rtol=0.0, atol=1e-10)

    def test_class_loglik_bits_do_not_depend_on_parameter_layout(self):
        x, theta, _, _, _ = random_inputs(5, n=300, n_classes=9, n_items=37)
        x = x.astype(np.float64)
        f_theta = theta.T.copy().T  # a transposed view: same values, F order
        assert f_theta.flags.f_contiguous and not f_theta.flags.c_contiguous
        got = kernels.class_loglik(x, np.log(f_theta), np.log1p(-f_theta))
        ref = kernels.class_loglik(x, np.log(theta), np.log1p(-theta))
        assert np.array_equal(got, ref)

    def test_categorical_rows_bit_identical(self):
        for n_classes in range(1, 18):
            _, _, _, logp, u = random_inputs(n_classes, n_classes=n_classes)
            rng = np.random.default_rng(n_classes)
            # -inf entries, but never a whole column of them
            n = logp.shape[1]
            logp[rng.random(logp.shape) < 0.3] = -np.inf
            logp[rng.integers(0, n_classes, n), np.arange(n)] = 0.0
            u[:30] = np.repeat([0.0, 0.5, 1.0 - 2.0**-53], 10)
            got = kernels.categorical_rows(logp, u)
            ref = []
            for col, u_i in zip(logp.T, u):
                cum = np.cumsum(np.exp(col - col.max()))
                ref.append(next(c for c in range(col.size) if cum[c] >= u_i * cum[-1]))
            assert got.dtype == np.int64 and np.array_equal(got, ref), n_classes

    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_class_loglik_is_class_major_and_c_contiguous(self, n):
        x, theta, _, _, _ = random_inputs(7, n=n, n_classes=4, n_items=6)
        got = kernels.class_loglik(x.astype(np.float64), np.log(theta), np.log1p(-theta))
        assert got.shape == (4, n) and got.flags.c_contiguous

    def test_categorical_rows_leaves_a_strided_view_unchanged(self):
        _, _, _, logp, u = random_inputs(8, n=500, n_classes=6)
        view = np.asfortranarray(logp)[:, ::2]  # (K, n) view, neither C- nor F-contiguous
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        before = view.copy()
        got = kernels.categorical_rows(view, u[:view.shape[1]])
        assert np.array_equal(view, before)
        ref = kernels.categorical_rows(np.ascontiguousarray(view), u[:view.shape[1]])
        assert np.array_equal(got, ref)

    def test_class_counts_match(self):
        x, _, memberships, _, _ = random_inputs(2)
        succ, totals = kernels.class_counts(x, memberships, 5)
        for c in range(5):
            rows = [i for i in range(x.shape[0]) if memberships[i] == c]
            assert totals[c] == len(rows)
            assert succ[c].tolist() == [sum(int(x[i, j]) for i in rows) for j in range(x.shape[1])]

    @pytest.mark.parametrize("n, n_classes, moves", [
        (300, 5, "some"), (0, 3, "some"), (300, 4, "none"), (300, 4, "all"), (300, 1, "all"),
    ])
    def test_update_class_counts_equals_a_full_recount(self, n, n_classes, moves):
        rng = np.random.default_rng(n + n_classes)
        x = rng.integers(0, 2, size=(n, 7)).astype(np.float64)
        for _ in range(20):
            old = rng.integers(0, n_classes, size=n)
            if moves == "some":
                new = np.where(rng.random(n) < 0.1, rng.integers(0, n_classes, size=n), old)
            elif moves == "none":
                new = old.copy()
            else:  # every row that can change class does
                new = (old + rng.integers(1, max(n_classes, 2), size=n)) % n_classes
            got = kernels.update_class_counts(x, old, new, kernels.class_counts(x, old, n_classes))
            ref = kernels.class_counts(x, new, n_classes)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]

    def test_empty_inputs(self):
        x = np.empty((0, 3), dtype=np.int8)
        memberships = np.empty(0, dtype=np.int64)
        succ, totals = kernels.class_counts(x, memberships, 2)
        assert succ.shape == (2, 3) and totals.shape == (2,)
        loglik = kernels.class_loglik(x, np.zeros((2, 3)), np.zeros((2, 3)))
        assert loglik.shape == (2, 0)


class TestSemantics:
    def test_loglik_values(self):
        x = np.array([[1, 0]], dtype=np.int8)
        theta = np.array([[0.8, 0.3]])
        got = kernels.class_loglik(x, np.log(theta), np.log1p(-theta))
        assert got[0, 0] == pytest.approx(np.log(0.8) + np.log(0.7))

    def test_categorical_frequencies(self):
        rng = np.random.default_rng(3)
        logp = np.tile(np.log([0.2, 0.5, 0.3])[:, None], (1, 200_000))
        picks = kernels.categorical_rows(logp, rng.random(200_000))
        freq = np.bincount(picks, minlength=3) / picks.size
        assert np.allclose(freq, [0.2, 0.5, 0.3], atol=0.005)

    def test_counts_values(self):
        x = np.array([[1, 0], [1, 1], [0, 0]], dtype=np.int8)
        memberships = np.array([0, 1, 0])
        succ, totals = kernels.class_counts(x, memberships, 2)
        assert succ.tolist() == [[1, 0], [1, 1]]
        assert totals.tolist() == [2, 1]


class TestBackendSelection:
    def test_active_backend_reported(self):
        assert kernels.ACTIVE_BACKEND == "numpy"

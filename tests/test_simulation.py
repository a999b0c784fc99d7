import hashlib
import json
from importlib import resources

import numpy as np
import pytest

from esrlcm import simulation as sim

from helpers import theta_from_base

# transcription guard: the generation fixtures are pinned byte for byte
FIXTURE_SHA256 = {
    "sim_base_classes_c5.csv": "8d9b45ed6098f55e0e22cca6acdf0848ce37bac046248d047e9ff9793c901a28",
    "sim_base_classes_c16.csv": "6d9ae45ee8bce5fabd2b97f700e8e5c8da5e9434c1078231080e01f0722542b7",
}


class TestFixtureTables:
    def test_data_files_pinned(self):
        for name, expected in FIXTURE_SHA256.items():
            blob = resources.files("esrlcm.data").joinpath(name).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == expected

    def test_item3_c4(self):
        base = sim.fixture_base_matrix(4)
        assert base.column(2).tolist() == [1, 2, 2, 1]

    def test_item1_c5(self):
        base = sim.fixture_base_matrix(5)
        assert base.column(0).tolist() == [1, 2, 3, 3, 1]

    def test_item4_c8(self):
        base = sim.fixture_base_matrix(8)
        assert base.column(3).tolist() == [1, 2, 2, 1, 1, 1, 2, 2]

    def test_unsupported_class_counts(self):
        with pytest.raises(ValueError):
            sim.fixture_base_matrix(6)

    def test_shapes(self):
        for n_classes in sim.SUPPORTED_CLASS_COUNTS:
            base = sim.fixture_base_matrix(n_classes)
            assert (base.n_classes, base.n_items) == (n_classes, 32)

    def test_c4_set_counts(self):
        counts = sim.fixture_base_matrix(4).n_base_all()
        assert set(counts.tolist()) <= {2, 3, 4}
        assert counts.min() >= 2


class TestGenTheta:
    def test_single_set(self):
        assert sim._even_spacing(np.arange(1), 1).tolist() == [0.5]

    def test_two_sets(self):
        assert sim._even_spacing(np.arange(2), 2).tolist() == [0.25, 0.75]

    def test_four_sets(self):
        assert np.allclose(sim._even_spacing(np.arange(4), 4),
                           [0.125, 0.375, 0.625, 0.875])

    def test_increasing_and_symmetric_on_all_fixture_columns(self):
        for n_classes in sim.SUPPORTED_CLASS_COUNTS:
            base = sim.fixture_base_matrix(n_classes)
            theta_prime = sim._fixture_theta_prime(n_classes)
            for j in range(base.n_items):
                theta = np.sort(theta_prime[j, :base.n_base(j)])
                assert np.all(np.diff(theta) > 0)
                assert np.allclose(theta + theta[::-1], 1.0)


class TestTruthTheta:
    def test_theta_attaches_to_printed_labels(self):
        # item 2 of the five-class table reads 2,3,1,0,3: printed label 0
        # gets the smallest probability regardless of canonical order
        theta_prime = sim._fixture_theta_prime(5)
        base = sim.fixture_base_matrix(5)
        col = base.column(1)
        theta = theta_from_base(theta_prime[1, :col.max()], col)
        assert theta[3] == pytest.approx(1 / 8)   # class 4 printed 0
        assert theta[1] == pytest.approx(7 / 8)   # class 2 printed 3
        assert theta[4] == theta[1]               # classes 2 and 5 share a set

    def test_truth_values_match_even_spacing(self):
        data, truth = sim.simulate(4, 5, seed=0)
        assert truth.theta_matrix()[0, 2] == pytest.approx(0.25)
        # every item's B sets take (2b - 1) / (2B), b = 1..B, at every class count
        for n_classes in sim.SUPPORTED_CLASS_COUNTS:
            base = sim.fixture_base_matrix(n_classes)
            theta_prime = sim._fixture_theta_prime(n_classes)
            for j in range(base.n_items):
                n_sets = base.n_base(j)
                expected = (2.0 * np.arange(1, n_sets + 1) - 1.0) / (2.0 * n_sets)
                assert np.allclose(np.sort(theta_prime[j, :n_sets]), expected)
                assert np.isnan(theta_prime[j, n_sets:]).all()


class TestSimulate:
    def test_deterministic(self):
        a, _ = sim.simulate(4, 200, seed=42)
        b, _ = sim.simulate(4, 200, seed=42)
        assert np.array_equal(a.x, b.x)
        c, _ = sim.simulate(4, 200, seed=43)
        assert not np.array_equal(a.x, c.x)

    def test_column_means_match_truth_marginals(self):
        data, truth = sim.simulate(4, 100_000, seed=1)
        expected = truth.theta_matrix().mean(axis=0)
        assert np.allclose(data.x.mean(axis=0), expected, atol=0.01)

    def test_class_frequencies_uniform(self):
        n = 50_000
        _, truth = sim.simulate(5, n, seed=3)
        freq = np.bincount(truth.memberships, minlength=5) / n
        sigma = np.sqrt(0.2 * 0.8 / n)
        assert np.all(np.abs(freq - 0.2) < 3 * sigma)

    def test_holdout_same_truth_different_stream(self):
        data, truth = sim.simulate(4, 500, seed=9)
        holdout = sim.simulate_holdout(truth, 500)
        assert holdout.n == 500
        assert not np.array_equal(holdout.x, data.x)
        again = sim.simulate_holdout(truth, 500)
        assert np.array_equal(holdout.x, again.x)

    def test_truth_json_roundtrip(self, tmp_path):
        _, truth = sim.simulate(4, 50, seed=5)
        path = tmp_path / "truth.json"
        truth.to_json(path)
        again = sim.SimulationTruth.from_json(path)
        assert np.array_equal(again.base.labels, truth.base.labels)
        assert np.array_equal(again.memberships, truth.memberships)
        assert np.array_equal(again.theta_prime, truth.theta_prime, equal_nan=True)
        rec = json.loads(path.read_text())
        rec["theta_prime"][0].append(0.5)
        path.write_text(json.dumps(rec))
        with pytest.raises(ValueError):
            sim.SimulationTruth.from_json(path)

    def test_truth_json_bytes_pinned(self, tmp_path):
        # the writer's bytes for a fixed seed, recorded before the writer
        # moved from json.dump to one json.dumps call
        _, truth = sim.simulate(4, 200, seed=7)
        path = tmp_path / "truth.json"
        truth.to_json(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "dd5cda5a2e52bf97222c4551557393db5b8f510a45016224c917b046136f7f9d")


import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esrlcm import cli, evaluation, mcmc
from esrlcm.mcmc import PosteriorDraws, run_chain
from esrlcm.model import Dataset, PriorConfig


def write_config(path, data_path, out_dir, **overrides):
    config = {
        "model": "esrlcm",
        "classes": 2,
        "prior": {"lambda": 1.0, "v_mode": "fixed_zero"},
        "mcmc": {"n_warmup": 50, "n_main": 50, "seed": 7},
        "paths": {"data": str(data_path), "out": str(out_dir)},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path.write_text(json.dumps(config))
    return path


def edit_record(d, change):
    """A corruption of a list of JSON lines: ``change`` applied to record ``d``."""
    def corrupt(lines):
        rec = json.loads(lines[d])
        change(rec)
        lines[d] = json.dumps(rec)
    return corrupt


@pytest.fixture
def toy_run(tmp_path):
    rng = np.random.default_rng(0)
    data = Dataset(rng.integers(0, 2, size=(40, 3)))
    data_path = tmp_path / "data.csv"
    data.to_csv(data_path)
    config_path = write_config(tmp_path / "run.json", data_path, tmp_path / "out")
    return tmp_path, config_path


class TestConfigDefaults:
    def test_prior_defaults(self, tmp_path):
        config = write_config(tmp_path / "c.json", tmp_path / "d.csv", tmp_path / "o")
        prior, mcmc_config, _ = cli.load_run_config(config)
        assert prior.d1 == 1.0 and prior.d2 == 1.0
        assert prior.max_v == 2.0
        assert np.array_equal(prior.alpha_c, np.ones(2))
        assert mcmc_config.thin == 1 and mcmc_config.n_chains == 1

    def test_prior_keys_left_out_take_the_prior_config_defaults(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"classes": 2, "prior": {"lambda": 0.5}}))
        prior = cli.load_run_config(config)[0]
        for field in dataclasses.fields(PriorConfig):
            if field.name in ("d1", "d2", "max_v", "v_mode"):
                assert getattr(prior, field.name) == field.default, field.name


class TestSimulateCommand:
    def test_writes_expected_shapes(self, tmp_path):
        out = tmp_path / "sim.csv"
        truth = tmp_path / "truth.json"
        code = cli.main([
            "simulate", "--classes", "4", "--n", "500", "--seed", "7",
            "--out", str(out), "--truth", str(truth),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == [f"item{j+1}" for j in range(32)]
        assert len(lines) == 501
        record = json.loads(truth.read_text())
        assert len(record["B"]) == 32 and len(record["B"][0]) == 4

    def test_holdout_output(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = cli.main([
            "simulate", "--classes", "4", "--n", "50", "--seed", "1",
            "--out", str(out), "--holdout", "25",
        ])
        assert code == 0
        holdout = tmp_path / "sim_holdout.csv"
        assert len(holdout.read_text().splitlines()) == 26

    def test_negative_holdout_rejected_before_writing(self, tmp_path, capsys):
        out, truth = tmp_path / "sim.csv", tmp_path / "truth.json"
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--classes", "4", "--n", "50", "--out", str(out),
                      "--truth", str(truth), "--holdout", "-3"])
        assert err.value.code == 2
        assert "--holdout" in capsys.readouterr().err
        assert not out.exists() and not truth.exists()

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_n_rejected_at_parse(self, tmp_path, capsys, n):
        out = tmp_path / "sim.csv"
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--classes", "4", "--n", n, "--out", str(out)])
        assert err.value.code == 2
        assert f"must be at least 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected_at_parse(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--classes", "4", "--n", "50", "--seed", "-1",
                      "--out", str(out)])
        assert err.value.code == 2
        assert "--seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestFitCommand:
    def test_smoke_files_and_summary(self, toy_run):
        tmp_path, config_path = toy_run
        assert cli.main(["fit", "--config", str(config_path)]) == 0
        out_dir = tmp_path / "out"
        draws_path = out_dir / "draws_chain0.jsonl"
        assert draws_path.exists()
        assert len(draws_path.read_text().splitlines()) == 50
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["pi_mean"]) == 2
        assert len(summary["theta_mean"]) == 2 and len(summary["theta_mean"][0]) == 3
        assert len(summary["mode_restrictions"]) == 3
        assert summary["v_mean"] == 0.0

    def test_refit_same_seed_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        data_path = tmp_path / "d.csv"
        Dataset(rng.integers(0, 2, size=(30, 2))).to_csv(data_path)
        blobs = []
        for name in ("a", "b"):
            config = write_config(tmp_path / f"{name}.json", data_path, tmp_path / name)
            assert cli.main(["fit", "--config", str(config)]) == 0
            blobs.append((tmp_path / name / "draws_chain0.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_draws_jsonl_bytes_pinned(self, tmp_path):
        # the draws writer's bytes for a fixed-seed free-v fit, recorded
        # before the record fields moved behind model.parameter_record
        sim_csv = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--classes", "4", "--n", "60", "--seed", "3",
                         "--out", str(sim_csv)]) == 0
        config = write_config(tmp_path / "run.json", sim_csv, tmp_path / "fit", classes=4,
                              prior={"lambda": 0.5, "v_mode": "free"},
                              mcmc={"n_warmup": 2, "n_main": 3})
        assert cli.main(["fit", "--config", str(config)]) == 0
        blob = (tmp_path / "fit" / "draws_chain0.jsonl").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "af30c1a3f1526774d034999ec1365a06b4c98c829bd27568ea51cb66c63c1aed")

    def test_lcm_zeta_prior_fit(self, toy_run):
        # the plain latent class model: zeta puts all its mass on C sets
        tmp_path, _ = toy_run
        config = write_config(tmp_path / "lcm.json", tmp_path / "data.csv", tmp_path / "out",
                              prior={"lambda": None, "zeta": [0, 1]})
        assert cli.main(["fit", "--config", str(config)]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        for column in summary["mode_restrictions"]:
            assert sorted(set(column)) == [1, 2]
        assert summary["chains"][0]["column_change_rate"] == 0.0

    def test_unrestricted_key_rejected(self, toy_run, capsys):
        # the LCM is a zeta prior; the switch it replaced is an unknown key
        tmp_path, _ = toy_run
        for flag in (True, False):
            config = write_config(tmp_path / "flag.json", tmp_path / "data.csv",
                                  tmp_path / "out", unrestricted=flag)
            assert cli.main(["fit", "--config", str(config)]) == 1
            assert capsys.readouterr().err == "error: unknown keys in config: ['unrestricted']\n"

    @pytest.mark.parametrize("command", ["fit", "cv"])
    @pytest.mark.parametrize("section, key", [(None, "classes"), ("paths", "data")])
    def test_missing_required_key_named(self, toy_run, capsys, command, section, key):
        tmp_path, config = toy_run
        raw = json.loads(config.read_text())
        del (raw[section] if section else raw)[key]
        config.write_text(json.dumps(raw))
        assert cli.main([command, "--config", str(config)]) == 1
        name = f"{section}.{key}" if section else key
        assert capsys.readouterr().err == f"error: {name} is required\n"

    @pytest.mark.parametrize("prior, message", [
        ({"lambda": 2}, "prior.lambda must be in (0, 1], got 2"),
        ({"lambda": 0.5, "v_mode": "sometimes"}, "prior.v_mode must be 'fixed_zero' or 'free'"),
        ({"lambda": 0.5, "d1": -1}, "prior.d1 must be positive, got -1"),
        ({"lambda": None}, "prior: exactly one of lambda and zeta must be given"),
    ])
    def test_prior_errors_named_by_their_config_key(self, toy_run, capsys, prior, message):
        tmp_path, _ = toy_run
        config = write_config(tmp_path / "prior.json", tmp_path / "data.csv", tmp_path / "out",
                              prior=prior)
        assert cli.main(["fit", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("mcmc, message", [
        ({"n_main": 0}, "mcmc.n_main must be >= 1"),
        ({"n_chains": 0}, "mcmc.n_chains must be >= 1"),
        ({"n_main": 5, "store_c_every": -2}, "mcmc.store_c_every must be >= 0"),
    ])
    def test_mcmc_errors_named_by_their_config_key(self, toy_run, capsys, mcmc, message):
        tmp_path, _ = toy_run
        config = write_config(tmp_path / "mcmc.json", tmp_path / "data.csv", tmp_path / "out",
                              mcmc=mcmc)
        assert cli.main(["fit", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_truth_path_rejected(self, toy_run, capsys):
        # no command reads a truth path from the config; metrics takes --truth
        tmp_path, _ = toy_run
        config = write_config(tmp_path / "truth.json", tmp_path / "data.csv", tmp_path / "out",
                              paths={"truth": str(tmp_path / "truth.json")})
        assert cli.main(["fit", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: unknown keys in paths: ['truth']\n"
        assert not (tmp_path / "out" / "draws_chain0.jsonl").exists()

    def test_unknown_config_keys_rejected(self, tmp_path, toy_run):
        _, config_path = toy_run
        raw = json.loads(config_path.read_text())
        raw["mcmc"]["walkers"] = 9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert cli.main(["fit", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("overrides, key", [
        ({"prior": {"v_mode": 1}}, "prior.v_mode"),
        ({"paths": {"out": 5}}, "paths.out"),
        ({"classes": 4.7}, "classes"),
        ({"classes": True}, "classes"),
        ({"classes": "2"}, "classes"),
        ({"mcmc": {"n_main": 2.9}}, "mcmc.n_main"),
        ({"mcmc": {"n_warmup": "5"}}, "mcmc.n_warmup"),
        ({"mcmc": {"n_chains": True}}, "mcmc.n_chains"),
        ({"mcmc": {"seed": 7.0}}, "mcmc.seed"),
        ({"mcmc": {"thin": None}}, "mcmc.thin"),
        ({"mcmc": {"store_c_every": [1]}}, "mcmc.store_c_every"),
        ({"prior": {"lambda": "0.5"}}, "prior.lambda"),
        ({"prior": {"lambda": True}}, "prior.lambda"),
        ({"prior": {"d1": None}}, "prior.d1"),
        ({"prior": {"max_v": [1]}}, "prior.max_v"),
        ({"prior": {"lambda": None, "zeta": ["0.5", "0.5"]}}, "prior.zeta"),
        ({"prior": {"alpha_c": 1.0}}, "prior.alpha_c"),
        ({"prior": []}, "prior"),
        ({"prior": "x"}, "prior"),
        ({"mcmc": []}, "mcmc"),
        ({"mcmc": "x"}, "mcmc"),
        ({"paths": []}, "paths"),
    ])
    def test_config_values_of_the_wrong_json_type_rejected(self, toy_run, capsys,
                                                           overrides, key):
        tmp_path, _ = toy_run
        config = write_config(tmp_path / "typed.json", tmp_path / "data.csv", tmp_path / "out",
                              **overrides)
        with pytest.raises(cli.ConfigError, match=key):
            cli.load_run_config(config)
        assert cli.main(["fit", "--config", str(config)]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out" / "draws_chain0.jsonl").exists()

    def test_missing_data_file_fails(self, tmp_path):
        config = write_config(tmp_path / "c.json", tmp_path / "nope.csv", tmp_path / "o")
        assert cli.main(["fit", "--config", str(config)]) == 1

    def test_thin_above_n_main_fails_before_sampling(self, toy_run, capsys):
        tmp_path, _ = toy_run
        config = write_config(tmp_path / "thin.json", tmp_path / "data.csv", tmp_path / "out",
                              mcmc={"n_main": 5, "thin": 10})
        assert cli.main(["fit", "--config", str(config)]) == 1
        assert "no draw would be retained" in capsys.readouterr().err
        assert not (tmp_path / "out" / "draws_chain0.jsonl").exists()

    # flags: other config keys; two chains run as one lockstep group
    @pytest.mark.parametrize("zeta, flags", [([0.0, 1.0, 0.0, 0.0], {}),
                                             ([1.0, 0.0, 0.0, 0.0], {"mcmc": {"n_chains": 2}})])
    def test_zeta_without_mass_near_the_start_fails_before_sampling(self, toy_run, capsys,
                                                                   zeta, flags):
        tmp_path, _ = toy_run
        config = write_config(tmp_path / "zeta.json", tmp_path / "data.csv", tmp_path / "out",
                              classes=4, prior={"lambda": None, "zeta": zeta}, **flags)
        assert cli.main(["fit", "--config", str(config)]) == 1
        assert "zeta" in capsys.readouterr().err
        assert not (tmp_path / "out" / "draws_chain0.jsonl").exists()

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_zeta_with_a_gap_fails_before_sampling(self, toy_run, capsys, monkeypatch,
                                                   command):
        # mass on 1 and on 3-4 sets but none on 2: a base move cannot cross
        tmp_path, _ = toy_run
        config = write_config(tmp_path / "zeta.json", tmp_path / "data.csv", tmp_path / "out",
                              classes=4, prior={"lambda": None, "zeta": [0.5, 0.0, 0.25, 0.25]})
        monkeypatch.setattr(cli.mcmc, "_initial_state", None)  # must not run
        args = ["--k", "2", "--out", str(tmp_path / "cv.json")] if command == "cv" else []
        assert cli.main([command, "--config", str(config), *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: zeta [0.5, 0.0, 0.25, 0.25]") and "unbroken run" in err
        assert not (tmp_path / "out" / "draws_chain0.jsonl").exists()
        assert not (tmp_path / "cv.json").exists()

    @pytest.mark.parametrize("v_mode", ["fixed_zero", "free"])
    def test_thread_count_does_not_change_outputs(self, toy_run, v_mode):
        # the chains run as one lockstep group in one process, and chain k
        # draws from its own stream, so its draw file is that of a one-chain
        # run with chain index k
        tmp_path, _ = toy_run
        out = tmp_path / "out"
        config = write_config(tmp_path / "three.json", tmp_path / "data.csv", out,
                              prior={"v_mode": v_mode},
                              mcmc={"n_chains": 3, "n_warmup": 10, "n_main": 10})
        assert cli.main(["fit", "--config", str(config)]) == 0
        prior, mcmc_config, _ = cli.load_run_config(config)
        data = Dataset.from_csv(tmp_path / "data.csv")
        for k in range(3):
            alone = tmp_path / f"alone{k}.jsonl"
            run_chain(data, prior, mcmc_config, chain_index=k).to_jsonl(alone)
            assert (out / f"draws_chain{k}.jsonl").read_bytes() == alone.read_bytes(), k


class TestCheckIdCommand:
    def test_q_matrix_block_diagonal_form(self, tmp_path):
        q = np.vstack([np.eye(2, dtype=int), np.eye(2, dtype=int), [[1, 1]]])
        q_path = tmp_path / "q.csv"
        np.savetxt(q_path, q, fmt="%d", delimiter=",")
        out = tmp_path / "report.json"
        code = cli.main(["check-id", "--matrix", str(q_path), "--q-matrix",
                         "--verify-trials", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "Identifiable"
        assert report["numeric_verify"] is True

    def test_base_matrix_input(self, tmp_path):
        base = np.array([[1, 1], [2, 2], [3, 3]])
        path = tmp_path / "b.csv"
        np.savetxt(path, base, fmt="%d", delimiter=",")
        out = tmp_path / "r.json"
        assert cli.main(["check-id", "--matrix", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["status"] == "Unknown"

    @pytest.mark.parametrize("text", ["", "\n\n", "# no rows\n"])
    def test_matrix_without_rows_rejected(self, tmp_path, capsys, text):
        # with only the error line: loadtxt would warn that the input has no data
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert cli.main(["check-id", "--matrix", str(path)]) == 1
        assert capsys.readouterr().err == f"error: matrix file {path} holds no rows\n"

    def test_exhaustive_budget_exceeded_fails(self, tmp_path, capsys):
        path = tmp_path / "b.csv"
        np.savetxt(path, np.array([[1, 1], [2, 2], [3, 3]]), fmt="%d", delimiter=",")
        out = tmp_path / "r.json"
        assert cli.main(["check-id", "--matrix", str(path), "--exhaustive", "--budget", "1",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exceeded its budget of 1 steps" in err
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_nonpositive_budget_rejected_at_parse(self, tmp_path, capsys, budget):
        path = tmp_path / "b.csv"
        np.savetxt(path, np.array([[1, 1], [2, 2], [3, 3]]), fmt="%d", delimiter=",")
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            cli.main(["check-id", "--matrix", str(path), "--exhaustive", "--budget", budget,
                      "--out", str(out)])
        assert err.value.code == 2
        assert f"must be at least 1, got {budget}" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_below_two_rejected(self, tmp_path, capsys):
        path = tmp_path / "b.csv"
        np.savetxt(path, np.array([[1, 1], [2, 2], [3, 3]]), fmt="%d", delimiter=",")
        assert cli.main(["check-id", "--matrix", str(path), "--levels", "1"]) == 1
        assert "at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--exhaustive"]])
    def test_one_class_matrix_rejected(self, tmp_path, capsys, mode):
        # one class has no pair to separate: no witness can certify it
        path, out = tmp_path / "c1.csv", tmp_path / "r.json"
        np.savetxt(path, np.array([[1, 1, 1]]), fmt="%d", delimiter=",")
        assert cli.main(["check-id", "--matrix", str(path), "--verify-trials", "2",
                         "--out", str(out), *mode]) == 1
        assert "at least 2 classes, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["check-id"])
        assert err.value.code == 2

    def test_negative_verify_trials_rejected_at_parse(self, tmp_path, capsys):
        # the worked example of test_identifiability: identifiable at 3 levels,
        # so a witness exists and a negative count would verify nothing
        path, out = tmp_path / "b.csv", tmp_path / "r.json"
        np.savetxt(path, np.array([[1, 1, 1, 1, 1, 1], [2, 2, 2, 2, 1, 2], [3, 3, 3, 1, 1, 3],
                                   [2, 1, 4, 3, 2, 3], [1, 4, 4, 2, 3, 3]]),
                   fmt="%d", delimiter=",")
        with pytest.raises(SystemExit) as err:
            cli.main(["check-id", "--matrix", str(path), "--levels", "3",
                      "--verify-trials", "-3", "--out", str(out)])
        assert err.value.code == 2
        assert "must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected_at_parse(self, tmp_path, capsys, monkeypatch):
        path, out = tmp_path / "b.csv", tmp_path / "r.json"
        np.savetxt(path, np.array([[1, 1], [2, 2], [3, 3]]), fmt="%d", delimiter=",")
        monkeypatch.setattr(cli.identifiability, "greedy_search", None)  # must not run
        with pytest.raises(SystemExit) as err:
            cli.main(["check-id", "--matrix", str(path), "--seed", "-5",
                      "--verify-trials", "2", "--out", str(out)])
        assert err.value.code == 2
        assert "--seed: must be at least 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_class_by_item_labels_read_in_any_labeling(self, tmp_path):
        # the worked example's class-by-item labels, then the same partitions
        # with each item's labels permuted and shifted to start at 0
        canonical = np.array([[1, 1, 1, 1, 1, 1], [2, 2, 2, 2, 1, 2], [3, 3, 3, 1, 1, 3],
                              [2, 1, 4, 3, 2, 3], [1, 4, 4, 2, 3, 3]])
        relabel = np.array([[0, 2, 0, 1, 3], [0, 3, 1, 2, 0], [0, 1, 0, 3, 2],
                            [0, 0, 2, 1, 0], [0, 1, 2, 0, 0], [0, 2, 1, 0, 0]])
        raw = np.column_stack([relabel[j][canonical[:, j]] for j in range(6)])
        assert not (raw == canonical).all() and raw.min() == 0
        reports = {}
        for name, labels in (("canonical", canonical), ("raw", raw)):
            path = tmp_path / f"{name}.csv"
            np.savetxt(path, labels, fmt="%d", delimiter=",")
            for mode in ([], ["--exhaustive"]):
                out = tmp_path / f"{name}{len(mode)}.json"
                assert cli.main(["check-id", "--matrix", str(path), "--levels", "3",
                                 "--verify-trials", "2", "--out", str(out), *mode]) == 0
                reports[name, len(mode)] = out.read_bytes()
        for mode in (0, 1):
            assert reports["raw", mode] == reports["canonical", mode]
        assert json.loads(reports["raw", 0])["status"] == "Identifiable"


class TestMetricsCommand:
    def test_metrics_pipeline(self, tmp_path):
        sim_csv = tmp_path / "sim.csv"
        truth_json = tmp_path / "truth.json"
        holdout_csv = tmp_path / "hold.csv"
        assert cli.main([
            "simulate", "--classes", "4", "--n", "300", "--seed", "3",
            "--out", str(sim_csv), "--truth", str(truth_json),
            "--holdout", "100", "--holdout-out", str(holdout_csv),
        ]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "model": "esrlcm",
            "classes": 4,
            "prior": {"lambda": 0.5, "v_mode": "fixed_zero"},
            "mcmc": {"n_warmup": 40, "n_main": 40, "seed": 2},
            "paths": {"data": str(sim_csv), "out": str(tmp_path / "fit")},
        }))
        assert cli.main(["fit", "--config", str(config)]) == 0
        out = tmp_path / "metrics.json"
        assert cli.main([
            "metrics", "--truth", str(truth_json),
            "--draws", str(tmp_path / "fit" / "draws_chain0.jsonl"),
            "--holdout", str(holdout_csv), "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert 0.0 <= payload["sensitivity"] <= 1.0
        assert 0.0 <= payload["specificity"] <= 1.0
        assert payload["oos_loglik"] < 0
        assert len(payload["per_item_mode_columns"]) == 32

    @pytest.fixture
    def small_fit(self, tmp_path):
        sim_csv, truth_json = tmp_path / "sim.csv", tmp_path / "truth.json"
        assert cli.main(["simulate", "--classes", "4", "--n", "60", "--seed", "3",
                         "--out", str(sim_csv), "--truth", str(truth_json)]) == 0
        config = write_config(tmp_path / "run.json", sim_csv, tmp_path / "fit", classes=4,
                              mcmc={"n_warmup": 2, "n_main": 2})
        assert cli.main(["fit", "--config", str(config)]) == 0
        return tmp_path, truth_json, tmp_path / "fit" / "draws_chain0.jsonl"

    def test_plug_in_aligns_each_draw_once(self, small_fit, monkeypatch):
        tmp_path, truth_json, draws = small_fit
        holdout = tmp_path / "hold.csv"
        Dataset(np.zeros((5, 32), dtype=int)).to_csv(holdout)
        calls = []
        align = evaluation.align_classes
        monkeypatch.setattr(evaluation, "align_classes",
                            lambda ref, targets: calls.append(len(targets)) or align(ref, targets))
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws),
                         "--holdout", str(holdout), "--mode", "plug_in"]) == 0
        # one call for every draw onto the reference draw, one of the mean onto the truth
        assert calls == [len(draws.read_text().splitlines()), 1]

    @pytest.mark.parametrize("corrupt, message", [
        (lambda recs: recs[0]["B"].__setitem__(0, [2, 1, 1, 1]),
         "column [2, 1, 1, 1] is not canonical"),
        (lambda recs: recs[1]["theta_prime"][3].append(0.5), "do not match the set counts"),
        (lambda recs: recs[1]["theta_prime"].__setitem__(2, 0.5),
         "theta' of item 2 must be a list of values"),
        (lambda recs: recs.clear(), "holds no draws"),
        (lambda recs: recs[1].__setitem__("pi", [5, 5, 5, 5]),
         "record 2: pi must be a strictly positive probability vector, "
         "got [5.0, 5.0, 5.0, 5.0]"),
        (lambda recs: recs[0]["pi"].__setitem__(0, float("nan")),
         "record 1: pi must be a strictly positive probability vector"),
        (lambda recs: [rec.__setitem__("pi", [0.5, 0.5]) for rec in recs],
         "record 1: pi must hold one weight per class, got [0.5, 0.5]"),
        (lambda recs: recs[0]["theta_prime"][2].__setitem__(0, 1.5),
         "record 1: theta_prime of item 2 holds 1.5, outside (0, 1)"),
        (lambda recs: recs[1]["theta_prime"][0].__setitem__(0, 0.0),
         "record 2: theta_prime of item 0 holds 0.0, outside (0, 1)"),
    ])
    def test_malformed_draws_file_rejected(self, small_fit, capsys, corrupt, message):
        _, truth_json, draws = small_fit
        recs = [json.loads(line) for line in draws.read_text().splitlines()]
        corrupt(recs)
        draws.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        with pytest.raises(ValueError) as err:
            PosteriorDraws.from_jsonl(draws)
        assert message in str(err.value)
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws)]) == 1
        assert message in capsys.readouterr().err

    def test_draws_record_without_a_field_named(self, small_fit, capsys):
        _, truth_json, draws = small_fit
        recs = [json.loads(line) for line in draws.read_text().splitlines()]
        del recs[1]["v"]
        draws.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws)]) == 1
        assert capsys.readouterr().err == f"error: draws file {draws}, record 2: no field 'v'\n"

    @pytest.mark.parametrize("target, corrupt, message", [
        ("draws", lambda lines: lines.insert(1, ""), ", record 2: Expecting value"),
        ("draws", lambda lines: lines.__setitem__(1, "[1, 2]"), ", record 2: no field 'iter'"),
        ("truth", lambda lines: lines.__setitem__(0, "[1, 2]"), ": no field 'seed'"),
        ("draws", edit_record(1, lambda rec: rec.__setitem__("pi", [0.5, 0.5])),
         ", record 2: field 'pi' must be a vector of floats like the first record, "
         "got [0.5, 0.5]"),
        ("draws", edit_record(1, lambda rec: rec["B"].pop()),
         ", record 2: field 'B' must be a 2-d block of ints like the first record, got [["),
        ("draws", edit_record(1, lambda rec: rec.__setitem__("v", "x")),
         ", record 2: field 'v' must be one float like the first record, got 'x'"),
        ("draws", edit_record(1, lambda rec: rec["theta_prime"][3].append(0.5)),
         ", record 2: theta' lengths "),
        ("draws", edit_record(0, lambda rec: rec["B"][5].__setitem__(1, 2.5)),
         ", record 1: field 'B' must be a 2-d block of ints, got [["),
        ("draws", edit_record(1, lambda rec: rec["B"][5].__setitem__(1, 1.5)),
         ", record 2: field 'B' must be a 2-d block of ints like the first record, got [["),
        ("draws", edit_record(1, lambda rec: rec.__setitem__("v", None)),
         ", record 2: field 'v' must be one float like the first record, got None"),
        ("draws", edit_record(0, lambda rec: rec.__setitem__("log_joint", None)),
         ", record 1: field 'log_joint' must be one float, got None"),
        ("draws", edit_record(1, lambda rec: rec["theta_prime"][3].__setitem__(0, "x")),
         ", record 2: theta' holds a value that is not a number"),
        ("draws", edit_record(1, lambda rec: rec.__setitem__("theta_prime", 5)),
         ", record 2: theta' of item 0 must be a list of values"),
        ("truth", edit_record(0, lambda rec: rec.__setitem__("c", [[1]])),
         ": field 'c' must be a vector of ints, got [[1]]"),
        ("truth", edit_record(0, lambda rec: rec.__setitem__("seed", [1, 2])),
         ": field 'seed' must be one int, got [1, 2]"),
        ("draws", edit_record(1, lambda rec: rec["theta_prime"][3].__setitem__(0, "0.83")),
         ", record 2: theta' holds a value that is not a number: '0.83'"),
        ("draws", edit_record(0, lambda rec: rec["theta_prime"][5].__setitem__(0, True)),
         ", record 1: theta' holds a value that is not a number: True"),
        ("truth", edit_record(0, lambda rec: rec["theta_prime"][2].__setitem__(0, "0.5")),
         ": theta' holds a value that is not a number: '0.5'"),
        ("truth", edit_record(0, lambda rec: rec["c"].__setitem__(0, 7)),
         ": memberships must be a vector of class indices below 4"),
        # a JSON true or false among numbers is not read as 1 or 0
        ("draws", edit_record(1, lambda rec: rec.__setitem__("v", True)),
         ", record 2: field 'v' must be one float like the first record, got True"),
        ("draws", edit_record(1, lambda rec: rec.__setitem__("iter", True)),
         ", record 2: field 'iter' must be one int like the first record, got True"),
        ("draws", edit_record(1, lambda rec: rec.__setitem__("log_joint", False)),
         ", record 2: field 'log_joint' must be one float like the first record, got False"),
        ("draws", edit_record(1, lambda rec: rec["B"][5].__setitem__(0, True)),
         ", record 2: field 'B' must be a 2-d block of ints like the first record, got [["),
        ("draws", edit_record(0, lambda rec: rec["pi"].__setitem__(0, True)),
         ", record 1: field 'pi' must be a vector of floats, got [True, "),
        ("truth", edit_record(0, lambda rec: rec.__setitem__("seed", True)),
         ": field 'seed' must be one int, got True"),
        ("truth", edit_record(0, lambda rec: rec["c"].__setitem__(0, True)),
         ": field 'c' must be a vector of ints, got [True, "),
        ("truth", edit_record(0, lambda rec: rec["B"][5].__setitem__(0, True)),
         ": field 'B' must be a 2-d block of ints, got [["),
    ])
    def test_malformed_record_named(self, small_fit, capsys, target, corrupt, message):
        # one error line naming the file, the record (draws) and the field
        _, truth_json, draws = small_fit
        path = {"draws": draws, "truth": truth_json}[target]
        lines = path.read_text().splitlines()
        corrupt(lines)
        path.write_text("".join(line + "\n" for line in lines))
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {target} file {path}{message}")

    def test_truth_without_a_field_named(self, small_fit, capsys):
        _, truth_json, draws = small_fit
        rec = json.loads(truth_json.read_text())
        del rec["seed"]
        truth_json.write_text(json.dumps(rec))
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws)]) == 1
        assert capsys.readouterr().err == f"error: truth file {truth_json}: no field 'seed'\n"

    @pytest.mark.parametrize("corrupt, message", [
        (lambda rec: rec["B"].__setitem__(0, [2, 1, 1, 1]),
         "base column [2, 1, 1, 1] is not canonical"),
        (lambda rec: rec["theta_prime"][3].append(0.5), "do not match the set counts"),
        (lambda rec: rec.__setitem__("pi", [0.5] * 4),
         "pi must be a strictly positive probability vector"),
        (lambda rec: rec["theta_prime"][3].__setitem__(0, 1.5),
         "theta_prime of item 3 holds 1.5, outside (0, 1)"),
    ])
    def test_malformed_truth_file_rejected(self, small_fit, capsys, corrupt, message):
        _, truth_json, draws = small_fit
        rec = json.loads(truth_json.read_text())
        corrupt(rec)
        truth_json.write_text(json.dumps(rec))
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws)]) == 1
        assert message in capsys.readouterr().err

    def test_holdout_with_other_item_count_rejected(self, small_fit, capsys):
        tmp_path, truth_json, draws = small_fit
        holdout = tmp_path / "hold31.csv"
        Dataset(np.zeros((5, 31), dtype=int)).to_csv(holdout)
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws),
                         "--holdout", str(holdout)]) == 1
        err = capsys.readouterr().err
        assert "holdout has 31 items" in err and "draws have 32 items" in err

    @pytest.mark.parametrize("mode", ["predictive_mean", "plug_in"])
    def test_empty_holdout_rejected(self, small_fit, capsys, mode):
        tmp_path, truth_json, draws = small_fit
        holdout, out = tmp_path / "empty.csv", tmp_path / "metrics.json"
        Dataset(np.zeros((0, 32), dtype=int)).to_csv(holdout)
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws),
                         "--holdout", str(holdout), "--mode", mode, "--out", str(out)]) == 1
        assert "error: the holdout has no observations" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("digit", ["2", "a"])
    def test_holdout_with_bad_digit_rejected(self, small_fit, capsys, digit):
        tmp_path, truth_json, draws = small_fit
        holdout, out = tmp_path / "bad.csv", tmp_path / "metrics.json"
        Dataset(np.zeros((3, 32), dtype=int)).to_csv(holdout)
        holdout.write_bytes(holdout.read_bytes()[:-2] + f"{digit}\n".encode())
        assert cli.main(["metrics", "--truth", str(truth_json), "--draws", str(draws),
                         "--holdout", str(holdout), "--out", str(out)]) == 1
        assert "error: all responses must be 0 or 1" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_with_other_class_count_rejected(self, small_fit, capsys):
        tmp_path, _, draws = small_fit
        truth5 = tmp_path / "truth5.json"
        assert cli.main(["simulate", "--classes", "5", "--n", "10", "--seed", "3",
                         "--out", str(tmp_path / "sim5.csv"), "--truth", str(truth5)]) == 0
        capsys.readouterr()
        assert cli.main(["metrics", "--truth", str(truth5), "--draws", str(draws)]) == 1
        err = capsys.readouterr().err
        assert "truth has 5 classes" in err and "draws have 4 classes x 32 items" in err


class TestCvCommand:
    def test_cv_smoke(self, tmp_path):
        rng = np.random.default_rng(8)
        data_path = tmp_path / "d.csv"
        Dataset(rng.integers(0, 2, size=(60, 2))).to_csv(data_path)
        config = write_config(tmp_path / "c.json", data_path, tmp_path / "o",
                              mcmc={"n_warmup": 20, "n_main": 20, "seed": 4})
        out = tmp_path / "cv.json"
        code = cli.main(["cv", "--config", str(config), "--k", "3",
                         "--grid-lambda", "0.5", "--out", str(out)])
        assert code == 0
        table = json.loads(out.read_text())
        assert table["k"] == 3
        assert len(table["results"]) == 2
        for row in table["results"]:
            assert np.isfinite(row["mean_predictive_loglik"])

    @pytest.mark.parametrize("k", ["1", "0"])
    def test_fewer_than_two_folds_rejected_at_parse(self, tmp_path, capsys, k):
        data_path, out = tmp_path / "d.csv", tmp_path / "cv.json"
        Dataset(np.zeros((6, 2), dtype=np.int64)).to_csv(data_path)
        config = write_config(tmp_path / "c.json", data_path, tmp_path / "o")
        with pytest.raises(SystemExit) as err:
            cli.main(["cv", "--config", str(config), "--k", k, "--out", str(out)])
        assert err.value.code == 2
        assert f"must be at least 2, got {k}" in capsys.readouterr().err
        assert not out.exists()

    def test_lcm_config_with_a_lambda_grid(self, tmp_path):
        # the grid's LCM lanes and lambda lanes run as one lockstep group
        rng = np.random.default_rng(8)
        data_path = tmp_path / "d.csv"
        Dataset(rng.integers(0, 2, size=(60, 2))).to_csv(data_path)
        config = write_config(tmp_path / "c.json", data_path, tmp_path / "o",
                              prior={"lambda": None, "zeta": [0, 1], "v_mode": "free"},
                              mcmc={"n_warmup": 10, "n_main": 10, "seed": 4})
        out = tmp_path / "cv.json"
        assert cli.main(["cv", "--config", str(config), "--k", "3",
                         "--grid-lambda", "0.5", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["results"]
        assert [(row["lambda"], row["v_mode"]) for row in rows] == [(None, "free"),
                                                                    (0.5, "free")]
        assert all(np.isfinite(row["mean_predictive_loglik"]) for row in rows)

    @pytest.mark.parametrize("prior_raw", [
        {"lambda": 1.0},
        {"zeta": [0.25, 0.75]},
    ])
    def test_grid_priors_keep_the_config_fields(self, tmp_path, monkeypatch, prior_raw):
        seen = []

        def fake_kfold_cv(data, grid, config, k, seed=0):
            seen.extend(grid)
            return [(prior, 0.0) for prior in grid]

        monkeypatch.setattr(evaluation, "kfold_cv", fake_kfold_cv)
        Dataset(np.zeros((6, 2), dtype=np.int64)).to_csv(tmp_path / "d.csv")
        prior = {"alpha_c": [2.0, 3.0], "d1": 0.5, "d2": 4.0, "max_v": 1.5,
                 "v_mode": "fixed_zero", **prior_raw}
        config = write_config(tmp_path / "c.json", tmp_path / "d.csv", tmp_path / "o")
        raw = json.loads(config.read_text())
        raw["prior"] = prior
        config.write_text(json.dumps(raw))
        assert cli.main(["cv", "--config", str(config), "--k", "2",
                         "--grid-lambda", "0.5", "--out", str(tmp_path / "cv.json")]) == 0
        base, grid_prior = seen
        assert grid_prior.lam == 0.5 and grid_prior.zeta is None
        for key in ("d1", "d2", "max_v", "v_mode"):
            assert getattr(grid_prior, key) == getattr(base, key) == prior[key]
        assert grid_prior.alpha_c.tolist() == base.alpha_c.tolist() == [2.0, 3.0]


class TestOutputFiles:
    """Every output file is overwritten in place and then cut to its length."""

    @pytest.fixture
    def sim_csv(self, tmp_path):
        path = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--classes", "4", "--n", "60", "--seed", "3",
                         "--out", str(path), "--truth", str(tmp_path / "truth.json")]) == 0
        return path

    def fit(self, tmp_path, sim_csv, out, **mcmc):
        config = write_config(tmp_path / "run.json", sim_csv, tmp_path / out, classes=4,
                              prior={"lambda": 0.5, "v_mode": "free"},
                              mcmc={"n_warmup": 2, "n_main": 20, "store_c_every": 3, **mcmc})
        return cli.main(["fit", "--config", str(config)])

    def test_shorter_refit_leaves_no_stale_tail(self, tmp_path, sim_csv):
        assert self.fit(tmp_path, sim_csv, "out", n_main=20) == 0
        assert self.fit(tmp_path, sim_csv, "out", n_main=10) == 0
        assert self.fit(tmp_path, sim_csv, "fresh", n_main=10) == 0
        for name in ("draws_chain0.jsonl", "memberships_chain0.jsonl", "summary.json"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_encoding_fault_keeps_the_previous_file(self, tmp_path, sim_csv, monkeypatch,
                                                    capsys):
        assert self.fit(tmp_path, sim_csv, "out") == 0
        draws = tmp_path / "out" / "draws_chain0.jsonl"
        before = draws.read_bytes()
        calls = []
        record = mcmc.parameter_record  # the binding to_jsonl calls

        def failing_record(*args):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError("cannot encode draw 3")
            return record(*args)

        monkeypatch.setattr(mcmc, "parameter_record", failing_record)
        assert self.fit(tmp_path, sim_csv, "out", seed=8) == 1
        assert "cannot encode draw 3" in capsys.readouterr().err
        assert draws.read_bytes() == before

    def test_metrics_to_dev_null(self, tmp_path, sim_csv):
        # ftruncate fails on a device, so the writer cuts regular files only
        assert self.fit(tmp_path, sim_csv, "out") == 0
        assert cli.main(["metrics", "--truth", str(tmp_path / "truth.json"),
                         "--draws", str(tmp_path / "out" / "draws_chain0.jsonl"),
                         "--out", os.devnull]) == 0

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            assert cli.main(["simulate", "--classes", "4", "--n", "5",
                             "--out", str(tmp_path / "d.csv"),
                             "--truth", str(tmp_path / "t.json")]) == 0
        finally:
            os.umask(old)
        for name in ("d.csv", "t.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


# Run in a fresh interpreter with scipy unimportable: every command runs, and
# none loads scipy or a process pool.
STARTUP_SCRIPT = """
import sys
from importlib.abc import MetaPathFinder


class NoScipy(MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, NoScipy())

import esrlcm
from esrlcm import cli


def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)


tmp = sys.argv[1]
assert cli.main(["simulate", "--classes", "4", "--n", "60", "--seed", "1",
                 "--out", f"{tmp}/data.csv", "--truth", f"{tmp}/truth.json"]) == 0
assert cli.main(["check-id", "--matrix", f"{tmp}/q.csv", "--q-matrix",
                 "--verify-trials", "3", "--out", f"{tmp}/id.json"]) == 0
assert cli.main(["cv", "--config", f"{tmp}/run.json", "--k", "2",
                 "--out", f"{tmp}/cv.json"]) == 0
assert cli.main(["fit", "--config", f"{tmp}/run.json"]) == 0
assert cli.main(["metrics", "--truth", f"{tmp}/truth.json",
                 "--draws", f"{tmp}/out/draws_chain1.jsonl", "--holdout", f"{tmp}/data.csv",
                 "--out", f"{tmp}/metrics.json"]) == 0
assert not loaded("scipy"), loaded("scipy")
assert not loaded("multiprocessing", "concurrent"), loaded("multiprocessing", "concurrent")
"""


class TestStartup:
    def test_commands_run_without_scipy(self, tmp_path):
        """With scipy unimportable, simulate, check-id, cv, a two-chain free-v
        fit and metrics all succeed, and none loads scipy or a process pool."""
        q = np.vstack([np.eye(2, dtype=int), np.eye(2, dtype=int), [[1, 1]]])
        np.savetxt(tmp_path / "q.csv", q, fmt="%d", delimiter=",")
        write_config(tmp_path / "run.json", tmp_path / "data.csv", tmp_path / "out", classes=4,
                     prior={"lambda": 1.0, "v_mode": "free"},
                     mcmc={"n_warmup": 5, "n_main": 5, "seed": 3, "n_chains": 2})
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

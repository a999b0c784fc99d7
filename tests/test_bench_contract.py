"""The benchmark's traced run patches package bindings by name; a renamed or
deleted binding must fail here, not only in the benchmark."""

import json
from pathlib import Path

import numpy as np
import pytest

import esrlcm
from esrlcm import cli, repelled_beta
from esrlcm.model import Dataset
from esrlcm.simulation import SimulationTruth

from test_cli import write_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_fit(tmp_path, monkeypatch, v_mode="fixed_zero", n_chains=1):
    """The tracing module and its tracer after a traced 2 + 3 sweep ``fit``
    of a toy data set."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rng = np.random.default_rng(0)
    data_path = tmp_path / "data.csv"
    Dataset(rng.integers(0, 2, size=(40, 3))).to_csv(data_path)
    config = write_config(tmp_path / "run.json", data_path, tmp_path / "out",
                          prior={"v_mode": v_mode},
                          mcmc={"n_warmup": 2, "n_main": 3, "n_chains": n_chains})

    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        assert cli.main(["fit", "--config", str(config)]) == 0
    finally:
        tracer.uninstall()
    return tracing, tracer


@pytest.mark.parametrize("v_mode", ["free", "fixed_zero"])
def test_traced_fit_runs_with_every_patch_installed(tmp_path, monkeypatch, v_mode):
    tracing, tracer = traced_fit(tmp_path, monkeypatch, v_mode)
    assert esrlcm.ACTIVE_BACKEND == "numpy"

    # the patched bindings are the ones the sweep calls, under both base moves
    names = {rec[tracing.NAME] for rec in tracer.spans}
    assert {"kernels.class_counts", "mcmc.base_move", "repelled_beta.log_density_all_ones"} <= names
    assert tracer.counts["model.base_vector_log_prior"] > 0
    # one full class count per chain, then one carried count update per
    # sweep: retention reuses the sweep's counts and recounts nothing
    class_counts = [rec for rec in tracer.spans if rec[tracing.NAME] == "kernels.class_counts"]
    assert len(class_counts) == 1
    count_phase = [rec for rec in tracer.spans if rec[tracing.NAME] == "mcmc.class_counts"]
    assert len(count_phase) == 5
    # the fit aligns its 3 retained draws in one call, for both summaries
    assert tracer.counts["evaluation.align_classes"] == 1
    # one batched base move per sweep draws every item's column, under both
    # moves; a per-item loop would make one span per item
    base_moves = [rec for rec in tracer.spans if rec[tracing.NAME] == "mcmc.base_move"]
    assert len(base_moves) == 5
    if v_mode == "free":
        # one batched theta' slice update per sweep, no rejection draw
        theta = [rec for rec in tracer.spans if rec[tracing.NAME] == "mcmc.theta"]
        assert len(theta) == 5
        assert tracer.counts["rj.moves"]
        # the tracer reads the theta' and v updates' return tuples; its
        # tallies agree with the chain's own stats over 3 items x 5 sweeps
        stats = json.loads((tmp_path / "out" / "summary.json").read_text())["chains"][0]
        assert tracer.counts["theta.updates"] == 5
        assert tracer.counts["theta.attempts"] / (3 * 5) == stats["theta_evals_per_update"]
        assert tracer.counts["theta.fallbacks"] == 0
        assert tracer.counts["v.moves"] == 5
    else:
        # at v = 0 the base move also draws theta'
        assert "mcmc.theta" not in names


def test_traced_multi_chain_fit_records_every_lane(tmp_path, monkeypatch):
    # the chains run in this process, so the tracer sees each lane's phases
    tracing, tracer = traced_fit(tmp_path, monkeypatch, n_chains=2)
    # one membership draw per lane per sweep, one stacked base move per sweep
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names.count("mcmc.memberships") == 2 * 5
    assert names.count("mcmc.base_move") == 5


def test_traced_metrics_reads_the_traced_fits_draws(tmp_path, monkeypatch):
    # metrics reads the draws through the patched from_jsonl classmethod
    tracing, _ = traced_fit(tmp_path, monkeypatch)
    truth = tmp_path / "truth.json"
    SimulationTruth(pi=[0.5, 0.5], memberships=np.zeros(40, dtype=np.int64),
                    columns=np.ones((3, 2), dtype=np.int64),
                    theta_prime=[[0.5, np.nan]] * 3, seed=0).to_json(truth)
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        assert cli.main(["metrics", "--truth", str(truth),
                         "--draws", str(tmp_path / "out" / "draws_chain0.jsonl"),
                         "--holdout", str(tmp_path / "data.csv")]) == 0
    finally:
        tracer.uninstall()
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names.count("io.draws_read") == 1
    assert names.count("evaluation.predictive_loglik") == 1


def test_traced_sample_keeps_its_positional_contract(tmp_path, monkeypatch):
    # the tracer's failure hook reads the third positional argument as the
    # attempt budget, so v must come after it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        with pytest.raises(repelled_beta.SamplingError):
            repelled_beta.sample(np.ones((6, 2)), np.random.default_rng(0), 50, v=40.0)
    finally:
        tracer.uninstall()
    assert tracer.counts["sample.proposals"] == 50

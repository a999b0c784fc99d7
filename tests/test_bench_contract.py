"""The benchmark's traced run patches package bindings by name; a renamed or
deleted binding must fail here, not only in the benchmark."""

from pathlib import Path

import numpy as np
import pytest

import esrlcm
from esrlcm import cli, repelled_beta
from esrlcm.model import Dataset

from test_cli import write_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("v_mode", ["free", "fixed_zero"])
def test_traced_fit_runs_with_every_patch_installed(tmp_path, monkeypatch, v_mode):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    rng = np.random.default_rng(0)
    data_path = tmp_path / "data.csv"
    Dataset(rng.integers(0, 2, size=(40, 3))).to_csv(data_path)
    config = write_config(tmp_path / "run.json", data_path, tmp_path / "out",
                          prior={"v_mode": v_mode}, mcmc={"n_warmup": 2, "n_main": 3})

    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        assert cli.main(["fit", "--config", str(config)]) == 0
    finally:
        tracer.uninstall()
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
    # the fit aligns each of its 3 retained draws once, for both summaries
    assert tracer.counts["evaluation.align_classes"] == 3
    # one batched base move per sweep draws every item's column, under both
    # moves; a per-item loop would make one span per item
    base_moves = [rec for rec in tracer.spans if rec[tracing.NAME] == "mcmc.base_move"]
    assert len(base_moves) == 5
    if v_mode == "free":
        # one batched theta' slice update per sweep, no rejection draw
        theta = [rec for rec in tracer.spans if rec[tracing.NAME] == "mcmc.theta"]
        assert len(theta) == 5
        assert tracer.counts["rj.moves"] and tracer.counts["v.moves"]
    else:
        # at v = 0 the base move also draws theta'
        assert "mcmc.theta" not in names


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

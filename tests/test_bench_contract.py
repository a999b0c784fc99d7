"""The benchmark's traced run patches package bindings by name; a renamed or
deleted binding must fail here, not only in the benchmark."""

from pathlib import Path

import numpy as np
import pytest

import esrlcm
from esrlcm import cli
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
    # one class count per sweep: retention reuses the sweep's counts
    class_counts = [rec for rec in tracer.spans if rec[tracing.NAME] == "kernels.class_counts"]
    assert len(class_counts) == 5
    # the fit aligns each of its 3 retained draws once, for both summaries
    assert tracer.counts["evaluation.align_classes"] == 3
    if v_mode == "free":
        assert all(tracer.counts[k] for k in ("theta.updates", "sample.draws"))
        assert tracer.counts["rj.moves"] and tracer.counts["v.moves"]
    else:
        # at v = 0 one batched move per sweep draws every column and theta'
        base_moves = [rec for rec in tracer.spans if rec[tracing.NAME] == "mcmc.base_move"]
        assert len(base_moves) == 5
        assert "mcmc.theta" not in names

"""Workload definitions, input preparation and the timed CLI session.

Every workload is one closed-loop client: a single process that issues the
next ``esrlcm`` command only after the previous one returned, one chain per
fit. Inputs come from ``esrlcm simulate``; the data, chain and fold seeds are
derived from the workload seed (the holdout stream is derived from the data
seed by ``simulate`` itself).
"""

import contextlib
import io
import json
import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from esrlcm import cli, mcmc, model


@dataclass(frozen=True)
class Workload:
    """Input shape and chain lengths of one workload.

    ``n_warmup`` and ``n_main`` are the sweeps of the ``fit`` command; on the
    cv workload that fit is the refit at the λ that cross-validation chose.
    """

    classes: int
    n: int
    v_mode: str
    n_warmup: int
    n_main: int
    cv_k: int = 0  # 0: no cross-validation in the session
    cv_grid: tuple = ()
    cv_sweeps: tuple = ()  # (warmup, main) of each fold chain
    cv_threads: int = 0
    fit_reps: int = 1  # timed runs of `fit` per session

    @property
    def sweeps(self) -> int:
        return self.n_warmup + self.n_main


HOLDOUT = 20_000  # holdout rows scored by `metrics`
LAMBDA = 0.5  # partition prior of every fit; cv adds its grid to it
SCORE_REPS = 3  # timed runs of `metrics` per session

# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "desk-c4-n2k-free": Workload(classes=4, n=2_000, v_mode="free",
                                 n_warmup=500, n_main=250),
    "large-c4-n20k-zero": Workload(classes=4, n=20_000, v_mode="fixed_zero",
                                   n_warmup=50, n_main=100),
    "cv-c4-n2k-k5": Workload(classes=4, n=2_000, v_mode="fixed_zero",
                             n_warmup=150, n_main=150,
                             cv_k=5, cv_grid=(1.0,), cv_sweeps=(25, 25), cv_threads=2,
                             fit_reps=2),
}


def derive_seeds(seed: int) -> dict:
    """Independent data, chain and fold seeds from one workload seed."""
    data, chain, fold = np.random.SeedSequence(seed).generate_state(3)
    return {"data": int(data), "chain": int(chain), "fold": int(fold)}


class CommandFailed(RuntimeError):
    """A CLI command exited nonzero or its output failed a check."""


def run_cli(argv):
    """Run one CLI command in-process; return its wall time in seconds."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise CommandFailed(f"esrlcm {argv[0]} exited with status {code}")
    return elapsed


def _config(wl, seeds, workdir, lam, name, sweeps=None):
    n_warmup, n_main = sweeps or (wl.n_warmup, wl.n_main)
    path = workdir / name
    path.write_text(json.dumps({
        "model": "esrlcm",
        "classes": wl.classes,
        "prior": {"lambda": lam, "v_mode": wl.v_mode},
        "mcmc": {"n_warmup": n_warmup, "n_main": n_main, "n_chains": 1,
                 "seed": seeds["chain"]},
        "paths": {"data": str(workdir / "data.csv"), "out": str(workdir / "out")},
    }))
    return path


def prepare(wl, seed, workdir):
    """Simulate the inputs and write the run configs: the set-up users pay."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    seeds = derive_seeds(seed)
    run_cli(["simulate", "--classes", str(wl.classes), "--n", str(wl.n),
             "--seed", str(seeds["data"]), "--out", str(workdir / "data.csv"),
             "--truth", str(workdir / "truth.json"), "--holdout", str(HOLDOUT),
             "--holdout-out", str(workdir / "holdout.csv")])
    _config(wl, seeds, workdir, LAMBDA, "run.json")
    if wl.cv_k:
        _config(wl, seeds, workdir, LAMBDA, "cv-run.json", wl.cv_sweeps)
    for name in ("data.csv", "truth.json", "holdout.csv"):
        if not (workdir / name).stat().st_size:
            raise CommandFailed(f"simulate wrote an empty {name}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _finite(values, what):
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise CommandFailed(f"{what} has non-finite values")
    return arr


def _check_shape(arr, shape, what):
    if arr.shape != shape:
        raise CommandFailed(f"{what} has shape {arr.shape}, expected {shape}")


def check_fit(wl, workdir):
    """Reload the draws through the package's validating reader; check summary.json."""
    out = workdir / "out"
    try:
        draws = mcmc.PosteriorDraws.from_jsonl(out / "draws_chain0.jsonl")
    except (ValueError, KeyError) as err:
        raise CommandFailed(f"draws file does not reload: {err}") from err
    if draws.n_draws != wl.n_main or not np.array_equal(draws.iters, np.arange(wl.n_main)):
        raise CommandFailed(f"expected {wl.n_main} retained draws, got {draws.n_draws}")
    _finite(draws.log_joint, "log_joint")
    pi = _finite(draws.pi, "pi")
    if not np.allclose(pi.sum(axis=1), 1.0):
        raise CommandFailed("pi draws do not sum to one")
    v = _finite(draws.v, "v")
    if wl.v_mode == model.V_FIXED_ZERO and np.any(v != 0.0):
        raise CommandFailed("v moved although it is fixed at zero")
    if wl.v_mode == model.V_FREE and np.any(v <= 0.0):
        raise CommandFailed("free v must stay positive")

    summary = json.loads((out / "summary.json").read_text())
    n_items = len(draws.base_columns[0])
    _check_shape(_finite(summary["pi_mean"], "pi_mean"), (wl.classes,), "pi_mean")
    theta = _finite(summary["theta_mean"], "theta_mean")
    _check_shape(theta, (wl.classes, n_items), "theta_mean")
    if np.any(theta <= 0.0) or np.any(theta >= 1.0):
        raise CommandFailed("theta_mean leaves (0, 1)")
    modes = np.asarray(summary["mode_restrictions"])
    _check_shape(modes, (n_items, wl.classes), "mode_restrictions")
    if not all(model.is_canonical(col) for col in modes):
        raise CommandFailed("mode_restrictions holds a non-canonical column")
    _finite([summary["v_mean"]], "v_mean")
    if len(summary["chains"]) != 1:
        raise CommandFailed("summary.json must describe exactly one chain")
    return draws


def check_metrics(wl, path, n_items):
    payload = json.loads(Path(path).read_text())
    for key in ("sensitivity", "specificity"):
        value = _finite([payload[key]], key)[0]
        if not 0.0 <= value <= 1.0:
            raise CommandFailed(f"{key} {value} outside [0, 1]")
    if _finite([payload["oos_loglik"]], "oos_loglik")[0] >= 0.0:
        raise CommandFailed("a log likelihood of binary data must be negative")
    _check_shape(np.asarray(payload["per_item_mode_columns"]), (n_items, wl.classes),
                 "per_item_mode_columns")
    return payload


def check_cv(wl, path):
    payload = json.loads(Path(path).read_text())
    rows = payload["results"]
    grid = [LAMBDA, *wl.cv_grid]
    if payload["k"] != wl.cv_k or len(rows) != len(grid):
        raise CommandFailed(f"cv output has {len(rows)} rows for {len(grid)} grid points")
    if [row["lambda"] for row in rows] != grid:
        raise CommandFailed("cv rows do not follow the lambda grid")
    scores = _finite([row["mean_predictive_loglik"] for row in rows], "cv scores")
    if np.any(scores >= 0.0):
        raise CommandFailed("a cv log likelihood of binary data must be negative")
    return rows


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

def _repeat(argv, reps, check, same):
    """Run one command ``reps`` times; each output must pass ``check`` and agree."""
    times, first = [], None
    for _ in range(reps):
        times.append(run_cli(argv))
        output = check()
        if first is None:
            first = output
        elif not same(first, output):
            raise CommandFailed(f"esrlcm {argv[0]} output changed between identical runs")
    return times, first


def _same_draws(a, b):
    return np.array_equal(a.log_joint, b.log_joint) and np.array_equal(a.v, b.v)


def session(wl, seed, workdir, checking=contextlib.nullcontext, repeat=False):
    """Run the workload's CLI commands once on prepared inputs.

    Returns each command's wall times and the checked outputs. With
    ``repeat``, ``fit`` runs ``wl.fit_reps`` times and ``metrics``
    ``SCORE_REPS`` times on the same inputs: a command of 1-3 s is short
    enough for a burst of load on a 2-core host to move it by 20%, so its
    median over several identical runs is kept. Output checks run outside the
    timed calls, inside ``checking()``, which a traced run uses to keep the
    checks' own package calls out of its spans.
    """
    def checked(fn, *args):
        with checking():
            return fn(*args)

    workdir = Path(workdir)
    seeds = derive_seeds(seed)
    times, outputs = {}, {}
    fit_config = workdir / "run.json"
    if wl.cv_k:
        times["cv"] = [run_cli(["cv", "--config", str(workdir / "cv-run.json"),
                                "--k", str(wl.cv_k), "--fold-seed", str(seeds["fold"]),
                                "--grid-lambda", *map(str, wl.cv_grid),
                                "--out", str(workdir / "cv.json")])]
        rows = checked(check_cv, wl, workdir / "cv.json")
        best = max(rows, key=lambda row: row["mean_predictive_loglik"])
        outputs["cv_loglik"] = best["mean_predictive_loglik"]
        fit_config = _config(wl, seeds, workdir, best["lambda"], "refit.json")

    times["fit"], draws = _repeat(
        ["fit", "--config", str(fit_config)], wl.fit_reps if repeat else 1,
        lambda: checked(check_fit, wl, workdir), _same_draws)
    outputs["log_joint"] = draws.log_joint
    outputs["v"] = draws.v

    metrics_path = workdir / "metrics.json"
    n_items = len(draws.base_columns[0])
    times["metrics"], payload = _repeat(
        ["metrics", "--truth", str(workdir / "truth.json"),
         "--draws", str(workdir / "out" / "draws_chain0.jsonl"),
         "--holdout", str(workdir / "holdout.csv"), "--out", str(metrics_path)],
        SCORE_REPS if repeat else 1,
        lambda: checked(check_metrics, wl, metrics_path, n_items), operator.eq)
    outputs.update(sensitivity=payload["sensitivity"], specificity=payload["specificity"],
                   oos_loglik=payload["oos_loglik"])
    return times, outputs


def same_outputs(first, other) -> bool:
    """A rerun from the same seed must reproduce every output exactly."""
    return all(np.array_equal(value, other[key]) for key, value in first.items())

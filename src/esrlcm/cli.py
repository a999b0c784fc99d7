"""Command line front end: fit, simulate, cv, check-id, and metrics.

Runs are driven by a single JSON config file so that results are
reproducible from checked-in fixtures. Usage errors exit with status 2,
runtime failures with status 1, and all outputs are machine readable.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, identifiability, mcmc, simulation
from .model import BaseClassMatrix, Dataset, PriorConfig, V_FREE
from .repelled_beta import RepelledBetaParams, log_density_unnormalized

PRIOR_KEYS = {"lambda", "zeta", "alpha_c", "d1", "d2", "max_v", "v_mode"}
MCMC_DEFAULTS = {"n_main": 1000, "n_warmup": 1000, "n_chains": 1, "seed": 0, "thin": 1,
                 "store_c_every": 0}
TOP_KEYS = {"model", "classes", "prior", "mcmc", "unrestricted", "paths"}
PATH_KEYS = {"data", "out", "truth"}


class ConfigError(ValueError):
    pass


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _json_int(value, key):
    # a JSON bool is an int to Python, and int() would truncate a float
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def load_run_config(path):
    """Parse and validate a run configuration file."""
    with open(path) as fh:
        raw = json.load(fh)
    _reject_unknown(raw, TOP_KEYS, "config")
    if raw.get("model", "esrlcm") != "esrlcm":
        raise ConfigError(f"unsupported model {raw.get('model')!r}")
    n_classes = _json_int(raw["classes"], "classes")
    if n_classes < 1:
        raise ConfigError("classes must be >= 1")

    prior_raw = dict(raw.get("prior", {}))
    _reject_unknown(prior_raw, PRIOR_KEYS, "prior")
    alpha_c = np.asarray(prior_raw.get("alpha_c", np.ones(n_classes)), dtype=np.float64)
    if alpha_c.shape != (n_classes,):
        raise ConfigError("prior.alpha_c must have one entry per class")
    try:
        prior = PriorConfig(
            alpha_c=alpha_c,
            lam=prior_raw.get("lambda"),
            zeta=None if prior_raw.get("zeta") is None else np.asarray(prior_raw["zeta"]),
            d1=float(prior_raw.get("d1", 1.0)),
            d2=float(prior_raw.get("d2", 1.0)),
            max_v=float(prior_raw.get("max_v", 2.0)),
            v_mode=prior_raw.get("v_mode", V_FREE),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err

    mcmc_raw = dict(raw.get("mcmc", {}))
    _reject_unknown(mcmc_raw, set(MCMC_DEFAULTS), "mcmc")
    settings = {key: _json_int(mcmc_raw.get(key, default), f"mcmc.{key}")
                for key, default in MCMC_DEFAULTS.items()}
    unrestricted = raw.get("unrestricted", False)
    if not isinstance(unrestricted, bool):
        raise ConfigError(f"unrestricted must be true or false, got {json.dumps(unrestricted)}")
    try:
        config = mcmc.McmcConfig(**settings, unrestricted=unrestricted)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    paths = dict(raw.get("paths", {}))
    _reject_unknown(paths, PATH_KEYS, "paths")
    return prior, config, paths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args):
    prior, config, paths = load_run_config(args.config)
    if args.unrestricted:
        config.unrestricted = True
    if args.dump_density_grid:
        _dump_density_grid(prior, args.dump_density_grid)
        return 0
    data = Dataset.from_csv(paths["data"])
    out_dir = Path(paths.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    chains = mcmc.run_chains(data, prior, config, n_threads=args.threads)
    for k, draws in enumerate(chains):
        draws.to_jsonl(out_dir / f"draws_chain{k}.jsonl")
        if config.store_c_every:
            draws.write_memberships(out_dir / f"memberships_chain{k}.jsonl")

    pooled = mcmc.concat_draws(chains)
    perms = evaluation._aligned_permutations(pooled)
    pi_bar, theta_bar = evaluation.posterior_mean_parameters(pooled, perms)
    mode = evaluation.mode_restrictions(pooled, perms)
    summary = {
        "pi_mean": pi_bar.tolist(),
        "theta_mean": theta_bar.tolist(),
        "mode_restrictions": mode.labels.T.tolist(),
        "v_mean": float(pooled.v.mean()),
        "chains": [draws.stats for draws in chains],
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote {len(chains)} chain file(s) and summary.json to {out_dir}")
    return 0


def _dump_density_grid(prior, path, resolution=101):
    """Debug CSV grid of the two-component repelled beta log density."""
    v = prior.max_v / 2.0 if prior.v_mode == V_FREE else 0.0
    params = RepelledBetaParams(np.ones((2, 2)), v)
    grid = np.linspace(1e-3, 1.0 - 1e-3, resolution)
    with open(path, "w") as fh:
        fh.write("rho1,rho2,log_density\n")
        for r1 in grid:
            for r2 in grid:
                fh.write(f"{r1},{r2},{log_density_unnormalized(params, [r1, r2])}\n")


def cmd_simulate(args):
    data, truth = simulation.simulate(args.classes, args.n, args.seed)
    data.to_csv(args.out)
    if args.truth:
        truth.to_json(args.truth)
    if args.holdout:
        holdout = simulation.simulate_holdout(truth, args.holdout)
        holdout.to_csv(args.holdout_out or _with_suffix(args.out, "_holdout"))
    print(f"wrote {data.n} x {data.n_items} dataset to {args.out}")
    return 0


def _with_suffix(path, suffix):
    p = Path(path)
    return p.with_name(p.stem + suffix + p.suffix)


def cmd_cv(args):
    prior, config, paths = load_run_config(args.config)
    data = Dataset.from_csv(paths["data"])
    grid = [prior]
    for lam in args.grid_lambda or []:
        if prior.lam is None or lam != prior.lam:
            grid.append(dataclasses.replace(prior, lam=lam, zeta=None))
    rows = evaluation.kfold_cv(data, grid, config, args.k, seed=args.fold_seed)
    table = [
        {
            "lambda": prior.lam,
            "v_mode": prior.v_mode,
            "mean_predictive_loglik": value,
        }
        for prior, value in rows
    ]
    out = json.dumps({"k": args.k, "results": table}, indent=2)
    if args.out:
        Path(args.out).write_text(out)
    else:
        print(out)
    return 0


def cmd_check_id(args):
    raw = np.loadtxt(args.matrix, delimiter=",", dtype=np.int64, ndmin=2)
    if args.q_matrix:
        base = identifiability.q_matrix_to_base(raw)
    else:
        base = BaseClassMatrix.from_raw(raw)
    levels = np.full(base.n_items, args.levels, dtype=np.int64)
    if args.exhaustive:
        report = identifiability.exhaustive_search(base, levels, budget=args.budget)
    else:
        report = identifiability.greedy_search(base, levels)
    payload = report.to_dict()
    if report.witness is not None and args.verify_trials:
        rng = np.random.default_rng(args.seed)
        payload["numeric_verify"] = identifiability.numeric_verify(
            base, levels, report.witness.tripartition, rng, trials=args.verify_trials
        )
    out = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(out)
    else:
        print(out)
    return 0


def cmd_metrics(args):
    truth = simulation.SimulationTruth.from_json(args.truth)
    draws = mcmc.PosteriorDraws.from_jsonl(args.draws)
    holdout = Dataset.from_csv(args.holdout) if args.holdout else None
    perms = evaluation._aligned_permutations(draws)
    mode = evaluation.mode_restrictions(draws, perms)
    shape = (mode.n_classes, mode.n_items)
    if (truth.base.n_classes, truth.base.n_items) != shape:
        raise ValueError(f"truth has {truth.base.n_classes} classes x {truth.base.n_items} "
                         f"items but the draws have {shape[0]} classes x {shape[1]} items")
    if holdout is not None and holdout.n_items != mode.n_items:
        raise ValueError(f"holdout has {holdout.n_items} items "
                         f"but the draws have {mode.n_items} items")
    _, theta_bar = evaluation.posterior_mean_parameters(draws, perms)
    alignment = evaluation.align_classes(truth.theta_matrix(), theta_bar)
    sens, spec = evaluation.restriction_sensitivity_specificity(truth.base, mode, alignment)
    payload = {
        "sensitivity": sens,
        "specificity": spec,
        "oos_loglik": None,
        "per_item_mode_columns": mode.labels.T.tolist(),
    }
    if holdout is not None:
        payload["oos_loglik"] = evaluation.predictive_loglik(draws, holdout, args.mode, perms)
    out = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(out)
    else:
        print(out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="esrlcm",
        description="Equivalence set restricted latent class models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model from a JSON run config")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--threads", type=int, default=None)
    p_fit.add_argument("--unrestricted", action="store_true",
                       help="pin every item to the all-distinct partition")
    p_fit.add_argument("--dump-density-grid", metavar="PATH",
                       help="write a repelled beta density grid CSV and exit")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--classes", type=int, required=True,
                       choices=simulation.SUPPORTED_CLASS_COUNTS)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--truth")
    p_sim.add_argument("--holdout", type=int, default=0)
    p_sim.add_argument("--holdout-out")
    p_sim.set_defaults(func=cmd_simulate)

    p_cv = sub.add_parser("cv", help="K-fold cross-validated predictive fit")
    p_cv.add_argument("--config", required=True)
    p_cv.add_argument("--k", type=int, default=20)
    p_cv.add_argument("--fold-seed", type=int, default=0)
    p_cv.add_argument("--grid-lambda", type=float, nargs="*")
    p_cv.add_argument("--out")
    p_cv.set_defaults(func=cmd_cv)

    p_id = sub.add_parser("check-id", help="generic identifiability check")
    p_id.add_argument("--matrix", required=True,
                      help="CSV of class-by-item labels, or an item-by-attribute Q-matrix")
    p_id.add_argument("--q-matrix", action="store_true")
    p_id.add_argument("--levels", type=int, default=2)
    p_id.add_argument("--exhaustive", action="store_true")
    p_id.add_argument("--budget", type=int, default=5_000_000)
    p_id.add_argument("--verify-trials", type=int, default=0)
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--out")
    p_id.set_defaults(func=cmd_check_id)

    p_met = sub.add_parser("metrics", help="restriction recovery and OOS fit metrics")
    p_met.add_argument("--truth", required=True)
    p_met.add_argument("--draws", required=True)
    p_met.add_argument("--holdout")
    p_met.add_argument("--mode", choices=("predictive_mean", "plug_in"),
                       default="predictive_mean")
    p_met.add_argument("--out")
    p_met.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", None) is not None and args.threads < 1:
        parser.error(f"--threads must be a positive integer, got {args.threads}")
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

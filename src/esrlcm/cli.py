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
from .model import BaseClassMatrix, Dataset, PriorConfig

PRIOR_KEYS = {"lambda", "zeta", "alpha_c", "d1", "d2", "max_v", "v_mode"}
MCMC_DEFAULTS = {"n_main": 1000, "n_warmup": 1000, "n_chains": 1, "seed": 0, "thin": 1,
                 "store_c_every": 0}
TOP_KEYS = {"model", "classes", "prior", "mcmc", "paths"}
PATH_KEYS = {"data", "out"}


class ConfigError(ValueError):
    pass


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _required(mapping, key, name):
    if key not in mapping:
        raise ConfigError(f"{name} is required")
    return mapping[key]


def _json_value(value, key, kinds, what):
    # exact types: a JSON bool is an int to Python, and int() would
    # truncate a float
    if type(value) not in kinds:
        raise ConfigError(f"{key} must be {what}, got {json.dumps(value)}")
    return value


def _prior_value(key, value):
    if key == "v_mode":  # PriorConfig names the allowed modes
        return value
    if key not in ("zeta", "alpha_c"):
        return _json_value(value, f"prior.{key}", (int, float), "a number")
    if type(value) is not list or any(type(x) not in (int, float) for x in value):
        raise ConfigError(f"prior.{key} must be a list of numbers, got {json.dumps(value)}")
    return np.asarray(value, dtype=np.float64)


def load_run_config(path):
    """Parse and validate a run configuration file."""
    with open(path) as fh:
        raw = _json_value(json.load(fh), "config", (dict,), "a JSON object")
    _reject_unknown(raw, TOP_KEYS, "config")
    if raw.get("model", "esrlcm") != "esrlcm":
        raise ConfigError(f"unsupported model {raw.get('model')!r}")
    n_classes = _json_value(_required(raw, "classes", "classes"), "classes", (int,),
                            "an integer")
    if n_classes < 1:
        raise ConfigError("classes must be >= 1")

    prior_raw = _json_value(raw.get("prior", {}), "prior", (dict,), "a JSON object")
    _reject_unknown(prior_raw, PRIOR_KEYS, "prior")
    # a key the config leaves out takes PriorConfig's default; a null lambda
    # or zeta counts as left out
    fields = {"lam" if key == "lambda" else key: _prior_value(key, value)
              for key, value in prior_raw.items()
              if value is not None or key not in ("lambda", "zeta")}
    fields.setdefault("alpha_c", np.ones(n_classes))
    if fields["alpha_c"].shape != (n_classes,):
        raise ConfigError("prior.alpha_c must have one entry per class")
    try:
        prior = PriorConfig(**fields)
    except ValueError as err:
        # PriorConfig's errors start with the key they are about, if any
        where = "prior." if str(err).split()[0] in PRIOR_KEYS else "prior: "
        raise ConfigError(f"{where}{err}") from err

    mcmc_raw = _json_value(raw.get("mcmc", {}), "mcmc", (dict,), "a JSON object")
    _reject_unknown(mcmc_raw, set(MCMC_DEFAULTS), "mcmc")
    settings = {key: _json_value(mcmc_raw.get(key, default), f"mcmc.{key}", (int,),
                                 "an integer") for key, default in MCMC_DEFAULTS.items()}
    try:
        config = mcmc.McmcConfig(**settings)
    except ValueError as err:
        # McmcConfig's errors start with the key they are about
        raise ConfigError(f"mcmc.{err}") from err

    paths = _json_value(raw.get("paths", {}), "paths", (dict,), "a JSON object")
    _reject_unknown(paths, PATH_KEYS, "paths")
    for key, value in paths.items():
        _json_value(value, f"paths.{key}", (str,), "a string")
    return prior, config, paths


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args):
    prior, config, paths = load_run_config(args.config)
    data = Dataset.from_csv(_required(paths, "data", "paths.data"))
    out_dir = Path(paths.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    chains = mcmc.run_chains(data, prior, config)
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
        "mode_restrictions": mode.tolist(),
        "v_mean": float(pooled.v.mean()),
        "chains": [draws.stats for draws in chains],
    }
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote {len(chains)} chain file(s) and summary.json to {out_dir}")
    return 0


def cmd_simulate(args):
    data, truth = simulation.simulate(args.classes, args.n, args.seed)
    data.to_csv(args.out)
    if args.truth:
        truth.to_json(args.truth)
    if args.holdout:
        holdout = simulation.simulate_holdout(truth, args.holdout)
        out = Path(args.out)
        holdout.to_csv(args.holdout_out or out.with_stem(out.stem + "_holdout"))
    print(f"wrote {data.n} x {data.n_items} dataset to {args.out}")
    return 0


def _emit(payload, out):
    """Write ``payload`` as indented JSON to the file ``out``, or to stdout."""
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text)
    else:
        print(text)
    return 0


def cmd_cv(args):
    prior, config, paths = load_run_config(args.config)
    data = Dataset.from_csv(_required(paths, "data", "paths.data"))
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
    return _emit({"k": args.k, "results": table}, args.out)


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
    return _emit(payload, args.out)


def cmd_metrics(args):
    truth = simulation.SimulationTruth.from_json(args.truth)
    draws = mcmc.PosteriorDraws.from_jsonl(args.draws)
    holdout = Dataset.from_csv(args.holdout) if args.holdout else None
    perms = evaluation._aligned_permutations(draws)
    mode = evaluation.mode_restrictions(draws, perms)
    n_items, n_classes = mode.shape
    if truth.columns.shape != mode.shape:
        raise ValueError(f"truth has {truth.columns.shape[1]} classes x {truth.columns.shape[0]} "
                         f"items but the draws have {n_classes} classes x {n_items} items")
    if holdout is not None and holdout.n_items != n_items:
        raise ValueError(f"holdout has {holdout.n_items} items "
                         f"but the draws have {n_items} items")
    _, theta_bar = evaluation.posterior_mean_parameters(draws, perms)
    alignment = evaluation.align_classes(truth.theta_matrix(), theta_bar)
    sens, spec = evaluation.restriction_sensitivity_specificity(truth.columns, mode, alignment)
    payload = {
        "sensitivity": sens,
        "specificity": spec,
        "oos_loglik": None,
        "per_item_mode_columns": mode.tolist(),
    }
    if holdout is not None:
        payload["oos_loglik"] = evaluation.predictive_loglik(draws, holdout, args.mode, perms)
    return _emit(payload, args.out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_at_least(minimum):
    """An argparse type: an integer of at least ``minimum``, else exit 2."""
    def integer(text):
        value = int(text)  # argparse reports a ValueError as an invalid integer value
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esrlcm",
        description="Equivalence set restricted latent class models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model from a JSON run config")
    p_fit.add_argument("--config", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--classes", type=int, required=True,
                       choices=simulation.SUPPORTED_CLASS_COUNTS)
    p_sim.add_argument("--n", type=_int_at_least(1), required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--truth")
    p_sim.add_argument("--holdout", type=_int_at_least(0), default=0)
    p_sim.add_argument("--holdout-out")
    p_sim.set_defaults(func=cmd_simulate)

    p_cv = sub.add_parser("cv", help="K-fold cross-validated predictive fit")
    p_cv.add_argument("--config", required=True)
    p_cv.add_argument("--k", type=_int_at_least(2), default=20)
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
    p_id.add_argument("--budget", type=_int_at_least(1), default=5_000_000)
    p_id.add_argument("--verify-trials", type=_int_at_least(0), default=0)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, KeyError, ValueError,
            identifiability.BudgetExceededError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics derived from the spans and counts of a traced run.

Phases are the direct children of a chain span; a phase's time includes the
kernel spans nested inside it, so phases, retained-draw scoring and the
chain's own remaining time (``mcmc.driver``) add up to the sampling wall
time. Totals are divided by the number of traced sessions, so every figure
is per session, per sweep or per call as its name says.
"""

import numpy as np

from tracing import END, NAME, PARENT, START

PHASES = ("memberships", "class_counts", "pi", "base_move", "theta", "v")


def _duration(rec):
    return rec[END] - rec[START]


def _ratio(num, den):
    return num / den if den else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, sessions, cv_workers):
    spans = tracer.spans
    by_name = {}
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)

    def total_ms(name):
        return 1e3 * sum(_duration(r) for r in by_name.get(name, ())) / sessions

    def calls(name):
        return len(by_name.get(name, ())) / sessions

    chains = {i for i, rec in enumerate(spans) if rec[NAME] == "mcmc.chain"}
    sampling = sum(_duration(spans[i]) for i in chains)
    phase = dict.fromkeys(PHASES, 0.0)
    retained = []
    children = 0.0
    for rec in spans:
        if rec[PARENT] not in chains:
            continue
        key = rec[NAME].split(".", 1)[1]
        if rec[NAME] == "model.full_log_joint":
            retained.append(_duration(rec))
        elif key in phase:
            phase[key] += _duration(rec)
        else:
            continue  # an unrecognised direct child stays in the driver's time
        children += _duration(rec)
    sweeps = len(by_name.get("mcmc.memberships", ()))
    per_sweep = {f"mcmc.{p}.ms_per_sweep": 1e3 * _ratio(t, sweeps) for p, t in phase.items()}

    theta_us = [1e6 * _duration(r) for r in by_name.get("mcmc.theta", ())]
    s = tracer.counts
    out = {
        "kernels.class_loglik.ms": total_ms("kernels.class_loglik"),
        "kernels.categorical_rows.ms": total_ms("kernels.categorical_rows"),
        "kernels.class_counts.ms": total_ms("kernels.class_counts"),
        "kernels.class_counts.calls": calls("kernels.class_counts"),
        "kernels.bytes_computed": s["kernels.bytes"] / sessions,
        "mcmc.sampling.ms": 1e3 * sampling / sessions,
        **per_sweep,
        "mcmc.theta.update_us.p50": _pct(theta_us, 50),
        "mcmc.theta.update_us.p99": _pct(theta_us, 99),
        "mcmc.retain.ms_per_draw": 1e3 * _ratio(sum(retained), len(retained)),
        "mcmc.driver.ms_per_sweep": 1e3 * _ratio(sampling - children, sweeps),
        "mcmc.rj.accept_ratio": _ratio(s["rj.accepted"], s["rj.moves"]),
        "mcmc.v.accept_ratio": _ratio(s["v.accepted"], s["v.moves"]),
        "mcmc.theta.fallback_ratio": _ratio(s["theta.fallbacks"], s["theta.updates"]),
        "mcmc.theta.attempts_per_update": _ratio(s["theta.attempts"], s["theta.updates"]),
        "repelled_beta.sample.ms": total_ms("repelled_beta.sample"),
        "repelled_beta.sample.accept_ratio": _ratio(s["sample.draws"], s["sample.proposals"]),
        "repelled_beta.log_density_all_ones.calls": calls("repelled_beta.log_density_all_ones"),
        "repelled_beta.log_density_all_ones.ms": total_ms("repelled_beta.log_density_all_ones"),
        "model.full_log_joint.ms": total_ms("model.full_log_joint"),
        "model.base_vector_log_prior.calls": s["model.base_vector_log_prior"] / sessions,
        "model.canonicalize.calls": s["model.canonicalize"] / sessions,
        "evaluation.align_classes.calls": s["evaluation.align_classes"] / sessions,
        "evaluation.summary.ms": total_ms("evaluation.summary"),
        "evaluation.predictive_loglik.ms": total_ms("evaluation.predictive_loglik"),
        "io.draws_write.ms": total_ms("io.draws_write"),
        "io.draws_write.bytes": s["draws_write.bytes"] / sessions,
        "io.draws_read.ms": total_ms("io.draws_read"),
        "io.data_read.ms": total_ms("io.data_read"),
    }
    out.update(_cv_metrics(spans, by_name.get("evaluation.kfold_cv", ()), cv_workers, sessions))
    return out


def _cv_metrics(spans, cv_spans, workers, sessions):
    """Fold chains are the chain spans that start inside a ``kfold_cv`` span.

    Matching by time rather than by parent also counts chains whose spans a
    forked pool worker recorded (``perf_counter`` is one system-wide clock).
    """
    folds = [
        _duration(rec) for rec in spans
        if rec[NAME] == "mcmc.chain"
        and any(cv[START] <= rec[START] < cv[END] for cv in cv_spans)
    ]
    cv_wall = sum(_duration(cv) for cv in cv_spans)
    return {
        "evaluation.kfold_cv.ms": 1e3 * cv_wall / sessions,
        "evaluation.fold.ms.p50": 1e3 * _pct(folds, 50),
        "evaluation.cv.parallel_efficiency": _ratio(sum(folds), cv_wall * workers),
    }

"""In-memory spans around the esrlcm package's calls, installed from outside.

A traced run replaces module attributes with timing wrappers. Python resolves
a module-level name at call time, so each wrapper goes on the binding the
caller actually reads: the sampler calls ``mcmc.full_log_joint``, the name it
imported, not ``model.full_log_joint``. Spans are kept in memory and written once,
when the run ends. Spans recorded in a forked pool worker are appended to a
per-process file when the worker's outermost span closes, and merged by the
parent; a worker started with ``spawn`` imports the package unpatched and
records nothing.
"""

import contextlib
import json
import os
import time
from collections import Counter

from esrlcm import cli, evaluation, kernels, mcmc, model, repelled_beta, simulation

NAME, START, END, PARENT = range(4)


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self, worker_dir):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()  # call counts and sums recorded by result hooks
        self.active = True
        self._stack = []
        self._patches = []
        self._pid = os.getpid()
        self._worker_dir = worker_dir

    # -- wrappers ----------------------------------------------------------

    def timed(self, name, fn, hook=None):
        """Wrap ``fn`` in a span; ``hook(tracer, args, kwargs, result, err)`` sees each call."""
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            result = err = None
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                err = exc
                raise
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, result, err)
                if not self._stack and os.getpid() != self._pid:
                    self._flush_worker()
        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` to count calls only, for functions too hot for spans."""
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block: the benchmark's own output checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)``, keeping classmethods."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- worker spans ------------------------------------------------------

    def _flush_worker(self):
        path = os.path.join(self._worker_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        self.spans.clear()

    def merge_workers(self):
        """Append spans flushed by forked workers, re-basing parent indices."""
        for name in sorted(os.listdir(self._worker_dir)):
            if not name.startswith("spans-"):
                continue
            base = len(self.spans)
            with open(os.path.join(self._worker_dir, name)) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec[PARENT] >= 0:
                        rec[PARENT] += base
                    self.spans.append(rec)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent"), rec))) + "\n")


# ---------------------------------------------------------------------------
# hooks: counts measured where the work happens
# ---------------------------------------------------------------------------

def _array_bytes(values):
    return sum(getattr(v, "nbytes", 0) for v in values)


def _kernel_bytes(tracer, args, kwargs, result, err):
    out = result if isinstance(result, tuple) else (result,)
    tracer.counts["kernels.bytes"] += _array_bytes(args) + _array_bytes(out)


def _rj_result(tracer, args, kwargs, result, err):
    tracer.counts["rj.moves"] += 1
    tracer.counts["rj.accepted"] += bool(result and result[1])


def _v_result(tracer, args, kwargs, result, err):
    tracer.counts["v.moves"] += 1
    tracer.counts["v.accepted"] += bool(result and result[1])


def _theta_result(tracer, args, kwargs, result, err):
    if isinstance(result, tuple):
        tracer.counts["theta.updates"] += 1
        tracer.counts["theta.attempts"] += result[1]
        tracer.counts["theta.fallbacks"] += bool(result[2])


def _sample_result(tracer, args, kwargs, result, err):
    if err is None:
        attempts = result[1] if isinstance(result, tuple) else 1
        tracer.counts["sample.draws"] += 1
    else:
        attempts = args[2] if len(args) > 2 else kwargs.get("max_attempts", 0)
    tracer.counts["sample.proposals"] += attempts


def _draws_written(tracer, args, kwargs, result, err):
    if err is None:
        tracer.counts["draws_write.bytes"] += os.path.getsize(args[1])


def install(tracer):
    """Patch every binding the CLI commands reach, grouped by layer."""
    t, c = tracer.timed, tracer.counted
    for attr in ("class_loglik", "categorical_rows", "class_counts"):
        tracer.patch(kernels, attr, lambda f, a=attr: t(f"kernels.{a}", f, _kernel_bytes))

    sweep_calls = {
        "_update_all_memberships": "mcmc.memberships",
        "_class_count_cache": "mcmc.class_counts",
        "gibbs_update_pi": "mcmc.pi",
        "gibbs_update_base_class_v0": "mcmc.base_move",
        "full_log_joint": "model.full_log_joint",
    }
    for attr, name in sweep_calls.items():
        tracer.patch(mcmc, attr, lambda f, n=name: t(n, f))
    tracer.patch(mcmc, "rj_update_base_class", lambda f: t("mcmc.base_move", f, _rj_result))
    tracer.patch(mcmc, "gibbs_update_theta", lambda f: t("mcmc.theta", f, _theta_result))
    tracer.patch(mcmc, "metropolis_update_v", lambda f: t("mcmc.v", f, _v_result))
    tracer.patch(mcmc, "run_chain", lambda f: t("mcmc.chain", f))
    tracer.patch(evaluation, "run_chain", lambda f: t("mcmc.chain", f))

    tracer.patch(repelled_beta, "sample", lambda f: t("repelled_beta.sample", f, _sample_result))
    tracer.patch(repelled_beta, "log_density_all_ones",
                 lambda f: t("repelled_beta.log_density_all_ones", f))

    for owner in (mcmc, model):
        tracer.patch(owner, "base_vector_log_prior",
                     lambda f: c("model.base_vector_log_prior", f))
    for owner in (mcmc, model, evaluation):
        tracer.patch(owner, "canonicalize", lambda f: c("model.canonicalize", f))

    tracer.patch(evaluation, "align_classes", lambda f: c("evaluation.align_classes", f))
    for attr in ("posterior_mean_parameters", "mode_restrictions"):
        tracer.patch(evaluation, attr, lambda f: t("evaluation.summary", f))
    tracer.patch(evaluation, "predictive_loglik", lambda f: t("evaluation.predictive_loglik", f))
    tracer.patch(evaluation, "kfold_cv", lambda f: t("evaluation.kfold_cv", f))

    tracer.patch(mcmc.PosteriorDraws, "to_jsonl", lambda f: t("io.draws_write", f, _draws_written))
    tracer.patch(mcmc.PosteriorDraws, "from_jsonl", lambda f: t("io.draws_read", f))
    tracer.patch(model.Dataset, "from_csv", lambda f: t("io.data_read", f))
    tracer.patch(simulation, "simulate", lambda f: t("simulation.simulate", f))

    for attr in ("cmd_simulate", "cmd_fit", "cmd_metrics", "cmd_cv"):
        tracer.patch(cli, attr, lambda f, a=attr: t(f"cli.{a[4:]}", f))

"""Benchmark of the esrlcm command line: fit, score and cross-validation.

Run from the repository root:

    python3 perfbench/run.py --workload desk-c4-n2k-free --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric by name and unit. ``--trace 1``
runs the same session with spans around each layer and prints the per-layer
metrics instead; its spans go to ``.bench_out/results/``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file recording the environment is written
next to it. The exit status is 0 only when every command succeeded and every
output passed its check.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
PINNED_BLAS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "ESRLCM_THREADS")


def _declared_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode.

    The result line carries exactly these. Metrics of layers that only the
    ungated desk workload exercises (v, reversible jump, theta' rejection,
    fold timings) are printed and kept in the result file only.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def _import_package():
    """Put the checkout's ``src`` first on the path, or stop with status 2."""
    package = ROOT / "src" / "esrlcm" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the set-up and pinned-BLAS child processes.
    parser.add_argument("--stage", choices=("bench", "prepare", "replay"), default="bench",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _child(args, stage, workdir, env=None):
    """Run this script as a child stage; return (wall seconds, last stdout line)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--stage", stage, "--dir", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{stage} child failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed, (proc.stdout.strip().splitlines() or [""])[-1]


def environment():
    import numpy as np
    import scipy

    import esrlcm

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "esrlcm_backend": esrlcm.ACTIVE_BACKEND,
        "commit": commit,
    }


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest finished child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


class Tally:
    """Commands attempted and failed, for the result line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.errors.append(f"{what}: {traceback.format_exc()}")
            raise


def _session(tally, wl, seed, workdir, reference, tracer=None, repeat=False):
    """One checked session; the outputs must repeat the first session's exactly."""
    from workloads import same_outputs, session

    checking = tracer.paused if tracer else contextlib.nullcontext
    times, outputs = tally.run("session", session, wl, seed, workdir, checking, repeat)
    tally.attempted += sum(map(len, times.values())) - 1  # one entry per CLI command
    if reference is not None and not same_outputs(reference, outputs):
        tally.failed += 1
        tally.errors.append("session: outputs differ from the first run of the same seed")
    return times, outputs


def _timed_sessions(tally, wl, seed, workdir, seconds, reference=None, tracer=None,
                    repeat=False):
    """Repeat the session until ``seconds`` would be overrun; at least once."""
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        times, outputs = _session(tally, wl, seed, workdir, reference, tracer, repeat)
        reference = reference if reference is not None else outputs
        runs.append((times, outputs))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return runs


def _pooled(runs, command):
    """Median of one command's wall times over every session of a run."""
    return statistics.median(t for times, _ in runs for t in times[command])


def _ess_per_s(outputs, fit_s):
    """Bulk ESS per second of fitting; 0 for a v held fixed."""
    import numpy as np

    from ess import bulk_ess

    out = {"ess_per_s.log_joint": bulk_ess(outputs["log_joint"]) / fit_s}
    v = outputs["v"]
    out["ess_per_s.v"] = bulk_ess(v) / fit_s if np.ptp(v) > 0 else 0.0
    return out


def _quality(outputs):
    return {
        "quality.sensitivity": outputs["sensitivity"],
        "quality.specificity": outputs["specificity"],
        "quality.cv_nll": -outputs["cv_loglik"] if "cv_loglik" in outputs else 0.0,
    }


def end_to_end(tally, args, wl, workdir, setup_times):
    runs = _timed_sessions(tally, wl, args.seed, workdir, args.seconds, repeat=True)
    fit_s = _pooled(runs, "fit")
    outputs = runs[0][1]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "session_s": statistics.median(
            sum(statistics.median(ts) for ts in times.values()) for times, _ in runs),
        "fit_s": fit_s,
        "ms_per_sweep": 1e3 * fit_s / wl.sweeps,
        "score_s": _pooled(runs, "metrics"),
        "oos_nll": -outputs["oos_loglik"],
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"sessions": len(runs), **_ess_per_s(outputs, fit_s), **_quality(outputs)}
    if wl.cv_k:
        info["cv_s"] = _pooled(runs, "cv")
    info["session_times"] = [t for t, _ in runs]
    return metrics, info


def per_layer(tally, args, wl, workdir):
    """Traced set-up, an untraced baseline session, traced sessions, then the
    same session in a child process pinned to one BLAS thread."""
    from layers import layer_metrics
    from tracing import Tracer, install
    from workloads import prepare

    spans_dir = workdir / "spans"
    spans_dir.mkdir(parents=True)
    prep = Tracer(spans_dir)
    install(prep)
    try:
        tally.run("setup (traced)", prepare, wl, args.seed, workdir)
    finally:
        prep.uninstall()
    simulate_ms = 1e3 * sum(r[2] - r[1] for r in prep.spans if r[0] == "simulation.simulate")

    base_times, base_outputs = _session(tally, wl, args.seed, workdir, None)

    tracer = Tracer(spans_dir)
    install(tracer)
    try:
        runs = _timed_sessions(tally, wl, args.seed, workdir, args.seconds, base_outputs,
                               tracer)
    finally:
        tracer.uninstall()
    tracer.merge_workers()

    _, line = tally.run("pinned-BLAS replay", _child, args, "replay", workdir,
                        {**os.environ, **PINNED_BLAS})
    pinned_fit = json.loads(line)["fit"][0]

    base_fit = base_times["fit"][0]
    metrics = layer_metrics(tracer, len(runs), wl.cv_threads or 1)
    metrics.update({
        "simulation.simulate.ms": simulate_ms,
        "kernels.blas1_ratio": base_fit / pinned_fit,
        "trace.overhead_ratio": _pooled(runs, "fit") / base_fit,
        **_ess_per_s(base_outputs, base_fit),
        **_quality(base_outputs),
    })
    spans_path = OUT / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write(spans_path)
    return metrics, {"traced_sessions": len(runs), "spans_file": str(spans_path)}


def main(argv=None):
    args = _parse(argv)
    _import_package()
    from workloads import WORKLOADS, prepare, session

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if wl.cv_threads:
        os.environ["ESRLCM_THREADS"] = str(wl.cv_threads)
    if args.stage == "prepare":
        prepare(wl, args.seed, args.dir)
        return 0
    if args.stage == "replay":
        times, _ = session(wl, args.seed, Path(args.dir))
        print(json.dumps(times))
        return 0

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tally = Tally()
    metrics, info = {}, {}
    try:
        if args.trace:
            metrics, info = per_layer(tally, args, wl, workdir)
        else:
            setup_times = [tally.run("setup", _child, args, "prepare", workdir)[0]
                           for _ in range(SETUP_REPS)]
            metrics, info = end_to_end(tally, args, wl, workdir, setup_times)
    except Exception:  # recorded by the tally; reported below as a failed run
        if not tally.failed:
            tally.failed += 1
            tally.errors.append(traceback.format_exc())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = _declared_metrics(args.trace)
    if metrics and not set(units) <= set(metrics):
        tally.failed += 1
        tally.errors.append(f"metrics {sorted(set(units) - set(metrics))} declared in "
                            "BENCHMARK.json were not measured")
    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "metrics": metrics, "info": info,
        "errors": tally.errors, "environment": environment(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(result, indent=2, default=float))

    for error in tally.errors:
        print(error, file=sys.stderr)
    for name, value in {**metrics, **info}.items():
        if name != "session_times":
            print(f"{args.workload}  {name:44s} {value}  {units.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items() if name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

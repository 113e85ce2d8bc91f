#!/usr/bin/env python3
"""End-to-end benchmark of the leray pipeline, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Jobs are seeded CLI documents sent through ``leray.cli.main([...,
"--emit", "machine"])`` in this process: a closed loop with one client,
one process and one thread.  Every report goes through the correctness
gate (gate.py).  The package is imported from ``src/`` next to this
directory, never from an installed copy.

--trace 0 times whole rounds of jobs for about --seconds and prints the
end-to-end metrics.  --trace 1 takes a fixed job list, determined by the
seed and --seconds alone, runs it once untraced and once traced, and
prints the per-layer metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before
it records the environment.  The exit code is 1 when any report is
wrong, 2 when the sources or the frozen expectations are missing.

See README.md in this directory for every metric and workload.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import gate
import tracing
from workloads import WORKLOADS, job_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# setup_s is the median over fresh processes: at least SETUP_MIN_PROBES,
# and more until SETUP_MIN_SECONDS have been spent on them.
SETUP_MIN_PROBES = 7
SETUP_MIN_SECONDS = 3.0

# Runs in a fresh interpreter: import leray, then build the bases.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from leray.simplicial import builtin
for name in sys.argv[2:]:
    builtin(name)
print(time.perf_counter() - t0)
"""


def load_leray():
    """Import leray from ``src/`` of this checkout; exit 2 if absent."""
    if not os.path.isfile(os.path.join(SRC, "leray", "__init__.py")):
        print("error: no leray sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import leray.cli
    return leray


def prepare(leray, workload):
    """Build the workload's bases in this process and its catalogue.

    ncp bases go through ``resolve_base``, the package's own per-process
    cache, so timed jobs do not pay for the first build.
    """
    from leray.ncp_bundles import resolve_base
    from leray.simplicial import builtin
    complexes = [builtin(name) for name in workload.bases]
    for name in workload.ncp_bases:
        resolve_base(name)
    return workload.catalogue(list(complexes[0].simplices(2)))


def measure_setup(workload):
    """setup_s samples: import plus base builds, each in a fresh process."""
    samples = []
    start = time.perf_counter()
    while len(samples) < SETUP_MIN_PROBES or \
            time.perf_counter() - start < SETUP_MIN_SECONDS:
        res = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_PROBE, SRC] + workload.bases,
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(res.stdout.split()[-1]))
    return samples


def run_job(leray, job):
    """One CLI invocation in this process: (exit code, stdout, seconds)."""
    argv = [job["command"], "--input", "-", "--emit", "machine"] + job["args"]
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job["doc"]))
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = leray.cli.main(argv)
            except Exception:  # a traceback is a failed job, not a crash
                code = 1
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), elapsed


class Run:
    """Job times and gate verdicts of one benchmark invocation."""

    def __init__(self, leray, checker):
        self.leray = leray
        self.checker = checker
        self.attempted = 0
        self.failures = []

    def rounds(self, batches, seconds=None, tracer=None):
        """Run batches of jobs; with ``seconds``, start no round that
        would end past it by the last round's time (at least one round).
        Returns (job seconds, jobs correct, round seconds)."""
        times, correct, round_times = [], 0, []
        start = time.perf_counter()
        for batch in batches:
            if seconds is not None and round_times and \
                    time.perf_counter() - start + round_times[-1] > seconds:
                break
            round_start = time.perf_counter()
            for job in batch:
                if tracer is not None:
                    tracer.job = len(times)
                code, text, elapsed = run_job(self.leray, job)
                times.append(elapsed)
                key = job_key(job)
                errors = self.checker.errors(job, key, code, text)
                self.attempted += 1
                if errors:
                    self.failures.append((key, errors))
                else:
                    correct += 1
            round_times.append(time.perf_counter() - round_start)
        return times, correct, round_times


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def end_to_end(leray, workload, catalogue, run, args):
    batches = workload.rounds(catalogue, args.seed)
    times, correct, round_times = run.rounds(batches, seconds=args.seconds)
    setup = measure_setup(workload)
    n = len(times)
    # Rounds hold the same mix of job kinds, so the median round is a
    # steadier base for the rate than the whole loop.
    per_round = correct / len(round_times)
    metrics = {
        "jobs_per_s": (per_round / statistics.median(round_times), "1/s"),
        "job_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }
    extra = {"fail_ratio": (len(run.failures) / run.attempted, "ratio")}
    samples = {"jobs_per_s": len(round_times), "job_ms_p50": n,
               "setup_s": len(setup), "peak_rss_mb": 1,
               "fail_ratio": run.attempted}
    if n >= 100:  # at least ten samples lie beyond the 90th percentile
        extra["job_ms_p90"] = (
            statistics.quantiles(times, n=10)[-1] * 1e3, "ms")
        samples["job_ms_p90"] = n
    return metrics, extra, samples


def per_layer(leray, workload, catalogue, run, args):
    rounds = workload.trace_rounds(args.seconds)
    batches = list(itertools.islice(workload.rounds(catalogue, args.seed),
                                    rounds))
    untraced, _, _ = run.rounds(batches)
    tracer = tracing.Tracer(args.seed)
    tracer.install()
    try:
        prepare(leray, workload)  # traced set-up, job id -1
        traced, _, _ = run.rounds(batches, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced, untraced)
    samples = {"trace.job_ms_p50": len(traced),
               "trace.overhead_ms": len(traced)}
    return metrics, {}, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    leray = load_leray()
    workload = WORKLOADS[args.workload]
    try:
        expected = gate.load_expected(workload.name)
    except OSError as exc:
        print("error: frozen expectations missing: %s" % exc, file=sys.stderr)
        return 2
    catalogue = prepare(leray, workload)
    run = Run(leray, gate.Gate(expected))
    measure = per_layer if args.trace else end_to_end
    metrics, extra, samples = measure(leray, workload, catalogue, run, args)

    print("workload %s  seed %d  trace %d  jobs %d"
          % (workload.name, args.seed, args.trace, run.attempted))
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        shown = "%d" % value if isinstance(value, int) else "%.6f" % value
        count = samples.get(name)
        print("  %-40s %16s %-6s%s" % (name, shown, unit,
                                       "  (n=%d)" % count if count else ""))
    cert_failures = metrics.get("exactlinalg.snf.cert_failures", (0,))[0]
    if cert_failures:
        print("WARNING: %d SNF results broke their contract" % cert_failures)
    for key, errors in run.failures[:10]:
        print("FAIL job %s: %s" % (key[:12], "; ".join(errors)),
              file=sys.stderr)
    env = {"commit": git_commit(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
           "workload": workload.name, "trace": args.trace,
           "seconds": args.seconds, "backend": leray._kernel.BACKEND,
           "samples": samples}
    print(json.dumps({"env": env}, sort_keys=True))
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

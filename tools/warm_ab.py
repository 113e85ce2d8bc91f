#!/usr/bin/env python3
"""Warm A/B timing of two checkouts on the benchmark catalogues.

    python3 tools/warm_ab.py OTHER_TREE [--workload W] [--reps N]

Copies ``src/leray`` of OTHER_TREE and of the checkout beside this
directory into a temporary directory, as the packages ``leray_other``
and ``leray_this`` (the package imports itself relatively, so a copy
under another name is a whole package), and imports both into this
process.  For each workload of ``perfbench/workloads.py`` (all, or the
one named), every catalogue job runs once through each package's
``cli.main``, as ``leray <command> --input - --emit machine`` would;
both must give the same exit code and byte-identical stdout and
stderr, or the tool stops.  That run also warms both packages' caches.
Then N repetitions (default 200) run the catalogue again, job by job,
each job on both packages back to back, the first package alternating
between repetitions.

Prints one line per workload category: its job count, the median over
the repetitions of the mean milliseconds per job on each tree, the
change of this tree against OTHER_TREE, and in how many repetitions
this tree was faster.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # nothing is written under perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

NAMES = ("leray_other", "leray_this")


def load(trees, scratch):
    """The ``cli`` modules of the copies of each tree's package."""
    sys.path.insert(0, scratch)
    clis = []
    for name, tree in zip(NAMES, trees):
        shutil.copytree(os.path.join(tree, "src", "leray"),
                        os.path.join(scratch, name),
                        ignore=shutil.ignore_patterns("__pycache__"))
        clis.append(importlib.import_module(name + ".cli"))
    return clis


def run(cli, job):
    """(exit code, stdout, stderr, seconds) of one CLI run of ``job``."""
    argv = [job["command"], "--input", "-", "--emit", "machine"] + job["args"]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job["doc"]))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), elapsed


def compare(clis, workload, reps):
    """{category: (jobs, [ms per job on each tree, per repetition])}."""
    builtin = importlib.import_module(NAMES[1] + ".simplicial").builtin
    triangles = list(builtin(workload.bases[0]).simplices(2))
    out = {}
    for category, jobs in workload.catalogue(triangles).items():
        for job in jobs:
            other, this = (run(cli, job)[:3] for cli in clis)
            if other != this:
                raise SystemExit("%s/%s: the trees' reports differ"
                                 % (workload.name, category))
        samples = []
        for rep in range(reps):
            order = (0, 1) if rep % 2 else (1, 0)
            total = [0.0, 0.0]
            for job in jobs:
                for k in order:
                    total[k] += run(clis[k], job)[3]
            samples.append([1e3 * t / len(jobs) for t in total])
        out[category] = (len(jobs), samples)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_tree")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--reps", type=int, default=200)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    with tempfile.TemporaryDirectory() as scratch:
        clis = load((args.other_tree, ROOT), scratch)
        print("%-40s %5s %10s %10s %8s %9s" % (
            "workload/category", "jobs", "other ms", "this ms", "change",
            "faster"))
        for name in names:
            for category, (jobs, samples) in compare(
                    clis, WORKLOADS[name], args.reps).items():
                other = statistics.median(s[0] for s in samples)
                this = statistics.median(s[1] for s in samples)
                faster = sum(1 for s in samples if s[1] < s[0])
                print("%-40s %5d %10.4f %10.4f %+7.1f%% %4d/%d" % (
                    "%s/%s" % (name, category), jobs, other, this,
                    100 * (this / other - 1), faster, len(samples)))


if __name__ == "__main__":
    main()

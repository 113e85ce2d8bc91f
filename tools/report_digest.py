#!/usr/bin/env python3
"""One digest of every benchmark catalogue report, in both emit modes.

    python3 tools/report_digest.py

Runs each job document of every workload in ``perfbench/workloads.py``
through ``leray.cli.main`` of the ``src/`` beside this directory, once
with ``--emit human`` and once with ``--emit machine``, in this
process, and prints one SHA-256 over the exit code, stdout and stderr
of every run, in catalogue order.  Two checkouts that print the same
digest give byte-identical reports on the whole catalogue.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from leray import cli  # noqa: E402
from leray.simplicial import builtin  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODES = ("human", "machine")


def run(job, emit):
    """(exit code, stdout, stderr) of one CLI run of ``job``."""
    argv = [job["command"], "--input", "-", "--emit", emit] + job["args"]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(job["doc"]))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def main():
    digest = hashlib.sha256()
    runs = 0
    for workload in WORKLOADS.values():
        triangles = list(builtin(workload.bases[0]).simplices(2))
        for jobs in workload.catalogue(triangles).values():
            for job in jobs:
                for emit in MODES:
                    digest.update(json.dumps(run(job, emit)).encode("utf-8"))
                    runs += 1
    print("%d runs %s" % (runs, digest.hexdigest()))


if __name__ == "__main__":
    main()

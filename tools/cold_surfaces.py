#!/usr/bin/env python3
"""Time one cold ``ncp`` job per surface base, each in a fresh process.

    python3 tools/cold_surfaces.py [g ...]

For each genus g (default 8, 16, 32, 49, 100, 113) a fresh ``python3
-I`` process imports ``leray`` from the ``src/`` beside this directory
and runs one ``ncp`` job on ``genus(g)``, windings (2, 4, 0, ...) and
Chern pairings (1, 0), as ``leray ncp --emit machine`` would: it builds
the base through the per-process cache, which makes the reduced
presentation's tree and forest, whose signs orient the surface, then
reads its tree gauge, which walks the relator for its exponent sums,
then runs the job, which finds all of them kept.  Prints the
milliseconds of each step and their total, as the process measures
them, then the wall time of the whole process, interpreter start and
exit included, and its peak resident set size.  A job that does not
exit 0 stops the tool.
"""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERA = (8, 16, 32, 49, 100, 113)

# Runs in a fresh interpreter: argv[1] is src/, argv[2] the genus.
_PROBE = """
import contextlib, io, json, resource, sys, time
clock = time.perf_counter
t = [clock()]
sys.path.insert(0, sys.argv[1])
from leray import cli
from leray.simplicial import shared_builtin
t.append(clock())
g = int(sys.argv[2])
x = shared_builtin("genus(%d)" % g)
t.append(clock())
x.tree_gauge
t.append(clock())
doc = {"bundle": {"base": "genus(%d)" % g, "chern": [1, 0],
                  "windings": [2, 4] + [0] * (2 * g - 2)}}
sys.stdin = io.StringIO(json.dumps(doc))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["ncp", "--input", "-", "--emit", "machine"])
t.append(clock())
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "rss_kib": rss,
                  "ms": [1e3 * (b - a) for a, b in zip(t, t[1:])]}))
"""

STEPS = ("import", "build", "gauge", "job")


def probe(g):
    """{"code", "ms" (one per step), "rss_kib", "process_ms"} of one
    fresh process."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-I", "-c", _PROBE,
                          os.path.join(ROOT, "src"), str(g)],
                         capture_output=True, text=True, check=True)
    run = json.loads(out.stdout)
    run["process_ms"] = 1e3 * (time.perf_counter() - start)
    return run


def main(genera):
    print("%-11s" % "base" + "".join("%9s" % s for s in STEPS)
          + "%9s %9s %6s" % ("total", "process", "MiB"))
    for g in genera:
        run = probe(g)
        if run["code"]:
            raise SystemExit("genus(%d): ncp exited %d" % (g, run["code"]))
        print("%-11s" % ("genus(%d)" % g)
              + "".join("%9.2f" % ms for ms in run["ms"])
              + "%9.2f %9.2f %6.1f" % (sum(run["ms"]), run["process_ms"],
                                       run["rss_kib"] / 1024))


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or GENERA)

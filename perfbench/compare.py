#!/usr/bin/env python3
"""Compare two saved outputs of run.py, metric by metric.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file is the stdout of one run.py invocation.  Runs made with
different kernel backends, workloads or trace modes are not compared
(exit 2): their numbers measure different programs.
"""

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    env = next(json.loads(line)["env"] for line in lines
               if line.startswith('{"env"'))
    return env, json.loads(lines[-1])


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = load(argv[0]), load(argv[1])
    for field in ("backend", "workload", "trace"):
        if env_a[field] != env_b[field]:
            print("refusing to compare: %s %r vs %r"
                  % (field, env_a[field], env_b[field]), file=sys.stderr)
            return 2
    print("%-40s %-6s %16s %16s %9s" % ("metric", "unit", argv[0], argv[1],
                                        "change"))
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            continue
        change = "%+8.2f%%" % (100.0 * (b["value"] - a["value"]) / a["value"]) \
            if a["value"] else "       -"
        print("%-40s %-6s %16.6g %16.6g %9s"
              % (name, a["unit"], a["value"], b["value"], change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Freeze the invariants of every catalogue job into expected/.

    python3 perfbench/freeze.py [WORKLOAD ...]

Run this only when a catalogue changes, and only on a commit whose
answers are trusted: the frozen values are what later commits are
checked against.  A job whose report fails the closed-form checks is
not frozen; the script exits 1 instead.
"""

import json
import sys

import gate
from run import load_leray, prepare, run_job
from workloads import CATALOGUE_SEED, WORKLOADS, job_key


def freeze(leray, workload):
    catalogue = prepare(leray, workload)
    frozen, bad = {}, 0
    for cat in sorted(catalogue):
        for job in catalogue[cat]:
            code, text, _ = run_job(leray, job)
            errors = ["exit code %d" % code] if code else \
                gate.closed_form_errors(job, json.loads(text))
            if errors:
                bad += 1
                print("%s/%s: %s" % (workload.name, cat, "; ".join(errors)),
                      file=sys.stderr)
                continue
            frozen[job_key(job)] = gate.invariants(json.loads(text))
    # One job per line keeps the file small and its diffs readable.
    lines = ["  %s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True))
             for key, value in sorted(frozen.items())]
    with open(gate.expected_path(workload.name), "w", encoding="utf-8") as fh:
        fh.write('{"catalogue_seed": %d, "jobs": {\n%s\n}}\n'
                 % (CATALOGUE_SEED, ",\n".join(lines)))
    print("%s: %d jobs frozen" % (workload.name, len(frozen)))
    return bad


def main(names):
    leray = load_leray()
    bad = sum(freeze(leray, WORKLOADS[n]) for n in names or sorted(WORKLOADS))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

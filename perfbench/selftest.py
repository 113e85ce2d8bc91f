"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Not named test_*.py on purpose: the package's own test suite does not
collect it, because one run of ncp-genus8 takes about half a minute.
Every workload runs once on a seed that was not used while tuning the
benchmark, and must pass the correctness gate.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, job_key  # noqa: E402

HELD_OUT_SEED = 7919


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_gate_on_held_out_seed(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", str(HELD_OUT_SEED),
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {"jobs_per_s", "job_ms_p50", "setup_s",
                                   "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_counts_repeat_exactly():
    args = ("--workload", "ncp-torus2-sweep", "--seed", str(HELD_OUT_SEED),
            "--seconds", "1", "--trace", "1")
    first, second = bench(ROOT, *args), bench(ROOT, *args)
    assert first.returncode == 0 and second.returncode == 0, first.stderr
    a, b = result_of(first)["metrics"], result_of(second)["metrics"]
    for name in ("exactlinalg.snf.calls", "exactlinalg.snf.cells",
                 "exactlinalg.matmul.madds"):
        assert a[name]["value"] == b[name]["value"] > 0
    assert a["exactlinalg.snf.cert_failures"]["value"] == 0
    assert 0.95 < a["trace.coverage"]["value"] <= 1.0


def test_gate_rejects_a_wrong_report():
    leray = run.load_leray()
    workload = WORKLOADS["ncp-torus2-sweep"]
    job = next(j for j in run.prepare(leray, workload)["ncp"]
               if any(j["doc"]["bundle"]["windings"]))
    code, text, _ = run.run_job(leray, job)
    checker = gate.Gate(gate.load_expected(workload.name))
    assert checker.errors(job, job_key(job), code, text) == []
    report = json.loads(text)
    report["k_gcd"] += 1
    wrong = json.dumps(report, sort_keys=True, indent=2)
    assert checker.errors(job, job_key(job), 0, wrong)
    assert gate.Gate({}).errors(job, job_key(job), 1, "")


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "--workload", "ncp-torus2-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_backends(tmp_path):
    def saved(name, backend):
        env = {"backend": backend, "workload": "local-rank6", "trace": 0}
        res = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {"job_ms_p50": {"value": 1.0, "unit": "ms"}}}
        path = tmp_path / name
        path.write_text(json.dumps({"env": env}) + "\n" + json.dumps(res))
        return str(path)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"),
         saved("a.txt", "pure"), saved("b.txt", "c")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "backend" in proc.stderr

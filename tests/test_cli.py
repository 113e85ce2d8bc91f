import json
import os
import resource
import subprocess
import sys

import pytest

from leray import cli, exactlinalg


RUN = [sys.executable, "-m", "leray.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(tmp_path, command, doc, *extra, **kwargs):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    return subprocess.run(RUN + [command, "--input", str(path)] + list(extra),
                          capture_output=True, text=True, env=ENV, **kwargs)


def test_cohomology_torus_constant(tmp_path):
    doc = {"complex": "torus2", "system": {"rank": 1, "constant": True}}
    res = run_cli(tmp_path, "cohomology", doc)
    assert res.returncode == 0
    assert "H^0      Z" in res.stdout
    assert "H^1      Z^2" in res.stdout
    assert "H^2      Z" in res.stdout


def test_cohomology_machine_output(tmp_path):
    doc = {"complex": "torus2",
           "system": {"rank": 2,
                      "monodromy": [[[1, 2], [0, 1]], [[1, 4], [0, 1]]]}}
    res = run_cli(tmp_path, "cohomology", doc, "--emit", "machine")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["command"] == "cohomology"
    assert [g["group"] for g in payload["groups"]] == \
        ["Z", "Z^2 (+) Z/2", "Z (+) Z/2"]


def test_byte_identical_reports(tmp_path):
    doc = {"complex": "genus(2)", "system": {"rank": 1, "constant": True}}
    first = run_cli(tmp_path, "cohomology", doc, "--emit", "machine")
    second = run_cli(tmp_path, "cohomology", doc, "--emit", "machine")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_group_cohomology(tmp_path):
    doc = {"system": {"rank": 2,
                      "monodromy": [[[1, 2], [0, 1]], [[1, 4], [0, 1]]]}}
    res = run_cli(tmp_path, "group-cohomology", doc, "--emit", "machine")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert [g["group"] for g in payload["groups"]] == \
        ["Z", "Z^2 (+) Z/2", "Z (+) Z/2"]


def test_spectral_command(tmp_path):
    doc = {"complex": "torus2",
           "system": {"even": {"rank": 1, "constant": True},
                      "odd": {"rank": 0, "constant": True}}}
    res = run_cli(tmp_path, "spectral", doc, "--emit", "machine")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["d2"] == "assumed zero"
    assert [p["group"] for p in payload["k0"]["pieces"]] == ["Z", "0", "Z"]
    assert [p["group"] for p in payload["k1"]["pieces"]] == ["0", "Z^2", "0"]
    assert payload["k0"]["extension_ambiguous"] is True


def test_ncp_command_paper_report(tmp_path):
    doc = {"bundle": {"base": "torus2", "windings": [2, 4], "chern": [1, 0]}}
    res = run_cli(tmp_path, "ncp", doc)
    assert res.returncode == 0
    assert "k = gcd(windings) = 2" in res.stdout
    assert "d2[U_1] = 1 (mod 2)" in res.stdout
    assert "d2[U_2] = 0 (mod 2)" in res.stdout
    assert "verdict: not RKK-trivial" in res.stdout


def test_ncp_trivial_verdict(tmp_path):
    doc = {"bundle": {"base": "torus2", "windings": [0, 0], "chern": [0, 0]}}
    res = run_cli(tmp_path, "ncp", doc, "--emit", "machine")
    payload = json.loads(res.stdout)
    assert payload["verdict"]["trivial"] is True


def test_check_command_ok(tmp_path):
    doc = {"complex": "torus2",
           "system": {"rank": 2,
                      "monodromy": [[[1, 2], [0, 1]], [[1, 4], [0, 1]]]}}
    res = run_cli(tmp_path, "check", doc)
    assert res.returncode == 0
    assert "result: ok" in res.stdout


def test_check_command_detects_nonflat(tmp_path):
    # hand-built transports with one perturbed edge: flatness violated
    doc = {"complex": {"vertices": 3, "simplices": [[0, 1, 2]]},
           "system": {"rank": 1,
                      "transports": {"0-1": [[1]], "1-2": [[1]],
                                     "0-2": [[-1]]}}}
    res = run_cli(tmp_path, "check", doc)
    assert res.returncode == 1
    assert "violations" in res.stdout


def test_malformed_matrix_exit_2(tmp_path):
    doc = {"complex": "torus2",
           "system": {"rank": 2, "monodromy": [[[1, 2], [0]], [[1, 0], [0, 1]]]}}
    res = run_cli(tmp_path, "cohomology", doc)
    assert res.returncode == 2
    assert "input error" in res.stderr


_MONO = [[[1, 2], [0, 1]], [[1, 4], [0, 1]]]
_CONSTANT = {"rank": 1, "constant": True}
_IDENTITY_17 = [[int(i == j) for j in range(17)] for i in range(17)]
_RANK_16 = {"rank": 16, "constant": True}
_GENUS_60 = {"base": "genus(60)", "windings": [2, 4] + [0] * 118,
             "chern": [1, 0]}


def _limit_memory():
    limit = 1 << 30  # 1 GiB of address space
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("command, doc", [
    ("cohomology", {"complex": "torus2",
                    "system": {"rank": 1, "monodromy": 5}}),
    ("cohomology", {"complex": "torus2",
                    "system": {"rank": 1, "transports": [1]}}),
    ("cohomology", {"complex": "torus2",
                    "system": {"rank": True, "constant": True}}),
    ("group-cohomology", {"system": {"rank": True, "monodromy": _MONO}}),
    ("ncp", {"bundle": {"base": "torus2", "windings": [1, 2], "chern": 5}}),
    ("ncp", {"bundle": {"base": "torus2", "windings": [1.5, 2],
                        "chern": [1, 0]}}),
    ("ncp", {"bundle": {"base": "torus2", "windings": ["a", 2],
                        "chern": [1, 0]}}),
    ("ncp", {"bundle": {"base": "torus2", "windings": [True, 2],
                        "chern": [1, 0]}}),
    ("cohomology", {"complex": "circle(1000000000)", "system": _CONSTANT}),
    ("cohomology", {"complex": "simplex(60)", "system": _CONSTANT}),
    ("cohomology", {"complex": "genus(1000000000)", "system": _CONSTANT}),
    ("cohomology", {"complex": {"vertices": 10 ** 12, "simplices": []},
                    "system": _CONSTANT}),
    ("cohomology", {"complex": {"vertices": 70,
                                "simplices": [list(range(70))]},
                    "system": _CONSTANT}),
    ("cohomology", {"complex": "torus2",
                    "system": {"rank": 10 ** 9, "constant": True}}),
    ("group-cohomology", {"system": {"rank": 17,
                                     "monodromy": [_IDENTITY_17]}}),
    ("cohomology", {"complex": {"vertices": True, "simplices": [[0]]},
                    "system": _CONSTANT}),
    ("cohomology", {"complex": {"vertices": 3.5, "simplices": [[0, 1]]},
                    "system": _CONSTANT}),
    ("cohomology", {"complex": "circle(2500)", "system": _RANK_16}),
    ("spectral", {"complex": "circle(2500)",
                  "system": {"even": _RANK_16, "odd": _RANK_16}}),
    ("ncp", {"bundle": {"base": "torus2", "windings": [0, 0],
                        "chern": [0, 0], "n": 3}}),
    ("ncp", {"bundle": _GENUS_60}),
], ids=["monodromy-int", "transports-list", "rank-bool", "group-rank-bool",
        "chern-int", "winding-float", "winding-str", "winding-bool",
        "circle-1e9", "simplex-60", "genus-1e9", "vertices-1e12",
        "simplex-70-inline", "rank-1e9", "group-rank-17", "vertices-bool",
        "vertices-float", "cohomology-circle-2500-rank-16",
        "spectral-circle-2500-rank-16", "ncp-n-3", "ncp-genus-60"])
def test_schema_violation_exit_2(tmp_path, command, doc):
    """The size caps reject oversized documents before anything is
    allocated; the memory limit and the timeout make a missing cap fail
    fast instead of exhausting the machine."""
    res = run_cli(tmp_path, command, doc, preexec_fn=_limit_memory,
                  timeout=30)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("input error:")
    assert "Traceback" not in res.stderr


def test_unknown_builtin_exit_2(tmp_path):
    doc = {"complex": "klein", "system": {"rank": 1, "constant": True}}
    res = run_cli(tmp_path, "cohomology", doc)
    assert res.returncode == 2


def test_parse_error_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"complex": torus2}')
    res = subprocess.run(RUN + ["cohomology", "--input", str(path)],
                         capture_output=True, text=True, env=ENV)
    assert res.returncode == 2
    assert "line 1" in res.stderr


def test_nonflat_cohomology_exit_1(tmp_path):
    doc = {"complex": {"vertices": 3, "simplices": [[0, 1, 2]]},
           "system": {"rank": 1,
                      "transports": {"0-1": [[1]], "1-2": [[1]],
                                     "0-2": [[-1]]}}}
    res = run_cli(tmp_path, "cohomology", doc)
    assert res.returncode == 1
    assert "computation error" in res.stderr


def test_command_field_mismatch(tmp_path):
    doc = {"command": "ncp", "complex": "torus2",
           "system": {"rank": 1, "constant": True}}
    res = run_cli(tmp_path, "cohomology", doc)
    assert res.returncode == 2


def test_convention_flag(tmp_path):
    doc = {"complex": "circle(4)",
           "system": {"rank": 2, "monodromy": [[[1, 1], [0, 1]]]}}
    out = {}
    for conv in ("classical", "e1"):
        res = run_cli(tmp_path, "cohomology", doc,
                      "--convention", conv, "--emit", "machine")
        assert res.returncode == 0
        out[conv] = [g["group"] for g in json.loads(res.stdout)["groups"]]
    assert out["classical"] == out["e1"]


def _run_in_process(monkeypatch, capsys, tmp_path, command, doc):
    """cli.main in this process: (exit code, stdout, kernel inputs)."""
    inputs = []
    kernel = exactlinalg.smith_with_transforms

    def recording(a, nrows, ncols):
        inputs.append((nrows, ncols, tuple(map(tuple, a))))
        return kernel(a, nrows, ncols)

    monkeypatch.setattr(exactlinalg, "smith_with_transforms", recording)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main([command, "--input", str(path), "--emit", "machine"])
    monkeypatch.setattr(exactlinalg, "smith_with_transforms", kernel)
    return code, capsys.readouterr().out, inputs


_NCP_TORUS = {"bundle": {"base": "torus2", "windings": [2, 4],
                         "chern": [1, 0]}}


def test_command_decomposes_each_input_once(monkeypatch, capsys, tmp_path):
    code, _, inputs = _run_in_process(monkeypatch, capsys, tmp_path,
                                      "ncp", _NCP_TORUS)
    assert code == 0
    assert inputs
    assert len(set(inputs)) == len(inputs)


def test_commands_share_nothing(monkeypatch, capsys, tmp_path):
    first = _run_in_process(monkeypatch, capsys, tmp_path, "ncp", _NCP_TORUS)
    second = _run_in_process(monkeypatch, capsys, tmp_path, "ncp", _NCP_TORUS)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert len(first[2]) == len(second[2])

import contextlib
import functools
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from leray import (
    cli,
    cohomology,
    local_systems,
    ncp_bundles,
    simplicial,
    spectral,
)
from leray.exactlinalg import FgAbGroup, IntMatrix, kernel
from leray.local_systems import LocalSystem, flatness_check, from_monodromy
from leray.simplicial import SimplicialComplex, builtin
from oracles import (
    block_unipotent_family,
    flat_system_from_loops,
    freely_trivial,
    gauge_twist,
    pinched_torus,
    random_commuting_pair,
    random_unimodular,
)
from test_report_golden import DOCUMENTS
from test_simplicial import _RP2


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
# a transport on every edge of circle(11), (0, 10) keyed as "0-1_0",
# which int() reads as 0 and 10
_CIRCLE_11 = dict({"%d-%d" % (i, i + 1): [[1]] for i in range(10)},
                  **{"0-1_0": [[1]]})
_IDENTITY_17 = [[int(i == j) for j in range(17)] for i in range(17)]
_RANK_16 = {"rank": 16, "constant": True}
_GENUS_114 = {"base": "genus(114)", "windings": [2, 4] + [0] * 226,
              "chern": [1, 0]}
# group-cohomology documents read by key presence, each with the message
# it must give; "action" and "matrices" are not keys of the schema
_GROUP_KEY_DOCS = [
    ({"system": {}, "action": {"rank": 1, "matrices": [[[1]]]}},
     "'rank' and a 'monodromy' list"),
    ({"system": {"rank": 2, "monodromy": []}},
     "only actions of Z^1 or Z^2"),
    ({"action": {"rank": 2, "matrices": _MONO}}, "'system'"),
]


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
    ("ncp", {"bundle": {"base": "torus2", "windings": [0, 0],
                        "chern": [0, 0], "n": 2.0}}),
    ("ncp", {"bundle": _GENUS_114}),
    ("cohomology", {"complex": {"vertices": 3, "simplices": [[0, 1.5]]},
                    "system": _CONSTANT}),
    ("cohomology", {"complex": {"vertices": 3, "simplices": [[True, 2]]},
                    "system": _CONSTANT}),
    ("cohomology", {"complex": {"vertices": 3, "simplices": [[0.0, 1.0]]},
                    "system": _CONSTANT}),
    ("cohomology", {"complex": {"vertices": 3, "simplices": "012"},
                    "system": _CONSTANT}),
    ("cohomology", {"complex": "circle(3)",
                    "system": {"rank": 1, "transports": {
                        "0-1": [[1]], "0,1": [[-1]], "1-2": [[1]],
                        "0-2": [[1]]}}}),
    ("cohomology", {"complex": "circle(11)",
                    "system": {"rank": 1, "transports": _CIRCLE_11}}),
    ("cohomology", {"complex": "circle(1_0)", "system": _CONSTANT}),
    ("cohomology", {"complex": "circle(+5)", "system": _CONSTANT}),
    ("cohomology", {"complex": "circle( 5 )", "system": _CONSTANT}),
    ("cohomology", {"complex": "circle(\u0665)", "system": _CONSTANT}),
    ("ncp", {"bundle": {"base": "genus(0_8)", "windings": [0] * 16,
                        "chern": [0, 0]}}),
] + [("group-cohomology", doc) for doc, _ in _GROUP_KEY_DOCS],
    ids=["monodromy-int", "transports-list", "rank-bool", "group-rank-bool",
        "chern-int", "winding-float", "winding-str", "winding-bool",
        "circle-1e9", "simplex-60", "genus-1e9", "vertices-1e12",
        "simplex-70-inline", "rank-1e9", "group-rank-17", "vertices-bool",
        "vertices-float", "cohomology-circle-2500-rank-16",
        "spectral-circle-2500-rank-16", "ncp-n-3", "ncp-n-float",
        "ncp-genus-114",
        "simplex-vertex-float", "simplex-vertex-bool",
        "simplex-vertices-integral-floats", "simplices-str",
        "transport-edge-repeated", "transport-key-underscore",
        "builtin-underscore", "builtin-sign", "builtin-spaces",
        "builtin-arabic-indic-digit", "ncp-base-underscore",
        "group-system-empty-action-given", "group-monodromy-empty",
        "group-action-only"])
def test_schema_violation_exit_2(tmp_path, command, doc):
    """The size caps reject oversized documents before anything is
    allocated; the memory limit and the timeout make a missing cap fail
    fast instead of exhausting the machine."""
    res = run_cli(tmp_path, command, doc, preexec_fn=_limit_memory,
                  timeout=30)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("input error:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("base", [5, "circle(2500)"],
                         ids=["int", "circle-2500"])
def test_ncp_base_is_checked_before_it_is_built(monkeypatch, capsys,
                                                tmp_path, base):
    """An ncp base that is not a string naming torus2 or genus(g) exits
    2 with a message that says so, and no base is built for it."""
    def refuse(name):
        raise AssertionError("built %r" % (name,))
    monkeypatch.setattr(ncp_bundles, "shared_builtin", refuse)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"bundle": {"base": base, "windings": [0, 0],
                                           "chern": [0, 0]}}))
    capsys.readouterr()
    assert cli.main(["ncp", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "input error: bad bundle: base must be torus2 or genus(g), got %r\n"
        % (base,))


@pytest.mark.parametrize("doc, message", _GROUP_KEY_DOCS,
                         ids=["system-empty-action-given", "monodromy-empty",
                              "action-only"])
def test_group_cohomology_reads_system_by_key(tmp_path, doc, message):
    res = run_cli(tmp_path, "group-cohomology", doc)
    assert res.returncode == 2
    assert message in res.stderr


_TWO_TRIANGLES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


@pytest.mark.parametrize("vertices, simplices, message", [
    (6, _RP2, "torsion in H_1"), (6, _TWO_TRIANGLES, "not connected"),
    (0, [], "no vertex")], ids=["rp2", "two-triangles", "empty"])
def test_monodromy_base_rejections_exit_2(tmp_path, vertices, simplices,
                                          message):
    doc = {"complex": {"vertices": vertices, "simplices": simplices},
           "system": {"rank": 1, "monodromy": []}}
    res = run_cli(tmp_path, "cohomology", doc)
    assert res.returncode == 2
    assert message in res.stderr


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


@pytest.mark.parametrize("command", ["spectral", "ncp", "check",
                                     "group-cohomology"])
def test_convention_only_on_cohomology(tmp_path, command):
    res = run_cli(tmp_path, command, {}, "--convention", "classical")
    assert res.returncode == 2
    assert "unrecognized arguments: --convention" in res.stderr


@pytest.mark.parametrize("raw", [
    b'{"complex": "torus2\xff"}',
    b'{"rank": ' + b"9" * 5000 + b"}",
    b"[" * 100000 + b"]" * 100000,
], ids=["not-utf8", "integer-digit-limit", "nesting-depth"])
def test_undecodable_document_exit_2(tmp_path, raw):
    path = tmp_path / "job.json"
    path.write_bytes(raw)
    res = subprocess.run(RUN + ["cohomology", "--input", str(path)],
                         capture_output=True, text=True, env=ENV, timeout=60)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("input error:")
    assert "Traceback" not in res.stderr


def _run_in_process(kernel_calls, capsys, tmp_path, command, doc,
                    emit="machine"):
    """cli.main in this process: (exit code, stdout, kernel inputs)."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    kernel_calls.clear()
    code = cli.main([command, "--input", str(path), "--emit", emit])
    return code, capsys.readouterr().out, list(kernel_calls)


_NCP_TORUS = {"bundle": {"base": "torus2", "windings": [2, 4],
                         "chern": [1, 0]}}


def test_command_decomposes_each_coboundary_once(kernel_calls, capsys,
                                                 tmp_path):
    """The paper's ncp job sends the SNF kernel each nonzero coboundary
    of its cell complexes exactly once, and no kernel basis of one and
    no identity larger than the fiber: each complex keeps the
    decompositions of its coboundaries, kernels and the top degree
    reuse them."""
    code, _, inputs = _run_in_process(kernel_calls, capsys, tmp_path,
                                      "ncp", _NCP_TORUS)
    assert code == 0
    spec = cli.parse_bundle_spec(_NCP_TORUS["bundle"])
    seen = Counter(inputs)
    nonzero = [d for c in ncp_bundles.k_theory_bundle(spec).values()
               for d in c.differentials if not d.is_zero()]
    assert len(nonzero) == 2  # the even delta_0 and delta_1
    for d in nonzero:
        assert seen[_kernel_input(d)] == 1, d
        assert seen[_kernel_input(kernel(d))] == 0, d
    identities = [n for n, m, rows in inputs
                  if n == m and IntMatrix(rows, shape=(n, m)).is_identity()]
    assert max(identities, default=0) <= ncp_bundles.FIBER_RANK


def _kernel_input(m):
    return (m.nrows, m.ncols, m.rows())


def _gauge_inputs(kernel_calls, name):
    """The kernel inputs of a fresh tree gauge of a named base: none on
    a surface, whose relator's exponent sums vanish."""
    x = builtin(name)
    kernel_calls.clear()
    x.tree_gauge
    return list(kernel_calls)


def test_commands_share_nothing(kernel_calls, capsys, tmp_path):
    """Each command decomposes afresh: after the first run, which also
    builds the base and walks its relator (no SNF for either on a
    surface), runs give equal reports from equal kernel inputs.  A fresh
    gauge of the base sends the kernel nothing."""
    simplicial.shared_builtin.cache_clear()  # a cold base, whatever ran before
    runs = [_run_in_process(kernel_calls, capsys, tmp_path, "ncp", _NCP_TORUS)
            for _ in range(3)]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[0][1] == runs[1][1] == runs[2][1]
    assert runs[0][2] == runs[1][2] == runs[2][2]
    assert _gauge_inputs(kernel_calls, "torus2") == []


def test_warm_ncp_job_inverts_no_transport(kernel_calls, capsys, tmp_path):
    """On a warm base an ncp job sends the SNF kernel no edge transport
    of the simplicial system, apart from the identity, which the job
    decomposes for another reason (the change of basis in d2_spec); the
    base's gauge sends it nothing at all."""
    _run_in_process(kernel_calls, capsys, tmp_path, "ncp", _NCP_TORUS)
    code, _, inputs = _run_in_process(kernel_calls, capsys, tmp_path,
                                      "ncp", _NCP_TORUS)
    assert code == 0
    x = ncp_bundles.resolve_base("torus2")
    mats = [IntMatrix(m) for m in _MONO]
    system = from_monodromy(x, mats)
    transports = {_kernel_input(system.transport(u, v))
                  for e in x.simplices(1) for (u, v) in (e, e[::-1])}
    transports -= {_kernel_input(IntMatrix.identity(2))}
    assert transports  # inverse classes give transports such as (1 -2; 0 1)
    assert not transports & set(inputs)
    assert _gauge_inputs(kernel_calls, "torus2") == []


@pytest.mark.parametrize("emit", ["human", "machine"])
def test_warm_ncp_job_eliminates_its_d2_once(kernel_calls, capsys, tmp_path,
                                             emit):
    """Each page report counts the rank of its outgoing differentials
    once, so a warm ncp job with nonzero d2 sends that d2 to the SNF
    kernel once, for its invariant factors, whatever the emit mode."""
    _run_in_process(kernel_calls, capsys, tmp_path, "ncp", _NCP_TORUS)
    code, _, inputs = _run_in_process(kernel_calls, capsys, tmp_path,
                                      "ncp", _NCP_TORUS, emit)
    assert code == 0
    spec = cli.parse_bundle_spec(_NCP_TORUS["bundle"])
    d2 = ncp_bundles.analyze(spec).e2.differentials[(0, 1)]
    assert d2.shape == (2, 2) and not d2.is_zero()
    assert inputs.count(_kernel_input(d2)) == 1
    assert _kernel_input(d2) not in kernel_calls.transformed


def test_check_job_makes_one_flatness_pass(monkeypatch, capsys, tmp_path):
    """A system's violations are found once and kept: the check's own
    flatness line and the convention comparison's one assembly read the
    same pass."""
    passes = []
    check = local_systems.flatness_check

    def counting(system):
        passes.append(system)
        return check(system)
    monkeypatch.setattr(local_systems, "flatness_check", counting)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"complex": "torus2",
                                "system": {"rank": 2, "monodromy": _MONO}}))
    assert cli.main(["check", "--input", str(path)]) == 0
    assert len(passes) == 1


def _counting(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.name`` in ``calls`` for the rest of
    the test."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_warm_ncp_job_reads_its_spec_once(monkeypatch, capsys, tmp_path):
    """The spec resolves its base and pairs its Chern data once, when
    it is made, and every reader takes the stored fields: a warm ncp
    job resolves its base once, evaluates a pairing only for its
    cochain entry (an integer entry is its own pairing), and makes no
    matrix through the validating constructor."""
    n2 = simplicial.shared_builtin("genus(2)").n_simplices(2)
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"bundle": {
        "base": "genus(2)", "windings": [2, 4, 0, 6],
        "chern": [3, [1] + [0] * (n2 - 1)]}}))
    argv = ["ncp", "--input", str(path), "--emit", "machine"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    calls = Counter()
    _counting(monkeypatch, calls, ncp_bundles, "resolve_base")
    _counting(monkeypatch, calls, ncp_bundles, "fundamental_pairing")
    _counting(monkeypatch, calls, IntMatrix, "__init__")
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["chern_pairings"] == [3, 1]
    assert calls == {"resolve_base": 1, "fundamental_pairing": 1}


def test_check_job_assembles_its_cochains_once(monkeypatch, kernel_calls,
                                               capsys, tmp_path):
    """A check job assembles its system's cochains once, as the e1
    complex, and derives the classical one by sign; the comparison still
    eliminates each even-degree coboundary under both signs and shares
    the odd-degree ones, so a warm torus2 job sends the kernel D_0,
    -D_0 and D_1, for their invariant factors alone."""
    doc = {"complex": "torus2", "system": {"rank": 2, "monodromy": _MONO}}
    _run_in_process(kernel_calls, capsys, tmp_path, "check", doc)
    calls = Counter()
    _counting(monkeypatch, calls, cohomology, "build")
    code, _, inputs = _run_in_process(kernel_calls, capsys, tmp_path,
                                      "check", doc)
    assert code == 0 and calls == {"build": 1}
    x = simplicial.shared_builtin("torus2")
    e1 = cohomology.build(x, from_monodromy(x, [IntMatrix(m) for m in _MONO]))
    d0, d1 = e1.differential(0), e1.differential(1)
    assert sorted(inputs) == sorted(map(_kernel_input, (d0, -d0, d1)))
    assert not kernel_calls.transformed


def test_warm_check_job_makes_no_dense_row_of_a_coboundary(
        monkeypatch, capsys, tmp_path):
    """build writes its coboundaries as nonzero rows, and a check job
    multiplies, negates and eliminates them in that form: on a warm
    torus2 rank-6 job, no coboundary of either convention's complex is
    read as dense rows."""
    mats = block_unipotent_family(random.Random(30), 2)
    doc = {"complex": "torus2",
           "system": {"rank": 6, "monodromy": [m.rows() for m in mats]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--input", str(path)]) == 0
    made, densified = {}, []
    complex_class = cohomology.CochainComplex
    init, trusted = complex_class.__init__, complex_class._trusted.__func__
    rows = IntMatrix.rows

    def record(c):
        made.update((id(d), d) for d in c.differentials)
        return c

    def recording_init(self, differentials):
        init(self, differentials)
        record(self)

    def reading(self):
        if id(self) in made:
            densified.append(self.shape)
        return rows(self)
    monkeypatch.setattr(complex_class, "__init__", recording_init)
    monkeypatch.setattr(complex_class, "_trusted", classmethod(
        lambda cls, differentials: record(trusted(cls, differentials))))
    monkeypatch.setattr(IntMatrix, "rows", reading)
    capsys.readouterr()
    assert cli.main(["check", "--input", str(path), "--emit", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    # e1: D_0, D_1 and the empty D_2; classical: -D_0, D_1 itself, -D_2
    assert sorted(m.shape for m in made.values()) == sorted(
        [(126, 42), (84, 126), (0, 84), (126, 42), (0, 84)])
    assert densified == []


def test_check_job_certifies_each_square_once(monkeypatch, capsys,
                                             tmp_path):
    """The classical complex of a check job is the certified e1 complex
    with signs flipped, so it multiplies no D_(p+1) D_p again: one
    complex is made through the certifying constructor."""
    doc = {"complex": "torus2", "system": {"rank": 2, "monodromy": _MONO}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    calls = Counter()
    _counting(monkeypatch, calls, cohomology.CochainComplex, "__init__")
    assert cli.main(["check", "--input", str(path)]) == 0
    assert calls == {"__init__": 1}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_human_report_renders_the_machine_report(capsys, tmp_path, name):
    """The human text is rendered from the machine report alone."""
    command, doc, *extra = DOCUMENTS[name]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    runs = [(cli.main([command, "--input", str(path), "--emit", emit] +
                      extra), capsys.readouterr().out)
            for emit in ("human", "machine")]
    (human_code, human), (machine_code, machine) = runs
    assert human_code == machine_code
    assert human == cli.human_report(json.loads(machine)) + "\n"


def test_warm_genus8_ncp_job_decomposes_only_cell_sized_matrices(
        kernel_calls, capsys, tmp_path):
    """An ncp job computes its pages on the one-vertex cell structure of
    the base: on a warm genus(8), no SNF input has more than
    4g = 32 rows or columns, where the triangulation's coboundaries
    are up to 196 x 294."""
    doc = {"bundle": {"base": "genus(8)", "windings": [2, 4] + [0] * 14,
                      "chern": [1, 0]}}
    _run_in_process(kernel_calls, capsys, tmp_path, "ncp", doc)
    code, _, inputs = _run_in_process(kernel_calls, capsys, tmp_path,
                                      "ncp", doc)
    assert code == 0
    assert inputs
    assert max(max(nrows, ncols) for nrows, ncols, _ in inputs) <= 32


@pytest.mark.parametrize("base, loops", [("torus2", 2), ("genus(8)", 16)])
def test_warm_ncp_job_sends_the_kernel_no_zero_matrix(
        kernel_calls, capsys, tmp_path, base, loops):
    """The odd complex's coboundaries are zero, and so is a block of
    relations; a zero map's Smith form is known without elimination."""
    doc = {"bundle": {"base": base, "windings": [2, 4] + [0] * (loops - 2),
                      "chern": [1, 0]}}
    _run_in_process(kernel_calls, capsys, tmp_path, "ncp", doc)
    code, _, inputs = _run_in_process(kernel_calls, capsys, tmp_path,
                                      "ncp", doc)
    assert code == 0
    assert inputs
    assert all(any(map(any, rows)) for _, _, rows in inputs)


@pytest.mark.parametrize("command, doc", [
    ("cohomology", {"complex": "torus2",
                    "system": {"rank": 2, "monodromy": _MONO}}),
    ("cohomology", {"complex": "genus(2)",
                    "system": {"rank": 2, "monodromy": _MONO * 2}}),
    ("check", {"complex": "torus2",
               "system": {"rank": 2, "monodromy": _MONO}}),
    ("group-cohomology", {"system": {"rank": 2, "monodromy": _MONO}}),
])
def test_groups_only_jobs_transform_no_coboundary(kernel_calls, capsys,
                                                  tmp_path, command, doc):
    """cohomology, check and group-cohomology report isomorphism types
    alone: a warm job eliminates its coboundaries on D alone, and asks
    for transforms only to invert the monodromy matrices it validates."""
    _run_in_process(kernel_calls, capsys, tmp_path, command, doc)
    code, _, inputs = _run_in_process(kernel_calls, capsys, tmp_path,
                                      command, doc)
    assert code == 0
    assert len(inputs) > len(kernel_calls.transformed)
    monodromy = {_kernel_input(IntMatrix(m))
                 for m in doc["system"]["monodromy"]}
    assert set(kernel_calls.transformed) <= monodromy


def test_spectral_job_transforms_no_coboundary(kernel_calls, capsys,
                                               tmp_path):
    """spectral reports groups and ranks alone, so its pages present no
    entry: a warm job sends each nonzero coboundary of its two complexes,
    on the cell model of the named surface, to the kernel once, by
    invariant factors, and none for transforms."""
    doc = {"complex": "torus2",
           "system": {"even": {"rank": 2, "monodromy": _MONO},
                      "odd": _CONSTANT}}
    _run_in_process(kernel_calls, capsys, tmp_path, "spectral", doc)
    code, _, inputs = _run_in_process(kernel_calls, capsys, tmp_path,
                                      "spectral", doc)
    assert code == 0
    x = cli.parse_complex("torus2")
    coboundaries = {_kernel_input(d)
                    for system in doc["system"].values()
                    for d in cohomology.cochains(
                        x, cli.parse_system(system, x)).differentials
                    if not d.is_zero()}
    # delta_0 and delta_1 of the even system; the constant odd system's
    # cell coboundaries are zero
    assert len(coboundaries) == 2
    seen = Counter(inputs)
    for d in coboundaries:
        assert seen[d] == 1
    assert not coboundaries & set(kernel_calls.transformed)


def _rank6_system(seed, loops):
    mats = block_unipotent_family(random.Random(seed), loops)
    return {"rank": 6, "monodromy": [[list(r) for r in m.rows()]
                                     for m in mats]}


def _refuse_transport_tables(monkeypatch):
    """Make reading any system's transport table raise for the rest of
    the test."""
    def refuse(system):
        raise AssertionError("a transport table was made")
    table = functools.cached_property(refuse)
    table.__set_name__(LocalSystem, "_table")
    monkeypatch.setattr(LocalSystem, "_table", table)


@pytest.mark.parametrize("command, args, doc", [
    ("cohomology", [], {"complex": "genus(2)",
                        "system": _rank6_system("cells:0", 4)}),
    ("cohomology", ["--convention", "classical"],
     {"complex": "genus(2)", "system": _rank6_system("cells:1", 4)}),
    ("spectral", [], {"complex": "genus(2)", "system": {
        "even": _rank6_system("cells:2", 4),
        "odd": {"rank": 6, "constant": True}}}),
])
def test_warm_genus2_jobs_decompose_only_cell_sized_matrices(
        monkeypatch, kernel_calls, capsys, tmp_path, command, args, doc):
    """cohomology and spectral on a named surface compute on its
    one-relator cell model: on a warm genus(2) at rank 6, no SNF input
    has more than 2g r = 24 rows or columns, where the triangulation's
    coboundaries are up to 156 x 234, and no job makes a table of edge
    transports."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--input", str(path), "--emit", "machine"] + args
    assert cli.main(argv) == 0
    _refuse_transport_tables(monkeypatch)
    kernel_calls.clear()
    assert cli.main(argv) == 0
    assert kernel_calls
    assert max(max(nrows, ncols) for nrows, ncols, _ in kernel_calls) <= 24


def _inline(name):
    x = builtin(name)
    return {"vertices": x.vertex_count,
            "simplices": [list(t) for t in x.simplices(x.dimension)]}


def _on_simplices(monkeypatch):
    """Make every job compute on the simplicial cochains (``build``),
    whatever its base, for the rest of the test; returns the list of
    bases it builds cochains over."""
    built = []

    def simplicial(x, system, convention="e1"):
        built.append(x)
        return cohomology.build(x, system, convention)
    for module in (cohomology, spectral):
        monkeypatch.setattr(module, "cochains", simplicial)
    return built


@pytest.mark.parametrize("name, loops", [("torus2", 2), ("genus(2)", 4),
                                         ("sphere2", 0)])
@pytest.mark.parametrize("emit", ["human", "machine"])
def test_named_and_inline_surfaces_give_identical_reports(
        monkeypatch, capsys, tmp_path, name, loops, emit):
    """A surface computes on its cell model, named or given inline, and
    the reports are byte-identical to those of the same triangulation on
    its simplicial cochains, for cohomology under both conventions and
    for spectral (E1 counted from the simplices on the cell path)."""
    system = _rank6_system("inline:%s" % name, loops)
    odd = {"rank": 2, "constant": True}
    jobs = [("cohomology", [], {"system": system}),
            ("cohomology", ["--convention", "classical"], {"system": system}),
            ("spectral", [], {"system": {"even": system, "odd": odd}})]
    sides = []
    for base in (name, _inline(name), _inline(name)):
        if len(sides) == 2:
            built = _on_simplices(monkeypatch)
        reports = []
        for command, args, doc in jobs:
            path = tmp_path / "job.json"
            path.write_text(json.dumps(dict(doc, complex=base)))
            capsys.readouterr()
            code = cli.main([command, "--input", str(path), "--emit", emit]
                            + args)
            reports.append((code, capsys.readouterr().out))
        sides.append(reports)
    assert len(built) == 4  # one cohomology job each, two spectral parts
    assert sides[0] == sides[1] == sides[2]
    assert all(code == 0 for code, _ in sides[0])


def _main(command, doc, *args):
    """cli.main in this process, on ``doc`` read from stdin: (exit code,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--input", "-", "--emit", "machine"]
                            + list(args))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _matrix_json(m):
    return [list(row) for row in m.rows()]


def _transports_system(rng, x, rank, kind):
    """A system on the closed surface x given by its transports: flat,
    from loop matrices that need not commute where the surface's relator
    allows a pair, then gauge-twisted, tree edges included, at random;
    for ``nonflat``, one edge is then negated, which breaks flatness on
    both triangles at that edge."""
    loops, (word,) = len(x.tree_gauge.loops), x.presentation.relators
    a, b = random_commuting_pair(rng, rank)
    mats = [a.power(rng.randint(-1, 1)) * b.power(rng.randint(-1, 1))
            for _ in range(loops)]
    pairs = [(i, j) for i in range(loops) for j in range(i + 1, loops)
             if freely_trivial([l for l in word if l[0] in (i, j)])]
    if pairs and rank > 1 and rng.random() < 0.5:
        i, j = rng.choice(pairs)
        mats = [IntMatrix.identity(rank)] * loops
        mats[i], mats[j] = (random_unimodular(rng, rank, steps=4),
                            random_unimodular(rng, rank, steps=4))
    system = flat_system_from_loops(x, mats) if loops \
        else LocalSystem.constant(x, rank)
    if rng.random() < 0.5:
        system = gauge_twist(system, rng)
    table = {e: system.transport(*e) for e in x.simplices(1)}
    if kind == "nonflat":
        edge = rng.choice(x.simplices(1))
        table[edge] = -table[edge]
    return {"rank": rank, "transports": {"%d-%d" % e: _matrix_json(m)
                                         for e, m in table.items()}}


def _system_doc(rng, x, rank, kind):
    if kind == "constant":
        return {"rank": rank, "constant": True}
    if kind == "monodromy":
        a, b = random_commuting_pair(rng, rank)
        return {"rank": rank, "monodromy": [
            _matrix_json(a.power(rng.randint(-1, 1))
                         * b.power(rng.randint(-1, 1)))
            for _ in x.tree_gauge.loops]}
    return _transports_system(rng, x, rank, kind)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["torus2", "sphere2", "genus(2)", "pinched"]),
       kind=st.sampled_from(["constant", "monodromy", "transports",
                             "nonflat"]),
       rank=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_cells_give_the_simplicial_groups_on_inline_surfaces(
        name, kind, rank, seed):
    """cohomology and spectral compute a closed orientable surface on
    its cell model whatever its spelling and its system: a builtin
    given inline with its vertices relabelled, or the pinched torus,
    whose fundamental group Z^2 * Z lets a pair of loops act without
    commuting.  Under both conventions the groups, and spectral's E1
    modules, d1 ranks and E2, are those of ``build``, and a system that
    is not flat exits 1 with the simplicial path's message."""
    rng = random.Random(seed)
    base = pinched_torus() if name == "pinched" else builtin(name)
    relabel = list(range(base.vertex_count))
    rng.shuffle(relabel)
    complex_doc = {"vertices": base.vertex_count,
                   "simplices": [[relabel[v] for v in t]
                                 for t in base.simplices(2)]}
    x = cli.parse_complex(complex_doc)
    system_doc = _system_doc(rng, x, rank, kind)
    system = cli.parse_system(system_doc, x)
    odd = LocalSystem.constant(x, 1)
    spectral_doc = {"complex": complex_doc, "system": {
        "even": system_doc, "odd": {"rank": 1, "constant": True}}}
    if kind == "nonflat":
        failure = (1, "", "computation error: flatness violated on "
                   "2-simplices %s\n" % (flatness_check(system),))
        for convention in ("e1", "classical"):
            assert _main("cohomology", dict(complex=complex_doc,
                                            system=system_doc),
                         "--convention", convention) == failure
        assert _main("spectral", spectral_doc) == failure
        return
    for convention in ("e1", "classical"):
        code, out, _ = _main("cohomology", dict(complex=complex_doc,
                                                system=system_doc),
                             "--convention", convention)
        assert code == 0
        assert [g["group"] for g in json.loads(out)["groups"]] == [
            g.render() for g in cohomology.groups(
                cohomology.build(x, system, convention))]
    code, out, _ = _main("spectral", spectral_doc)
    assert code == 0
    e1, e2, _ = json.loads(out)["pages"]
    complexes = {0: cohomology.build(x, system), 1: cohomology.build(x, odd)}
    found = {s: cohomology.groups(c) for s, c in complexes.items()}
    for first, second in zip(e1["entries"], e2["entries"]):
        p, s = first["p"], first["coefficient_parity"]
        c = complexes[s]
        assert first["group"] == FgAbGroup(c.degree_rank(p), ()).render()
        assert first["differential_rank"] == len(c.invariant_factors(p))
        assert second["group"] == found[s][p].render()


def test_ncp_job_exits_1_when_the_e2_groups_lose_torsion(monkeypatch, capsys,
                                                        tmp_path):
    """The E2 cross-check can fail.  With the invariant-factor groups
    stripped of their torsion, as the page module reads them, an ncp
    job with k = 2 exits 1 when d2_spec reads its even entry, H^2 =
    Z (+) Z/2 on torus2."""
    real = spectral.groups

    def torsion_free(c):
        return [FgAbGroup(g.free_rank, ()) for g in real(c)]
    monkeypatch.setattr(spectral, "groups", torsion_free)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(_NCP_TORUS))
    capsys.readouterr()
    assert cli.main(["ncp", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("computation error: E2 entry H^2 of parity 0 presents "
                   "Z (+) Z/2, where the invariant factors give Z\n")


def test_ncp_on_genus30_runs(tmp_path):
    """An ncp base is bounded by the faces it lists alone, since a
    surface's gauge decomposes no matrix: genus(30) is admitted (and
    genus(114) is not: see test_schema_violation_exit_2)."""
    doc = {"bundle": {"base": "genus(30)", "windings": [2, 4] + [0] * 58,
                      "chern": [1, 0]}}
    res = run_cli(tmp_path, "ncp", doc, preexec_fn=_limit_memory,
                  timeout=60)
    assert res.returncode == 0, res.stderr
    assert "verdict: not RKK-trivial" in res.stdout


def test_cold_ncp_job_on_genus60_gives_the_closed_form_e2(tmp_path):
    """A cold ncp job on genus(60), past the old rank-1 coboundary cap,
    exits 0.  With windings of gcd k = 2, the even system has H^0 = Z,
    H^1 = Z^(4g - 2) (+) Z/k and H^2 = Z (+) Z/k, and the odd, constant
    one Z^2, Z^(4g) and Z^2; E2 at (p, q) holds parity (p + q) mod 2."""
    g = 60
    doc = {"bundle": {"base": "genus(%d)" % g,
                      "windings": [2, 4] + [0] * (2 * g - 2),
                      "chern": [1, 0]}}
    res = run_cli(tmp_path, "ncp", doc, "--emit", "machine",
                  preexec_fn=_limit_memory, timeout=60)
    assert res.returncode == 0, res.stderr
    e2 = json.loads(res.stdout)["pages"][0]
    assert e2["r"] == 2
    expected = {(0, 0): (1, []), (1, 1): (4 * g - 2, [2]), (2, 0): (1, [2]),
                (0, 1): (2, []), (1, 0): (4 * g, []), (2, 1): (2, [])}
    assert {(e["p"], e["q"]): (e["free_rank"], e["torsion"])
            for e in e2["entries"]} == expected


def test_named_bases_are_built_once_per_process(monkeypatch, kernel_calls,
                                                capsys, tmp_path):
    """cohomology, check and spectral jobs take a named base from the
    cache ncp jobs use: once torus2 is built, no job builds, verifies or
    gauges it again."""
    assert _gauge_inputs(kernel_calls, "torus2") == []
    _run_in_process(kernel_calls, capsys, tmp_path, "ncp", _NCP_TORUS)
    gauge = ncp_bundles.resolve_base("torus2").tree_gauge

    def refuse(name, param=None):
        raise AssertionError("built %s again" % name)
    monkeypatch.setattr(simplicial, "builtin", refuse)
    system = {"rank": 2, "monodromy": _MONO}
    for command, doc in (
            ("cohomology", {"complex": "torus2", "system": system}),
            ("check", {"complex": "torus2", "system": system}),
            ("spectral", {"complex": "torus2",
                          "system": {"even": system, "odd": system}})):
        code, out, _ = _run_in_process(kernel_calls, capsys, tmp_path,
                                       command, doc)
        assert code == 0, out
    assert ncp_bundles.resolve_base("torus2").tree_gauge is gauge


def test_group_cohomology_builds_no_local_system(monkeypatch, kernel_calls,
                                                  capsys, tmp_path):
    """Group cohomology comes from the Fox complex of the group's
    presentation, <x> or <x, y | x y x^-1 y^-1>, under the action, so a
    job builds no simplicial complex, no local system and no cochains of
    a triangulation."""
    def refuse(*args, **kwargs):
        raise AssertionError("group cohomology reached a complex")
    for owner, name in ((SimplicialComplex, "__init__"),
                        (LocalSystem, "__init__"), (LocalSystem, "_trusted"),
                        (cohomology, "build")):
        monkeypatch.setattr(owner, name, refuse, raising=False)
    for doc in ({"system": {"rank": 2, "monodromy": _MONO}},
                {"system": {"rank": 2, "monodromy": _MONO[:1]}}):
        code, out, _ = _run_in_process(kernel_calls, capsys, tmp_path,
                                       "group-cohomology", doc)
        assert code == 0, out


def test_warm_ncp_job_orients_no_base(monkeypatch, kernel_calls, capsys,
                                      tmp_path):
    """A base is oriented when it is built; a warm ncp job reads the
    kept orientation for its Chern pairings."""
    _run_in_process(kernel_calls, capsys, tmp_path, "ncp", _NCP_TORUS)
    passes = []
    orient = SimplicialComplex.orientation.func

    def counting(x):
        passes.append(x)
        return orient(x)
    counted = functools.cached_property(counting)
    counted.__set_name__(SimplicialComplex, "orientation")
    monkeypatch.setattr(SimplicialComplex, "orientation", counted)
    code, _, _ = _run_in_process(kernel_calls, capsys, tmp_path,
                                 "ncp", _NCP_TORUS)
    assert code == 0
    assert passes == []


_MANY_MATRICES = [[[1]]] * 5000


@pytest.mark.parametrize("command, doc", [
    ("group-cohomology", {"system": {"rank": 1,
                                     "monodromy": _MANY_MATRICES}}),
    ("cohomology", {"complex": "torus2",
                    "system": {"rank": 1, "monodromy": _MANY_MATRICES}}),
])
def test_wrong_matrix_count_fails_fast(capsys, tmp_path, command, doc):
    """The count is checked before the pairwise commutation check, whose
    cost grows quadratically with it."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    start = time.perf_counter()
    code = cli.main([command, "--input", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert elapsed < 1.0


def test_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()

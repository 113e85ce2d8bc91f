"""Correctness gate for machine reports.

Three independent checks per job:

* frozen: the isomorphism-invariant fields (groups, pages, k0/k1, k_gcd,
  Chern pairings, verdict) equal the values frozen in
  ``expected/<workload>.json``.  Presentation-dependent fields such as
  ``d2_images`` and differential ranks are left out;
* closed forms: k_gcd = gcd(windings); the verdict is trivial iff the
  windings and the Chern pairings all vanish; the top even E2 entry of
  an ncp bundle is Z/k (+) Z; sum (-1)^p rank H^p = chi * m for every
  coefficient system; a zero d2 leaves the spectral pages unchanged;
* repeat: a job that runs twice in one process prints the same bytes.
"""

import json
import math
import os

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected")


def expected_path(workload):
    return os.path.join(EXPECTED_DIR, workload + ".json")


def load_expected(workload):
    with open(expected_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def _page(page):
    return [page["r"], [[e["p"], e["q"], e["group"]]
                        for e in page["entries"]]]


def _pieces(k):
    return [g["group"] for g in k["pieces"]]


def invariants(report):
    """The isomorphism-invariant fields of a machine report."""
    command = report["command"]
    if command == "cohomology":
        return {"groups": [g["group"] for g in report["groups"]]}
    if command == "check":
        return {"checks": [[c["name"], c["ok"]] for c in report["checks"]],
                "ok": report["ok"]}
    out = {"pages": [_page(p) for p in report["pages"]],
           "k0": _pieces(report["k0"]), "k1": _pieces(report["k1"])}
    if command == "ncp":
        out.update(k_gcd=report["k_gcd"],
                   chern_pairings=report["chern_pairings"],
                   trivial=report["verdict"]["trivial"])
    return out


def _euler_errors(page, euler, label):
    errors = []
    for parity in (0, 1):
        total = sum((-1) ** e["p"] * e["free_rank"] for e in page["entries"]
                    if e["coefficient_parity"] == parity)
        if total != euler:
            errors.append("%s parity %d: Euler sum %d != chi*m = %d"
                          % (label, parity, total, euler))
    return errors


def closed_form_errors(job, report):
    """Deviations of a report from facts known without the program."""
    expect = job["expect"]
    command = job["command"]
    errors = []
    if command == "cohomology":
        total = sum((-1) ** g["degree"] * g["free_rank"]
                    for g in report["groups"])
        if total != expect["euler"]:
            errors.append("Euler sum %d != chi*m = %d"
                          % (total, expect["euler"]))
    elif command == "check":
        if not (report["ok"] and all(c["ok"] for c in report["checks"])):
            errors.append("a check failed on a flat system")
    elif command == "spectral":
        e2, stable = report["pages"][1], report["pages"][2]
        errors += _euler_errors(e2, expect["euler"], "E2")
        if _page(e2)[1] != _page(stable)[1]:
            errors.append("zero d2 changed the page")
        for parity, key in ((0, "k0"), (1, "k1")):
            want = [e["group"] for e in stable["entries"] if e["q"] == parity]
            if _pieces(report[key]) != want:
                errors.append("%s pieces differ from the stable page" % key)
    elif command == "ncp":
        windings = job["doc"]["bundle"]["windings"]
        k = math.gcd(*windings)
        if report["k_gcd"] != k:
            errors.append("k_gcd %d != gcd(windings) = %d"
                          % (report["k_gcd"], k))
        pairings = expect["chern_pairings"]
        if report["chern_pairings"] != pairings:
            errors.append("Chern pairings %s != %s"
                          % (report["chern_pairings"], pairings))
        trivial = not any(windings) and not any(pairings)
        if report["verdict"]["trivial"] != trivial:
            errors.append("verdict trivial=%s, expected %s"
                          % (report["verdict"]["trivial"], trivial))
        e2 = report["pages"][0]
        errors += _euler_errors(e2, expect["euler"], "E2")
        top = [e for e in e2["entries"] if e["p"] == 2 and e["q"] == 0][0]
        want = (2, []) if k == 0 else (1, [k] if k > 1 else [])
        if (top["free_rank"], top["torsion"]) != want:
            errors.append("E2(2,0) = %s is not Z/%d (+) Z"
                          % (top["group"], k))
    return errors


class Gate:
    """Checks every report of one run; remembers reports for repeats."""

    def __init__(self, expected):
        self.expected = expected
        self.seen = {}

    def errors(self, job, key, code, text):
        if code != 0:
            return ["exit code %d" % code]
        try:
            report = json.loads(text)
        except ValueError:
            return ["report is not JSON"]
        errors = []
        first = self.seen.setdefault(key, text)
        if first != text:
            errors.append("report differs from an earlier run of the job")
        frozen = self.expected.get(key)
        if frozen is None:
            errors.append("no frozen expectation for job %s" % key[:12])
        elif invariants(report) != frozen:
            errors.append("invariants differ from the frozen values")
        return errors + closed_form_errors(job, report)

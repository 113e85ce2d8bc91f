"""Command-line driver.

Reads a JSON job document and runs the requested computation.  Each
command builds one report, a JSON-ready dict; ``--emit machine`` prints
it as JSON, and ``--emit human`` renders it as text by
``human_report``, which reads nothing else.  Output is a pure function
of the document: identical inputs produce byte-identical reports.

Exit codes: 0 success, 1 computation-level invariant failure (non-flat
system, differential not squaring to zero, page mismatch), 2 input
error (unparseable document, schema violation, unknown builtin).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cohomology import cohomology_groups, convention_compare
from .exactlinalg import IntMatrix
from .group_cohomology import ZnModule, zn_cohomology
from .local_systems import GradedKBundle, LocalSystem, from_monodromy
from .ncp_bundles import FIBER_RANK, NcpTorusBundleSpec, analyze
from .simplicial import SimplicialComplex, shared_builtin
from .spectral import assemble, e1_page, e2_page, stabilize

# Largest fiber rank a document may ask for.  The paper's fibers have
# rank 2 (K-theory of the 2-torus), the benchmarks use 6, and 16 is the
# K^0 rank of a 5-torus fiber.  A rank-m system carries m x m transports
# and cochain matrices m^2 times larger than at rank 1.
MAX_RANK = 16

# Most entries of the largest simplicial coboundary, (n_(p+1) m) x
# (n_p m) for n_p p-simplices and rank m.  It bounds every command's
# systems, and still counts the simplicial coboundaries where a job
# builds none: cohomology and spectral on every connected base of
# dimension 1 or 2, named or inline, with any kind of system, compute
# on the cell model of its reduced presentation, whose largest
# coboundary is r m x k m for k generators and r relators.  The jobs
# that build simplicial coboundaries are check, on every base, and
# cohomology and spectral on a base of dimension 3 or more (simplex(p),
# p >= 3, and inline complexes), on a disconnected base and on a point.
# The cap counts the entries of the dense shape, but build writes each
# simplicial coboundary as its nonzero rows, and the commands that build
# one and read its groups and ranks alone eliminate it in that form, so
# no dense row and no SNF transform of it is made.  On CPython 3.11.7
# (x86-64, 2 cores), check on circle(256) with a constant rank-4 system
# (a 1024 x 1024 coboundary, 2^20 entries, run with the cap lifted)
# took 0.05-0.07 s and peaked at 17 MiB, and on circle(181) (about
# 2^19) 0.04-0.05 s and 16 MiB, each from the start of a fresh
# process's script, the import included, which alone peaks at 16 MiB;
# spectral on the same bases, on cells, took 0.02 s.  genus(8) fits up
# to rank 6.  An ncp job's pages are on cells, and a surface's tree
# gauge makes no matrix, since its relator's exponent sums vanish, so
# the cap does not apply to its base, which simplicial.MAX_FACES
# bounds: up to genus(113).  On the same host a cold ncp job on
# genus(49) (import, build, gauge and pages, one process) took 15-18 ms
# in 4 of 6 runs (25 and 31 ms in the others) and peaked at 16 MiB, and
# on genus(100) 26-36 ms and 19 MiB (tools/cold_surfaces.py).
MAX_COCHAIN_ENTRIES = 1 << 19


class InputError(ValueError):
    """The job document violates the schema."""


def _fail(code, message):
    print(message, file=sys.stderr)
    return code


def load_document(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError("cannot read input: %s" % exc) from None
    except UnicodeDecodeError as exc:
        raise InputError("input is not UTF-8: %s" % exc) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("parse error at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg)) from None
    except ValueError as exc:  # an integer past int's digit limit
        raise InputError("parse error: %s" % exc) from None
    except RecursionError:
        raise InputError("parse error: nesting too deep") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    return doc


def _is_int(x):
    """True for a JSON integer; JSON true and false load as ``bool``,
    which is a subclass of ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_decimal(text):
    """True for plain ASCII digits; ``int()`` also accepts signs,
    surrounding spaces, underscores and non-ASCII digits."""
    return text.isascii() and text.isdigit()


def _check_rank(rank):
    if not _is_int(rank) or not 0 <= rank <= MAX_RANK:
        raise InputError("system rank must be an integer from 0 to %d"
                         % MAX_RANK)


def _check_cochain_size(x: SimplicialComplex, rank):
    """Reject a rank-``rank`` system on ``x`` whose largest coboundary
    has more than MAX_COCHAIN_ENTRIES entries, before any is built."""
    cells = max((x.n_simplices(p) * x.n_simplices(p + 1)
                 for p in range(x.dimension)), default=0)
    if cells * rank * rank > MAX_COCHAIN_ENTRIES:
        raise InputError("cochain complex too large: a coboundary has "
                         "more than %d entries" % MAX_COCHAIN_ENTRIES)


def parse_matrix(data, what="matrix"):
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InputError("%s must be a list of rows" % what)
    try:
        return IntMatrix(data)
    except (TypeError, ValueError) as exc:
        raise InputError("bad %s: %s" % (what, exc)) from None


def parse_complex(data) -> SimplicialComplex:
    if isinstance(data, str):
        try:
            return shared_builtin(data)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if isinstance(data, dict):
        if "vertices" not in data or "simplices" not in data:
            raise InputError("inline complex needs 'vertices' and 'simplices'")
        vertices = data["vertices"]
        if not _is_int(vertices) or vertices < 0:
            raise InputError("'vertices' must be a nonnegative integer")
        simplices = data["simplices"]
        if not isinstance(simplices, list) or not all(
                isinstance(s, list) and all(map(_is_int, s))
                for s in simplices):
            raise InputError("'simplices' must be a list of lists of "
                             "integer vertices")
        try:
            return SimplicialComplex(vertices, [tuple(s) for s in simplices])
        except (TypeError, ValueError) as exc:
            raise InputError("bad complex: %s" % exc) from None
    raise InputError("complex must be a builtin name or an inline description")


def parse_system(data, x: SimplicialComplex) -> LocalSystem:
    if not isinstance(data, dict):
        raise InputError("system must be an object")
    if "rank" not in data:
        raise InputError("system needs a 'rank'")
    rank = data["rank"]
    _check_rank(rank)
    _check_cochain_size(x, rank)
    kinds = [k for k in ("constant", "monodromy", "transports") if k in data]
    if len(kinds) != 1:
        raise InputError(
            "system needs exactly one of 'constant', 'monodromy', 'transports'")
    kind = kinds[0]
    try:
        if kind == "constant":
            return LocalSystem.constant(x, rank)
        if kind == "monodromy":
            if not isinstance(data["monodromy"], list):
                raise InputError("monodromy must be a list of matrices")
            mats = [parse_matrix(m, "monodromy matrix") for m in data["monodromy"]]
            return from_monodromy(x, mats, fiber_rank=rank)
        if not isinstance(data["transports"], dict):
            raise InputError("transports must be an object keyed by 'u-v'")
        transports = {}
        for key, mat in data["transports"].items():
            parts = key.replace(",", "-").split("-")
            if len(parts) != 2 or not all(map(_is_decimal, parts)):
                raise InputError("transport key %r is not 'u-v'" % key)
            edge = (int(parts[0]), int(parts[1]))
            if edge in transports:
                raise InputError("transport key %r repeats edge %r"
                                 % (key, edge))
            transports[edge] = parse_matrix(mat, "transport %r" % key)
        return LocalSystem(x, rank, transports)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError("bad system: %s" % exc) from None


def parse_bundle_spec(data) -> NcpTorusBundleSpec:
    if not isinstance(data, dict):
        raise InputError("bundle must be an object")
    for key in ("base", "windings", "chern"):
        if key not in data:
            raise InputError("bundle needs '%s'" % key)
    n = data.get("n", FIBER_RANK)
    if not _is_int(n):
        raise InputError("'n' must be an integer")
    if n != FIBER_RANK:
        raise InputError("only rank-%d torus fibers are supported"
                         % FIBER_RANK)
    windings = data["windings"]
    if not isinstance(windings, list) or not all(map(_is_int, windings)):
        raise InputError("windings must be a list of integers")
    if not isinstance(data["chern"], list):
        raise InputError("chern must be a list")
    chern = []
    for c in data["chern"]:
        if _is_int(c):
            chern.append(c)
        elif isinstance(c, list) and all(map(_is_int, c)):
            chern.append(tuple(c))
        else:
            raise InputError("chern entries must be integers or integer lists")
    try:
        spec = NcpTorusBundleSpec(
            base_name=data["base"],
            winding=tuple(windings),
            chern=tuple(chern),
        )
    except (TypeError, ValueError) as exc:
        raise InputError("bad bundle: %s" % exc) from None
    return spec


def _check_command_field(doc, command):
    declared = doc.get("command")
    if declared is not None and declared != command:
        raise InputError("document command %r does not match subcommand %r"
                         % (declared, command))


def _group_json(g):
    return {"group": g.render(), "free_rank": g.free_rank,
            "torsion": list(g.torsion)}


def _k_json(k):
    return {"pieces": [_group_json(g) for g in k.graded_pieces],
            "extension_ambiguous": k.extension_ambiguous}


def cmd_cohomology(args, doc):
    _check_command_field(doc, "cohomology")
    x = parse_complex(doc.get("complex"))
    system = parse_system(doc.get("system"), x)
    found = cohomology_groups(x, system, args.convention)
    return {
        "command": "cohomology",
        "convention": args.convention,
        "groups": [dict(degree=p, **_group_json(g))
                   for p, g in enumerate(found)],
    }


def cmd_group_cohomology(args, doc):
    _check_command_field(doc, "group-cohomology")
    data = doc.get("system")
    if not isinstance(data, dict):
        raise InputError("group-cohomology needs a 'system' object")
    if "rank" not in data or not isinstance(data.get("monodromy"), list):
        raise InputError("system needs 'rank' and a 'monodromy' list")
    rank, mats = data["rank"], data["monodromy"]
    _check_rank(rank)
    if len(mats) not in (1, 2):
        raise InputError("only actions of Z^1 or Z^2 are supported")
    matrices = tuple(parse_matrix(m, "action matrix") for m in mats)
    try:
        module = ZnModule(rank, matrices)
    except ValueError as exc:
        raise InputError("bad action: %s" % exc) from None
    return {
        "command": "group-cohomology",
        "n": module.n,
        "rank": rank,
        "groups": [dict(degree=k, **_group_json(g))
                   for k, g in enumerate(zn_cohomology(module))],
    }


def cmd_spectral(args, doc):
    _check_command_field(doc, "spectral")
    x = parse_complex(doc.get("complex"))
    system = doc.get("system")
    if not isinstance(system, dict) or "even" not in system or "odd" not in system:
        raise InputError("spectral needs system.even and system.odd")
    even = parse_system(system["even"], x)
    odd = parse_system(system["odd"], x)
    page1 = e1_page(x, GradedKBundle(even, odd))
    page2 = e2_page(page1)
    einf = stabilize(page2)
    k0, k1 = assemble(einf)
    return {
        "command": "spectral",
        "pages": [page1.to_dict(), page2.to_dict(), einf.to_dict()],
        "d2": "assumed zero",
        "k0": _k_json(k0),
        "k1": _k_json(k1),
    }


def cmd_ncp(args, doc):
    _check_command_field(doc, "ncp")
    spec = parse_bundle_spec(doc.get("bundle"))
    result = analyze(spec)
    return {
        "command": "ncp",
        "base": spec.base_name,
        "windings": list(spec.winding),
        "chern_pairings": list(spec.pairings),
        "k_gcd": result.d2.k_gcd,
        "d2_images": [list(result.d2.images.column(j))
                      for j in range(result.d2.images.ncols)],
        "pages": [result.e2.to_dict(), result.e3.to_dict()],
        "k0": _k_json(result.k_even),
        "k1": _k_json(result.k_odd),
        "verdict": {"trivial": result.verdict.trivial,
                    "certificate": result.verdict.certificate},
    }


def cmd_check(args, doc):
    _check_command_field(doc, "check")
    x = parse_complex(doc.get("complex"))
    system = parse_system(doc.get("system"), x)
    violations = system.violations
    checks = [("flatness", not violations,
               "violations at %s" % (violations,) if violations else "ok")]
    if not violations:
        # CochainComplex raises unless d o d = 0, so both d-squared
        # checks passed once the comparison has returned: it assembles
        # the e1 complex and derives the classical one by sign, and each
        # complex checks its own squares when it is made
        cmp_result = convention_compare(x, system)
        for convention in ("classical", "e1"):
            checks.append(("d-squared (%s)" % convention, True, "ok"))
        checks.append(("convention isomorphism", cmp_result.isomorphic,
                       "ok" if cmp_result.isomorphic else
                       "classical %s vs e1 %s" % (
                           [g.render() for g in cmp_result.classical],
                           [g.render() for g in cmp_result.e1])))
        total = sum((-1) ** p * g.free_rank
                    for p, g in enumerate(cmp_result.e1))
        expected = x.euler_characteristic() * system.fiber_rank
        ok = total == expected
        checks.append(("euler characteristic", ok,
                       "ok" if ok else "%d != chi*m = %d" % (total, expected)))
    return {
        "command": "check",
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "ok": all(ok for _, ok, _ in checks),
    }


def _degree_lines(title, groups):
    return [title, "%-8s %s" % ("degree", "group")] + [
        "%-8s %s" % ("H^%d" % g["degree"], g["group"]) for g in groups]


def _page_lines(pages):
    """The tables of ``pages``, the last one marked stable."""
    lines = []
    for i, page in enumerate(pages, start=1):
        lines += ["page r=%d%s" % (page["r"], " (stable)"
                                   if i == len(pages) else ""),
                  "  %-3s %-3s %-6s %-20s %s"
                  % ("p", "q", "coeff", "group", "d_rank")]
        lines += ["  %-3d %-3d %-6s %-20s %d"
                  % (e["p"], e["q"], "K%d" % e["coefficient_parity"],
                     e["group"], e["differential_rank"])
                  for e in page["entries"]]
    return lines


def _k_lines(report):
    ambiguous = report["k0"]["extension_ambiguous"] or \
        report["k1"]["extension_ambiguous"]
    return ["assembled graded K-theory%s:"
            % (" (extension-ambiguous)" if ambiguous else "")] + [
        "  K%d pieces: %s" % (s, ", ".join(g["group"] for g in
                                           report["k%d" % s]["pieces"]))
        for s in (0, 1)]


def human_report(report):
    """The human-readable text of any command's report."""
    command = report["command"]
    if command == "cohomology":
        lines = _degree_lines("cohomology (%s convention)"
                              % report["convention"], report["groups"])
    elif command == "group-cohomology":
        lines = _degree_lines("group cohomology H^k(Z^%d, Z^%d)"
                              % (report["n"], report["rank"]),
                              report["groups"])
    elif command == "check":
        failures = sum(not c["ok"] for c in report["checks"])
        lines = ["%-26s %s" % (c["name"] + ":", c["detail"])
                 for c in report["checks"]]
        lines.append("result: %s" % ("%d check(s) failed" % failures
                                     if failures else "ok"))
    elif command == "spectral":
        lines = _page_lines(report["pages"]) + [
            "note: d2 and higher assumed zero "
            "(not derivable from cochain data)"] + _k_lines(report)
    else:
        k, verdict = report["k_gcd"], report["verdict"]
        lines = ["ncp torus bundle over %s" % report["base"],
                 "windings: %s" % (report["windings"],),
                 "chern pairings: %s" % (report["chern_pairings"],),
                 "k = gcd(windings) = %d" % k]
        for i, p in enumerate(report["chern_pairings"], start=1):
            if k:
                lines.append("d2[U_%d] = %d (mod %d)%s"
                             % (i, p % k, k, "" if p % k else "  [zero]"))
            else:
                lines.append("d2[U_%d] = %d in Z%s"
                             % (i, p, "" if p else "  [zero]"))
        lines += _page_lines(report["pages"]) + _k_lines(report)
        lines.append("verdict: %s (%s)" % (
            "RKK-trivial" if verdict["trivial"] else "not RKK-trivial",
            verdict["certificate"]))
    return "\n".join(lines)


_HANDLERS = {
    "cohomology": cmd_cohomology,
    "group-cohomology": cmd_group_cohomology,
    "spectral": cmd_spectral,
    "ncp": cmd_ncp,
    "check": cmd_check,
}


@functools.cache
def make_parser():
    parser = argparse.ArgumentParser(
        prog="leray",
        description="Exact spectral sequence computations for K-theory "
                    "bundles over finite simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True,
                       help="job document (JSON file, or - for stdin)")
        p.add_argument("--emit", choices=("human", "machine"),
                       default="human")
        if name == "cohomology":
            p.add_argument("--convention", choices=("classical", "e1"),
                           default="e1", help="sign convention")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        report = _HANDLERS[args.command](args, load_document(args.input))
    except InputError as exc:
        return _fail(2, "input error: %s" % exc)
    except (ValueError, AssertionError) as exc:
        return _fail(1, "computation error: %s" % exc)
    if args.emit == "machine":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(human_report(report))
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver.

Reads a JSON job document, runs the requested computation, and emits a
human-readable table or a machine-readable JSON mirror.  Output is a
pure function of the document: identical inputs produce byte-identical
reports.

Exit codes: 0 success, 1 computation-level invariant failure (non-flat
system, differential not squaring to zero, page mismatch), 2 input
error (unparseable document, schema violation, unknown builtin).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cohomology import cohomology_groups, convention_compare
from .exactlinalg import IntMatrix, shared_smith_forms
from .group_cohomology import ZnModule, zn_cohomology
from .local_systems import (
    FlatnessError,
    GradedKBundle,
    LocalSystem,
    flatness_check,
    from_monodromy,
)
from .ncp_bundles import FIBER_RANK, NcpTorusBundleSpec, analyze
from .simplicial import SimplicialComplex, builtin
from .spectral import PageError, assemble, e1_page, e2_page, stabilize

COMMANDS = ("cohomology", "group-cohomology", "spectral", "ncp", "check")

# Largest fiber rank a document may ask for.  The paper's fibers have
# rank 2 (K-theory of the 2-torus), the benchmarks use 6, and 16 is the
# K^0 rank of a 5-torus fiber.  A rank-m system carries m x m transports
# and cochain matrices m^2 times larger than at rank 1.
MAX_RANK = 16

# Most entries of the largest coboundary, (n_(p+1) m) x (n_p m) for n_p
# p-simplices and rank m.  It bounds every command's systems, the ncp
# bundle's at rank FIBER_RANK included.  Coboundaries and their SNF
# transforms are dense: on CPython 3.11 (x86-64), spectral on
# circle(256) with two constant rank-4 systems (2^20 entries) peaked at
# 304 MiB, and on circle(181) (about 2^19) at 163 MiB.  genus(8) fits
# up to rank 6; ncp admits up to genus(24), which took 13 s and peaked
# at 341 MiB.
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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("parse error at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg)) from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    return doc


def _is_int(x):
    """True for a JSON integer; JSON true and false load as ``bool``,
    which is a subclass of ``int``."""
    return isinstance(x, int) and not isinstance(x, bool)


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
            return builtin(data)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    if isinstance(data, dict):
        if "vertices" not in data or "simplices" not in data:
            raise InputError("inline complex needs 'vertices' and 'simplices'")
        vertices = data["vertices"]
        if not _is_int(vertices) or vertices < 0:
            raise InputError("'vertices' must be a nonnegative integer")
        try:
            return SimplicialComplex(vertices,
                                     [tuple(s) for s in data["simplices"]])
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
            if len(parts) != 2:
                raise InputError("transport key %r is not 'u-v'" % key)
            u, v = int(parts[0]), int(parts[1])
            transports[(u, v)] = parse_matrix(mat, "transport %r" % key)
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
    if data.get("n", FIBER_RANK) != FIBER_RANK:
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
    _check_cochain_size(spec.base, FIBER_RANK)
    return spec


def _check_command_field(doc, command):
    declared = doc.get("command")
    if declared is not None and declared != command:
        raise InputError("document command %r does not match subcommand %r"
                         % (declared, command))


def _group_json(g):
    return {"group": g.render(), "free_rank": g.free_rank,
            "torsion": list(g.torsion)}


def _emit(args, human_lines, machine_obj):
    if args.emit == "machine":
        out = json.dumps(machine_obj, sort_keys=True, indent=2)
    else:
        out = "\n".join(human_lines)
    print(out)


def cmd_cohomology(args, doc):
    _check_command_field(doc, "cohomology")
    x = parse_complex(doc.get("complex"))
    system = parse_system(doc.get("system"), x)
    groups = cohomology_groups(x, system, args.convention)
    lines = ["cohomology (%s convention)" % args.convention,
             "%-8s %s" % ("degree", "group")]
    for p, g in enumerate(groups):
        lines.append("%-8s %s" % ("H^%d" % p, g.render()))
    machine = {
        "command": "cohomology",
        "convention": args.convention,
        "groups": [dict(degree=p, **_group_json(g))
                   for p, g in enumerate(groups)],
    }
    _emit(args, lines, machine)
    return 0


def cmd_group_cohomology(args, doc):
    _check_command_field(doc, "group-cohomology")
    data = doc.get("system") or doc.get("action")
    if not isinstance(data, dict):
        raise InputError("group-cohomology needs a 'system' object")
    rank = data.get("rank")
    mats = data.get("monodromy") or data.get("matrices")
    if rank is None or not isinstance(mats, list):
        raise InputError("system needs 'rank' and a matrix list")
    _check_rank(rank)
    matrices = tuple(parse_matrix(m, "action matrix") for m in mats)
    try:
        module = ZnModule(rank, matrices)
    except ValueError as exc:
        raise InputError("bad action: %s" % exc) from None
    if module.n not in (1, 2):
        raise InputError("only actions of Z^1 or Z^2 are supported")
    groups = zn_cohomology(module)
    lines = ["group cohomology H^k(Z^%d, Z^%d)" % (module.n, rank),
             "%-8s %s" % ("degree", "group")]
    for k, g in enumerate(groups):
        lines.append("%-8s %s" % ("H^%d" % k, g.render()))
    machine = {
        "command": "group-cohomology",
        "n": module.n,
        "rank": rank,
        "groups": [dict(degree=k, **_group_json(g))
                   for k, g in enumerate(groups)],
    }
    _emit(args, lines, machine)
    return 0


def _page_lines(page, title):
    lines = ["%s" % title,
             "  %-3s %-3s %-6s %-20s %s" % ("p", "q", "coeff", "group", "d_rank")]
    for (r, p, q, group, drank) in page.table_rows():
        coeff = "K%d" % page.coefficient_parity(p, q)
        lines.append("  %-3d %-3d %-6s %-20s %d" % (p, q, coeff, group, drank))
    return lines


def _assembled_lines(k0, k1):
    return [
        "assembled graded K-theory (extension-ambiguous):",
        "  K0 pieces: %s" % k0.render(),
        "  K1 pieces: %s" % k1.render(),
    ]


def cmd_spectral(args, doc):
    _check_command_field(doc, "spectral")
    x = parse_complex(doc.get("complex"))
    system = doc.get("system")
    if not isinstance(system, dict) or "even" not in system or "odd" not in system:
        raise InputError("spectral needs system.even and system.odd")
    even = parse_system(system["even"], x)
    odd = parse_system(system["odd"], x)
    bundle = GradedKBundle(even, odd)
    page1 = e1_page(x, bundle)
    page2 = e2_page(page1)
    einf = stabilize(page2)
    k0, k1 = assemble(einf)
    lines = []
    lines += _page_lines(page1, "page r=1")
    lines += _page_lines(page2, "page r=2")
    lines += _page_lines(einf, "page r=%d (stable)" % einf.r)
    lines.append("note: d2 and higher assumed zero "
                 "(not derivable from cochain data)")
    lines += _assembled_lines(k0, k1)
    machine = {
        "command": "spectral",
        "pages": [page1.to_dict(), page2.to_dict(), einf.to_dict()],
        "d2": "assumed zero",
        "k0": {"pieces": [_group_json(g) for g in k0.graded_pieces],
               "extension_ambiguous": True},
        "k1": {"pieces": [_group_json(g) for g in k1.graded_pieces],
               "extension_ambiguous": True},
    }
    _emit(args, lines, machine)
    return 0


def cmd_ncp(args, doc):
    _check_command_field(doc, "ncp")
    spec = parse_bundle_spec(doc.get("bundle"))
    result = analyze(spec)
    k = result.d2.k_gcd
    pairings = result.verdict.chern_pairings
    lines = [
        "ncp torus bundle over %s" % spec.base_name,
        "windings: %s" % (list(spec.winding),),
        "chern pairings: %s" % (list(pairings),),
        "k = gcd(windings) = %d" % k,
    ]
    for i, p in enumerate(pairings, start=1):
        if k:
            lines.append("d2[U_%d] = %d (mod %d)%s"
                         % (i, p % k, k, "" if p % k else "  [zero]"))
        else:
            lines.append("d2[U_%d] = %d in Z%s"
                         % (i, p, "" if p else "  [zero]"))
    lines += _page_lines(result.e2, "page r=2")
    lines += _page_lines(result.e3, "page r=3 (stable)")
    lines += _assembled_lines(result.k_even, result.k_odd)
    verdict = "RKK-trivial" if result.verdict.trivial else "not RKK-trivial"
    lines.append("verdict: %s (%s)" % (verdict, result.verdict.certificate))
    machine = {
        "command": "ncp",
        "base": spec.base_name,
        "windings": list(spec.winding),
        "chern_pairings": list(pairings),
        "k_gcd": k,
        "d2_images": [list(result.d2.images.column(j))
                      for j in range(result.d2.images.ncols)],
        "pages": [result.e2.to_dict(), result.e3.to_dict()],
        "k0": {"pieces": [_group_json(g) for g in result.k_even.graded_pieces],
               "extension_ambiguous": True},
        "k1": {"pieces": [_group_json(g) for g in result.k_odd.graded_pieces],
               "extension_ambiguous": True},
        "verdict": {"trivial": result.verdict.trivial,
                    "certificate": result.verdict.certificate},
    }
    _emit(args, lines, machine)
    return 0


def cmd_check(args, doc):
    _check_command_field(doc, "check")
    x = parse_complex(doc.get("complex"))
    system = parse_system(doc.get("system"), x)
    failures = 0
    lines = []
    checks = []

    violations = flatness_check(system)
    checks.append(("flatness", not violations,
                   "violations at %s" % (violations,) if violations else "ok"))
    if not violations:
        # build raises unless d o d = 0, so both d-squared checks passed
        # once the comparison, which builds each complex, has returned
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
    for name, ok, detail in checks:
        failures += 0 if ok else 1
        lines.append("%-26s %s" % (name + ":", detail))
    lines.append("result: %s" % ("ok" if failures == 0 else
                                 "%d check(s) failed" % failures))
    machine = {
        "command": "check",
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "ok": failures == 0,
    }
    _emit(args, lines, machine)
    return 0 if failures == 0 else 1


_HANDLERS = {
    "cohomology": cmd_cohomology,
    "group-cohomology": cmd_group_cohomology,
    "spectral": cmd_spectral,
    "ncp": cmd_ncp,
    "check": cmd_check,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="leray",
        description="Exact spectral sequence computations for K-theory "
                    "bundles over finite simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True,
                       help="job document (JSON file, or - for stdin)")
        p.add_argument("--emit", choices=("human", "machine"),
                       default="human")
        p.add_argument("--convention", choices=("classical", "e1"),
                       default="e1",
                       help="sign convention for the cohomology command")
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        doc = load_document(args.input)
        with shared_smith_forms():
            return _HANDLERS[args.command](args, doc)
    except InputError as exc:
        return _fail(2, "input error: %s" % exc)
    except (FlatnessError, PageError) as exc:
        return _fail(1, "computation error: %s" % exc)
    except (ValueError, AssertionError) as exc:
        return _fail(1, "computation error: %s" % exc)


if __name__ == "__main__":
    sys.exit(main())

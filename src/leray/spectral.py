"""The spectral sequence engine.

Pages live on a (p, q mod 2) cylinder: K-theory coefficients are
2-periodic, so the infinite q-axis folds onto two rows.  The entry at
(p, q) is a subquotient of the degree-p cochain module of the
coefficient system with parity (p + q) mod 2, and the page-r
differential maps (p, q) to (p + r, q - 1 mod 2): one column step per
page number, always flipping the stored q-row, and changing the
coefficient parity by r - 1 as it must.

The first page is the cell-by-cell cochain module with the
e1-convention differential.  Turning a page is entrywise homology,
computed on representatives so that later differentials can still be
evaluated on actual cochains: every entry of every page stays presented
inside the same ambient cochain module.

No differential beyond the first is derivable from the cochain data
alone; d_2 is injected (see ncp_bundles for the torus-bundle formula)
and pages advance with zero differentials otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import build, cohomology
from .exactlinalg import (
    FgAbGroup,
    IntMatrix,
    preimage_lattice,
    rank as matrix_rank,
    subquotient,
)
from .local_systems import GradedKBundle


class PageError(ValueError):
    """A spectral page invariant failed."""


class SpectralPage:
    """One page: entries and differentials on the (p, q mod 2) cylinder.

    ``entries[(p, q)]`` is a Subquotient of the ambient cochain module;
    ``differentials[(p, q)]``, when present, is an integer matrix from
    the canonical generators of the entry to the canonical coordinates
    of the entry at (p + r, (q - 1) % 2).  The differentials are
    validated once, here; a page never changes afterwards.
    """

    def __init__(self, r, x, bundle, entries, differentials):
        self.r = r
        self.x = x
        self.bundle = bundle
        self.entries = dict(entries)
        self.differentials = dict(differentials)
        _validate_differentials(self)

    @property
    def dimension(self):
        return self.x.dimension

    def keys(self):
        return [(p, q) for p in range(self.dimension + 1) for q in (0, 1)]

    def entry(self, p, q):
        return self.entries[(p, q % 2)]

    def group(self, p, q) -> FgAbGroup:
        if not 0 <= p <= self.dimension:
            return FgAbGroup(0, ())
        return self.entry(p, q).quotient

    def coefficient_parity(self, p, q):
        return (p + q) % 2

    def target_key(self, p, q):
        return (p + self.r, (q - 1) % 2)

    def with_differentials(self, differentials) -> "SpectralPage":
        return SpectralPage(self.r, self.x, self.bundle,
                            self.entries, differentials)

    def table_rows(self):
        """(r, p, q, group, outgoing differential rank) per entry."""
        rows = []
        for (p, q) in self.keys():
            d = self.differentials.get((p, q))
            rows.append((self.r, p, q, self.group(p, q).render(),
                         matrix_rank(d) if d is not None else 0))
        return rows

    def __repr__(self):
        cells = ", ".join("E(%d,%d)=%s" % (p, q, self.group(p, q).render())
                          for (p, q) in self.keys())
        return "SpectralPage(r=%d, %s)" % (self.r, cells)

    def to_dict(self):
        return {
            "r": self.r,
            "entries": [
                {"p": p, "q": q,
                 "coefficient_parity": self.coefficient_parity(p, q),
                 "group": self.group(p, q).render(),
                 "free_rank": self.group(p, q).free_rank,
                 "torsion": list(self.group(p, q).torsion),
                 "differential_rank": row[4]}
                for (p, q), row in zip(self.keys(), self.table_rows())
            ],
        }


def _zero_class(entry, coords):
    g = entry.quotient
    if any(coords[i] for i in range(g.free_rank)):
        return False
    return all(c % t == 0
               for c, t in zip(coords[g.free_rank:], g.torsion))


def _relation_lattice(group: FgAbGroup) -> IntMatrix:
    """Columns spanning the zero classes in canonical coordinates."""
    cols = []
    n = group.ngens
    for j, t in enumerate(group.torsion):
        col = [0] * n
        col[group.free_rank + j] = t
        cols.append(tuple(col))
    return IntMatrix.from_columns(cols, nrows=n) if cols \
        else IntMatrix.zeros(n, 0)


def _validate_differentials(page: SpectralPage):
    for (p, q), mat in page.differentials.items():
        if not 0 <= p <= page.dimension:
            raise PageError("differential source (%d, %d) outside window" % (p, q))
        tp, tq = page.target_key(p, q)
        if tp > page.dimension:
            if not mat.is_zero():
                raise PageError("nonzero differential maps outside the window")
            continue
        source = page.entry(p, q)
        target = page.entry(tp, tq)
        if mat.shape != (target.quotient.ngens, source.quotient.ngens):
            raise PageError("differential at (%d, %d) has wrong shape" % (p, q))
        g = source.quotient
        for j, t in enumerate(g.torsion):
            col = mat.column(g.free_rank + j)
            if not _zero_class(target, tuple(t * c for c in col)):
                raise PageError(
                    "differential at (%d, %d) is not well-defined on classes"
                    % (p, q))
    # d o d = 0 on classes
    for (p, q), mat in page.differentials.items():
        tp, tq = page.target_key(p, q)
        if tp > page.dimension:
            continue
        nxt = page.differentials.get((tp, tq))
        if nxt is None:
            continue
        comp = nxt * mat
        ttp, ttq = page.target_key(tp, tq)
        if ttp > page.dimension:
            if not comp.is_zero():
                raise PageError("differential does not square to zero")
            continue
        final = page.entry(ttp, ttq)
        for j in range(comp.ncols):
            if not _zero_class(final, comp.column(j)):
                raise PageError("differential does not square to zero")


def e1_page(x, bundle: GradedKBundle) -> SpectralPage:
    """First page: cochain modules of the two parity systems, with the
    e1-convention differential; entry (p, q) carries the coefficient
    system of parity (p + q) mod 2."""
    if bundle.base != x:
        raise ValueError("bundle is not defined over this complex")
    complexes = {0: build(x, bundle.even, "e1"), 1: build(x, bundle.odd, "e1")}
    entries = {}
    differentials = {}
    for p in range(x.dimension + 1):
        for q in (0, 1):
            c = complexes[(p + q) % 2]
            n = c.degree_rank(p)
            entries[(p, q)] = subquotient(IntMatrix.identity(n),
                                          IntMatrix.zeros(n, 0))
            if p + 1 <= x.dimension:
                differentials[(p, q)] = c.differential(p)
    return SpectralPage(1, x, bundle, entries, differentials)


def _turn(page: SpectralPage) -> SpectralPage:
    """Entrywise homology with respect to the stored differentials.

    Every new entry is presented inside the same ambient cochain module
    as its predecessor: new cycles are the preimage of zero under the
    outgoing map, new boundaries extend the old ones by lifted images of
    the incoming map.  The differentials were validated when the page
    was made.
    """
    new_entries = {}
    for (p, q) in page.keys():
        entry = page.entry(p, q)
        out = page.differentials.get((p, q))
        tp, tq = page.target_key(p, q)
        if out is not None and tp <= page.dimension:
            target = page.entry(tp, tq)
            cond = out * entry.project_matrix(entry.cycle_gens)
            lat = preimage_lattice(cond, _relation_lattice(target.quotient))
            cycles = entry.cycle_gens * lat
        else:
            cycles = entry.cycle_gens
        sp, sq = p - page.r, (q + 1) % 2
        boundaries = entry.boundary_gens
        if sp >= 0:
            inc = page.differentials.get((sp, sq))
            if inc is not None and not inc.is_zero():
                lifted = page.entry(p, q).lift_matrix * inc
                boundaries = boundaries.hstack(lifted)
        new_entries[(p, q)] = subquotient(cycles, boundaries)
    return SpectralPage(page.r + 1, page.x, page.bundle, new_entries, {})


def e2_page(page1: SpectralPage) -> SpectralPage:
    """Second page, with the Leray-Serre identification as a runtime
    cross-check: every entry must equal the local-coefficient cohomology
    of the base computed independently degree by degree."""
    if page1.r != 1:
        raise PageError("e2_page expects a first page")
    page2 = _turn(page1)
    for parity in (0, 1):
        system = page1.bundle.part(parity)
        hs = cohomology(build(page1.x, system, "e1"))
        for p in range(page1.dimension + 1):
            q = (parity - p) % 2
            got = page2.group(p, q)
            want = hs[p].quotient
            if got != want:
                raise PageError(
                    "page-turned entry E2^(%d,%d) = %s disagrees with "
                    "H^%d = %s" % (p, q, got.render(), p, want.render()))
    return page2


def attach_d2(page2: SpectralPage, d2=None) -> SpectralPage:
    """Third page from an externally supplied d_2.

    ``d2`` maps (p, q) keys to matrices on canonical generators, with
    target (p + 2, q - 1 mod 2).  The map must be well-defined on
    classes; squaring to zero is automatic on a base of dimension <= 2
    and is checked in general.  Without ``d2``, the differentials the
    page already carries (see ``with_differentials``) are used.
    """
    if page2.r != 2:
        raise PageError("attach_d2 expects a second page")
    if d2 is not None:
        page2 = page2.with_differentials(d2)
    return _turn(page2)


def stabilize(page: SpectralPage) -> SpectralPage:
    """Advance (with the stored, typically zero, differentials) until
    r exceeds the base dimension, after which pages cannot change."""
    while page.r <= page.dimension:
        page = _turn(page)
    return page


@dataclass(frozen=True)
class AssembledKTheory:
    """Associated graded of the limit filtration for one total parity.

    The extension problems are not resolved: the list determines the
    K-group only up to iterated extensions, and is flagged as such.
    """

    parity: int
    graded_pieces: tuple
    extension_ambiguous: bool = True

    @property
    def total_rank(self):
        return sum(g.free_rank for g in self.graded_pieces)

    def render(self):
        return ", ".join(g.render() for g in self.graded_pieces)


def assemble(page: SpectralPage):
    """Graded pieces (E_oo^{p, parity})_p for both total parities.

    Requires a stable page (r > dim): piece p of the parity-s K-group is
    the entry at (p, s), whose coefficient parity is (p + s) mod 2.
    """
    if page.r <= page.dimension:
        raise PageError("page is not stable yet (r <= dim)")
    out = []
    for parity in (0, 1):
        pieces = tuple(page.group(p, parity)
                       for p in range(page.dimension + 1))
        out.append(AssembledKTheory(parity=parity, graded_pieces=pieces))
    return tuple(out)

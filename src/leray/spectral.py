"""The spectral sequence engine.

Pages live on a (p, q mod 2) cylinder: K-theory coefficients are
2-periodic, so the infinite q-axis folds onto two rows.  The entry at
(p, q) is a subquotient of the degree-p cochain module of the
coefficient system with parity (p + q) mod 2, and the page-r
differential maps (p, q) to (p + r, q - 1 mod 2): one column step per
page number, always flipping the stored q-row, and changing the
coefficient parity by r - 1 as it must.

A page is made from two cochain complexes, one per coefficient parity,
on any cell structure of the base: cohomology does not depend on it.
``e1_page`` builds them from the simplices of a complex and a graded
bundle of local systems; ``ncp_bundles`` hands ``first_page`` the
complexes of the one-vertex cell structure of a surface, and
``surface_e1_page`` those of a graded bundle on that structure, for
the ``spectral`` command on a named closed surface.  The first page is
the cell-by-cell cochain module with the e1-convention differential;
it stores that differential alone and presents no entry.  Its groups
and d1 ranks are reported from its module ranks and E2's free ranks,
so ``surface_e1_page`` reports the simplicial E1 from the simplex
counts alone, with no simplicial coboundary made.  The second is
E2^{p,q} = H^p(X; K_{p+q}).  Its groups come
from the invariant factors of the coboundaries
(``cohomology.groups``), with no transforms; its entries, with
representatives from ``cohomology``, are presented one at a time, when
read, and each is certified against its group.  A page that only
reports groups and ranks, as the ``spectral`` command's do, makes no
presentation at all.  Later pages are entrywise homology, computed on
representatives so that later differentials can still be evaluated on
actual cochains: every entry of every page stays presented inside the
same ambient cochain module.  An entry that no nonzero differential
enters or leaves is its own homology, E_{r+1} = E_r there, so the turn
takes it over from the page before, the same object, made when first
read; only entries a nonzero differential touches are rebuilt.

No differential beyond the first is derivable from the cochain data
alone; d_2 is injected (see ncp_bundles for the torus-bundle formula)
by ``with_differentials``, the one way a page gets differentials, and
certified by ``d2_spec``, which makes it; ``attach_d2`` turns the page
it is on, and pages advance with zero differentials otherwise.
"""

from __future__ import annotations

from .cohomology import build, cohomology, groups, surface_complex
from .exactlinalg import (
    FgAbGroup,
    IntMatrix,
    Subquotient,
    invariant_factors,
    preimage_lattice,
    relations,
    smith_normal_form,
)
from .local_systems import GradedKBundle


class PageError(ValueError):
    """A spectral page invariant failed."""


class SpectralPage:
    """One page: entries and differentials on the (p, q mod 2) cylinder.

    ``entry(p, q)`` is a Subquotient of the ambient cochain module and
    ``group(p, q)`` its quotient; ``differentials[(p, q)]``, when
    present, is an integer matrix from the canonical generators of the
    entry to the canonical coordinates of the entry at
    (p + r, (q - 1) % 2).  A page never changes once made; E1's
    differentials are certified by ``CochainComplex``.  ``complexes``
    maps each coefficient parity to the cochain complex whose modules
    hold the entries; the page's dimension is theirs.

    ``entries`` are the entries made with the page.  Any other entry or
    group is read from ``source``, an object with the same ``entry`` and
    ``group`` methods: the page before, or E2's cohomology.  Every entry
    and group read is kept.  E1 has no source and presents nothing: its
    group at (p, q) is the free cochain module Z^(n_p), and reading one
    of its entries raises PageError.  n_p is the degree-p rank of the
    complex of parity s = (p + q) mod 2, or ``modules[s][p]`` when E1
    is given the module ranks of another cell structure of the base.
    """

    def __init__(self, r, complexes, entries, differentials, source=None,
                 modules=None):
        self.r = r
        self.complexes = complexes
        self._entries = dict(entries)
        self._groups = {}
        self.differentials = dict(differentials)
        self._source = source
        self.modules = modules

    @property
    def dimension(self):
        return self.complexes[0].dimension

    def keys(self):
        return [(p, q) for p in range(self.dimension + 1) for q in (0, 1)]

    def entry(self, p, q):
        key = (p, q % 2)
        if key not in self._entries:
            if not 0 <= p <= self.dimension:
                raise KeyError(key)
            if self._source is None:
                raise PageError("E1 presents no entries")
            self._entries[key] = self._source.entry(*key)
        return self._entries[key]

    def group(self, p, q) -> FgAbGroup:
        key = (p, q % 2)
        if key not in self._groups:
            if not 0 <= p <= self.dimension:
                return FgAbGroup(0, ())
            if key in self._entries:
                self._groups[key] = self._entries[key].quotient
            elif self._source is None:
                s = (p + q) % 2
                self._groups[key] = FgAbGroup(
                    self.complexes[s].degree_rank(p) if self.modules is None
                    else self.modules[s][p], ())
            else:
                self._groups[key] = self._source.group(*key)
        return self._groups[key]

    def coefficient_parity(self, p, q):
        return (p + q) % 2

    def target_key(self, p, q):
        return (p + self.r, (q - 1) % 2)

    def with_differentials(self, differentials) -> "SpectralPage":
        """This page with ``differentials``, matrices on canonical
        generators keyed by source; their maker certifies them, as
        ``ncp_bundles.d2_spec`` does d_2."""
        return SpectralPage(self.r, self.complexes, {}, differentials,
                            source=self)

    def _d1_ranks(self, s):
        """E1's d1 ranks on the cochains of parity s, degree by degree,
        from its groups and E2's: the free rank of H^p is n_p - rank d1_p
        - rank d1_(p-1), so rank d1_p = n_p - free rank H^p - rank
        d1_(p-1).  E2's groups come from the invariant factors the
        complex keeps, so nothing is eliminated twice."""
        ranks = [0]
        for p, h in enumerate(groups(self.complexes[s])):
            ranks.append(self.group(p, s - p).free_rank - h.free_rank
                         - ranks[-1])
        return ranks[1:]

    def to_dict(self):
        """The page report: per entry its group and the rank of its
        outgoing differential, counted by invariant factors; E1's
        follow from its groups and E2's (``_d1_ranks``)."""
        d1 = {s: self._d1_ranks(s) for s in (0, 1)} if self.r == 1 else {}
        entries = []
        for (p, q) in self.keys():
            if self.r == 1:
                rank = d1[(p + q) % 2][p]
            else:
                d = self.differentials.get((p, q))
                rank = 0 if d is None else len(invariant_factors(d))
            g = self.group(p, q)
            entries.append({
                "p": p, "q": q,
                "coefficient_parity": self.coefficient_parity(p, q),
                "group": g.render(), "free_rank": g.free_rank,
                "torsion": list(g.torsion), "differential_rank": rank})
        return {"r": self.r, "entries": entries}


def relation_lattice(group: FgAbGroup) -> IntMatrix:
    """Columns spanning the zero classes in canonical coordinates."""
    n, torsion = group.ngens, group.torsion
    rows = [{} for _ in range(group.free_rank)]
    rows += [{j: t} for j, t in enumerate(torsion)]
    return IntMatrix._trusted(rows, n, len(torsion))


def e1_page(x, bundle: GradedKBundle) -> SpectralPage:
    """First page of a graded bundle of local systems on a simplicial
    complex: its simplicial cochains with the e1-convention
    differential."""
    if bundle.base != x:
        raise ValueError("bundle is not defined over this complex")
    return first_page({0: build(x, bundle.even, "e1"),
                       1: build(x, bundle.odd, "e1")})


def surface_e1_page(x, bundle: GradedKBundle) -> SpectralPage:
    """First page of a graded bundle of systems that keep their
    holonomy, on a closed oriented surface x, computed on the
    one-relator cell model (``cohomology.surface_complex``).  Its groups
    are x's simplicial cochain modules, Z^(n_p m) for n_p p-simplices
    and rank m, counted, and every later page is made from the cell
    complexes: no simplicial coboundary is made."""
    if bundle.base != x:
        raise ValueError("bundle is not defined over this complex")
    parts = (bundle.even, bundle.odd)
    return first_page(
        {s: surface_complex(part) for s, part in enumerate(parts)},
        {s: [x.n_simplices(p) * part.fiber_rank
             for p in range(x.dimension + 1)]
         for s, part in enumerate(parts)})


def first_page(complexes, modules=None) -> SpectralPage:
    """First page of the cochain complexes ``{0: even, 1: odd}`` of one
    base: entry (p, q) is the cochain module of degree p of the complex
    of parity (p + q) mod 2, and d1 is its coboundary.  Only d1 is
    stored; the page's groups are the free modules (``group``).

    ``modules``, when given, maps each parity to the module ranks of
    another cell structure of the base: those are the page's groups,
    and it stores no d1, which is not that of ``complexes``."""
    if modules is not None:
        return SpectralPage(1, complexes, {}, {}, modules=modules)
    differentials = {(p, q): complexes[(p + q) % 2].differential(p)
                     for p in range(complexes[0].dimension) for q in (0, 1)}
    return SpectralPage(1, complexes, {}, differentials)


def _turn(page: SpectralPage) -> SpectralPage:
    """Entrywise homology with respect to the stored differentials.

    Every new entry is presented inside the same ambient cochain module
    as its predecessor: new cycles are the preimage of zero under the
    outgoing map, new boundaries extend the old ones by lifted images of
    the incoming map.  Where both maps are zero (or absent) the cycles
    are all of the entry and the boundaries add nothing, so the new page
    takes the entry and its group from this one, the same objects, and
    nothing is made for it, here or later; where only the outgoing map
    is zero, the cycles keep their decomposition.  A nonzero
    differential cannot leave the window: the first page stores none
    there, and ``d2_spec`` makes only d_2 from (0, 1) to (2, 0).
    """
    live = {key for key, mat in page.differentials.items()
            if not mat.is_zero()}
    new_entries = {}
    for (p, q) in page.keys():
        incoming = (p - page.r, (q + 1) % 2)
        if (p, q) not in live and incoming not in live:
            continue
        entry = page.entry(p, q)
        cycles = entry._cycles
        if (p, q) in live:
            # The canonical coordinates of the cycle basis: see
            # Subquotient._canonical.
            cond = page.differentials[(p, q)] * \
                entry._canonical(entry._gen_change)
            target = page.entry(*page.target_key(p, q))
            cycles = smith_normal_form(entry.cycle_gens * preimage_lattice(
                cond, relation_lattice(target.quotient)))
        boundaries = entry.boundary_gens
        if incoming in live:
            boundaries = boundaries.hstack(
                entry.lift_matrix * page.differentials[incoming])
        new_entries[(p, q)] = Subquotient(cycles,
                                          relations(cycles, boundaries))
    return SpectralPage(page.r + 1, page.complexes, new_entries, {},
                        source=page)


class _Cohomology:
    """The entries of E2, H^p(X; K_s) at (p, (s - p) mod 2), for the
    cochain complexes ``{s: K_s cochains}``.

    The groups of parity s are ``groups`` of its complex, from the
    invariant factors of the coboundaries.  An entry is ``cohomology``
    of its complex in its degree, presented when it is read (the page
    keeps it); its quotient must equal the group the invariant factors
    give, or PageError is raised.  The complex keeps the Smith forms
    ``cohomology`` makes, and ``groups`` reads their diagonals, so
    presenting an entry before its groups are read eliminates each
    coboundary once.
    """

    def __init__(self, complexes):
        self.complexes = complexes
        self._groups = {}

    def group(self, p, q):
        s = (p + q) % 2
        if s not in self._groups:
            self._groups[s] = groups(self.complexes[s])
        return self._groups[s][p]

    def entry(self, p, q):
        s = (p + q) % 2
        h, group = cohomology(self.complexes[s], p), self.group(p, q)
        if h.quotient != group:
            raise PageError(
                "E2 entry H^%d of parity %d presents %s, where the "
                "invariant factors give %s"
                % (p, s, h.quotient.render(), group.render()))
        return h


def e2_page(page1: SpectralPage) -> SpectralPage:
    """Second page: entry (p, (s - p) mod 2) is H^p(X; K_s).

    Nothing is computed here.  The groups come from the invariant
    factors of the coboundaries of each parity's complex, with no
    transforms.  Each entry, presented with representatives, is made
    when it is read, and certified against its group (see
    ``_Cohomology``)."""
    if page1.r != 1:
        raise PageError("e2_page expects a first page")
    return SpectralPage(2, page1.complexes, {}, {},
                        source=_Cohomology(page1.complexes))


def attach_d2(page2: SpectralPage) -> SpectralPage:
    """Third page from the d_2 a second page carries.

    A page gets its d_2 from ``with_differentials``: matrices on
    canonical generators keyed by (p, q), with target (p + 2, q - 1
    mod 2), certified by their maker, ``ncp_bundles.d2_spec``.  A page
    that carries none turns with d_2 = 0.
    """
    if page2.r != 2:
        raise PageError("attach_d2 expects a second page")
    return _turn(page2)


def stabilize(page: SpectralPage) -> SpectralPage:
    """Advance (with the stored, typically zero, differentials) until
    r exceeds the base dimension, after which pages cannot change."""
    while page.r <= page.dimension:
        page = _turn(page)
    return page


class AssembledKTheory:
    """Associated graded of the limit filtration for one total parity.

    The extension problems are not resolved: the list determines the
    K-group only up to iterated extensions, and is flagged as such.
    """

    __slots__ = ("graded_pieces",)
    extension_ambiguous = True

    def __init__(self, graded_pieces):
        self.graded_pieces = graded_pieces

    @property
    def total_rank(self):
        return sum(g.free_rank for g in self.graded_pieces)


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
        out.append(AssembledKTheory(pieces))
    return tuple(out)

"""Group cohomology H^k(Z^n, M) for integer-matrix actions, n <= 2.

With B_i = A_i - I, the Koszul complex of the commuting B_i computes
H^*(Z^n, M) (Brown, *Cohomology of Groups*, GTM 87): M --B_1--> M for
n = 1, and M --[B_1; B_2]--> M^2 --[-B_2 | B_1]--> M for n = 2.  It is
a ``CochainComplex`` like any other, so its groups come from
``cohomology.cohomology``, the one cohomology routine of the package.
``recursion_check`` validates the result against the two-step recursion
through H^*(Z, M): the short exact sequence determines the middle group
only up to extension, so the check compares free ranks exactly and
torsion orders by divisibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CochainComplex, cohomology
from .exactlinalg import (
    FgAbGroup,
    IntMatrix,
    action_inverses,
    cokernel_group,
    kernel,
    preimage_lattice,
    solve,
    subquotient,
    vstack_all,
)


@dataclass(frozen=True)
class ZnModule:
    """Z^rank with an action of Z^n by commuting unimodular matrices,
    checked once, by ``action_inverses``, when the module is made."""

    rank: int
    action: tuple

    def __post_init__(self):
        object.__setattr__(self, "action", tuple(self.action))
        action_inverses(self.action, self.rank)

    @property
    def n(self):
        return len(self.action)


def zn_cohomology(module: ZnModule):
    """[H^0, ..., H^n] as FgAbGroup values: the ``cohomology`` of the
    Koszul complex of the already-checked action; n must be 1 or 2.

    Its coboundaries are the stacked B_i, then [-B_2 | B_1] when n = 2,
    then the zero map, and each is decomposed once."""
    if module.n not in (1, 2):
        raise ValueError("only n = 1 or n = 2 is supported")
    ident = IntMatrix.identity(module.rank)
    b = [a - ident for a in module.action]
    coboundaries = [vstack_all(b)]
    if module.n == 2:
        coboundaries.append((-b[1]).hstack(b[0]))
    coboundaries.append(IntMatrix.zeros(0, module.rank))
    return [h.quotient for h in cohomology(CochainComplex(coboundaries))]


def _induced_on_kernel(a1, k):
    """Matrix of a1 restricted to the saturated sublattice spanned by k."""
    x = solve(k, a1 * k)
    if x is None:
        raise AssertionError("action does not preserve the kernel")
    return x


def _inv_on_quotient(a1, rel):
    """Invariants of the action induced by a1 on Z^m / im(rel)."""
    m = a1.nrows
    ident = IntMatrix.identity(m)
    pre = preimage_lattice(a1 - ident, rel)
    return subquotient(pre, rel).quotient


@dataclass(frozen=True)
class RecursionReport:
    """Per-degree comparison of H^k(Z^2, M) against the Z-recursion."""

    groups: tuple           # H^0..H^2 of Z^2
    coinv_ends: tuple       # Coinv_Z H^{k-1}(Z, M) for k = 0..2
    inv_ends: tuple         # Inv_Z H^k(Z, M) for k = 0..2
    rank_ok: tuple
    torsion_ok: tuple

    @property
    def ok(self):
        return all(self.rank_ok) and all(self.torsion_ok)


def recursion_check(module: ZnModule) -> RecursionReport:
    """Rank and torsion consistency of the classifying-space answer with
    the recursion through the last Z-factor.

    For each k the recursion provides a short exact sequence with ends
    Coinv_Z H^{k-1}(Z, M) and Inv_Z H^k(Z, M), where Z acts through the
    first matrix and H^*(Z, M) is taken for the second.  Free ranks add
    exactly; the middle torsion order divides the product of the ends'.
    """
    if module.n != 2:
        raise ValueError("recursion check needs n = 2")
    a1, a2 = module.action
    m = module.rank
    ident = IntMatrix.identity(m)
    groups = tuple(zn_cohomology(module))

    # H^*(Z, M) for the second factor, with the induced action of the first.
    k_basis = kernel(a2 - ident)
    a1_on_h0 = _induced_on_kernel(a1, k_basis)
    sub_ident = IntMatrix.identity(k_basis.ncols)

    inv_h0 = FgAbGroup(kernel(a1_on_h0 - sub_ident).ncols, ())
    coinv_h0 = cokernel_group(a1_on_h0 - sub_ident)
    inv_h1 = _inv_on_quotient(a1, a2 - ident)
    coinv_h1 = cokernel_group((a1 - ident).hstack(a2 - ident))

    zero = FgAbGroup(0, ())
    coinv_ends = (zero, coinv_h0, coinv_h1)   # Coinv of H^{k-1}
    inv_ends = (inv_h0, inv_h1, zero)         # Inv of H^k

    rank_ok = tuple(
        groups[k].free_rank == coinv_ends[k].free_rank + inv_ends[k].free_rank
        for k in range(3))
    torsion_ok = tuple(
        (coinv_ends[k].torsion_order() * inv_ends[k].torsion_order())
        % groups[k].torsion_order() == 0
        for k in range(3))
    return RecursionReport(groups, coinv_ends, inv_ends, rank_ok, torsion_ok)

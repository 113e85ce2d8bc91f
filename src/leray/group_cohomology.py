"""Group cohomology H^k(Z^n, M) for integer-matrix actions, n <= 2.

With B_i = A_i - I, the Koszul complex of the commuting B_i computes
H^*(Z^n, M) (Brown, *Cohomology of Groups*, GTM 87): M --B_1--> M for
n = 1, and M --[B_1; B_2]--> M^2 --[-B_2 | B_1]--> M for n = 2.  It is
a ``CochainComplex`` like any other, so its groups come from
``cohomology.groups``, which serves every complex of the package.
The tests check the result against the two-step recursion through
H^*(Z, M) (``tests/oracles.py``).
"""

from __future__ import annotations

from .cohomology import CochainComplex, groups
from .exactlinalg import IntMatrix, action_inverses


class ZnModule:
    """Z^rank with an action of Z^n by commuting unimodular matrices,
    checked once, by ``action_inverses``, when the module is made."""

    __slots__ = ("rank", "action")

    def __init__(self, rank, action):
        self.rank = rank
        self.action = tuple(action)
        action_inverses(self.action, rank)

    @property
    def n(self):
        return len(self.action)


def koszul_complex(module: ZnModule) -> CochainComplex:
    """The Koszul complex of the already-checked action; n must be 1
    or 2.  Its coboundaries are the stacked B_i, then [-B_2 | B_1] when
    n = 2, then the zero map."""
    if module.n not in (1, 2):
        raise ValueError("only n = 1 or n = 2 is supported")
    ident = IntMatrix.identity(module.rank)
    b = [a - ident for a in module.action]
    if module.n == 1:
        coboundaries = [b[0]]
    else:
        coboundaries = [b[0].vstack(b[1]), (-b[1]).hstack(b[0])]
    coboundaries.append(IntMatrix.zeros(0, module.rank))
    return CochainComplex(coboundaries)


def zn_cohomology(module: ZnModule):
    """[H^0, ..., H^n] as FgAbGroup values: the cohomology ``groups`` of
    the Koszul complex, each nonzero coboundary eliminated once."""
    return groups(koszul_complex(module))

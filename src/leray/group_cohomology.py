"""Group cohomology H^k(Z^n, M) for integer-matrix actions, n <= 2.

Z is <x>, with no relator, and Z^2 is <x, y | x y x^-1 y^-1>, so the
cell model of either presentation, ``cohomology.fox_complex`` with
rho(x_i) = A_i, computes H^*(Z^n, M): the torus and the circle are
classifying spaces.  With B_i = A_i - I it is the Koszul complex of the
commuting B_i (Brown, *Cohomology of Groups*, GTM 87): M --B_1--> M for
n = 1, and M --[B_1; B_2]--> M^2 --[-B_2 | B_1]--> M for n = 2, matrix
for matrix.  It is a ``CochainComplex`` like any other, so its groups
come from ``cohomology.groups``, which serves every complex of the
package.  The tests check the result against the two-step recursion
through H^*(Z, M) (``tests/oracles.py``).
"""

from __future__ import annotations

from .cohomology import fox_complex, groups
from .exactlinalg import action_inverses

# the relators of the presentations of Z and Z^2
_RELATORS = {1: [], 2: [((0, 1), (1, 1), (0, -1), (1, -1))]}


class ZnModule:
    """Z^rank with an action of Z^n by commuting unimodular matrices,
    checked once, by ``action_inverses``, when the module is made, which
    keeps their inverses."""

    __slots__ = ("rank", "action", "inverses")

    def __init__(self, rank, action):
        self.rank = rank
        self.action = tuple(action)
        self.inverses = action_inverses(self.action, rank)

    @property
    def n(self):
        return len(self.action)


def zn_cohomology(module: ZnModule):
    """[H^0, ..., H^n] as FgAbGroup values, n = 1 or 2: the cohomology
    ``groups`` of the presentation's ``fox_complex``, each nonzero
    coboundary eliminated once."""
    if module.n not in _RELATORS:
        raise ValueError("only n = 1 or n = 2 is supported")
    return groups(fox_complex(_RELATORS[module.n],
                              list(zip(module.action, module.inverses)),
                              module.rank))

import random

import pytest

from leray.cohomology import build, fox_complex, groups
from leray.exactlinalg import FgAbGroup, IntMatrix
from leray.group_cohomology import _RELATORS, ZnModule, zn_cohomology
from leray.local_systems import from_monodromy
from leray.simplicial import circle, torus2

from oracles import (
    coinvariants,
    invariants,
    koszul_z2_cohomology,
    random_commuting_pair,
    random_unimodular,
    recursion_check,
)


K2 = IntMatrix([[1, 2], [0, 1]])
K4 = IntMatrix([[1, 4], [0, 1]])


def classifying_space_cohomology(mats, rank):
    """The reference: cohomology of the simplicial torus (n = 2) or
    circle (n = 1) with the action as its holonomy."""
    x = torus2() if len(mats) == 2 else circle(4)
    return groups(build(x, from_monodromy(x, mats, fiber_rank=rank)))


def test_trivial_action_n2():
    mod = ZnModule(1, (IntMatrix.identity(1), IntMatrix.identity(1)))
    assert zn_cohomology(mod) == [
        FgAbGroup(1, ()), FgAbGroup(2, ()), FgAbGroup(1, ())]


def test_paper_module_n2():
    mod = ZnModule(2, (K2, K4))
    h = zn_cohomology(mod)
    assert h[0] == FgAbGroup(1, ())
    assert h[2] == FgAbGroup(1, (2,))
    # middle degree from the independent Koszul oracle
    assert tuple(h) == koszul_z2_cohomology(K2, K4)
    assert h == classifying_space_cohomology([K2, K4], 2)


def test_n1_swap_matrix_oracle_decides():
    # A - I = [[-1, 1], [1, -1]] has Smith diagonal (1,); its cokernel
    # is free of rank one, so H^1 = Z with no torsion.
    a = IntMatrix([[0, 1], [1, 0]])
    mod = ZnModule(2, (a,))
    h = zn_cohomology(mod)
    assert h[0] == FgAbGroup(1, ())
    assert h[1] == FgAbGroup(1, ())


def test_n1_formulas():
    a = IntMatrix([[1, 3], [0, 1]])
    h = zn_cohomology(ZnModule(2, (a,)))
    assert h == [FgAbGroup(1, ()), FgAbGroup(1, (3,))]


def test_endpoints_match_invariants_coinvariants():
    rng = random.Random(77)
    for _ in range(6):
        a, b = random_commuting_pair(rng, 2)
        mod = ZnModule(2, (a, b))
        h = zn_cohomology(mod)
        assert h[0] == invariants([a, b], 2).group
        assert h[2] == coinvariants([a, b], 2).quotient


def test_koszul_oracle_randomized():
    rng = random.Random(99)
    for _ in range(8):
        a, b = random_commuting_pair(rng, 2)
        h = zn_cohomology(ZnModule(2, (a, b)))
        assert tuple(h) == koszul_z2_cohomology(a, b)
        assert h == classifying_space_cohomology([a, b], 2)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_classifying_space_reference(rank):
    rng = random.Random(rank)
    for _ in range(3):
        a, b = random_commuting_pair(rng, rank)
        assert zn_cohomology(ZnModule(rank, (a, b))) == \
            classifying_space_cohomology([a, b], rank)
        u = random_unimodular(rng, rank)
        assert zn_cohomology(ZnModule(rank, (u,))) == \
            classifying_space_cohomology([u], rank)


def test_conjugation_invariance():
    rng = random.Random(13)
    a, b = K2, K4
    p = random_unimodular(rng, 2)
    pinv = p.inverse_unimodular()
    h1 = zn_cohomology(ZnModule(2, (a, b)))
    h2 = zn_cohomology(ZnModule(2, (p * a * pinv, p * b * pinv)))
    assert h1 == h2


@pytest.mark.parametrize("mats", [(K2,), (K2, K4)])
def test_each_koszul_differential_is_decomposed_once(kernel_calls, mats):
    """On an already-built module the SNF kernel sees d0 and the top
    differential once each (one matrix for n = 1), on D alone: no
    transform, no relations of H^1 and no kernel basis."""
    module = ZnModule(2, mats)
    kernel_calls.clear()
    zn_cohomology(module)
    b = [a - IntMatrix.identity(2) for a in mats]
    d0 = b[0] if len(b) == 1 else b[0].vstack(b[1])
    top = d0 if len(mats) == 1 else (-b[1]).hstack(b[0])
    assert sorted(kernel_calls) == sorted(
        {(d.nrows, d.ncols, d.rows()) for d in (d0, top)})
    assert kernel_calls.transformed == []


def test_the_fox_complex_is_the_koszul_complex():
    """zn_cohomology reads the Fox complex of <x> or <x, y | x y x^-1
    y^-1> with rho(x_i) = A_i: d0 = [A_1 - I; A_2 - I] and d1 = [I - A_2
    | A_1 - I], the Koszul complex of the B_i = A_i - I, matrix for
    matrix, on 50 random actions; the module keeps the inverses its
    check made."""
    rng = random.Random(34)
    for k in range(50):
        m = 1 + k % 4
        mats = random_commuting_pair(rng, m) if k % 5 else \
            (random_unimodular(rng, m),)
        module = ZnModule(m, mats)
        assert [a * inv for a, inv in zip(mats, module.inverses)] == \
            [IntMatrix.identity(m)] * len(mats)
        c = fox_complex(_RELATORS[module.n],
                        list(zip(module.action, module.inverses)), m)
        b = [a - IntMatrix.identity(m) for a in mats]
        koszul = [b[0]] if len(b) == 1 else \
            [b[0].vstack(b[1]), (-b[1]).hstack(b[0])]
        assert c.differentials == tuple(koszul + [IntMatrix.zeros(0, m)])


def test_rejects_noncommuting():
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[1, 0], [1, 1]])
    with pytest.raises(ValueError, match="non-commuting"):
        ZnModule(2, (a, b))


def test_rejects_unsupported_n():
    mod = ZnModule(1, (IntMatrix.identity(1),) * 3)
    with pytest.raises(ValueError, match="n = 1 or n = 2"):
        zn_cohomology(mod)


def test_recursion_trivial_action():
    mod = ZnModule(1, (IntMatrix.identity(1), IntMatrix.identity(1)))
    report = recursion_check(mod)
    assert report.ok
    ranks = tuple(g.free_rank for g in report.groups)
    assert ranks == (1, 2, 1)
    # (1, 2, 1) decomposes as (0+1, 1+1, 1+0)
    assert tuple(g.free_rank for g in report.coinv_ends) == (0, 1, 1)
    assert tuple(g.free_rank for g in report.inv_ends) == (1, 1, 0)


def test_recursion_paper_module():
    report = recursion_check(ZnModule(2, (K2, K4)))
    assert report.ok
    # rank H^2 = 1 decomposes as 1 + 0
    assert report.coinv_ends[2].free_rank == 1
    assert report.inv_ends[2].free_rank == 0


def test_recursion_randomized():
    rng = random.Random(55)
    for _ in range(8):
        a, b = random_commuting_pair(rng, 2)
        assert recursion_check(ZnModule(2, (a, b))).ok


def test_recursion_requires_n2():
    with pytest.raises(ValueError):
        recursion_check(ZnModule(1, (IntMatrix.identity(1),)))

import pytest

from leray.exactlinalg import FgAbGroup
from leray.simplicial import (
    builtin,
    circle,
    genus_surface,
    integral_homology,
    simplex,
    sphere2,
    torus2,
)


def test_closure_and_counts():
    x = simplex(2)
    assert x.n_simplices(0) == 3
    assert x.n_simplices(1) == 3
    assert x.n_simplices(2) == 1
    assert x.has_simplex((0, 2))
    assert x.euler_characteristic() == 1


def test_boundary_squares_to_zero():
    for x in [simplex(3), sphere2(), torus2(), genus_surface(2), circle(5)]:
        for p in range(1, x.dimension + 1):
            assert (x.boundary_matrix(p) * x.boundary_matrix(p + 1)).is_zero() \
                if p + 1 <= x.dimension else True
            composite = x.boundary_matrix(p - 1) * x.boundary_matrix(p) \
                if p - 1 >= 1 else None
            if composite is not None:
                assert composite.is_zero()


def test_builtin_torus():
    x = torus2()
    assert (x.n_simplices(0), x.n_simplices(1), x.n_simplices(2)) == (7, 21, 14)
    assert x.euler_characteristic() == 0
    assert integral_homology(x) == [
        FgAbGroup(1, ()), FgAbGroup(2, ()), FgAbGroup(1, ())]


def test_builtin_sphere():
    x = sphere2()
    assert (x.n_simplices(0), x.n_simplices(1), x.n_simplices(2)) == (4, 6, 4)
    assert x.euler_characteristic() == 2
    assert integral_homology(x) == [
        FgAbGroup(1, ()), FgAbGroup(0, ()), FgAbGroup(1, ())]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_builtin_genus(g):
    x = genus_surface(g)
    assert x.euler_characteristic() == 2 - 2 * g
    assert integral_homology(x) == [
        FgAbGroup(1, ()), FgAbGroup(2 * g, ()), FgAbGroup(1, ())]


def test_builtin_circle():
    x = circle(4)
    assert integral_homology(x) == [FgAbGroup(1, ()), FgAbGroup(1, ())]
    with pytest.raises(ValueError):
        circle(2)


def test_coherent_orientation():
    for x in [torus2(), sphere2(), genus_surface(2)]:
        eps = x.coherent_orientation()
        assert eps[0] == 1
        assert all(abs(e) == 1 for e in eps)
        d2 = x.boundary_matrix(2)
        assert all(v == 0 for v in d2.apply(eps))
    with pytest.raises(ValueError):
        simplex(2).coherent_orientation()


def test_builtin_by_name():
    assert builtin("torus2").n_simplices(2) == 14
    assert builtin("circle", 5).n_simplices(1) == 5
    assert builtin("circle(5)").n_simplices(1) == 5
    assert builtin("genus(2)").euler_characteristic() == -2
    assert builtin("simplex(3)").dimension == 3
    with pytest.raises(ValueError):
        builtin("klein")
    with pytest.raises(ValueError):
        builtin("torus2(3)")


def test_homology_of_contractible():
    assert integral_homology(simplex(3)) == [
        FgAbGroup(1, ()), FgAbGroup(0, ()),
        FgAbGroup(0, ()), FgAbGroup(0, ())]

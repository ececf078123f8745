import pytest

from tlg import hodge
from tlg.hodge import (BadDegrees, ComponentCountMismatch, NotReflexive,
                       components_at_infinity, k_components)
from tlg.polytope import Polytope

P3_SIMPLEX = Polytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])


def test_components_at_infinity_of_projective_space():
    # the dual simplex has normalized volume 64 and 34 boundary points
    assert components_at_infinity(P3_SIMPLEX) == 34


def test_k_components_of_the_quartic():
    # rows e1, e2, e3, (-1,-1,-1) and a zero row, which carries no ray:
    # the simplex they span has 5 lattice points
    assert k_components((4,), 1) == 4
    with pytest.raises(BadDegrees):
        k_components((0,), 1)


def test_components_at_infinity_needs_a_reflexive_threefold_polytope():
    with pytest.raises(NotReflexive):
        components_at_infinity(Polytope([(1, 0), (0, 1), (-1, -1)]))
    with pytest.raises(NotReflexive):
        components_at_infinity(
            Polytope([(2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]))


def test_component_count_cross_check_raises(monkeypatch):
    monkeypatch.setattr(hodge, "normalized_volume", lambda p: 62)
    with pytest.raises(ComponentCountMismatch, match="gives 33"):
        components_at_infinity(P3_SIMPLEX)

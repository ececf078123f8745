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


def test_elliptic_euler_check_accepts_components_adding_to_12():
    report = hodge.elliptic_euler_check([1] * 12)
    assert report.ok and report.total == 12
    assert report.nodal_given == 12 and report.wheel_sizes == ()
    assert report.nodal_required == 12
    report = hodge.elliptic_euler_check([4, 1, 1, 1, 1, 1, 1, 1, 1])
    assert report.ok and report.wheel_sizes == (4,)
    assert report.nodal_required == 8
    assert report.message == "euler numbers add to 12"


def test_elliptic_euler_check_reports_the_room_a_wheel_leaves():
    # a wheel of 3 listed next to 3 nodal fibers: the wheel leaves room
    # for 9 nodal fibers, and the total is 6
    report = hodge.elliptic_euler_check([3, 1, 1, 1])
    assert not report.ok
    assert (report.total, report.nodal_given, report.wheel_sizes,
            report.nodal_required) == (6, 3, (3,), 9)
    assert report.message == ("euler total 6 != 12; the given wheels leave "
                              "room for 9 nodal fibers, 3 were listed")


@pytest.mark.parametrize("comps, message", [
    ([], "no singular fibers given"),
    ([1, 0, 11], "component counts must be positive"),
    ([13, -1], "component counts must be positive"),
])
def test_elliptic_euler_check_rejects_empty_and_non_positive_input(comps, message):
    report = hodge.elliptic_euler_check(comps)
    assert not report.ok
    assert (report.total, report.nodal_given, report.wheel_sizes,
            report.nodal_required) == (0, 0, (), None)
    assert report.message == message

import pytest

from tlg import hodge
from tlg.hodge import (BadDegree, BadDegrees, BadInput, ComponentCountMismatch,
                       NotReflexive, components_at_infinity, harder_diamond,
                       k_components, k_matrix, kkp_surface_numbers)
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


def test_kkp_surface_numbers_at_degree_zero_is_not_of_fano_type():
    report = kkp_surface_numbers(0)
    assert (report.degree, report.fano_type, report.diamond) == (0, False, None)
    assert report.jordan_blocks == ((2, 2), (1, 8))


@pytest.mark.parametrize("d", [1, 9])
def test_kkp_surface_numbers_middle_row(d):
    report = kkp_surface_numbers(d)
    assert report.fano_type and report.diamond.dim == 2
    assert report.diamond.middle_row() == (1, 10 - d, 1)
    assert report.diamond.total() == 12 - d
    assert report.jordan_blocks == ((3, 1), (1, 9 - d))


@pytest.mark.parametrize("d", [-1, 10])
def test_kkp_surface_numbers_rejects_degrees_outside_0_to_9(d):
    with pytest.raises(BadDegree):
        kkp_surface_numbers(d)


def test_harder_diamond_middle_row_and_k_y_spots():
    diamond = harder_diamond(k_y=7, ph=4, h12z=1, h21z=3)
    assert diamond.dim == 3
    assert diamond.middle_row() == (1, 3, 5, 1)
    assert diamond.h[1][1] == diamond.h[2][2] == 7
    assert diamond.total() == 1 + 3 + 5 + 1 + 7 + 7


@pytest.mark.parametrize("args", [
    dict(k_y=0, ph=1),
    dict(k_y=-1, ph=2),
    dict(k_y=0, ph=2, h12z=-1),
    dict(k_y=0, ph=2, h21z=-1),
], ids=["ph-below-2", "negative-k_y", "negative-h12z", "negative-h21z"])
def test_harder_diamond_rejects_bad_counts(args):
    with pytest.raises(BadInput):
        harder_diamond(**args)


@pytest.mark.parametrize("degrees, index", [
    ((2,), 2), ((4,), 1), ((2, 3), 1), ((1, 1, 2), 3), ((), 4),
])
def test_k_matrix_shape(degrees, index):
    matrix = k_matrix(degrees, index)
    assert len(matrix) == sum(degrees) + index
    assert {len(row) for row in matrix} \
        == {sum(d - 1 for d in degrees) + index - 1}


@pytest.mark.parametrize("degrees, index", [((0,), 1), ((2,), 0)],
                         ids=["degree-zero", "index-zero"])
def test_k_matrix_rejects_degree_or_index_zero(degrees, index):
    with pytest.raises(BadDegrees):
        k_matrix(degrees, index)

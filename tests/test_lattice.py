import math
from fractions import Fraction

import pytest

from tlg import hodge, lattice
from tlg.lattice import (BadName, BadRange, DegenerateLattice, GramLattice,
                         NotFiniteIndex, NotIsometric, direct_sum,
                         discriminant, duval_intersection,
                         duval_self_intersection, form_matches, hyperbolic,
                         index_check, reduce_mod2, root_a, root_e, signature,
                         standard_lattice)
from tlg.series import GrassSpec, ToricCurveClassData, WciSpec


def test_gram_validation():
    with pytest.raises(ValueError):
        GramLattice(((1, 2), (3,)))
    with pytest.raises(ValueError):
        GramLattice(((0, 1), (2, 0)))
    l = GramLattice(((2, -1), (-1, 2)))
    assert l.rank == 2 and l.det() == 3 and l.is_even()
    assert not GramLattice(((1,),)).is_even()


def test_twist_and_direct_sum():
    h = hyperbolic()
    assert h.gram == ((0, 1), (1, 0))
    assert h.twist(3).gram == ((0, 3), (3, 0))
    with pytest.raises(ValueError):
        h.twist(0)
    s = direct_sum(h, GramLattice(((-2,),)))
    assert s.gram == ((0, 1, 0), (1, 0, 0), (0, 0, -2))
    assert s.det() == 2


def test_standard_lattice_names():
    assert standard_lattice("M_6").gram == standard_lattice("M6").gram
    assert standard_lattice("A_5").gram == standard_lattice("A5").gram
    assert standard_lattice("<-6>").gram == ((-6,),)
    assert standard_lattice("rank1(-6)").gram == ((-6,),)
    assert standard_lattice("A_2", twist=-1).gram == ((-2, 1), (1, -2))
    m = standard_lattice("M")
    assert m.rank == 18 and signature(m) == (1, 17)
    for bad in ("F_4", "E_5", "D_3", "A_0", "M_0", "rank1(x)", ""):
        with pytest.raises(BadName):
            standard_lattice(bad)


def test_signature():
    assert signature(hyperbolic()) == (1, 1)
    assert signature(root_e(8)) == (8, 0)
    assert signature(root_e(8).twist(-1)) == (0, 8)
    assert signature(standard_lattice("M_6")) == (1, 18)
    with pytest.raises(DegenerateLattice):
        signature(GramLattice(((0,),)))


def test_discriminant_small_lattices():
    a1 = discriminant(root_a(1))
    assert a1.group == (2,) and a1.form_values == (Fraction(1, 2),)
    a2 = discriminant(root_a(2))
    assert a2.group == (3,) and a2.form_values == (Fraction(2, 3),)
    d4 = discriminant(standard_lattice("D_4"))
    assert d4.group == (2, 2)
    assert set(d4.form_values) == {Fraction(1)}
    assert discriminant(root_e(8)).group == ()
    assert discriminant(hyperbolic()).group == ()
    with pytest.raises(DegenerateLattice):
        discriminant(GramLattice(((0, 0), (0, 0))))


def test_discriminant_of_rank19_family():
    for n in range(1, 11):
        data = discriminant(standard_lattice(f"M_{n}"))
        assert data.group == (2 * n,)
        assert data.form_values == (reduce_mod2(Fraction(-1, 2 * n)),)


def test_discriminant_generators_pair_integrally():
    l = standard_lattice("M_6")
    (gen,) = discriminant(l).generators
    # the generator lies in the dual: integral pairing with every basis
    # vector; and its order in the quotient is exactly 12
    lcm = 1
    for r in range(l.rank):
        v = sum(l.gram[r][c] * gen[c] for c in range(l.rank))
        assert v.denominator == 1
    for x in gen:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    assert lcm == 12


def _primes(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, p))]


@pytest.mark.parametrize("name", [
    "M_1", "M_2", "M_5", "M_6", "M_10", "A5", "D_4", "D_8", "E6", "E7",
    "<-6>", "<12>"])
def test_discriminant_generators_have_exact_order(name):
    l = standard_lattice(name)
    data = discriminant(l)
    assert math.prod(data.group) == abs(l.det())
    for s, g in zip(data.group, data.generators):
        pairing = [sum(l.gram[r][c] * g[c] for c in range(l.rank))
                   for r in range(l.rank)]
        # g lies in the dual lattice, s g in the lattice, and no proper
        # divisor of s sends g into the lattice
        assert all(x.denominator == 1 for x in pairing)
        assert all((s * x).denominator == 1 for x in g)
        for p in _primes(s):
            assert any((s // p * x).denominator != 1 for x in g)


def test_form_matches():
    m6 = standard_lattice("M_6")
    assert form_matches(m6, ["23/12"])
    assert form_matches(m6, [Fraction(-1, 12)])
    assert not form_matches(m6, ["1/12"])
    assert not form_matches(m6, ["23/12", "1/2"])
    assert form_matches(hyperbolic(), [])
    assert form_matches(standard_lattice("D_4"), ["1", "1"])


def test_index_check():
    h = hyperbolic()
    h2 = GramLattice(((0, 2), (2, 0)))
    assert index_check(h2, h, [[2, 0], [0, 1]]) == 2
    assert index_check(h, h, [[1, 0], [0, 1]]) == 1
    a1_4 = GramLattice(((4,),))
    assert index_check(a1_4, GramLattice(((1,),)), [[2]]) == 2
    with pytest.raises(NotIsometric):
        index_check(h2, h, [[1, 0], [0, 1]])
    with pytest.raises(NotFiniteIndex):
        index_check(GramLattice(((2,),)), h, [[1, 0]])
    with pytest.raises(NotFiniteIndex):
        index_check(GramLattice(((0, 0), (0, 0))), h, [[1, 0], [1, 0]])


def test_duval_intersections():
    assert duval_intersection("A5", 2, 3) == Fraction(1)
    assert duval_intersection("A5", 3, 2) == Fraction(1)
    assert duval_intersection("A5", 1, 1) == Fraction(5, 6)
    assert duval_intersection("A5", 3, 3) == Fraction(3, 2)
    assert duval_intersection("A_1", 1, 1) == Fraction(1, 2)
    assert duval_intersection("D7") == Fraction(1, 2)
    with pytest.raises(BadRange):
        duval_intersection("A5", 0, 1)
    with pytest.raises(BadRange):
        duval_intersection("A5", 1, 6)
    with pytest.raises(BadRange):
        duval_intersection("E6")
    with pytest.raises(BadRange):
        duval_intersection("D3")


def test_duval_self_intersections():
    assert duval_self_intersection("A5", 2) == Fraction(4, 3)
    assert duval_self_intersection("A5", 3) == Fraction(3, 2)
    assert duval_self_intersection("A1", 1) == Fraction(1, 2)
    assert duval_self_intersection("D6", branch="tail") == Fraction(1)
    assert duval_self_intersection("D6", branch="fork") == Fraction(3, 2)
    assert duval_self_intersection("E6") == Fraction(4, 3)
    assert duval_self_intersection("E7") == Fraction(3, 2)
    with pytest.raises(BadRange):
        duval_self_intersection("E8")
    with pytest.raises(BadRange):
        duval_self_intersection("A5", 6)
    with pytest.raises(BadRange):
        duval_self_intersection("D6", branch="middle")
    with pytest.raises(BadRange):
        duval_self_intersection("F4", 1)


def test_discriminant_checks_raise_degenerate_lattice(monkeypatch):
    l = GramLattice(((2, -1), (-1, 2)))
    # a determinant the Smith form of the Gram matrix does not have
    monkeypatch.setattr(GramLattice, "det", lambda self: 6)
    with pytest.raises(DegenerateLattice, match="not \\|det\\| = 6"):
        discriminant(l)


@pytest.mark.parametrize("entry", [1.5, True, "1"])
def test_index_check_refuses_an_embedding_entry_that_is_no_int(entry):
    # int() would read 1.5 and True as 1 and accept the identity embedding
    z = GramLattice(((1,),))
    with pytest.raises(TypeError, match="must be integers"):
        index_check(z, z, [[entry]])


@pytest.mark.parametrize("build", [
    lambda: GramLattice(((1.5,),)),
    lambda: GramLattice(((True,),)),
    lambda: hodge.HodgeDiamond(0, ((1.5,),)),
    lambda: hodge.k_matrix((2.7,), 1),
    lambda: hodge.elliptic_euler_check([1.9] * 12),
    lambda: WciSpec((1.5, 1, 1, 1), (3,)),
    lambda: WciSpec((1, 1, 1, 1, 1), (True,)),
    lambda: GrassSpec(2, 3, (1.9,)),
    lambda: GrassSpec(2.5, 3),
    lambda: GrassSpec(2, 3.0),
    lambda: ToricCurveClassData(((1.5, 1),)),
    lambda: ToricCurveClassData(((1, 1, 1),), ((True,),)),
    lambda: ToricCurveClassData(((1, 1),), param_vars=("q",),
                                param_exponents=((0.5,),)),
], ids=["gram-float", "gram-bool", "diamond-float", "kmatrix-degree-float",
        "euler-float", "wci-weight-float", "wci-degree-bool",
        "grass-degree-float", "grass-k-float", "grass-n-float",
        "toric-row-float", "toric-degree-bool", "toric-exponent-float"])
def test_integer_inputs_refuse_what_int_would_truncate(build):
    # int() read each as a nearby integer: the Gram entries as ((1,),),
    # the degree as 2, twelve fibres of 1.9 components added to 12, the
    # WCI weights as (1, 1, 1, 1) and the Grassmannian degree as 1, and
    # k = 2.5 was kept as it came
    with pytest.raises(TypeError, match="must be integers"):
        build()


def test_index_check_determinant_identity_raises_not_finite_index(monkeypatch):
    h = hyperbolic()
    monkeypatch.setattr(lattice, "det_bareiss", lambda m: 2)
    with pytest.raises(NotFiniteIndex, match="index\\^2"):
        index_check(h, h, [[1, 0], [0, 1]])

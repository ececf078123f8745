"""Integer symmetric bilinear forms and their discriminant invariants.

Gram matrices are exact integer data. Discriminant groups come out of a
Smith normal form with explicit transforms (`snf_with_transforms`, which
lives here, beside its only caller `discriminant`), so generators of the
dual quotient are available as rational vectors and the quadratic form
can be evaluated on them without floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence, Tuple

from .intlinalg import Matrix, det_bareiss, identity

Gram = Tuple[Tuple[int, ...], ...]


class BadName(ValueError):
    """Lattice name outside the supported family."""


class DegenerateLattice(ValueError):
    """Operation needs a nondegenerate form."""


class NotIsometric(ValueError):
    """The map does not preserve the pairing."""


class NotFiniteIndex(ValueError):
    """The image is not of finite index in the target."""


class BadRange(ValueError):
    """Singularity data outside the allowed cases."""


@dataclass(frozen=True)
class GramLattice:
    gram: Gram

    def __post_init__(self):
        g = tuple(tuple(row) for row in self.gram)
        if any(type(x) is not int for row in g for x in row):
            raise TypeError(f"gram entries must be integers, got {g!r}")
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return det_bareiss(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def twist(self, c: int) -> "GramLattice":
        if c == 0:
            raise ValueError("twist by zero degenerates the form")
        return GramLattice(tuple(tuple(c * x for x in row) for row in self.gram))

    def direct_sum(self, other: "GramLattice") -> "GramLattice":
        n, m = self.rank, other.rank
        rows = [tuple(self.gram[i]) + (0,) * m for i in range(n)]
        rows += [(0,) * n + tuple(other.gram[i]) for i in range(m)]
        return GramLattice(tuple(rows))


def direct_sum(*lattices: GramLattice) -> GramLattice:
    if not lattices:
        return GramLattice(())
    out = lattices[0]
    for l in lattices[1:]:
        out = out.direct_sum(l)
    return out


def _simply_laced(n: int, edges: Sequence[Tuple[int, int]]) -> GramLattice:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return GramLattice(tuple(tuple(row) for row in g))


def hyperbolic() -> GramLattice:
    return GramLattice(((0, 1), (1, 0)))


def root_a(n: int) -> GramLattice:
    if n < 1:
        raise BadName("A_n needs n >= 1")
    return _simply_laced(n, [(i, i + 1) for i in range(n - 1)])


def root_d(n: int) -> GramLattice:
    if n < 4:
        raise BadName("D_n needs n >= 4")
    edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    return _simply_laced(n, edges)


def root_e(n: int) -> GramLattice:
    if n not in (6, 7, 8):
        raise BadName("E_n exists for n = 6, 7, 8")
    edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    return _simply_laced(n, edges)


def rank_one(m: int) -> GramLattice:
    return GramLattice(((m,),))


def shioda_inose(n: int) -> GramLattice:
    """Rank 19 lattice: hyperbolic plane, two negated E8 blocks, ⟨-2n⟩."""
    if n < 1:
        raise BadName("need n >= 1")
    e8m = root_e(8).twist(-1)
    return direct_sum(hyperbolic(), e8m, e8m, rank_one(-2 * n))


_NAME_RE = re.compile(r"^([ADEM])_?(\d+)$")
_RANK1_RE = re.compile(r"^(?:rank1\((-?\d+)\)|<(-?\d+)>)$")


def standard_lattice(name: str, twist: int = 1) -> GramLattice:
    """Named lattice, optionally twisted: H, A_n, D_n, E6/E7/E8, M, M_n,
    and rank one rank1(m) (also written <m>)."""
    name = name.strip()
    if name == "H":
        base = hyperbolic()
    elif name == "M":
        e8m = root_e(8).twist(-1)
        base = direct_sum(hyperbolic(), e8m, e8m)
    else:
        m = _NAME_RE.match(name)
        r1 = _RANK1_RE.match(name)
        if m:
            kind, idx = m.group(1), int(m.group(2))
            if kind == "A":
                base = root_a(idx)
            elif kind == "D":
                base = root_d(idx)
            elif kind == "E":
                base = root_e(idx)
            else:
                base = shioda_inose(idx)
        elif r1:
            base = rank_one(int(r1.group(1) or r1.group(2)))
        else:
            raise BadName(f"cannot parse lattice name {name!r}")
    return base if twist == 1 else base.twist(twist)


@dataclass(frozen=True)
class DiscriminantData:
    group: Tuple[int, ...]
    generators: Tuple[Tuple[Fraction, ...], ...]
    form_values: Tuple[Fraction, ...]


def q_value(l: GramLattice, vec: Sequence[Fraction]) -> Fraction:
    """Value of the quadratic form on a rational vector in lattice
    coordinates."""
    n = l.rank
    return sum(Fraction(vec[i]) * l.gram[i][j] * Fraction(vec[j])
               for i in range(n) for j in range(n))


def reduce_mod2(v: Fraction) -> Fraction:
    v = Fraction(v)
    return v - 2 * (v / 2).__floor__()


def snf_with_transforms(mat: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Smith normal form S = U * mat * V with U, V unimodular.

    Returns (S, U, V). S is diagonal (padded with zero rows/cols for
    non-square input) with s_1 | s_2 | ... | s_r, all nonnegative.
    """
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = identity(m)
    v = identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        arow, usrc = a[src], u[src]
        for j in range(n):
            a[dst][j] += c * arow[j]
        for j in range(m):
            u[dst][j] += c * usrc[j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find a pivot
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if a[i][t] % a[t][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    swap_rows(t, i)
                    done = False
                elif a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
            if not done:
                continue
            for j in range(t + 1, n):
                if a[t][j] % a[t][t] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    # move the smaller remainder into the pivot slot
                    swap_cols(t, j)
                    done = False
                elif a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
            if done:
                break
        # divisibility condition against the rest of the matrix
        d = a[t][t]
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % d != 0:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if d < 0:
            negate_row(t)
        t += 1
    return a, u, v


def discriminant(l: GramLattice) -> DiscriminantData:
    """Discriminant group and form of a nondegenerate lattice.

    The quotient of the dual by the lattice is read off the Smith normal
    form S = U G V of the Gram matrix G: since G^-1 U^-1 = V S^-1, the
    cyclic factor of order s_i is generated by column i of V divided by
    s_i, and the form value of that lift is reduced into [0, 2). For odd
    lattices the value is only canonical modulo 1; the reduction of the
    particular lift is reported anyway.
    """
    d = l.det()
    if d == 0:
        raise DegenerateLattice("discriminant needs det != 0")
    n = l.rank
    s, _u, v = snf_with_transforms([list(row) for row in l.gram])
    group: List[int] = []
    gens: List[Tuple[Fraction, ...]] = []
    values: List[Fraction] = []
    for i in range(n):
        if s[i][i] in (0, 1):
            continue
        group.append(s[i][i])
        coords = tuple(Fraction(v[r][i], s[i][i]) for r in range(n))
        gens.append(coords)
        values.append(reduce_mod2(q_value(l, coords)))
    if math.prod(group) != abs(d):
        raise DegenerateLattice(
            f"discriminant group {group} has order {math.prod(group)}, "
            f"not |det| = {abs(d)}")
    return DiscriminantData(tuple(group), tuple(gens), tuple(values))


def form_matches(l: GramLattice, printed: Sequence) -> bool:
    """Does each printed form value appear at some element whose order is
    the corresponding elementary divisor?

    Printed descriptions are not unique (any generator of a cyclic factor
    will do), so a value counts as reproduced when some element of the
    right order attains it modulo 2.
    """
    data = discriminant(l)
    wanted = [reduce_mod2(Fraction(p)) for p in printed]
    if not data.group:
        return all(w == 0 for w in wanted)
    if len(wanted) != len(data.group):
        return False
    elements = {}
    for coeffs in product(*(range(m) for m in data.group)):
        vec = tuple(sum(Fraction(c) * g[r] for c, g in zip(coeffs, data.generators))
                    for r in range(l.rank))
        order = 1
        for c, m in zip(coeffs, data.group):
            if c:
                order = order * (m // math.gcd(c, m)) // math.gcd(order, m // math.gcd(c, m))
        elements.setdefault(order, set()).add(reduce_mod2(q_value(l, vec)))
    return all(w in elements.get(m, set())
               for w, m in zip(wanted, data.group))


def index_check(sub: GramLattice, sup: GramLattice,
                embedding: Sequence[Sequence[int]]) -> int:
    """Index of a finite-index isometric image, with the determinant
    identity index^2 * det(sup) = det(sub) checked on the way out."""
    e = embedding
    if any(type(x) is not int for row in e for x in row):
        raise TypeError(f"embedding entries must be integers, got {e!r}")
    if len(e) != sub.rank or any(len(row) != sup.rank for row in e):
        raise NotFiniteIndex("embedding matrix has the wrong shape")
    if sub.rank != sup.rank:
        raise NotFiniteIndex("ranks differ, index cannot be finite")
    g = sup.gram
    n = sub.rank
    image_gram = [[sum(e[i][a] * g[a][b] * e[j][b]
                       for a in range(sup.rank) for b in range(sup.rank))
                   for j in range(n)] for i in range(n)]
    if image_gram != [list(row) for row in sub.gram]:
        raise NotIsometric("embedding does not preserve the pairing")
    idx = abs(det_bareiss(e))
    if idx == 0:
        raise NotFiniteIndex("embedding is not injective")
    if idx * idx * abs(sup.det()) != abs(sub.det()):
        raise NotFiniteIndex(
            f"index {idx} breaks index^2 * det(sup) = det(sub)")
    return idx


def signature(l: GramLattice) -> Tuple[int, int]:
    """Numbers of positive and negative squares, by exact symmetric
    reduction over the rationals."""
    n = l.rank
    a = [[Fraction(x) for x in row] for row in l.gram]
    pos = neg = 0
    rows = list(range(n))
    k = 0
    while k < n:
        piv = None
        for i in range(k, n):
            if a[i][i] != 0:
                piv = i
                break
        if piv is None:
            off = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                raise DegenerateLattice("form is degenerate")
            i, j = off
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for r in range(n):
                a[r][k], a[r][piv] = a[r][piv], a[r][k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for c in range(n):
                    a[i][c] -= f * a[k][c]
                for r in range(n):
                    a[r][i] -= f * a[r][k]
        k += 1
    return pos, neg


_DUVAL_RE = re.compile(r"^([ADE])_?(\d+)$")


def _parse_singularity(sing: str) -> Tuple[str, int]:
    m = _DUVAL_RE.match(sing.strip())
    if not m:
        raise BadRange(f"cannot parse singularity type {sing!r}")
    return m.group(1), int(m.group(2))


def duval_intersection(sing: str, k: Optional[int] = None,
                       r: Optional[int] = None) -> Fraction:
    """Local index of two smooth curve branches meeting transversally at
    a du Val point; only A and D points admit this configuration."""
    kind, n = _parse_singularity(sing)
    if kind == "A":
        if k is None or r is None or not (1 <= k <= n and 1 <= r <= n):
            raise BadRange("A_n needs chain positions 1 <= k, r <= n")
        if r <= k:
            return Fraction(r * (n + 1 - k), n + 1)
        return Fraction(k * (n + 1 - r), n + 1)
    if kind == "D":
        if n < 4:
            raise BadRange("D_n needs n >= 4")
        return Fraction(1, 2)
    raise BadRange("transversal pairs do not occur at E points")


def duval_self_intersection(sing: str, k: Optional[int] = None,
                            branch: Optional[str] = None) -> Fraction:
    """Correction added to the strict-transform self-intersection for a
    smooth curve through a du Val point (A, D, E6 or E7)."""
    kind, n = _parse_singularity(sing)
    if kind == "A":
        if k is None or not 1 <= k <= n:
            raise BadRange("A_n needs a chain position 1 <= k <= n")
        return Fraction(k * (n + 1 - k), n + 1)
    if kind == "D":
        if n < 4:
            raise BadRange("D_n needs n >= 4")
        if branch == "tail":
            return Fraction(1)
        if branch == "fork":
            return Fraction(n, 4)
        raise BadRange("D_n needs branch 'tail' or 'fork'")
    if n == 6:
        return Fraction(4, 3)
    if n == 7:
        return Fraction(3, 2)
    raise BadRange("self-intersection corrections exist for A, D, E6, E7")

"""Closed-form Hodge-theoretic bookkeeping for Landau-Ginzburg models.

Everything here is arithmetic on published closed forms: surface diamonds
for mirrors of del Pezzo surfaces, the threefold diamond driven by fiber
component counts, counts of components of the fiber over infinity, and
the block matrix whose row hull counts components for complete
intersection models. Nothing in this module touches resolutions; inputs
like k_Y and ph are carried, not derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .polytope import Polytope, dual, is_reflexive, lattice_points, normalized_volume


class BadDegree(ValueError):
    """Degree outside the del Pezzo range 0..9."""


class BadInput(ValueError):
    """Inconsistent diamond ingredients."""


class BadDegrees(ValueError):
    """Invalid complete intersection data."""


class NotReflexive(ValueError):
    """The component count needs a reflexive 3-polytope."""


class ComponentCountMismatch(ValueError):
    """The dual's boundary points disagree with half its normalized volume
    plus two."""


@dataclass(frozen=True)
class HodgeDiamond:
    dim: int
    h: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = self.dim + 1
        rows = tuple(tuple(row) for row in self.h)
        if any(type(x) is not int for row in rows for x in row):
            raise TypeError(f"diamond entries must be integers, got {rows!r}")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise BadInput("diamond needs an (n+1) x (n+1) grid")
        object.__setattr__(self, "h", rows)

    def middle_row(self) -> Tuple[int, ...]:
        return tuple(self.h[p][self.dim - p] for p in range(self.dim, -1, -1))

    def total(self) -> int:
        return sum(sum(row) for row in self.h)


@dataclass(frozen=True)
class SurfaceHodgeReport:
    degree: int
    fano_type: bool
    diamond: Optional[HodgeDiamond]
    jordan_blocks: Tuple[Tuple[int, int], ...]


def kkp_surface_numbers(d: int) -> SurfaceHodgeReport:
    """Hodge data of the Landau-Ginzburg mirror of a degree d del Pezzo
    surface: middle row (1, 10-d, 1) for d in 1..9.

    For d = 0 the model is not of Fano type; what is returned instead of
    a diamond is the unipotent structure on the relevant cohomology, two
    Jordan blocks of size 2 plus eight of size 1. For positive d the
    block data (one size 3, the rest size 1) rides along for reference.
    """
    if not 0 <= d <= 9:
        raise BadDegree("degree must lie in 0..9")
    if d == 0:
        return SurfaceHodgeReport(0, False, None, ((2, 2), (1, 8)))
    diamond = HodgeDiamond(2, (
        (0, 0, 1),
        (0, 10 - d, 0),
        (1, 0, 0),
    ))
    return SurfaceHodgeReport(d, True, diamond, ((3, 1), (1, 9 - d)))


def harder_diamond(k_y: int, ph: int, h12z: int = 0, h21z: int = 0) -> HodgeDiamond:
    """Threefold Landau-Ginzburg diamond from fiber bookkeeping: middle
    row (1, ph-2+h12z, ph-2+h21z, 1) and k_y at the (1,1) and (2,2)
    spots."""
    if ph < 2:
        raise BadInput("ph counts a corank containing the fiber class; need >= 2")
    if k_y < 0 or h12z < 0 or h21z < 0:
        raise BadInput("counts cannot be negative")
    h = [[0] * 4 for _ in range(4)]
    h[3][0] = h[0][3] = 1
    h[2][1] = ph - 2 + h12z
    h[1][2] = ph - 2 + h21z
    h[1][1] = h[2][2] = k_y
    return HodgeDiamond(3, tuple(tuple(r) for r in h))


def components_at_infinity(delta: Polytope) -> int:
    """Number of components of the fiber over infinity: boundary lattice
    points of the dual polytope, cross-checked against half the dual's
    normalized volume plus two."""
    if delta.ambient_dim != 3:
        raise NotReflexive("component count is a threefold statement")
    if not is_reflexive(delta):
        raise NotReflexive("polytope is not reflexive")
    nabla = dual(delta)
    count = len(lattice_points(nabla, region="boundary"))
    volume = normalized_volume(nabla)
    if count != volume // 2 + 2:
        raise ComponentCountMismatch(
            f"{count} boundary points, but normalized volume {volume} "
            f"gives {volume // 2 + 2}")
    return count


def k_matrix(degrees: Sequence[int], index: int) -> List[List[int]]:
    """Block matrix whose rows span the fiber-over-infinity fan for
    complete intersection models.

    One block per degree d: d rows on d-1 private columns, index on the
    diagonal followed by a row of -index, every row ending in -1 on the
    final index-1 shared columns. The last block has `index` rows over
    those shared columns: index-1 on the diagonal, -1 elsewhere, closing
    with an all -1 row. For a threefold the rows land on the vertices of
    the dual of the model's Newton polytope.
    """
    degrees = list(degrees)
    if any(type(x) is not int for x in (*degrees, index)):
        raise TypeError(f"degrees and index must be integers, got "
                        f"{degrees!r} and {index!r}")
    if any(d < 1 for d in degrees):
        raise BadDegrees("degrees must be positive")
    if index < 1:
        raise BadDegrees("index must be positive")
    shared = index - 1
    ncols = sum(d - 1 for d in degrees) + shared
    rows: List[List[int]] = []
    offset = 0
    for d in degrees:
        block = [[0] * ncols for _ in range(d)]
        for j in range(d - 1):
            block[j][offset + j] = index
            block[d - 1][offset + j] = -index
        for row in block:
            for c in range(ncols - shared, ncols):
                row[c] = -1
        rows.extend(block)
        offset += d - 1
    for m in range(index):
        row = [0] * ncols
        for c in range(ncols - shared, ncols):
            row[c] = -1
        if m < shared:
            row[ncols - shared + m] = index - 1
        rows.append(row)
    return rows


def k_components(degrees: Sequence[int], index: int) -> int:
    """One less than the number of lattice points in the convex hull of
    the rays through the rows: rows are made primitive and zero rows
    carry no ray, so they are dropped."""
    rays = []
    for row in k_matrix(degrees, index):
        g = math.gcd(*row)
        if g:
            rays.append(tuple(x // g for x in row))
    if not rays:
        raise BadDegrees("no rays: the matrix is identically zero")
    hull = Polytope(rays)
    return len(lattice_points(hull)) - 1


@dataclass(frozen=True)
class EulerReport:
    ok: bool
    total: int
    nodal_given: int
    wheel_sizes: Tuple[int, ...]
    nodal_required: Optional[int]
    message: str


def elliptic_euler_check(singular_fiber_components: Sequence[int]) -> EulerReport:
    """Euler number audit for a rational elliptic surface.

    Each singular fiber contributes its component count to e(Z) (a nodal
    rational curve gives 1, a wheel of m curves gives m) and the total
    must be 12. Published descriptions sometimes list d nodal fibers next
    to a wheel of d; the report states how many nodal fibers the wheel
    actually leaves room for instead of silently fixing the text.
    """
    comps = list(singular_fiber_components)
    if any(type(c) is not int for c in comps):
        raise TypeError(f"component counts must be integers, got {comps!r}")
    if not comps:
        return EulerReport(False, 0, 0, (), None, "no singular fibers given")
    if any(c < 1 for c in comps):
        return EulerReport(False, 0, 0, (), None, "component counts must be positive")
    total = sum(comps)
    nodal = sum(1 for c in comps if c == 1)
    wheels = tuple(c for c in comps if c > 1)
    required = 12 - sum(wheels)
    if total == 12:
        msg = "euler numbers add to 12"
    else:
        msg = (f"euler total {total} != 12; the given wheels leave room for "
               f"{required} nodal fibers, {nodal} were listed")
    return EulerReport(total == 12, total, nodal, wheels, required, msg)

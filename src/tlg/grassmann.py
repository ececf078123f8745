"""Quiver models for complete intersections in Grassmannians.

The quiver for G(k, n+k) is a k-by-n grid with one extra source vertex and
one extra sink vertex. Hypersurface degrees are absorbed by consecutive
blocks of arrows; eliminating one weight variable per block turns the
superpotential into a Laurent polynomial in kn - l variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .laurent import LaurentPoly
from .series import GrassSpec

Vertex = Tuple[int, int]
Arrow = Tuple[Vertex, Vertex]


class BlocksDontFit(ValueError):
    """The degree sizes cannot be laid out as consecutive blocks."""


@dataclass(frozen=True)
class Block:
    """A set of arrows: kind HB (rows r..s-1 of vertical arrows), VB
    (columns r..s-1 of horizontal arrows) or MB (HB(r,k) plus VB(1,s))."""

    kind: str
    r: int
    s: int

    def size(self, k: int) -> int:
        if self.kind == "MB":
            return (k - self.r) + (self.s - 1)
        return self.s - self.r

    def weight_vertex(self, k: int) -> Vertex:
        if self.kind == "HB":
            return (self.s - 1, 1)
        return (k, self.s - 1)


def vertical_arrows(k: int, n: int) -> List[Arrow]:
    out: List[Arrow] = [((0, 1), (1, 1))]
    for i in range(1, k):
        for j in range(1, n + 1):
            out.append(((i, j), (i + 1, j)))
    return out


def horizontal_arrows(k: int, n: int) -> List[Arrow]:
    out: List[Arrow] = []
    for i in range(1, k + 1):
        for j in range(1, n):
            out.append(((i, j), (i, j + 1)))
    out.append(((k, n), (k, n + 1)))
    return out


def block_arrows(block: Block, k: int, n: int) -> List[Arrow]:
    out: List[Arrow] = []
    if block.kind in ("HB", "MB"):
        top = block.s - 1 if block.kind == "HB" else k - 1
        for i in range(block.r, top + 1):
            if i == 0:
                out.append(((0, 1), (1, 1)))
            else:
                for j in range(1, n + 1):
                    out.append(((i, j), (i + 1, j)))
    if block.kind in ("VB", "MB"):
        left = block.r if block.kind == "VB" else 1
        right = block.s - 1
        for j in range(left, right + 1):
            for i in range(1, k + 1):
                if j < n:
                    out.append(((i, j), (i, j + 1)))
                elif i == k:
                    out.append(((k, n), (k, n + 1)))
    return out


@dataclass(frozen=True)
class QuiverModel:
    k: int
    n: int
    degrees: Tuple[int, ...]
    blocks: Tuple[Block, ...]

    def all_arrows(self) -> List[Arrow]:
        return vertical_arrows(self.k, self.n) + horizontal_arrows(self.k, self.n)

    def arrows_of(self, p: int) -> List[Arrow]:
        """Arrows of block p (1-based); p = 0 gives the complement block."""
        if p == 0:
            used = set()
            for b in self.blocks:
                used.update(block_arrows(b, self.k, self.n))
            return [a for a in self.all_arrows() if a not in used]
        return block_arrows(self.blocks[p - 1], self.k, self.n)


def consecutive_blocks(spec: GrassSpec) -> QuiverModel:
    """Lay the degrees out as horizontal blocks, then at most one mixed
    block, then vertical blocks."""
    k, n = spec.k, spec.n
    blocks: List[Block] = []
    row = 0
    col: Optional[int] = None
    for d in spec.degrees:
        if col is None and row + d <= k:
            blocks.append(Block("HB", row, row + d))
            row += d
            if row == k:
                col = 1
        elif col is None:
            s = d - (k - row) + 1
            if s > n + 1:
                raise BlocksDontFit(
                    f"degree {d} overruns the quiver after row {row}")
            blocks.append(Block("MB", row, s))
            row, col = k, s
        else:
            if col + d > n + 1:
                raise BlocksDontFit(
                    f"degree {d} overruns the quiver after column {col}")
            blocks.append(Block("VB", col, col + d))
            col += d
    model = QuiverModel(k, n, spec.degrees, tuple(blocks))
    for b, d in zip(blocks, spec.degrees):
        if b.size(k) != d:
            raise BlocksDontFit(f"block {b} has size {b.size(k)}, wanted {d}")
    return model


def _weight(block: Block, k: int, v: Vertex) -> int:
    i, j = v
    r, s = block.r, block.s
    if block.kind == "HB":
        if v == (0, 1):
            return s - r
        if r <= i <= s:
            return s - i
        if i > s:
            return 0
        return s - r
    if block.kind == "VB":
        if v == (0, 1):
            return s - r
        if r <= j <= s:
            return s - j
        if j < r:
            return s - r
        return 0
    # mixed
    if v == (0, 1):
        return (k - r) + (s - 1)
    if i >= r:
        return (k - i) + (s - j) if j <= s else k - i
    return (k - r) + (s - j) if j <= s else k - r


def weight_table(model: QuiverModel) -> List[Dict[Vertex, int]]:
    """Per-block weights of every vertex, with the defining differences
    checked over all arrows."""
    k, n = model.k, model.n
    vertices = [(0, 1), (k, n + 1)] + [(i, j) for i in range(1, k + 1)
                                       for j in range(1, n + 1)]
    tables: List[Dict[Vertex, int]] = []
    for p, block in enumerate(model.blocks, start=1):
        wt = {v: _weight(block, k, v) for v in vertices}
        wt[(k, n + 1)] = wt[(0, 1)]
        in_p = set(model.arrows_of(p))
        for arrow in model.all_arrows():
            tail, head = arrow
            diff = wt[head] - wt[tail]
            if arrow in in_p:
                if diff != -1:
                    raise BlocksDontFit(
                        f"block {p}: arrow {arrow} changes the weight by "
                        f"{diff}, not -1")
            elif arrow != ((k, n), (k, n + 1)) and diff:
                raise BlocksDontFit(
                    f"block {p}: arrow {arrow} outside the block changes "
                    f"the weight by {diff}")
        if wt[(k, n)] != 0 or any(x < 0 for x in wt.values()):
            raise BlocksDontFit(
                f"block {p}: weights must be nonnegative and vanish at {(k, n)}")
        tables.append(wt)
    return tables


def _vertex_name(k: int, n: int, v: Vertex) -> Optional[str]:
    if v == (k, n):
        return None
    if v in ((0, 1), (k, n + 1)):
        return "a"
    return f"a{v[0]}_{v[1]}"


def weight_variables(model: QuiverModel) -> List[str]:
    """One eliminated variable per block, read off its weight vertex."""
    out = []
    for b in model.blocks:
        name = _vertex_name(model.k, model.n, b.weight_vertex(model.k))
        if name is None:
            raise BlocksDontFit(
                f"block {b} has its weight vertex at {(model.k, model.n)}, "
                "which carries no variable")
        out.append(name)
    return out


def _surviving_names(model: QuiverModel) -> Tuple[str, ...]:
    k, n = model.k, model.n
    eliminated = set(weight_variables(model))
    names = ["a"] + [f"a{i}_{j}" for i in range(1, k + 1)
                     for j in range(1, n + 1) if (i, j) != (k, n)]
    return tuple(sorted(v for v in names if v not in eliminated))


def _arrow_monomial(model: QuiverModel, names: Tuple[str, ...],
                    eliminated: set, arrow: Arrow) -> LaurentPoly:
    exp = {v: 0 for v in names}
    tail, head = arrow
    for v, sign in ((head, 1), (tail, -1)):
        nm = _vertex_name(model.k, model.n, v)
        if nm is None or nm in eliminated:
            continue
        exp[nm] += sign
    return LaurentPoly.monomial(names, tuple(exp[v] for v in names))


def restricted_block_sum(model: QuiverModel, p: int) -> LaurentPoly:
    """F over block p with the fixed and eliminated variables set to 1."""
    names = _surviving_names(model)
    eliminated = set(weight_variables(model))
    total = LaurentPoly.zero(names)
    for arrow in model.arrows_of(p):
        total = total + _arrow_monomial(model, names, eliminated, arrow)
    return total


def bcfks_laurent(spec: GrassSpec) -> LaurentPoly:
    """Eliminated quiver superpotential: the invariant arrow sum plus the
    product of restricted block sums raised to the degrees, times what is
    left of the extra sink arrow."""
    model = consecutive_blocks(spec)
    weight_table(model)
    names = _surviving_names(model)
    eliminated = set(weight_variables(model))
    k, n = model.k, model.n
    sink_arrow = ((k, n), (k, n + 1))
    f = LaurentPoly.zero(names)
    for arrow in model.arrows_of(0):
        if arrow != sink_arrow:
            f = f + _arrow_monomial(model, names, eliminated, arrow)
    correction = _arrow_monomial(model, names, eliminated, sink_arrow)
    for p, d in enumerate(spec.degrees, start=1):
        correction = correction * restricted_block_sum(model, p) ** d
    return f + correction


def elimination_identity_holds(spec: GrassSpec) -> bool:
    """Exact check that each block sum pulls back to 1 along the
    parametrization of the cut-out subvariety.

    Every weight is nonnegative, so the image of each vertex is a Laurent
    polynomial; the sum of head/tail ratios over a block is carried as one
    fraction num/den and the identity is num == den.
    """
    model = consecutive_blocks(spec)
    tables = weight_table(model)
    names = _surviving_names(model)
    eliminated = set(weight_variables(model))
    k, n = model.k, model.n
    one = LaurentPoly.constant(1, names)
    bars = [restricted_block_sum(model, p)
            for p in range(1, len(model.degrees) + 1)]

    def image(v: Vertex) -> LaurentPoly:
        nm = _vertex_name(k, n, v)
        if nm is None or nm in eliminated:
            base = one
        else:
            base = LaurentPoly.variable(nm, names)
        for p, wt in enumerate(tables):
            w = wt[v]
            if w:
                base = base * bars[p] ** w
        return base

    for p in range(1, len(model.degrees) + 1):
        num, den = LaurentPoly.zero(names), one
        for tail, head in model.arrows_of(p):
            a, b = image(head), image(tail)
            num, den = num * b + a * den, den * b
        if num != den:
            return False
    return True

"""Quiver models for complete intersections in Grassmannians.

The quiver for G(k, n+k) is a k-by-n grid with one extra source vertex
(0, 1) and one extra sink vertex (k, n+1). Its arrows fall into k + n
lines, numbered in layout order: line i < k holds the vertical arrows
leaving row i (row 0 is the source arrow), and line k + j - 1 holds the
horizontal arrows leaving column j (column n is the sink arrow). Every path
from a vertex (i, j) to the sink takes one arrow from each line L with
i <= L < k or L >= k + j - 1, and from no other line.

The p-th hypersurface degree takes the block of lines [c_(p-1), c_p), the
interval between consecutive running sums c of the degrees (Przyjalkowski-
Shramov, arXiv:1409.3729). A block's weight at a vertex counts the block's
lines that its paths to the sink cross; the source crosses them all. An
arrow's head crosses the lines of its tail minus the arrow's own line, so
the weight drops by one along each arrow of the block and stays put along
every other arrow. Eliminating one weight variable per block turns the
superpotential into a Laurent polynomial in kn - l variables; the model
reads only the weight vertices, and the weight table serves --explain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .laurent import LaurentPoly
from .series import GrassSpec

Vertex = Tuple[int, int]
Arrow = Tuple[Vertex, Vertex]


class BlocksDontFit(ValueError):
    """The degree sizes cannot be laid out as consecutive blocks."""


@dataclass(frozen=True)
class Block:
    """An interval of arrow lines, row i being line i and column j line
    k + j - 1: kind HB is rows r..s-1, VB columns r..s-1 and MB rows
    r..k-1 with columns 1..s-1. Its weight at (i, j) counts its lines L with
    i <= L < k or L >= k + j - 1. `lines` is the only code that reads the
    kind."""

    kind: str
    r: int
    s: int

    def lines(self, k: int) -> range:
        first = k + self.r - 1 if self.kind == "VB" else self.r
        end = self.s if self.kind == "HB" else k + self.s - 1
        return range(first, end)

    def size(self, k: int) -> int:
        return len(self.lines(k))

    def weight_vertex(self, k: int) -> Vertex:
        """Start of the last line: (i, 1) on row i, (k, j) on column j."""
        last = self.lines(k)[-1]
        return (last, 1) if last < k else (k, last - k + 1)


def _line_arrows(k: int, n: int, line: int) -> List[Arrow]:
    """The arrows of one line: the source arrow, a row, a column or the
    sink arrow."""
    if line == 0:
        return [((0, 1), (1, 1))]
    if line < k:
        return [((line, j), (line + 1, j)) for j in range(1, n + 1)]
    if line < k + n - 1:
        j = line - k + 1
        return [((i, j), (i, j + 1)) for i in range(1, k + 1)]
    return [((k, n), (k, n + 1))]


def quiver_arrows(k: int, n: int) -> List[List[Arrow]]:
    """The arrows of each of the k + n lines, in line order."""
    return [_line_arrows(k, n, line) for line in range(k + n)]


def block_arrows(block: Block, k: int, n: int) -> List[Arrow]:
    return [arrow for line in block.lines(k)
            for arrow in _line_arrows(k, n, line)]


@dataclass(frozen=True)
class QuiverModel:
    """A layout of blocks; the arrows and the variable names are built on
    first use and kept, so one model builds each of them once."""

    k: int
    n: int
    degrees: Tuple[int, ...]
    blocks: Tuple[Block, ...]

    @cached_property
    def arrows(self) -> List[Arrow]:
        """Every arrow, in line order."""
        return [arrow for line in quiver_arrows(self.k, self.n)
                for arrow in line]

    @cached_property
    def eliminated(self) -> frozenset:
        """The weight variables, one per block."""
        return frozenset(weight_variables(self))

    @cached_property
    def names(self) -> Tuple[str, ...]:
        """The variables that survive the elimination, sorted."""
        return _surviving_names(self)

    def arrows_of(self, p: int) -> List[Arrow]:
        """Arrows of block p (1-based); p = 0 gives the complement block."""
        if p == 0:
            used = set()
            for b in self.blocks:
                used.update(block_arrows(b, self.k, self.n))
            return [a for a in self.arrows if a not in used]
        return block_arrows(self.blocks[p - 1], self.k, self.n)


def consecutive_blocks(spec: GrassSpec) -> QuiverModel:
    """Lay degree p out on the lines [c_(p-1), c_p) of the running sums c:
    horizontal blocks end by line k, vertical blocks start at line k or
    later, and at most one mixed block straddles line k."""
    k, n = spec.k, spec.n
    blocks: List[Block] = []
    a = 0
    for d in spec.degrees:
        b = a + d
        if b > k + n:
            raise BlocksDontFit(
                f"degree {d} overruns the {k + n} arrow lines after line {a}")
        if b <= k:
            blocks.append(Block("HB", a, b))
        elif a >= k:
            blocks.append(Block("VB", a - k + 1, b - k + 1))
        else:
            blocks.append(Block("MB", a, b - k + 1))
        a = b
    return QuiverModel(k, n, spec.degrees, tuple(blocks))


def _weight(block: Block, k: int, v: Vertex) -> int:
    """The block's lines that the paths from v to the sink cross."""
    i, j = v
    return sum(1 for line in block.lines(k)
               if i <= line < k or line >= k + j - 1)


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
        for arrow in model.arrows:
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
    names = ["a"] + [f"a{i}_{j}" for i in range(1, k + 1)
                     for j in range(1, n + 1) if (i, j) != (k, n)]
    return tuple(sorted(v for v in names if v not in model.eliminated))


def _arrow_monomial(model: QuiverModel, arrow: Arrow) -> LaurentPoly:
    names = model.names
    exp = {v: 0 for v in names}
    tail, head = arrow
    for v, sign in ((head, 1), (tail, -1)):
        nm = _vertex_name(model.k, model.n, v)
        if nm is None or nm in model.eliminated:
            continue
        exp[nm] += sign
    return LaurentPoly.monomial(names, tuple(exp[v] for v in names))


def restricted_block_sum(model: QuiverModel, p: int) -> LaurentPoly:
    """F over block p with the fixed and eliminated variables set to 1."""
    total = LaurentPoly.zero(model.names)
    for arrow in model.arrows_of(p):
        total = total + _arrow_monomial(model, arrow)
    return total


def bcfks_laurent(spec: GrassSpec) -> LaurentPoly:
    """Eliminated quiver superpotential: the invariant arrow sum plus the
    product of restricted block sums raised to the degrees, times what is
    left of the extra sink arrow."""
    model = consecutive_blocks(spec)
    k, n = model.k, model.n
    sink_arrow = ((k, n), (k, n + 1))
    f = LaurentPoly.zero(model.names)
    for arrow in model.arrows_of(0):
        if arrow != sink_arrow:
            f = f + _arrow_monomial(model, arrow)
    correction = _arrow_monomial(model, sink_arrow)
    for p, d in enumerate(spec.degrees, start=1):
        correction = correction * restricted_block_sum(model, p) ** d
    return f + correction

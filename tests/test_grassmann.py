import hashlib
import itertools
import json
from collections import Counter
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlg import grassmann
from tlg.grassmann import (Block, BlocksDontFit, QuiverModel, bcfks_laurent,
                           block_arrows, consecutive_blocks, weight_table,
                           weight_variables)
from tlg.laurent import LaurentPoly
from tlg.series import GrassSpec, iseries_grassmannian, phi


def test_consecutive_blocks_layout():
    model = consecutive_blocks(GrassSpec(3, 3, (2, 1, 1, 1)))
    assert model.blocks == (Block("HB", 0, 2), Block("HB", 2, 3),
                            Block("VB", 1, 2), Block("VB", 2, 3))
    assert weight_variables(model) == ["a1_1", "a2_1", "a3_1", "a3_2"]


def test_consecutive_blocks_mixed():
    model = consecutive_blocks(GrassSpec(2, 3, (3,)))
    assert model.blocks == (Block("MB", 0, 2),)
    assert model.blocks[0].size(2) == 3
    assert weight_variables(model) == ["a2_1"]


def test_oversized_degrees_rejected():
    # the spec's own positivity check fires before any layout is tried;
    # every spec it lets through fits, so the layout error stays defensive
    with pytest.raises(ValueError):
        consecutive_blocks(GrassSpec(2, 2, (5,)))
    with pytest.raises(ValueError):
        consecutive_blocks(GrassSpec(2, 2, (1, 1, 1, 1, 1)))
    assert issubclass(BlocksDontFit, ValueError)


def test_weight_table_vertex_matrix():
    # M[p][q] = weight of block q's eliminated vertex in block p's table;
    # lower triangular of ones for the consecutive layout
    model = consecutive_blocks(GrassSpec(3, 3, (2, 1, 1, 1)))
    tables = weight_table(model)
    verts = [b.weight_vertex(model.k) for b in model.blocks]
    m = [[tables[p][v] for v in verts] for p in range(len(tables))]
    assert m == [[1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]]


def test_bcfks_plain_grassmannian():
    f = bcfks_laurent(GrassSpec(2, 2, ()))
    names = ("a", "a1_1", "a1_2", "a2_1")
    a, a11, a12, a21 = (LaurentPoly.variable(v, names) for v in names)
    expected = (a11 * a ** -1 + a21 * a11 ** -1 + a12 * a11 ** -1
                + a12 ** -1 + a21 ** -1 + a)
    assert f == expected


def test_bcfks_section_of_g24():
    f = bcfks_laurent(GrassSpec(2, 2, (1, 1)))
    names = ("a1_2", "a2_1")
    a12, a21 = (LaurentPoly.variable(v, names) for v in names)
    assert f == a12 + a12 ** -1 + a21 + a21 ** -1
    assert phi(f, 5).coeffs == (1, 0, 4, 0, 36)


def test_variable_count():
    # kn + 1 quiver variables lose one per degree and the one identified
    # with the sink corner
    for spec in [GrassSpec(2, 2, ()), GrassSpec(2, 3, (3,)),
                 GrassSpec(3, 3, (2, 1, 1, 1))]:
        f = bcfks_laurent(spec)
        expected = spec.k * spec.n + 1 - 1 - len(spec.degrees)
        assert len(f.variables) == expected


def _ratio_sum(names: Tuple[str, ...], fixed: set,
               pairs) -> LaurentPoly:
    """Sum of head/tail monomials where names in fixed become 1."""
    total = LaurentPoly.zero(names)
    for head, tail in pairs:
        exp = {v: 0 for v in names}
        if head is not None and head not in fixed:
            exp[head] += 1
        if tail is not None and tail not in fixed:
            exp[tail] -= 1
        total = total + LaurentPoly.monomial(names, tuple(exp[v] for v in names))
    return total


def closed_formula_laurent(spec: GrassSpec) -> LaurentPoly:
    """The case-by-case explicit formula, written independently of the
    block machinery.

    The published index ranges in the vertical-block sums and in the list
    of variables set to 1 are off by one against the worked examples; the
    ranges here are the corrected ones, validated against those examples.
    """
    k, n, degrees = spec.k, spec.n, spec.degrees
    l = len(degrees)
    total = sum(degrees)
    m = 0
    acc = 0
    for p, d in enumerate(degrees, start=1):
        if acc + d <= k:
            acc += d
            m = p
        else:
            break
    u: Dict[int, int] = {0: 0}
    for p in range(1, l + 1):
        u[p] = sum(degrees[:p]) - (k if p > m else 0)

    fixed = {f"a{k}_{n}"}
    for p in range(1, m + 1):
        fixed.add("a" if u[p] == 1 else f"a{u[p] - 1}_1")
    for p in range(m + 1, l + 1):
        fixed.add(f"a{k}_{u[p]}")
    names = tuple(sorted(set(
        ["a"] + [f"a{i}_{j}" for i in range(1, k + 1) for j in range(1, n + 1)
                 if (i, j) != (k, n)]) - fixed))

    def nm(i: int, j: int) -> Optional[str]:
        return None if (i, j) == (k, n) else f"a{i}_{j}"

    def vsum(rows) -> LaurentPoly:
        pairs = []
        for i in rows:
            for j in range(1, n + 1):
                if i == 1:
                    if j == 1:
                        pairs.append((nm(1, 1), "a"))
                else:
                    pairs.append((nm(i, j), nm(i - 1, j)))
        return _ratio_sum(names, fixed, pairs)

    def hsum(cols) -> LaurentPoly:
        pairs = []
        for j in cols:
            for i in range(1, k + 1):
                if j == n + 1:
                    if i == k:
                        pairs.append(("a", nm(k, n)))
                else:
                    pairs.append((nm(i, j), nm(i, j - 1)))
        return _ratio_sum(names, fixed, pairs)

    if total <= k:
        f = vsum(range(u[l] + 1, k + 1)) + hsum(range(2, n + 1))
        corr = _ratio_sum(names, fixed, [("a", None)])
        for p in range(1, l + 1):
            corr = corr * vsum(range(u[p - 1] + 1, u[p] + 1)) ** degrees[p - 1]
        return f + corr

    f = hsum(range(u[l] + 2, n + 1))
    corr = _ratio_sum(names, fixed, [("a", None)])
    for p in range(1, m + 1):
        corr = corr * vsum(range(u[p - 1] + 1, u[p] + 1)) ** degrees[p - 1]
    mixed = vsum(range(u[m] + 1, k + 1)) + hsum(range(2, u[m + 1] + 2))
    corr = corr * mixed ** degrees[m]
    for p in range(m + 2, l + 1):
        corr = corr * hsum(range(u[p - 1] + 2, u[p] + 2)) ** degrees[p - 1]
    return f + corr


def test_closed_formula_matches_elimination():
    for spec in [GrassSpec(2, 2, ()), GrassSpec(2, 2, (1, 1)),
                 GrassSpec(2, 3, (3,)), GrassSpec(3, 3, (2, 1, 1, 1)),
                 GrassSpec(3, 3, (1, 1, 1, 2))]:
        assert closed_formula_laurent(spec) == bcfks_laurent(spec)


def test_period_matches_hypergeometric_series():
    for spec, order in [(GrassSpec(2, 2, ()), 5),
                        (GrassSpec(2, 2, (1, 1)), 5),
                        (GrassSpec(2, 3, (3,)), 4)]:
        f = bcfks_laurent(spec)
        assert phi(f, order).coeffs == iseries_grassmannian(spec, order).coeffs


@pytest.mark.parametrize("build, spec", [
    (bcfks_laurent, GrassSpec(3, 3, (2, 1, 1, 1))),
])
def test_each_structure_is_built_once_per_call(monkeypatch, build, spec):
    calls: Counter = Counter()
    for name in ("quiver_arrows", "weight_variables", "_surviving_names"):
        def counted(*args, _build=getattr(grassmann, name), _name=name):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(grassmann, name, counted)
    build(spec)
    assert calls == {"quiver_arrows": 1, "weight_variables": 1,
                     "_surviving_names": 1}


def test_block_sizes_and_weight_vertices():
    assert Block("HB", 0, 2).size(3) == 2
    assert Block("HB", 0, 2).weight_vertex(3) == (1, 1)
    assert Block("VB", 1, 3).size(3) == 2
    assert Block("VB", 1, 3).weight_vertex(3) == (3, 2)
    assert Block("MB", 1, 2).size(3) == 3
    assert Block("MB", 1, 2).weight_vertex(3) == (3, 1)


_MODEL = consecutive_blocks(GrassSpec(3, 3, (2, 1, 1, 1)))


@pytest.mark.parametrize("patch, message", [
    # every weight zero: arrows of the block no longer drop by one
    ("weight", "not -1"),
    # block 1 claims no arrows: its own arrows look like outside arrows
    ("arrows", "outside the block"),
    # every weight shifted by one: differences hold, (k, n) is not 0
    ("shift", "vanish at"),
])
def test_weight_table_checks_raise_blocks_dont_fit(monkeypatch, patch, message):
    if patch == "weight":
        monkeypatch.setattr(grassmann, "_weight", lambda block, k, v: 0)
    elif patch == "arrows":
        monkeypatch.setattr(grassmann, "block_arrows", lambda block, k, n: [])
    else:
        weight = grassmann._weight
        monkeypatch.setattr(grassmann, "_weight",
                            lambda block, k, v: weight(block, k, v) + 1)
    with pytest.raises(BlocksDontFit, match=message):
        weight_table(_MODEL)


def test_weight_vertex_without_a_variable_raises_blocks_dont_fit():
    # a vertical block ending at column n puts its weight vertex at (k, n)
    model = QuiverModel(2, 3, (3,), (Block("VB", 1, 4),))
    with pytest.raises(BlocksDontFit, match="carries no variable"):
        weight_variables(model)


# sha256 per spec of the layout, the weights, the arrows and the model, over
# k in {2, 3}, n in {2, 3, 4} and up to four degrees in 1..4: any change to a
# block, a weight or a Laurent model shows here
BOX_SHA256 = json.loads(
    (Path(__file__).parent / "grassmann_box_sha256.json").read_text())


def _box_specs():
    for k, n in itertools.product((2, 3), (2, 3, 4)):
        for length in range(5):
            for degrees in itertools.product(range(1, 5), repeat=length):
                if sum(degrees) < k + n:
                    yield GrassSpec(k, n, degrees)


def _model_digest(spec: GrassSpec) -> str:
    model = consecutive_blocks(spec)
    k, n = model.k, model.n
    record = {
        "blocks": [[b.kind, b.r, b.s] for b in model.blocks],
        "weight_vertices": [list(b.weight_vertex(k)) for b in model.blocks],
        "weight_variables": weight_variables(model),
        "weight_tables": [sorted([*v, w] for v, w in t.items())
                          for t in weight_table(model)],
        "block_arrows": [sorted(block_arrows(b, k, n)) for b in model.blocks],
        "laurent": bcfks_laurent(spec).to_json_dict(),
    }
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()).hexdigest()


def test_models_over_a_box_of_specs_are_byte_identical():
    digests = {f"{s.k},{s.n}:{','.join(map(str, s.degrees))}": _model_digest(s)
               for s in _box_specs()}
    assert len(digests) == 153
    assert digests == BOX_SHA256


def test_bcfks_laurent_builds_no_weight_table(monkeypatch):
    # the model reads only the weight vertices; the table serves --explain
    # (the digest below calls this module's own unpatched weight_table)
    def no_table(model):
        raise AssertionError("bcfks_laurent built a weight table")
    monkeypatch.setattr(grassmann, "weight_table", no_table)
    for spec in [GrassSpec(3, 3, (2, 1, 1, 1)), GrassSpec(2, 3, (4,))]:
        key = f"{spec.k},{spec.n}:{','.join(map(str, spec.degrees))}"
        assert _model_digest(spec) == BOX_SHA256[key]


@st.composite
def grass_specs(draw) -> GrassSpec:
    k, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    degrees, room = [], k + n - 1
    while room and draw(st.booleans()):
        d = draw(st.integers(1, room))
        degrees.append(d)
        room -= d
    return GrassSpec(k, n, tuple(degrees))


@settings(max_examples=200, deadline=None)
@given(grass_specs())
def test_weight_table_accepts_every_valid_spec(spec):
    model = consecutive_blocks(spec)
    assert len(weight_table(model)) == len(spec.degrees)
    assert [b.size(spec.k) for b in model.blocks] == list(spec.degrees)
    assert len(set(weight_variables(model))) == len(spec.degrees)

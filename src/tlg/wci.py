"""Laurent models of weighted complete intersections from nef partitions.

A nef partition splits the weight indices into a tail class E_0 and one
class per hypersurface degree, the weights of class i summing to degree i.
Each class drops its index of largest weight and keeps the rest as torus
variables; the model is the product of (1 + class variables)^degree over
the hypersurface classes, divided by the weight monomial, plus the kept
tail variables. `build wci` is the only command that builds one, and it
imports this module inside the command.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .laurent import LaurentPoly
from .series import WciSpec


class BadPartition(ValueError):
    """The partition is malformed or lacks a weight-one index in its tail class."""


@dataclass(frozen=True)
class NefPartition:
    """Index classes (E_0, E_1, ..., E_l); E_i weights sum to degree i for i >= 1.

    quality is "very_good" when every E_0 weight is one, "good" when at
    least one is, and "plain" otherwise.
    """

    classes: Tuple[Tuple[int, ...], ...]
    quality: str


def _quality(e0: Sequence[int], weights: Sequence[int]) -> str:
    if all(weights[j] == 1 for j in e0):
        return "very_good"
    if any(weights[j] == 1 for j in e0):
        return "good"
    return "plain"


def find_nef_partitions(spec: WciSpec,
                        want: str = "plain") -> List[NefPartition]:
    """All splittings of the weight indices with class sums matching degrees.

    want narrows the result: "plain" keeps everything, "good" keeps
    partitions whose E_0 holds a weight-one index, "very_good" keeps those
    whose E_0 weights are all one. Output order is the deterministic
    backtracking order over sorted index combinations.
    """
    if want not in ("plain", "good", "very_good"):
        raise ValueError(f"unknown filter {want!r}")
    weights = spec.weights
    out: List[NefPartition] = []

    def rec(deg_idx: int, remaining: Tuple[int, ...], acc: List[Tuple[int, ...]]):
        if deg_idx == len(spec.degrees):
            e0 = tuple(remaining)
            q = _quality(e0, weights)
            part = NefPartition((e0,) + tuple(acc), q)
            if want == "plain" or q == "very_good" or (want == "good" and q == "good"):
                out.append(part)
            return
        target = spec.degrees[deg_idx]
        for size in range(1, len(remaining) + 1):
            for combo in itertools.combinations(remaining, size):
                if sum(weights[j] for j in combo) == target:
                    rest = tuple(j for j in remaining if j not in combo)
                    acc.append(combo)
                    rec(deg_idx + 1, rest, acc)
                    acc.pop()

    rec(0, tuple(range(len(weights))), [])
    return out


def _dropped_index(cls: Sequence[int], weights: Sequence[int]) -> int:
    return max(cls, key=lambda j: (weights[j], j))


def wci_laurent(spec: WciSpec, part: Optional[NefPartition] = None,
                var_names: Optional[Sequence[str]] = None) -> LaurentPoly:
    """Laurent model of a weighted complete intersection from a nef partition.

    Within each class the index of largest weight (ties resolved towards
    the last position) is dropped; every kept index becomes a variable
    whose denominator exponent is its weight. The model is the product of
    (sum of class variables + 1)^degree over the hypersurface classes,
    divided by the full variable-weight monomial, plus the kept E_0
    variables.
    """
    weights = spec.weights
    if part is None:
        found = find_nef_partitions(spec, "very_good") or find_nef_partitions(spec, "good")
        if not found:
            raise BadPartition("no good nef-partition exists for this spec")
        part = found[0]
    classes = part.classes
    if len(classes) != len(spec.degrees) + 1:
        raise BadPartition("need one class per degree plus the tail class")
    flat = sorted(j for cls in classes for j in cls)
    if flat != list(range(len(weights))):
        raise BadPartition("classes must partition the weight indices")
    for i, cls in enumerate(classes[1:], start=1):
        if sum(weights[j] for j in cls) != spec.degrees[i - 1]:
            raise BadPartition(
                f"class {i} weights sum to {sum(weights[j] for j in cls)}, "
                f"expected degree {spec.degrees[i - 1]}")
    if not any(weights[j] == 1 for j in classes[0]):
        raise BadPartition("tail class holds no weight-one index")

    kept: List[List[int]] = []
    for cls in classes:
        drop = _dropped_index(cls, weights)
        kept.append([j for j in sorted(cls) if j != drop])
    m = sum(len(k) for k in kept)
    if var_names is None:
        names = tuple(f"x{i}" for i in range(1, m + 1))
    else:
        names = tuple(var_names)
        if len(names) != m:
            raise ValueError(f"need {m} variable names, got {len(names)}")

    flat_kept = [j for k in kept for j in k]
    var_of = {j: names[pos] for pos, j in enumerate(flat_kept)}
    numer = LaurentPoly.constant(1, names)
    for i, cls_kept in enumerate(kept[1:], start=1):
        s = LaurentPoly.constant(1, names)
        for j in cls_kept:
            s = s + LaurentPoly.variable(var_of[j], names)
        numer = numer * s ** spec.degrees[i - 1]
    denom_exp = tuple(-weights[j] for j in flat_kept)
    f = numer * LaurentPoly.monomial(names, denom_exp)
    for j in kept[0]:
        f = f + LaurentPoly.variable(var_of[j], names)
    return f

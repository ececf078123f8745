"""Recovering an ordinary differential operator that annihilates a series.

Operators are rational combinations of monomials t^i * theta^j where theta
is the Euler operator t*d/dt. On a power series sum a_k t^k such a monomial
contributes c * (k-i)^j * a_{k-i} to coefficient k, so "the operator kills
the series" is a homogeneous linear condition on the c's and fitting reduces
to an exact kernel computation. It runs over Z: each row of the system is
cleared of denominators and fed to the fraction-free echelon of
`intlinalg`, whose free columns give the kernel basis.

The fit anchors the theta order at the requested order and only searches the
t degree. Anchoring matters: a series can satisfy an incidental lower-order
relation (the central binomial series already satisfies one of order one)
and a smallest-order-first search would report that relation instead of the
operator of the expected rank. Relations of lower order still show up inside
the anchored kernel, composed with powers of theta; the reduced kernel basis
separates them from the top-order element that gets returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .intlinalg import _echelon
from .laurent import Coeff, _coerce_coeff, _norm
from .series import PowerSeries

FIT_MARGIN = 10


class ZeroOperator(ValueError):
    """A differential operator needs at least one nonzero term."""


class InsufficientCoefficients(ValueError):
    """The series is too short for the requested computation."""


Term = Tuple[int, int, Coeff]


@dataclass(frozen=True)
class DifferentialOperator:
    """Sum of c * t^i * theta^j terms, stored sorted by (i, j) and scaled
    so that the first nonzero coefficient in that order is 1."""

    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        merged: Dict[Tuple[int, int], Fraction] = {}
        for i, j, c in self.terms:
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in operator term t^{i} theta^{j}")
            merged[(i, j)] = merged.get((i, j), Fraction(0)) + Fraction(c)
        cleaned = sorted((ij, c) for ij, c in merged.items() if c)
        if not cleaned:
            raise ZeroOperator("operator has no nonzero terms")
        lead = cleaned[0][1]
        object.__setattr__(
            self,
            "terms",
            tuple((i, j, _norm(c / lead)) for (i, j), c in cleaned),
        )

    @property
    def max_t_degree(self) -> int:
        return max(i for i, _, _ in self.terms)

    @property
    def max_theta_order(self) -> int:
        return max(j for _, j, _ in self.terms)

    def coefficient(self, t_degree: int, theta_power: int) -> Coeff:
        for i, j, c in self.terms:
            if (i, j) == (t_degree, theta_power):
                return c
        return 0

    def apply(self, series: PowerSeries) -> PowerSeries:
        """Coefficient k of the image is sum c * (k-i)^j * a_{k-i}."""
        if series.order <= self.max_t_degree:
            raise InsufficientCoefficients(
                f"series of order {series.order} is shorter than the "
                f"operator's t degree {self.max_t_degree}")
        out: List[Coeff] = []
        for k in range(series.order):
            total = Fraction(0)
            for i, j, c in self.terms:
                m = k - i
                if m >= 0:
                    total += Fraction(c) * m ** j * Fraction(series.coeffs[m])
            out.append(_norm(total))
        return PowerSeries(tuple(out))

    def to_json_dict(self) -> dict:
        return {"terms": [{"t": i, "theta": j, "c": str(Fraction(c))}
                          for i, j, c in self.terms]}

    @classmethod
    def from_json_dict(cls, data) -> "DifferentialOperator":
        """{"terms": [{"t": i, "theta": j, "c": coefficient}]}; a
        malformed term raises a ValueError that gives its index."""
        raw = data.get("terms")
        if type(raw) is not list:
            raise ValueError(f"terms must be a list, got {raw!r}")
        terms = []
        for k, term in enumerate(raw):
            if type(term) is not dict or not {"t", "theta", "c"} <= set(term):
                raise ValueError(f"terms[{k}]: a term needs the keys 't', "
                                 f"'theta' and 'c', got {term!r}")
            i, j, c = term["t"], term["theta"], term["c"]
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"terms[{k}]: t and theta must be integers, "
                                 f"got {i!r} and {j!r}")
            try:
                terms.append((i, j, _coerce_coeff(c)))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(
                    f"terms[{k}]: bad coefficient {c!r}: {exc}") from None
        return cls(tuple(terms))

    def __str__(self) -> str:
        parts = []
        for i, j, c in self.terms:
            factors = []
            if c != 1 or (i == 0 and j == 0):
                factors.append(str(c) if Fraction(c) > 0 else f"({c})")
            if i:
                factors.append("t" if i == 1 else f"t^{i}")
            if j:
                factors.append("theta" if j == 1 else f"theta^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def fit(series: PowerSeries, max_order: int, max_degree: int
        ) -> Optional[DifferentialOperator]:
    """Operator of theta order max_order and smallest t degree <= max_degree
    killing the series, or None.

    All coefficients except the last FIT_MARGIN feed the linear system; any
    solution must then also kill the held-out margin, which guards against
    underdetermined fits. Raises InsufficientCoefficients when the series
    cannot fill the system plus the margin.
    """
    if max_order < 0 or max_degree < 0:
        raise ValueError("order and degree bounds must be nonnegative")
    need = (max_order + 1) * (max_degree + 1) + max_order + FIT_MARGIN
    if series.order < need:
        raise InsufficientCoefficients(
            f"fitting theta order {max_order}, t degree {max_degree} needs "
            f"at least {need} coefficients; got {series.order}")
    window = series.order - FIT_MARGIN
    coeffs = series.coeffs
    for degree in range(max_degree + 1):
        unknowns = [(i, j) for i in range(degree + 1)
                    for j in range(max_order + 1)]
        rows = ([coeffs[k - i] * (k - i) ** j if k >= i else 0
                 for (i, j) in unknowns] for k in range(window))
        basis = _echelon(rows).kernel_basis(len(unknowns))
        if not basis:
            continue
        # the kernel's own echelon is its unique reduced basis, whose
        # elements have distinct leading terms
        candidates = []
        for vec in _echelon(basis).rows:
            terms = tuple((i, j, c) for (i, j), c in zip(unknowns, vec) if c)
            op = DifferentialOperator(terms)
            candidates.append(((-op.max_theta_order, op.max_t_degree, op.terms), op))
        op = min(candidates)[1]
        image = op.apply(series)
        if all(c == 0 for c in image.coeffs):
            return op
    return None

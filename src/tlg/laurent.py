"""Laurent polynomials with exact rational coefficients.

Terms are stored sparsely as a dict mapping integer exponent tuples to
coefficients. Coefficients are plain ints whenever the value is integral and
fractions.Fraction otherwise; arithmetic never leaves exact rationals.
Iteration and serialization order terms lexicographically by exponent so all
outputs are deterministic.

`LaurentPoly.from_json_dict` reads a polynomial in one pass over its
terms, with every check of the constructor, so loading the catalog
validates each term once. Exact division, which only mutations need, is
`mutation.divide_exact`.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

Coeff = Union[int, Fraction]
Exponent = Tuple[int, ...]


class VariableMismatch(ValueError):
    """Two expressions use incompatible variable sets where one is required."""


class UnknownVariable(ValueError):
    """A variable name was referenced that the expression does not declare."""


class NotLaurent(ArithmeticError):
    """A quotient or power is not equal to any Laurent polynomial."""


def _norm(c: Coeff) -> Coeff:
    if type(c) is not int and isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


# an isinstance test against Fraction, whose metaclass is ABCMeta, runs
# ABCMeta.__instancecheck__ for anything but a Fraction: an int or a str is
# told apart first
def _coerce_coeff(c) -> Coeff:
    if type(c) is int:  # true and false are ints too, but no coefficient
        return c
    if isinstance(c, str):
        try:  # almost every coefficient in the catalog is a plain integer
            return int(c)
        except ValueError:
            return _norm(Fraction(c))
    if isinstance(c, Fraction):
        return _norm(c)
    raise TypeError(f"coefficient must be int, Fraction or string, got {type(c).__name__}")


class LaurentPoly:
    """Immutable sparse Laurent polynomial over named variables.

    ``factors`` is None, or the pairs (L, m) whose product of L^m is this
    polynomial, attached and checked by ``series.factored``; `phi`
    multiplies by them and ``polytope.newton_polytope`` hulls their sums.
    ``_newton`` holds the Newton polytope once ``newton_polytope`` has
    built it; nothing else reads or writes it.
    """

    __slots__ = ("_vars", "_terms", "_newton", "factors")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Coeff]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise VariableMismatch(f"duplicate variable names in {vs}")
        clean: Dict[Exponent, Coeff] = {}
        for e, c in terms.items():
            e = tuple(e)
            for x in e:  # int() would read 1.5 and True as exponent 1
                if type(x) is not int:
                    raise TypeError(f"exponent {e} must be integers")
            if len(e) != len(vs):
                raise VariableMismatch(
                    f"exponent {e} has length {len(e)}, expected {len(vs)}")
            c = _coerce_coeff(c)
            if c:
                clean[e] = c
        self._vars = vs
        self._terms = clean
        self._newton = self.factors = None

    @classmethod
    def _raw(cls, vs: Tuple[str, ...], terms: Dict[Exponent, Coeff]) -> "LaurentPoly":
        # internal fast path: exponents already well formed, only coefficients
        # need normalizing
        p = object.__new__(cls)
        p._vars = vs
        p._terms = {e: _norm(c) for e, c in terms.items() if c}
        p._newton = p.factors = None
        return p

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "LaurentPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, value: Coeff, variables: Sequence[str] = ()) -> "LaurentPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "LaurentPoly":
        vs = tuple(variables)
        if name not in vs:
            raise UnknownVariable(f"{name!r} not among {vs}")
        e = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {e: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exponent: Sequence[int],
                 coeff: Coeff = 1) -> "LaurentPoly":
        return cls(variables, {tuple(exponent): coeff})

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._vars

    def terms(self) -> Iterator[Tuple[Exponent, Coeff]]:
        """Terms in lexicographic exponent order."""
        for e in sorted(self._terms):
            yield e, self._terms[e]

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exponent: Sequence[int]) -> Coeff:
        return self._terms.get(tuple(exponent), 0)

    def exponents(self) -> Iterator[Exponent]:
        return iter(sorted(self._terms))

    # -- variable alignment ------------------------------------------------

    def with_variables(self, variables: Sequence[str]) -> "LaurentPoly":
        """Reindex onto a superset of the current variables."""
        vs = tuple(variables)
        if vs == self._vars:
            return self
        pos = []
        for v in self._vars:
            if v not in vs:
                raise UnknownVariable(f"target variables {vs} drop {v!r}")
            pos.append(vs.index(v))
        n = len(vs)
        out: Dict[Exponent, Coeff] = {}
        for e, c in self._terms.items():
            ne = [0] * n
            for p, x in zip(pos, e):
                ne[p] = x
            out[tuple(ne)] = c
        return LaurentPoly._raw(vs, out)

    def _aligned(self, other: "LaurentPoly") -> Tuple["LaurentPoly", "LaurentPoly"]:
        if self._vars == other._vars:
            return self, other
        merged = tuple(sorted(set(self._vars) | set(other._vars)))
        return self.with_variables(merged), other.with_variables(merged)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self._vars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._aligned(other)
        out = dict(a._terms)
        for e, c in b._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(a._vars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self._vars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return LaurentPoly.zero(self._vars)
            return LaurentPoly._raw(
                self._vars, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._aligned(other)
        if len(a._terms) > len(b._terms):
            a, b = b, a
        out: Dict[Exponent, Coeff] = {}
        for e1, c1 in a._terms.items():
            for e2, c2 in b._terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._raw(a._vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if type(n) is not int:  # a bool too, which is no exponent
            return NotImplemented
        if n < 0:
            if len(self._terms) == 1:
                ((e, c),) = self._terms.items()
                return LaurentPoly._raw(
                    self._vars, {tuple(n * x for x in e): _norm(Fraction(c) ** n)})
            raise NotLaurent("negative power of a non-monomial")
        result = LaurentPoly.constant(1, self._vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other, self._vars)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a._terms == b._terms

    def __hash__(self):
        return hash((self._vars, frozenset(self._terms.items())))

    # -- structure ---------------------------------------------------------

    def constant_term(self, over: Optional[Iterable[str]] = None):
        """Coefficient of the zero exponent.

        With ``over`` a subset of variables, collects all terms whose
        exponents vanish on those variables and returns them as a polynomial
        in the remaining variables. Without it, returns the scalar
        coefficient of the all-zero exponent.
        """
        if over is None:
            return self._terms.get((0,) * len(self._vars), 0)
        kill = tuple(over)
        for v in kill:
            if v not in self._vars:
                raise UnknownVariable(f"{v!r} not among {self._vars}")
        kill_pos = [i for i, v in enumerate(self._vars) if v in kill]
        keep_pos = [i for i, v in enumerate(self._vars) if v not in kill]
        rest = tuple(self._vars[i] for i in keep_pos)
        out: Dict[Exponent, Coeff] = {}
        for e, c in self._terms.items():
            if all(e[i] == 0 for i in kill_pos):
                ne = tuple(e[i] for i in keep_pos)
                out[ne] = out.get(ne, 0) + c
        return LaurentPoly._raw(rest, out)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self._vars),
            "terms": [{"e": list(e), "c": str(Fraction(c))}
                      for e, c in self.terms()],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        """{"vars": [names], "terms": [{"e": [ints], "c": coefficient}]};
        a malformed term raises a ValueError, or a TypeError when its
        exponent is not a list of integers, that gives its index.

        One pass over the terms makes every check `__init__` makes, with
        the same exception, and builds the polynomial with no second pass.
        A term with coefficient 0 is dropped, but its exponent still counts
        as taken."""
        vs, raw = data["vars"], data["terms"]
        if type(vs) is not list or any(type(v) is not str for v in vs):
            raise ValueError(f"vars must be a list of names, got {vs!r}")
        if type(raw) is not list:
            raise ValueError(f"terms must be a list, got {raw!r}")
        vs = tuple(vs)
        if len(set(vs)) != len(vs):
            raise VariableMismatch(f"duplicate variable names in {vs}")
        n = len(vs)
        terms: Dict[Exponent, Coeff] = {}
        zeros = set()
        for i, t in enumerate(raw):
            if type(t) is not dict:
                raise ValueError(f"terms[{i}]: a term must be an object, "
                                 f"got {t!r}")
            for key in ("e", "c"):
                if key not in t:
                    raise ValueError(f"terms[{i}]: missing key {key!r}")
            e, c = t["e"], t["c"]
            # a JSON number with a fraction part is a float and true/false
            # is a bool, so neither passes for an integer exponent
            if type(e) is not list or any(type(x) is not int for x in e):
                raise TypeError(
                    f"terms[{i}]: exponents must be lists of integers")
            if len(e) != n:
                raise VariableMismatch(f"terms[{i}]: exponent {e} has length "
                                       f"{len(e)}, expected {n}")
            e = tuple(e)
            if e in terms or e in zeros:
                raise ValueError(f"terms[{i}]: exponent {list(e)} repeats")
            try:
                c = _coerce_coeff(c)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(
                    f"terms[{i}]: bad coefficient {c!r}: {exc}") from None
            if c:
                terms[e] = c
            else:
                zeros.add(e)
        p = object.__new__(cls)
        p._vars, p._terms, p._newton, p.factors = vs, terms, None, None
        return p

    def __repr__(self) -> str:
        return f"LaurentPoly({self._vars!r}, {len(self._terms)} terms)"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e, c in self.terms():
            factors = []
            for v, k in zip(self._vars, e):
                if k == 1:
                    factors.append(v)
                elif k:
                    factors.append(f"{v}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

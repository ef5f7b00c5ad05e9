"""Sparse bivariate polynomials in x and y over exact rationals.

The term map never stores a zero coefficient, and the canonical term
order (lexicographic in (deg_x, deg_y)) is fixed so serialized output is
deterministic.

Sums, differences, products, substitutions and derivatives go through
one integer kernel, ``_collect``: each contribution to a term is a
numerator and a denominator, contributions to one term share a running
lcm, and each term becomes a reduced ``Fraction`` once, at the end.  A
sum collects the terms of both operands.  Substitution, rescaling and
the Jackson derivative are one termwise map, ``_termwise``, whose weight
depends only on a term's degree in one variable; evaluation is two
substitutions.  No ``Fraction`` is built per term pair.  The stored
coefficients stay reduced ``Fraction`` values, one per term, with no
common denominator across terms.  A scalar is an ``int`` or a
``Fraction`` (``qcore._rational``); anything else is a ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

from .qcore import QParam, _rational, q_binomial, q_number, gauss_exponent

Key = tuple[int, int]
Scalar = Union[Fraction, int]
T = TypeVar("T")

VARS = ("x", "y")


def _var_index(var: str) -> int:
    if var not in VARS:
        raise ValueError(f"variable must be 'x' or 'y', got {var!r}")
    return VARS.index(var)


class Poly2:
    """Immutable sparse polynomial in x, y with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Key, Scalar] | Iterable[tuple[Key, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _collect(_checked(items))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Poly2":
        return cls.monomial(0, 0, c)

    @classmethod
    def one(cls) -> "Poly2":
        return cls.const(1)

    @classmethod
    def monomial(cls, dx: int, dy: int, c: Scalar = 1) -> "Poly2":
        if dx < 0 or dy < 0:
            raise ValueError(f"negative exponent ({dx}, {dy})")
        c = _rational(c)
        return _raw({(dx, dy): c} if c else {})

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def constant_term(self) -> Fraction:
        return self._terms.get((0, 0), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(dx + dy for dx, dy in self._terms)

    def terms(self) -> list[tuple[Key, Fraction]]:
        """Terms in canonical (deg_x, deg_y) lexicographic order."""
        return sorted(self._terms.items())

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "Poly2 | Scalar") -> "Poly2":
        return _raw(_collect(chain(_ints(self), _ints(_coerce(other)))))

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return self * -1

    def __sub__(self, other: "Poly2 | Scalar") -> "Poly2":
        return _raw(_collect(chain(_ints(self), _ints(_coerce(other), -1))))

    def __rsub__(self, other: Scalar) -> "Poly2":
        return _coerce(other) - self

    def __mul__(self, other: "Poly2 | Scalar") -> "Poly2":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly2.zero()
            # one Fraction product per term: through _collect, n = 40 tables ran ~30% slower
            return _raw({k: c * other for k, c in self._terms.items()})
        return Poly2.linear_combination(((1, self, _coerce(other)),))

    __rmul__ = __mul__

    @staticmethod
    def linear_combination(
        terms: Iterable[tuple[Scalar, "Poly2 | Scalar", "Poly2 | Scalar"]]
    ) -> "Poly2":
        """The sum of c * p * r over (c, p, r) triples, accumulated in one
        term dict; p and r may each be a polynomial or a scalar."""
        return _raw(_collect(_products(terms)))

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        return _power(self, n) if n else Poly2.one()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes like it
        if self._terms.keys() <= {(0, 0)}:
            return hash(self.constant_term())
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly2(0)"
        bits = []
        for (dx, dy), c in self.terms():
            mono = "".join(
                f"{v}^{d}" if d > 1 else (v if d == 1 else "")
                for v, d in (("x", dx), ("y", dy))
            )
            bits.append(f"{c}{'*' if mono else ''}{mono}")
        return "Poly2(" + " + ".join(bits) + ")"

    # -- evaluation and substitution ----------------------------------

    def evaluate(self, x0: Scalar, y0: Scalar) -> Fraction:
        return self.substitute("x", x0).substitute("y", y0).constant_term()

    def substitute(self, var: str, value: Scalar) -> "Poly2":
        """Partial evaluation: fix one variable to a constant."""
        vn, vd = _rational(value).as_integer_ratio()
        return self._termwise(var, lambda d: (0, vn ** d, vd ** d))

    def scale_var(self, var: str, c: Scalar) -> "Poly2":
        """Rescale one variable: v -> c * v."""
        cn, cd = _rational(c).as_integer_ratio()
        return self._termwise(var, lambda d: (d, cn ** d, cd ** d))

    def compose(self, var: str, replacement: "Poly2") -> "Poly2":
        """Substitute a whole polynomial for one variable."""
        i = _var_index(var)
        return Poly2.linear_combination(
            (c, replacement ** k[i], Poly2.monomial(*_at(k, i, 0))) for k, c in self._terms.items()
        )

    def jackson(self, var: str, q: QParam) -> "Poly2":
        """Jackson q-derivative in one variable, by the monomial rule.

        Sends v^n to [n] v^{n-1}, and constants to 0 since [0] = 0; agrees
        with the difference quotient (f(qv) - f(v)) / (qv - v) on polynomials.
        """
        return self._termwise(var, lambda d: (d - 1, *q_number(q, d).as_integer_ratio()))

    def _termwise(self, var: str, step: Callable[[int], tuple[int, int, int]]) -> "Poly2":
        """Each term c * v^d becomes w * c * v^e, where (e, w's numerator, w's
        denominator) = step(d), called once per degree d; a zero w drops the term."""
        i = _var_index(var)
        steps = {d: step(d) for d in {k[i] for k in self._terms}}
        # the key is built inline: an ``_at`` call per term made substitution ~4% slower
        return _raw(_collect(
            ((e, k[1]) if i == 0 else (k[0], e), c.numerator * wn, c.denominator * wd)
            for k, c in self._terms.items() for e, wn, wd in (steps[k[i]],) if wn
        ))


def _power(base: T, n: int) -> T:
    """``base ** n`` for n >= 1, by left-to-right square-and-multiply: it starts
    from ``base`` and squares once per bit of n after the leading one."""
    out = base
    for bit in bin(n)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


def _coerce(v: "Poly2 | Scalar") -> Poly2:
    return v if isinstance(v, Poly2) else Poly2.const(v)


def _raw(terms: dict[Key, Fraction]) -> Poly2:
    p = Poly2.__new__(Poly2)
    p._terms = terms
    return p


def _at(k: Key, i: int, d: int) -> Key:
    """The key ``k`` with its degree in variable ``i`` set to ``d``."""
    return (d, k[1]) if i == 0 else (k[0], d)


def _collect(contributions: Iterable[tuple[Key, int, int]]) -> dict[Key, Fraction]:
    """The term dict of a sum of (key, numerator, denominator) contributions.

    Denominators are positive.  Each key keeps one running numerator over
    the lcm of its denominators: a plain add when the denominators are
    equal, one gcd otherwise.  Each key is reduced once, at the end, and
    dropped if it sums to zero.
    """
    acc: dict[Key, list[int]] = {}
    get = acc.get
    for k, n, d in contributions:
        e = get(k)
        if e is None:
            acc[k] = [n, d]
        elif e[1] == d:
            e[0] += n
        else:
            g = gcd(e[1], d)
            e[0] = e[0] * (d // g) + n * (e[1] // g)
            e[1] = e[1] // g * d
    return {k: Fraction(n, d) for k, (n, d) in acc.items() if n}


def _ints(p: Poly2, sign: int = 1) -> Iterator[tuple[Key, int, int]]:
    """The terms of ``sign * p`` as contributions."""
    return ((k, sign * c.numerator, c.denominator) for k, c in p._terms.items())


def _checked(items: Iterable[tuple[Key, Scalar]]) -> Iterator[tuple[Key, int, int]]:
    """Constructor input as contributions, rejecting negative exponents."""
    for (dx, dy), c in items:
        if dx < 0 or dy < 0:
            raise ValueError(f"negative exponent ({dx}, {dy})")
        yield (dx, dy), *_rational(c).as_integer_ratio()


def _products(
    terms: Iterable[tuple[Scalar, "Poly2 | Scalar", "Poly2 | Scalar"]]
) -> Iterator[tuple[Key, int, int]]:
    """Every term pair of every c * p * r as one contribution."""
    for c, p, r in terms:
        if not isinstance(p, Poly2):
            p, r = r, p
        cn, cd = c.numerator, c.denominator
        if isinstance(r, Poly2):
            rs = [(bx, by, bc.numerator, bc.denominator) for (bx, by), bc in r._terms.items()]
        else:
            cn, cd = cn * r.numerator, cd * r.denominator
            rs = [(0, 0, 1, 1)]
        if not cn:
            continue
        for (ax, ay), ac in _coerce(p)._terms.items():
            an, ad = cn * ac.numerator, cd * ac.denominator
            for bx, by, bn, bd in rs:
                yield (ax + bx, ay + by), an * bn, ad * bd


X = Poly2.monomial(1, 0)
Y = Poly2.monomial(0, 1)


def symbolic_pair_power(q: QParam | None, n: int) -> Poly2:
    """The q-analogue of (x + y)^n as a polynomial.

    Sum over k of [n choose k] q^{k(k-1)/2} x^{n-k} y^k.
    """
    if n < 0:
        raise ValueError(f"symbolic_pair_power requires n >= 0, got {n}")
    return _raw(
        {
            (n - k, k): q_binomial(q, n, k) * gauss_exponent(q, k)
            for k in range(n + 1)
        }
    )

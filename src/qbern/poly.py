"""Sparse bivariate polynomials in x and y over exact rationals.

The term map never stores a zero coefficient, and the canonical term
order (lexicographic in (deg_x, deg_y)) is fixed so serialized output is
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .qcore import QParam, q_binomial, q_number, gauss_exponent

Key = tuple[int, int]
Scalar = Union[Fraction, int]

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
        clean: dict[Key, Fraction] = {}
        for (dx, dy), c in items:
            if dx < 0 or dy < 0:
                raise ValueError(f"negative exponent ({dx}, {dy})")
            c = Fraction(c) + clean.get((dx, dy), 0)
            if c:
                clean[(dx, dy)] = c
            else:
                clean.pop((dx, dy), None)
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Poly2":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def one(cls) -> "Poly2":
        return cls.const(1)

    @classmethod
    def monomial(cls, dx: int, dy: int, c: Scalar = 1) -> "Poly2":
        return cls({(dx, dy): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "Poly2":
        i = _var_index(name)
        return cls.monomial(1 - i, i)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._terms)

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

    def coefficient(self, dx: int, dy: int) -> Fraction:
        return self._terms.get((dx, dy), Fraction(0))

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "Poly2 | Scalar") -> "Poly2":
        other = _coerce(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return _raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "Poly2 | Scalar") -> "Poly2":
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> "Poly2":
        return _coerce(other) - self

    def __mul__(self, other: "Poly2 | Scalar") -> "Poly2":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly2.zero()
            return _raw({k: c * other for k, c in self._terms.items()})
        out: dict[Key, Fraction] = {}
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in other._terms.items():
                k = (ax + bx, ay + by)
                s = out.get(k, 0) + ac * bc
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _raw(out)

    __rmul__ = __mul__

    @staticmethod
    def linear_combination(
        terms: Iterable[tuple[Scalar, "Poly2 | Scalar", "Poly2 | Scalar"]]
    ) -> "Poly2":
        """The sum of c * p * r over (c, p, r) triples, accumulated in one
        term dict; p and r may each be a polynomial or a scalar."""
        out: dict[Key, Fraction] = {}
        get = out.get
        for c, p, r in terms:
            if not isinstance(p, Poly2):
                p, r = r, p
            if not isinstance(r, Poly2):
                c = c * r
                r = _ONE_TERMS
            else:
                r = r._terms
            if not c:
                continue
            for (ax, ay), ac in _coerce(p)._terms.items():
                if c != 1:
                    ac = c * ac
                for (bx, by), bc in r.items():
                    k = (ax + bx, ay + by)
                    out[k] = get(k, 0) + ac * bc
        return _raw({k: v for k, v in out.items() if v})

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        out = Poly2.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
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
        x0, y0 = Fraction(x0), Fraction(y0)
        out = Fraction(0)
        for (dx, dy), c in self._terms.items():
            out += c * x0 ** dx * y0 ** dy
        return out

    def substitute(self, var: str, value: Scalar) -> "Poly2":
        """Partial evaluation: fix one variable to a constant."""
        i = _var_index(var)
        value = Fraction(value)
        out: dict[Key, Fraction] = {}
        for k, c in self._terms.items():
            c = c * value ** k[i]
            if not c:
                continue
            nk = (0, k[1]) if i == 0 else (k[0], 0)
            s = out.get(nk, 0) + c
            if s:
                out[nk] = s
            else:
                out.pop(nk, None)
        return _raw(out)

    def scale_var(self, var: str, c: Scalar) -> "Poly2":
        """Rescale one variable: v -> c * v."""
        i = _var_index(var)
        c = Fraction(c)
        if not c:
            return self.substitute(var, 0)
        return _raw({k: coef * c ** k[i] for k, coef in self._terms.items()})

    def compose(self, var: str, replacement: "Poly2") -> "Poly2":
        """Substitute a whole polynomial for one variable."""
        i = _var_index(var)
        powers: dict[int, Poly2] = {}
        for k in self._terms:
            if k[i] not in powers:
                powers[k[i]] = replacement ** k[i]
        return Poly2.linear_combination(
            (c, powers[k[i]], Poly2.monomial(0, k[1]) if i == 0 else Poly2.monomial(k[0], 0))
            for k, c in self._terms.items()
        )

    def jackson(self, var: str, q: QParam) -> "Poly2":
        """Jackson q-derivative in one variable, by the monomial rule.

        Sends v^n to [n] v^{n-1}; agrees with the difference quotient
        (f(qv) - f(v)) / (qv - v) on polynomials.
        """
        i = _var_index(var)
        out: dict[Key, Fraction] = {}
        for k, c in self._terms.items():
            d = k[i]
            if d == 0:
                continue
            c = c * q_number(q, d)
            nk = (d - 1, k[1]) if i == 0 else (k[0], d - 1)
            s = out.get(nk, 0) + c
            if s:
                out[nk] = s
            else:
                out.pop(nk, None)
        return _raw(out)


def _coerce(v: "Poly2 | Scalar") -> Poly2:
    if isinstance(v, Poly2):
        return v
    return Poly2.const(v)


def _raw(terms: dict[Key, Fraction]) -> Poly2:
    p = Poly2.__new__(Poly2)
    p._terms = terms
    return p


_ONE_TERMS = {(0, 0): Fraction(1)}
X = Poly2.var("x")
Y = Poly2.var("y")


def symbolic_pair_power(q: QParam, n: int) -> Poly2:
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

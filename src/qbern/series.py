"""Truncated formal power series in t with polynomial coefficients.

A series stores its raw t^n coefficients c_0..c_N (polynomials in x, y);
the exponential-generating-function view is a_n = c_n * [n]!, which a
caller forms itself.  Keeping raw coefficients makes the reciprocal
recursion and Cauchy products simple.

The constructors accept ``q=None`` for the classical (undeformed) case,
following the qcore convention, so every q-generating function here has
its classical counterpart.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence, Union

from .poly import Poly2, _power
from .qcore import QParam, q_factorial, gauss_exponent

ArgLike = Union[Poly2, Fraction, int]


class Series:
    """Immutable truncated power series with Poly2 coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Poly2 | Fraction | int]):
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        self.coeffs = tuple(
            c if isinstance(c, Poly2) else Poly2.const(c) for c in coeffs
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([Poly2.one()] + [Poly2.zero()] * order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Series(order={self.order}, coeffs={list(self.coeffs)!r})"

    # -- arithmetic (results truncate to the smaller order) -----------

    def __mul__(self, other: "Series") -> "Series":
        a, b = self.coeffs, other.coeffs
        return Series([
            Poly2.linear_combination((1, a[k], b[i - k]) for k in range(i + 1))
            for i in range(min(self.order, other.order) + 1)
        ])

    def reciprocal(self) -> "Series":
        """Multiplicative inverse up to the truncation order.

        Requires a nonzero constant t^0 coefficient.
        """
        c0 = self.coeffs[0]
        if c0.total_degree() != 0:
            raise ValueError("series reciprocal requires a nonzero constant t^0 coefficient")
        inv0 = 1 / c0.constant_term()
        out = [Poly2.const(inv0)]
        for n in range(1, self.order + 1):
            out.append(Poly2.linear_combination(
                (-inv0, self.coeffs[k], out[n - k]) for k in range(1, n + 1)
            ))
        return Series(out)

    def int_power(self, exponent: int) -> "Series":
        """Integer power; negative exponents go through the reciprocal."""
        if not exponent:
            return Series.one(self.order)
        return _power(self if exponent > 0 else self.reciprocal(), abs(exponent))


def eq_series(q: QParam | None, arg: ArgLike, order: int) -> Series:
    """The small exponential e(t * arg): raw coefficients arg^n / [n]!.

    With q=None this is the classical exp(t * arg).
    """
    return _exp_series(q, arg, order, lambda n: Fraction(1))


def Eq_series(q: QParam | None, arg: ArgLike, order: int) -> Series:
    """The big exponential E(t * arg): raw coefficients q^{n(n-1)/2} arg^n / [n]!."""
    return _exp_series(q, arg, order, lambda n: gauss_exponent(q, n))


def _exp_series(q: QParam | None, arg: ArgLike, order: int, weight: Callable[[int], Fraction]) -> Series:
    """Raw coefficients weight(n) arg^n / [n]! for n = 0..order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    arg = arg if isinstance(arg, Poly2) else Poly2.const(arg)
    return Series([arg ** n * (weight(n) / q_factorial(q, n)) for n in range(order + 1)])

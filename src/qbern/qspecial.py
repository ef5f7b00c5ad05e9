"""The special-function families.

Generalized Bernoulli and Euler polynomials of integer order,
Stirling numbers of the second kind and the Phillips q-Bernstein basis.
Each takes q = None for its classical (q -> 1) flavour.

Tables are built once from their generating functions, kernel^alpha times
e(tx)E(ty).  Neither the kind nor alpha enters e(tx)E(ty), and the order-alpha
kernel is the alpha-th power of the order-1 one, so both factors are built
once per (q, order) and kept in ``qcore.scalar_memo``: the tables of both
kinds and every order at one q share them.  A negative order is a power of
the kernel's base, which needs no reciprocal.  Each entry is summed from the
two factors' coefficients and scaled by [n]! as it is built, so the product
series is never held.  ``family_entries`` yields the entries one at a time, so
a caller that writes or reads each once (the CLI's ``table`` and ``limit``)
never holds the table; ``family_table`` keeps them all, for the identity
checks that read a table over and over.  Triangular
recurrences for the number sequences, summed in integers, are the test
oracles; the numbers themselves are read from the one-variable kernel
series, since e(0) = E(0) = 1.  q-Stirling numbers are computed by their
recurrence in integers, one build of the triangle serving every row a table
reads, and the series is their oracle.  The two paths of each family share no series code.

The classical triangle keeps the two-term rule S(i, k) = k S(i-1, k) + S(i-1, k-1):
the q-rule, with ``qcore``'s integer forms at c = d = 1, sums i terms per value, so
a classical row at n = 1,500 would cost O(n^3) instead of O(n^2).
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Literal

from .poly import Poly2, X, Y
from .qcore import (QParam, _decode, _q_numerator, _rational, gauss_exponent, q_binomial,
                    q_factorial, scalar_memo)
from .series import Series, Eq_series, eq_series

Kind = Literal["q_bernoulli", "q_euler"]


@dataclass(frozen=True)
class FamilySpec:
    kind: Kind
    order_alpha: int
    q: QParam | None  # None selects the classical (q -> 1) family

    def __post_init__(self) -> None:
        if self.kind not in ("q_bernoulli", "q_euler"):
            raise ValueError(f"unknown family kind {self.kind!r}")


@dataclass(frozen=True)
class PolyTable:
    """The polynomials of the family ``spec``, indexed from 0.

    ``x0``, ``y0`` and ``ym1`` are the rows projected to x = 0, y = 0 and
    y = -1, and ``num`` the numbers at x = y = 0; each is computed on
    first use and kept with the table.
    """

    spec: FamilySpec
    entries: tuple[Poly2, ...]

    def __getitem__(self, n: int) -> Poly2:
        return self.entries[n]

    x0 = cached_property(lambda t: tuple(p.substitute("x", 0) for p in t.entries))
    y0 = cached_property(lambda t: tuple(p.substitute("y", 0) for p in t.entries))
    ym1 = cached_property(lambda t: tuple(p.substitute("y", -1) for p in t.entries))
    num = cached_property(lambda t: tuple(p.constant_term() for p in t.entries))


def _kernel_base(q: QParam | None, kind: Kind, order: int) -> Series:
    """(e(t) - 1)/t or (e(t) + 1)/2, truncated: the order -1 kernel."""
    if kind == "q_bernoulli":
        # (e(t) - 1)/t has raw coefficients 1/[n+1]!
        return Series([Fraction(1) / q_factorial(q, n + 1) for n in range(order + 1)])
    return Series([Fraction(1)] + [Fraction(1, 2) / q_factorial(q, n) for n in range(1, order + 1)])


def _order1_kernel(q: QParam | None, kind: Kind, order: int) -> Series:
    """t / (e(t) - 1) or 2 / (e(t) + 1), truncated: the reciprocal of its base."""
    return _kernel_base(q, kind, order).reciprocal()


def _kernel(kind: Kind, q: QParam | None, alpha: int, order: int) -> Series:
    """The order-alpha kernel: the alpha-th power of the memoized order-1 kernel,
    or for alpha < 0 the |alpha|-th power of its base, with no reciprocal."""
    if alpha < 0:
        return _kernel_base(q, kind, order).int_power(-alpha)
    return scalar_memo(_order1_kernel, q, kind, order).int_power(alpha)


def _exp_pair(q: QParam | None, order: int) -> Series:
    """The bivariate factor e(tx) E(ty) that every table shares, truncated."""
    return eq_series(q, X, order) * Eq_series(q, Y, order)


def family_entries(spec: FamilySpec, max_n: int) -> Iterator[Poly2]:
    """Entries 0..max_n of the full bivariate generating series
    kernel^alpha * e(tx) * E(ty), in the [n]!-weighted view, one at a time.

    ``max_n`` is checked and the two factors are built when this is called;
    entry n, [n]! sum_k kern[k] ex[n-k], is built only when it is asked for,
    so a caller that drops each entry before asking for the next never holds
    the table, and the product series is never held at all."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    q = spec.q
    kern = _kernel(spec.kind, q, spec.order_alpha, max_n).coeffs
    ex = scalar_memo(_exp_pair, q, max_n).coeffs
    return (Poly2.linear_combination((1, kern[k], ex[n - k]) for k in range(n + 1))
            * q_factorial(q, n) for n in range(max_n + 1))


def family_table(spec: FamilySpec, max_n: int) -> PolyTable:
    """Entries 0..max_n of ``family_entries(spec, max_n)``, held as a table."""
    return PolyTable(spec, tuple(family_entries(spec, max_n)))


def q_bernoulli_table(q: QParam, alpha: int, max_n: int) -> PolyTable:
    return family_table(FamilySpec("q_bernoulli", alpha, q), max_n)


def q_euler_table(q: QParam, alpha: int, max_n: int) -> PolyTable:
    return family_table(FamilySpec("q_euler", alpha, q), max_n)


def q_number_sequence(spec: FamilySpec, max_n: int) -> list[Fraction]:
    """The number sequence, the table entries at x = y = 0: there e(tx) =
    E(ty) = 1, so entry n is [n]! times the t^n coefficient of the kernel,
    and no bivariate table is built."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    q = spec.q
    kern = _kernel(spec.kind, q, spec.order_alpha, max_n)
    return [c.constant_term() * q_factorial(q, n) for n, c in enumerate(kern.coeffs)]


def q_bernoulli_numbers_recurrence(q: QParam, max_n: int) -> list[Fraction]:
    """Independent oracle for the first-order q-Bernoulli numbers.

    Multiplying the defining generating function through by (e(t) - 1)
    gives the triangular system
        sum_{k=0}^{m-1} [m choose k] b_k = [m = 1],
    which determines b_0 = 1, b_1 = -1/[2], ...
    """
    out: list[Fraction] = []
    for m in range(1, max_n + 2):
        acc = _dot((q_binomial(q, m, k), out[k]) for k in range(m - 1))
        rhs = Fraction(1) if m == 1 else Fraction(0)
        out.append((rhs - acc) / q_binomial(q, m, m - 1))
    return out[: max_n + 1]


def q_euler_numbers_recurrence(q: QParam, max_n: int) -> list[Fraction]:
    """Independent oracle for the first-order q-Euler numbers.

    From (e(t) + 1) times the generating function being 2:
        e_0 = 1,  e_m = -(1/2) sum_{k=0}^{m-1} [m choose k] e_k.
    """
    out = [Fraction(1)]
    for m in range(1, max_n + 1):
        acc = _dot((q_binomial(q, m, k), out[k]) for k in range(m))
        out.append(-acc / 2)
    return out


def _dot(pairs: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """sum a b over the pairs, accumulated in integers: each product's numerator
    over the lcm of the products' denominators, and one Fraction at the end."""
    terms = [(a.numerator * b.numerator, a.denominator * b.denominator) for a, b in pairs]
    den = math.lcm(*(d for _, d in terms))
    return Fraction(sum(n * (den // d) for n, d in terms), den)


# -- Stirling numbers ------------------------------------------------


def q_stirling2(q: QParam | None, m: int, k: int) -> Fraction:
    """q-Stirling number of the second kind: [m]! times the t^m coefficient
    of (e(t) - 1)^k / [k]!, read from row m of its triangle."""
    # a float index would read its int's row from the memo, so it is refused first
    if operator.index(m) < 0 or operator.index(k) < 0:
        raise ValueError("q_stirling2 requires m, k >= 0")
    return scalar_memo(_stirling2_row, q, m)[k] if k <= m else Fraction(0)


def _stirling2_row(q: QParam | None, m: int) -> tuple[Fraction, ...]:
    """Row m of the triangle, S(m, 0..m): the last row of one build, the one converted."""
    return tuple(map(Fraction, *deque(q_stirling2_rows(q, m), maxlen=1)[0]))


def q_stirling2_rows(q: QParam | None, max_n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Rows 0..max_n of the triangle, S(i, 0..i), each built once from the rows before it in
    integers and yielded as (numerators, denominators), so a caller builds one Fraction per
    value it keeps (``map(Fraction, *row)``): at q = None by S(i, k) = k S(i-1, k) +
    S(i-1, k-1), else by S(i, k) = (1/[k]) sum_{j<i} [i j] S(j, k-1), from (e(t) - 1)^k =
    (e(t) - 1)^{k-1} (e(t) - 1), over powers of q's denominator."""
    if q is None:
        row = (1,)
        yield row, (1,)
        for i in range(1, max_n + 1):
            row = (0, *(k * row[k] + row[k - 1] for k in range(1, i)), 1)
            yield row, (1,) * (i + 1)
        return
    # In integers at q = c/d: H[j] = [i j] d^(j(i-j)), the q-Pascal rule times d^(j(i-j)),
    # and U[i][k] = [k]! S(i, k) d^(i(i-1)/2), the recurrence times [k]! d^(i(i-1)/2), divide
    # nothing; S(i, k) = U[i][k] / (N_1...N_k d^(i(i-1)/2 - k(k-1)/2)), an exponent >= 0.
    c, d = _decode(q)
    U, H, P = [(1,)], (1,), [1]
    yield U[0], (1,)
    for i in range(1, max_n + 1):
        H = (1, *(d ** (i - j) * H[j - 1] + c ** j * H[j] for j in range(1, i)), 1)
        w = [H[j] * d ** ((i - j) * (i - j - 1) // 2) for j in range(i)]
        P.append(P[-1] * _q_numerator(c, d, i))
        U.append((0, *(sum(w[j] * U[j][k - 1] for j in range(k - 1, i)) for k in range(1, i + 1))))
        yield U[i], tuple(P[k] * d ** ((i * (i - 1) - k * (k - 1)) // 2) for k in range(i + 1))


# -- Bernstein basis ------------------------------------------------


def q_bernstein(q: QParam | None, n: int, k: int) -> Poly2:
    """Phillips q-Bernstein basis polynomial x^k (1 - x)^{n-k}_q, in x."""
    if not 0 <= k <= n:
        raise ValueError(f"q_bernstein requires 0 <= k <= n, got n={n}, k={k}")
    # the q-binomial theorem: (1 - x)^j_q = sum_i (-1)^i [j i] q^{i(i-1)/2} x^i, with j = n - k
    j = n - k
    return Poly2({(k + i, 0): (-1) ** i * q_binomial(q, j, i) * gauss_exponent(q, i)
                  for i in range(j + 1)})


# -- classical-limit studies -----------------------------------------


def classical_limit_errors(
    kind: Kind,
    alpha: int,
    n: int,
    x: Fraction,
    q_seq: list[QParam],
) -> list[Fraction]:
    """|family_n,q(x, 0) - classical_n(x)| along a sequence of q values."""
    x = _rational(x)
    classical = _last_entry(FamilySpec(kind, alpha, None), n).evaluate(x, 0)
    return [abs(_last_entry(FamilySpec(kind, alpha, q), n).evaluate(x, 0) - classical)
            for q in q_seq]


def _last_entry(spec: FamilySpec, n: int) -> Poly2:
    """Entry n, the last of the stream, with each earlier one dropped as it is built."""
    return deque(family_entries(spec, n), maxlen=1)[0]


def is_monotone_decreasing(errors: list[Fraction]) -> bool:
    """Strictly decreasing except that exact zeros may repeat."""
    for a, b in zip(errors, errors[1:]):
        if not (b < a or a == b == 0):
            return False
    return True

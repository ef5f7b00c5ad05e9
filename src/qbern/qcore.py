"""Exact q-arithmetic primitives over rational numbers.

Everything here is a pure function of a rational deformation parameter q
and small ``int`` indices, with exact ``Fraction`` results.  Any other
index, or a scalar that is not an ``int`` or a ``Fraction``, is a ``TypeError``.

At q = c/d in lowest terms, each kernel decodes q once into (c, d) and builds
its value in integers from N_a = (d^a - c^a)/(d - c), an integer prime to d:
[a] = N_a / d^(a-1), [n]! = N_1...N_n / d^(n(n-1)/2) and [n k] = M / d^(k(n-k)),
M a product of exact ratios N_{n-k+j} / N_j, each built as one ``Fraction``;
q^e is a power of c/d.  ``q = None``, the classical limit q -> 1, decodes to
c = d = 1, where N_a = a, so the same forms give a, n!, C(n, k) and 1: that one
convention turns every q-formula built from these primitives into its classical
counterpart.

The scalars are asked for over and over with few distinct arguments, so
``q_number``, ``q_factorial``, ``q_binomial``, ``gauss_exponent`` and
``q_binomial_row``, the row [n 0..n] a q-binomial convolution reads as one
entry, each check their arguments and then read ``scalar_memo``: one
least-recently-used memo keyed on (kernel, q, arguments), with a fixed
bound so that a caller streaming new q values evicts old entries instead
of growing the process.  ``qspecial`` keeps three more kinds of entry in
the same memo: its Stirling rows, and per (q, order) the two series that
every Bernoulli and Euler table shares, the factor e(tx)E(ty) and the
order-1 kernel of each kind.  A ``verify`` run on the default grid reads
22,834 entries, of 473 distinct: 22,361 hits and 473 misses in its meta
``timing.scalar_memo``.  ``q_pair_power`` sums memoized scalars and keeps
nothing itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

# Entries in the scalar memo.  A default-grid verify run needs far fewer;
# a larger bound only holds more entries of q values that are not coming back.
MEMO_BOUND = 1024


class QParamError(ValueError):
    """Raised for deformation parameters outside the admissible domain."""


@dataclass(frozen=True)
class QParam:
    """A validated rational deformation parameter q, with q not in {0, 1, -1}.

    Values outside (0, 1) are admissible: every identity is a formal
    polynomial identity.
    """

    value: Fraction
    # hashed once: every memo read hashes q, and Fraction hashing computes a
    # modular inverse on each call
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _rational(self.value))
        object.__setattr__(self, "_hash", hash(self.value))
        if self.value == 1:
            raise QParamError("q = 1 is excluded: q-integers divide by 1 - q")
        if self.value == 0:
            raise QParamError("q = 0 is excluded")
        if self.value == -1:
            raise QParamError("q = -1 is excluded: the q-integer [2] = 1 + q vanishes")

    def __hash__(self) -> int:
        return self._hash

    def power(self, k: int) -> Fraction:
        return self.value ** k

    def __str__(self) -> str:
        return str(self.value)


def _rational(v: Fraction | int) -> Fraction:
    """A caller's scalar as a Fraction; anything but an int or a Fraction is refused."""
    if type(v) is Fraction:  # immutable, so returned as is: no copy on the kernel's hot path
        return v
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    raise TypeError(f"expected an int or a Fraction, got {type(v).__name__}")


@lru_cache(maxsize=MEMO_BOUND)
def scalar_memo(kernel, q, *args):
    """kernel(q, *args), computed once while it stays in the memo."""
    return kernel(q, *args)


def q_number(q: QParam | None, a: int) -> Fraction:
    """The q-integer [a] = (1 - q^a) / (1 - q)."""
    if operator.index(a) < 0:
        raise ValueError(f"q_number requires a >= 0, got {a}")
    return scalar_memo(_q_number, q, a)


def _q_number(q: QParam | None, a: int) -> Fraction:
    c, d = _decode(q)
    return Fraction(_q_numerator(c, d, a), d ** (a - 1)) if a else Fraction(0)


def _decode(q: QParam | None) -> tuple[int, int]:
    """(c, d) with q = c/d in lowest terms and d > 0; the classical limit q = None is (1, 1)."""
    return (1, 1) if q is None else (q.value.numerator, q.value.denominator)


def _q_numerator(c: int, d: int, a: int) -> int:
    # N_a = [a] d^(a-1) at q = c/d; exact, as x - y divides x^a - y^a; at c = d, the limit, it is a
    return (d ** a - c ** a) // (d - c) if c != d else a


def q_factorial(q: QParam | None, n: int) -> Fraction:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if operator.index(n) < 0:
        raise ValueError(f"q_factorial requires n >= 0, got {n}")
    return scalar_memo(_q_factorial, q, n)


def _q_factorial(q: QParam | None, n: int) -> Fraction:
    c, d = _decode(q)
    return Fraction(math.prod(_q_numerator(c, d, k) for k in range(1, n + 1)),
                    d ** (n * (n - 1) // 2))


def q_binomial(q: QParam | None, n: int, k: int) -> Fraction:
    """Gaussian binomial coefficient [n k] = prod_{j=1}^{k} [n-k+j] / [j].

    Out-of-range (k < 0 or k > n) is an error on purpose: silent zeros
    hide index bugs in identity checkers.
    """
    if not 0 <= operator.index(k) <= operator.index(n):
        raise ValueError(f"q_binomial requires 0 <= k <= n, got n={n}, k={k}")
    return scalar_memo(_q_binomial, q, n, k)


def q_binomial_row(q: QParam | None, n: int) -> tuple[Fraction, ...]:
    """The row [n 0], ..., [n n] of Gaussian binomials, read from the memo as one entry."""
    if operator.index(n) < 0:
        raise ValueError(f"q_binomial_row requires n >= 0, got {n}")
    return scalar_memo(_q_binomial_row, q, n)


def _q_binomial_row(q: QParam | None, n: int) -> tuple[Fraction, ...]:
    # each [n k] is computed here, not read through the memo, so a row takes one entry
    return tuple(_q_binomial(q, n, k) for k in range(n + 1))


def _q_binomial(q: QParam | None, n: int, k: int) -> Fraction:
    k = min(k, n - k)
    # with q = c/d, the product of the first j ratios N_{n-k+j} / N_j times d^{j(n-k)}
    # is an integer (a homogenized Gaussian binomial, C(n-k+j, j) at c = d = 1), so
    # each step divides exactly and the numbers stay near the size of the result
    c, d = _decode(q)
    num = 1
    for j in range(1, k + 1):
        num = num * _q_numerator(c, d, n - k + j) // _q_numerator(c, d, j)
    return Fraction(num, d ** (k * (n - k)))


def q_shifted_factorial(q: QParam, a: Fraction, n: int) -> Fraction:
    """(a; q)_n = prod_{j=0}^{n-1} (1 - q^j a), empty product for n = 0."""
    if n < 0:
        raise ValueError(f"q_shifted_factorial requires n >= 0, got {n}")
    a = _rational(a)
    out = Fraction(1)
    for j in range(n):
        out *= 1 - q.power(j) * a
    return out


def gauss_exponent(q: QParam | None, k: int) -> Fraction:
    """The triangular weight q^{k(k-1)/2}."""
    if operator.index(k) < 0:
        raise ValueError(f"gauss_exponent requires k >= 0, got {k}")
    return scalar_memo(_gauss_exponent, q, k)


def _gauss_exponent(q: QParam | None, k: int) -> Fraction:
    c, d = _decode(q)
    return Fraction(c, d) ** (k * (k - 1) // 2)  # a power of a reduced Fraction needs no gcd


def q_pair_power(q: QParam | None, a: Fraction, b: Fraction, n: int) -> Fraction:
    """Scalar q-analogue of (a + b)^n.

    Sum over k of [n choose k] q^{k(k-1)/2} a^{n-k} b^k.  Not memoized: a
    caller that reads a value again keeps it (``identities.Point.P``).
    """
    if operator.index(n) < 0:
        raise ValueError(f"q_pair_power requires n >= 0, got {n}")
    a, b = _rational(a), _rational(b)
    out = Fraction(0)
    for k in range(n + 1):
        out += q_binomial(q, n, k) * gauss_exponent(q, k) * a ** (n - k) * b ** k
    return out

"""Sparse bivariate polynomials in x and y over exact rationals.

A polynomial is stored as integer numerators over one positive common
denominator (the layout of FLINT's ``fmpq_poly``), kept canonical: no
zero numerator, no factor common to the denominator and every
numerator, and zero is no terms over 1.  Equality compares the stored
integers.  The canonical term order (lexicographic in (deg_x, deg_y))
is fixed so serialized output is deterministic; ``terms()`` and
``_terms`` build one reduced ``Fraction`` per term when they are read,
and nothing keeps them, while ``term_ratios(base)`` gives each term's
reduced numerator and denominator as ints, with no ``Fraction``, by its
valuation at one prime of ``base`` and one gcd with the rest of the
denominator: a deep q-table's denominator is mostly a power of q's.

Sums, differences, products and linear combinations are one integer
accumulation, ``_combine``, over the callers' (scalar, polynomial or
scalar, polynomial or scalar) triples: they are brought to the lcm of
their denominators (none for one triple), each term pair adds one integer
product to its key, and one content gcd reduces the result.  The
constructor sums its coefficients per key as ``Fraction``s (a key may
repeat), drops the zeros and brings the rest to the lcm of their
denominators, which is canonical with no gcd.
A scalar product cancels the scalar against the denominator and the
numerators' content before it multiplies, so it needs no gcd over the
result, and a difference of equal polynomials is zero with no
accumulation.  Substitution is one pass over the terms, with the value's
powers taken once over one denominator; evaluation is two substitutions.
Rescaling, the Jackson derivative and ``samples`` (the partial
evaluations at v = r h as the coefficients of v^r) are one termwise map,
``_termwise``, whose weights depend only on a term's degree in one
variable, and ``swap`` exchanges x and y by permuting the keys.  A scalar
is an ``int`` or a ``Fraction``; any other type goes through
``qcore._rational``, which takes a ``bool`` and makes anything else a
``TypeError``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Iterator, Mapping, TypeVar, Union

from .qcore import QParam, _rational, q_binomial, q_number, gauss_exponent

Key = tuple[int, int]
Scalar = Union[Fraction, int]
_EXACT = {int, Fraction}  # the scalar types read as they are, with no _rational
T = TypeVar("T")

VARS = ("x", "y")


def _var_index(var: str) -> int:
    if var not in VARS:
        raise ValueError(f"variable must be 'x' or 'y', got {var!r}")
    return VARS.index(var)


class Poly2:
    """Immutable sparse polynomial in x, y with rational coefficients: integer
    numerators ``_num`` over one positive denominator ``_den``."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Key, Scalar] | Iterable[tuple[Key, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Key, Scalar] = {}
        for (dx, dy), c in items:
            k, c = _key(dx, dy), c if type(c) in _EXACT else _rational(c)
            acc[k] = acc[k] + c if k in acc else c
        # each sum is in lowest terms, so over the lcm of their denominators no
        # prime divides the denominator and every numerator: canonical
        acc = {k: c for k, c in acc.items() if c}
        den = lcm(*(c.denominator for c in acc.values()))
        self._num = {k: c.numerator * (den // c.denominator) for k, c in acc.items()}
        self._den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        """The zero polynomial: one shared instance, as a ``Poly2`` is immutable."""
        return _ZERO

    @classmethod
    def const(cls, c: Scalar) -> "Poly2":
        return cls.monomial(0, 0, c)

    @classmethod
    def one(cls) -> "Poly2":
        return cls.const(1)

    @classmethod
    def monomial(cls, dx: int, dy: int, c: Scalar = 1) -> "Poly2":
        key = _key(dx, dy)
        n, d = _rational(c).as_integer_ratio()
        return _raw({key: n} if n else {}, d)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def _terms(self) -> dict[Key, Fraction]:
        """The coefficients as reduced ``Fraction``s, built on each read."""
        den = self._den
        return {k: Fraction(n, den) for k, n in self._num.items()}

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get((0, 0), 0), self._den)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(dx + dy for dx, dy in self._num)

    def terms(self) -> list[tuple[Key, Fraction]]:
        """Terms in canonical (deg_x, deg_y) lexicographic order."""
        return sorted(self._terms.items())

    def term_ratios(self, base: int = 1) -> list[tuple[Key, int, int]]:
        """``terms()`` as (key, numerator, denominator) ints in lowest terms,
        the denominator positive, with no ``Fraction``.

        The denominator is split once as p^e * c with p a prime of ``base``
        (q's denominator for a q-table) and gcd(p, c) = 1 (``_split``), so a
        term's gcd with it is p^v * gcd(n / p^v, c) with v = min(v_p(n), e).
        The search for v starts from the last term's v plus its last change,
        which along a row is steady, and gallops from there.  The base and
        the guess affect only the time; with nothing split (p^e = 1) the
        loop does one gcd with the whole denominator per term."""
        items = sorted(self._num.items())
        p, e, c = _split(self._den, len(items), base)
        # a memo takes ~7 us to build, ~30 ms over the 5,157 residuals of a default-grid
        # verify, which split nothing; with nothing split the loop reads only p^0 = 1
        pw = cache(p.__pow__) if e else p.__pow__
        out = []
        v = dv = 0
        for k, m in items:
            w = v + dv
            if w > e:
                w = e
            if w > 0:
                m, r = divmod(m, pw(w))
                if r:
                    # the numerator is m * p^w + r with 0 < r < p^w, so its
                    # valuation at p is v_p(r) < w
                    s, r = _strip(r, pw, w)
                    m, w = m * pw(w - s) + r, s
            else:
                w = 0
            if w < e and not m % p:
                s, m = _strip(m, pw, e - w)
                w += s
            dv, v = w - v, w
            h = gcd(m, c)
            out.append((k, m // h, c // h * pw(e - w)))
        return out

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "Poly2 | Scalar") -> "Poly2":
        return _combine([(1, self, 1), (1, other, 1)])

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return self * -1

    def __sub__(self, other: "Poly2 | Scalar") -> "Poly2":
        other = _coerce(other)
        # most identity residuals have equal sides: one comparison, no accumulation
        if self == other:
            return Poly2.zero()
        return _combine([(1, self, 1), (-1, other, 1)])

    def __rsub__(self, other: Scalar) -> "Poly2":
        return _coerce(other) - self

    def __mul__(self, other: "Poly2 | Scalar") -> "Poly2":
        if isinstance(other, (int, Fraction)):
            cn, cd = other.as_integer_ratio()
            if not cn:
                return Poly2.zero()
            # cross-cancel before multiplying (as FLINT's fmpq_poly_scalar_mul_fmpq
            # does), so the result is reduced with no gcd over its terms: multiplying
            # first and then dividing out the content made n = 40 tables ~35% slower
            g1, g2 = gcd(cn, self._den), gcd(cd, *self._num.values())
            cn, num = cn // g1, self._num.items()
            if g2 != 1:
                num = [(k, n // g2) for k, n in num]
            return _raw({k: n * cn for k, n in num}, self._den // g1 * (cd // g2))
        return _combine([(1, self, other)])

    __rmul__ = __mul__

    @staticmethod
    def linear_combination(
        terms: Iterable[tuple[Scalar, "Poly2 | Scalar", "Poly2 | Scalar"]]
    ) -> "Poly2":
        """The sum of c * p * r over (c, p, r) triples, accumulated in one
        term dict; p and r may each be a polynomial or a scalar."""
        return _combine(terms)

    def __pow__(self, n: int) -> "Poly2":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        return _power(self, n) if n else Poly2.one()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes like it
        if self._num.keys() <= {(0, 0)}:
            return hash(self.constant_term())
        return hash((self._den, frozenset(self._num.items())))

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
        """Partial evaluation: fix one variable to v = vn / vd.  With D the top
        degree in ``var``, v^d is vn^d vd^(D - d) over vd^D, so each term adds
        one integer product into its key, over ``_den * vd^D``; a zero weight
        adds nothing, so at 0 only the degree-0 terms add."""
        vn, vd = _rational(value).as_integer_ratio()
        i = _var_index(var)
        top = max((k[i] for k in self._num), default=0)
        pw = [vn ** d * vd ** (top - d) for d in range(top + 1)]
        acc: dict[Key, int] = {}
        get = acc.get
        for k, n in self._num.items():
            w = pw[k[i]]
            if w:
                t = (0, k[1]) if i == 0 else (k[0], 0)
                a = get(t)
                acc[t] = n * w if a is None else a + n * w
        return _raw(*_reduced(acc, self._den * pw[0]))

    def samples(self, var: str, h: Scalar, count: int) -> "Poly2":
        """sum_{r < count} p(v = r h) v^r: the partial evaluations at v = 0, h,
        ..., (count - 1) h as the coefficients of v^0, ..., v^(count - 1), in
        one termwise map (v^d -> sum_r (r h)^d v^r) with no substitution."""
        hn, hd = _rational(h).as_integer_ratio()
        return self._termwise(var, lambda d: [(r, (r * hn) ** d, hd ** d) for r in range(count)])

    def scale_var(self, var: str, c: Scalar) -> "Poly2":
        """Rescale one variable: v -> c * v."""
        cn, cd = _rational(c).as_integer_ratio()
        return self._termwise(var, lambda d: ((d, cn ** d, cd ** d),))

    def swap(self) -> "Poly2":
        """x and y exchanged: the keys are permuted and the numerators and
        denominator kept, so the result is canonical with no arithmetic."""
        return _raw({(dy, dx): n for (dx, dy), n in self._num.items()}, self._den)

    def jackson(self, var: str, q: QParam) -> "Poly2":
        """Jackson q-derivative in one variable, by the monomial rule.

        Sends v^n to [n] v^{n-1}, and constants to 0 since [0] = 0; agrees
        with the difference quotient (f(qv) - f(v)) / (qv - v) on polynomials.
        """
        return self._termwise(var, lambda d: ((d - 1, *q_number(q, d).as_integer_ratio()),))

    def _termwise(self, var: str, step: Callable[[int], Iterable[tuple[int, int, int]]]) -> "Poly2":
        """Each term c * v^d becomes the sum of w * c * v^e over the (e, w's
        numerator, w's denominator) of step(d), called once per degree d; a
        zero w adds nothing.  The weights are brought to the lcm of their
        denominators once per degree, and the loop adds into its own dict,
        as ``_combine``'s does."""
        i = _var_index(var)
        steps = {d: step(d) for d in {k[i] for k in self._num}}
        den = lcm(*(wd for s in steps.values() for _, wn, wd in s if wn))
        steps = {d: [(e, wn * (den // wd)) for e, wn, wd in s if wn] for d, s in steps.items()}
        acc: dict[Key, int] = {}
        get = acc.get
        for k, n in self._num.items():
            for e, w in steps[k[i]]:
                # the key is built inline: a helper call per term made substitution ~4% slower
                t = (e, k[1]) if i == 0 else (k[0], e)
                a = get(t)
                acc[t] = n * w if a is None else a + n * w
        return _raw(*_reduced(acc, self._den * den))


def _strip(x: int, pw: Callable[[int], int], cap: int) -> tuple[int, int]:
    """(w, x / p^w) for w = min(v_p(x), cap), x nonzero and pw(i) = p^i:
    divide out p^1, p^2, p^4, ... while they divide, then halve the step
    back to 1, so that w costs O(log w) divisions and w = 0 costs one."""
    w, step = 0, 1
    while step <= cap - w:
        y, r = divmod(x, pw(step))
        if r:
            break
        x, w, step = y, w + step, 2 * step
    while step > 1:
        step //= 2
        if step <= cap - w:
            y, r = divmod(x, pw(step))
            if not r:
                x, w = y, w + step
    return w, x


def _primes(b: int) -> Iterator[int]:
    """The primes of b >= 0 by trial division by d < 1024: a leftover below 1024^2
    is prime, and a larger one may be composite, so ``_split`` cannot use it."""
    for d in range(2, min(isqrt(b), 1023) + 1):
        if not b % d:
            yield d
            while not b % d:
                b //= d
    if 1 < b < 1024 ** 2:
        yield b


def _split(den: int, n_terms: int, base: int) -> tuple[int, int, int]:
    """(p, e, c) with den = p^e * c, p not dividing c, and p^e the largest
    power in den of a prime of ``base`` (the largest power leaves the
    smallest cofactor); p = 1, e = 0 and c = den when nothing is split."""
    best = (1, 0, den)
    bits = den.bit_length()
    # under 512 bits the split made q-Bernoulli entries 1.2-6x slower (n <= 14
    # at q = 7/11, n <= 22 at q = -7/3), and 2-6 terms of a 1,500-3,100-bit
    # entry 40 1.3-4x slower in each family
    if n_terms < 8 or bits < 512:
        return best
    for p in _primes(abs(base)):
        e, c = _strip(den, cache(p.__pow__), bits)
        if c < best[2]:
            best = (p, e, c)
    return best


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


def _raw(num: dict[Key, int], den: int) -> Poly2:
    p = Poly2.__new__(Poly2)
    p._num, p._den = num, den
    return p


def _reduced(acc: dict[Key, int], den: int) -> tuple[dict[Key, int], int]:
    """Summed numerators over ``den`` in canonical form: zeros dropped and
    the content gcd divided out, so zero is ``{}`` over 1."""
    # most results have no zero term; copying the dict anyway made a verify run ~6% slower
    num = {k: n for k, n in acc.items() if n} if 0 in acc.values() else acc
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {k: n // g for k, n in num.items()}, den // g


def _combine(triples: Iterable[tuple[Scalar, "Poly2 | Scalar", "Poly2 | Scalar"]]) -> Poly2:
    """The sum of c * p * r over the callers' (c, p, r) triples, p and r
    each a polynomial or a scalar.  A scalar of exact type ``int`` or
    ``Fraction`` is read by ``as_integer_ratio()``, any other through
    ``_rational``.  Every triple is brought to the lcm of the triples'
    denominators (with one triple there is no lcm), and each of its term
    pairs adds one integer product to one term dict.  The loops add into
    the dict themselves: feeding the pairs to a collecting function
    through a generator made a default-grid verify run ~9% slower."""
    parts = []
    for c, p, r in triples:
        cn, cd = (c if type(c) in _EXACT else _rational(c)).as_integer_ratio()
        if not isinstance(p, Poly2):
            p, r = r, p
        if not isinstance(r, Poly2):
            rn, rd = (r if type(r) in _EXACT else _rational(r)).as_integer_ratio()
            cn, cd, r = cn * rn, cd * rd, None
            if not isinstance(p, Poly2):
                p = Poly2.const(p)
        if cn:
            parts.append((cn, cd * p._den * (r._den if r else 1), p, r))
    den = parts[0][1] if len(parts) == 1 else lcm(*(d for _, d, _, _ in parts))
    acc: dict[Key, int] = {}
    get = acc.get
    for cn, d, p, r in parts:
        s = cn * (den // d)
        if r is None:
            for k, n in p._num.items():
                e = get(k)
                acc[k] = s * n if e is None else e + s * n
            continue
        rs = r._num.items()
        for (ax, ay), an in p._num.items():
            a = s * an
            for (bx, by), bn in rs:
                k = (ax + bx, ay + by)
                e = get(k)
                acc[k] = a * bn if e is None else e + a * bn
    return _raw(*_reduced(acc, den))


def _key(dx: int, dy: int) -> Key:
    """An exponent pair as a key of two ints: a non-integer exponent is a
    ``TypeError`` and a negative one a ``ValueError``."""
    key = (operator.index(dx), operator.index(dy))
    if key[0] < 0 or key[1] < 0:
        raise ValueError(f"negative exponent ({dx}, {dy})")
    return key


_ZERO = _raw({}, 1)
X = Poly2.monomial(1, 0)
Y = Poly2.monomial(0, 1)


def symbolic_pair_power(q: QParam | None, n: int) -> Poly2:
    """The q-analogue of (x + y)^n as a polynomial.

    Sum over k of [n choose k] q^{k(k-1)/2} x^{n-k} y^k.
    """
    if n < 0:
        raise ValueError(f"symbolic_pair_power requires n >= 0, got {n}")
    return Poly2({(n - k, k): q_binomial(q, n, k) * gauss_exponent(q, k) for k in range(n + 1)})

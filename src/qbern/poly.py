"""Sparse bivariate polynomials in x and y over exact rationals.

A polynomial is stored as integer numerators over one positive common
denominator (the layout of FLINT's ``fmpq_poly``), kept canonical: no
zero numerator, no factor common to the denominator and every
numerator, and zero is no terms over 1.  Equality compares the stored
integers.  The canonical term order (lexicographic in (deg_x, deg_y))
is fixed so serialized output is deterministic; ``terms()`` and
``_terms`` build one reduced ``Fraction`` per term when they are read,
and nothing keeps them, while ``term_ratios()`` gives each term's
reduced numerator and denominator as ints, with no ``Fraction``.  It
splits a wide denominator once into its largest small-prime power p^e and
a cofactor c, and reduces a term by its valuation at p and one gcd with c,
not by a gcd with the whole denominator: a deep q-table's denominator is
mostly a power of q's denominator.

Sums, differences, products and linear combinations are one integer
accumulation, ``_combine``: its (scalar, polynomial, polynomial) triples
are brought to the lcm of their denominators once, each term pair adds
one integer product to its key, and one content gcd reduces the result.
A scalar product cancels the scalar against the denominator and the
numerators' content before it multiplies, so it needs no gcd over the
result.  Substitution, rescaling and the Jackson derivative are one
termwise map, ``_termwise``, whose weight depends only on a term's
degree in one variable; evaluation is two substitutions, and ``swap``
exchanges x and y by permuting the keys.  A scalar is an ``int`` or a
``Fraction`` (``qcore._rational``); anything else is a ``TypeError``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod
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
    """Immutable sparse polynomial in x, y with rational coefficients: integer
    numerators ``_num`` over one positive denominator ``_den``."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[Key, Scalar] | Iterable[tuple[Key, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        parts = list(_checked(items))
        den = lcm(*(d for _, _, d in parts))
        self._num, self._den = _collect(((k, n * (den // d)) for k, n, d in parts), den)

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

    def term_ratios(self) -> list[tuple[Key, int, int]]:
        """``terms()`` as (key, numerator, denominator) ints in lowest terms,
        the denominator positive, with no ``Fraction``.

        The denominator is split once as p^e * c with gcd(p, c) = 1
        (``_split``), so a term's gcd with it is p^v * gcd(n / p^v, c) with
        v = min(v_p(n), e): a valuation at one prime and a gcd with the
        cofactor c.  The search for v starts from the last term's v plus its
        last change, which along a row is steady, and gallops from there;
        the guess affects only the time.  With nothing split (p^e = 1) the
        loop does one gcd with the whole denominator per term."""
        items = sorted(self._num.items())
        pw, e, c = _split(self._den, len(items))
        p = pw.p
        out = []
        v = dv = 0
        for k, m in items:
            w = v + dv
            if w > e:
                w = e
            if w > 0:
                m, r = divmod(m, pw[w])
                if r:
                    # the numerator is m * p^w + r with 0 < r < p^w, so its
                    # valuation at p is v_p(r) < w
                    s, r = _strip(r, pw, w)
                    m, w = m * pw[w - s] + r, s
            else:
                w = 0
            if w < e and not m % p:
                s, m = _strip(m, pw, e - w)
                w += s
            dv, v = w - v, w
            h = gcd(m, c)
            out.append((k, m // h, c // h * pw[e - w]))
        return out

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "Poly2 | Scalar") -> "Poly2":
        return _combine([(1, 1, self, None), (1, 1, _coerce(other), None)])

    __radd__ = __add__

    def __neg__(self) -> "Poly2":
        return self * -1

    def __sub__(self, other: "Poly2 | Scalar") -> "Poly2":
        return _combine([(1, 1, self, None), (-1, 1, _coerce(other), None)])

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
        return _combine([(1, 1, self, _coerce(other))])

    __rmul__ = __mul__

    @staticmethod
    def linear_combination(
        terms: Iterable[tuple[Scalar, "Poly2 | Scalar", "Poly2 | Scalar"]]
    ) -> "Poly2":
        """The sum of c * p * r over (c, p, r) triples, accumulated in one
        term dict; p and r may each be a polynomial or a scalar."""
        return _combine(_triples(terms))

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
        """Partial evaluation: fix one variable to a constant."""
        vn, vd = _rational(value).as_integer_ratio()
        return self._termwise(var, lambda d: (0, vn ** d, vd ** d))

    def scale_var(self, var: str, c: Scalar) -> "Poly2":
        """Rescale one variable: v -> c * v."""
        cn, cd = _rational(c).as_integer_ratio()
        return self._termwise(var, lambda d: (d, cn ** d, cd ** d))

    def swap(self) -> "Poly2":
        """x and y exchanged: the keys are permuted and the numerators and
        denominator kept, so the result is canonical with no arithmetic."""
        return _raw({(dy, dx): n for (dx, dy), n in self._num.items()}, self._den)

    def jackson(self, var: str, q: QParam) -> "Poly2":
        """Jackson q-derivative in one variable, by the monomial rule.

        Sends v^n to [n] v^{n-1}, and constants to 0 since [0] = 0; agrees
        with the difference quotient (f(qv) - f(v)) / (qv - v) on polynomials.
        """
        return self._termwise(var, lambda d: (d - 1, *q_number(q, d).as_integer_ratio()))

    def _termwise(self, var: str, step: Callable[[int], tuple[int, int, int]]) -> "Poly2":
        """Each term c * v^d becomes w * c * v^e, where (e, w's numerator, w's
        denominator) = step(d), called once per degree d; a zero w drops the term.
        The weights are brought to the lcm of their denominators once per degree."""
        i = _var_index(var)
        steps = {d: step(d) for d in {k[i] for k in self._num}}
        den = lcm(*(wd for _, wn, wd in steps.values() if wn))
        steps = {d: (e, wn * (den // wd)) for d, (e, wn, wd) in steps.items() if wn}
        # the key is built inline: a helper call per term made substitution ~4% slower
        return _raw(*_collect((
            ((e, k[1]) if i == 0 else (k[0], e), n * w)
            for k, n in self._num.items() if k[i] in steps for e, w in (steps[k[i]],)
        ), self._den * den))


class _Powers(dict):
    """p^i by exponent i, each computed on its first read."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, i: int) -> int:
        self[i] = out = self.p ** i
        return out


def _strip(x: int, pw: _Powers, cap: int) -> tuple[int, int]:
    """(w, x / p^w) for w = min(v_p(x), cap), x nonzero: divide out p^1,
    p^2, p^4, ... while they divide, then halve the step back to 1, so
    that w costs O(log w) divisions and w = 0 costs one."""
    w, step = 0, 1
    while step <= cap - w:
        y, r = divmod(x, pw[step])
        if r:
            break
        x, w, step = y, w + step, 2 * step
    while step > 1:
        step //= 2
        if step <= cap - w:
            y, r = divmod(x, pw[step])
            if not r:
                x, w = y, w + step
    return w, x


@cache
def _small_primes() -> tuple[tuple[int, ...], int]:
    """The primes below 1000 and their product, sieved on first use (about
    0.1 ms), so that importing the module does no work for them."""
    sieve = bytearray([0, 0]) + bytearray([1]) * 998
    for i in range(2, 32):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, 1000, i)))
    primes = tuple(i for i, s in enumerate(sieve) if s)
    return primes, prod(primes)


def _split(den: int, n_terms: int) -> tuple[_Powers, int, int]:
    """(powers of p, e, c) with den = p^e * c, p not dividing c, and p^e the
    largest power of a prime below 1000 in den (the largest power leaves the
    smallest cofactor); p = 1, e = 0 and c = den when nothing is split."""
    best = (_Powers(1), 0, den)
    bits = den.bit_length()
    # finding p takes 0.1-0.3 ms: under 512 bits the split made q-Bernoulli
    # entries 1.2-6x slower (n <= 14 at q = 7/11, n <= 22 at q = -7/3), and
    # 2-6 terms of a 1,500-3,100-bit entry 40 1.3-4x slower in each family
    if n_terms < 8 or bits < 512:
        return best
    primes, primorial = _small_primes()
    # one division by the primorial leaves a 1,380-bit residue for the 168
    # tests: trial division of a 9,000-bit den itself took 0.43 ms, not 0.09
    r = den % primorial
    for p in primes:
        if not r % p:
            pw = _Powers(p)
            e, c = _strip(den, pw, bits)
            # a split under 1/8 of den's bits saved no time (0.98-1.02x at 5%
            # and 10%, 0.90x at 20%, on 7/1009 entries times powers of 11)
            if c < best[2] and 8 * c.bit_length() <= 7 * bits:
                best = (pw, e, c)
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


def _collect(contributions: Iterable[tuple[Key, int]], den: int) -> tuple[dict[Key, int], int]:
    """The canonical numerators and denominator of a sum of (key, numerator)
    contributions over the one positive denominator ``den``: the
    constructor's terms and the termwise map's moved terms."""
    acc: dict[Key, int] = {}
    get = acc.get
    for k, n in contributions:
        e = get(k)
        acc[k] = n if e is None else e + n
    return _reduced(acc, den)


def _reduced(acc: dict[Key, int], den: int) -> tuple[dict[Key, int], int]:
    """Summed numerators over ``den`` in canonical form: zeros dropped and
    the content gcd divided out, so zero is ``{}`` over 1."""
    # most results have no zero term; copying the dict anyway made a verify run ~6% slower
    num = {k: n for k, n in acc.items() if n} if 0 in acc.values() else acc
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {k: n // g for k, n in num.items()}, den // g


def _combine(triples: Iterable[tuple[int, int, Poly2, Poly2 | None]]) -> Poly2:
    """The sum of cn/cd * p * r over (cn, cd, p, r), with r = None for 1.

    Every triple is brought to the lcm of the triples' denominators
    cd * p._den * r._den, once, and each of its term pairs adds one integer
    product to one term dict.  The loops add into the dict themselves:
    feeding the pairs to ``_collect`` through a generator made a
    default-grid verify run ~9% slower.
    """
    parts = [(cn, cd * p._den * (r._den if r else 1), p, r) for cn, cd, p, r in triples]
    den = lcm(*(d for _, d, _, _ in parts))
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


def _triples(
    terms: Iterable[tuple[Scalar, "Poly2 | Scalar", "Poly2 | Scalar"]]
) -> Iterator[tuple[int, int, Poly2, Poly2 | None]]:
    """Caller (c, p, r) triples as (cn, cd, p, r) with p a polynomial and r a
    polynomial or None; every scalar enters through ``_rational``."""
    for c, p, r in terms:
        cn, cd = _rational(c).as_integer_ratio()
        if not isinstance(p, Poly2):
            p, r = r, p
        if not isinstance(r, Poly2):
            rn, rd = _rational(r).as_integer_ratio()
            cn, cd, r = cn * rn, cd * rd, None
        p = _coerce(p)
        if cn:
            yield cn, cd, p, r


def _key(dx: int, dy: int) -> Key:
    """An exponent pair as a key of two ints: a non-integer exponent is a
    ``TypeError`` and a negative one a ``ValueError``."""
    key = (operator.index(dx), operator.index(dy))
    if key[0] < 0 or key[1] < 0:
        raise ValueError(f"negative exponent ({dx}, {dy})")
    return key


def _checked(items: Iterable[tuple[Key, Scalar]]) -> Iterator[tuple[Key, int, int]]:
    """Constructor input as (key, numerator, denominator), the key through ``_key``."""
    for (dx, dy), c in items:
        yield _key(dx, dy), *_rational(c).as_integer_ratio()


X = Poly2.monomial(1, 0)
Y = Poly2.monomial(0, 1)


def symbolic_pair_power(q: QParam | None, n: int) -> Poly2:
    """The q-analogue of (x + y)^n as a polynomial.

    Sum over k of [n choose k] q^{k(k-1)/2} x^{n-k} y^k.
    """
    if n < 0:
        raise ValueError(f"symbolic_pair_power requires n >= 0, got {n}")
    return Poly2({(n - k, k): q_binomial(q, n, k) * gauss_exponent(q, k) for k in range(n + 1)})

import functools
import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from qbern import poly
from qbern.poly import Poly2, X, Y, symbolic_pair_power
from qbern.qcore import QParam, gauss_exponent, q_number, q_pair_power
from qbern.qspecial import FamilySpec, classical_limit_errors, family_table

Q2 = QParam(F(1, 2))


def difference_quotient(p, var, q):
    """(f(qv) - f(v)) / ((q - 1) v), the defining form of the q-derivative."""
    diff = p.scale_var(var, q.value) - p
    out = []
    for (dx, dy), c in diff.terms():
        d = dx if var == "x" else dy
        assert d >= 1  # constants cancel in the difference
        nk = (dx - 1, dy) if var == "x" else (dx, dy - 1)
        out.append((nk, c / (q.value - 1)))
    return Poly2(out)


class TestArithmetic:
    def test_add_cancels(self):
        assert (X + (-X)).is_zero

    def test_mul_identity(self):
        assert (X + Y) * Poly2.one() == X + Y

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_scalar_ops(self):
        assert 2 * X == X + X
        assert F(1, 2) * (X + Y) - F(1, 2) * X == F(1, 2) * Y

    def test_no_zero_terms_stored(self):
        p = (X + Y) - X - Y
        assert p._terms == {}

    def test_power_matches_repeated_products(self):
        p, power = X - F(2, 3) * Y + 1, Poly2.one()
        for n in range(10):
            assert p**n == power
            power = power * p

    @pytest.mark.parametrize("n, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_power_product_count(self, monkeypatch, n, products):
        calls = []
        mul = Poly2.__mul__
        monkeypatch.setattr(Poly2, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        (X + Y) ** n
        assert len(calls) == products


class TestEvaluation:
    def test_point(self):
        assert (X**2 + Y).evaluate(2, 3) == 7

    def test_origin_gives_constant_term(self):
        p = X**2 * Y + 3 * X + Poly2.const(F(5, 7))
        assert p.evaluate(0, 0) == F(5, 7)

    def test_zero_poly(self):
        assert Poly2.zero().evaluate(11, -4) == 0
        assert (Poly2.zero()._num, Poly2.zero()._den) == ({}, 1)


class TestSubstitution:
    def test_const(self):
        assert (X * Y).substitute("y", -1) == -X

    def test_scale_x(self):
        assert (X**2).scale_var("x", 2) == 4 * X**2
        # c = 0 keeps the terms of x-degree 0
        assert (X**2 * Y + 3 * X + Y - 2).scale_var("x", 0) == Y - 2

    def test_scale_y(self):
        assert (Y**2).scale_var("y", F(1, 2)) == F(1, 4) * Y**2
        assert (X * Y**2 + 3 * Y + X - 2).scale_var("y", 0) == X - 2

    def test_swap_keeps_the_denominator(self):
        p = F(1, 6) * X**2 * Y - F(2, 3) * Y + F(1, 2)
        s = p.swap()
        assert s == F(1, 6) * X * Y**2 - F(2, 3) * X + F(1, 2)
        # the keys are permuted; the numerators and the denominator are kept
        assert s._den == p._den == 6
        assert sorted(s._num.values()) == sorted(p._num.values())


@pytest.mark.parametrize("expr", [
    "X + 0.1", "0.1 + X", "X - 0.5", "0.5 - X", "X * 0.5", "0.5 * X",
    "Poly2.const(0.5)", "Poly2({(1, 0): '1/2'})",
    "X.substitute('x', 0.5)", "X.scale_var('x', 0.5)", "X.evaluate(0.5, 1)",
    "QParam(0.1)", "q_pair_power(Q2, 0.5, 1, 2)",
    "q_number(Q2, F(1, 2))", "gauss_exponent(Q2, 2.5)",
    "Poly2.linear_combination([(0.5, X, Y)])", "Poly2.linear_combination([(1, 0.5, Y)])",
    "Poly2.linear_combination([(1, X, 0.5)])",
    # a bad scalar beside a good one, in each slot, and types no int converts to
    "Poly2.linear_combination([(1, 0.5, 2)])", "Poly2.linear_combination([(1, 2, 0.5)])",
    "Poly2.linear_combination([(None, X, 1)])", "Poly2.linear_combination([(Decimal(1), X, 1)])",
    "Poly2.monomial(1.5, 0)", "Poly2({(1.5, 0): 1})", "Poly2.monomial(2.0, 0)",
    "Poly2({(0, 2.0): 1})",
    "classical_limit_errors('q_bernoulli', 1, 2, 0.1, [Q2])",
    "classical_limit_errors('q_bernoulli', 1, 2, '1/3', [Q2])",
])
def test_scalars_are_ints_or_fractions_and_indices_ints(expr):
    # a float would enter at its binary value and a string would be parsed
    with pytest.raises(TypeError):
        eval(expr)
    assert (X == 0.5) is False  # comparing is not converting


class TestJackson:
    def test_cube(self):
        assert (X**3).jackson("x", Q2) == F(7, 4) * X**2

    def test_constant(self):
        assert Poly2.const(5).jackson("x", Q2).is_zero
        assert Poly2.const(5).jackson("y", Q2).is_zero

    def test_mixed_term(self):
        assert (X * Y**2).jackson("y", Q2) == F(3, 2) * X * Y

    def test_linear(self):
        p = 2 * X + 3 * Y + Poly2.one()
        assert p.jackson("x", Q2) == Poly2.const(2)

    @pytest.mark.parametrize("var", ["x", "y"])
    def test_monomial_leibniz(self, var):
        v = X if var == "x" else Y
        for m in range(6):
            for n in range(6 - m):
                if m + n == 0:
                    continue
                lhs = (v**m * v**n).jackson(var, Q2)
                assert lhs == q_number(Q2, m + n) * v ** (m + n - 1)


class TestSymbolicPairPower:
    def test_degree_zero(self):
        assert symbolic_pair_power(Q2, 0) == Poly2.one()

    def test_degree_one(self):
        assert symbolic_pair_power(Q2, 1) == X + Y

    def test_degree_two(self):
        expected = X**2 + F(3, 2) * X * Y + F(1, 2) * Y**2
        assert symbolic_pair_power(Q2, 2) == expected

    def test_scalar_oracle(self):
        points = [(F(0), F(1)), (F(1, 2), F(-1)), (F(2, 3), F(3, 5)), (F(-1), F(4))]
        for q in (Q2, QParam(F(1, 3)), QParam(F(3, 4))):
            for n in range(11):
                p = symbolic_pair_power(q, n)
                for x0, y0 in points:
                    assert p.evaluate(x0, y0) == q_pair_power(q, x0, y0, n)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def polys(draw, max_degree=6):
    n_terms = draw(st.integers(0, 5))
    terms = []
    for _ in range(n_terms):
        dx = draw(st.integers(0, max_degree))
        dy = draw(st.integers(0, max_degree - dx))
        terms.append(((dx, dy), draw(small_fractions)))
    return Poly2(terms)


@given(a=polys(), b=polys(), c=polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(p=polys())
def test_swap_is_an_involution(p):
    assert p.swap().swap() == p
    assert p.swap()._den == p._den


@given(p=polys(), v=small_fractions, w=small_fractions)
def test_swap_matches_evaluation(p, v, w):
    assert p.swap().evaluate(v, w) == p.evaluate(w, v)


@given(p=polys(), var=st.sampled_from(["x", "y"]))
def test_jackson_matches_difference_quotient(p, var):
    for q in (Q2, QParam(F(2, 3))):
        assert p.jackson(var, q) == difference_quotient(p, var, q)


@given(a=polys(), b=polys(), var=st.sampled_from(["x", "y"]))
def test_jackson_additivity(a, b, var):
    assert (a + b).jackson(var, Q2) == a.jackson(var, Q2) + b.jackson(var, Q2)


@given(p=polys(), var=st.sampled_from(["x", "y"]), m=st.integers(1, 4), count=st.integers(1, 10))
@example(p=Poly2.zero(), var="x", m=3, count=4)
@example(p=Poly2.const(F(-5, 3)), var="x", m=2, count=6)
@example(p=Poly2.const(7), var="y", m=1, count=1)
def test_samples_match_one_substitution_per_point(p, var, m, count):
    v = X if var == "x" else Y
    expected = Poly2.linear_combination(
        (1, p.substitute(var, F(r, m)), v ** r) for r in range(count))
    assert p.samples(var, F(1, m), count) == expected


def test_equal_operands_subtract_to_zero_without_accumulating(monkeypatch):
    p = X ** 2 * Y - F(3, 5) * X + 7
    built_apart = Poly2({(0, 0): 7, (1, 0): F(-3, 5), (2, 1): 1})
    minus_x = Poly2({(2, 1): 1, (1, 0): F(-8, 5), (0, 0): 7})
    minus_7, from_7 = Poly2({(2, 1): 1, (1, 0): F(-3, 5)}), Poly2({(2, 1): -1, (1, 0): F(3, 5)})
    calls = []
    real = poly._combine
    monkeypatch.setattr(poly, "_combine", lambda triples: calls.append(1) or real(triples))
    for same in (p, built_apart):
        d = p - same
        assert (d._num, d._den) == ({}, 1)
    assert Poly2.const(F(2, 3)) - F(2, 3) == 0
    assert calls == []
    # unequal and scalar operands accumulate as before, one accumulation each
    assert (p - X, p - 7, 7 - p) == (minus_x, minus_7, from_7)
    assert len(calls) == 3


# plain ints and bools are read by another path than Fractions
small_scalars = small_fractions | st.integers(-4, 4) | st.booleans()


@given(terms=st.lists(st.tuples(small_scalars, polys() | small_scalars,
                                polys() | small_scalars), max_size=6))
def test_linear_combination_matches_repeated_addition(terms):
    expected = Poly2.zero()
    for c, p, r in terms:
        expected = expected + Poly2.const(c) * p * r
    got = Poly2.linear_combination(terms)
    assert got == expected
    assert all(coeff for _, coeff in got.terms())  # no stored zeros


# -- the integer kernel against plain Fraction arithmetic -------------------

# coefficients up to 10**30 over unrelated denominators, mixed with small
# numerators over a few shared denominators, so that contributions meet
# both with equal and with different denominators
wide_fractions = st.one_of(
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
    st.builds(F, st.integers(-50, 50), st.sampled_from([1, 3, 7, 21, 3**20])),
)
Q_WIDE = QParam(F(10**30 - 7, 10**30 + 1))


@st.composite
def overlapping_terms(draw):
    """Two term dicts on overlapping keys; some terms of the second cancel
    the first's, and zero coefficients may occur in either."""
    keys = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8, unique=True))
    a = {k: draw(wide_fractions) for k in keys}
    b = {}
    for k in keys:
        kind = draw(st.sampled_from(["cancel", "other", "absent"]))
        if kind == "cancel":
            b[k] = -a[k]
        elif kind == "other":
            b[k] = draw(wide_fractions)
    for k in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=4)):
        b.setdefault(k, draw(wide_fractions))
    return a, b


def fraction_sum(contributions):
    """The term dict of a sum of (key, Fraction) pairs, one Fraction add at a time."""
    out = {}
    for k, c in contributions:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def fraction_products(triples):
    """The (key, Fraction) pairs of sum c * p * r over term dicts p and r."""
    return [((ax + bx, ay + by), c * ac * bc)
            for c, p, r in triples
            for (ax, ay), ac in p.items() for (bx, by), bc in r.items()]


# substitution at 0, 1 and -1, where the value's denominator is 1
SUBSTITUTED = ({(0, 0): F(1, 2), (2, 1): F(-3, 7), (1, 3): F(5), (3, 0): F(2, 3)},
               {(2, 1): F(3, 7), (0, 3): F(-1, 6), (1, 0): F(4)})


@settings(max_examples=60, deadline=None)
@given(ab=overlapping_terms(), w=wide_fractions, v=wide_fractions, var=st.sampled_from(["x", "y"]))
@example(ab=SUBSTITUTED, w=F(2, 3), v=F(0), var="x")
@example(ab=SUBSTITUTED, w=F(2, 3), v=F(1), var="y")
@example(ab=SUBSTITUTED, w=F(2, 3), v=F(-1), var="x")
def test_kernel_matches_fraction_arithmetic(ab, w, v, var):
    ta, tb = ab
    a, b = Poly2(ta), Poly2(tb)
    i = "xy".index(var)

    def moved(k, d):
        return (d, k[1]) if i == 0 else (k[0], d)

    neg_b = {k: -c for k, c in tb.items()}
    q = Q_WIDE.value
    cases = [
        # the constructor sums repeated keys, some of which cancel
        (Poly2([*ta.items(), *tb.items()]), fraction_sum([*ta.items(), *tb.items()])),
        (a + b, fraction_sum([*ta.items(), *tb.items()])),
        (a - b, fraction_sum([*ta.items(), *neg_b.items()])),
        (a - w, fraction_sum([*ta.items(), ((0, 0), -w)])),
        (w + a, fraction_sum([((0, 0), w), *ta.items()])),
        (w - a, fraction_sum([((0, 0), w), *((k, -c) for k, c in ta.items())])),
        (-a, fraction_sum((k, -c) for k, c in ta.items())),
        (Poly2.const(a.evaluate(v, w)),
         fraction_sum(((0, 0), c * v ** dx * w ** dy) for (dx, dy), c in ta.items())),
        (Poly2.linear_combination([(w, a, b), (v, b, b), (1, a, w), (-w, b, a)]),
         fraction_sum(fraction_products([(w, ta, tb), (v, tb, tb), (w, ta, {(0, 0): 1}),
                                         (-w, tb, ta)]))),
        (a * b, fraction_sum(fraction_products([(1, ta, tb)]))),
        (a.substitute(var, v), fraction_sum((moved(k, 0), c * v ** k[i]) for k, c in ta.items())),
        (a.scale_var(var, v), fraction_sum((k, c * v ** k[i]) for k, c in ta.items())),
        (a.jackson(var, Q_WIDE),
         fraction_sum((moved(k, k[i] - 1), c * (1 - q ** k[i]) / (1 - q))
                      for k, c in ta.items() if k[i])),
    ]
    for got, expected in cases:
        assert got._terms == expected
        for c in got._terms.values():
            # stored coefficients are nonzero Fractions in lowest terms
            assert type(c) is F
            assert c != 0
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


def assert_canonical(p):
    """Integer numerators over one positive denominator, with no common
    factor and no zero numerator; zero is {} over 1."""
    assert type(p._den) is int and p._den > 0
    assert all(type(n) is int and n for n in p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1


@settings(max_examples=60, deadline=None)
@given(ab=overlapping_terms(), w=wide_fractions, v=wide_fractions, var=st.sampled_from(["x", "y"]))
def test_every_result_is_canonical(ab, w, v, var):
    a, b = Poly2(ab[0]), Poly2(ab[1])
    for p in (a, b, Poly2([*ab[0].items(), *ab[1].items()]),
              a + b, a - b, b - a, a + w, w - a, -a, a * w, w * b, a * 0, a * b,
              Poly2.linear_combination([(w, a, b), (v, b, b), (1, a, w), (-w, b, a)]),
              Poly2.linear_combination([(1, a, b), (-1, b, a)]),
              a.substitute(var, v), a.substitute(var, 0), a.substitute(var, 1),
              a.substitute(var, -1), a.scale_var(var, w),
              a.jackson(var, Q_WIDE), a.jackson(var, Q2)):
        assert_canonical(p)


def test_constructor_sums_repeated_keys_to_canonical_form():
    p = Poly2([((1, 0), F(1, 3)), ((0, 2), F(1, 6)), ((1, 0), F(-1, 3)), ((0, 2), F(1, 3)),
               ((2, 0), 4), ((0, 0), F(5, 9)), ((0, 0), F(-5, 9))])
    # x cancels, 1/6 + 1/3 = 1/2, and the constants cancel: 4 x^2 + y^2 / 2 over 2
    assert p == 4 * X**2 + F(1, 2) * Y**2
    assert (p._num, p._den) == ({(2, 0): 8, (0, 2): 1}, 2)
    assert_canonical(p)
    zero = Poly2([((1, 1), F(2, 7)), ((1, 1), F(-2, 7))])
    assert (zero._num, zero._den) == ({}, 1)


def test_scalar_product_cancels_to_an_integer_denominator():
    p = (X + 1) * F(1, 3**20)
    assert p._den == 3**20
    back = p * 3**20
    assert back == X + 1 and back._den == 1
    assert_canonical(back)
    assert (F(3, 2) * (X + 1)) * F(2, 3) == X + 1
    assert_canonical(Poly2.zero())
    assert Poly2.zero()._den == 1 and (X - X)._den == 1


def test_constants_hash_like_their_scalar():
    for c in (0, 1, F(1, 2)):
        p = Poly2.const(c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1


# -- term_ratios: reduction by the denominator's largest prime power --------

def fraction_ratios(p):
    """The reference for ``term_ratios``: each term's reduced ``Fraction``."""
    return [(k, c.numerator, c.denominator) for k, c in p.terms()]


@st.composite
def prime_power_polys(draw):
    """(b, p): p's terms are over b^E * c, b a q-denominator (12, 66 and
    11 * 1009 hold several primes, 1009 is a prime above 1000), and their
    numerators carry b to a valuation that rises, falls or jumps along each
    row, at times above E, with either sign; from one term to 48 and from a
    few bits to about 1,300."""
    b = draw(st.sampled_from([2, 3, 11, 12, 66, 997, 1009, 11 * 1009]))
    e = draw(st.integers(0, 1200 // b.bit_length()))
    den = b ** e * draw(st.integers(1, 10**40))
    terms = {}
    for i in range(draw(st.integers(1, 4))):
        v, step = draw(st.integers(0, e + 3)), draw(st.sampled_from([-2, -1, 0, 1, 2]))
        for j in range(draw(st.integers(1, 12))):
            if draw(st.integers(0, 5)) == 0:
                v = draw(st.integers(0, e + 3))  # a jump
            u = draw(st.integers(-10**30, 10**30).filter(bool))
            terms[(i, j)] = F(u * b ** max(v, 0), den)
            v += step
    return b, Poly2(terms)


@settings(max_examples=150, deadline=None)
@given(bp=prime_power_polys())
def test_term_ratios_match_fractions_over_prime_powers(bp):
    b, p = bp
    assert p.term_ratios(b) == fraction_ratios(p)
    assert p.term_ratios() == fraction_ratios(p)


@pytest.mark.parametrize("n_terms", [7, 8])
@pytest.mark.parametrize("den", [3 * 11 ** 147, 11 ** 148], ids=["511 bits", "512 bits"])
def test_term_ratios_on_both_sides_of_the_size_gate(n_terms, den):
    p = Poly2({(0, j): F((-1) ** j * 11 ** (j * 20) * (j + 2), den) for j in range(n_terms)})
    assert p._den == den
    # 11^148 is split off only from 8 terms over 512 bits
    assert poly._split(den, n_terms, 11)[1] == (148 if n_terms == 8 and den == 11 ** 148 else 0)
    assert p.term_ratios(11) == fraction_ratios(p)


@pytest.mark.parametrize("q", [F(7, 11), F(-7, 3), F(5, 66), None])
def test_term_ratios_match_fractions_on_n16_tables(q):
    qp = QParam(q) if q is not None else None
    for kind in ("q_bernoulli", "q_euler"):
        for alpha in (1, 2):
            for p in family_table(FamilySpec(kind, alpha, qp), 16).entries:
                assert p.term_ratios() == fraction_ratios(p)


def wide_gcds(monkeypatch, p, base, bits=1000):
    """``p.term_ratios(base)`` and the count of its ``gcd`` calls whose
    operands are all over ``bits`` bits."""
    wide = []

    def counting(*args):
        if min(abs(a).bit_length() for a in args) > bits:
            wide.append(args)
        return math.gcd(*args)

    with monkeypatch.context() as m:
        m.setattr(poly, "gcd", counting)
        got = p.term_ratios(base)
    return got, len(wide)


def test_term_ratios_split_off_the_prime_power_of_a_deep_entry(monkeypatch):
    # entry 40 of qeuler a1 at q = 7/11 has denominator 11^780 (2,699 bits):
    # a gcd with all of it per term is 861 gcds of two operands over 1,000 bits
    p = family_table(FamilySpec("q_euler", 1, QParam(F(7, 11))), 40)[40]
    assert p._den == 11 ** 780
    got, wide = wide_gcds(monkeypatch, p, 11)
    assert wide == 0
    assert got == fraction_ratios(p)


def test_term_ratios_split_at_a_prime_above_1000(monkeypatch):
    # entry 40 of qbernoulli a1 at q = 7/1009 has a 9,061-bit denominator,
    # 7,784 bits of it a power of 1009 and no large power of a prime below
    # 1000; with 1009^780 split off, each term's gcd is with the 1,278-bit
    # cofactor, not with 9,061 bits
    p = family_table(FamilySpec("q_bernoulli", 1, QParam(F(7, 1009))), 40)[40]
    assert p._den.bit_length() == 9061
    assert poly._split(p._den, len(p._num), 1009)[1] == 780
    got, wide = wide_gcds(monkeypatch, p, 1009, bits=2000)
    assert wide == 0
    assert got == fraction_ratios(p)


@pytest.mark.parametrize("b, primes", [
    (1, []), (12, [2, 3]), (66, [2, 3, 11]), (1009, [1009]), (1009 ** 2, [1009]),
    (1009 * 1013, [1009, 1013]),
    # trial division below 1024 proves no prime at or above 1024^2 = 2^20 ...
    (1000000007, []), (2 * 1000000007, [2]),
    # ... and such a leftover may be composite
    (1031 * 1033, []),
])
def test_primes_of_the_base(b, primes):
    assert list(poly._primes(b)) == primes
    # terms over b^E times a cofactor split at the largest prime power of b
    # when b has a prime, and otherwise run the one-gcd loop; both are exact
    den = b ** (600 // b.bit_length() + 1) * 5 ** 7 if b > 1 else 7 ** 300
    p = Poly2({(0, j): F(b ** j * (j - 3), den) for j in range(12)})
    prime, e, c = poly._split(p._den, 12, b)
    if primes:
        powers = {q: q ** poly._strip(p._den, functools.cache(q.__pow__), 10**4)[0]
                  for q in primes}
        assert prime ** e == max(powers.values()) and prime ** e * c == p._den
    else:
        assert (prime, e, c) == (1, 0, p._den)
    assert p.term_ratios(b) == fraction_ratios(p)

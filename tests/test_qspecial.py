import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from qbern.identities import qconv

from qbern.poly import Poly2, X, Y, symbolic_pair_power
from qbern import qspecial
from qbern.qcore import QParam, q_binomial, q_factorial, q_number, gauss_exponent, scalar_memo
from qbern.series import Eq_series, Series, eq_series
from qbern.qspecial import (
    FamilySpec,
    classical_limit_errors,
    family_entries,
    family_table,
    is_monotone_decreasing,
    q_bernoulli_numbers_recurrence,
    q_bernoulli_table,
    q_bernstein,
    q_euler_numbers_recurrence,
    q_euler_table,
    q_number_sequence,
    q_stirling2,
)

Q2 = QParam(F(1, 2))
Q3 = QParam(F(1, 3))
QS = [QParam(F(1, 2)), QParam(F(1, 3)), QParam(F(3, 4))]
Q_LIMIT = [QParam(F(9, 10)), QParam(F(99, 100)), QParam(F(999, 1000))]


def series_stirling2(q, size):
    """The series form of the q-Stirling numbers, the oracle of the recurrence
    in q_stirling2: rows[k][m] = [m]!/[k]! [t^m] (e(t) - 1)^k for m, k < size,
    each power one more multiplication by e(t) - 1.  The q-factorials are
    products of (1 - q^j)/(1 - q), so the oracle shares no scalar code with
    the triangle, which reads the numerators of qcore's q-integers."""
    v = None if q is None else q.value
    fact = [math.prod((F(j) if v is None else (1 - v ** j) / (1 - v) for j in range(1, n + 1)),
                      start=F(1)) for n in range(size)]
    em1 = Series([0] + [1 / fact[n] for n in range(1, size)])
    power, rows = Series.one(size - 1), []
    for k in range(size):
        rows.append([power.coeffs[m].constant_term() * fact[m] / fact[k] for m in range(size)])
        power = power * em1
    return rows


class TestBernoulliTable:
    def test_normalization(self):
        for alpha in (0, 1, 2, -1):
            assert q_bernoulli_table(Q2, alpha, 0)[0] == Poly2.one()

    def test_first_number(self):
        # b_1 = -1/[2] at every q
        for q in QS:
            t = q_bernoulli_table(q, 1, 1)
            assert t[1].evaluate(0, 0) == -1 / q_number(q, 2)

    def test_second_number(self):
        t = q_bernoulli_table(Q2, 1, 2)
        q = F(1, 2)
        assert t[2].evaluate(0, 0) == q**2 / (q_number(Q2, 2) * q_number(Q2, 3))
        assert t[2].evaluate(0, 0) == F(2, 21)

    def test_alpha_zero_specialization_along_y(self):
        for q in QS:
            t = q_bernoulli_table(q, 0, 8)
            for n in range(9):
                expected = gauss_exponent(q, n) * Poly2.monomial(0, n, 1)
                assert t[n].substitute("x", 0) == expected

    def test_degree_is_exactly_n(self):
        for alpha in (0, 1, 3):
            t = q_bernoulli_table(Q2, alpha, 6)
            for n in range(7):
                assert t[n].total_degree() == n


    def test_projected_rows(self):
        t = q_euler_table(Q2, 2, 5)
        for n in range(6):
            assert t.x0[n] == t[n].substitute("x", 0)
            assert t.y0[n] == t[n].substitute("y", 0)
            assert t.ym1[n] == t[n].substitute("y", -1)
            assert t.num[n] == t[n].evaluate(0, 0)
        assert t.x0 is t.x0  # computed once, kept with the table


class TestEulerTable:
    def test_normalization(self):
        assert q_euler_table(Q2, 1, 0)[0] == Poly2.one()

    def test_first_number(self):
        for q in QS:
            assert q_euler_table(q, 1, 1)[1].evaluate(0, 0) == F(-1, 2)

    def test_second_number(self):
        assert q_euler_table(Q2, 1, 2)[2].evaluate(0, 0) == F(-1, 8)
        assert q_euler_table(Q3, 1, 2)[2].evaluate(0, 0) == F(-1, 6)


class TestNumberSequences:
    def test_bernoulli_oracle_agreement(self):
        for q in QS:
            series_path = q_number_sequence(FamilySpec("q_bernoulli", 1, q), 12)
            recurrence_path = q_bernoulli_numbers_recurrence(q, 12)
            assert series_path == recurrence_path

    def test_euler_oracle_agreement(self):
        for q in QS:
            series_path = q_number_sequence(FamilySpec("q_euler", 1, q), 12)
            recurrence_path = q_euler_numbers_recurrence(q, 12)
            assert series_path == recurrence_path

    def test_leading_values(self):
        assert q_bernoulli_numbers_recurrence(Q2, 1) == [F(1), F(-2, 3)]
        assert q_euler_numbers_recurrence(Q2, 2) == [F(1), F(-1, 2), F(-1, 8)]


# q = a/b with |a|, b <= 20, on both sides of (0, 1), never a root of unity
random_q = st.builds(F, st.integers(-20, 20), st.integers(1, 20)).filter(
    lambda v: v not in (0, 1, -1)
)


@settings(max_examples=15, deadline=None)
@given(value=random_q, alpha=st.sampled_from([2, 3]))
def test_order_alpha_numbers_are_convolution_powers(value, alpha):
    # The order-alpha kernel is the alpha-th power of the order-1 kernel, so
    # its numbers are the alpha-fold q-binomial self-convolution of the
    # order-1 numbers; those come from the recurrences, not from any series.
    n_max = 8
    q = QParam(value)
    for kind, order1 in (("q_bernoulli", q_bernoulli_numbers_recurrence),
                         ("q_euler", q_euler_numbers_recurrence)):
        base = order1(q, n_max)
        power = base
        for _ in range(alpha - 1):
            power = [qconv(q, n, power, base).constant_term() for n in range(n_max + 1)]
        assert q_number_sequence(FamilySpec(kind, alpha, q), n_max) == power, kind


@settings(max_examples=40, deadline=None)
@given(value=random_q | st.none(), kind=st.sampled_from(["q_bernoulli", "q_euler"]),
       alpha=st.integers(0, 3), n=st.integers(0, 8))
def test_numbers_are_the_table_at_the_origin(value, kind, alpha, n):
    # the numbers come from the kernel series alone; the bivariate table's
    # constant terms are their oracle
    spec = FamilySpec(kind, alpha, None if value is None else QParam(value))
    assert q_number_sequence(spec, n) == list(family_table(spec, n).num)


def test_number_sequence_rejects_a_negative_length():
    with pytest.raises(ValueError):
        q_number_sequence(FamilySpec("q_euler", 1, Q2), -1)


class TestAlphaStructure:
    def test_alpha_zero_is_pair_power(self):
        for q in QS:
            tb = q_bernoulli_table(q, 0, 10)
            te = q_euler_table(q, 0, 10)
            for n in range(11):
                p = symbolic_pair_power(q, n)
                assert tb[n] == p
                assert te[n] == p

    def test_alpha_additivity(self):
        # order (a+b) tables factor through the product of the order-a
        # and order-b generating series
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                tab = q_bernoulli_table(Q2, a + b, 8)
                ta = q_bernoulli_table(Q2, a, 8)
                tb = q_bernoulli_table(Q2, b, 8)
                for n in range(9):
                    rhs = Poly2.zero()
                    for k in range(n + 1):
                        rhs = rhs + (
                            q_binomial(Q2, n, k)
                            * ta[k].substitute("y", 0)
                            * tb[n - k].substitute("x", 0)
                        )
                    assert tab[n] == rhs

    def test_negative_alpha_inverts(self):
        t_pos = q_bernoulli_table(Q2, 2, 6)
        t_neg = q_bernoulli_table(Q2, -2, 6)
        # convolving the number sequences gives the delta sequence
        import qbern.qcore as qc

        pos = [t_pos[n].evaluate(0, 0) / qc.q_factorial(Q2, n) for n in range(7)]
        neg = [t_neg[n].evaluate(0, 0) / qc.q_factorial(Q2, n) for n in range(7)]
        for n in range(7):
            conv = sum(pos[k] * neg[n - k] for k in range(n + 1))
            assert conv == (1 if n == 0 else 0)


def classical_poly(kind, n):
    """Entry n of the q = None table at y = 0: the classical polynomial in x."""
    return family_table(FamilySpec(kind, 1, None), n)[n].substitute("y", 0)


class TestClassicalPolynomials:
    def test_order_zero(self):
        assert classical_poly("q_bernoulli", 0) == Poly2.one()
        assert classical_poly("q_euler", 0) == Poly2.one()

    def test_bernoulli_two(self):
        assert classical_poly("q_bernoulli", 2) == X**2 - X + F(1, 6)

    def test_euler_one(self):
        assert classical_poly("q_euler", 1) == X - F(1, 2)

    def test_classical_recurrences(self):
        # sum_{k<m} C(m,k) B_k = 0 and the Euler analogue
        bn = [classical_poly("q_bernoulli", n).evaluate(0, 0) for n in range(9)]
        for m in range(2, 9):
            assert sum(math.comb(m, k) * bn[k] for k in range(m)) == 0
        en = [classical_poly("q_euler", n).evaluate(0, 0) for n in range(9)]
        for m in range(1, 9):
            acc = sum(math.comb(m, k) * en[k] for k in range(m))
            assert acc + 2 * en[m] == 0
        # equivalent form: sum_{k<=m} C(m,k) e_k + e_m = 0 for m >= 1
        for m in range(1, 9):
            assert sum(math.comb(m, k) * en[k] for k in range(m + 1)) + en[m] == 0


class TestStirling:
    def test_diagonal_is_one(self):
        for k in range(9):
            assert q_stirling2(Q2, k, k) == 1

    def test_vanishes_below_diagonal(self):
        for k in range(1, 6):
            for m in range(k):
                assert q_stirling2(Q2, m, k) == 0

    def test_three_two(self):
        assert q_stirling2(Q2, 3, 2) == 2 * q_number(Q2, 3) / q_number(Q2, 2)
        assert q_stirling2(Q2, 3, 2) == F(7, 3)

    def test_classical_values(self):
        assert q_stirling2(None, 4, 2) == 7
        assert q_stirling2(None, 0, 0) == 1
        for n in range(1, 8):
            assert q_stirling2(None, n, n) == 1
            assert q_stirling2(None, n, 0) == 0

    def test_classical_matches_closed_form(self):
        # S(n, k) = (1/k!) sum_j (-1)^j C(k, j) (k - j)^n
        for n in range(31):
            for k in range(n + 2):
                closed = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
                assert q_stirling2(None, n, k) == F(closed, math.factorial(k))

    @pytest.mark.parametrize("q", [Q2, None], ids=["q=1/2", "q=None"])
    def test_float_indices_raise_after_a_cached_hit(self, q):
        # a float hashes and compares like its int, so it would read the int's row
        assert q_stirling2(q, 3, 1) == 1
        for call in (lambda: q_stirling2(q, 3.0, 1), lambda: q_stirling2(q, 3, 1.0)):
            with pytest.raises(TypeError):
                call()

    def test_classical_deep_row_builds_without_recursion(self):
        # a cold read of a deep row builds it iteratively
        assert q_stirling2(None, 1500, 1499) == math.comb(1500, 2)

    def test_classical_limit_monotone(self):
        worst = F(0)
        for m in range(7):
            for k in range(7):
                errs = [
                    abs(q_stirling2(q, m, k) - q_stirling2(None, m, k))
                    for q in Q_LIMIT
                ]
                assert is_monotone_decreasing(errs)
                worst = max(worst, errs[-1])
        # frozen at 10x the measured maximum (0.352 at q = 999/1000); the
        # provisional desk guess of 1e-2 was off by a factor of ~35
        assert worst <= F(36, 10)

    @pytest.mark.parametrize("n", range(12))
    def test_series_path_matches_triangle_at_q_none(self, n):
        rows = series_stirling2(None, n + 1)
        for k in range(n + 1):
            assert q_stirling2(None, n, k) == rows[k][n]

    @pytest.mark.parametrize("value", [F(7, 11), F(-7, 3), None], ids=str)
    def test_matches_series_form_to_sixteen(self, value):
        q = QParam(value) if value else None
        rows = series_stirling2(q, 17)
        for k in range(17):
            assert [q_stirling2(q, m, k) for m in range(17)] == rows[k], k

    def test_deep_row_keeps_its_binomials_out_of_the_memo(self):
        q = QParam(F(17, 19))
        before = scalar_memo.cache_info().misses
        q_stirling2(q, 40, 20)  # cold: the row itself, and no [k] or [i j]
        assert scalar_memo.cache_info().misses - before == 1

    def test_a_row_is_built_once(self, monkeypatch):
        calls = []
        real = qspecial._stirling2_row
        monkeypatch.setattr(qspecial, "_stirling2_row",
                            lambda q, m: calls.append((q, m)) or real(q, m))
        assert [q_stirling2(Q2, 8, k) for k in range(9)] == list(real(Q2, 8))
        assert calls == [(Q2, 8)]

    @pytest.mark.parametrize("value", [F(-417, 583), None], ids=str)
    def test_cold_row_builds_one_fraction_per_value(self, monkeypatch, value):
        # the triangle's rows stay integers, and only the row returned is converted
        built = []
        monkeypatch.setattr(qspecial, "Fraction", lambda *a: built.append(a) or F(*a))
        q = QParam(value) if value else None
        for m in (8, 13):
            row = qspecial._stirling2_row(q, m)  # called directly, so past the memo
            assert len(built) == m + 1
            built.clear()
            assert list(row) == [col[m] for col in series_stirling2(q, m + 1)]


class TestBernstein:
    def test_top_index(self):
        for n in range(6):
            assert q_bernstein(Q2, n, n) == Poly2.monomial(n, 0, 1)

    def test_two_one(self):
        assert q_bernstein(Q2, 2, 1) == X - X**2

    def test_two_zero(self):
        assert q_bernstein(Q2, 2, 0) == Poly2.one() - F(3, 2) * X + F(1, 2) * X**2

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            q_bernstein(Q2, 2, 3)

    def test_classical_flavour(self):
        assert q_bernstein(None, 3, 1) == X * (1 - X) ** 2

    @pytest.mark.parametrize("n", range(12))
    def test_q_none_is_the_classical_basis(self, n):
        for k in range(n + 1):
            assert q_bernstein(None, n, k) == X**k * (1 - X) ** (n - k)


@settings(max_examples=15, deadline=None)
@given(value=random_q)
def test_q_stirling2_matches_its_series_form(value):
    size = 9
    q = QParam(value)
    rows = series_stirling2(q, size)
    for k in range(size):
        assert [q_stirling2(q, m, k) for m in range(size)] == rows[k], k


# q = a/b with |a|, b <= 999, never 0, 1 or -1: three-digit q on both sides of
# (0, 1) and of -1, as the benchmark's random-q stream draws them
three_digit_q = st.builds(F, st.integers(-999, 999), st.integers(1, 999)).filter(
    lambda v: v not in (0, 1, -1)
)


@settings(max_examples=20, deadline=None)
@given(value=three_digit_q)
@example(value=F(355, 113))
@example(value=F(-412, 997))
def test_q_stirling2_matches_its_series_form_at_three_digit_q(value):
    # the triangle's integers over powers of q's denominator, against the
    # series in Fractions, up to n = 10; q > 1 makes d - c negative in N_a
    size = 11
    q = QParam(value)
    rows = series_stirling2(q, size)
    for k in range(size):
        assert [q_stirling2(q, m, k) for m in range(size)] == rows[k], k


@settings(max_examples=15, deadline=None)
@given(value=random_q)
def test_q_bernstein_matches_phillips_product(value):
    # Phillips's basis x^k prod_{s<n-k} (1 - q^s x), with no pair power
    q = QParam(value)
    for n in range(9):
        for k in range(n + 1):
            product = X**k
            for s in range(n - k):
                product = product * (1 - value**s * X)
            assert q_bernstein(q, n, k) == product, (n, k)


class TestClassicalLimit:
    def test_errors_shrink(self):
        for kind in ("q_bernoulli", "q_euler"):
            for n in range(7):
                for x in (F(0), F(1, 2), F(1)):
                    errs = classical_limit_errors(kind, 1, n, x, Q_LIMIT)
                    assert is_monotone_decreasing(errs)

    def test_euler_closed_form(self):
        # the degree-2 Euler number is (q - 1)/4, so the error at x = 0 is
        # (1 - q)/4
        errs = classical_limit_errors(
            "q_euler", 1, 2, F(0), [QParam(F(9, 10)), QParam(F(99, 100))]
        )
        assert errs == [F(1, 40), F(1, 400)]

    def test_bernoulli_closed_form(self):
        # |(-1/2) - (-1/[2]_q)| = (1 - q)/(2(1 + q))
        for q in Q_LIMIT:
            (err,) = classical_limit_errors("q_bernoulli", 1, 1, F(0), [q])
            qq = q.value
            assert err == (1 - qq) / (2 * (1 + qq))

    def test_reads_entry_n_from_the_stream_and_holds_no_table(self, monkeypatch):
        want = [abs(family_table(FamilySpec("q_euler", 2, q), 5)[5].evaluate(F(1, 3), 0)
                    - family_table(FamilySpec("q_euler", 2, None), 5)[5].evaluate(F(1, 3), 0))
                for q in Q_LIMIT]
        monkeypatch.setattr(qspecial, "family_table", None)
        assert classical_limit_errors("q_euler", 2, 5, F(1, 3), Q_LIMIT) == want


# -- the generating-function factors shared between tables ------------

KIND_NAMES = ("q_bernoulli", "q_euler")


def unshared_table(kind, q, alpha, n):
    """Entries 0..n of kernel^alpha * e(tx) * E(ty), built with no memoized
    series: the kernel's base is inverted here, and the product is taken in
    the order kern * e(tx) * E(ty)."""
    if kind == "q_bernoulli":
        base = Series([1 / q_factorial(q, k + 1) for k in range(n + 1)])
    else:
        base = Series([F(1)] + [F(1, 2) / q_factorial(q, k) for k in range(1, n + 1)])
    kern = base.int_power(-alpha)
    s = kern * eq_series(q, X, n) * Eq_series(q, Y, n)
    return [s.coeffs[k] * q_factorial(q, k) for k in range(n + 1)]


@settings(max_examples=250, deadline=None)
@given(value=three_digit_q | st.none(), kind=st.sampled_from(KIND_NAMES),
       alpha=st.sampled_from([-1, 0, 1, 2, 3]), n=st.integers(0, 6))
def test_shared_factors_give_the_unshared_product(value, kind, alpha, n):
    q = None if value is None else QParam(value)
    table = family_table(FamilySpec(kind, alpha, q), n)
    assert list(table.entries) == unshared_table(kind, q, alpha, n)


@pytest.mark.parametrize("alpha", [-2, 0, 1, 3])
@pytest.mark.parametrize("q", [None, QParam(F(7, 11)), QParam(F(-7, 3))], ids=str)
def test_entry_stream_is_the_table(q, alpha):
    for kind in KIND_NAMES:
        spec = FamilySpec(kind, alpha, q)
        stream = list(family_entries(spec, 8))
        assert stream == list(family_table(spec, 8).entries) == unshared_table(kind, q, alpha, 8)


def test_entry_stream_builds_its_factors_at_the_call_and_each_entry_on_demand(monkeypatch):
    with pytest.raises(ValueError, match="nonnegative"):
        family_entries(FamilySpec("q_euler", 1, None), -1)
    reads = []
    real = qspecial.q_factorial
    monkeypatch.setattr(qspecial, "q_factorial", lambda q, n: reads.append(n) or real(q, n))
    scalar_memo.cache_clear()
    spec = FamilySpec("q_bernoulli", 2, QParam(F(5, 13)))
    stream = family_entries(spec, 6)
    # the kernel's base reads [1]!..[7]! when the stream is made; entry n then reads [n]!
    assert sorted(reads) == list(range(1, 8))
    reads.clear()
    entries = [next(stream)]
    assert reads == [0]
    entries.append(next(stream))
    assert reads == [0, 1]
    assert entries == list(family_table(spec, 1).entries)


def test_memoized_factors_are_keyed_on_q_and_order():
    # a factor served to the wrong q or at the wrong order changes a table
    q1, q2 = QParam(F(-412, 997)), QParam(F(355, 113))
    builds = [(q1, 4), (q2, 4), (q1, 2), (q1, 6), (None, 3)]
    warm = {(q, n, kind, alpha): family_table(FamilySpec(kind, alpha, q), n).entries
            for q, n in builds for kind in KIND_NAMES for alpha in (1, 2)}
    for (q, n, kind, alpha), entries in warm.items():
        scalar_memo.cache_clear()
        assert family_table(FamilySpec(kind, alpha, q), n).entries == entries, (q, n, kind)


def test_each_factor_is_built_once_per_q(monkeypatch):
    calls = []

    def counted(name, real):
        monkeypatch.setattr(qspecial, name, lambda *a: calls.append(name) or real(*a))

    counted("eq_series", qspecial.eq_series)
    counted("Eq_series", qspecial.Eq_series)
    reciprocal = Series.reciprocal
    monkeypatch.setattr(Series, "reciprocal",
                        lambda s: calls.append("reciprocal") or reciprocal(s))
    scalar_memo.cache_clear()
    q = QParam(F(-7, 3))
    for kind in KIND_NAMES:
        for alpha in (1, 2, 3):
            family_table(FamilySpec(kind, alpha, q), 6)
    assert sorted(calls) == ["Eq_series", "eq_series", "reciprocal", "reciprocal"]
    # the number sequences read the same order-1 kernels
    for kind in KIND_NAMES:
        q_number_sequence(FamilySpec(kind, 2, q), 6)
    assert len(calls) == 4


def test_negative_orders_take_no_reciprocal(monkeypatch):
    # a negative order is a power of the kernel's base, not of the inverted kernel
    calls = []
    reciprocal = Series.reciprocal
    monkeypatch.setattr(Series, "reciprocal",
                        lambda s: calls.append("reciprocal") or reciprocal(s))
    scalar_memo.cache_clear()
    for q in (QParam(F(7, 11)), None):
        for kind in KIND_NAMES:
            for alpha in (-1, -2):
                family_table(FamilySpec(kind, alpha, q), 6)
                q_number_sequence(FamilySpec(kind, alpha, q), 6)
    assert calls == []


@pytest.mark.parametrize("kind, alpha, q", [
    ("q_bernoulli", 1, QParam(F(7, 11))), ("q_euler", 2, QParam(F(-7, 3))),
    ("q_bernoulli", 3, None)])
def test_a_table_is_held_once_while_it_is_built(kind, alpha, q):
    # with both factors in the memo, building the n = 30 table holds little
    # more than the table: never its product series beside its entries
    spec = FamilySpec(kind, alpha, q)
    family_table(spec, 30)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = family_table(spec, 30)
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(table.entries) == 31
    assert peak <= 1.3 * held, (peak, held)


def plain_recurrences(q, n):
    """The two recurrences summed term by term in Fractions."""
    bern = []
    for m in range(1, n + 2):
        acc = F(0)
        for k in range(m - 1):
            acc += q_binomial(q, m, k) * bern[k]
        bern.append(((1 if m == 1 else 0) - acc) / q_binomial(q, m, m - 1))
    eul = [F(1)]
    for m in range(1, n + 1):
        acc = F(0)
        for k in range(m):
            acc += q_binomial(q, m, k) * eul[k]
        eul.append(-acc / 2)
    return bern[: n + 1], eul


@settings(max_examples=20, deadline=None)
@given(value=three_digit_q | st.none(), n=st.integers(0, 12))
def test_recurrence_oracles_match_a_plain_fraction_sum(value, n):
    q = None if value is None else QParam(value)
    assert (q_bernoulli_numbers_recurrence(q, n),
            q_euler_numbers_recurrence(q, n)) == plain_recurrences(q, n)

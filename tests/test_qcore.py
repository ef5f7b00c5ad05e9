import math
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qbern.qcore import (
    QParam,
    QParamError,
    gauss_exponent,
    q_binomial,
    q_binomial_row,
    q_factorial,
    q_number,
    q_pair_power,
    q_shifted_factorial,
    scalar_memo,
)

Q2 = QParam(F(1, 2))
SAMPLE_QS = [QParam(F(1, 2)), QParam(F(1, 3)), QParam(F(3, 4)), QParam(F(2, 5))]


class TestQParam:
    def test_rejects_one(self):
        with pytest.raises(QParamError):
            QParam(F(1))

    def test_rejects_zero(self):
        with pytest.raises(QParamError):
            QParam(F(0))

    def test_rejects_minus_one(self):
        # [2] = 1 + q vanishes, so every q-factorial past 1 would be zero
        with pytest.raises(QParamError):
            QParam(F(-1))

    def test_hash_and_equality_follow_the_value(self, monkeypatch):
        a, b = QParam(F(1, 2)), QParam(F(2, 4))
        assert a == b and hash(a) == hash(b)
        assert a != QParam(F(1, 3))
        # the hash is computed once, at construction; memo reads do not rehash the Fraction
        calls = []
        monkeypatch.setattr(F, "__hash__", lambda self: calls.append(self) or 0)
        assert hash(a) == hash(b)
        assert calls == []


class TestQNumber:
    def test_zero(self):
        assert q_number(Q2, 0) == 0

    def test_one(self):
        assert q_number(Q2, 1) == 1

    def test_three(self):
        # 1 + 1/2 + 1/4
        assert q_number(Q2, 3) == F(7, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_number(Q2, -1)


class TestQFactorial:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (3, F(21, 8))])
    def test_values(self, n, expected):
        assert q_factorial(Q2, n) == expected


class TestQBinomial:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(5, 0, 1), (2, 1, F(3, 2)), (4, 2, F(35, 16))],
    )
    def test_values(self, n, k, expected):
        assert q_binomial(Q2, n, k) == expected

    def test_gaussian_polynomial_form(self):
        # [4 2]_q is the polynomial 1 + q + 2q^2 + q^3 + q^4
        q = F(1, 2)
        assert q_binomial(Q2, 4, 2) == 1 + q + 2 * q**2 + q**3 + q**4

    @pytest.mark.parametrize("n,k", [(3, -1), (3, 4), (0, 1)])
    def test_out_of_range_is_an_error(self, n, k):
        with pytest.raises(ValueError):
            q_binomial(Q2, n, k)

    def test_symmetry(self):
        for q in SAMPLE_QS:
            for n in range(13):
                for k in range(n + 1):
                    assert q_binomial(q, n, k) == q_binomial(q, n, n - k)

    def test_pascal_recurrence(self):
        for q in SAMPLE_QS:
            for n in range(1, 13):
                for k in range(1, n):
                    assert q_binomial(q, n, k) == q_binomial(q, n - 1, k - 1) + q.power(
                        k
                    ) * q_binomial(q, n - 1, k)

    @pytest.mark.parametrize("value", [F(7, 11), F(-7, 3), F(5, 2)])
    def test_deep_matches_factorial_quotient(self, value):
        n = 200
        factorials = [F(1)]
        for j in range(1, n + 1):
            factorials.append(factorials[-1] * (1 - value ** j) / (1 - value))
        q = QParam(value)
        for k in (0, 1, 57, 100, 143, 199, 200):
            assert q_binomial(q, n, k) == factorials[n] / (factorials[k] * factorials[n - k])


class TestQShiftedFactorial:
    def test_empty_product(self):
        assert q_shifted_factorial(Q2, F(3), 0) == 1

    def test_vanishing_first_factor(self):
        assert q_shifted_factorial(Q2, F(1), 2) == 0

    def test_direct_product(self):
        assert q_shifted_factorial(Q2, F(2), 2) == 0
        assert q_shifted_factorial(Q2, F(1, 2), 2) == F(1, 2) * F(3, 4)

    def test_binomial_formula(self):
        # (a; q)_n = sum_k [n k] q^{k(k-1)/2} (-1)^k a^k
        for q in SAMPLE_QS:
            for n in range(11):
                for a in (F(0), F(1), F(1, 2), F(-2)):
                    rhs = sum(
                        q_binomial(q, n, k)
                        * gauss_exponent(q, k)
                        * (-1) ** k
                        * a**k
                        for k in range(n + 1)
                    )
                    assert q_shifted_factorial(q, a, n) == rhs


class TestGaussExponent:
    @pytest.mark.parametrize("k,expected", [(0, 1), (1, 1), (3, F(1, 8))])
    def test_values(self, k, expected):
        assert gauss_exponent(Q2, k) == expected


class TestQPairPower:
    def test_telescoping(self):
        assert q_pair_power(Q2, F(1), F(-1), 2) == 0

    def test_zero_second_argument(self):
        for n in range(6):
            assert q_pair_power(Q2, F(3, 7), F(0), n) == F(3, 7) ** n

    def test_direct_sum(self):
        assert q_pair_power(Q2, F(1, 2), F(-1), 1) == F(-1, 2)

    def test_matches_shifted_factorial(self):
        # (1 + (-a))^n_q = (a; q)_n
        for q in SAMPLE_QS:
            for n in range(8):
                for a in (F(1, 3), F(-2), F(5, 7)):
                    assert q_pair_power(q, F(1), -a, n) == q_shifted_factorial(q, a, n)


@st.composite
def q_params(draw):
    num = draw(st.integers(min_value=1, max_value=9))
    den = draw(st.integers(min_value=2, max_value=10))
    if num >= den:
        num = den - 1
    return QParam(F(num, den))


@given(q=q_params(), n=st.integers(0, 10), k=st.integers(0, 10))
def test_symmetry_property(q, n, k):
    if k > n:
        n, k = k, n
    assert q_binomial(q, n, k) == q_binomial(q, n, n - k)


@given(
    q=q_params(),
    a=st.fractions(min_value=-3, max_value=3),
    b=st.fractions(min_value=-3, max_value=3),
)
def test_pair_power_degenerates_without_second_slot(q, a, b):
    assert q_pair_power(q, a, b, 0) == 1
    assert q_pair_power(q, a, b, 1) == a + b


class TestClassicalConvention:
    """q = None is the classical limit q -> 1."""

    def test_scalars(self):
        for n in range(41):
            assert q_number(None, n) == n
            assert q_factorial(None, n) == math.factorial(n)
            assert gauss_exponent(None, n) == 1
            for k in range(n + 1):
                assert q_binomial(None, n, k) == math.comb(n, k)

    def test_limit_of_q_values(self):
        # the q-binomial at q = 1 + 1/N approaches C(n, k) from above
        n, k = 6, 3
        near = [q_binomial(QParam(1 + F(1, big)), n, k) for big in (10, 100, 1000)]
        assert near[0] > near[1] > near[2] > q_binomial(None, n, k)

    def test_pair_power(self):
        assert q_pair_power(None, F(2), F(3), 4) == 5 ** 4


class TestScalarMemo:
    """The public scalars read one bounded memo; these pin what it may not change."""

    def test_public_scalars_are_plain_functions(self):
        # the memo sits behind them, so they stay traceable and validate every call
        for fn in (q_number, q_factorial, q_binomial, q_binomial_row, gauss_exponent,
                   q_pair_power):
            assert isinstance(fn, types.FunctionType)

    def test_out_of_range_raises_after_a_cached_hit(self):
        q = QParam(F(2, 7))
        assert q_binomial(q, 3, 2) == q_binomial(q, 3, 2)  # the second read is a hit
        with pytest.raises(ValueError):
            q_binomial(q, 3, 5)
        with pytest.raises(ValueError):
            q_factorial(q, -1)
        assert q_binomial_row(q, 3) == q_binomial_row(q, 3)
        with pytest.raises(ValueError):
            q_binomial_row(q, -1)

    def test_float_indices_raise_after_a_cached_hit(self):
        # a float hashes and compares like its int, so it would read the int's entry
        q = QParam(F(1, 2))
        assert q_binomial(q, 4, 2) == F(35, 16)
        assert q_factorial(q, 3) == F(21, 8)
        assert q_pair_power(q, 1, 1, 3) == q_pair_power(q, 1, 1, 3)
        assert q_binomial_row(q, 4)[2] == F(35, 16)
        for call in (lambda: q_binomial(q, 4, 2.0), lambda: q_binomial(q, 4.0, 2),
                     lambda: q_binomial_row(q, 4.0),
                     lambda: q_factorial(q, 3.0), lambda: q_pair_power(q, 1, 1, 3.0)):
            with pytest.raises(TypeError):
                call()

    def test_deep_factorial_keeps_its_q_integers_out(self):
        q = QParam(F(23, 29))
        q_binomial(q, 3, 1)
        before = scalar_memo.cache_info()
        q_binomial(q, 300, 140)  # cold: the binomial alone, with no q-factorial
        after = scalar_memo.cache_info()
        assert after.misses - before.misses <= 4
        q_binomial(q, 3, 1)  # read before the deep call, still held
        assert scalar_memo.cache_info().hits == after.hits + 1

    def test_a_binomial_row_is_one_entry(self):
        q = QParam(F(19, 31))
        before = scalar_memo.cache_info()
        row = q_binomial_row(q, 30)
        assert scalar_memo.cache_info().misses - before.misses == 1 and len(row) == 31
        assert q_binomial_row(q, 30) is row  # read back, not rebuilt

    def test_more_q_values_than_the_bound(self):
        bound = scalar_memo.cache_info().maxsize
        assert bound is not None
        for d in range(3, bound + 103):
            q_number(QParam(F(1, d)), 2)
        info = scalar_memo.cache_info()
        assert info.currsize <= bound
        # an early q was evicted, and its value is still exact when rebuilt
        assert q_number(QParam(F(1, 3)), 2) == F(4, 3)


def _pascal_rows(q: F, n_max: int) -> list[list[F]]:
    """Gaussian binomials by [n k] = [n-1 k-1] + q^k [n-1 k], with no memo."""
    rows = [[F(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [F(0)]
        rows.append([F(1)] + [prev[k - 1] + q ** k * prev[k] for k in range(1, n + 1)])
    return rows


# q = a/b with |a|, b <= 20, on both sides of (0, 1), never 0, 1 or -1
random_q = st.builds(F, st.integers(-20, 20), st.integers(1, 20)).filter(
    lambda v: v not in (0, 1, -1)
)


@settings(max_examples=25, deadline=None)
@given(value=random_q)
def test_memoized_scalars_match_uncached_oracles(value):
    n_max = 12
    q = QParam(value)
    for _ in range(2):  # the first pass may fill the memo, the second reads it
        for n, row in enumerate(_pascal_rows(value, n_max)):
            assert [q_binomial(q, n, k) for k in range(n + 1)] == row
            assert list(q_binomial_row(q, n)) == row
            assert q_number(q, n) == (1 - value ** n) / (1 - value)
            product = math.prod(((1 - value ** j) / (1 - value) for j in range(1, n + 1)), start=F(1))
            assert q_factorial(q, n) == product

import random
from fractions import Fraction as F

import pytest

from qbern.poly import Poly2, X, Y
from qbern.qcore import QParam, q_factorial, q_number, gauss_exponent
from qbern.series import Series, Eq_series, eq_series

Q2 = QParam(F(1, 2))
QS = [QParam(F(1, 2)), QParam(F(1, 3)), QParam(F(3, 4))]


def from_scalars(*vals):
    return Series([Poly2.const(v) for v in vals])


class TestMul:
    def test_one_minus_t_squared(self):
        a = from_scalars(1, 1, 0, 0)
        b = from_scalars(1, -1, 0, 0)
        assert a * b == from_scalars(1, 0, -1, 0)

    def test_multiplicative_identity(self):
        a = from_scalars(2, F(1, 3), -5)
        assert a * Series.one(2) == a

    def test_geometric_telescoping(self):
        geo = from_scalars(1, 1, 1, 1, 1)
        assert geo * from_scalars(1, -1, 0, 0, 0) == Series.one(4)

    def test_truncates_to_smaller_order(self):
        a = from_scalars(1, 1, 1, 1)
        b = from_scalars(1, 1)
        assert (a * b).order == 1


class TestReciprocal:
    def test_geometric(self):
        assert from_scalars(1, 1, 0, 0).reciprocal() == from_scalars(1, -1, 1, -1)

    def test_one(self):
        assert Series.one(5).reciprocal() == Series.one(5)

    def test_eq_reciprocal_is_big_exponential(self):
        assert eq_series(Q2, 1, 3).reciprocal() == Eq_series(Q2, -1, 3)

    def test_requires_constant_unit(self):
        with pytest.raises(ValueError):
            Series([Poly2.zero(), Poly2.one()]).reciprocal()
        with pytest.raises(ValueError):
            Series([X]).reciprocal()

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            order = rng.randint(1, 16)
            coeffs = [Poly2.const(F(rng.randint(1, 5)))]
            for _ in range(order):
                coeffs.append(Poly2.const(F(rng.randint(-4, 4), rng.randint(1, 4))))
            a = Series(coeffs)
            assert a * a.reciprocal() == Series.one(order)


class TestIntPower:
    def test_zeroth(self):
        assert from_scalars(3, 1, 4).int_power(0) == Series.one(2)

    def test_first(self):
        a = from_scalars(3, 1, 4)
        assert a.int_power(1) == a

    def test_negative_two(self):
        assert from_scalars(1, 1, 0).int_power(-2) == from_scalars(1, -2, 3)

    def test_matches_repeated_products(self):
        a = from_scalars(2, F(1, 3), -5, 1)
        inv = a.reciprocal()
        power, inv_power = a, inv
        for n in range(1, 10):
            assert a.int_power(n) == power
            assert a.int_power(-n) == inv_power
            power, inv_power = power * a, inv_power * inv

    @pytest.mark.parametrize("exponent, products", [(1, 0), (-1, 0), (3, 2), (4, 2)])
    def test_series_product_count(self, monkeypatch, exponent, products):
        # starts from the base, never multiplies by one and never squares past the last bit
        calls = []
        mul = Series.__mul__
        monkeypatch.setattr(Series, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        from_scalars(1, 1, 0).int_power(exponent)
        assert len(calls) == products


class TestExponentials:
    def test_zero_argument(self):
        assert eq_series(Q2, 0, 4) == Series.one(4)
        assert Eq_series(Q2, 0, 4) == Series.one(4)

    def test_eq_coefficients(self):
        s = eq_series(Q2, X, 2)
        assert s.coeffs == (Poly2.one(), X, F(2, 3) * X**2)

    def test_big_eq_coefficients(self):
        s = Eq_series(Q2, Y, 2)
        assert s.coeffs == (Poly2.one(), Y, F(1, 3) * Y**2)

    def test_constant_coefficient_is_one(self):
        for q in QS:
            assert eq_series(q, X, 3).coeffs[0] == Poly2.one()
            assert Eq_series(q, Y, 3).coeffs[0] == Poly2.one()

    def test_product_inverse_identity(self):
        for q in QS:
            prod = eq_series(q, 1, 16) * Eq_series(q, -1, 16)
            assert prod == Series.one(16)

    def test_classical_flavour(self):
        s = eq_series(None, X, 3)
        assert s.coeffs[3] == F(1, 6) * X**3
        assert Eq_series(None, X, 3) == s  # triangular weight collapses to 1


class TestDerivativeLadders:
    def test_small_exponential_is_fixed_point(self):
        # D_q applied to coefficient n of e(tx) gives [n] times coefficient n-1
        for q in QS:
            s = eq_series(q, X, 10)
            for n in range(1, 11):
                a_n = s.coeffs[n] * q_factorial(q, n)
                a_prev = s.coeffs[n - 1] * q_factorial(q, n - 1)
                assert a_n.jackson("x", q) == q_number(q, n) * a_prev

    def test_big_exponential_picks_up_q_shift(self):
        for q in QS:
            s = Eq_series(q, Y, 10)
            for n in range(1, 11):
                a_n = s.coeffs[n] * q_factorial(q, n)
                shifted_prev = (s.coeffs[n - 1] * q_factorial(q, n - 1)).scale_var("y", q.value)
                assert a_n.jackson("y", q) == q_number(q, n) * shifted_prev

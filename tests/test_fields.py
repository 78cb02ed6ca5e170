"""Field backends: exact arithmetic, valuations, iterated-root partial sums."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from valkit.errors import (
    BackendMismatchError,
    NonNegativeValuationWarning,
    ValueNotRepresentableError,
)
from valkit.fields import (
    Backend,
    HahnElem,
    PAdicRational,
    RationalFunctionElem,
    artin_schreier_partial_sum,
    parse_hahn,
    valuation,
)
from valkit.groups import ExtValue, rat1


def hahn(p, *terms):
    return HahnElem.make({Fraction(e): c for e, c in terms}, p)


class TestValuations:
    def test_padic_twelve(self):
        assert valuation(PAdicRational(Fraction(12), 2)) == ExtValue.of(rat1(2))

    def test_padic_sum(self):
        x = PAdicRational(Fraction(1, 3), 3)
        assert valuation(x + x) == ExtValue.of(rat1(-1))

    def test_padic_zero_is_infinite(self):
        assert valuation(PAdicRational(Fraction(0), 2)).is_infinite

    def test_hahn_min_exponent(self):
        x = hahn(2, ("-1/2", 1), ("3", 1))
        assert valuation(x) == ExtValue.of(rat1(Fraction(-1, 2)))

    def test_ratfun_order_difference(self):
        x = RationalFunctionElem.make([0, 0, 1], [1, 1], 5)  # t^2/(1+t)
        assert valuation(x) == ExtValue.of(rat1(2))


class TestArithmetic:
    def test_char2_frobenius_square(self):
        x = hahn(2, ("-1", 1), ("-1/2", 1))
        assert x * x == hahn(2, ("-2", 1), ("-1", 1))

    def test_hahn_division_exact(self):
        a = hahn(3, ("-1", 2), ("1/3", 1))
        b = hahn(3, ("2", 1), ("7/3", 2))
        assert (a * b) / b == a

    def test_hahn_monomial_division(self):
        a = hahn(2, ("-1", 1), ("0", 1))
        t = hahn(2, ("1", 1))
        assert a / t == hahn(2, ("-2", 1), ("-1", 1))

    def test_hahn_inexact_division_raises(self):
        one = hahn(2, ("0", 1))
        one_plus_t = hahn(2, ("0", 1), ("1", 1))
        with pytest.raises(ValueNotRepresentableError):
            one / one_plus_t

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PAdicRational(Fraction(1), 2) / PAdicRational(Fraction(0), 2)

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatchError):
            PAdicRational(Fraction(1), 2) + PAdicRational(Fraction(1), 3)
        with pytest.raises(BackendMismatchError):
            hahn(2, ("0", 1)) + PAdicRational(Fraction(1), 2)

    def test_ratfun_field_ops(self):
        t = RationalFunctionElem.make([0, 1], [1], 3)
        one = RationalFunctionElem.make([1], [1], 3)
        x = (one + t) * (one + t)
        assert x / (one + t) == one + t
        assert (t**3).num == (0, 0, 0, 1)


class TestBackendConstructors:
    def test_element_from_value(self):
        b2 = Backend("hahn", 2)
        e = b2.element_from_value(Fraction(-1, 8))
        assert valuation(e) == ExtValue.of(rat1(Fraction(-1, 8)))
        bp = Backend("padic", 3)
        assert bp.element_from_value(2).value == Fraction(9)
        with pytest.raises(ValueNotRepresentableError):
            bp.element_from_value(Fraction(1, 2))

    def test_from_int_characteristic(self):
        assert Backend("hahn", 3).from_int(3).is_zero()
        assert not Backend("padic", 3).from_int(3).is_zero()

    @pytest.mark.parametrize("text", ["1", "-1"])
    def test_parse_hahn_plain_constant(self, text):
        assert parse_hahn(text, 2) == parse_hahn(f"{text}*t^(0)", 2)
        assert parse_hahn(text, 3) == parse_hahn(f"{text}*t^(0)", 3)

    def test_parse_hahn_roundtrip(self):
        text = "1*t^(-1)+1*t^(-1/2)"
        x = parse_hahn(text, 2)
        assert x == hahn(2, ("-1", 1), ("-1/2", 1))
        assert parse_hahn(str(x), 2) == x


class TestPartialSums:
    def test_literal_sum_p2(self):
        a = hahn(2, ("-1", 1))
        s2 = artin_schreier_partial_sum(2, a, 2)
        assert s2 == hahn(2, ("-1", 1), ("-1/2", 1), ("-1/4", 1))

    def test_literal_sum_p3(self):
        a = hahn(3, ("-1", 1))
        s1 = artin_schreier_partial_sum(3, a, 1)
        assert s1 == hahn(3, ("-1", 1), ("-1/3", 1))

    def test_zeroth_sum_is_a(self):
        a = hahn(2, ("-1", 1))
        assert artin_schreier_partial_sum(2, a, 0) == a

    def test_nonnegative_valuation_flagged(self):
        a = hahn(2, ("1", 1))
        with pytest.warns(NonNegativeValuationWarning):
            artin_schreier_partial_sum(2, a, 1)


class TestValueLawOracle:
    """Exact evaluation law: v(g(s_n)) = v(a)/p**n for s_n the sum of the
    first n iterated p-th roots of a.  This is the independent oracle the
    acceptance suite builds on."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_g_value_law(self, p):
        backend = Backend("hahn", p)
        a = backend.element_from_value(-1)
        va = Fraction(-1)
        for n in range(0, 9):
            s_n = artin_schreier_partial_sum(p, a, n) - a  # roots 1..n
            g_at = s_n**p - s_n - a
            assert valuation(g_at) == ExtValue.of(rat1(va / p**n))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_frobenius_valuation_compatibility(self, p):
        backend = Backend("hahn", p)
        x = hahn(p, ("-1/2", 1), ("1/3", p - 1), ("2", 1))
        v = valuation(x).expect_finite()
        assert valuation(x**p) == ExtValue.of(v.scale(p))


small_fractions = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


def hahn_elems(p):
    return st.lists(
        st.tuples(small_fractions, st.integers(1, p - 1)), min_size=0, max_size=3
    ).map(lambda terms: HahnElem.make(dict(terms), p))


class TestUltrametric:
    @given(
        st.fractions(max_denominator=20, min_value=-20, max_value=20),
        st.fractions(max_denominator=20, min_value=-20, max_value=20),
    )
    def test_padic(self, x, y):
        a, b = PAdicRational(x, 2), PAdicRational(y, 2)
        va, vb, vs = valuation(a), valuation(b), valuation(a + b)
        assert vs >= va or vs >= vb
        if va != vb:
            assert vs == (va if va < vb else vb)

    @given(hahn_elems(3), hahn_elems(3))
    def test_hahn(self, a, b):
        va, vb, vs = valuation(a), valuation(b), valuation(a + b)
        assert vs >= va or vs >= vb
        if va != vb:
            assert vs == (va if va < vb else vb)

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 4), st.integers(1, 4))
    def test_ratfun(self, n1, n2, d1, d2):
        a = RationalFunctionElem.make([n1 % 5, 1], [1] + [0] * d1 + [1], 5)
        b = RationalFunctionElem.make([n2 % 5], [1, 1, d2 % 5], 5)
        if a.is_zero() or b.is_zero():
            return
        va, vb, vs = valuation(a), valuation(b), valuation(a + b)
        assert vs >= va or vs >= vb
        if va != vb:
            assert vs == (va if va < vb else vb)

    @given(hahn_elems(2), hahn_elems(2))
    def test_multiplicativity_hahn(self, a, b):
        va, vb = valuation(a), valuation(b)
        assert valuation(a * b) == va + vb

"""Field backends: exact arithmetic, valuations, iterated-root centers."""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from lemmas import least, uniformizer_power
from valkit import cli
from valkit.cli import parse_config_dict, run
from valkit.errors import (
    BackendMismatchError,
    ConfigError,
    HypothesisViolatedError,
    ValkitError,
    ValueNotRepresentableError,
)
from valkit.fields import (
    _SPAN,
    INTEGER,
    Backend,
    HahnElem,
    PAdicRational,
    _p_power,
    _padic,
    _padic_order,
    parse_hahn,
    valuation,
)
from valkit.groups import rat1
from valkit.keyseq import artin_schreier_family, artin_schreier_poly


def hahn(p, *terms):
    return HahnElem.make({Fraction(e): c for e, c in terms}, p)


class TestValuations:
    def test_padic_twelve(self):
        assert valuation(PAdicRational(Fraction(12), 2)) == rat1(2)

    def test_padic_sum(self):
        x = PAdicRational(Fraction(1, 3), 3)
        assert valuation(x + x) == rat1(-1)

    def test_padic_zero_is_infinite(self):
        assert valuation(PAdicRational(Fraction(0), 2)) is None

    def test_hahn_min_exponent(self):
        x = hahn(2, ("-1/2", 1), ("3", 1))
        assert valuation(x) == rat1(Fraction(-1, 2))


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


class TestBackendConstructors:
    def test_element_from_value(self):
        # The artin-schreier scenario's a = t^va, as the scenario builds it.
        e = HahnElem.make({Fraction(-1, 8): 1}, 2)
        assert valuation(e) == rat1(Fraction(-1, 8))

    @pytest.mark.parametrize("kind", ["padic", "hahn"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_zero_and_one_are_the_integers(self, kind, p):
        backend = Backend(kind, p)
        assert backend.zero() == backend.from_int(0) and backend.zero().is_zero()
        assert backend.one() == backend.from_int(1)
        assert backend.one() * backend.one() == backend.one()

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
        assert parse_hahn(model_str(model_of(x)), 2) == x


def root_sum(a: HahnElem, n: int) -> HahnElem:
    """sum_{i=1..n} a**(1/p**i), one root at a time, independent of the family."""
    acc = HahnElem.make({}, a.p)
    for i in range(1, n + 1):
        acc = acc + a.frobenius_root(i)
    return acc


def family_of(a: HahnElem):
    """The Artin-Schreier family of g = x^p - x - a."""
    backend = Backend("hahn", a.p)
    return artin_schreier_family(backend, artin_schreier_poly(backend, a))


def outside_wp_plus_integers(a: HahnElem) -> bool:
    """Whether a lies outside {b^p - b} + O_K, by pairs of exponents.

    Two negative exponents e and f share a class when f/e is a power of p
    (k in Z); a lies outside exactly when some class sums to a nonzero
    coefficient mod p.
    """

    def p_power(r: Fraction) -> bool:
        n = r.numerator * r.denominator
        while n % a.p == 0:
            n //= a.p
        return r > 0 and n == 1

    negative = [(e, c) for e, c in model_of(a).items() if e < 0]
    return any(sum(c for f, c in negative if p_power(f / e)) % a.p for e, _ in negative)


class TestPartialSums:
    """The Artin-Schreier family's centers s_n = sum_{i=1..n-1} a**(1/p**i)."""

    def test_literal_sum_p2(self):
        s3 = family_of(hahn(2, ("-1", 1))).center(3)
        assert s3 == hahn(2, ("-1/2", 1), ("-1/4", 1))

    def test_literal_sum_p3(self):
        s2 = family_of(hahn(3, ("-1", 1))).center(2)
        assert s2 == hahn(3, ("-1/3", 1))

    def test_first_center_is_zero(self):
        assert family_of(hahn(2, ("-1", 1))).center(1).is_zero()

    def test_nonnegative_valuation_rejected_at_parse(self):
        for va in ("0", "1/2"):
            with pytest.raises(ConfigError, match="va must be negative"):
                parse_config_dict({"scenario": "artin-schreier", "va": va})
        # A custom stage reads a = t off g = x^2 + x + t: a lies in O_K.
        report = run(parse_config_dict({
            "scenario": "custom", "backend": "hahn", "p": 2, "g": ["1*t^(1)", "1", "1"],
            "stages": [{"family": "artin_schreier"}], "oracle": "stabilization",
        }))
        assert report["exit_code"] == 3
        assert report["error"].startswith("HypothesisViolatedError: the artin_schreier family")

    @given(
        st.sampled_from([2, 3, 5]),
        st.lists(
            st.tuples(st.fractions(-8, 8, max_denominator=6), st.integers(1, 4)),
            min_size=1, max_size=3,
        ),
        st.permutations(range(1, 9)),
    )
    def test_centers_equal_root_sums_in_any_order(self, p, terms, order):
        a = HahnElem.make({e: c % p or 1 for e, c in terms}, p)
        assume(outside_wp_plus_integers(a))
        family = family_of(a)
        for n in order:
            center = family.center(n)
            assert_canonical(center)
            assert center == root_sum(a, n - 1)
        assert family.center(7) is family.center(7)  # one memo, filled once

    def test_late_center_first(self):
        a = hahn(3, ("-2/3", 2), ("1", 1))
        family = family_of(a)
        assert family.center(7) == root_sum(a, 6)
        assert family.center(3) == root_sum(a, 2)

    @given(st.sampled_from([2, 3, 5]), st.data())
    def test_the_family_takes_exactly_a_outside_wp_plus_integers(self, p, data):
        a = data.draw(hahn_elems(p))
        try:
            family_of(a)
        except HypothesisViolatedError:
            assert not outside_wp_plus_integers(a)
        else:
            assert outside_wp_plus_integers(a)
        # b^p - b + c with v(c) >= 0 is always refused.
        b, c = data.draw(hahn_elems(p)), data.draw(hahn_elems(p))
        c = HahnElem.make({e: k for e, k in model_of(c).items() if e >= 0}, p)
        with pytest.raises(HypothesisViolatedError, match="outside"):
            family_of(b.frobenius() - b + c)


class TestValueLawOracle:
    """Exact evaluation law: v(g(s_n)) = v(a)/p**n for s_n the sum of the
    first n iterated p-th roots of a.  This is the independent oracle the
    acceptance suite builds on."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_g_value_law(self, p):
        backend = Backend("hahn", p)
        a = uniformizer_power(backend, -1)
        va = Fraction(-1)
        for n in range(0, 9):
            s_n = root_sum(a, n)  # roots 1..n
            g_at = s_n**p - s_n - a
            assert valuation(g_at) == rat1(va / p**n)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_frobenius_valuation_compatibility(self, p):
        backend = Backend("hahn", p)
        x = hahn(p, ("-1/2", 1), ("1/3", p - 1), ("2", 1))
        v = valuation(x)
        assert valuation(x**p) == v.scale(p)


small_fractions = st.fractions(Fraction(-8), Fraction(8), max_denominator=6)


def hahn_elems(p):
    return st.lists(
        st.tuples(small_fractions, st.integers(1, p - 1)), min_size=0, max_size=3
    ).map(lambda terms: HahnElem.make(dict(terms), p))


def assert_ultrametric(va, vb, vs):
    """v(a + b) >= min(v(a), v(b)), with equality when they differ; None is infinity."""
    low = least([va, vb])
    assert vs is None or (low is not None and vs >= low)
    if va != vb:
        assert vs == low


class TestUltrametric:
    @given(
        st.fractions(-20, 20, max_denominator=20),
        st.fractions(-20, 20, max_denominator=20),
    )
    def test_padic(self, x, y):
        a, b = PAdicRational(x, 2), PAdicRational(y, 2)
        assert_ultrametric(valuation(a), valuation(b), valuation(a + b))

    @given(hahn_elems(3), hahn_elems(3))
    def test_hahn(self, a, b):
        assert_ultrametric(valuation(a), valuation(b), valuation(a + b))

    @given(hahn_elems(2), hahn_elems(2))
    def test_multiplicativity_hahn(self, a, b):
        va, vb = valuation(a), valuation(b)
        want = None if va is None or vb is None else va + vb
        assert valuation(a * b) == want


# --- HahnElem against a reference model --------------------------------------
#
# The model is a plain {Fraction exponent: coefficient mod p} dict, so it
# shares no code with the integer-exponent representation it checks.


def model_of(x: HahnElem) -> dict:
    return {Fraction(n, x.den): c for n, c in x.terms}


def model_norm(m: dict, p: int) -> dict:
    return {e: c % p for e, c in m.items() if c % p}


def model_add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return model_norm(out, p)


def model_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return model_norm(out, p)


def model_str(m: dict) -> str:
    return "+".join(f"{m[e]}*t^({e})" for e in sorted(m)) or "0"


def assert_canonical(x: HahnElem) -> None:
    ns = [n for n, _ in x.terms]
    assert x.den >= 1 and ns == sorted(set(ns))
    assert all(1 <= c < x.p for _, c in x.terms)
    assert math.gcd(x.den, *ns) == 1  # zero is ((), 1)


def assert_matches(x: HahnElem, m: dict) -> None:
    assert_canonical(x)
    assert model_of(x) == m
    rebuilt = HahnElem.make(m, x.p)
    assert x == rebuilt and hash(x) == hash(rebuilt)


@st.composite
def hahn_models(draw, p, max_terms=4, allow_zero=True):
    """A model whose exponents have denominators d * p**k."""
    m = {}
    for _ in range(draw(st.integers(0 if allow_zero else 1, max_terms))):
        den = draw(st.integers(1, 6)) * p ** draw(st.integers(0, 2))
        m[Fraction(draw(st.integers(-12, 12)), den)] = draw(st.integers(1, p - 1))
    return m


@st.composite
def model_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return p, draw(hahn_models(p)), draw(hahn_models(p))


@st.composite
def overlapping_pairs(draw):
    """a and b share part of their support; some shared terms cancel.

    A shared exponent gets the coefficient that cancels in a + b, the one
    that cancels in a - b, or another one; b may carry further terms whose
    denominators differ from a's by powers of p.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    ma = draw(hahn_models(p, max_terms=5, allow_zero=False))
    mb = {}
    for e, c in ma.items():
        kind = draw(st.sampled_from(["absent", "cancel_add", "cancel_sub", "other"]))
        if kind == "cancel_add":
            mb[e] = (-c) % p
        elif kind == "cancel_sub":
            mb[e] = c
        elif kind == "other":
            mb[e] = draw(st.integers(1, p - 1))
    for e, c in draw(hahn_models(p)).items():
        mb.setdefault(e, c)
    return p, ma, mb


@st.composite
def p_power_denominator_pairs(draw):
    """b's terms are a's p**k-th roots, mixed with a's own terms: the family's shape."""
    p = draw(st.sampled_from([2, 3, 5]))
    ma = draw(hahn_models(p))
    k = draw(st.integers(0, 3))
    mb = {e / p**k: c for e, c in ma.items()}
    for e in draw(st.lists(st.sampled_from(sorted(ma)), unique=True)) if ma else ():
        mb[e] = draw(st.integers(1, p - 1))
    return p, ma, mb


def assert_sums(p, ma, mb):
    a, b = HahnElem.make(ma, p), HahnElem.make(mb, p)
    neg_b = {e: -c for e, c in mb.items()}
    assert_matches(a + b, model_add(ma, mb, p))
    assert_matches(a - b, model_add(ma, neg_b, p))
    assert_matches(b + a, model_add(ma, mb, p))
    assert_matches(b - a, model_add(mb, {e: -c for e, c in ma.items()}, p))
    assert_matches(a + (-b), model_add(ma, neg_b, p))


class TestHahnAgainstModel:
    @given(model_pairs())
    def test_ring_operations(self, case):
        p, ma, mb = case
        a, b = HahnElem.make(ma, p), HahnElem.make(mb, p)
        assert_matches(a, ma)
        assert_matches(a + b, model_add(ma, mb, p))
        assert_matches(-b, model_norm({e: -c for e, c in mb.items()}, p))
        assert_matches(a - b, model_add(ma, {e: -c for e, c in mb.items()}, p))
        assert_matches(a * b, model_mul(ma, mb, p))
        cube = model_mul(model_mul(ma, ma, p), ma, p) if ma else {}
        assert_matches(a**3, cube)
        assert_matches(a**0, {Fraction(0): 1})

    @given(overlapping_pairs())
    def test_sums_with_cancellation(self, case):
        p, ma, mb = case
        a = HahnElem.make(ma, p)
        for zero in (a - a, a + (-a), -a + a):
            assert_matches(zero, {})
            assert (zero.terms, zero.den) == ((), 1)
        assert_sums(p, ma, mb)

    @given(p_power_denominator_pairs())
    def test_sums_over_p_power_denominators(self, case):
        assert_sums(*case)

    @pytest.mark.parametrize(
        "p, ma, mb, den",
        [
            # the 1/2 terms cancel and the denominator drops back to 1
            (3, {Fraction(1, 2): 1, Fraction(1): 2}, {Fraction(1, 2): 2}, 1),
            # a root and its base: only the base term is left, over den 1
            (2, {Fraction(-1, 4): 1, Fraction(-1): 1}, {Fraction(-1, 4): 1}, 1),
            # denominators 5 and 25: the 1/25 parts cancel, 1/5 is left
            (5, {Fraction(-1, 5): 1, Fraction(3, 25): 4}, {Fraction(3, 25): 1, Fraction(2): 3}, 5),
        ],
    )
    def test_cancellation_reduces_denominator(self, p, ma, mb, den):
        assert_sums(p, ma, mb)
        assert (HahnElem.make(ma, p) + HahnElem.make(mb, p)).den == den

    @given(model_pairs(), st.integers(0, 3))
    def test_valuation_str_and_roots(self, case, k):
        p, ma, _ = case
        a = HahnElem.make(ma, p)
        if ma:
            assert valuation(a) == rat1(min(ma))
        else:
            assert valuation(a) is None
        assert parse_hahn(model_str(ma), p) == a
        assert_matches(a.frobenius_root(k), {e / p**k: c for e, c in ma.items()})

    @given(model_pairs(), st.data())
    def test_exact_division(self, case, data):
        p, ma, mb = case
        mono = data.draw(hahn_models(p, max_terms=1, allow_zero=False))
        (e0, c0), = mono.items()
        a = HahnElem.make(ma, p)
        inv = pow(c0, p - 2, p)
        quotient = model_norm({e - e0: c * inv for e, c in ma.items()}, p)
        assert_matches(a / HahnElem.make(mono, p), quotient)
        if mb:
            # a multi-term quotient that is exact by construction
            product = HahnElem.make(model_mul(ma, mb, p), p)
            assert_matches(product / HahnElem.make(mb, p), ma)

    @given(model_pairs())
    def test_routes_agree(self, case):
        p, ma, mb = case
        a, b = HahnElem.make(ma, p), HahnElem.make(mb, p)
        for other in ((a + b) - b, (a - b) + b, b + a - b):
            assert other == a and hash(other) == hash(a)

    @given(model_pairs(), st.integers(0, 2))
    def test_frobenius_is_the_p_power_map(self, case, k):
        p, ma, _ = case
        a = HahnElem.make(ma, p)
        assert_matches(a.frobenius(k), {e * p**k: c for e, c in ma.items()})
        assert a.frobenius(k) == a ** p**k
        assert a.frobenius(k).frobenius_root(k) == a
        assert a.frobenius_root(k).frobenius(k) == a

    @given(model_pairs(), st.data())
    def test_monomial_products_match_the_dict_product(self, case, data):
        # model_mul sums every pair of terms in a dict, as products of two
        # longer elements still do.
        p, ma, _ = case
        mono = data.draw(hahn_models(p, max_terms=1, allow_zero=False))
        a, m = HahnElem.make(ma, p), HahnElem.make(mono, p)
        product = model_mul(ma, mono, p)
        assert_matches(a * m, product)
        assert_matches(m * a, product)

    def test_equal_exponents_from_different_routes(self):
        assert parse_hahn("1*t^(2/4)", 3) == parse_hahn("1*t^(1/2)", 3)
        assert hash(parse_hahn("1*t^(2/4)", 3)) == hash(parse_hahn("1*t^(1/2)", 3))
        half = hahn(2, ("1/2", 1))
        assert half * half == hahn(2, ("1", 1)) and (half * half).den == 1
        root = hahn(3, ("3", 1)).frobenius_root(1)
        assert root == hahn(3, ("1", 1)) and root.den == 1
        zero = half - half
        assert zero == HahnElem.make({}, 2) and (zero.terms, zero.den) == ((), 1)


# ---------------------------------------------------------------------------
# PAdicRational against a plain Fraction model
# ---------------------------------------------------------------------------


def padic(p, x: Fraction) -> PAdicRational:
    return Backend("padic", p).parse(f"{x.numerator}/{x.denominator}")


def model_order(x: Fraction, p: int) -> int:
    """The p-adic order of a nonzero rational, by the largest dividing power."""

    def power(n: int) -> int:
        k = 0
        while n % p ** (k + 1) == 0:
            k += 1
        return k

    return power(x.numerator) - power(x.denominator)


def assert_padic(x: PAdicRational, m: Fraction) -> None:
    assert x.value == m
    assert (type(x.value) is int) == (m.denominator == 1)
    rebuilt = padic(x.p, m)
    assert x == rebuilt and hash(x) == hash(rebuilt)


@st.composite
def padic_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rationals = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 60))
    return p, draw(rationals), draw(rationals)


class TestPAdicAgainstModel:
    @given(padic_pairs())
    def test_field_operations(self, case):
        p, ma, mb = case
        a, b = padic(p, ma), padic(p, mb)
        assert_padic(a, ma)
        assert_padic(a + b, ma + mb)
        assert_padic(a - b, ma - mb)
        assert_padic(-a, -ma)
        assert_padic(a * b, ma * mb)
        if mb:
            assert_padic(a / b, ma / mb)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b

    @given(padic_pairs(), st.integers(-3, 3))
    def test_powers_and_valuation(self, case, k):
        p, ma, _ = case
        a = padic(p, ma)
        if ma == 0 and k < 0:
            with pytest.raises(ZeroDivisionError):
                a**k
        else:
            assert_padic(a**k, ma**k)
        if ma:
            assert valuation(a) == rat1(model_order(ma, p))
        else:
            assert valuation(a) is None

    @given(padic_pairs())
    def test_routes_agree(self, case):
        p, ma, mb = case
        a, b = padic(p, ma), padic(p, mb)
        routes = [(a + b) - b, (a - b) + b, b + a - b]
        if mb:
            routes += [(a * b) / b, (a / b) * b]
        for other in routes:
            assert other == a and hash(other) == hash(a)
            assert type(other.value) is type(a.value)

    def test_equal_values_from_different_routes(self):
        padic3 = Backend("padic", 3)
        three = padic3.from_int(3)
        for other in (
            padic3.parse("6/2"),
            padic3.from_int(6) / padic3.from_int(2),
            padic3.parse("1/2") * padic3.from_int(6),
            (padic3.parse("1/3") ** -1),
        ):
            assert other == three and hash(other) == hash(three)
            assert type(other.value) is int


# ---------------------------------------------------------------------------
# Raw orders and the one valuation built from them
# ---------------------------------------------------------------------------


def order_one_p_at_a_time(x: Fraction, p: int) -> int:
    """Reference p-adic order: divide out a single p per step."""
    num, den, k = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        k += 1
    while den % p == 0:
        den //= p
        k -= 1
    return k


@st.composite
def rationals_of_order(draw):
    """A nonzero int or Fraction, either sign, with p**k on one side, k <= 200.

    k reaches past 3 * _SPAN, so the order's recursion on n // p**_SPAN runs
    several times, also for a prime whose powers are far wider than n.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 101, 2**61 - 1]))
    k = draw(st.integers(0, 200))
    num = draw(st.integers(1, 10**6)) * draw(st.sampled_from([1, -1]))
    den = draw(st.integers(1, 10**6))
    if draw(st.booleans()):
        return p, num * p**k
    if draw(st.booleans()):
        return p, Fraction(num * p**k, den)
    return p, Fraction(num, den * p**k)


class TestOrders:
    @given(rationals_of_order())
    def test_padic_order_matches_reference(self, case):
        p, x = case
        assert _padic_order(x, p) == order_one_p_at_a_time(Fraction(x), p)
        for n in (x.numerator, x.denominator):
            assert _p_power(n, p) == order_one_p_at_a_time(Fraction(n), p)

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_element_order_beyond_three_spans(self, p):
        backend = Backend("padic", p)
        big = backend.from_int(-7 * p ** (3 * _SPAN + 1))
        assert big.order() == 3 * _SPAN + 1
        assert (backend.one() / big).order() == -(3 * _SPAN + 1)

    def test_composite_p_is_refused(self):
        assert Backend("padic", 6).from_int(6).order() == 1
        with pytest.raises(ValkitError, match="prime p, got 6"):
            Backend("padic", 6).from_int(12).order()

    @given(padic_pairs())
    def test_padic_valuation_is_built_from_order(self, case):
        p, ma, _ = case
        a = padic(p, ma)
        if ma == 0:
            assert a.order() is None and valuation(a) is None
        else:
            assert a.order() == order_one_p_at_a_time(ma, p)
            assert valuation(a) == rat1(a.order())

    @given(model_pairs())
    def test_hahn_valuation_is_built_from_order(self, case):
        p, ma, _ = case
        a = HahnElem.make(ma, p)
        if not ma:
            assert a.order() is None and valuation(a) is None
        else:
            assert a.order() == min(ma)
            assert valuation(a) == rat1(a.order())


# ---------------------------------------------------------------------------
# The p-adic element kernel: table-driven orders and the slotted element
# ---------------------------------------------------------------------------


class TestIntegerParse:
    # Integer strings go through int(), every other one through Fraction.
    text = st.one_of(
        st.integers(-10**30, 10**30).map(str),
        st.builds(lambda n, d: f"{n}/{d}", st.integers(-99, 99), st.integers(1, 30)),
        st.integers(0, 999).map(lambda n: f"{n:04d}"),
    )

    @given(text, st.sampled_from(["", " ", "  ", "\t", "\n"]), st.sampled_from(["", " ", "\n"]),
           st.sampled_from([2, 3, 5, 7]))
    def test_parse_agrees_with_the_fraction_parse(self, text, before, after, p):
        parsed = Backend("padic", p).parse(before + text + after)
        expected = _padic(Fraction(text), p)
        assert parsed == expected and hash(parsed) == hash(expected)
        assert type(parsed.value) is type(expected.value)

    def test_one_integer_pattern(self):
        assert cli.INTEGER is INTEGER
        assert [bool(INTEGER.fullmatch(t)) for t in ("-12", "007", "+1", "1/2", "1.0", " 1")] == [
            True, True, False, False, False, False,
        ]


class TestSlottedElement:
    @pytest.mark.parametrize("p", [2, 3])
    def test_int_and_equal_fraction_elements_agree(self, p):
        backend = Backend("padic", p)
        six = backend.from_int(6)
        half = backend.parse("1/2")
        for other in (backend.parse("12/2"), _padic(Fraction(6), p), half * backend.from_int(12)):
            assert type(other.value) is int
            assert other == six and hash(other) == hash(six)
            assert repr(other) == repr(six) == f"PAdicRational(value=6, p={p})"
        # Built directly, a Fraction value still compares and hashes alike.
        raw = PAdicRational(Fraction(6), p)
        assert raw == six and hash(raw) == hash(six)

    def test_repr_and_foreign_equality_as_a_dataclass(self):
        third = Backend("padic", 3).parse("1/3")
        assert repr(third) == "PAdicRational(value=Fraction(1, 3), p=3)"
        assert hash(third) == hash((Fraction(1, 3), 3))
        assert third.__eq__(Fraction(1, 3)) is NotImplemented
        assert third != Fraction(1, 3)
        assert PAdicRational(1, 2) != PAdicRational(1, 3)

    def test_no_instance_dict(self):
        assert not hasattr(Backend("padic", 2).one(), "__dict__")

    @pytest.mark.parametrize("kind", ["padic", "hahn"])
    def test_an_int_operand_is_no_element(self, kind):
        one = Backend(kind, 3).one()
        for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
            with pytest.raises(BackendMismatchError):
                getattr(one, op)(1)

    @pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__", "__truediv__"])
    def test_mixing_primes_raises(self, op):
        a, b = Backend("padic", 2).one(), Backend("padic", 3).one()
        with pytest.raises(BackendMismatchError):
            getattr(a, op)(b)
        with pytest.raises(BackendMismatchError):
            getattr(a, op)(hahn(2, ("0", 1)))
        with pytest.raises(BackendMismatchError):
            getattr(a, op)(Fraction(1))

    def test_arithmetic_defined_in_the_class_body(self):
        # The traced benchmark wraps each of these through the class __dict__.
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__"):
            assert name in PAdicRational.__dict__

"""The support valuation and its truncations, in both oracle modes."""
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from valkit import cli
from valkit.errors import StabilizationBudgetExceededError, ValkitError
from valkit.fields import Backend, PAdicRational, valuation
from valkit.groups import ExtValue, rat1
from valkit.keyseq import artin_schreier_family, hensel_family
from valkit.poly import Poly, derivative, q_expand
from valkit.truncation import NuOracle


def as_setup(p):
    backend = Backend("hahn", p)
    a = backend.element_from_value(-1)
    coeffs = [-a, -backend.one()] + [backend.zero()] * (p - 2) + [backend.one()]
    g = Poly.make(backend, coeffs)
    family = artin_schreier_family(backend, a)
    nu = NuOracle.stabilization(g, family.center)
    return backend, g, family, nu


class TestNu:
    def test_support_is_infinite(self):
        _, g, _, nu = as_setup(2)
        assert nu.nu(g).is_infinite
        assert nu.nu(g * g).is_infinite

    def test_constant_one(self):
        backend, g, _, nu = as_setup(2)
        assert nu.nu(Poly.from_ints(backend, [1])) == ExtValue.of(rat1(0))

    @pytest.mark.parametrize("p", [2, 3])
    def test_key_values_from_later_partial_sums(self, p):
        backend, g, family, nu = as_setup(p)
        for n in range(1, 7):
            q = family.poly(n)
            assert nu.nu(q) == ExtValue.of(rat1(Fraction(-1, p**n)))

    def test_window_outlasts_early_agreement_and_transient_zero(self):
        backend = Backend("padic", 3)
        g = Poly.from_ints(backend, [-3, 0, 1])
        # nu(x) along these points: two agreeing orders, an exact zero that
        # breaks the run, then the stable order 4
        orders = [1, 1, None, 1, 4, 4, 4]
        points = [backend.zero() if k is None else backend.from_int(3**k) for k in orders]
        nu = NuOracle.stabilization(g, lambda n: points[n - 1], window=3, budget=len(points))
        assert nu.nu(Poly.x(backend)) == ExtValue.of(rat1(4))

    def test_budget_exceeded_carries_trace(self):
        backend, g, family, _ = as_setup(2)
        f0 = family.poly(4)
        for budget in (2, 5):
            nu = NuOracle.stabilization(g, family.center, window=3, budget=budget)
            with pytest.raises(StabilizationBudgetExceededError) as exc:
                nu.nu(f0)
            trace = list(exc.value.trace)
            terms = range(1, budget + 1)
            assert trace == [valuation(f0.eval(family.center(n))) for n in terms]
            # the family passes through the root of f0 at its fourth term
            assert [v.is_infinite for v in trace] == [n == 4 for n in terms]


class TestNuQ:
    def test_low_degree_expansion_is_f(self):
        backend, g, family, nu = as_setup(2)
        f = Poly.make(backend, [backend.element_from_value(Fraction(3, 4))])
        q = family.poly(2)
        assert nu.nu_q(f, q) == nu.nu(f)

    @pytest.mark.parametrize("p", [2, 3])
    def test_truncated_g_values(self, p):
        backend, g, family, nu = as_setup(p)
        for n in range(1, 7):
            q = family.poly(n)
            assert nu.nu_q(g, q) == ExtValue.of(rat1(Fraction(-1, p ** (n - 1))))

    def test_square_of_base(self):
        backend, g, family, nu = as_setup(2)
        q = family.poly(3)
        vq = nu.nu(q).expect_finite()
        assert nu.nu_q(q * q, q) == ExtValue.of(vq.scale(2))

    def test_truncation_at_support_equals_nu(self):
        backend, g, family, nu = as_setup(2)
        f = g * Poly.x(backend) + Poly.from_ints(backend, [1])
        assert nu.nu_q(f, g) == nu.nu(f)
        assert nu.nu_q(g, g).is_infinite

    def test_infinite_base_other_than_support_rejected(self):
        backend, g, family, nu = as_setup(2)
        # a monic multiple of g of higher degree has infinite value but is
        # not the support polynomial itself
        gg = g * Poly.from_ints(backend, [0, 1])
        with pytest.raises(ValkitError):
            nu.nu_q(gg * Poly.x(backend), gg)


def hensel_setup():
    backend = Backend("padic", 2)
    g = Poly.from_ints(backend, [2, 1, 1])
    family = hensel_family(backend, g, 0)
    nu = NuOracle.stabilization(g, family.center)
    return backend, g, family, nu


def hensel_eval_value(backend, g, f, start=0):
    """Independent evaluation rule for v(f(eta)), eta the root of the
    quadratic g lifted from the simple residue root `start`.

    For f = b(x - d):  v(eta - d) is v(d) when v(d) < 0, zero when d is
    integral but not congruent to start, and v(g(d)) when d = start mod p
    (the other root is not congruent to start, so it contributes nothing).
    Exact, no iteration.
    """
    p = backend.p

    def vp(x: Fraction):
        num, den, k = x.numerator, x.denominator, 0
        while num % p == 0:
            num //= p
            k += 1
        while den % p == 0:
            den //= p
            k -= 1
        return Fraction(k)

    if f.is_zero():
        return ExtValue.infinity()
    if f.degree == 0:
        return valuation(f.coeff(0))
    b = f.coeff(1)
    d = -(f.coeff(0) / b).value
    if d == start or vp(d - start) >= 1:
        ve = vp(g.eval(PAdicRational(d, p)).value)
    elif d != 0 and vp(d) < 0:
        ve = vp(d)
    else:
        ve = Fraction(0)
    return valuation(b) + rat1(ve)


@st.composite
def hensel_cases(draw):
    """A quadratic g irreducible over Q with a simple residue root `start`,
    and a probe f = b(x - d) or a constant b."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    start = draw(st.integers(-p, 2 * p))
    other = start + draw(st.integers(1, p - 1))  # the other residue root
    c = start * other + p * draw(st.integers(-20, 20))
    disc = (start + other) ** 2 - 4 * c
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    backend = Backend("padic", p)
    g = Poly.from_ints(backend, [c, -(start + other), 1])
    rationals = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 50))
    b = draw(rationals.filter(bool))
    coeffs = [b] if draw(st.booleans()) else [-b * draw(rationals), b]
    return backend, g, start, Poly.make(backend, [backend.parse(str(x)) for x in coeffs])


class TestEvaluationAgreement:
    def test_stabilization_matches_independent_evaluation(self):
        backend, g, family, nu = hensel_setup()
        probes = [
            Poly.from_ints(backend, [c0, c1])
            for c0 in range(-6, 7)
            for c1 in (1, 2, 3, -1)
        ]
        probes += [
            Poly.make(backend, [PAdicRational(Fraction(1, 2), 2), backend.one()]),
            Poly.make(backend, [PAdicRational(Fraction(3, 4), 2), backend.from_int(2)]),
        ]
        eval_nu = NuOracle(g, value_fn=lambda f: hensel_eval_value(backend, g, f))
        for f in probes:
            assert nu.nu(f) == eval_nu.nu(f), str(f)

    @settings(max_examples=60, deadline=None)
    @given(hensel_cases())
    def test_stabilization_matches_evaluation_on_hensel_setups(self, case):
        backend, g, start, f = case
        family = hensel_family(backend, g, start)
        stabilized = NuOracle.stabilization(g, family.center)
        evaluated = NuOracle(g, value_fn=lambda h: hensel_eval_value(backend, g, h, start))
        assert stabilized.nu(f) == evaluated.nu(f), str(f)

    def test_eta_image_oracle(self):
        backend = Backend("padic", 2)
        g = Poly.from_ints(backend, [-5, 1])  # eta = 5 inside K itself
        nu = NuOracle(g, value_fn=lambda f: valuation(f.eval(backend.from_int(5))))
        assert nu.nu(Poly.from_ints(backend, [-3, 1])) == ExtValue.of(rat1(1))
        assert nu.nu(Poly.from_ints(backend, [-5, 1])).is_infinite
        assert nu.nu(Poly.from_ints(backend, [3])) == ExtValue.of(rat1(0))

    def test_resultant_oracle_on_unramified(self):
        backend = Backend("padic", 2)
        g = Poly.from_ints(backend, [1, 1, 1])
        nu = NuOracle.from_resultant(g)
        assert nu.nu(Poly.x(backend)) == ExtValue.of(rat1(0))
        assert nu.nu(derivative(g)) == ExtValue.of(rat1(0))
        assert nu.nu(g).is_infinite
        # v(eta - 1): norm of (1 - eta) is g(1) = 3, a unit
        assert nu.nu(Poly.from_ints(backend, [-1, 1])) == ExtValue.of(rat1(0))

    def test_transient_zero_along_family_is_skipped(self):
        backend, g, family, nu = hensel_setup()
        q4 = family.poly(4)
        v = nu.nu(q4)
        assert not v.is_infinite
        assert v == valuation(family.center(7) - family.center(4))


class TestConcurrency:
    def test_concurrent_cache_and_family(self):
        import concurrent.futures

        backend, g, family, nu = as_setup(2)
        q = family.poly(5)

        def work(_):
            return nu.nu(q), nu.nu_q(g, q)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        assert len(set(results)) == 1

    def test_concurrent_expansions_share_one_result(self):
        import concurrent.futures
        import threading

        _, g, family, nu = as_setup(3)
        bases = [family.poly(n) for n in range(1, 9)]
        start = threading.Barrier(8)

        def work(_):
            start.wait(timeout=30)
            return [nu.expand(g, q) for q in bases]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        # every caller gets the one stored expansion, never a racing copy
        for column in zip(*results):
            assert len({id(e) for e in column}) == 1


class TestExpansionMemo:
    @staticmethod
    def run_counted(expansions, data) -> Counter:
        expansions.clear()
        cli.run(cli.parse_config_dict(data))
        return Counter(expansions)

    @pytest.mark.parametrize(
        "data",
        [
            {"scenario": "artin-schreier", "p": 5},
            {"scenario": "hensel-immediate"},
            {"scenario": "unramified"},
        ],
    )
    def test_one_expansion_per_pair_per_run(self, expansions, data):
        first = self.run_counted(expansions, data)
        assert first and set(first.values()) == {1}
        # a second run starts from a fresh oracle and expands everything again
        second = self.run_counted(expansions, data)
        assert sum(second.values()) == sum(first.values())

    def test_expand_is_memoized_on_the_oracle(self):
        _, g, family, nu = as_setup(2)
        q = family.poly(3)
        assert nu.expand(g, q) is nu.expand(g, q)
        assert nu.expand(g, q) == q_expand(g, q)
        _, _, _, other = as_setup(2)
        assert other.expand(g, q) is not nu.expand(g, q)

"""The support valuation and its truncations, in both oracle modes."""
import sys
from collections import Counter
from fractions import Fraction

import pytest

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

    def test_budget_exceeded_carries_trace(self):
        backend, g, family, _ = as_setup(2)
        nu = NuOracle.stabilization(g, family.center, window=3, budget=2)
        with pytest.raises(StabilizationBudgetExceededError) as exc:
            nu.nu(family.poly(4))
        assert len(exc.value.trace) == 2


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


def hensel_eval_value(backend, g, f):
    """Independent evaluation rule for v(f(eta)), eta the even root of g.

    For f = b(x - d):  v(eta - d) is v(d) when v(d) < 0, zero when
    v(d) = 0, and v(g(d)) when v(d) >= 1 (the odd conjugate contributes
    nothing).  Exact, no iteration.
    """

    def v2(x: Fraction):
        if x == 0:
            return None
        num, den, k = x.numerator, x.denominator, 0
        while num % 2 == 0:
            num //= 2
            k += 1
        while den % 2 == 0:
            den //= 2
            k -= 1
        return Fraction(k)

    if f.is_zero():
        return ExtValue.infinity()
    if f.degree == 0:
        return valuation(f.coeff(0))
    b = f.coeff(1)
    d = -(f.coeff(0) / b).value
    vd = v2(d)
    if d == 0 or vd >= 1:
        ve = v2(g.eval(PAdicRational(d, 2)).value)
    elif vd < 0:
        ve = vd
    else:
        ve = Fraction(0)
    return valuation(b) + rat1(ve)


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

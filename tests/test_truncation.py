"""The support valuation and its truncations, in both oracle modes."""
import importlib.util
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from lemmas import from_ints, uniformizer_power
from valkit import cli
from valkit.errors import StabilizationBudgetExceededError, ValkitError
from valkit.fields import Backend, PAdicRational, valuation
from valkit.groups import rat1
from valkit.keyseq import (
    PlateauFamily,
    artin_schreier_family,
    artin_schreier_poly,
    hensel_family,
)
from valkit.poly import Poly, derivative, q_expand
from valkit.truncation import NuOracle


def windowed_value(f0, family, window, budget):
    """The windowed rule the certified oracle replaced, kept as a reference:
    v(f0(a_n)) once `window` consecutive family members agree on it, an
    exact zero breaking the run.  No proof backs it."""
    run, run_len = None, 0
    for n in range(1, budget + 1):
        k = f0.eval(family.center(n)).order()
        if k is None:
            run_len = 0
        elif k == run:
            run_len += 1
        else:
            run, run_len = k, 1
        if run_len >= window:
            return rat1(run)
    raise StabilizationBudgetExceededError(f"no window of {window} within {budget} terms")


def windowed_oracle(g, family, window=3, budget=64):
    return NuOracle(g, lambda f0: windowed_value(f0, family, window, budget))


def as_setup(p):
    backend = Backend("hahn", p)
    g = artin_schreier_poly(backend, uniformizer_power(backend, -1))
    family = artin_schreier_family(backend, g)
    nu = NuOracle.stabilization(g, family)
    return backend, g, family, nu


class TestNu:
    def test_support_is_infinite(self):
        _, g, _, nu = as_setup(2)
        assert nu.nu(g) is None
        assert nu.nu(g * g) is None

    def test_constant_one(self):
        backend, g, _, nu = as_setup(2)
        assert nu.nu(from_ints(backend, [1])) == rat1(0)

    def test_infinite_value_is_memoized(self):
        # None is a cached value, not a miss: the value function runs once.
        backend, g, _, _ = as_setup(2)
        calls = []
        nu = NuOracle(g, lambda f0: calls.append(f0))
        x = Poly.x(backend)
        assert nu.nu(x) is None and nu.nu(x) is None
        assert calls == [x]

    @pytest.mark.parametrize("p", [2, 3])
    def test_key_values_from_later_partial_sums(self, p):
        backend, g, family, nu = as_setup(p)
        for n in range(1, 7):
            q = family.poly(n)
            assert nu.nu(q) == rat1(Fraction(-1, p**n))

    def test_certificate_outlasts_early_agreement_and_transient_zero(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])  # its root eta = 0 mod 2 has v(eta) = 1
        # nu(x) along these points: the order 3, an exact zero, the order 3
        # three times, then the true order 1.  Every point is even, so
        # v(eta - a) = v(g(a)) is an honest precision certificate.
        points = [backend.from_int(a) for a in (8, 0, 8, 8, 8, 2)]

        def family(budget):
            return PlateauFamily(
                backend,
                lambda n, prev: points[n - 1],
                {},
                precision=lambda m: g.eval(points[m - 1]).order(),
                budget=budget,
            )

        x = Poly.x(backend)
        with pytest.raises(StabilizationBudgetExceededError):
            NuOracle.stabilization(g, family(5)).nu(x)
        assert NuOracle.stabilization(g, family(6)).nu(x) == rat1(1)
        # the windowed rule stops at the first three agreeing orders
        assert windowed_oracle(g, family(6), window=3, budget=6).nu(x) == rat1(3)

    def test_budget_exceeded_carries_the_warm_started_trace(self):
        backend, g, _, _ = as_setup(2)
        # x - s_6, built on a second family: `family` has its first two centers
        f0 = artin_schreier_family(backend, g).poly(6)
        family = artin_schreier_family(backend, g, budget=6)
        family.center(2)
        with pytest.raises(StabilizationBudgetExceededError) as exc:
            NuOracle.stabilization(g, family).nu(f0)
        # The walk starts at the last built center, a_2; v(s_m - s_6) = -1/2**m
        # equals the precision v(eta - s_m) until a_6, the root of f0.
        trace = list(exc.value.trace)
        assert trace == [valuation(f0.eval(family.center(m))) for m in range(2, 7)]
        assert [v is None for v in trace] == [False] * 4 + [True]
        # One member more certifies v(eta - s_6) = -1/2**6.
        nu = NuOracle.stabilization(g, artin_schreier_family(backend, g, budget=7))
        assert nu.nu(f0) == rat1(Fraction(-1, 64))

    def test_taylor_bound_counts_the_higher_coefficients(self):
        # f = x^2 - 1 near eta = 33, over 2-adics: at a = 9, v(f(a)) = 4 lies
        # below 2 * v(eta - a) = 6, yet f(eta) = 32 * 34 has value 6.  The
        # first Taylor coefficient 2a has no x-slot of f, only the x^2 one
        # (value v(a) = 0): its bound 0 + 3 refuses a = 9, and so does its
        # exact value v(18) + 3 = 4.
        backend = Backend("padic", 2)
        g = from_ints(backend, [-33, 1]) * from_ints(backend, [1, 1, 1])
        points = [backend.from_int(a) for a in (9, 17, 97, 289)]
        family = PlateauFamily(
            backend,
            lambda n, prev: points[n - 1],
            {},
            precision=lambda m: (backend.from_int(33) - points[m - 1]).order(),
            budget=len(points),
        )
        f = from_ints(backend, [-1, 0, 1])
        assert [f.eval(a).order() for a in points] == [4, 5, 6, 6]
        assert NuOracle.stabilization(g, family).nu(f) == rat1(6)

    def test_a_cancelling_taylor_coefficient_is_valued_exactly(self):
        # x^3 - x - t^-1 over F_3((t^Q)), f = t^(1/3) + t^(2/3) x + t x^2:
        # at a_m = t^(-1/3) + ..., f'(a) = t^(2/3) + 2t a loses its t^(2/3)
        # term (1 + 2 = 0 mod 3), so its bound min(2/3, 1 - 1/3) never lies
        # above nu(f) = 7/9, yet its value 8/9 does.
        backend, g, family, nu = as_setup(3)
        f = Poly.make(
            backend, [uniformizer_power(backend, Fraction(e, 3)) for e in (1, 2, 3)]
        )
        assert derivative(f).eval(family.center(3)).order() == Fraction(8, 9)
        assert nu.nu(f) == NuOracle.from_resultant(g).nu(f) == rat1(Fraction(7, 9))

    def test_family_without_certificate_refused(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])
        bare = PlateauFamily(backend, lambda n, prev: backend.from_int(2**n), {})
        with pytest.raises(ValkitError, match="precision certificate"):
            NuOracle.stabilization(g, bare)


class TestNuQ:
    def test_low_degree_expansion_is_f(self):
        backend, g, family, nu = as_setup(2)
        f = Poly.make(backend, [uniformizer_power(backend, Fraction(3, 4))])
        q = family.poly(2)
        assert nu.nu_q(f, q) == nu.nu(f)

    @pytest.mark.parametrize("p", [2, 3])
    def test_truncated_g_values(self, p):
        backend, g, family, nu = as_setup(p)
        for n in range(1, 7):
            q = family.poly(n)
            assert nu.nu_q(g, q) == rat1(Fraction(-1, p ** (n - 1)))

    def test_square_of_base(self):
        backend, g, family, nu = as_setup(2)
        q = family.poly(3)
        vq = nu.nu(q)
        assert nu.nu_q(q * q, q) == vq.scale(2)

    def test_truncation_at_support_equals_nu(self):
        backend, g, family, nu = as_setup(2)
        f = g * Poly.x(backend) + from_ints(backend, [1])
        assert nu.nu_q(f, g) == nu.nu(f)
        assert nu.nu_q(g, g) is None

    def test_infinite_base_other_than_support_rejected(self):
        backend, g, family, nu = as_setup(2)
        # a monic multiple of g of higher degree has infinite value but is
        # not the support polynomial itself
        gg = g * from_ints(backend, [0, 1])
        with pytest.raises(ValkitError):
            nu.nu_q(gg * Poly.x(backend), gg)


def hensel_setup():
    backend = Backend("padic", 2)
    g = from_ints(backend, [2, 1, 1])
    family = hensel_family(backend, g, 0)
    nu = NuOracle.stabilization(g, family)
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
        return None
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
    g = from_ints(backend, [c, -(start + other), 1])
    rationals = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 50))
    b = draw(rationals.filter(bool))
    coeffs = [b] if draw(st.booleans()) else [-b * draw(rationals), b]
    return backend, g, start, Poly.make(backend, [backend.parse(str(x)) for x in coeffs])


class TestEvaluationAgreement:
    def test_stabilization_matches_independent_evaluation(self):
        backend, g, family, nu = hensel_setup()
        probes = [
            from_ints(backend, [c0, c1])
            for c0 in range(-6, 7)
            for c1 in (1, 2, 3, -1)
        ]
        probes += [
            Poly.make(backend, [PAdicRational(Fraction(1, 2), 2), backend.one()]),
            Poly.make(backend, [PAdicRational(Fraction(3, 4), 2), backend.from_int(2)]),
        ]
        eval_nu = NuOracle(g, value_fn=lambda f: hensel_eval_value(backend, g, f))
        for f in probes:
            assert nu.nu(f) == eval_nu.nu(f), f

    @settings(max_examples=60, deadline=None)
    @given(hensel_cases())
    def test_stabilization_matches_evaluation_on_hensel_setups(self, case):
        backend, g, start, f = case
        family = hensel_family(backend, g, start)
        stabilized = NuOracle.stabilization(g, family)
        evaluated = NuOracle(g, value_fn=lambda h: hensel_eval_value(backend, g, h, start))
        assert stabilized.nu(f) == evaluated.nu(f), f

    def test_eta_image_oracle(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [-5, 1])  # eta = 5 inside K itself
        nu = NuOracle(g, value_fn=lambda f: valuation(f.eval(backend.from_int(5))))
        assert nu.nu(from_ints(backend, [-3, 1])) == rat1(1)
        assert nu.nu(from_ints(backend, [-5, 1])) is None
        assert nu.nu(from_ints(backend, [3])) == rat1(0)

    def test_resultant_oracle_on_unramified(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [1, 1, 1])
        nu = NuOracle.from_resultant(g)
        assert nu.nu(Poly.x(backend)) == rat1(0)
        assert nu.nu(derivative(g)) == rat1(0)
        assert nu.nu(g) is None
        # v(eta - 1): norm of (1 - eta) is g(1) = 3, a unit
        assert nu.nu(from_ints(backend, [-1, 1])) == rat1(0)

    def test_transient_zero_along_family_is_skipped(self):
        backend, g, family, nu = hensel_setup()
        q4 = family.poly(4)
        v = nu.nu(q4)
        assert not v is None
        assert v == valuation(family.center(7) - family.center(4))


def pool_prefix(workload, seed, count=26):
    """The first configs of a benchmark workload pool (two cycles)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return [inst.config for inst in sys.modules[name].generate(workload, seed, count)]


def certified_against_windowed(data) -> int:
    """Runs a config and checks every value its certified oracle computed
    against the windowed reference on a fresh family; returns how many."""
    cfg = cli.parse_config_dict(data)
    made = []  # (oracle, budget) of each stabilization oracle the run builds
    real = NuOracle.stabilization

    def capture(g, family):
        made.append((real(g, family), family.budget))
        return made[-1][0]

    with mock.patch.object(NuOracle, "stabilization", staticmethod(capture)):
        cli.run(cfg)
    checked = 0
    for nu, budget in made:
        _, g, stages = cli._field_scenario(cfg)
        family = next(s for s in stages if isinstance(s, PlateauFamily))
        reference = windowed_oracle(g, family, 3, budget)
        for f, value in list(nu._cache.items()):
            try:
                expected = reference.nu(f)
            except StabilizationBudgetExceededError:
                continue  # the window needs members past the budget
            assert value == expected, f"{data}: {f}"
            checked += 1
    return checked


@st.composite
def custom_configs(draw, backend):
    """A custom config with an explicit linear key x - c before its family:
    a hensel lift of a monic integral g of degree 2 or 3 with no rational
    root, at a simple residue root, or an Artin-Schreier family, which reads
    a = t^va off its g = x^p - x - t^va."""
    p = draw(st.sampled_from([2, 3, 5]))
    if backend == "padic":
        start = draw(st.integers(0, p - 1))
        upper = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=2)) + [1]
        c0 = -sum(c * start ** (i + 1) for i, c in enumerate(upper)) + p * draw(st.integers(-4, 4))
        g = [c0] + upper
        assume(sum(i * c * start ** (i - 1) for i, c in enumerate(g) if i) % p)
        # no rational root, which is an integer dividing c0 as g is monic
        roots = range(-abs(c0), abs(c0) + 1)
        assume(c0 != 0 and all(sum(c * r**i for i, c in enumerate(g)) for r in roots))
        key = [str(-draw(st.integers(-2 * p, 2 * p))), "1"]
        family = {"family": "hensel_lift", "start": start}
        g = [str(c) for c in g]
    else:
        va = -Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
        g = [f"{p - 1}*t^({va})", str(p - 1)] + ["0"] * (p - 2) + ["1"]
        shift = Fraction(draw(st.integers(-9, 3)), draw(st.integers(1, 4)))
        key = [f"{draw(st.integers(0, p - 1))}*t^({shift})", "1"]
        family = {"family": "artin_schreier"}
    return {
        "scenario": "custom", "backend": backend, "p": p, "g": g,
        "stages": [{"poly": key}, family], "oracle": "stabilization",
        "terms": draw(st.sampled_from([4, 8])),
    }


class TestCertifiedAgainstWindowed:
    """The certified value is proven; the windowed rule it replaced is a
    heuristic that agrees with it wherever the window fits the budget."""

    @pytest.mark.parametrize(
        "workload, seed",
        [(w, s) for w in ("hahn-plateau", "padic-lift") for s in (1, 2)],
    )
    def test_pool_prefixes(self, workload, seed):
        for data in pool_prefix(workload, seed):
            assert certified_against_windowed(data) > 0

    @settings(max_examples=40, deadline=None)
    @given(custom_configs("padic"))
    def test_hensel_configs_with_a_key_before_the_family(self, data):
        assert certified_against_windowed(data) > 0

    @settings(max_examples=40, deadline=None)
    @given(custom_configs("hahn"))
    def test_artin_schreier_configs_with_a_key_before_the_family(self, data):
        assert certified_against_windowed(data) > 0

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param({"scenario": "hensel-immediate"}, id="hensel_immediate"),
            pytest.param({"scenario": "artin-schreier", "p": 2, "va": "-1"}, id="artin_schreier_p2"),
        ],
    )
    def test_a_materialized_key_costs_at_most_two_evaluations(self, data):
        """Evaluations of the key itself; a lift may evaluate g to build a center."""
        evals = Counter()
        real_eval = Poly.eval

        def counted(f, point):
            evals[f] += 1
            return real_eval(f, point)

        keys = []  # (evaluations of the key, whether a later center was built)
        real = NuOracle.stabilization

        def counting(g, family):
            nu = real(g, family)
            value_fn = nu._value_fn

            def value(f0):
                built = family.materialized
                centers = [family.center(n) for n in range(1, built + 1)]
                before = evals[f0]
                result = value_fn(f0)
                if f0.is_monic() and f0.degree == 1 and -f0.coeff(0) in centers:
                    n = centers.index(-f0.coeff(0)) + 1
                    keys.append((evals[f0] - before, n < built))
                return result

            nu._value_fn = value
            return nu

        cfg = cli.parse_config_dict(data)
        with mock.patch.object(NuOracle, "stabilization", staticmethod(counting)):
            with mock.patch.object(Poly, "eval", counted):
                cli.run(cfg)
        assert len(keys) >= cfg.terms
        assert all(cost <= 2 for cost, _ in keys)
        # with a later center already built, one evaluation certifies
        assert all(cost == 1 for cost, ahead in keys if ahead)


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

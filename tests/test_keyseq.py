"""Key sequences: stages, plateau families, normalization, witness search."""
import concurrent.futures
import sys
from collections import Counter
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lemmas import NormalizedSequence, from_ints, key_indices, uniformizer_power
from valkit import keyseq
from valkit.errors import HypothesisViolatedError, ScenarioDataError, ValueNotRepresentableError
from valkit.fields import Backend, valuation
from valkit.groups import ClosedForm, FiniteList, rat1
from valkit.keyseq import (
    FAMILY_BUDGET,
    KeyIndex,
    KeySequence,
    ScheduleStage,
    artin_schreier_family,
    artin_schreier_poly,
    find_witness,
    hensel_family,
    stage_terms,
)
from valkit.kahler import invariant_stream
from valkit.poly import Poly, q_expand
from valkit.truncation import NuOracle


def as_sequence(p):
    backend = Backend("hahn", p)
    g = artin_schreier_poly(backend, uniformizer_power(backend, -1))
    family = artin_schreier_family(backend, g)
    ks = KeySequence((family,), g, p)
    nu = NuOracle.stabilization(g, family)
    return ks, nu


def unramified_sequence():
    backend = Backend("padic", 2)
    g = from_ints(backend, [1, 1, 1])
    ks = KeySequence((Poly.x(backend),), g, 2)
    nu = NuOracle.from_resultant(g)
    return ks, nu


def hensel_sequence():
    backend = Backend("padic", 2)
    g = from_ints(backend, [2, 1, 1])
    family = hensel_family(backend, g, 0)
    ks = KeySequence((family,), g, 2)
    nu = NuOracle.stabilization(g, family)
    return ks, nu


class TestStructure:
    def test_indices_are_well_ordered(self):
        ks, _ = as_sequence(2)
        idx = key_indices(ks, 5)
        assert idx == sorted(idx) and len(set(idx)) == len(idx)

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_index_order_is_tuple_order(self, a, b):
        i, j = KeyIndex(*a), KeyIndex(*b)
        assert [i < j, i <= j, i == j, i != j, i > j, i >= j] == [a < b, a <= b, a == b, a != b, a > b, a >= b]
        assert {i: 1}.get(KeyIndex(*b)) == (1 if a == b else None)
        if a == b:
            assert hash(i) == hash(j)

    def test_indices_stop_at_the_family_budget(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])
        family = hensel_family(backend, g, 0, budget=10)
        ks = KeySequence((family,), g, 2)
        idx = key_indices(ks, 12)
        assert idx == [KeyIndex(0, n) for n in range(1, 11)]
        assert all(ks.key_poly(i).degree == 1 for i in idx)

    def test_stage_terms(self):
        backend = Backend("padic", 2)
        family = hensel_family(backend, from_ints(backend, [2, 1, 1]), 0, budget=10)
        laws = ((rat1(0), 2), (rat1(0), 1), (rat1(0), 2))
        listed = ScheduleStage(FiniteList((rat1(0), rat1(1), rat1(2))), laws, laws[:2], rat1(0))
        closed = ScheduleStage(ClosedForm(rat1(-1), rat1(0), 2), laws, laws[:2], rat1(0))
        assert (stage_terms(family, 8), stage_terms(family, 12)) == (8, 10)
        assert (stage_terms(listed, 2), stage_terms(listed, 12)) == (3, 3)
        assert stage_terms(closed, 12) == 12
        assert KeySequence((closed,), None, 2).g_degree == 2

    def test_closed_form_schedule_stops_at_its_budget(self):
        laws = ((rat1(0), 1), (rat1(0), 1))
        law = ClosedForm(rat1(-1), rat1(0), 2)
        assert stage_terms(ScheduleStage(law, laws, laws[:1], rat1(0)), 100) == FAMILY_BUDGET
        capped = ScheduleStage(law, laws, laws[:1], rat1(0), budget=5)
        assert (stage_terms(capped, 4), stage_terms(capped, 12)) == (4, 5)

    def test_only_schedules_omit_g(self):
        backend = Backend("padic", 2)
        with pytest.raises(ScenarioDataError, match="only a sequence of value schedules"):
            KeySequence((Poly.x(backend),), None, 2)

    def test_degrees_must_not_decrease(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [1, 1, 1])
        quad = from_ints(backend, [1, 0, 1])
        lin = Poly.x(backend)
        with pytest.raises(ScenarioDataError):
            KeySequence((quad, lin), g * g, 2)

    def test_plateau_report(self):
        # the degree-1 keys have no last element; g is the last element
        ks, _ = as_sequence(2)
        assert not ks.istar_has_max()

    def test_plateau_report_no_plateau(self):
        ks, _ = unramified_sequence()
        assert ks.istar_has_max()

    def test_plateau_report_hensel(self):
        ks, _ = hensel_sequence()
        assert not ks.istar_has_max()

    def test_g_monic_over_every_key(self):
        ks, nu = as_sequence(3)
        for index in key_indices(ks, 5):
            assert q_expand(ks.g, ks.key_poly(index)).is_monic()
        # the stream's rows make the same check on the keys they build
        stream = invariant_stream(ks, nu, 5)
        assert [r.index for r in stream.records] == key_indices(ks, 5)


_AFTER_PLATEAU = "every key after a plateau, g included, must have larger degree"


def _schedule(slots):
    """A closed-form value schedule for a g with `slots` expansion slots."""
    laws = ((rat1(0), 1),) * slots
    return ScheduleStage(ClosedForm(rat1(-1), rat1(0), 2), laws, laws[:-1], rat1(0))


class TestOnePlateau:
    """Every key after a plateau, g included, has larger degree than it."""

    def test_two_families_rejected(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])
        families = (hensel_family(backend, g, 0), hensel_family(backend, g, 0))
        with pytest.raises(HypothesisViolatedError, match=_AFTER_PLATEAU):
            KeySequence(families, g, 2)

    def test_linear_key_after_a_family_rejected(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])
        with pytest.raises(HypothesisViolatedError, match=_AFTER_PLATEAU):
            KeySequence((hensel_family(backend, g, 0), Poly.x(backend)), g, 2)

    def test_linear_g_after_a_family_rejected(self):
        # g = x - 1/3 has the 2-adic root 1/3, and 1 is its residue root
        backend = Backend("padic", 2)
        g = Poly.make(backend, [backend.parse("-1/3"), backend.one()])
        with pytest.raises(HypothesisViolatedError, match=_AFTER_PLATEAU):
            KeySequence((hensel_family(backend, g, 1),), g, 2)

    def test_two_schedules_rejected(self):
        with pytest.raises(HypothesisViolatedError, match=_AFTER_PLATEAU):
            KeySequence((_schedule(3), _schedule(3)), None, 2)

    def test_schedule_of_a_linear_g_rejected(self):
        with pytest.raises(HypothesisViolatedError, match=_AFTER_PLATEAU):
            KeySequence((_schedule(2),), None, 2)

    def test_keys_before_or_of_larger_degree_accepted(self):
        padic, hahn = Backend("padic", 2), Backend("hahn", 2)
        g = from_ints(padic, [2, 1, 1])
        lifts = hensel_family(padic, g, 0)
        KeySequence((Poly.x(padic), lifts), g, 2)
        g_as = artin_schreier_poly(hahn, uniformizer_power(hahn, -1))
        KeySequence((Poly.x(hahn), artin_schreier_family(hahn, g_as)), g_as, 2)
        cubic = from_ints(padic, [1, 1, 0, 1])
        KeySequence((lifts, from_ints(padic, [1, 1, 1])), cubic, 2)
        assert KeySequence((_schedule(3),), None, 2).g_degree == 2


def normalize(ks, nu, terms_per_plateau=8):
    view = NormalizedSequence(ks, nu)
    return [view.at(i) for i in key_indices(ks, terms_per_plateau)]


class TestNormalize:
    def test_normalized_values_vanish(self):
        ks, nu = as_sequence(2)
        for nk in normalize(ks, nu, terms_per_plateau=5):
            assert nu.nu(nk.normalized) == rat1(0)
            assert valuation(nk.scalar) == nu.nu(nk.original)

    def test_scalar_is_exponent_power(self):
        ks, nu = as_sequence(2)
        view = normalize(ks, nu, terms_per_plateau=3)
        # key x - a_n of value -1/2^n is rescaled by t^(-1/2^n)
        assert valuation(view[1].scalar) == rat1(Fraction(-1, 4))

    def test_zero_value_key_unchanged(self):
        ks, nu = unramified_sequence()
        nk = normalize(ks, nu)[0]
        assert nk.normalized == nk.original == Poly.x(ks.g.backend)

    def test_unrepresentable_value_raises(self):
        # a p-adic backend cannot realize fractional values
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 0, 1])  # x^2 - 2 would force value 1/2
        ks = KeySequence((Poly.x(backend),), g, 2)
        nu = NuOracle.from_resultant(g)
        index = KeyIndex(0, 0)
        view = NormalizedSequence(ks, nu)
        with pytest.raises(ValueNotRepresentableError):
            # nu(x) = v(res(g, x))/2 = v(2)/2 = 1/2
            view.at(index)


def witness(ks, nu, f):
    return find_witness(ks, nu, f, key_indices(ks, 8))


class TestCompletenessProbe:
    def test_constant_witnessed_trivially(self):
        ks, nu = as_sequence(2)
        assert witness(ks, nu, from_ints(ks.g.backend, [3])) is not None

    def test_x_witnessed_at_first_key(self):
        ks, nu = as_sequence(2)
        x = Poly.x(ks.g.backend)
        assert witness(ks, nu, x) == KeyIndex(0, 1)
        assert nu.nu(x) == rat1(Fraction(-1, 2))

    def test_deep_linear_witnesses(self):
        ks, nu = as_sequence(2)
        fs = [ks.key_poly(KeyIndex(0, n)) for n in range(1, 5)]
        assert all(witness(ks, nu, f) is not None for f in fs)

    def test_no_witness_above_the_degree(self):
        # only g itself attains nu(g); it is not a candidate here
        ks, nu = as_sequence(2)
        assert find_witness(ks, nu, ks.g, key_indices(ks, 8)) is None

    def test_no_key_above_the_degree_of_a_linear_f(self):
        # Below g = x^2 - 2x + 3 over Q_2, f = x - 1 has nu_x(f) = 0 < nu(f)
        # = 1/2; only the key x^2 + 1 attains nu(f), and its degree is
        # larger than that of f.
        backend = Backend("padic", 2)
        x, q = Poly.x(backend), from_ints(backend, [1, 0, 1])
        ks = KeySequence((x, q), from_ints(backend, [3, -2, 1]), 2)
        nu = NuOracle.from_resultant(ks.g)
        f = from_ints(backend, [-1, 1])
        assert nu.nu_q(f, x) == rat1(0) and nu.nu(f) == nu.nu_q(f, q) == rat1(Fraction(1, 2))
        assert find_witness(ks, nu, f, key_indices(ks, 8)) is None

    def test_normalization_preserves_witnesses(self):
        # the truncation at the rescaled key a*Q~ = Q has expansion
        # coefficients f_i * a^i against Q~, so its value min is unchanged
        # and every witness survives normalization
        from valkit.poly import q_expand

        ks, nu = as_sequence(2)
        fs = [Poly.x(ks.g.backend), ks.key_poly(KeyIndex(0, 2)), ks.g]
        by_index = {nk.index: nk for nk in normalize(ks, nu, terms_per_plateau=8)}
        for f in fs:
            w = witness(ks, nu, f)
            if w not in by_index:
                continue  # g has no witness below it
            nk = by_index[w]
            terms = []
            for i, c in enumerate(q_expand(f, nk.original).coeffs):
                if not c.is_zero():
                    # coefficient against the rescaled base, which itself
                    # has value zero
                    terms.append(nu.nu(c * Poly.make(c.backend, [nk.scalar**i])))
            assert min(terms) == nu.nu(f)


def p_order(x: Fraction, p: int) -> int:
    num, den, k = x.numerator, x.denominator, 0
    while num % p == 0:
        num, k = num // p, k + 1
    while den % p == 0:
        den, k = den // p, k - 1
    return k


def trial_lifts(coeffs, p, start, count):
    """Centers of the digit lift by trying t = 1..p-1 at each step.

    Stops early where a lift is an exact rational root of g.
    """

    def order_of_g(a):
        value = sum(Fraction(c) * a**i for i, c in enumerate(coeffs))
        return None if value == 0 else p_order(value, p)

    centers = [start]
    while len(centers) < count:
        a = centers[-1]
        va = order_of_g(a)
        for t in range(1, p):
            vc = order_of_g(a + t * p**va)
            if vc is None:
                return centers
            if vc > va:
                centers.append(a + t * p**va)
                break
        else:
            raise AssertionError("no gaining digit")
    return centers


@st.composite
def hensel_inputs(draw):
    """A monic g of degree 2-4 with p-integral rational coefficients and a
    simple residue root: g(start) = 0 mod p, g'(start) a unit."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    unit_dens = [d for d in range(1, 12) if d % p]
    rational = st.builds(Fraction, st.integers(-30, 30), st.sampled_from(unit_dens))
    degree = draw(st.integers(2, 4))
    coeffs = [Fraction(0)] + draw(st.lists(rational, min_size=degree - 1, max_size=degree - 1)) + [1]
    start = draw(st.integers(-2 * p, 2 * p))
    at_start = sum(c * start**i for i, c in enumerate(coeffs))
    coeffs[0] = -at_start + p * draw(st.integers(-20, 20).filter(bool))
    gprime = sum(i * c * start ** (i - 1) for i, c in enumerate(coeffs) if i)
    assume(p_order(gprime, p) == 0 if gprime else False)
    return p, coeffs, start


class TestFamilies:
    def test_artin_schreier_centers(self):
        backend = Backend("hahn", 2)
        a = uniformizer_power(backend, -1)
        family = artin_schreier_family(backend, artin_schreier_poly(backend, a))
        assert family.center(1).is_zero()
        assert valuation(family.center(2)) == rat1(Fraction(-1, 2))

    def test_terms_are_numbered_from_one(self):
        backend = Backend("hahn", 2)
        family = artin_schreier_family(
            backend, artin_schreier_poly(backend, uniformizer_power(backend, -1))
        )
        for built in (0, 3):
            if built:
                family.center(built)
            for n in (0, -1):
                with pytest.raises(ValueError, match="numbered from 1"):
                    family.center(n)

    def test_family_degree_is_the_key_degree(self):
        hahn, padic = Backend("hahn", 3), Backend("padic", 2)
        families = (
            artin_schreier_family(hahn, artin_schreier_poly(hahn, uniformizer_power(hahn, -1))),
            hensel_family(padic, from_ints(padic, [2, 1, 1]), 0),
        )
        for family in families:
            assert [family.poly(n).degree for n in range(1, 5)] == [family.degree] * 4

    def test_hensel_values_strictly_increase_and_diverge(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])
        family = hensel_family(backend, g, 0)
        values = []
        for n in range(1, 9):
            c = family.center(n)
            gval = valuation(g.eval(c))
            values.append(gval)
            assert gval >= family.divergence_bound(n)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_hensel_evaluates_g_once_per_center(self, monkeypatch):
        # A lift reads g at the previous center from the step that built it,
        # by one integer Horner pass over D*g (here D = 1) and no Poly.eval.
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])
        points = Counter()
        evaluate, horner = Poly.eval, keyseq._horner

        def counted_eval(f, a):
            if f == g:
                points[a.value] += 1
            return evaluate(f, a)

        def counted_horner(coeffs, a):
            if list(coeffs) == [2, 1, 1]:
                points[a] += 1
            return horner(coeffs, a)

        monkeypatch.setattr(Poly, "eval", counted_eval)
        monkeypatch.setattr(keyseq, "_horner", counted_horner)
        family = hensel_family(backend, g, 0)
        centers = [family.center(n).value for n in range(1, 13)]
        assert points == Counter(centers)

    @settings(max_examples=60, deadline=None)
    @given(hensel_inputs())
    def test_hensel_digits_match_trial_lifts(self, case):
        # The digits and the precision certificate v(g(a_m)) of the integer
        # lift on D*g agree with a lift that tries every digit on g itself.
        p, coeffs, start = case
        backend = Backend("padic", p)
        g = Poly.make(backend, [backend.parse(str(c)) for c in coeffs])
        family = hensel_family(backend, g, start)
        want = trial_lifts(coeffs, p, start, 12)
        assert [family.center(n).value for n in range(1, len(want) + 1)] == want
        for m, a in enumerate(want, 1):
            assert family.precision(m) == p_order(sum(c * a**i for i, c in enumerate(coeffs)), p)

    def test_hensel_lift_without_fraction_arithmetic(self, fraction_ops):
        # g = x^2 + x + 2/3 over the 2-adics: the lift runs on 3g.
        backend = Backend("padic", 2)
        g = Poly.make(backend, [backend.parse(c) for c in ("2/3", "1", "1")])
        family = hensel_family(backend, g, 0)
        fraction_ops.clear()
        centers = [family.center(n).value for n in range(1, 33)]
        assert fraction_ops == Counter()
        assert centers == trial_lifts([Fraction(2, 3), 1, 1], 2, 0, 32)

    def test_hensel_exact_root_raises_at_its_lift(self):
        # g = (x - 7)(x - 2) over the 3-adics: from start 1 the first lift is 7
        backend = Backend("padic", 3)
        family = hensel_family(backend, from_ints(backend, [14, -9, 1]), 1)
        assert trial_lifts([14, -9, 1], 3, 1, 2) == [1]
        with pytest.raises(ScenarioDataError, match="exact rational root"):
            family.center(2)

    def test_hensel_rejects_non_root(self):
        backend = Backend("padic", 2)
        g = from_ints(backend, [1, 1, 1])  # no residue root at 0
        with pytest.raises(ScenarioDataError):
            hensel_family(backend, g, 0)

    def test_concurrent_materialization_is_idempotent(self):
        backend = Backend("hahn", 2)
        a = uniformizer_power(backend, -1)
        family = artin_schreier_family(backend, artin_schreier_poly(backend, a))

        def grab(n):
            return family.center(1 + n % 10)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(grab, range(64)))
        fresh = artin_schreier_family(backend, artin_schreier_poly(backend, a))
        for n, got in enumerate(results):
            assert got == fresh.center(1 + n % 10)

    def test_concurrent_incremental_centers(self):
        # Each center is built from the one before: racing first accesses,
        # out of order and under a short switch interval, must still see
        # exactly the centers built in order.
        padic = Backend("padic", 7)
        g = from_ints(padic, [1, 1, 1])  # root 2 mod 7, g'(2) = 5
        hahn = Backend("hahn", 3)
        builders = [
            lambda: artin_schreier_family(
                hahn, artin_schreier_poly(hahn, uniformizer_power(hahn, Fraction(-2, 3)))
            ),
            lambda: hensel_family(padic, g, 2),
        ]
        shared = [build() for build in builders]
        start = threading.Barrier(8)

        def work(k):
            start.wait(timeout=30)
            return [[f.center(n) for n in range(12 - k % 3, 0, -2)] for f in shared]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        fresh = [build() for build in builders]
        for k, got in enumerate(results):
            want = [[f.center(n) for n in range(12 - k % 3, 0, -2)] for f in fresh]
            assert got == want

    def test_budget_enforced(self):
        backend = Backend("hahn", 2)
        a = uniformizer_power(backend, -1)
        family = artin_schreier_family(backend, artin_schreier_poly(backend, a), budget=4)
        with pytest.raises(Exception):
            family.center(5)

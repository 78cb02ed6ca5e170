"""Full expansions, slot sets, derivative drops, generator rewriting."""
from fractions import Fraction

import pytest

from valkit.errors import NegativeValueInputError, ScenarioDataError
from valkit.expansion import (
    derivative_drop,
    expansion_min_value,
    full_expansion,
    i0_set,
    rewrite_in_generators,
    s_set,
)
from valkit.fields import Backend
from valkit.groups import ExtValue, rat1
from valkit.keyseq import (
    ExplicitStage,
    FinalStage,
    KeyIndex,
    KeySequence,
    NormalizedSequence,
    PlateauStage,
    artin_schreier_family,
)
from valkit.poly import Poly
from valkit.truncation import NuOracle


def as_sequence(p):
    backend = Backend("hahn", p)
    a = backend.element_from_value(-1)
    coeffs = [-a, -backend.one()] + [backend.zero()] * (p - 2) + [backend.one()]
    g = Poly.make(backend, coeffs)
    family = artin_schreier_family(backend, a)
    ks = KeySequence((PlateauStage(family),), FinalStage.of(g), p, backend)
    nu = NuOracle.stabilization(g, family.center)
    return ks, nu


def unramified_sequence():
    backend = Backend("padic", 2)
    g = Poly.from_ints(backend, [1, 1, 1])
    ks = KeySequence((ExplicitStage(Poly.x(backend)),), FinalStage.of(g), 2, backend)
    nu = NuOracle.from_resultant(g)
    return ks, nu


class TestFullExpansion:
    def test_constant(self):
        ks, nu = as_sequence(2)
        f = Poly.from_ints(ks.backend, [5])
        exp = full_expansion(f, KeyIndex(0, 3), ks, nu)
        assert len(exp.terms) == 1 and exp.terms[0].exponents == ()

    def test_g_at_plateau_term(self):
        # g = (x - a_n)^2 + (x - a_n) + g(a_n) in characteristic 2
        ks, nu = as_sequence(2)
        i = KeyIndex(0, 3)
        exp = full_expansion(ks.g, i, ks, nu)
        assert exp.reconstruct(ks) == ks.g
        exponents = sorted(dict(t.exponents).get(i, 0) for t in exp.terms)
        assert exponents == [0, 1, 2]
        assert i0_set(ks.g, i, ks, nu) == {i}

    def test_key_itself(self):
        ks, nu = as_sequence(2)
        i = KeyIndex(0, 2)
        exp = full_expansion(ks.key_poly(i), i, ks, nu)
        assert len(exp.terms) == 1
        assert exp.terms[0].exponents == ((i, 1),)
        assert i0_set(ks.key_poly(i), i, ks, nu) == {i}

    def test_constant_support_empty(self):
        ks, nu = as_sequence(2)
        assert i0_set(Poly.from_ints(ks.backend, [7]), KeyIndex(0, 2), ks, nu) == set()

    def test_min_value_equals_truncation(self):
        ks, nu = as_sequence(3)
        i = KeyIndex(0, 2)
        f = ks.g * Poly.x(ks.backend) + Poly.from_ints(ks.backend, [0, 2, 1])
        exp = full_expansion(f, i, ks, nu)
        assert exp.reconstruct(ks) == f
        assert expansion_min_value(exp, ks, nu) == nu.nu_q(f, ks.key_poly(i))


class TestSSet:
    def test_later_key_gives_01(self):
        ks, nu = as_sequence(2)
        assert s_set(ks.key_poly(KeyIndex(0, 4)), KeyIndex(0, 2), ks, nu) == {0, 1}

    def test_square_of_key(self):
        ks, nu = as_sequence(2)
        i = KeyIndex(0, 2)
        q = ks.key_poly(i)
        assert s_set(q * q, i, ks, nu) == {2}

    def test_constant(self):
        ks, nu = as_sequence(2)
        assert s_set(Poly.from_ints(ks.backend, [3]), KeyIndex(0, 2), ks, nu) == {0}

    def test_g_ties_outer_slots(self):
        # both the constant slot and the top slot of g attain the minimum
        ks, nu = as_sequence(2)
        assert s_set(ks.g, KeyIndex(0, 3), ks, nu) == {0, 2}


class TestDerivativeDrop:
    def test_later_key_drops_exactly(self):
        ks, nu = as_sequence(2)
        i = KeyIndex(0, 2)
        result = derivative_drop(ks.key_poly(KeyIndex(0, 5)), i, ks, nu)
        assert result.hypothesis_ok
        assert result.equals_alpha_i
        assert result.drop == ExtValue.of(result.alpha_i)
        assert result.s_set_of_derivative == frozenset({0})

    def test_p_th_power_drops_more(self):
        ks, nu = as_sequence(2)
        i = KeyIndex(0, 2)
        q = ks.key_poly(i)
        result = derivative_drop(q * q, i, ks, nu)
        assert result.s_set == frozenset({2})
        assert result.hypothesis_ok
        assert not result.equals_alpha_i
        assert result.drop > ExtValue.of(result.alpha_i)

    def test_constant_drop_infinite(self):
        ks, nu = as_sequence(2)
        result = derivative_drop(Poly.from_ints(ks.backend, [3]), KeyIndex(0, 2), ks, nu)
        assert result.drop.is_infinite
        assert not result.equals_alpha_i

    def test_g_is_dominated(self):
        # S(g) = {0, p}: no unit slot, so the drop strictly exceeds alpha
        ks, nu = as_sequence(3)
        result = derivative_drop(ks.g, KeyIndex(0, 2), ks, nu)
        assert result.s_set == frozenset({0, 3})
        assert not result.equals_alpha_i
        assert result.drop > ExtValue.of(result.alpha_i)


class TestRemark18:
    def test_support_minimum_is_alpha_i(self):
        # beyond the certificate index the support of g at i is {i}, so the
        # minimizing key drop in the support equals alpha_i itself
        for p in (2, 3):
            ks, nu = as_sequence(p)
            for n in range(1, 7):
                i = KeyIndex(0, n)
                assert i0_set(ks.g, i, ks, nu) == {i}


class TestRewrite:
    def test_one(self):
        ks, nu = as_sequence(2)
        view = NormalizedSequence(ks, nu)
        terms = rewrite_in_generators(Poly.from_ints(ks.backend, [1]), view, nu)
        assert len(terms) == 1 and terms[0].exponents == ()

    def test_four_times_normalized_key(self):
        ks, nu = unramified_sequence()
        view = NormalizedSequence(ks, nu)
        f = Poly.from_ints(ks.backend, [0, 4])  # 4 * x, and x is normalized
        terms = rewrite_in_generators(f, view, nu)
        assert len(terms) == 1
        assert terms[0].scalar.value == Fraction(4)
        assert terms[0].exponents == ((KeyIndex(0, 0), 1),)
        assert nu.nu(f) == ExtValue.of(rat1(2))

    def test_negative_value_rejected(self):
        ks, nu = as_sequence(2)
        view = NormalizedSequence(ks, nu)
        with pytest.raises(NegativeValueInputError):
            rewrite_in_generators(Poly.x(ks.backend), view, nu)  # nu(x) = -1/2

    def test_degree_of_g_rejected(self):
        # rewriting applies below deg(g); the generation statement passes
        # through residues f(eta) with deg f < deg g
        ks, nu = unramified_sequence()
        view = NormalizedSequence(ks, nu)
        f = Poly.from_ints(ks.backend, [3, 1, 1])  # g + 2
        with pytest.raises(ScenarioDataError):
            rewrite_in_generators(f, view, nu)

    def test_min_value_law_on_mixed_input(self):
        ks, nu = unramified_sequence()
        view = NormalizedSequence(ks, nu)
        f = Poly.from_ints(ks.backend, [6, 4])  # values 1 and 2, nu(f) = 1
        terms = rewrite_in_generators(f, view, nu)
        values = sorted(str(t.scalar.value) for t in terms)
        assert nu.nu(f) == ExtValue.of(rat1(1))
        assert values == ["4", "6"]


"""Full expansions, and the lemma checkers over them: slot sets, derivative
drops, generator rewriting."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lemmas import (
    NegativeValueInputError,
    NormalizedSequence,
    context,
    derivative_drop,
    expansion_min_value,
    from_ints,
    indices_below,
    key_indices,
    reconstruct,
    rewrite_in_generators,
    s_set,
    uniformizer_power,
)
from valkit.errors import NoWitnessError, ScenarioDataError
from valkit.expansion import full_expansion, i0_set
from valkit.fields import Backend, HahnElem, _padic
from valkit.groups import rat1
from valkit.keyseq import (
    KeyIndex,
    KeySequence,
    artin_schreier_family,
    artin_schreier_poly,
    find_witness,
)
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


class TestFullExpansion:
    def test_constant(self):
        ks, nu = as_sequence(2)
        f = from_ints(ks.g.backend, [5])
        exp = full_expansion(f, KeyIndex(0, 3), ks, nu, [])
        assert len(exp.terms) == 1 and exp.terms[0].exponents == ()

    def test_g_at_plateau_term(self):
        # g = (x - a_n)^2 + (x - a_n) + g(a_n) in characteristic 2
        ks, nu = as_sequence(2)
        i = KeyIndex(0, 3)
        exp = full_expansion(ks.g, i, ks, nu, indices_below(ks, i))
        assert reconstruct(exp, ks) == ks.g
        exponents = sorted(dict(t.exponents).get(i, 0) for t in exp.terms)
        assert exponents == [0, 1, 2]
        assert i0_set(ks.g, i, ks, nu, indices_below(ks, i)) == {i}

    def test_key_itself(self):
        ks, nu = as_sequence(2)
        i = KeyIndex(0, 2)
        exp = full_expansion(ks.key_poly(i), i, ks, nu, indices_below(ks, i))
        assert len(exp.terms) == 1
        assert exp.terms[0].exponents == ((i, 1),)
        assert i0_set(ks.key_poly(i), i, ks, nu, indices_below(ks, i)) == {i}

    def test_constant_support_empty(self):
        ks, nu = as_sequence(2)
        assert i0_set(from_ints(ks.g.backend, [7]), KeyIndex(0, 2), ks, nu, []) == set()

    def test_min_value_equals_truncation(self):
        ks, nu = as_sequence(3)
        i = KeyIndex(0, 2)
        f = ks.g * Poly.x(ks.g.backend) + from_ints(ks.g.backend, [0, 2, 1])
        exp = full_expansion(f, i, ks, nu, indices_below(ks, i))
        assert reconstruct(exp, ks) == f
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
        assert s_set(from_ints(ks.g.backend, [3]), KeyIndex(0, 2), ks, nu) == {0}

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
        assert result.drop == result.alpha_i
        assert result.s_set_of_derivative == frozenset({0})

    def test_p_th_power_drops_more(self):
        ks, nu = as_sequence(2)
        i = KeyIndex(0, 2)
        q = ks.key_poly(i)
        result = derivative_drop(q * q, i, ks, nu)
        assert result.s_set == frozenset({2})
        assert result.hypothesis_ok
        assert not result.equals_alpha_i
        assert result.drop is None  # (q*q)' = 2*q*q' vanishes in characteristic 2

    def test_constant_drop_infinite(self):
        ks, nu = as_sequence(2)
        result = derivative_drop(from_ints(ks.g.backend, [3]), KeyIndex(0, 2), ks, nu)
        assert result.drop is None
        assert not result.equals_alpha_i

    def test_g_is_dominated(self):
        # S(g) = {0, p}: no unit slot, so the drop strictly exceeds alpha
        ks, nu = as_sequence(3)
        result = derivative_drop(ks.g, KeyIndex(0, 2), ks, nu)
        assert result.s_set == frozenset({0, 3})
        assert not result.equals_alpha_i
        assert result.drop > result.alpha_i


class TestRemark18:
    def test_support_minimum_is_alpha_i(self):
        # beyond the certificate index the support of g at i is {i}, so the
        # minimizing key drop in the support equals alpha_i itself
        for p in (2, 3):
            ks, nu = as_sequence(p)
            for n in range(1, 7):
                i = KeyIndex(0, n)
                assert i0_set(ks.g, i, ks, nu, indices_below(ks, i)) == {i}


class TestRewrite:
    def test_one(self):
        ks, nu = as_sequence(2)
        view = NormalizedSequence(ks, nu)
        terms = rewrite_in_generators(from_ints(ks.g.backend, [1]), view, nu)
        assert len(terms) == 1 and terms[0].exponents == ()

    def test_four_times_normalized_key(self):
        ks, nu = unramified_sequence()
        view = NormalizedSequence(ks, nu)
        f = from_ints(ks.g.backend, [0, 4])  # 4 * x, and x is normalized
        terms = rewrite_in_generators(f, view, nu)
        assert len(terms) == 1
        assert terms[0].coefficient.value == Fraction(4)
        assert terms[0].exponents == ((KeyIndex(0, 0), 1),)
        assert nu.nu(f) == rat1(2)

    def test_negative_value_rejected(self):
        ks, nu = as_sequence(2)
        view = NormalizedSequence(ks, nu)
        with pytest.raises(NegativeValueInputError):
            rewrite_in_generators(Poly.x(ks.g.backend), view, nu)  # nu(x) = -1/2

    def test_degree_of_g_rejected(self):
        # rewriting applies below deg(g); the generation statement passes
        # through residues f(eta) with deg f < deg g
        ks, nu = unramified_sequence()
        view = NormalizedSequence(ks, nu)
        f = from_ints(ks.g.backend, [3, 1, 1])  # g + 2
        with pytest.raises(ScenarioDataError):
            rewrite_in_generators(f, view, nu)

    def test_min_value_law_on_mixed_input(self):
        ks, nu = unramified_sequence()
        view = NormalizedSequence(ks, nu)
        f = from_ints(ks.g.backend, [6, 4])  # values 1 and 2, nu(f) = 1
        terms = rewrite_in_generators(f, view, nu)
        values = sorted(str(t.coefficient.value) for t in terms)
        assert nu.nu(f) == rat1(1)
        assert values == ["4", "6"]



def reference_rewrite(f, normalized, nu, terms_per_plateau=8):
    """Rewriting as its own walk: at the witness of each coefficient, expand
    in the raw key, rescale slot j by a**j and recurse on the rescaled
    coefficient.  Returns (scalar, exponents) pairs in walk order.
    """
    ks = normalized.ks
    candidates = key_indices(ks, terms_per_plateau)

    def rec(c):
        if c.is_zero():
            return []
        if c.degree == 0:
            return [(c.coeff(0), ())]
        w = find_witness(ks, nu, c, candidates)
        if w is None:
            raise NoWitnessError("no witness")
        nk = normalized.at(w)
        out = []
        for j, cj in enumerate(nu.expand(c, nk.original).coeffs):
            if cj.is_zero():
                continue
            for scalar, exponents in rec(cj * Poly.make(cj.backend, [nk.scalar**j])):
                if j:
                    exponents = tuple(sorted(exponents + ((w, j),)))
                out.append((scalar, exponents))
        return out

    return rec(f)


CONTEXTS = ("as2", "as3", "unramified", "hensel")


@st.composite
def elements(draw, backend):
    if backend.kind == "padic":
        return _padic(Fraction(draw(st.integers(-24, 24)), draw(st.integers(1, 24))), backend.p)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        e = Fraction(draw(st.integers(-6, 6)), backend.p ** draw(st.integers(0, 2)))
        terms[e] = draw(st.integers(1, backend.p - 1))
    return HahnElem.make(terms, backend.p)


@st.composite
def context_polys(draw, max_degree=None):
    """(context name, nonzero f) with deg f <= max_degree, else deg f < deg g."""
    name = draw(st.sampled_from(CONTEXTS))
    ks = context(name)[0]
    top = ks.g_degree - 1 if max_degree is None else max_degree
    coeffs = [draw(elements(ks.g.backend)) for _ in range(draw(st.integers(0, top)) + 1)]
    f = Poly.make(ks.g.backend, coeffs)
    assume(not f.is_zero())
    return name, f


class TestOneExpansionWalk:
    @settings(max_examples=200, deadline=None)
    @given(context_polys(), st.integers(0, 2))
    def test_rewrite_matches_the_reference_walk(self, case, shift):
        name, f = case
        ks, nu, _ = context(name)
        # Scale f to nu(f) = shift >= 0.
        v = nu.nu(f)
        a = uniformizer_power(ks.g.backend, shift - Fraction(v.num, v.den))
        f = f * Poly.make(ks.g.backend, [a])
        normalized = NormalizedSequence(ks, nu)
        try:
            want = reference_rewrite(f, normalized, nu)
        except NoWitnessError:
            with pytest.raises(NoWitnessError):
                rewrite_in_generators(f, normalized, nu)
            return
        got = rewrite_in_generators(f, normalized, nu)
        assert [(t.coefficient, t.exponents) for t in got] == want

    @settings(max_examples=200, deadline=None)
    @given(context_polys(max_degree=4), st.integers(0, 4))
    def test_nu_q_and_s_set_read_term_values(self, case, pos):
        name, f = case
        ks, nu, _ = context(name)
        indices = key_indices(ks, 5)
        i = indices[pos % len(indices)]
        q = ks.key_poly(i)
        vq = nu.nu(q)
        want = {
            j: nu.nu(c) + vq.scale(j)
            for j, c in enumerate(q_expand(f, q).coeffs)
            if not c.is_zero()
        }
        least = min(want.values())
        assert nu.term_values(f, q) == want
        assert nu.nu_q(f, q) == least
        assert s_set(f, i, ks, nu) == {j for j, v in want.items() if v == least}

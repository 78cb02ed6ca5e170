"""Value-group arithmetic, segments, isolated subgroups, weak limits."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from valkit.errors import EmptySequenceError
from valkit.groups import (
    CanonicalSegment,
    ClosedForm,
    Diverging,
    ExtValue,
    GroupElem,
    IsolatedSubgroup,
    SegmentRelation,
    Tail,
    canonicalize,
    fit_closed_form,
    largest_delta,
    rat1,
    segment_compare,
    translation_invariant,
    wlim,
)

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)


def elems(rank=1):
    return st.tuples(*([rationals] * rank)).map(lambda t: GroupElem(tuple(t)))


class TestGroupElem:
    @given(elems(), elems(), elems())
    def test_lex_order_translation_invariant(self, a, b, c):
        assert (a < b) == (a + c < b + c)

    @given(elems(2), elems(2))
    def test_lex_order_total(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1

    @given(elems())
    def test_additive_inverse(self, a):
        assert a + (-a) == GroupElem.zero(1)

    def test_infinity_dominates(self):
        inf = ExtValue.infinity()
        assert inf > rat1(10**9)
        assert inf + rat1(5) == inf
        assert ExtValue.of(rat1(1)) + rat1(2) == ExtValue.of(rat1(3))

    def test_infinite_subtrahend_rejected(self):
        with pytest.raises(ValueError):
            ExtValue.of(rat1(0)) - ExtValue.infinity()


def law_segment(c, d, p):
    """Segment generated by the whole family c * p**-n + d."""
    return canonicalize((), Tail(ClosedForm(c, d, p)))


def closed(x):
    return CanonicalSegment("closed", x.rank, x)


WHOLE = CanonicalSegment("whole", 1)


class TestSegmentFrom:
    def test_finite_list_attains_min(self):
        seg = canonicalize([rat1(3), rat1(1), rat1(2)])
        assert seg == closed(rat1(1))

    def test_halving_sequence_has_no_min(self):
        seg = law_segment(rat1(1), rat1(0), 2)  # 1, 1/2, 1/4, ...
        assert seg.kind == "open"
        assert not seg.contains(rat1(0))
        for k in range(6):
            assert seg.contains(rat1(Fraction(1, 2**k)))
        # membership of every positive gamma, and of nothing at 0 or below
        assert seg.contains(rat1(Fraction(1, 10**6)))
        assert not seg.contains(rat1(Fraction(-1, 10**6)))

    def test_constant_closed_form_is_min_closed(self):
        assert law_segment(rat1(0), rat1(5), 2) == closed(rat1(5))

    def test_increasing_closed_form_attains_first_term(self):
        seg = law_segment(rat1(-1), rat1(0), 2)  # -1, -1/2, ...
        assert seg == closed(rat1(-1))

    def test_stabilized(self):
        # 4, 2, then constantly 3: a constant law after a two-term prefix
        tail = Tail(ClosedForm(rat1(0), rat1(3), 2), offset=2)
        assert canonicalize([rat1(4), rat1(2), rat1(3)], tail) == closed(rat1(2))
        assert canonicalize([rat1(4), rat1(2), rat1(3)], tail, drop_prefix=True) == closed(
            rat1(3)
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            canonicalize([])


class TestSegmentCompare:
    def test_equal_min_closed(self):
        assert segment_compare(closed(rat1(0)), closed(rat1(0))) is SegmentRelation.EQUAL

    def test_same_limit_different_scale_equal(self):
        a = law_segment(rat1(1), rat1(0), 2)  # 1/2^n
        b = law_segment(rat1(2), rat1(0), 2)  # 1/2^(n-1)
        assert segment_compare(a, b) is SegmentRelation.EQUAL

    def test_closed_strictly_contains_open_at_same_point(self):
        a = closed(rat1(0))
        b = law_segment(rat1(1), rat1(0), 2)
        assert segment_compare(a, b) is SegmentRelation.A_CONTAINS_B
        assert segment_compare(b, a) is SegmentRelation.B_CONTAINS_A

    def test_whole_contains_everything(self):
        assert segment_compare(WHOLE, closed(rat1(-100))) is SegmentRelation.A_CONTAINS_B

    def test_empty_below_everything(self):
        empty = CanonicalSegment("empty", 1)
        assert segment_compare(empty, closed(rat1(0))) is SegmentRelation.B_CONTAINS_A

    def test_open_ordering_by_limits(self):
        a = law_segment(rat1(1), rat1(0), 2)
        b = law_segment(rat1(1), rat1(1), 3)
        assert segment_compare(a, b) is SegmentRelation.A_CONTAINS_B

    def test_unrecognized_sampled_inconclusive(self):
        # 1/(n+1) is not geometric: no law is recognized, so the column has
        # no tail and no segment to compare.
        terms = [rat1(Fraction(1, n + 1)) for n in range(12)]
        assert fit_closed_form(terms, 2, extend=lambda n: rat1(Fraction(1, n + 1))) is None

    def test_rank2_depth_matters(self):
        # generated by (1/2^n, 0): the segment {x1 > 0}
        shallow = law_segment(GroupElem.of(1, 0), GroupElem.of(0, 0), 2)
        # generated by (0, 1/2^n): the segment {x >lex (0,0)}
        deep = law_segment(GroupElem.of(0, 1), GroupElem.of(0, 0), 2)
        assert segment_compare(deep, shallow) is SegmentRelation.A_CONTAINS_B
        assert deep.contains(GroupElem.of(0, 1))
        assert not shallow.contains(GroupElem.of(0, 1))
        assert shallow.contains(GroupElem.of(Fraction(1, 8), -100))


class TestLargestDelta:
    def test_rank1_open_segment_trivial_delta(self):
        seg = law_segment(rat1(1), rat1(0), 2)
        delta = largest_delta(seg, 1)
        assert delta.suffix_len == 0
        assert translation_invariant(seg, delta)

    def test_rank1_whole_group(self):
        assert largest_delta(WHOLE, 1).suffix_len == 1

    def test_rank1_closed_trivial(self):
        seg = closed(rat1(0))
        delta = largest_delta(seg, 1)
        assert delta.suffix_len == 0
        assert not translation_invariant(seg, IsolatedSubgroup(1, 1))

    def test_rank2_second_coordinate_tail(self):
        seg = law_segment(GroupElem.of(1, 0), GroupElem.of(0, 0), 2)
        delta = largest_delta(seg, 2)
        assert delta.suffix_len == 1
        assert translation_invariant(seg, delta)
        assert not translation_invariant(seg, IsolatedSubgroup(2, 2))

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            largest_delta(CanonicalSegment("empty", 1), 1)


class TestWlim:
    def test_stabilized_constant_branch2(self):
        assert wlim(rat1(0), ClosedForm(rat1(0), rat1(0), 2), IsolatedSubgroup(0, 1))

    def test_halving_branch1(self):
        seq = ClosedForm(rat1(1), rat1(0), 2)
        assert wlim(rat1(0), seq, IsolatedSubgroup(0, 1))

    def test_halving_wrong_target(self):
        seq = ClosedForm(rat1(1), rat1(0), 2)
        assert not wlim(rat1(1), seq, IsolatedSubgroup(0, 1))

    def test_branch2_with_constant_equals_coset_equality(self):
        delta = IsolatedSubgroup(1, 2)  # second coordinate free
        seq = ClosedForm(GroupElem.zero(2), GroupElem.of(3, 7), 2)
        assert wlim(GroupElem.of(3, -50), seq, delta)
        assert not wlim(GroupElem.of(2, 7), seq, delta)

    def test_increasing_sequence_has_no_weak_limit(self):
        seq = ClosedForm(rat1(-1), rat1(0), 2)  # -1, -1/2, ... increasing
        assert not wlim(rat1(0), seq, IsolatedSubgroup(0, 1))

    def test_sampled_with_recognized_law(self):
        # terms sampled from 1/2^n after a two-term prefix: the fitted law
        # carries the weak limit
        terms = [rat1(5), rat1(3)] + [rat1(Fraction(1, 2**n)) for n in range(8)]
        tail = fit_closed_form(terms, 2)
        assert tail.offset == 2
        assert wlim(rat1(0), tail.law, IsolatedSubgroup(0, 1))

    def test_rank2_epsilon_level_blocks_branch1(self):
        # terms (1/2^n, 0) never drop below epsilon = (0, t) > trivial delta
        seq = ClosedForm(GroupElem.of(1, 0), GroupElem.of(0, 0), 2)
        assert not wlim(GroupElem.of(0, 0), seq, IsolatedSubgroup(0, 2))
        # relative to the subgroup free on the second coordinate it works
        assert wlim(GroupElem.of(0, 0), seq, IsolatedSubgroup(1, 2))


class TestFitClosedForm:
    def test_recovers_geometric_law(self):
        law = ClosedForm(rat1(Fraction(3, 2)), rat1(-2), 3)
        terms = [law.term(n) for n in range(10)]
        tail = fit_closed_form(terms, 3)
        assert tail == Tail(law, 0)

    def test_recovers_with_offset(self):
        law = ClosedForm(rat1(1), rat1(0), 2)
        terms = [rat1(17), rat1(5)] + [law.term(n) for n in range(9)]
        tail = fit_closed_form(terms, 2)
        assert tail.offset == 2 and tail.law.d == rat1(0)

    def test_rejects_non_geometric(self):
        terms = [rat1(Fraction(1, n + 1)) for n in range(12)]
        assert fit_closed_form(terms, 2) is None


class TestSegmentLawProperties:
    @given(elems(), elems(), st.integers(min_value=0, max_value=8))
    def test_final_segment_law_closed(self, m, gamma, bump):
        seg = closed(m)
        if seg.contains(gamma):
            assert seg.contains(gamma + rat1(bump))

    @given(
        st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8),
        rationals,
        elems(),
        st.integers(min_value=0, max_value=8),
    )
    def test_final_segment_law_open(self, c, d, gamma, bump):
        seg = law_segment(rat1(c), rat1(d), 2)
        if seg.contains(gamma):
            assert seg.contains(gamma + rat1(bump))

    def test_diverging_segments(self):
        values = [rat1(0), rat1(1), rat1(2)]
        down = Tail(Diverging(increasing=False))
        up = Tail(Diverging(increasing=True))
        assert canonicalize(values, down) == WHOLE
        assert canonicalize(values, up) == closed(rat1(0))
        assert canonicalize(values, up, drop_prefix=True) == closed(rat1(2))

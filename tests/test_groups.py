"""Value-group arithmetic, segments, isolated subgroups, weak limits."""
import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lemmas import segment_contains
from valkit.errors import EmptySequenceError, ScenarioDataError
from valkit.groups import (
    PROBE_BUDGET,
    CanonicalSegment,
    ClosedForm,
    Diverging,
    GroupElem,
    SegmentRelation,
    Tail,
    canonicalize,
    fit_closed_form,
    largest_delta,
    rat1,
    segment_compare,
    wlim,
)

rationals = st.fractions(Fraction(-30), Fraction(30), max_denominator=12)


def elems():
    return rationals.map(GroupElem)


# Numerators and denominators up to about 10**30, each pair scaled by a
# common factor so that unreduced input such as 2/4 is common.
_BIG = 10**30
wide_pairs = st.builds(
    lambda n, d, k: (n * k, d * k),
    st.integers(-_BIG, _BIG),
    st.integers(1, _BIG),
    st.integers(1, 12),
)


def _from_pair(pair):
    """The element and the `Fraction` reference of an unreduced pair n/d."""
    n, d = pair
    return rat1(Fraction(n, d)), Fraction(n, d)


def _agrees(elem, ref):
    """`elem` is `ref`: the reduced pair and the printed form."""
    return (
        (elem.num, elem.den) == (ref.numerator, ref.denominator)
        and str(elem) == f"{ref.numerator}/{ref.denominator}"
    )


class TestGroupElem:
    @given(elems(), elems(), elems())
    def test_lex_order_translation_invariant(self, a, b, c):
        assert (a < b) == (a + c < b + c)

    @given(elems(), elems())
    def test_lex_order_total(self, a, b):
        assert (a < b) + (a == b) + (b < a) == 1

    @given(elems())
    def test_additive_inverse(self, a):
        assert a + (-a) == GroupElem.zero()

    @pytest.mark.parametrize("bare", [Fraction(1, 2), 3, None])
    @pytest.mark.parametrize(
        "op", [operator.add, operator.sub, operator.lt, operator.le, operator.gt, operator.ge]
    )
    def test_bare_numbers_rejected(self, op, bare):
        # Exactness is enforced by type: a bare number never mixes in, and
        # neither does None, the infinite value.
        with pytest.raises(TypeError):
            op(rat1(1), bare)
        with pytest.raises(TypeError):
            op(bare, rat1(1))
        assert rat1(3) != 3 and rat1(Fraction(1, 2)) != Fraction(1, 2)

    @given(wide_pairs, wide_pairs, st.integers(-_BIG, _BIG), wide_pairs)
    @example((2, 4), (-3, 6), 0, (4, 8))
    @example((0, 5), (0, 1), -1, (-6, 4))
    def test_kernel_matches_fraction(self, pa, pb, k, pr):
        a, fa = _from_pair(pa)
        b, fb = _from_pair(pb)
        fr = Fraction(*pr)
        assert _agrees(a, fa) and _agrees(b, fb)
        assert _agrees(a + b, fa + fb)
        assert _agrees(a - b, fa - fb)
        assert _agrees(-a, -fa)
        assert _agrees(a.scale(k), fa * k)
        assert _agrees(a.scale(fr), fa * fr)
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
            assert op(a, b) == op(fa, fb)
            assert op(a, a) == op(fa, fa)
        assert a.is_zero() == (fa == 0)

    @given(wide_pairs, st.integers(1, 12))
    def test_equal_values_compare_and_hash_equal(self, pair, m):
        # Every way in to one value, and the arithmetic's own results, give
        # one pair: a sum or difference is reduced like a parsed string.
        x = Fraction(*pair)
        built = [GroupElem(x), rat1(x)]
        built.append(rat1(x + 1) - rat1(1))
        built.append(rat1(x).scale(Fraction(m, 1)).scale(Fraction(1, m)))
        if x.denominator == 1:
            built += [rat1(x.numerator), GroupElem(x.numerator)]
        assert all(e == built[0] and hash(e) == hash(built[0]) for e in built)

    @given(wide_pairs, wide_pairs, st.integers(2, 7))
    def test_closed_form_term_matches_fraction(self, pc, pd, p):
        (c, fc), (d, fd) = _from_pair(pc), _from_pair(pd)
        law = ClosedForm(c, d, p)
        for n in range(PROBE_BUDGET + 1):
            assert _agrees(law.term(n), fc / p**n + fd)

    def test_rat1_rejects_float(self):
        with pytest.raises(TypeError):
            rat1(0.5)
        with pytest.raises(TypeError):
            rat1("1/2")


def law_segment(c, d, p):
    """Segment generated by the whole family c * p**-n + d."""
    return canonicalize((), Tail(ClosedForm(c, d, p)))


def closed(x):
    return CanonicalSegment("closed", x)


WHOLE = CanonicalSegment("whole")


class TestSegmentFrom:
    def test_finite_list_attains_min(self):
        seg = canonicalize([rat1(3), rat1(1), rat1(2)])
        assert seg == closed(rat1(1))

    def test_halving_sequence_has_no_min(self):
        seg = law_segment(rat1(1), rat1(0), 2)  # 1, 1/2, 1/4, ...
        assert seg.kind == "open"
        assert not segment_contains(seg, rat1(0))
        for k in range(6):
            assert segment_contains(seg, rat1(Fraction(1, 2**k)))
        # membership of every positive gamma, and of nothing at 0 or below
        assert segment_contains(seg, rat1(Fraction(1, 10**6)))
        assert not segment_contains(seg, rat1(Fraction(-1, 10**6)))

    def test_constant_law_raises(self):
        # A stream's key values increase strictly, so no segment column is constant.
        with pytest.raises(ScenarioDataError, match="not decreasing"):
            law_segment(rat1(0), rat1(5), 2)

    def test_increasing_law_raises(self):
        with pytest.raises(ScenarioDataError, match="not decreasing"):
            law_segment(rat1(-1), rat1(0), 2)  # -1, -1/2, ...

    def test_stabilized(self):
        # 4, 2, then constantly 3: a constant law after a two-term prefix
        tail = Tail(ClosedForm(rat1(0), rat1(3), 2), offset=2)
        for drop_prefix in (False, True):
            with pytest.raises(ScenarioDataError, match="not decreasing"):
                canonicalize([rat1(4), rat1(2), rat1(3)], tail, drop_prefix)

    def test_prefix_minimum_at_or_below_the_limit(self):
        # 4, 2, then 7/2, 13/4, ... down to 3; a prefix minimum of 3 sits on it
        tail = Tail(ClosedForm(rat1(1), rat1(3), 2), offset=2)
        values = [rat1(4), rat1(2), rat1(4), rat1(Fraction(7, 2))]
        assert canonicalize(values, tail) == closed(rat1(2))
        assert canonicalize(values, tail, drop_prefix=True) == law_segment(rat1(1), rat1(3), 2)
        values[1] = rat1(3)
        assert canonicalize(values, tail) == closed(rat1(3))
        values[1] = rat1(Fraction(13, 4))
        assert canonicalize(values, tail) == law_segment(rat1(1), rat1(3), 2)

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

    def test_open_ordering_by_limits(self):
        a = law_segment(rat1(1), rat1(0), 2)
        b = law_segment(rat1(1), rat1(1), 3)
        assert segment_compare(a, b) is SegmentRelation.A_CONTAINS_B

    def test_unrecognized_sampled_inconclusive(self):
        # 1/(n+1) is not geometric: no law is recognized, so the column has
        # no tail and no segment to compare.
        terms = [rat1(Fraction(1, n + 1)) for n in range(12)]
        assert fit_closed_form(terms, 2, extend=lambda n: rat1(Fraction(1, n + 1))) is None


class TestLargestDelta:
    def test_rank1_open_segment_trivial_delta(self):
        assert largest_delta(law_segment(rat1(1), rat1(0), 2)) == 0

    def test_rank1_whole_group(self):
        assert largest_delta(WHOLE) == 1

    def test_rank1_closed_trivial(self):
        assert largest_delta(closed(rat1(0))) == 0


class TestWlim:
    def test_stabilized_constant_branch2(self):
        assert wlim(rat1(0), ClosedForm(rat1(0), rat1(0), 2), 0)

    def test_halving_branch1(self):
        seq = ClosedForm(rat1(1), rat1(0), 2)
        assert wlim(rat1(0), seq, 0)
        # Relative to the whole group every value is a weak limit.
        assert wlim(rat1(-50), seq, 1)

    def test_halving_wrong_target(self):
        seq = ClosedForm(rat1(1), rat1(0), 2)
        assert not wlim(rat1(1), seq, 0)

    def test_branch2_with_constant_equals_coset_equality(self):
        seq = ClosedForm(GroupElem.zero(), rat1(3), 2)
        # Modulo the trivial subgroup a coset is one value.
        assert wlim(rat1(3), seq, 0)
        assert not wlim(rat1(2), seq, 0)
        # Modulo the whole group there is one coset.
        assert wlim(rat1(-50), seq, 1)

    def test_increasing_sequence_has_no_weak_limit(self):
        seq = ClosedForm(rat1(-1), rat1(0), 2)  # -1, -1/2, ... increasing
        assert not wlim(rat1(0), seq, 0)

    def test_sampled_with_recognized_law(self):
        # terms sampled from 1/2^n after a two-term prefix: the fitted law
        # carries the weak limit
        terms = [rat1(5), rat1(3)] + [rat1(Fraction(1, 2**n)) for n in range(8)]
        tail = fit_closed_form(terms, 2)
        assert tail.offset == 2
        assert wlim(rat1(0), tail.law, 0)


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

    def test_no_fraction_arithmetic(self, fraction_ops):
        # Terms and fit run on the elements' integer pairs alone.
        law = ClosedForm(rat1(Fraction(-7, 3)), rat1(Fraction(5, 4)), 3)
        terms = [law.term(n) for n in range(PROBE_BUDGET)]
        assert fit_closed_form(terms, 3) == Tail(law, 0)
        assert fraction_ops == Counter()


class TestSegmentLawProperties:
    @given(elems(), elems(), st.integers(0, 8))
    def test_final_segment_law_closed(self, m, gamma, bump):
        seg = canonicalize([m, m + rat1(bump)])
        assert seg == closed(m)
        if segment_contains(seg, gamma):
            assert segment_contains(seg, gamma + rat1(bump))

    @given(
        st.fractions(Fraction(1, 8), 4, max_denominator=8),
        rationals,
        elems(),
        st.integers(0, 8),
    )
    def test_final_segment_law_open(self, c, d, gamma, bump):
        seg = law_segment(rat1(c), rat1(d), 2)
        if segment_contains(seg, gamma):
            assert segment_contains(seg, gamma + rat1(bump))

    def test_diverging_segments(self):
        values = [rat1(0), rat1(1), rat1(2)]
        down = Tail(Diverging(increasing=False))
        up = Tail(Diverging(increasing=True))
        assert canonicalize(values[::-1], down) == WHOLE
        assert canonicalize(values[::-1], down, drop_prefix=True) == WHOLE
        # A segment column never diverges upwards.
        for drop_prefix in (False, True):
            with pytest.raises(ScenarioDataError, match="diverges upwards"):
                canonicalize(values, up, drop_prefix)


# ---------------------------------------------------------------------------
# Test-local copies of the lexicographic rank-r `segment_compare` and `wlim`
# that the rank-1 code replaced, on coordinate tuples.  The rank-1 code must
# agree with them on every rank-1 draw.
# ---------------------------------------------------------------------------

def _lex_view(seg):
    """(kind, point coordinates, depth) of a segment; an open one has depth 1."""
    point = None if seg.point is None else (Fraction(seg.point.num, seg.point.den),)
    return seg.kind, point, 1 if seg.kind == "open" else None


def _flip(rel):
    return {
        SegmentRelation.A_CONTAINS_B: SegmentRelation.B_CONTAINS_A,
        SegmentRelation.B_CONTAINS_A: SegmentRelation.A_CONTAINS_B,
    }.get(rel, rel)


def _rank_r_segment_compare(a, b):
    (ka, pa, da), (kb, pb, db) = a, b
    A, B = SegmentRelation.A_CONTAINS_B, SegmentRelation.B_CONTAINS_A
    if a == b:
        return SegmentRelation.EQUAL
    if ka == "whole":
        return A
    if kb == "whole":
        return B
    if ka == kb == "closed":
        return A if pa < pb else B
    if ka == "closed":
        return A if pa[:db] <= pb[:db] else B
    if kb == "closed":
        return _flip(_rank_r_segment_compare(b, a))
    j = min(da, db)
    if pa[:j] == pb[:j]:
        if da == db:
            return SegmentRelation.EQUAL
        return B if da < db else A
    return A if pa[:j] < pb[:j] else B


def _leading_position(coords):
    return next((k for k, x in enumerate(coords, start=1) if x), None)


def _rank_r_wlim(gamma, c, d, suffix_len):
    """Weak limit of ``c * p**-n + d`` modulo the subgroup free on the last
    `suffix_len` coordinates."""
    fixed = len(c) - suffix_len
    zero = (0,) * len(c)
    if not any(c[:fixed]):
        return gamma[:fixed] == d[:fixed]
    if c < zero:
        return False
    if any(x - y for x, y in zip(gamma[:fixed], d[:fixed])):
        return False
    return _leading_position(c) == fixed


small = st.fractions(-4, 4, max_denominator=3).map(GroupElem)


@st.composite
def segments(draw):
    """Any segment kind, points drawn from a small set so that they collide."""
    kind = draw(st.sampled_from(("whole", "closed", "open")))
    if kind == "whole":
        return CanonicalSegment(kind)
    if kind == "closed":
        return canonicalize([draw(small)])
    c = draw(st.fractions(Fraction(1, 4), 4, max_denominator=4))
    return law_segment(rat1(c), draw(small), draw(st.sampled_from((2, 3))))


class TestRankRReference:
    @settings(max_examples=400, deadline=None)
    @given(segments(), segments())
    def test_segment_compare_matches(self, a, b):
        expected = _rank_r_segment_compare(_lex_view(a), _lex_view(b))
        assert segment_compare(a, b) is expected

    @pytest.mark.parametrize("x", [rat1(-1), rat1(0), rat1(Fraction(1, 3))])
    def test_closed_and_open_at_an_equal_point(self, x):
        a, b = closed(x), law_segment(rat1(1), x, 2)
        for u, v in ((a, b), (b, a)):
            expected = _rank_r_segment_compare(_lex_view(u), _lex_view(v))
            assert segment_compare(u, v) is expected
        assert segment_compare(a, b) is SegmentRelation.A_CONTAINS_B

    @settings(max_examples=400, deadline=None)
    @given(small, small, small, st.sampled_from((2, 3)), st.integers(0, 1), st.booleans())
    def test_wlim_matches(self, gamma, c, d, p, delta, at_limit):
        if at_limit:
            gamma = d
        for scale in (c, GroupElem.zero()):
            law = ClosedForm(scale, d, p)
            gamma_q, scale_q, d_q = (Fraction(x.num, x.den) for x in (gamma, scale, d))
            expected = _rank_r_wlim((gamma_q,), (scale_q,), (d_q,), delta)
            assert wlim(gamma, law, delta) == expected

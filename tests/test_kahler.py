"""Invariant streams, segments and the three vanishing criteria."""
import dataclasses
import functools
from collections import Counter
from fractions import Fraction
from math import inf, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from lemmas import artin_schreier_customs, from_ints
from valkit import kahler
from valkit.cli import build_stream, parse_config_dict, run
from valkit.errors import (
    HypothesisViolatedError,
    LawMismatchError,
    ScenarioDataError,
    StabilizationBudgetExceededError,
)
from valkit.groups import (
    CanonicalSegment,
    ClosedForm,
    Diverging,
    FiniteList,
    GroupElem,
    SegmentRelation,
    Tail,
    fit_closed_form,
    rat1,
    segment_compare,
    wlim,
)
from valkit.kahler import (
    COLUMNS,
    Block,
    BSetReport,
    InvariantRecord,
    InvariantStream,
    VerdictKind,
    _instability_cut,
    _least_line,
    _separating_value,
    _wlim_branch,
    b_set,
    cut_contains_eventually,
    classify,
    column_segment,
    ideal_inclusion_check,
    invariant_stream,
    omega_verdict,
)
from valkit.fields import Backend
from valkit.keyseq import (
    KeyIndex,
    KeySequence,
    PlateauFamily,
    ScheduleStage,
    hensel_family,
    line_laws,
    slot_lines,
    stage_terms,
)
from valkit.poly import Poly, derivative
from valkit.truncation import NuOracle


def stream_for(data):
    return build_stream(parse_config_dict(data))


AS2 = stream_for({"scenario": "artin-schreier", "p": 2, "va": "-1"})
AS3 = stream_for({"scenario": "artin-schreier", "p": 3, "va": "-1"})
UNRAMIFIED = stream_for({"scenario": "unramified"})
HENSEL = stream_for({"scenario": "hensel-immediate"})
KUMMER_AT = stream_for({"scenario": "kummer-schedule", "p": 3, "vp": "1"})
KUMMER_BELOW = stream_for({"scenario": "kummer-schedule", "p": 3, "vp": "1", "gamma": "1/3"})


class TestInvariantStream:
    @pytest.mark.parametrize("stream,p", [(AS2, 2), (AS3, 3)])
    def test_artin_schreier_records(self, stream, p):
        for n, rec in enumerate(stream.records, start=1):
            assert rec.alpha == rat1(Fraction(1, p**n))
            assert rec.beta == rat1(Fraction(1, p ** (n - 1)))
            assert rec.beta_tilde == rec.beta
            assert rec.nu_i_gprime == rat1(0)
        assert stream.nu_gprime == rat1(0)
        law = stream.plateau.tails["alpha"].law
        assert law.d == rat1(0) and law.p == p

    def test_unramified_single_record(self):
        (rec,) = UNRAMIFIED.records
        assert rec.alpha == rec.beta == rec.beta_tilde == rat1(0)
        assert rec.nu_key == rec.nu_key_deriv == rat1(0)
        assert UNRAMIFIED.ks.istar_has_max()

    def test_hensel_divergence(self):
        tails = HENSEL.plateau.tails
        assert tails["alpha"].law == Diverging(increasing=False)
        assert tails["beta"].law == Diverging(increasing=False)
        assert tails["nu_i_g"].law == Diverging(increasing=True)
        for rec, nxt in zip(HENSEL.records, HENSEL.records[1:]):
            assert nxt.alpha < rec.alpha

    def test_one_block_per_stage(self):
        stream = stream_for({
            "scenario": "custom", "backend": "hahn", "p": 2,
            "g": ["1*t^(-1)", "1*t^(0)", "1*t^(0)"],
            "stages": [{"poly": ["0*t^(0)", "1*t^(0)"]}, {"family": "artin_schreier"}],
            "oracle": "stabilization",
        })
        explicit, plateau = stream.blocks
        assert (explicit.stage_pos, len(explicit.records), explicit.tails) == (0, 1, None)
        assert (plateau.stage_pos, len(plateau.records)) == (1, 8)
        assert set(plateau.tails) == set(COLUMNS) and stream.plateau is plateau
        assert stream.records == explicit.records + plateau.records

    def test_nu_key_deriv_of_a_quadratic_key(self):
        # Only a linear key has nu(Q') = 0 by construction: Q = x^2 - 2x + 3
        # below g = Q^2 + 2 has Q' = 2x - 2 and nu(Q') = 5/4.  This g has
        # e != 1, so no verdict is asserted.
        stream = stream_for({
            "scenario": "custom", "backend": "padic", "p": 2,
            "g": ["11", "-12", "10", "-4", "1"],
            "stages": [{"poly": ["0", "1"]}, {"poly": ["3", "-2", "1"]}],
            "oracle": "resultant",
        })
        linear, quadratic = stream.records
        assert linear.nu_key_deriv == rat1(0)
        assert (quadratic.degree, quadratic.nu_key_deriv) == (2, rat1(Fraction(5, 4)))

    def test_kummer_records(self):
        # nu(x - a_n) = 1/2 - 3^-n, alpha_n its negative, beta via p * kv
        rec2 = KUMMER_AT.records[1]
        assert rec2.nu_key == rat1(Fraction(1, 2) - Fraction(1, 3))
        assert rec2.alpha == -rec2.nu_key
        assert rec2.nu_i_g == rec2.nu_key.scale(3)
        assert rec2.nu_i_gprime == rat1(1)


class TestRowMemo:
    def test_hensel_rows_built_once(self, monkeypatch):
        # every row index costs exactly two truncations (of g and of g'),
        # and the stream builds no row beyond its `terms`
        bases = Counter()
        nu_q = NuOracle.nu_q

        def counted(self, f, q):
            bases[q] += 1
            return nu_q(self, f, q)

        monkeypatch.setattr(NuOracle, "nu_q", counted)
        stream = stream_for({"scenario": "hensel-immediate"})
        # the certificate decides the columns whose fits probed further rows
        assert len(bases) == len(stream.records) == 8
        assert set(bases.values()) == {2}

    def test_b_set_expands_g_once_per_term(self, expansions):
        # the stream's rows already expanded g over every plateau key the
        # slots read, so b_set takes those expansions from the oracle
        stream = stream_for({"scenario": "artin-schreier", "p": 5, "va": "-1"})
        assert expansions  # the counter sees the stream's rows
        expansions.clear()
        report = b_set(stream)
        assert report.b_set == frozenset({1})
        assert not expansions

    def test_kummer_nu_gprime_from_the_schedule(self):
        (stage,) = KUMMER_AT.ks.stages
        assert KUMMER_AT.nu is None
        assert KUMMER_AT.nu_gprime == stage.nu_gprime == rat1(1)
        assert KUMMER_AT.ks.g_degree == 3 and not KUMMER_AT.ks.istar_has_max()


@st.composite
def hensel_configs(draw):
    """Monic integral quadratic with a simple residue root and no rational root."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    start = draw(st.integers(0, p - 1))
    b = draw(st.integers(-20, 20))
    if (2 * start + b) % p == 0:
        b += 1  # g'(start) a unit
    c = -(start * start + b * start) + p * draw(st.integers(-6, 6))
    disc = b * b - 4 * c
    assume(disc < 0 or isqrt(disc) ** 2 != disc)
    return {
        "scenario": "hensel-immediate", "p": p, "terms": draw(st.integers(2, 16)),
        "g": [str(c), str(b), "1"], "start": start,
    }


@st.composite
def kummer_configs(draw):
    """A closed-form value schedule at or below the threshold gamma = vp/(p-1)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    vp = Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 4)))
    gamma = vp / (p - 1) - Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 5)))
    scale = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    return {
        "scenario": "kummer-schedule", "p": p, "terms": draw(st.integers(2, 16)),
        "vp": str(vp), "gamma": str(gamma), "scale": str(scale),
    }


def reference_tails(stream, block):
    """Every column fitted with extension to the stage's limit, then the
    family's certificate rules, written out here.

    The rows are recomputed: from the oracle for a family, and from the
    full minimum over the slot laws for a value schedule.  Under a
    certificate the key values and the truncations of g diverge upwards
    where no law fits them, and alpha, beta and beta_tilde diverge
    downwards where no law fits them and their partner column (nu(Q'),
    none, nu(g')) is constant.
    """
    ks, nu = stream.ks, stream.nu
    stage = ks.stages[block.stage_pos]
    limit = stage_terms(stage, inf)

    @functools.cache
    def row(n):
        if isinstance(stage, ScheduleStage):
            nu_key, nu_key_deriv = stage.key_value(n), GroupElem.zero()
            nu_i_g = former_least_slot_value(stage.g_coef_laws, nu_key)
            nu_i_gp = former_least_slot_value(stage.gprime_coef_laws, nu_key)
        else:
            q = ks.key_poly(KeyIndex(block.stage_pos, n))
            nu_key, nu_key_deriv = nu.nu(q), nu.nu(derivative(q))
            nu_i_g, nu_i_gp = nu.nu_q(ks.g, q), nu.nu_q(derivative(ks.g), q)
        return {
            "nu_key": nu_key, "nu_key_deriv": nu_key_deriv, "alpha": nu_key_deriv - nu_key,
            "beta": stream.nu_gprime - nu_i_g, "beta_tilde": nu_i_gp - nu_i_g,
            "nu_i_g": nu_i_g, "nu_i_gprime": nu_i_gp,
        }

    def extender(name):
        def extend(k):
            if k + 1 > limit:
                return None
            try:
                return row(k + 1)[name]
            except StabilizationBudgetExceededError:
                return None
        return extend

    tails = {
        name: fit_closed_form(
            block.values(name),
            ks.p,
            extend=None if limit == len(block.records) else extender(name),
        )
        for name in COLUMNS
    }
    if getattr(stage, "divergence_bound", None) is None:
        return tails

    def constant(tail):
        return tail is not None and isinstance(tail.law, ClosedForm) and tail.law.c.is_zero()

    up, down = Tail(Diverging(increasing=True)), Tail(Diverging(increasing=False))
    tails["nu_key"] = tails["nu_key"] or up
    tails["nu_i_g"] = tails["nu_i_g"] or up
    g_diverges = isinstance(tails["nu_i_g"].law, Diverging)
    if constant(tails["nu_key_deriv"]):
        tails["alpha"] = tails["alpha"] or down
    if g_diverges:
        tails["beta"] = tails["beta"] or down
    if constant(tails["nu_i_gprime"]) and g_diverges:
        tails["beta_tilde"] = tails["beta_tilde"] or down
    return tails


def assert_reference_tails(stream):
    block = stream.plateau
    expected = reference_tails(stream, block)
    assert {k: t and t.describe() for k, t in block.tails.items()} == {
        k: expected[k] and expected[k].describe() for k in COLUMNS
    }


class TestCertificateFirst:
    """The tails a family states, and those a schedule fits, equal fitting
    every column; a stated law that a record breaks is caught."""

    @settings(max_examples=30, deadline=None)
    @given(hensel_configs())
    def test_tails_equal_fitting_every_column(self, data):
        assert_reference_tails(stream_for(data))

    @settings(max_examples=30, deadline=None)
    @given(artin_schreier_customs())
    def test_artin_schreier_tails_equal_fitting_every_column(self, data):
        try:
            stream = stream_for(data)
        except HypothesisViolatedError:
            assume(False)  # a lies in {b^p - b} + O_K
        assert_reference_tails(stream)

    @settings(max_examples=40, deadline=None)
    @given(kummer_configs())
    def test_kummer_tails_equal_fitting_every_column(self, data):
        assert_reference_tails(stream_for(data))


    @pytest.mark.parametrize(
        "name, law",
        [
            ("nu_i_gprime", ClosedForm(rat1(0), rat1(1), 2)),
            ("beta_tilde", Diverging(increasing=True)),
            ("nu_i_g", Diverging(increasing=False)),
        ],
    )
    def test_a_wrongly_stated_tail_breaks_on_the_first_record(self, name, law):
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])
        lifts = hensel_family(backend, g, 0)
        wrong = PlateauFamily(
            backend,
            lambda n, prev: lifts.center(n),
            {**lifts.tails, name: Tail(law)},
            lifts.precision,
            lifts.divergence_bound,
        )
        ks = KeySequence((wrong,), g, 2)
        with pytest.raises(LawMismatchError, match=f"record 1 breaks the stated {name} tail"):
            invariant_stream(ks, NuOracle.stabilization(g, lifts))


class TestFit:
    def test_extension_reaches_the_term_at_the_limit(self):
        # Seven records of 1 + 3^-(n-1); the eighth term, at the limit,
        # completes the four fitted and four verified terms.
        law = ClosedForm(rat1(1), rat1(1), 3)
        values = [law.term(n - 1) for n in range(1, 8)]
        tail = kahler._fit(values, 3, lambda n: law.term(n - 1), limit=8)
        assert tail == Tail(law, 0)
        assert kahler._fit(values, 3, lambda n: law.term(n - 1), limit=7) is None


class TestSequenceChecks:
    def test_stalling_plateau_rejected(self):
        # the key values rise for six terms and then repeat; the stream
        # checks every materialized term, not a shorter prefix
        backend = Backend("padic", 2)
        g = from_ints(backend, [2, 1, 1])
        lifts = hensel_family(backend, g, 0)
        stalling = PlateauFamily(backend, lambda n, prev: lifts.center(min(n, 6)), lifts.tails)
        ks = KeySequence((stalling,), g, 2)
        nu = NuOracle.stabilization(g, lifts)
        with pytest.raises(ScenarioDataError, match="plateau key values must increase strictly"):
            invariant_stream(ks, nu, terms=8)

    def test_g_not_monic_over_explicit_key_rejected(self):
        # x^3 + x + 1 = (x - 1)(x^2 + x + 1) + (x + 2): the top slot is x - 1
        backend = Backend("padic", 2)
        g = from_ints(backend, [1, 1, 0, 1])
        key = from_ints(backend, [1, 1, 1])
        ks = KeySequence((key,), g, 2)
        with pytest.raises(ScenarioDataError, match="g is not monic over an explicit key"):
            invariant_stream(ks, NuOracle.from_resultant(g))

    @staticmethod
    def _before_the_family(key: str, oracle: str) -> dict:
        """g = x^2 + x + t^-1 at p = 2 with one explicit key before its family."""
        return run(parse_config_dict({
            "scenario": "custom", "backend": "hahn", "p": 2, "g": ["1*t^(-1)", "1", "1"],
            "stages": [{"poly": [key, "1"]}, {"family": "artin_schreier"}], "oracle": oracle,
        }))

    @pytest.mark.parametrize("oracle", ["stabilization", "resultant"])
    def test_a_key_may_not_drop_in_value_at_a_stage_boundary(self, oracle):
        # nu(x - t^(-1/2)) = -1/4, and the family's first key x has value -1/2.
        report = self._before_the_family("1*t^(-1/2)", oracle)
        assert report["exit_code"] == 3
        assert report["error"] == (
            "HypothesisViolatedError: key 1.1 has a lower value than the key before it"
        )

    @pytest.mark.parametrize("oracle", ["stabilization", "resultant"])
    def test_a_key_may_repeat_the_value_before_it(self, oracle):
        # The family's first key is x itself, of value -1/2 as the key before it.
        report = self._before_the_family("0", oracle)
        assert (report["exit_code"], report["records"][0]["nu_key"]) == (0, "-1/2")
        assert report["records"][1]["nu_key"] == "-1/2"


class TestSegments:
    def test_artin_schreier_open_at_zero(self):
        alpha_seg, beta_seg = AS2.alpha_segment, AS2.beta_segment
        assert alpha_seg.kind == "open" and alpha_seg.point == rat1(0)
        assert segment_compare(alpha_seg, beta_seg) is SegmentRelation.EQUAL

    def test_unramified_min_closed_zero(self):
        alpha_seg, beta_seg = UNRAMIFIED.alpha_segment, UNRAMIFIED.beta_segment
        assert alpha_seg == CanonicalSegment("closed", rat1(0)) == beta_seg

    def test_hensel_whole_group(self):
        alpha_seg, beta_seg = HENSEL.alpha_segment, HENSEL.beta_segment
        assert alpha_seg.kind == "whole"
        assert beta_seg.kind == "whole"

    def test_inclusion_check_all_builtins(self):
        for stream in (AS2, AS3, UNRAMIFIED, HENSEL, KUMMER_AT, KUMMER_BELOW):
            assert ideal_inclusion_check(stream) == ("record_chain", "segment_comparison")


class TestOmegaVerdict:
    def test_artin_schreier_zero(self):
        assert omega_verdict(AS2).kind is VerdictKind.OMEGA_ZERO
        assert omega_verdict(AS3).kind is VerdictKind.OMEGA_ZERO

    def test_kummer_threshold(self):
        assert omega_verdict(KUMMER_AT).kind is VerdictKind.OMEGA_ZERO
        v = omega_verdict(KUMMER_BELOW)
        assert v.kind is VerdictKind.OMEGA_NONZERO
        assert "separating_value" in v.witness

    def test_unramified_and_hensel_zero(self):
        assert omega_verdict(UNRAMIFIED).kind is VerdictKind.OMEGA_ZERO
        assert omega_verdict(HENSEL).kind is VerdictKind.OMEGA_ZERO


class TestClassify:
    def test_unramified_case_i(self):
        v = classify(UNRAMIFIED)
        assert v.kind is VerdictKind.OMEGA_ZERO and v.case == "i"
        assert v.witness["min_alpha"] == "0/1"
        assert v.witness["delta_suffix_len"] == 0

    def test_artin_schreier_case_ii_branch2(self):
        v = classify(AS2)
        assert v.kind is VerdictKind.OMEGA_ZERO and v.case == "ii"
        assert v.witness["delta_suffix_len"] == 0
        assert v.witness["wlim_branch"] == 2

    def test_hensel_case_ii(self):
        v = classify(HENSEL)
        assert v.kind is VerdictKind.OMEGA_ZERO and v.case == "ii"
        assert v.witness["delta_suffix_len"] == 1  # whole group in rank 1

    def test_kummer_below_fails_regeneration(self):
        v = classify(KUMMER_BELOW)
        assert v.kind is VerdictKind.OMEGA_NONZERO and v.case == "ii"
        assert v.witness["failed"] == "beta_tilde_cannot_regenerate_alpha"

    def test_kummer_at_threshold_case_ii(self):
        v = classify(KUMMER_AT)
        assert v.kind is VerdictKind.OMEGA_ZERO and v.case == "ii"
        assert v.witness["wlim_branch"] == 2


# ---------------------------------------------------------------------------
# The outcomes of the minimum case, on streams built by hand.  A record has
# nu(Q) = nu(g') = 0, so its alpha, beta and beta-tilde fix the rest.
# ---------------------------------------------------------------------------

_PADIC2 = Backend("padic", 2)
# Keys x and x^2 + x + 1 below g = x^2 + x + 3; the full expansion of g at
# the quadratic key has support {1.0}.
_G = from_ints(_PADIC2, [3, 1, 1])
_EXPLICIT_KS = KeySequence((Poly.x(_PADIC2), from_ints(_PADIC2, [1, 1, 1])), _G, 2)
# A plateau (its centers are never built) below a quadratic key and a cubic g.
_PLATEAU_KS = KeySequence(
    (
        PlateauFamily(_PADIC2, lambda n, prev: _PADIC2.zero(), {}),
        from_ints(_PADIC2, [1, 1, 1]),
    ),
    from_ints(_PADIC2, [1, 1, 0, 1]),
    2,
)
_CONSTANT = Tail(ClosedForm(rat1(0), rat1(0), 2))


def hand_record(index, degree, alpha, beta, beta_tilde):
    a, b, bt = rat1(alpha), rat1(beta), rat1(beta_tilde)
    return InvariantRecord(index, degree, rat1(0), a, a, b, bt, -b, bt - b)


def explicit_stream(*rows):
    """`_EXPLICIT_KS` with one (alpha, beta, beta_tilde) row per key."""
    blocks = tuple(
        Block(pos, pos + 1, (hand_record(KeyIndex(pos, 0), pos + 1, *row),), None)
        for pos, row in enumerate(rows)
    )
    return InvariantStream(blocks, rat1(0), _EXPLICIT_KS, NuOracle.from_resultant(_G))


def plateau_stream(beta_tail, last_row=None):
    """A plateau of constant alpha 0 and beta 1, then the quadratic key's row."""
    records = tuple(hand_record(KeyIndex(0, n), 1, 0, 1, 0) for n in (1, 2))
    tails = {**{name: _CONSTANT for name in COLUMNS}, "beta": beta_tail}
    blocks = [Block(0, 1, records, tails)]
    if last_row is not None:
        blocks.append(Block(1, 2, (hand_record(KeyIndex(1, 0), 2, *last_row),), None))
        ks = _PLATEAU_KS
    else:
        ks = KeySequence(_PLATEAU_KS.stages[:1], _G, 2)
    return InvariantStream(tuple(blocks), rat1(0), ks)


class TestClassifyMinCase:
    """Each way the minimum case (i) can fail, and its undecided beta column."""

    def failed(self, stream):
        v = classify(stream)
        assert v.kind is VerdictKind.OMEGA_NONZERO and v.case == "i"
        return v.witness["failed"]

    def test_no_maximal_index(self):
        # alpha attains its minimum, but the plateau has no last key
        assert self.failed(plateau_stream(_CONSTANT)) == "no_maximal_index"

    def test_beta_tilde_above_a_whole_beta_segment(self):
        stream = plateau_stream(Tail(Diverging(increasing=False)), last_row=(1, 1, 1))
        assert column_segment(stream, "beta").kind == "whole"
        assert self.failed(stream) == "beta_tilde_not_below_all_betas"

    def test_beta_tilde_above_a_closed_beta_segment(self):
        # the last beta-tilde, 1, exceeds the first beta, 0
        stream = explicit_stream((0, 0, 0), (1, 2, 1))
        assert self.failed(stream) == "beta_tilde_not_below_all_betas"

    def test_beta_tilde_differs_from_min_alpha(self):
        stream = explicit_stream((0, 1, 0), (1, 1, Fraction(1, 2)))
        assert self.failed(stream) == "beta_tilde_differs_from_min_alpha"

    def test_no_support_witness(self):
        # the minimal alpha sits at x, outside the support {1.0} of g's
        # expansion at the quadratic key
        stream = explicit_stream((-1, 0, -1), (0, 0, -1))
        assert self.failed(stream) == "no_support_witness"

    def test_beta_column_undecidable(self):
        v = classify(plateau_stream(None, last_row=(1, 1, 1)))
        assert v.kind is VerdictKind.INCONCLUSIVE and v.reason == "beta column undecidable"


class TestBSet:
    def test_artin_schreier_b1(self):
        report = b_set(AS2)
        assert report.describe()["cut"] == {"kind": "open_below", "bound": "0/1"}
        assert report.b_set == frozenset({1})
        assert report.b1 is True

    def test_artin_schreier_p3_vanishing_slot(self):
        report = b_set(AS3)
        # slot 2 of x^3 - x - a vanishes identically in characteristic 3
        assert report.b_set == frozenset({1})
        notes = {s.slot: s for s in report.slots}
        assert notes[2].member is False

    def test_kummer_threshold_vs_below(self):
        assert b_set(KUMMER_AT).b1
        report = b_set(KUMMER_BELOW)
        assert not report.b1
        assert report.b_set == frozenset()

    def test_deep_prime_slot_streams_extend(self):
        # slot-value laws must be recognized even when fewer terms are
        # materialized than the fit window, by extending along the family
        stream = stream_for({"scenario": "artin-schreier", "p": 5, "va": "-1", "terms": 6})
        report = b_set(stream)
        assert report.b1 is True
        assert report.b_set == frozenset({1})

    def test_hensel_whole_cut(self):
        report = b_set(HENSEL)
        assert report.describe()["cut"] == {"kind": "whole"}
        assert report.b1

    def test_unramified_hypotheses_violated(self):
        with pytest.raises(HypothesisViolatedError):
            b_set(UNRAMIFIED)

    def test_linear_limit_polynomial_rejected(self):
        # a linear g has the degree of the plateau's keys: the sequence is
        # rejected before b_set could look at its empty slot range
        stage = ScheduleStage(
            key_values=ClosedForm(rat1(-1), rat1(0), 2),
            g_coef_laws=((rat1(0), 1), (rat1(0), 1)),
            gprime_coef_laws=((rat1(0), 0),),
            nu_gprime=rat1(0),
        )
        with pytest.raises(HypothesisViolatedError, match="larger degree than the plateau"):
            KeySequence((stage,), None, 2)


class TestCriterionAgreement:
    @pytest.mark.parametrize(
        "stream,expect_zero",
        [
            (AS2, True),
            (AS3, True),
            (UNRAMIFIED, True),
            (HENSEL, True),
            (KUMMER_AT, True),
            (KUMMER_BELOW, False),
        ],
    )
    def test_all_routes_agree(self, stream, expect_zero):
        v1 = omega_verdict(stream)
        v2 = classify(stream)
        expected = VerdictKind.OMEGA_ZERO if expect_zero else VerdictKind.OMEGA_NONZERO
        assert v1.kind is expected
        assert v2.kind is expected
        try:
            assert b_set(stream).b1 is expect_zero
        except HypothesisViolatedError:
            pass  # criterion not applicable; the other two decided


class TestMinimizingPlateauMonotonicity:
    @pytest.mark.parametrize("stream", [AS2, AS3, HENSEL])
    def test_alpha_strictly_decreasing_beyond_certificate(self, stream):
        # The plateau that `classify` names, from certificate index 1.
        block = stream.plateau
        values = block.values("alpha")
        assert len(values) >= 8
        assert all(b < a for a, b in zip(values, values[1:]))
        law = block.tails["alpha"].law
        if isinstance(law, ClosedForm):
            assert law.c > rat1(0)  # keeps decreasing forever
        else:
            assert law == Diverging(increasing=False)


class TestScheduleValidation:
    def test_finite_schedule_without_law_is_undecided(self):
        # an explicit nongeometric list gives no tail description
        values = tuple(rat1(Fraction(-1, n)) for n in range(1, 9))
        stage = ScheduleStage(
            key_values=FiniteList(values),
            g_coef_laws=(
                (rat1(0), 3),
                (rat1(1), 1),
                (rat1(1), 2),
                (rat1(0), 3),
            ),
            gprime_coef_laws=((rat1(1), 0), (rat1(1), 1), (rat1(1), 2)),
            nu_gprime=rat1(1),
        )
        stream = invariant_stream(KeySequence((stage,), None, 3), None)
        assert omega_verdict(stream).kind is VerdictKind.INCONCLUSIVE
        verdict = classify(stream)
        assert verdict.kind is VerdictKind.INCONCLUSIVE
        assert verdict.reason == "alpha column undecidable"

    def test_stream_without_oracle_needs_schedules(self):
        with pytest.raises(ScenarioDataError):
            invariant_stream(UNRAMIFIED.ks, None)


# ---------------------------------------------------------------------------
# Schedule truncations from the reduced slot lines, checked against a
# test-local copy of the full minimum over every slot law that the schedule
# rows took before.
# ---------------------------------------------------------------------------

def former_least_slot_value(laws, key_value):
    """Least term value ``const + mult * key_value`` over the slots."""
    return min(const + key_value.scale(mult) for const, mult in laws)


_consts = st.fractions(-6, 6, max_denominator=4)
slot_laws = st.lists(
    st.tuples(_consts.map(rat1), st.integers(0, 9)),
    min_size=1, max_size=10,
)


def assert_least_switch(envelope, budget):
    """The switch is the least term index below `budget` from which the
    first law is the least at every term (at some later ones checked), and
    `budget` when no index below it is."""
    laws, switch = envelope
    assert 0 <= switch <= budget

    def first_is_least(k):
        return laws[0].term(k) == min(law.term(k) for law in laws)

    if switch < budget:
        assert all(first_is_least(k) for k in (*range(switch, budget), budget + 10, budget + 100))
    if switch > 0:
        assert not first_is_least(switch - 1)


@st.composite
def kummer_closed_forms(draw):
    """Closed-form Kummer schedules at and below the threshold vp/(p-1),
    with scale up to p^9, over budgets 2-64 (every term taken)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    vp = draw(st.fractions(Fraction(1, 4), 6, max_denominator=4))
    below = draw(st.one_of(st.just(Fraction(0)), st.fractions(Fraction(1, 8), 3, max_denominator=8)))
    scale = draw(st.fractions(Fraction(1, 4), p**9, max_denominator=4))
    budget = draw(st.integers(2, 64))
    return {
        "scenario": "kummer-schedule", "p": p, "vp": str(vp), "gamma": str(vp / (p - 1) - below),
        "scale": str(scale), "budget": budget, "terms": budget,
    }


class TestSlotLines:
    @settings(max_examples=300, deadline=None)
    @given(slot_laws, _consts)
    def test_least_line_is_the_least_slot_value(self, laws, x):
        lines = slot_lines(laws)
        assert len(lines) <= 2 * len({const for const, _ in laws})
        # Key values below, at and above 0.
        for key_value in map(rat1, (-abs(x), 0, abs(x))):
            assert _least_line(lines, key_value) == former_least_slot_value(laws, key_value)

    def test_lines_are_derived_once_per_stage(self):
        (stage,) = KUMMER_AT.ks.stages
        assert stage.g_lines is stage.g_lines
        # g = x^3 - a at p = 3: the outer slots share const 0 and mult 3,
        # the inner two const 1 with mults 1 and 2; g' has const 1, mults 0..2.
        zero, one = rat1(0), rat1(1)
        assert sorted(stage.g_lines) == [(zero, 3), (one, 1), (one, 2)]
        assert sorted(stage.gprime_lines) == [(one, 0), (one, 2)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("terms", [8, 16, 32])
    @pytest.mark.parametrize("gamma", ["at", "half", "near"])
    def test_kummer_rows_match_the_full_minimum(self, p, terms, gamma, monkeypatch):
        threshold = Fraction(1, p - 1)
        data = {"scenario": "kummer-schedule", "p": p, "vp": "1", "terms": terms}
        data["gamma"] = str({"at": threshold, "half": threshold / 2, "near": threshold - Fraction(1, p**3)}[gamma])
        built = []

        def record(**fields):
            built.append(InvariantRecord(**fields))
            return built[-1]

        # Every row the stream builds, the ones its fits probe included.
        monkeypatch.setattr(kahler, "InvariantRecord", record)
        stream = stream_for(data)
        (stage,) = stream.ks.stages
        assert len(built) >= terms
        for rec in built:
            assert rec.nu_i_g == former_least_slot_value(stage.g_coef_laws, rec.nu_key)
            assert rec.nu_i_gprime == former_least_slot_value(stage.gprime_coef_laws, rec.nu_key)

    # A switch index k is the record k + 1 from which one line law is the
    # truncation.  At scale p^7, g' switches at record 9, past the eight-term
    # window a fit checks: the mechanism behind the strict xfails of
    # `test_verified_laws_hold_on_every_printed_row_at_a_large_scale`.
    @pytest.mark.parametrize("p,extra,gprime_record", [
        (2, {"scale": "128"}, 8),
        (3, {"scale": str(3**7)}, 9),
        (5, {"scale": str(5**7)}, 9),
        (7, {"scale": str(7**7)}, 9),
        (5, {"gamma": "1/8"}, 3),
        (3, {}, 2),
        (5, {}, 2),
        (7, {}, 2),
    ])
    def test_kummer_switch_records(self, p, extra, gprime_record):
        (stage,) = stream_for({"scenario": "kummer-schedule", "p": p, "vp": "1", **extra}).ks.stages
        assert stage.g_laws[1] + 1 == 1
        assert stage.gprime_laws[1] + 1 == gprime_record

    @settings(max_examples=150, deadline=None)
    @given(kummer_closed_forms())
    def test_rows_read_the_least_law_from_its_switch(self, data):
        stream = stream_for(data)
        (stage,) = stream.ks.stages
        budget = data["budget"]
        assert len(stream.records) == budget
        for rec in stream.records:
            assert rec.nu_i_g == _least_line(stage.g_lines, rec.nu_key)
            assert rec.nu_i_gprime == _least_line(stage.gprime_lines, rec.nu_key)
        for envelope in (stage.g_laws, stage.gprime_laws):
            assert_least_switch(envelope, budget)

    @settings(max_examples=300, deadline=None)
    @given(slot_laws, _consts, _consts, st.sampled_from([2, 3, 5, 7]), st.integers(2, 64))
    def test_switch_of_any_lines_is_the_least(self, laws, c, d, p, budget):
        lines = slot_lines(laws)
        key = ClosedForm(rat1(c), rat1(d), p)
        envelope = line_laws(lines, key, budget)
        for k in (0, budget - 1):
            assert min(law.term(k) for law in envelope[0]) == _least_line(lines, key.term(k))
        assert_least_switch(envelope, budget)


# ---------------------------------------------------------------------------
# One tail description and one segment normal form, checked against
# test-local copies of the code they replaced: a prefix-plus-constant family
# for the weak limit, a separate initial-segment type for the instability
# cut, and a rescan of all earlier alphas for the inclusion chain.
# ---------------------------------------------------------------------------

small = st.fractions(-6, 6, max_denominator=4)


def elems():
    return small.map(GroupElem)


def _coset_key(x, delta):
    """The coset of `x` modulo the whole group (delta 1) or the trivial one."""
    return () if delta else (Fraction(x.num, x.den),)


def _former_stabilized_wlim(gamma, prefix, tail, delta):
    """Weak limit of a family equal to `tail` beyond `prefix`."""
    cosets = [_coset_key(t, delta) for t in (*prefix, tail)]
    tail_key = _coset_key(tail, delta)
    return tail_key == min(cosets) and _coset_key(gamma, delta) == tail_key


def _former_wlim_branch(gamma, values, tail, delta):
    """Classification branch (b), one try per truncation offset."""
    law = tail.law
    if isinstance(law, ClosedForm) and law.c.is_zero():
        for offset in range(tail.offset + 1):
            if _former_stabilized_wlim(gamma, values[offset : tail.offset], law.d, delta):
                return 2
        return None
    if isinstance(law, ClosedForm) and wlim(gamma, law, delta):
        return 1
    return None


@st.composite
def columns(draw):
    """Materialized values and the tail of a column: any law or a divergence."""
    prefix = draw(st.lists(elems(), max_size=4))
    kind = draw(st.sampled_from(("constant", "law", "up", "down")))
    if kind in ("up", "down"):
        return prefix or [draw(elems())], Tail(Diverging(kind == "up"))
    c = GroupElem.zero() if kind == "constant" else draw(elems())
    law = ClosedForm(c, draw(elems()), draw(st.sampled_from((2, 3))))
    return prefix + [law.term(k) for k in range(4)], Tail(law, len(prefix))


class TestWlimBranch:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_one_wlim_call_matches_the_offset_loop(self, data):
        delta = data.draw(st.integers(0, 1))
        values, tail = data.draw(columns())
        gamma = data.draw(elems())
        if isinstance(tail.law, ClosedForm) and data.draw(st.booleans()):
            # Land gamma in the limit's coset, where either branch can hold.
            gamma = tail.law.d + (gamma if delta else GroupElem.zero())
        assert _wlim_branch(gamma, tail.law, delta) == _former_wlim_branch(
            gamma, values, tail, delta
        )

    def test_constant_law_is_branch_2_and_a_decreasing_one_branch_1(self):
        delta = 0
        assert _wlim_branch(rat1(3), ClosedForm(rat1(0), rat1(3), 2), delta) == 2
        assert _wlim_branch(rat1(3), ClosedForm(rat1(1), rat1(3), 2), delta) == 1
        assert _wlim_branch(rat1(3), Diverging(increasing=False), delta) is None


@st.composite
def nested_segments(draw):
    """A closed or open final segment and one strictly inside it."""
    kinds = st.sampled_from(("closed", "open"))
    outer = CanonicalSegment(draw(kinds), draw(elems()))
    shift = draw(st.fractions(0, 6, max_denominator=4).map(GroupElem))
    inner = CanonicalSegment(draw(kinds), outer.point + shift)
    assume(segment_compare(outer, inner) is SegmentRelation.A_CONTAINS_B)
    return outer, inner


class TestSeparatingValue:
    @settings(max_examples=300, deadline=None)
    @given(nested_segments())
    def test_value_lies_in_the_larger_segment_only(self, pair):
        outer, inner = pair
        value = _separating_value(outer, inner)
        assert outer.contains(value) and not inner.contains(value)


@dataclasses.dataclass(frozen=True)
class _FormerCut:
    kind: str  # "whole" | "closed_below" | "open_below"
    bound: GroupElem | None = None

    def describe(self):
        out = {"kind": self.kind}
        if self.bound is not None:
            out["bound"] = str(self.bound)
        return out


def _former_cut_from_column(tail, values):
    law = tail.law
    if isinstance(law, Diverging):
        if law.increasing:
            return _FormerCut("whole")
        return _FormerCut("closed_below", max(values))
    if law.c.is_zero():
        top, attained = law.d, True
    elif law.c < GroupElem.zero():
        top, attained = law.d, False
    else:
        top, attained = law.term(0), True
    prefix = values[: tail.offset]
    if prefix and max(prefix) >= top:
        return _FormerCut("closed_below", max(prefix))
    return _FormerCut("closed_below" if attained else "open_below", top)


def _former_cut_contains_eventually(cut, tail):
    if cut.kind == "whole":
        return True
    law = tail.law
    if isinstance(law, Diverging):
        return not law.increasing
    limit = law.d
    from_above = law.c > GroupElem.zero()
    if cut.kind == "closed_below":
        if from_above:
            return limit < cut.bound
        return limit <= cut.bound
    # open_below
    if from_above:
        return limit < cut.bound
    if law.c.is_zero():
        return limit < cut.bound
    return limit <= cut.bound


class TestInstabilityCut:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_cut_and_membership_match_the_former_cut(self, data):
        values, tail = data.draw(columns())
        law = tail.law
        if isinstance(law, ClosedForm) and tail.offset:
            # Prefixes above and below the top of the law.
            values[: tail.offset] = [
                law.term(0) + v for v in data.draw(
                    st.lists(elems(), min_size=tail.offset, max_size=tail.offset)
                )
            ]
        cut = _instability_cut(values, tail)
        former = _former_cut_from_column(tail, values)
        assert BSetReport(cut, (), frozenset(), None).describe()["cut"] == former.describe()

        slot_kind = data.draw(st.sampled_from(("up", "down", "law")))
        if slot_kind != "law":
            slot = Tail(Diverging(slot_kind == "up"))
        else:
            # A limit at, just above or just below a value of the column.
            d = data.draw(st.sampled_from(values)) + data.draw(
                st.sampled_from((rat1(0), rat1(0), rat1(1), rat1(-1)))
            )
            c = data.draw(st.sampled_from((rat1(-1), rat1(0), rat1(1))))
            slot = Tail(ClosedForm(c, d, 2))
        assert cut_contains_eventually(cut, slot) == _former_cut_contains_eventually(
            former, slot
        )

    def test_cut_of_an_increasing_law_is_open_below_its_limit(self):
        tail = Tail(ClosedForm(rat1(-1), rat1(2), 2))
        cut = _instability_cut([rat1(1), rat1(Fraction(3, 2))], tail)
        describe = BSetReport(cut, (), frozenset(), None).describe()["cut"]
        assert describe == {"kind": "open_below", "bound": "2/1"}
        assert cut_contains_eventually(cut, Tail(ClosedForm(rat1(-1), rat1(2), 3)))
        assert not cut_contains_eventually(cut, Tail(ClosedForm(rat1(1), rat1(2), 3)))


def _late_term_in_cut(cut, law):
    """Membership of the value at n = 64, far past every gap these draws make."""
    return cut.contains(-law.term(64))


def _rank_r_cut_contains_eventually(cut, tail):
    """The lexicographic rank-r `cut_contains_eventually` that the rank-1
    code replaced, on coordinate tuples; an open cut has depth 1."""
    if cut.kind == "whole":
        return True
    law = tail.law
    if isinstance(law, Diverging):
        return not law.increasing
    point = (Fraction(cut.point.num, cut.point.den),)
    limit, c = (Fraction(-law.d.num, law.d.den),), (Fraction(law.c.num, law.c.den),)
    depth = 1 if cut.kind == "open" else len(point)
    j = next((k for k, x in enumerate(c, start=1) if x), None)
    if j is None or (cut.kind == "open" and j > depth):
        return limit[:depth] > point[:depth] if cut.kind == "open" else limit >= point
    if c > (0,) * len(c):
        return limit[:j] > point[:j]
    return limit[:j] >= point[:j]


UNITS = [rat1(-1), rat1(0), rat1(1)]


@st.composite
def unit_columns(draw):
    """A column that is a law from its first term, its scale in {-1, 0, 1}."""
    law = ClosedForm(draw(st.sampled_from(UNITS)), draw(elems()), draw(st.sampled_from((2, 3))))
    return [law.term(k) for k in range(4)], Tail(law)


class TestCutContainsEventually:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_membership_of_a_late_term(self, data):
        values, tail = data.draw(st.one_of(columns(), unit_columns()))
        cut = _instability_cut(values, tail)
        p = data.draw(st.sampled_from((2, 3)))
        limits = [data.draw(elems())]
        if cut.point is not None:
            # Negated limits at, above and below the point.
            limits += [-(cut.point + u) for u in UNITS]
        # Scales of either sign and zero.
        for c in UNITS + [data.draw(elems())]:
            for d in limits:
                law = ClosedForm(c, d, p)
                got = cut_contains_eventually(cut, Tail(law))
                assert got == _late_term_in_cut(cut, law), law
                assert got == _rank_r_cut_contains_eventually(cut, Tail(law)), law


def _former_inclusion_check(stream):
    alpha_seg, beta_seg = stream.alpha_segment, stream.beta_segment
    if alpha_seg is not None and beta_seg is not None:
        rel = segment_compare(beta_seg, alpha_seg)
        if rel not in (SegmentRelation.EQUAL, SegmentRelation.B_CONTAINS_A):
            raise ScenarioDataError("beta segment escapes the alpha segment")
    for k, rec in enumerate(stream.records):
        if not rec.beta >= rec.beta_tilde:
            raise ScenarioDataError("beta < beta_tilde at a record")
        if not any(rec.beta_tilde >= r.alpha for r in stream.records[: k + 1]):
            raise ScenarioDataError("no earlier alpha witnesses beta_tilde")
    return True


def _hand_built(rows):
    """A stream of explicit keys with the given (alpha, beta_tilde, beta) rows."""
    blocks = []
    for k, (alpha, beta_tilde, beta) in enumerate(rows):
        alpha, beta_tilde, beta = rat1(alpha), rat1(beta_tilde), rat1(beta)
        rec = InvariantRecord(
            KeyIndex(k, 0), 1, rat1(0), alpha, alpha, beta, beta_tilde, rat1(0), beta_tilde
        )
        blocks.append(Block(k, 1, (rec,), None))
    return dataclasses.replace(KUMMER_AT, blocks=tuple(blocks))


def _outcome(check, stream):
    """The failure message of an inclusion check, or None when it passes."""
    try:
        check(stream)
    except ScenarioDataError as exc:
        return str(exc)
    return None


class TestInclusionChain:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=6))
    def test_running_minimum_matches_the_rescan(self, rows):
        stream = _hand_built(rows)
        assert _outcome(ideal_inclusion_check, stream) == _outcome(_former_inclusion_check, stream)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([(0, 1, 0)], "beta < beta_tilde at a record"),
            ([(5, 3, 3), (1, 1, 1)], "no earlier alpha witnesses beta_tilde"),
            ([(1, 0, 0)], "beta segment escapes the alpha segment"),
        ],
    )
    def test_each_failure_raises(self, rows, message):
        with pytest.raises(ScenarioDataError, match=message):
            ideal_inclusion_check(_hand_built(rows))

    def test_an_earlier_alpha_witnesses_a_later_beta_tilde(self):
        assert "record_chain" in ideal_inclusion_check(_hand_built([(0, 0, 0), (5, 3, 3)]))

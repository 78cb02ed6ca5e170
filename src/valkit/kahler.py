"""Invariant streams and the three vanishing criteria.

For every key index i below the support polynomial g the stream records

    nu(Q_i), nu(Q_i'), alpha_i = nu(Q_i') - nu(Q_i),
    nu_i(g), nu_i(g'), beta_i = nu(g') - nu_i(g),
    beta_tilde_i = nu_i(g') - nu_i(g).

`invariant_stream` is the one builder, for field-backed keys and value
schedules alike: a memoized row per key index serves the records and every
tail fit.  It returns one `Block` per stage -- a key `Poly`, a
`PlateauFamily` or a `ScheduleStage` -- with its position, degree, the
records of as many terms as `keyseq.stage_terms` gives, and tails for a
plateau or schedule; segments are unions of block segments.

Each field-backed row checks that g is monic over its key on the expansion
its truncation of g then reads from the oracle, each plateau or schedule
block that its key values increase strictly, and each block that its first
key has no lower value than the key before it of the same degree
(`HypothesisViolatedError`).  Plateau columns carry a `groups.Tail`: an
exact law ``c * p**-n + d`` with the scenario's own ``p``, or a
divergence.  A plateau family states the tails of nu(Q_n), nu_n(g),
nu_n(g') and beta-tilde, checked on every record; only a `ScheduleStage`
has them fitted, each law fixed by two consecutive computed terms and
checked on eight.  A plateau key is linear and monic, so nu(Q_n') = 0 on
every term and in its tail without an oracle call, and the alpha and beta
tails are the nu(Q_n) and nu_n(g) tails mapped by `Tail.affine`.  Segments
(`CanonicalSegment`), verdicts and the expansion-slot criterion are
decided from those tails; a column without one (schedule data following
another ratio, for instance) yields an inconclusive outcome, never a
guess.

The three independent routes to the vanishing decision:

* `omega_verdict` -- equality of the segments generated by the alpha and
  beta streams;
* `classify` -- the minimum / no-minimum case analysis (maximal index,
  beta-tilde domination and expansion-support witness; respectively first
  minimizing plateau, beta-tilde regeneration and weak limit relative to
  the largest invariant subgroup, which in the rank-1 value group is the
  whole group for the whole segment and trivial otherwise);
* `b_set` -- slot 1 of the expansion of g staying below the instability
  cut along the single plateau (`BSetReport.b1`); the cut is the
  `CanonicalSegment` of the negated nu_i(g) column.

Every segment, the cut included, is a `CanonicalSegment` built by
`canonicalize`, and every tail a `groups.Tail`.  The stream caches its alpha
and beta segments (`alpha_segment`, `beta_segment`) for all their readers.

Valid scenario data makes all three agree; structural violations raise
`ScenarioDataError` instead of producing a verdict.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import (
    HypothesisViolatedError,
    InconclusiveError,
    LawMismatchError,
    ScenarioDataError,
    StabilizationBudgetExceededError,
)
from .groups import (
    CanonicalSegment,
    ClosedForm,
    Diverging,
    GroupElem,
    SegmentRelation,
    Tail,
    canonicalize,
    expect_finite,
    fit_closed_form,
    largest_delta,
    segment_compare,
    segment_union,
    wlim,
)
from .keyseq import (
    KeyIndex,
    KeySequence,
    PlateauFamily,
    ScheduleStage,
    stage_terms,
)
from .poly import Poly, derivative, q_expand  # noqa: F401 (perfbench's tracer test reads it)
from .truncation import NuOracle

COLUMNS = (
    "nu_key",
    "nu_key_deriv",
    "alpha",
    "beta",
    "beta_tilde",
    "nu_i_g",
    "nu_i_gprime",
)


@dataclass(slots=True)
class InvariantRecord:
    """Exact per-index invariant tuple, all entries finite below g; immutable by convention."""

    index: KeyIndex
    degree: int
    nu_key: GroupElem
    nu_key_deriv: GroupElem
    alpha: GroupElem
    beta: GroupElem
    beta_tilde: GroupElem
    nu_i_g: GroupElem
    nu_i_gprime: GroupElem

    def column(self, name: str) -> GroupElem:
        return getattr(self, name)

    def describe(self) -> dict:
        return {
            "index": self.index.label(),
            "degree": self.degree,
            "nu_key": str(self.nu_key),
            "nu_key_deriv": str(self.nu_key_deriv),
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "beta_tilde": str(self.beta_tilde),
            "nu_i_g": str(self.nu_i_g),
            "nu_i_gprime": str(self.nu_i_gprime),
        }


@dataclass(frozen=True)
class Block:
    """One stage of the stream with its records.

    An explicit key has one record and ``tails=None``; a plateau or a
    schedule has its materialized terms and a tail per column.
    """

    stage_pos: int
    degree: int
    records: tuple[InvariantRecord, ...]
    tails: dict[str, Tail | None] | None

    def values(self, name: str) -> list[GroupElem]:
        return [r.column(name) for r in self.records]

    def segment(self, name: str, drop_prefix: bool = False) -> CanonicalSegment | None:
        """Segment generated by one column; None for a column without a tail."""
        if self.tails is None:
            return canonicalize(self.values(name))
        tail = self.tails[name]
        return None if tail is None else canonicalize(self.values(name), tail, drop_prefix)


@dataclass(frozen=True, eq=False)
class InvariantStream:
    """One block per stage, in stage order, plus the source handles."""

    blocks: tuple[Block, ...]
    nu_gprime: GroupElem
    ks: KeySequence
    nu: NuOracle | None = None  # None for a value schedule

    @functools.cached_property
    def records(self) -> tuple[InvariantRecord, ...]:
        return tuple(r for block in self.blocks for r in block.records)

    @functools.cached_property
    def alpha_segment(self) -> CanonicalSegment | None:
        return column_segment(self, "alpha")

    @functools.cached_property
    def beta_segment(self) -> CanonicalSegment | None:
        return column_segment(self, "beta")

    @property
    def plateau(self) -> Block | None:
        """The one block with tails (`KeySequence` admits one plateau), or None."""
        return next((block for block in self.blocks if block.tails is not None), None)


class VerdictKind(Enum):
    OMEGA_ZERO = "omega_zero"
    OMEGA_NONZERO = "omega_nonzero"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    case: str | None = None  # "i" (minimum) or "ii" (no minimum)
    witness: dict = field(default_factory=dict)
    reason: str = ""

    def describe(self) -> dict:
        return {
            "kind": self.kind.value,
            "case": self.case,
            "witness": {k: self.witness[k] for k in sorted(self.witness)},
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# Stream construction
# ---------------------------------------------------------------------------

def invariant_stream(ks: KeySequence, nu: NuOracle | None, terms: int = 8) -> InvariantStream:
    """One block per stage, from one memoized row per key index.

    Field-backed stages read their values off the oracle, except nu(Q') of
    a linear key, which is 0; a `ScheduleStage` synthesizes them from its
    value laws (linear keys too): each truncation of g or g' is the least of
    the stage's reduced slot lines at the key value, on the value group's
    integer pairs with no `Fraction`.  A sequence of schedules alone comes
    with ``nu=None`` and its own nu(g').  Rows and blocks are checked as the
    module docstring says.  The nu(Q') tail is the constant 0.  A family's
    other tails are the ones it states, checked on every record
    (`_check_stated_tails`); a schedule's are laws fitted and re-verified on
    further exact rows.  alpha and beta map the nu_key and nu_i_g tails.
    """
    if (nu is None) != (ks.g is None):
        raise ScenarioDataError("a sequence takes an oracle exactly when it carries g")
    if nu is None:
        # Without g the sequence is its one value schedule (checked by KeySequence).
        nu_gprime = ks.stages[0].nu_gprime
    else:
        g = ks.g
        gp = derivative(g)
        if gp.is_zero():
            raise ScenarioDataError("the support polynomial must be separable")
        nu_gprime = expect_finite(nu.nu(gp))

    @functools.cache
    def row(index: KeyIndex) -> InvariantRecord:
        stage = ks.stages[index.stage]
        if isinstance(stage, ScheduleStage):
            nu_key = stage.key_value(index.term)
            nu_key_deriv = GroupElem.zero()
            if isinstance(stage.key_values, ClosedForm):
                nu_i_g = _least_law(stage.g_laws, index.term - 1)
                nu_i_gp = _least_law(stage.gprime_laws, index.term - 1)
            else:
                nu_i_g = _least_line(stage.g_lines, nu_key)
                nu_i_gp = _least_line(stage.gprime_lines, nu_key)
        else:
            q = ks.key_poly(index)
            # Checked before any value; nu_q(g, q) reads this expansion back.
            if not nu.expand(g, q).is_monic():
                kind = "an explicit" if isinstance(stage, Poly) else "a plateau"
                raise ScenarioDataError(f"g is not monic over {kind} key")
            nu_key = expect_finite(nu.nu(q))
            # The expansion just checked q monic: a linear key has Q' = 1.
            deriv = GroupElem.zero() if q.degree == 1 else nu.nu(derivative(q))
            nu_key_deriv = expect_finite(deriv)
            nu_i_g = expect_finite(nu.nu_q(g, q))
            nu_i_gp = expect_finite(nu.nu_q(gp, q))
        return InvariantRecord(
            index=index,
            degree=stage.degree,
            nu_key=nu_key,
            nu_key_deriv=nu_key_deriv,
            alpha=nu_key_deriv - nu_key,
            beta=nu_gprime - nu_i_g,
            beta_tilde=nu_i_gp - nu_i_g,
            nu_i_g=nu_i_g,
            nu_i_gprime=nu_i_gp,
        )

    blocks: list[Block] = []
    for pos, stage in enumerate(ks.stages):
        if isinstance(stage, Poly):
            records = (row(KeyIndex(pos, 0)),)
        else:
            records = tuple(row(KeyIndex(pos, n)) for n in range(1, stage_terms(stage, terms) + 1))
        # Keys of one degree are ordered by value, across stages too.
        before = blocks[-1].records[-1] if blocks else records[0]
        if before.degree == stage.degree and records[0].nu_key < before.nu_key:
            raise HypothesisViolatedError(
                f"key {records[0].index.label()} has a lower value than the key before it"
            )
        if isinstance(stage, Poly):
            blocks.append(Block(pos, stage.degree, records, None))
            continue
        subject = "schedule values" if isinstance(stage, ScheduleStage) else "plateau key values"
        if any(not a.nu_key < b.nu_key for a, b in zip(records, records[1:])):
            raise ScenarioDataError(f"{subject} must increase strictly")
        # Plateau and schedule keys are linear, so nu(Q') = 0 on every term.
        zero = GroupElem.zero()
        tails = {"nu_key_deriv": Tail(ClosedForm(zero, zero, ks.p))}
        if isinstance(stage, PlateauFamily):
            _check_stated_tails(stage, records)
            tails.update(stage.tails)
        else:
            # A fit may probe past the records, to the end of a finite list.
            limit = stage_terms(stage, math.inf)
            for c in ("nu_key", "nu_i_g", "nu_i_gprime", "beta_tilde"):
                values = [r.column(c) for r in records]
                tails[c] = _fit(values, ks.p, lambda n, c=c: row(KeyIndex(pos, n)).column(c), limit)
        key, g_tail = tails["nu_key"], tails["nu_i_g"]
        # alpha = 0 - nu_key and beta = nu(g') - nu_i_g, term by term.
        tails["alpha"] = key.affine(-1, zero) if key else None
        tails["beta"] = g_tail.affine(-1, nu_gprime) if g_tail else None
        blocks.append(Block(pos, stage.degree, records, {n: tails[n] for n in COLUMNS}))

    return InvariantStream(tuple(blocks), nu_gprime, ks, nu)


def _fit(values: list[GroupElem], p: int, term, limit: int | float) -> Tail | None:
    """`fit_closed_form` on `values`, extended by ``term(n)`` up to term `limit`.

    A term the stabilization oracle cannot value within its budget ends the
    extension as the limit does, so an oracle budget never turns a slot
    the certificate decides into an error.
    """

    def extend(k: int) -> GroupElem | None:
        if k + 1 > limit:
            return None
        try:
            return term(k + 1)
        except StabilizationBudgetExceededError:
            return None

    return fit_closed_form(values, p, extend=None if limit <= len(values) else extend)


def _least_line(lines: tuple[tuple[GroupElem, int], ...], x: GroupElem) -> GroupElem:
    """Least ``const + mult * x`` over a schedule's `slot_lines`."""
    return min(c + x.scale(m) for c, m in lines)


def _least_law(envelope: tuple[tuple[ClosedForm, ...], int], k: int) -> GroupElem:
    """Term k of the least of a closed-form schedule's `keyseq.line_laws`:
    the first law's from the switch on, the least of all before it."""
    laws, switch = envelope
    if k >= switch:
        return laws[0].term(k)
    return min(law.term(k) for law in laws)


def _check_stated_tails(family: PlateauFamily, records) -> None:
    """Every materialized record against the tails its family states.

    A law is compared term by term, record n with term n - 1; a divergence
    with the family's bound at n, the values negated for a decreasing one.
    """
    for name, tail in family.tails.items():
        law = tail.law
        for n, rec in enumerate(records, start=1):
            value = rec.column(name)
            if isinstance(law, ClosedForm):
                holds = value == law.term(n - 1)
            else:
                holds = (value if law.increasing else -value) >= family.divergence_bound(n)
            if not holds:
                raise LawMismatchError(f"record {n} breaks the stated {name} tail")


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

def column_segment(stream: InvariantStream, name: str) -> CanonicalSegment | None:
    """Final segment generated by one column below g."""
    parts: list[CanonicalSegment] = []
    for block in stream.blocks:
        canon = block.segment(name)
        if canon is None:
            return None
        parts.append(canon)
    if not parts:
        raise ScenarioDataError("stream has no records")
    return segment_union(parts)


def ideal_inclusion_check(stream: InvariantStream) -> tuple[str, ...]:
    """Verify the beta segment sits inside the alpha segment; returns the
    names of the checks that ran.

    Record by record it checks the witness chain beta_i >= beta_tilde_i >=
    alpha_{i'} for some i' <= i ("record_chain"), and when both segments
    are decided it compares them ("segment_comparison").  A failure is a
    hard scenario-data error, not a verdict.
    """
    checks = ("record_chain",)
    alpha_seg, beta_seg = stream.alpha_segment, stream.beta_segment
    if alpha_seg is not None and beta_seg is not None:
        rel = segment_compare(beta_seg, alpha_seg)
        if rel not in (SegmentRelation.EQUAL, SegmentRelation.B_CONTAINS_A):
            raise ScenarioDataError("beta segment escapes the alpha segment")
        checks += ("segment_comparison",)
    # In a total order some alpha_{i'} (i' <= i) lies below beta_tilde_i
    # exactly when the least of them does.
    least_alpha = None
    for rec in stream.records:
        least_alpha = rec.alpha if least_alpha is None else min(least_alpha, rec.alpha)
        if not rec.beta >= rec.beta_tilde:
            raise ScenarioDataError("beta < beta_tilde at a record")
        if not rec.beta_tilde >= least_alpha:
            raise ScenarioDataError("no earlier alpha witnesses beta_tilde")
    return checks


# ---------------------------------------------------------------------------
# Criterion 1: segment equality
# ---------------------------------------------------------------------------

def omega_verdict(stream: InvariantStream) -> Verdict:
    """Vanishing holds exactly when the alpha and beta segments coincide."""
    alpha_seg, beta_seg = stream.alpha_segment, stream.beta_segment
    if alpha_seg is None or beta_seg is None:
        return Verdict(
            VerdictKind.INCONCLUSIVE,
            reason="a value column has no recognized tail description",
        )
    rel = segment_compare(alpha_seg, beta_seg)
    if rel is SegmentRelation.EQUAL:
        return Verdict(
            VerdictKind.OMEGA_ZERO, witness={"shared_segment": _canon_str(alpha_seg)}
        )
    if rel is SegmentRelation.B_CONTAINS_A:
        raise ScenarioDataError("beta segment strictly contains alpha segment")
    witness = {"alpha_segment": _canon_str(alpha_seg), "beta_segment": _canon_str(beta_seg)}
    witness["separating_value"] = str(_separating_value(alpha_seg, beta_seg))
    return Verdict(VerdictKind.OMEGA_NONZERO, witness=witness)


def _canon_str(canon: CanonicalSegment) -> str:
    if canon.kind == "whole":
        return canon.kind
    if canon.kind == "closed":
        return f"[{canon.point}, inf)"
    return f"({canon.point}, inf) depth 1"


def _separating_value(ca: CanonicalSegment, cb: CanonicalSegment) -> GroupElem:
    """Some element of `ca` missing from `cb`, a final segment strictly inside it.

    `ca` is never whole: only a divergence certificate makes the alpha
    segment whole, and it makes the beta segment whole too.
    """
    if ca.kind == "closed":
        return ca.point
    return (ca.point + cb.point).scale(Fraction(1, 2))


# ---------------------------------------------------------------------------
# Criterion 2: case classification
# ---------------------------------------------------------------------------

def classify(stream: InvariantStream) -> Verdict:
    """Case analysis for the vanishing decision.

    With a minimal alpha value: the index set below g must have a maximal
    element whose beta-tilde lies below every beta and matches the minimal
    alpha at an expansion-support witness.  Without one: the first
    minimizing plateau (or a tail truncation of it) must regenerate alpha
    through its beta-tilde values and carry nu(g') as a weak limit of the
    truncated values relative to the largest invariant subgroup.
    """
    canon = stream.alpha_segment
    if canon is None:
        return Verdict(VerdictKind.INCONCLUSIVE, reason="alpha column undecidable")
    delta = largest_delta(canon)
    base = {"delta_suffix_len": delta}
    if canon.kind == "closed":
        return _classify_min_case(stream, base)
    return _classify_no_min_case(stream, canon, delta, base)


def _classify_min_case(stream, base) -> Verdict:
    min_alpha = stream.alpha_segment.point
    beta_canon = stream.beta_segment
    # A plateau's alpha segment is open or whole, so a closed one needs an
    # explicit last key.  A plateau below it is a family, which states the
    # tails that give beta a segment, and beta is whole only under the lift
    # certificate, which makes alpha whole too.
    if not stream.ks.istar_has_max() or beta_canon is None or beta_canon.kind == "whole":
        raise ScenarioDataError(
            "a closed alpha segment needs a last key and a beta segment with a point"
        )
    rec = stream.records[-1]
    if not rec.beta_tilde <= beta_canon.point:
        return Verdict(
            VerdictKind.OMEGA_NONZERO,
            case="i",
            witness={**base, "failed": "beta_tilde_not_below_all_betas"},
        )

    if rec.beta_tilde != min_alpha:
        return Verdict(
            VerdictKind.OMEGA_NONZERO,
            case="i",
            witness={**base, "failed": "beta_tilde_differs_from_min_alpha"},
        )
    from .expansion import i0_set

    earlier = [r.index for r in stream.records[:-1]]
    support = i0_set(stream.ks.g, rec.index, stream.ks, stream.nu, earlier)
    by_index = {r.index: r for r in stream.records}
    for ell in sorted(support):
        rec_ell = by_index.get(ell)
        if rec_ell is not None and rec_ell.alpha == min_alpha:
            return Verdict(
                VerdictKind.OMEGA_ZERO,
                case="i",
                witness={
                    **base,
                    "i": rec.index.label(),
                    "ell": ell.label(),
                    "min_alpha": str(min_alpha),
                    "beta_tilde_i": str(rec.beta_tilde),
                },
            )
    # beta_tilde_i is at least the least alpha over the support of g.
    raise ScenarioDataError("beta_tilde_i is the least alpha, but no key in the support of g has it")


def _classify_no_min_case(stream, canon, delta, base) -> Verdict:
    # Only a plateau's decreasing tail generates a segment without a minimum.
    block = stream.plateau

    # (a): the beta-tilde values along the plateau tail regenerate alpha.
    # Dropping the prefix leaves a segment that every further tail
    # truncation generates too (`canonicalize`), so one comparison decides
    # them all.
    tail_only = block.segment("beta_tilde", drop_prefix=True)
    if tail_only is None:
        return Verdict(VerdictKind.INCONCLUSIVE, reason="beta_tilde tail unrecognized")
    if segment_compare(tail_only, canon) is not SegmentRelation.EQUAL:
        # The plateau's tail exists (checked above) and explicit blocks
        # always have a segment, so the full column has one.  It differs
        # from the tail's by at most a closed prefix minimum, and alpha's
        # segment is not closed, so no index subset regenerates alpha.
        full_bt = column_segment(stream, "beta_tilde")
        if segment_compare(full_bt, canon) is not SegmentRelation.B_CONTAINS_A:
            raise ScenarioDataError(
                "the beta_tilde segment contains the alpha segment, but its plateau tail's does not"
            )
        return Verdict(
            VerdictKind.OMEGA_NONZERO,
            case="ii",
            witness={
                **base,
                "failed": "beta_tilde_cannot_regenerate_alpha",
                "alpha_segment": _canon_str(canon),
                "beta_tilde_segment": _canon_str(full_bt),
            },
        )

    # (b): nu(g') is a weak limit of the truncated values along the plateau,
    # tail truncations of the index set allowed.
    gp_tail = block.tails["nu_i_gprime"]
    law = None if gp_tail is None else gp_tail.law
    return Verdict(
        VerdictKind.OMEGA_ZERO,
        case="ii",
        witness={
            **base,
            "plateau_stage": block.stage_pos,
            "plateau_degree": block.degree,
            # alpha_n = -nu(Q_n) decreases strictly from the first term.
            "certificate_index": 1,
            "wlim_branch": _wlim_branch(stream.nu_gprime, law, delta),
        },
    )


def _wlim_branch(gamma: GroupElem, law: ClosedForm | Diverging | None, delta: int) -> int:
    """The weak-limit branch that puts `gamma` on a tail truncation of `law`.

    The law alone decides: a constant law's cosets stabilize at the coset
    of its limit, which is minimal once the truncation drops the prefix
    before the law offset (branch 2), and every tail truncation of any
    other law has the law's weak limits (branch 1).  A plateau whose
    beta-tilde tail regenerates alpha has such a law with nu(g') as a weak
    limit; a missing or divergent tail, or any other law, raises.
    """
    if not (isinstance(law, ClosedForm) and wlim(gamma, law, delta)):
        raise ScenarioDataError("nu(g') is not a weak limit of the plateau's nu_i(g') law")
    return 2 if law.c.is_zero() else 1


# ---------------------------------------------------------------------------
# Criterion 3: slot membership along a single plateau
# ---------------------------------------------------------------------------

def _instability_cut(values: Sequence[GroupElem], tail: Tail) -> CanonicalSegment:
    """Smallest initial segment containing one plateau column.

    It is kept as the final segment that the negated column generates.
    """
    return canonicalize([-v for v in values], tail.affine(-1, GroupElem.zero()))


def cut_contains_eventually(cut: CanonicalSegment, tail: Tail) -> bool:
    """Whether a slot-value stream lies in the cut for all large terms.

    `cut` comes from `_instability_cut`, so a value v lies in the cut when
    -v lies in `cut`.  The negated terms -d - c p^-n of a slot law that
    increases (c < 0) fall to -d from above, so -d may sit on a bounded
    cut's point.  A stream's slot tails are such laws, or diverge under
    the lift certificate, whose cut is whole; any other tail raises.
    """
    if cut.kind == "whole":
        return True
    law = tail.law
    if isinstance(law, Diverging) or not law.c < GroupElem.zero():
        raise ScenarioDataError("a slot tail under a bounded cut must increase to a limit")
    return -law.d >= cut.point


@dataclass(frozen=True)
class SlotReport:
    slot: int
    member: bool | None
    note: str = ""


_CUT_KINDS = {"whole": "whole", "closed": "closed_below", "open": "open_below"}


@dataclass(frozen=True)
class BSetReport:
    cut: CanonicalSegment  # of the negated values; see `_instability_cut`
    slots: tuple[SlotReport, ...]
    b_set: frozenset[int]
    b1: bool | None  # None: slot 1 membership undecided

    def describe(self) -> dict:
        cut: dict = {"kind": _CUT_KINDS[self.cut.kind]}
        if self.cut.point is not None:
            cut["bound"] = str(-self.cut.point)
        return {
            "cut": cut,
            "slots": [{"slot": s.slot, "member": s.member, "note": s.note} for s in self.slots],
            "b_set": sorted(self.b_set),
            "b1": self.b1,
        }


def check_b1_hypotheses(stream: InvariantStream) -> None:
    """A plateau and no keys of intermediate degree.

    The plateau has degree 1 and is the sequence's only one, with no key of
    degree 1 after it: `KeySequence` holds every sequence to that shape.
    """
    if stream.plateau is None:
        raise HypothesisViolatedError("no degree-1 plateau: key values attain a maximum")
    for block in stream.blocks:
        if 1 < block.degree < stream.ks.g_degree:
            raise HypothesisViolatedError("keys of intermediate degree exist")


def b_set(stream: InvariantStream) -> BSetReport:
    """Expansion slots of g whose term values stay inside the instability cut.

    The cut is the smallest initial segment containing the truncated values
    of g along the plateau; slot b (1 <= b <= deg(g) - 1) belongs to the
    set when its term value lies in the cut for every sufficiently late
    plateau member.
    """
    check_b1_hypotheses(stream)
    block = stream.plateau
    tail = block.tails["nu_i_g"]
    if tail is None:
        raise InconclusiveError("instability cut undecidable")
    cut = _instability_cut(block.values("nu_i_g"), tail)

    reports: list[SlotReport] = []
    members: set[int] = set()
    undecided: set[int] = set()
    for b in range(1, stream.ks.g_degree):
        kind, tail = _slot_tail(stream, block, b)
        if kind == "zero":
            reports.append(SlotReport(b, False, "slot vanishes on the materialized prefix"))
            continue
        if tail is None:
            reports.append(SlotReport(b, None, "no recognized tail"))
            undecided.add(b)
            continue
        member = cut_contains_eventually(cut, tail)
        reports.append(SlotReport(b, member))
        if member:
            members.add(b)
    b1 = True if 1 in members else (None if 1 in undecided else False)
    return BSetReport(cut, tuple(reports), frozenset(members), b1)


def _slot_tail(stream: InvariantStream, block: Block, b: int):
    """Tail description of the b-th expansion-slot values of g.

    The expansion of g over the n-th plateau key comes from the oracle's
    memo, which the stream's rows share.
    """
    stage = stream.ks.stages[block.stage_pos]
    if isinstance(stage, ScheduleStage):
        const, mult = stage.g_coef_laws[b]
        # The slot value is const + mult * key value: map the key-value tail.
        key_tail = block.tails["nu_key"]
        return "values", None if key_tail is None else key_tail.affine(mult, const)

    def slot_value(n: int) -> GroupElem | None:
        exp = stream.nu.expand(stream.ks.g, stream.ks.key_poly(KeyIndex(block.stage_pos, n)))
        coeff = exp.coeffs[b]
        if coeff.is_zero():
            return None
        nu = stream.nu
        return expect_finite(nu.nu(coeff)) + expect_finite(nu.nu(exp.base)).scale(b)

    vals = [v for v in map(slot_value, range(1, len(block.records) + 1)) if v is not None]
    if not vals:
        return "zero", None
    # Extension keeps term positions aligned with n, so it only applies to
    # gap-free prefixes.
    gap = len(vals) < len(block.records)
    fitted = _fit(vals, stream.ks.p, slot_value, len(vals) if gap else stage.budget)
    if fitted is not None:
        return "values", fitted
    if stage.divergence_bound is not None:
        # Slot value >= b * nu(Q_n) plus a nonnegative coefficient value,
        # already validated against the certificate for the g column.  The
        # certificate also makes nu_n(g) diverge, so the cut is the whole
        # group and contains any slot tail.
        return "values", Tail(Diverging(increasing=True))
    return "values", None


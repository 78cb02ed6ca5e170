"""Exact order arithmetic for the rational value group.

Every value group valkit meets has rank 1: the integers for the p-adic
backend, the rationals for Hahn series and value schedules.  An element
is a reduced integer pair num/den, added, scaled and compared by integer
cross-multiplication and one gcd; `Fraction` is only a cold way in
(`GroupElem(x)`, `scale`).  Infinity, the value of 0 and of the
multiples of the support polynomial, is `None`: no arithmetic takes it,
and `expect_finite` turns it into the error a run reports for it.

On top of the element arithmetic this module decides, always exactly and
never by floating point or truncation guesswork:

* which final segment (upward-closed set) a decreasing column generates,
* containment and equality of such segments,
* the largest isolated subgroup a segment is invariant under (in rank 1
  the whole group or the trivial one),
* weak limits of a column's law relative to that subgroup.

A column is a list of exactly computed values plus, for an infinite
family, a `Tail` telling how it continues: a `ClosedForm` law
``c * p**-n + d`` recognized by `fit_closed_form` with the scenario's own
``p``, or a `Diverging` certificate issued by the family's construction.
`canonicalize` turns a column into its `CanonicalSegment`, the one normal
form every comparison works on; an initial segment (a cut) is the final
segment of the negated column.  Such a column decreases, and
`canonicalize` raises on a tail that does not.  A column without a tail
description has no segment; callers report such questions inconclusive
rather than guess.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

from .errors import EmptySequenceError, ScenarioDataError

PROBE_BUDGET = 64
# A law is fixed by two consecutive terms and checked on this many.
_WINDOW = 8


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"not an exact rational: {x!r}")


def _mismatch(other) -> TypeError:
    return TypeError(f"expected GroupElem, got {other!r}")


class GroupElem:
    """An element of the rational value group: the reduced pair num/den.

    `num` and `den` are coprime integers with den > 0, so equal elements
    have equal pairs.  Arithmetic and order take group elements only,
    never bare numbers, so every value stays exact and prints as ``n/d``.
    Immutable by convention, as `Fraction` is; ``Fraction(e.num, e.den)``
    is the equal `Fraction`.
    """

    __slots__ = ("num", "den")

    def __init__(self, value):
        """The element of an exact rational: an int or a Fraction."""
        if type(value) is not int:
            value = _frac(value)
        self.num = value.numerator
        self.den = value.denominator

    @staticmethod
    def zero() -> "GroupElem":
        return _ZERO

    def __eq__(self, other):
        if type(other) is not GroupElem:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"GroupElem(Fraction({self.num}, {self.den}))"

    def __add__(self, other):
        if type(other) is not GroupElem:
            raise _mismatch(other)
        b, d = self.den, other.den
        if b == d:
            return _make(self.num + other.num, b)
        return _make(self.num * d + other.num * b, b * d)

    def __sub__(self, other):
        if type(other) is not GroupElem:
            raise _mismatch(other)
        b, d = self.den, other.den
        if b == d:
            return _make(self.num - other.num, b)
        return _make(self.num * d - other.num * b, b * d)

    def __neg__(self):
        return _make(-self.num, self.den)

    def scale(self, r) -> "GroupElem":
        """This element times the exact rational `r`: an int or a Fraction."""
        if type(r) is not int:
            r = _frac(r)
        return _make(self.num * r.numerator, self.den * r.denominator)

    # With positive denominators, a/b < c/d exactly when a*d < c*b.
    def __lt__(self, other):
        if type(other) is not GroupElem:
            raise _mismatch(other)
        return self.num * other.den < other.num * self.den

    def __le__(self, other):
        if type(other) is not GroupElem:
            raise _mismatch(other)
        return self.num * other.den <= other.num * self.den

    def __gt__(self, other):
        if type(other) is not GroupElem:
            raise _mismatch(other)
        return self.num * other.den > other.num * self.den

    def __ge__(self, other):
        if type(other) is not GroupElem:
            raise _mismatch(other)
        return self.num * other.den >= other.num * self.den

    def is_zero(self) -> bool:
        return not self.num

    def __str__(self):
        return f"{self.num}/{self.den}"


_new = object.__new__


def _make(num: int, den: int) -> GroupElem:
    """The element num/den for den > 0, reduced by one gcd."""
    g = gcd(num, den)
    elem = _new(GroupElem)
    if g == 1:
        elem.num, elem.den = num, den
    else:
        elem.num, elem.den = num // g, den // g
    return elem


_ZERO = _make(0, 1)


def rat1(x) -> GroupElem:
    """The group element of an exact rational: an int or a Fraction."""
    return GroupElem(x)


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def expect_finite(value: GroupElem | None) -> GroupElem:
    """`value` itself, where None (infinity) raises.

    Below an irreducible, separable g every nonzero polynomial has a finite
    value; an infinite one means g is neither.
    """
    if value is None:
        raise ScenarioDataError(
            "unexpected infinite value: g is reducible or has a repeated root"
        )
    return value


# ---------------------------------------------------------------------------
# Value sequences and tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteList:
    """A finite family of values."""

    values: tuple[GroupElem, ...]

    def term(self, n: int) -> GroupElem:
        return self.values[n]


@dataclass(frozen=True)
class ClosedForm:
    """The family  n -> c * p**-n + d  for n = 0, 1, 2, ...

    With c > 0 the terms decrease strictly to d without attaining it;
    with c < 0 they increase strictly to d; with c = 0 they are constant.
    """

    c: GroupElem
    d: GroupElem
    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("ratio base must be >= 2")

    def term(self, n: int) -> GroupElem:
        c, d, q = self.c, self.d, self.p**n
        return _make(c.num * d.den + d.num * c.den * q, c.den * d.den * q)


@dataclass(frozen=True)
class Diverging:
    """Certificate that a family is strictly monotone and unbounded.

    Only the family's construction can issue it (for example an invariant
    such as term(n) exceeding n); it is never inferred from sampled terms.
    """

    increasing: bool


@dataclass(frozen=True)
class Tail:
    """How a column continues beyond its materialized terms.

    With a `ClosedForm` law the value at position offset + k is
    law.term(k), fitted and verified on exact terms; a `Diverging` law is
    the family's certificate and covers the whole column.
    """

    law: ClosedForm | Diverging
    offset: int = 0

    def affine(self, m: int, shift: GroupElem) -> "Tail":
        """The tail of the column ``shift + m * x``, x this tail's column, m != 0.

        A law maps term by term at the same offset; a divergence keeps its
        direction for m > 0 and flips it for m < 0.
        """
        law = self.law
        if isinstance(law, Diverging):
            return Tail(Diverging(law.increasing == (m > 0)))
        return Tail(ClosedForm(law.c.scale(m), shift + law.d.scale(m), law.p), self.offset)

    def describe(self) -> dict:
        if isinstance(self.law, Diverging):
            return {"kind": "diverging", "increasing": self.law.increasing}
        return {
            "kind": "law",
            "scale": str(self.law.c),
            "limit": str(self.law.d),
            "ratio": self.law.p,
            "offset": self.offset,
            "verified": True,
        }


def fit_closed_form(
    terms: Sequence[GroupElem],
    p: int,
    extend: Callable[[int], GroupElem | None] | None = None,
) -> Tail | None:
    """Recognize a law ``c * p**-n + d`` on a tail of `terms`.

    Returns the tail whose law reproduces ``terms[offset + k]`` at index
    ``k``, fixed by two consecutive terms and checked on eight (drawn
    from `extend` when the list is too short; its first None ends the
    list).  Returns None when no offset admits a law with ratio `p`.  With
    an extension the offset search reaches beyond the supplied prefix, up
    to the probe budget, so laws that only set in after a late slope
    change are still recognized.
    """
    terms = list(terms)

    def term_at(n: int) -> GroupElem | None:
        nonlocal extend
        while n >= len(terms):
            more = extend(len(terms)) if extend is not None else None
            if more is None:
                extend = None  # the list ends here: no probe is repeated
                return None
            terms.append(more)
        return terms[n]

    max_offset = max(0, len(terms) - _WINDOW)
    if extend is not None:
        max_offset = max(max_offset, PROBE_BUDGET - _WINDOW)
    for offset in range(max_offset + 1):
        t0 = term_at(offset)
        t1 = term_at(offset + 1)
        if t0 is None or t1 is None:
            return None
        # t0 - t1 = c (1 - 1/p) / p**0  =>  c = (t0 - t1) * p/(p-1)
        diff = t0 - t1
        c = _make(diff.num * p, diff.den * (p - 1))
        law = ClosedForm(c, t0 - c, p)
        ok = True
        for k in range(_WINDOW):
            t = term_at(offset + k)
            if t is None or t != law.term(k):
                ok = False
                break
        if ok:
            return Tail(law, offset)
    return None


# ---------------------------------------------------------------------------
# Final segments
# ---------------------------------------------------------------------------

class SegmentRelation(Enum):
    EQUAL = "equal"
    A_CONTAINS_B = "a_contains_b"
    B_CONTAINS_A = "b_contains_a"


@dataclass(frozen=True)
class CanonicalSegment:
    """Normal form of a final segment.

    kind "closed":  {x : x >= point}.
    kind "open":    {x : x > point} --- the segment generated by a family
                    strictly decreasing to `point`.
    """

    kind: str  # "whole" | "closed" | "open"
    point: GroupElem | None = None

    def describe(self) -> dict:
        # Reports keep the rank and an open segment's depth, both always 1.
        out = {"kind": self.kind, "rank": 1}
        if self.point is not None:
            out["point"] = str(self.point)
        if self.kind == "open":
            out["depth"] = 1
        return out


def canonicalize(
    values: Sequence[GroupElem], tail: Tail | None = None, drop_prefix: bool = False
) -> CanonicalSegment:
    """Normal form of the final segment generated by a decreasing column.

    Without a tail, `values` is the whole (finite) family.  With one,
    `values` are the materialized terms and the tail continues them; the
    terms before the law offset count unless `drop_prefix` asks for the
    segment of the tail alone.  A law with c > 0 generates the open
    segment at its limit, a downward divergence the whole group, both
    invariant under tail truncation.  A stream's key values increase
    strictly, so it has no other segment tail; any other raises.
    """
    if tail is None:
        if not values:
            raise EmptySequenceError("empty value sequence")
        return CanonicalSegment("closed", min(values))
    law = tail.law
    if isinstance(law, Diverging):
        if law.increasing:
            raise ScenarioDataError("a segment column diverges upwards, not downwards")
        return CanonicalSegment("whole")
    if not law.c > _ZERO:
        raise ScenarioDataError("a segment column's law is constant or increasing, not decreasing")
    # A prefix minimum at or below the limit is the column's least value.
    m = min(() if drop_prefix else values[: tail.offset], default=None)
    return (
        CanonicalSegment("closed", m) if m is not None and m <= law.d
        else CanonicalSegment("open", law.d)
    )


def segment_compare(ca: CanonicalSegment, cb: CanonicalSegment) -> SegmentRelation:
    """Exact containment verdict between two final segments.

    Final segments of a totally ordered group are always nested: the one
    with the lower point contains the other, and at an equal point the
    closed segment contains the open one.
    """
    if ca == cb:
        return SegmentRelation.EQUAL
    if ca.kind == "whole":
        return SegmentRelation.A_CONTAINS_B
    if cb.kind == "whole":
        return SegmentRelation.B_CONTAINS_A
    if ca.point < cb.point or (ca.point == cb.point and ca.kind == "closed"):
        return SegmentRelation.A_CONTAINS_B
    return SegmentRelation.B_CONTAINS_A


def segment_union(parts: Sequence[CanonicalSegment]) -> CanonicalSegment:
    """Union of nested final segments: the containment-largest part."""
    biggest = parts[0]
    for c in parts[1:]:
        if segment_compare(biggest, c) is SegmentRelation.B_CONTAINS_A:
            biggest = c
    return biggest


# ---------------------------------------------------------------------------
# Isolated subgroups and weak limits
# ---------------------------------------------------------------------------

def largest_delta(canon: CanonicalSegment) -> int:
    """Largest isolated subgroup D with alpha - D = alpha, as its suffix length.

    In rank 1 the isolated subgroups are the trivial one (0) and the whole
    group (1).  Only the whole segment is invariant under a nonzero
    translation: a closed or open segment moves with its point.
    """
    return 1 if canon.kind == "whole" else 0


def wlim(gamma: GroupElem, law: ClosedForm, delta: int) -> bool:
    """Decide whether `gamma` is the weak limit of `law`'s terms relative to `delta`.

    Relative to the whole group (``delta == 1``) every term shares one
    coset, so every `gamma` is a weak limit.  Relative to the trivial
    subgroup the terms must stabilize at `gamma` (c = 0) or decrease to it
    (c > 0); increasing terms never return to their minimal first coset.
    """
    return bool(delta) or (law.c.num >= 0 and gamma == law.d)

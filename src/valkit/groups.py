"""Exact order arithmetic for lexicographic rational value groups.

Elements are tuples of `fractions.Fraction` of a fixed rank, compared
lexicographically.  On top of the element arithmetic this module decides,
always exactly and never by floating point or truncation guesswork:

* which final segment (upward-closed set) a column of values generates,
* containment and equality of such segments,
* the largest isolated (convex) subgroup a segment is invariant under,
* weak limits of a column's law relative to an isolated subgroup.

A column is a list of exactly computed values plus, for an infinite
family, a `Tail` telling how it continues: a `ClosedForm` law
``c * p**-n + d`` recognized by `fit_closed_form` with the scenario's own
``p``, or a `Diverging` certificate issued by the family's construction.
`canonicalize` turns a column into its `CanonicalSegment`, the one normal
form every comparison works on; an initial segment (a cut) is the final
segment of the negated column.  A column without a tail description has
no segment; callers report such questions inconclusive rather than guess.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import EmptySequenceError, InvalidSubgroupError, ScenarioDataError

PROBE_BUDGET = 64
_FIT_TERMS = 4
_VERIFY_TERMS = 4


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True, order=False)
class GroupElem:
    """An element of Q^r with the lexicographic order."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("rank must be at least 1")

    @staticmethod
    def of(*coords) -> "GroupElem":
        return GroupElem(tuple(_frac(c) for c in coords))

    @staticmethod
    def zero(rank: int = 1) -> "GroupElem":
        return GroupElem((Fraction(0),) * rank)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def _check(self, other: "GroupElem") -> None:
        if not isinstance(other, GroupElem):
            raise TypeError(f"expected GroupElem, got {other!r}")
        if other.rank != self.rank:
            raise ValueError("rank mismatch")

    def __add__(self, other):
        self._check(other)
        return GroupElem(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return GroupElem(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElem(tuple(-a for a in self.coords))

    def scale(self, r) -> "GroupElem":
        r = _frac(r)
        return GroupElem(tuple(r * a for a in self.coords))

    def __lt__(self, other):
        self._check(other)
        return self.coords < other.coords

    def __le__(self, other):
        self._check(other)
        return self.coords <= other.coords

    def __gt__(self, other):
        self._check(other)
        return self.coords > other.coords

    def __ge__(self, other):
        self._check(other)
        return self.coords >= other.coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def leading_position(self) -> int | None:
        """1-based index of the first nonzero coordinate, None for zero."""
        for k, c in enumerate(self.coords, start=1):
            if c:
                return k
        return None

    def prefix(self, j: int) -> tuple[Fraction, ...]:
        return self.coords[:j]

    def __str__(self):
        return ",".join(format_rational(c) for c in self.coords)


def rat1(x) -> GroupElem:
    """Rank-1 element from an exact rational."""
    return GroupElem((_frac(x),))


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ExtValue:
    """A group element or +infinity (the value of 0 and of the support)."""

    finite: GroupElem | None = None

    @staticmethod
    def of(elem: GroupElem) -> "ExtValue":
        return ExtValue(elem)

    @staticmethod
    def infinity() -> "ExtValue":
        return ExtValue(None)

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def expect_finite(self) -> GroupElem:
        if self.finite is None:
            # Below an irreducible, separable g every nonzero polynomial has
            # a finite value; an infinite one means g is neither.
            raise ScenarioDataError(
                "unexpected infinite value: g is reducible or has a repeated root"
            )
        return self.finite

    def __add__(self, other):
        if isinstance(other, GroupElem):
            other = ExtValue(other)
        if self.is_infinite or other.is_infinite:
            return ExtValue(None)
        return ExtValue(self.finite + other.finite)

    def __sub__(self, other):
        if isinstance(other, GroupElem):
            other = ExtValue(other)
        if other.is_infinite:
            raise ValueError("cannot subtract an infinite value")
        if self.is_infinite:
            return ExtValue(None)
        return ExtValue(self.finite - other.finite)

    def _key(self, other):
        if not isinstance(other, ExtValue):
            other = ExtValue(other)
        return other

    def __lt__(self, other):
        other = self._key(other)
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.finite < other.finite

    def __le__(self, other):
        other = self._key(other)
        return self == other or self < other

    def __gt__(self, other):
        return self._key(other) < self

    def __ge__(self, other):
        other = self._key(other)
        return self == other or other < self

    def __str__(self):
        return "inf" if self.is_infinite else str(self.finite)


def min_value(values: Iterable[ExtValue]) -> ExtValue:
    best: ExtValue | None = None
    for v in values:
        if best is None or v < best:
            best = v
    if best is None:
        raise EmptySequenceError("minimum of an empty family")
    return best


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
        if self.c.rank != self.d.rank:
            raise ValueError("rank mismatch between scale and limit")

    def term(self, n: int) -> GroupElem:
        return self.c.scale(Fraction(1, self.p**n)) + self.d


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
    ``k``, fitted on four consecutive terms and verified on four further
    ones (drawn from `extend` when the list is too short; `extend` may
    return None once its budget is exhausted).  Returns None when no offset
    admits a law with ratio `p`.  With an extension the offset search
    reaches beyond the supplied prefix, up to the probe budget, so laws
    that only set in after a late slope change are still recognized.
    """
    terms = list(terms)

    def term_at(n: int) -> GroupElem | None:
        while n >= len(terms):
            more = extend(len(terms)) if extend is not None else None
            if more is None:
                return None
            terms.append(more)
        return terms[n]

    max_offset = max(0, len(terms) - _FIT_TERMS)
    if extend is not None:
        max_offset = max(max_offset, PROBE_BUDGET - _FIT_TERMS - _VERIFY_TERMS)
    for offset in range(max_offset + 1):
        t0 = term_at(offset)
        t1 = term_at(offset + 1)
        if t0 is None or t1 is None:
            return None
        # t0 - t1 = c (1 - 1/p) / p**0  =>  c = (t0 - t1) * p/(p-1)
        c = (t0 - t1).scale(Fraction(p, p - 1))
        law = ClosedForm(c, t0 - c, p)
        ok = True
        for k in range(_FIT_TERMS + _VERIFY_TERMS):
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
    kind "open":    {x : prefix_depth(x) >lex prefix_depth(point)} --- the
                    segment generated by a family strictly decreasing to
                    `point` whose decay has leading coordinate `depth`.
                    Coordinates of `point` beyond `depth` are zeroed.
    """

    kind: str  # "empty" | "whole" | "closed" | "open"
    rank: int
    point: GroupElem | None = None
    depth: int | None = None

    def contains(self, x: GroupElem) -> bool:
        if x.rank != self.rank:
            raise ValueError("rank mismatch")
        if self.kind == "empty":
            return False
        if self.kind == "whole":
            return True
        if self.kind == "closed":
            return x >= self.point
        return x.prefix(self.depth) > self.point.prefix(self.depth)

    def describe(self) -> dict:
        out = {"kind": self.kind, "rank": self.rank}
        if self.point is not None:
            out["point"] = str(self.point)
        if self.depth is not None:
            out["depth"] = self.depth
        return out


def _closed(m: GroupElem) -> CanonicalSegment:
    return CanonicalSegment("closed", m.rank, m)


def _open(limit: GroupElem, depth: int) -> CanonicalSegment:
    point = GroupElem(limit.coords[:depth] + (Fraction(0),) * (limit.rank - depth))
    return CanonicalSegment("open", limit.rank, point, depth)


def canonicalize(
    values: Sequence[GroupElem], tail: Tail | None = None, drop_prefix: bool = False
) -> CanonicalSegment:
    """Normal form of the final segment generated by a column.

    Without a tail, `values` is the whole (finite) family.  With one,
    `values` are the materialized terms and the tail continues them; the
    terms before the law offset count unless `drop_prefix` asks for the
    segment of the tail alone.  That segment is invariant under further
    tail truncation for a law with c >= 0 or a decreasing divergence; an
    increasing tail generates the closed segment at its first term, which
    shrinks as the tail is truncated.
    """
    if tail is None:
        if not values:
            raise EmptySequenceError("empty value sequence")
        return _closed(min(values))
    law = tail.law
    if isinstance(law, Diverging):
        if not law.increasing:
            return CanonicalSegment("whole", values[0].rank)
        return _closed(min(values[-1:] if drop_prefix else values))
    if law.c.is_zero():
        seg = _closed(law.d)
    elif law.c < GroupElem.zero(law.c.rank):
        seg = _closed(law.term(0))
    else:
        seg = _open(law.d, law.c.leading_position())
    prefix = [] if drop_prefix else values[: tail.offset]
    if not prefix:
        return seg
    m = min(prefix)
    if seg.kind == "closed":
        return _closed(min(m, seg.point))
    return seg if seg.contains(m) else _closed(m)


def segment_compare(ca: CanonicalSegment, cb: CanonicalSegment) -> SegmentRelation:
    """Exact containment verdict between two final segments.

    Final segments of a totally ordered group are always nested, so one of
    the three relations holds.
    """
    if ca.rank != cb.rank:
        raise ValueError("cannot compare segments of different groups")
    if ca == cb:
        return SegmentRelation.EQUAL
    if ca.kind == "empty":
        return SegmentRelation.B_CONTAINS_A
    if cb.kind == "empty":
        return SegmentRelation.A_CONTAINS_B
    if ca.kind == "whole":
        return SegmentRelation.A_CONTAINS_B
    if cb.kind == "whole":
        return SegmentRelation.B_CONTAINS_A
    if ca.kind == "closed" and cb.kind == "closed":
        return (
            SegmentRelation.A_CONTAINS_B
            if ca.point < cb.point
            else SegmentRelation.B_CONTAINS_A
        )
    if ca.kind == "closed" and cb.kind == "open":
        j = cb.depth
        if ca.point.prefix(j) <= cb.point.prefix(j):
            return SegmentRelation.A_CONTAINS_B
        return SegmentRelation.B_CONTAINS_A
    if ca.kind == "open" and cb.kind == "closed":
        return _flip(segment_compare(cb, ca))
    # open vs open
    j = min(ca.depth, cb.depth)
    pa, pb = ca.point.prefix(j), cb.point.prefix(j)
    if pa == pb:
        if ca.depth == cb.depth:
            return SegmentRelation.EQUAL
        # The deeper constraint admits boundary elements the shallower omits.
        return (
            SegmentRelation.B_CONTAINS_A
            if ca.depth < cb.depth
            else SegmentRelation.A_CONTAINS_B
        )
    return SegmentRelation.A_CONTAINS_B if pa < pb else SegmentRelation.B_CONTAINS_A


def _flip(rel: SegmentRelation) -> SegmentRelation:
    if rel is SegmentRelation.A_CONTAINS_B:
        return SegmentRelation.B_CONTAINS_A
    if rel is SegmentRelation.B_CONTAINS_A:
        return SegmentRelation.A_CONTAINS_B
    return rel


def segment_union(parts: Sequence[CanonicalSegment]) -> CanonicalSegment:
    """Union of nested final segments: the containment-largest part."""
    biggest = parts[0]
    for c in parts[1:]:
        if segment_compare(biggest, c) is SegmentRelation.B_CONTAINS_A:
            biggest = c
    return biggest


# ---------------------------------------------------------------------------
# Isolated subgroups, translation invariance, weak limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsolatedSubgroup:
    """The convex subgroup of elements vanishing on the first rank-k coords.

    suffix_len 0 is the trivial subgroup, suffix_len == rank the whole group.
    """

    suffix_len: int
    rank: int

    def __post_init__(self):
        if not 0 <= self.suffix_len <= self.rank:
            raise InvalidSubgroupError("suffix length out of range")

    @property
    def fixed_positions(self) -> int:
        return self.rank - self.suffix_len

    def member(self, x: GroupElem) -> bool:
        if x.rank != self.rank:
            raise ValueError("rank mismatch")
        return not any(x.coords[: self.fixed_positions])

    def coset_key(self, x: GroupElem) -> tuple[Fraction, ...]:
        return x.coords[: self.fixed_positions]

    def positive_generators(self) -> list[GroupElem]:
        gens = []
        for pos in range(self.fixed_positions, self.rank):
            coords = [Fraction(0)] * self.rank
            coords[pos] = Fraction(1)
            gens.append(GroupElem(tuple(coords)))
        return gens


def largest_delta(canon: CanonicalSegment, rank: int) -> IsolatedSubgroup:
    """Largest isolated subgroup D with alpha - D = alpha.

    A closed segment moves under any positive translation, so it only
    tolerates the trivial subgroup.  An open segment constraining the first
    j coordinates tolerates exactly the subgroup free on the rest.
    """
    if canon.kind == "empty":
        raise EmptySequenceError("delta of an empty segment")
    if canon.rank != rank:
        raise ValueError("rank mismatch")
    if canon.kind == "whole":
        return IsolatedSubgroup(rank, rank)
    if canon.kind == "closed":
        return IsolatedSubgroup(0, rank)
    return IsolatedSubgroup(rank - canon.depth, rank)


def translation_invariant(canon: CanonicalSegment, delta: IsolatedSubgroup) -> bool:
    """Direct check of `seg - delta == seg` on generators.

    For every generator (or minimum) g of the segment and every positive
    generator d of `delta`, some segment element must lie at or below g - d,
    i.e. g - d must itself belong to the segment.  Upward closure makes the
    generator check sufficient.  An open segment is generated by its point
    plus ever smaller steps in the coordinate at its depth.
    """
    if canon.kind in ("whole", "empty"):
        return True
    if canon.kind == "closed":
        gens = [canon.point]
    else:
        step = GroupElem(
            tuple(Fraction(int(k == canon.depth - 1)) for k in range(canon.rank))
        )
        gens = [canon.point + step.scale(Fraction(1, 2**n)) for n in range(8)]
    for g in gens:
        for d in delta.positive_generators():
            if not canon.contains(g - d):
                return False
    return True


def wlim(gamma: GroupElem, law: ClosedForm, delta: IsolatedSubgroup) -> bool:
    """Decide whether `gamma` is the weak limit of `law`'s terms relative to `delta`.

    Either the cosets of the terms modulo `delta` never reach a minimal one
    and the terms come within every epsilon exceeding `delta` of gamma, or
    the cosets stabilize at a minimal coset containing gamma.
    """
    rank = delta.rank
    if law.d.rank != rank or gamma.rank != rank:
        raise ValueError("rank mismatch")
    if delta.member(law.c):
        # All terms share the coset of the limit: branch (2).
        return delta.coset_key(gamma) == delta.coset_key(law.d)
    if law.c < GroupElem.zero(rank):
        # Cosets strictly increase: a minimal coset exists (the first)
        # but the family never returns to it, so neither branch holds.
        return False
    # Cosets strictly decrease: no minimal coset; branch (1) asks that
    # |gamma - term| eventually drops below every epsilon > delta.
    if not delta.member(gamma - law.d):
        return False
    return law.c.leading_position() == delta.fixed_positions

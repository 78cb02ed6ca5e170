"""Key-polynomial sequences: stages, plateau families, witness search.

A sequence consists of finitely many stages of non-decreasing degree
followed by the support polynomial g itself.  A stage is its key `Poly`,
a `PlateauFamily` -- an infinite family of same-degree keys with strictly
increasing values and no last element, materialized lazily through a
thread-safe generator up to its budget -- or a `ScheduleStage`.  Every
plateau has degree 1 and every key after it, g included, larger degree.
`stage_terms` is the one rule for how many terms a plateau gives; an
explicit key gives one.  `key_poly` reads the key at an index below g.

Built-in plateau families read their data off g and state their tails:

* `artin_schreier_family` -- keys x - s_n over a Hahn backend, where s_n
  sums the first n - 1 iterated p-th roots of a = -g(0), each center built
  from the one before by adding one root;
* `hensel_family` -- keys x - a_n over p-adic rationals, a_n the integer
  lifts of a simple residue root of g on D*g (D clears g's denominators),
  certified to have key values above the term index (hence diverging);
* `ScheduleStage` -- value data only (no field arithmetic): an explicit or
  closed-form law for the key values plus, per base-q expansion slot of g
  and of g', a pair (const, mult) giving the slot's term value
  const + mult * key value.  A sequence of one schedule carries no
  polynomial for g, whose degree is one less than the number of its slots.

`find_witness` searches the indices it is handed, in order; a full
expansion hands it the stream's records below its anchor.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import HypothesisViolatedError, ScenarioDataError, ValkitError
from .fields import Backend, FieldElem, HahnElem, _p_power, _padic_order
from .groups import ClosedForm, Diverging, FiniteList, GroupElem, Tail, rat1
from .poly import Poly
from .truncation import NuOracle

FAMILY_BUDGET = 64


@dataclass(slots=True, order=True, unsafe_hash=True)
class KeyIndex:
    """Position in the well-ordered index set: (stage, term).

    Explicit stages use term 0; plateau terms are numbered from 1.
    Immutable by convention: an unfrozen init costs a third of a frozen one's.
    """

    stage: int
    term: int

    def label(self) -> str:
        return f"{self.stage}.{self.term}"


class PlateauFamily:
    """Lazy family of linear keys x - center(n), n = 1, 2, ...

    `center_fn(n, prev)` builds center n from center n - 1 (`prev`, `None`
    for n = 1).  Centers are made in order and memoized here, the family's
    one memo, under a lock so concurrent first access yields identical
    terms.  `tails` gives the columns nu_key, nu_i_g, nu_i_gprime and
    beta_tilde the tails the construction proves, at offset 0.  Scenario
    builders set two certificates only when the generator guarantees them:
    `precision(m)`, a lower bound on v(eta - center(m)) for the limit eta,
    read once center m is built (the stabilization oracle needs it), and
    `divergence_bound(n)`, an unbounded lower bound on the key value at
    term n.
    """

    degree = 1

    def __init__(
        self,
        backend: Backend,
        center_fn: Callable[[int, FieldElem | None], FieldElem],
        tails: dict[str, Tail],
        precision: Callable[[int], int | Fraction] | None = None,
        divergence_bound: Callable[[int], GroupElem] | None = None,
        budget: int = FAMILY_BUDGET,
    ):
        self.backend = backend
        self._center_fn = center_fn
        self.tails = tails
        self.precision = precision
        self.divergence_bound = divergence_bound
        self.budget = budget
        self._centers: list[FieldElem] = []
        self._lock = threading.Lock()

    def center(self, n: int) -> FieldElem:
        centers = self._centers
        if 0 < n <= len(centers):
            # Materialized centers never change and the list only grows.
            return centers[n - 1]
        if n < 1:
            raise ValueError("plateau terms are numbered from 1")
        if n > self.budget:
            raise ValkitError(f"plateau term {n} exceeds the family budget {self.budget}")
        with self._lock:
            while len(centers) < n:
                prev = centers[-1] if centers else None
                centers.append(self._center_fn(len(centers) + 1, prev))
            return centers[n - 1]

    @property
    def materialized(self) -> int:  # centers built: the last costs no lift
        return len(self._centers)

    def poly(self, n: int) -> Poly:
        c = self.center(n)
        return Poly.make(self.backend, [-c, self.backend.one()])


def slot_lines(slots: Sequence[tuple[GroupElem, int]]) -> tuple[tuple[GroupElem, int], ...]:
    """The lines ``(const, mult)`` whose least ``const + mult * x`` is the
    least slot value at every key value x, of the slots ``(const, mult)``.

    Of the slots sharing one const only the least and the greatest mult
    stay: ``const + m * x`` is linear in m, so its minimum over any set of
    mults lies at one of the two.
    """
    mults: dict[GroupElem, tuple[int, int]] = {}
    for const, mult in slots:
        lo, hi = mults.get(const, (mult, mult))
        mults[const] = (min(lo, mult), max(hi, mult))
    return tuple((c, m) for c, (lo, hi) in mults.items() for m in {lo, hi})


def line_laws(lines, key: ClosedForm, budget: int) -> tuple[tuple[ClosedForm, ...], int]:
    """`slot_lines` at the key law ``c * p**-k + d`` as laws in the term index k,
    least first, and the switch: the least k < `budget` from which that law
    is <= every other at every later term (`budget` if none).  Line
    (const, m) reads ``ClosedForm(m * c, const + m * d, p)``; the first law
    has the least limit, and on a tied limit the least scale, so its excess
    ``(d_0 - d_j) + (c_0 - c_j) * p**-k`` over another stays <= 0 once it is.
    """
    laws = sorted(
        (ClosedForm(key.c.scale(m), const + key.d.scale(m), key.p) for const, m in lines),
        key=lambda law: (law.d, law.c),
    )
    least_from = (k for k in range(budget) if all(laws[0].term(k) <= law.term(k) for law in laws[1:]))
    return tuple(laws), next(least_from, budget)


@dataclass(frozen=True, eq=False)
class ScheduleStage:
    """Degree-1 plateau given purely by value data.

    `key_values` lists (or gives in closed form) the key values; the slot
    laws ``(const, mult)`` give the base-q expansion term values of g and g'
    at the n-th key, ``const + mult * key_value(n)``.
    A closed-form schedule gives at most `budget` terms, like a family.
    `g_lines` and `gprime_lines` are the laws reduced to `slot_lines`,
    derived once per stage: a truncation value nu_n(g) or nu_n(g') is the
    least of its lines at the n-th key value; for closed-form key values,
    `g_laws` and `gprime_laws` are those lines as `line_laws`.
    """

    key_values: FiniteList | ClosedForm
    g_coef_laws: tuple[tuple[GroupElem, int], ...]
    gprime_coef_laws: tuple[tuple[GroupElem, int], ...]
    nu_gprime: GroupElem
    budget: int = FAMILY_BUDGET

    degree = 1  # a class constant, not a field

    def key_value(self, n: int) -> GroupElem:
        return self.key_values.term(n - 1)

    @functools.cached_property
    def g_lines(self) -> tuple[tuple[GroupElem, int], ...]:
        return slot_lines(self.g_coef_laws)

    @functools.cached_property
    def gprime_lines(self) -> tuple[tuple[GroupElem, int], ...]:
        return slot_lines(self.gprime_coef_laws)

    @functools.cached_property
    def g_laws(self) -> tuple[tuple[ClosedForm, ...], int]:
        return line_laws(self.g_lines, self.key_values, self.budget)

    @functools.cached_property
    def gprime_laws(self) -> tuple[tuple[ClosedForm, ...], int]:
        return line_laws(self.gprime_lines, self.key_values, self.budget)

KeyStage = Poly | PlateauFamily | ScheduleStage


def stage_terms(stage: PlateauFamily | ScheduleStage, terms: int | float) -> int | float:
    """How many terms of a plateau to take when it may give `terms`.

    Every listed value of a finite schedule, and at most the budget of a
    family or a closed-form schedule.
    """
    if isinstance(stage, ScheduleStage) and isinstance(stage.key_values, FiniteList):
        return len(stage.key_values.values)
    return min(terms, stage.budget)


@dataclass(frozen=True, eq=False)
class KeySequence:
    """Well-ordered key data: stages of non-decreasing degree, then g.

    Every key after a plateau (a `PlateauFamily` or a `ScheduleStage`), g
    included, has larger degree than the plateau, so there is at most one.
    A sequence without g (``g=None``) is one value schedule, with one
    expansion-slot law per coefficient of g.
    """

    stages: tuple[KeyStage, ...]
    g: Poly | None
    p: int

    def __post_init__(self):
        if self.g is None and not (
            self.stages and all(isinstance(s, ScheduleStage) for s in self.stages)
        ):
            raise ScenarioDataError("only a sequence of value schedules may omit g")
        degs = [s.degree for s in self.stages] + [self.g_degree]
        if any(a > b for a, b in zip(degs, degs[1:])):
            raise ScenarioDataError("stage degrees must be non-decreasing")
        # With degrees non-decreasing, the next key decides for all later ones.
        plateaus = [pos for pos, s in enumerate(self.stages) if not isinstance(s, Poly)]
        if any(degs[pos] >= degs[pos + 1] for pos in plateaus):
            raise HypothesisViolatedError(
                "every key after a plateau, g included, must have larger degree than the plateau"
            )

    @property
    def g_degree(self) -> int:
        if self.g is None:
            return len(self.stages[-1].g_coef_laws) - 1
        return self.g.degree

    def key_poly(self, index: KeyIndex) -> Poly:
        stage = self.stages[index.stage]
        if isinstance(stage, Poly):
            if index.term != 0:
                raise ValueError("explicit stages have a single term")
            return stage
        if isinstance(stage, PlateauFamily):
            return stage.poly(index.term)
        raise ScenarioDataError("schedule stages carry no polynomials")

    def istar_has_max(self) -> bool:
        """Whether the index set below g has a maximal element."""
        return bool(self.stages) and isinstance(self.stages[-1], Poly)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def find_witness(
    ks: KeySequence, nu: NuOracle, f: Poly, candidates: Sequence[KeyIndex]
) -> KeyIndex | None:
    """First candidate key q with deg(q) <= deg(f) and nu_q(f) = nu(f)."""
    target = nu.nu(f)
    for index in candidates:
        q = ks.key_poly(index)
        # The degree bound applies to nonconstant f; any base computes the
        # value of a constant.
        if f.degree >= 1 and q.degree > f.degree:
            continue
        if nu.nu_q(f, q) == target:
            return index
    return None


# ---------------------------------------------------------------------------
# Built-in plateau families
# ---------------------------------------------------------------------------

def artin_schreier_poly(backend: Backend, a: HahnElem) -> Poly:
    """g = x^p - x - a over the Hahn backend of characteristic p."""
    zeros = [backend.zero()] * (backend.p - 2)
    return Poly.make(backend, [-a, -backend.one(), *zeros, backend.one()])


def artin_schreier_family(backend: Backend, g: Poly, budget: int = FAMILY_BUDGET) -> PlateauFamily:
    """Keys x - s_n with s_n = sum_{i=1..n-1} a**(1/p**i), iterated p-th roots.

    g must be `artin_schreier_poly` of a = -g(0), with a outside
    P(K) + O_K, P(b) = b^p - b: P(c*t^e) = c*t^(pe) - c*t^e keeps each class
    {e*p^k} of negative exponents at coefficient sum 0 mod p, so some class
    of a must not be (then va = v(a) < 0).  s_1 = 0, and s_n = s_{n-1} +
    a**(1/p**(n-1)) costs one merge.  The limit differs from s_m by
    sum_{i>=m} a**(1/p**i), whose first term has the least value, so
    nu(x - s_m) = v(eta - s_m) = va/p**m, the precision certificate.  As
    P(s_n) = a - a**(1/p**(n-1)), g = Q^p - Q - a**(1/p**(n-1)) over
    Q = x - s_n: nu_i_g = va/p**(n-1), nu_i_gprime = 0 and beta_tilde
    = -va/p**(n-1).
    """
    p = backend.p
    a = -g.coeff(0)
    if g != artin_schreier_poly(backend, a):
        raise HypothesisViolatedError("the artin_schreier family needs g = x^p - x - a")
    classes: dict[Fraction, int] = {}
    for n, c in a.terms:
        if n < 0:
            e = Fraction(n, a.den)
            key = e / Fraction(p) ** _padic_order(e, p)
            classes[key] = classes.get(key, 0) + c
    if not any(total % p for total in classes.values()):
        raise HypothesisViolatedError(
            "the artin_schreier family needs a = -g(0) outside {b^p - b : b in K} + O_K"
        )
    va, zero = Fraction(a.order()), GroupElem.zero()
    laws = {"nu_key": va / p, "nu_i_g": va, "nu_i_gprime": 0, "beta_tilde": -va}
    tails = {name: Tail(ClosedForm(rat1(c), zero, p)) for name, c in laws.items()}

    def center(n: int, prev: FieldElem | None) -> FieldElem:
        if n == 1:
            return backend.zero()
        return prev + a.frobenius_root(n - 1)

    return PlateauFamily(backend, center, tails, lambda m: va / p**m, budget=budget)


def _horner(coeffs: Sequence[int], a: int) -> int:
    """The integer polynomial with `coeffs` (constant first) at the integer a."""
    value = 0
    for c in reversed(coeffs):
        value = value * a + c
    return value


def hensel_family(backend: Backend, g: Poly, start: int, budget: int = FAMILY_BUDGET) -> PlateauFamily:
    """Successive lifts of a simple residue root of g over p-adic rationals.

    `start` must satisfy g(start) = 0 mod p with g'(start) a unit, and g
    must have integral coefficients (valuation >= 0): together with the
    integral centers this keeps every expansion slot of g at nonnegative
    coefficient value, which is what lets the truncated values of g
    inherit the divergence certificate.  Each lift appends the unique next
    digit, so the value of g at the n-th center is at least n and strictly
    increasing.  The lift runs on the integer polynomial D*g, D the lcm of
    the coefficient denominators, a unit: it scales g and g' alike, so it
    moves no order and no digit.  With v = v(g(a)) at the previous center
    a, D*g(a + t*p^v) = D*g(a) + D*g'(start)*t*p^v mod p^(v+1) fixes the
    digit t.  Every center is start mod p, so g'(a) is a unit and that
    digit always gains (Hensel's lemma); one Horner pass reads the new
    value, kept for the next lift.  Its order certifies the precision:
    g(a) = (a - eta) h(a), h(a) = g'(start) mod p a unit, so v(eta - a_m)
    = v(g(a_m)).  The stated tails follow: g'(a_n) is a unit and every
    other slot of g' has value at least nu(Q_n) >= 1, so nu_i_gprime = 0.
    """
    p = backend.p
    scale = math.lcm(*(c.value.denominator for c in g.coeffs))
    if scale % p == 0:
        raise ScenarioDataError("the lift family needs integral polynomial coefficients")
    dg = [c.value.numerator * (scale // c.value.denominator) for c in g.coeffs]

    def g_at(a: int) -> tuple[int, int]:
        value = _horner(dg, a)
        if value == 0:
            raise ScenarioDataError("the family hit an exact rational root of g")
        return value, _p_power(value, p)

    lifts = [g_at(start)]  # (D*g(a_m), v(g(a_m))), appended as each center is built
    if lifts[0][1] < 1:
        raise ScenarioDataError("start is not a residue root")
    gp = _horner([i * c for i, c in enumerate(dg) if i], start)
    if gp % p == 0:
        raise ScenarioDataError("residue root is not simple")
    inverse = pow(gp, -1, p)

    def center(n: int, prev: FieldElem | None) -> FieldElem:
        if n == 1:
            return backend.from_int(start)
        value, va = lifts[n - 2]  # at prev, built just before
        cand = prev.value + (-(value // p**va) * inverse) % p * p**va
        lifts.append(g_at(cand))
        return backend.from_int(cand)

    def bound(n: int) -> GroupElem:
        return rat1(n)

    zero, up = GroupElem.zero(), Tail(Diverging(increasing=True))
    tails = {"nu_key": up, "nu_i_g": up, "nu_i_gprime": Tail(ClosedForm(zero, zero, p))}
    tails["beta_tilde"] = Tail(Diverging(increasing=False))
    return PlateauFamily(backend, center, tails, lambda m: lifts[m - 1][1], bound, budget)


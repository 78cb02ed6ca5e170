"""Lemma checkers over full expansions and reports, and shared scenario contexts.

The verdict path reads only the index support of a full expansion.  The
checkers here state the rest of the lemmas around it as executable code:
the min-value law of an expansion, the minimizing-slot set of a base-q
expansion (the argmin of `NuOracle.term_values`), the derivative drop with
its equality test, and the monomial rewriting of nonnegative-value
polynomials over the keys normalized to value zero, which is the full
expansion at f's witness with its coefficients rescaled.  A value is a
`GroupElem`, or None for infinity, as everywhere in valkit.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from hypothesis import strategies as st

from valkit.cli import ScenarioConfig, build_stream, parse_config_dict
from valkit.errors import (
    LawMismatchError,
    NoWitnessError,
    ScenarioDataError,
    ValkitError,
    ValueNotRepresentableError,
)
from valkit.expansion import FullExpansion, MonomialTerm, full_expansion
from valkit.fields import Backend, FieldElem, HahnElem, valuation
from valkit.groups import GroupElem, expect_finite
from valkit.keyseq import KeyIndex, KeySequence, find_witness, stage_terms
from valkit.poly import Poly, QExpansion, derivative
from valkit.truncation import NuOracle


class NegativeValueInputError(ValkitError):
    """An operation restricted to nonnegative-value input got a negative one."""


@functools.lru_cache(maxsize=None)
def context(name: str):
    """(ks, nu, stream) for a built-in scenario."""
    cfgs = {
        "as2": {"scenario": "artin-schreier", "p": 2, "va": "-1"},
        "as3": {"scenario": "artin-schreier", "p": 3, "va": "-1"},
        "hensel": {"scenario": "hensel-immediate", "p": 2, "g": ["2", "1", "1"]},
        "unramified": {"scenario": "unramified", "p": 2, "g": ["1", "1", "1"]},
    }
    stream = build_stream(parse_config_dict(cfgs[name]))
    return stream.ks, stream.nu, stream


# A genuine e = 1 key sequence whose full expansion searches for a witness.
# With Q = x^2 + x + 1, g = Q^2 + 2Q + 4x and nu(Q) = 1; the residual
# polynomial y^2 + y + w (w a root of x^2 + x + 1) is irreducible over F_4,
# so g is irreducible over Q_2 with e = 1 and f = 4, and (x, Q) is a key
# sequence for it.  {x} alone is not complete: g = Q^2 mod 2.  The slot
# coefficient 4x of g over Q is the one coefficient that is not a constant.
WITNESS_CONFIG = {
    "scenario": "custom", "backend": "padic", "p": 2, "g": ["3", "8", "5", "2", "1"],
    "stages": [{"poly": ["0", "1"]}, {"poly": ["1", "1", "1"]}], "oracle": "resultant",
}

# g = x^4 - 6x^3 - 6x^2 + x is divisible by x, so it is reducible: the
# linear slot coefficient whose witness the full expansion searches for has
# an infinite value, and the run is a violation that says so (exit 3).
REDUCIBLE_WITNESS_CONFIG = {
    "scenario": "custom", "backend": "padic", "p": 3, "g": ["0", "1", "-6", "-6", "1"],
    "stages": [{"poly": ["5", "1"]}, {"poly": ["4", "4", "1"]}, {"poly": ["1", "1", "1"]}],
    "oracle": "resultant",
}


@st.composite
def artin_schreier_customs(draw) -> dict:
    """A custom Hahn config for g = x^p - x - a with a drawn freely.

    a has 1 to 3 terms with exponent denominators 1, p, p^2 and 5, some
    exponents >= 0, and coefficients 1..p-1; the artin_schreier stage comes
    after an explicit linear key about half the time.
    """
    p = draw(st.sampled_from([2, 3]))
    exponents = st.builds(Fraction, st.integers(-9, 3), st.sampled_from([1, p, p * p, 5]))
    terms = draw(st.lists(st.tuples(exponents, st.integers(1, p - 1)), min_size=1, max_size=3))
    minus_a = "+".join(f"{p - c}*t^({e})" for e, c in terms)
    stages = [{"family": "artin_schreier"}]
    if draw(st.booleans()):
        shift = Fraction(draw(st.integers(-9, 3)), draw(st.integers(1, 4)))
        stages.insert(0, {"poly": [f"{draw(st.integers(0, p - 1))}*t^({shift})", "1"]})
    return {
        "scenario": "custom", "backend": "hahn", "p": p,
        "g": [minus_a, str(p - 1)] + ["0"] * (p - 2) + ["1"],
        "stages": stages, "oracle": "stabilization", "terms": draw(st.sampled_from([4, 8])),
    }


def check_printed_laws(report: dict) -> None:
    """Every law a report marks verified holds on every record it prints.

    The law of `stageS.column` gives record S.n, for n past its offset,
    the value limit + scale * ratio**-(n - 1 - offset) in that column.
    """
    for key, law in report.get("laws", {}).items():
        if not law.get("verified"):
            continue
        stage, column = key.removeprefix("stage").split(".")
        scale, limit, offset = Fraction(law["scale"]), Fraction(law["limit"]), law["offset"]
        for rec in report["records"]:
            pos, n = rec["index"].split(".")
            if pos == stage and int(n) > offset:
                want = limit + scale / Fraction(law["ratio"]) ** (int(n) - 1 - offset)
                assert Fraction(rec[column]) == want, f"{key} breaks record {rec['index']}"


def random_schedule_config(rng: random.Random) -> ScenarioConfig:
    """A valid Kummer-type value schedule with a random threshold position."""
    p = rng.choice((2, 3, 5))
    vp = Fraction(rng.randint(1, 4), rng.choice((1, 1, 2)))
    at_threshold = rng.random() < 0.5
    excess = Fraction(0) if at_threshold else Fraction(rng.randint(1, 6), 7)
    gamma = vp / (p - 1) - excess
    scale = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    return parse_config_dict(
        {
            "scenario": "kummer-schedule",
            "p": p,
            "vp": str(vp),
            "gamma": str(gamma),
            "scale": str(scale),
        }
    )


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def uniformizer_power(backend: Backend, value) -> FieldElem:
    """Some element of valuation `value` (an int or a Fraction): t**value
    over Hahn series, p**value over the p-adic rationals."""
    value = Fraction(value)
    if backend.kind == "hahn":
        return HahnElem.make({value: 1}, backend.p)
    if value.denominator != 1:
        raise ValueNotRepresentableError(f"the p-adic value group is Z; got {value}")
    return backend.parse(str(Fraction(backend.p) ** value.numerator))


def key_indices(ks: KeySequence, terms: int = 8) -> list[KeyIndex]:
    """The indices below g in order, `keyseq.stage_terms` of them per plateau
    when it may give `terms`: the indices of the stream's records."""
    out: list[KeyIndex] = []
    for pos, stage in enumerate(ks.stages):
        if isinstance(stage, Poly):
            out.append(KeyIndex(pos, 0))
        else:
            out.extend(KeyIndex(pos, n) for n in range(1, stage_terms(stage, terms) + 1))
    return out


def indices_below(ks: KeySequence, i: KeyIndex, terms: int = 8) -> list[KeyIndex]:
    """The indices of `key_indices` below i: where a full expansion at i
    searches for witnesses."""
    return [j for j in key_indices(ks, terms) if j < i]


def from_ints(backend: Backend, ints: Sequence[int]) -> Poly:
    """The polynomial with integer coefficients `ints`, lowest first."""
    return Poly.make(backend, [backend.from_int(n) for n in ints])


def to_poly(exp: QExpansion) -> Poly:
    """The polynomial sum f_i q^i that a base-q expansion rewrites."""
    backend = exp.base.backend
    acc = Poly(backend, ())
    power = Poly.make(backend, [backend.one()])
    for c in exp.coeffs:
        acc = acc + c * power
        power = power * exp.base
    return acc


def schoolbook_divmod(f: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Long division by a monic q through the ring operations: while the rest
    has degree >= deg q, its top term c x^(k + deg q) moves c x^k into the
    quotient and takes c x^k q off the rest."""
    backend = f.backend
    quot, rest = Poly(backend, ()), f
    while rest.degree >= q.degree:
        shift = [backend.zero()] * (rest.degree - q.degree)
        term = Poly.make(backend, shift + [rest.coeffs[-1]])
        quot, rest = quot + term, rest - term * q
    return quot, rest


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

def least(values) -> GroupElem | None:
    """The least of `values`, with None as infinity; None when all are."""
    return min((v for v in values if v is not None), default=None)


def monomial_sum(backend: Backend, terms, key_poly: Callable[[KeyIndex], Poly]) -> Poly:
    """The polynomial  sum b * prod key_poly(k) ** e  over the terms."""
    acc = Poly(backend, ())
    for term in terms:
        part = Poly.make(backend, [term.coefficient])
        for index, e in term.exponents:
            part = part * key_poly(index) ** e
        acc = acc + part
    return acc


def reconstruct(exp: FullExpansion, ks: KeySequence) -> Poly:
    return monomial_sum(ks.g.backend, exp.terms, ks.key_poly)


def expansion_min_value(
    exp: FullExpansion, ks: KeySequence, nu: NuOracle
) -> GroupElem | None:
    """Minimum of the term values; equals the truncation at the anchor.

    Every term has a nonzero coefficient, so only the empty expansion of 0
    has the infinite value.
    """

    def value(term: MonomialTerm) -> GroupElem:
        total = valuation(term.coefficient)
        for k, e in term.exponents:
            total = total + expect_finite(nu.nu(ks.key_poly(k))).scale(e)
        return total

    return least(value(term) for term in exp.terms)


def s_set(f: Poly, i: KeyIndex, ks: KeySequence, nu: NuOracle) -> set[int]:
    """Slots of the base-q expansion of f attaining the truncation value."""
    values = nu.term_values(f, ks.key_poly(i))
    if not values:
        return set()
    low = least(values.values())
    return {j for j, v in values.items() if v == low}


# ---------------------------------------------------------------------------
# Derivative drop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeDrop:
    # nu_i(f') - nu_i(f): None when nu_i(f) is infinite, and also (the
    # drop is then infinite) when f' is zero or of infinite truncation.
    drop: GroupElem | None
    alpha_i: GroupElem
    equals_alpha_i: bool
    hypothesis_ok: bool
    s_set: frozenset[int]
    s_set_of_derivative: frozenset[int] | None


def derivative_drop(
    f: Poly,
    i: KeyIndex,
    ks: KeySequence,
    nu: NuOracle,
    terms_per_plateau: int = 8,
) -> DerivativeDrop:
    """The drop nu_i(f') - nu_i(f) and its comparison with alpha_i.

    When every earlier alpha exceeds alpha_i (checked on the materialized
    prefix), the drop equals alpha_i exactly when some minimizing slot j has
    j >= 1 and v(j) = 0 in K, and then the minimizing slots of f' are the
    shifted slots {l-1 : l in S, l >= 1, v(l) = 0}.  Both facts are verified
    here and a violation raises, since it would mean corrupt scenario data.
    """
    q = ks.key_poly(i)
    alpha_i = expect_finite(nu.nu(derivative(q))) - expect_finite(nu.nu(q))

    earlier = indices_below(ks, i, terms_per_plateau)
    hypothesis_ok = True
    for j in earlier:
        qj = ks.key_poly(j)
        alpha_j = expect_finite(nu.nu(derivative(qj))) - expect_finite(nu.nu(qj))
        if not alpha_j > alpha_i:
            hypothesis_ok = False
            break

    nu_i_f = nu.nu_q(f, q)
    fp = derivative(f)
    nu_i_fp = nu.nu_q(fp, q) if not fp.is_zero() else None
    drop = None if nu_i_f is None or nu_i_fp is None else nu_i_fp - nu_i_f

    s_f = frozenset(s_set(f, i, ks, nu))
    equals = drop == alpha_i

    s_fp: frozenset[int] | None = None
    if hypothesis_ok and nu_i_f is not None:
        unit_slot = any(_slot_is_unit(ks, j) for j in s_f)
        if unit_slot != equals:
            raise LawMismatchError(
                "derivative drop disagrees with the minimizing-slot unit test"
            )
        if equals:
            s_fp = frozenset(s_set(fp, i, ks, nu))
            shifted = frozenset(l - 1 for l in s_f if _slot_is_unit(ks, l))
            if s_fp != shifted:
                raise LawMismatchError(
                    "minimizing slots of the derivative do not shift as expected"
                )
    return DerivativeDrop(drop, alpha_i, equals, hypothesis_ok, s_f, s_fp)


def _slot_is_unit(ks: KeySequence, j: int) -> bool:
    """Whether the slot number j is a unit of the base field (j >= 1, v(j) = 0)."""
    if j < 1:
        return False
    return valuation(ks.g.backend.from_int(j)) == GroupElem.zero()


# ---------------------------------------------------------------------------
# Normalization and generator rewriting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedKey:
    index: KeyIndex
    original: Poly
    scalar: FieldElem  # a with v(a) = nu(Q)
    normalized: Poly   # Q / a, of value 0


class NormalizedSequence:
    """Keys rescaled to value zero: Q~ = Q / a with v(a) = nu(Q)."""

    def __init__(self, ks: KeySequence, nu: NuOracle):
        if ks.g is None:
            raise ScenarioDataError("normalization needs a field backend")
        self.ks = ks
        self.nu = nu
        self._cache: dict[KeyIndex, NormalizedKey] = {}

    def at(self, index: KeyIndex) -> NormalizedKey:
        hit = self._cache.get(index)
        if hit is not None:
            return hit
        q = self.ks.key_poly(index)
        value = self.nu.nu(q)
        if value is None:
            raise ValueNotRepresentableError(
                "the support polynomial has no finite value to normalize by"
            )
        scalar = uniformizer_power(self.ks.g.backend, Fraction(value.num, value.den))
        normalized = q * Poly.make(q.backend, [self.ks.g.backend.one() / scalar])
        return self._cache.setdefault(index, NormalizedKey(index, q, scalar, normalized))


def normalized_terms(exp: FullExpansion, normalized: NormalizedSequence) -> list[MonomialTerm]:
    """The terms of exp over the normalized keys Q~_k = Q_k / a_k.

    b * prod Q_k ** e_k = (b * prod a_k ** e_k) * prod Q~_k ** e_k.
    """
    out = []
    for term in exp.terms:
        scalar = term.coefficient
        for k, e in term.exponents:
            scalar = scalar * normalized.at(k).scalar**e
        out.append(MonomialTerm(scalar, term.exponents))
    return out


def rewrite_in_generators(
    f: Poly,
    normalized: NormalizedSequence,
    nu: NuOracle,
    terms_per_plateau: int = 8,
) -> list[MonomialTerm]:
    """Write f as an O_K-combination of monomials in the normalized keys.

    Requires nu(f) >= 0 and deg(f) < deg(g).  The result is the full
    expansion at f's witness over the normalized keys: a coefficient's
    witness has lower degree than its base, so it is an earlier index, and
    rescaling by a nonzero constant moves no witness and no zero slot.  Its
    least scalar value equals nu(f), and the identity is re-verified.
    """
    ks = normalized.ks
    if f.degree >= ks.g_degree:
        raise ScenarioDataError("rewriting applies below the degree of g")
    v_f = nu.nu(f)
    zero = GroupElem.zero()
    if not f.is_zero() and v_f < zero:
        raise NegativeValueInputError(f"nu(f) = {v_f} is negative")

    indices = key_indices(ks, terms_per_plateau)
    anchor = indices[0]  # a constant is its own expansion at any anchor
    if f.degree >= 1:
        anchor = find_witness(ks, nu, f, indices)
        if anchor is None:
            raise NoWitnessError(f"no key of degree <= {f.degree} attains nu within budget")
    earlier = [j for j in indices if j < anchor]
    terms = normalized_terms(full_expansion(f, anchor, ks, nu, earlier), normalized)

    values = [valuation(t.coefficient) for t in terms]
    if any(v < zero for v in values):
        raise ScenarioDataError("rewriting produced a scalar outside O_K")
    if monomial_sum(ks.g.backend, terms, lambda k: normalized.at(k).normalized) != f:
        raise ScenarioDataError("rewriting identity failed to re-evaluate")
    if terms and least(values) != v_f:
        raise ScenarioDataError("rewriting lost the minimal-value law")
    return terms

"""Full expansions against a key sequence and the derivative-drop analysis.

The full expansion of f anchored at index i rewrites f as a combination of
monomials in the keys at indices <= i with coefficients in K: expand in the
anchor key, then recursively expand every non-constant coefficient at the
smallest earlier witness index computing its full value.  The term values
of the result compute the truncation at the anchor exactly.

On top of it: the index-support set of an expansion, the minimizing-slot
set of a base-q expansion (the argmin of `NuOracle.term_values`), the
derivative drop with its equality test, and the monomial rewriting of
nonnegative-value polynomials over a normalized sequence, which is the
full expansion at f's witness with its coefficients rescaled.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import (
    LawMismatchError,
    NegativeValueInputError,
    NoWitnessError,
    ScenarioDataError,
)
from .fields import Backend, FieldElem, valuation
from .groups import ExtValue, GroupElem, min_value
from .keyseq import KeyIndex, KeySequence, NormalizedSequence, find_witness
from .poly import Poly, derivative
from .truncation import NuOracle


@dataclass(frozen=True)
class MonomialTerm:
    """One summand  b * prod_k Q_k ** exponents[k]  of an expansion."""

    coefficient: FieldElem
    exponents: tuple[tuple[KeyIndex, int], ...]  # sorted, nonzero exponents


def _monomial_sum(backend: Backend, terms, key_poly: Callable[[KeyIndex], Poly]) -> Poly:
    """The polynomial  sum b * prod key_poly(k) ** e  over the terms."""
    acc = Poly(backend, ())
    for term in terms:
        part = Poly.constant(backend, term.coefficient)
        for index, e in term.exponents:
            part = part * key_poly(index) ** e
        acc = acc + part
    return acc


@dataclass(frozen=True)
class FullExpansion:
    anchor: KeyIndex
    terms: tuple[MonomialTerm, ...]

    def reconstruct(self, ks: KeySequence) -> Poly:
        return _monomial_sum(ks.backend, self.terms, ks.key_poly)

    def support(self) -> set[KeyIndex]:
        out: set[KeyIndex] = set()
        for term in self.terms:
            out.update(k for k, _ in term.exponents)
        return out


def _merge(exponents: tuple[tuple[KeyIndex, int], ...], index: KeyIndex, e: int):
    if e == 0:
        return exponents
    return tuple(sorted(list(exponents) + [(index, e)]))


def full_expansion(
    f: Poly,
    i: KeyIndex,
    ks: KeySequence,
    nu: NuOracle,
    terms_per_plateau: int = 8,
) -> FullExpansion:
    """Rewrite f over key monomials at indices <= i; exact identity."""
    candidates = [j for j in ks.indices(terms_per_plateau) if j < i]

    def expand(c: Poly, base_index: KeyIndex, base_poly: Poly) -> list[MonomialTerm]:
        out: list[MonomialTerm] = []
        for j, cj in enumerate(nu.expand(c, base_poly).coeffs):
            if cj.is_zero():
                continue
            if cj.degree == 0:
                subterms = [MonomialTerm(cj.coeff(0), ())]
            else:
                w = find_witness(ks, nu, cj, candidates)
                if w is None:
                    raise NoWitnessError(
                        f"no earlier key of degree <= {cj.degree} attains nu within budget"
                    )
                subterms = expand(cj, w, ks.key_poly(w))
            for t in subterms:
                out.append(
                    MonomialTerm(t.coefficient, _merge(t.exponents, base_index, j))
                )
        return out

    if f.is_zero():
        return FullExpansion(i, ())
    if f.degree == 0:
        return FullExpansion(i, (MonomialTerm(f.coeff(0), ()),))
    return FullExpansion(i, tuple(expand(f, i, ks.key_poly(i))))


def i0_set(
    f: Poly, i: KeyIndex, ks: KeySequence, nu: NuOracle, terms_per_plateau: int = 8
) -> set[KeyIndex]:
    """Indices whose key appears with nonzero exponent in the full expansion."""
    return full_expansion(f, i, ks, nu, terms_per_plateau).support()


def expansion_min_value(
    exp: FullExpansion, ks: KeySequence, nu: NuOracle
) -> ExtValue:
    """Minimum of the term values; equals the truncation at the anchor."""

    def value(term: MonomialTerm) -> ExtValue:
        total = valuation(term.coefficient)
        for k, e in term.exponents:
            total = total + nu.nu(ks.key_poly(k)).expect_finite().scale(e)
        return total

    return min_value(value(term) for term in exp.terms)


def s_set(f: Poly, i: KeyIndex, ks: KeySequence, nu: NuOracle) -> set[int]:
    """Slots of the base-q expansion of f attaining the truncation value."""
    values = nu.term_values(f, ks.key_poly(i))
    if not values:
        return set()
    least = min_value(values.values())
    return {j for j, v in values.items() if v == least}


@dataclass(frozen=True)
class DerivativeDrop:
    drop: ExtValue | None  # nu_i(f') - nu_i(f); None when nu_i(f) is infinite
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
    alpha_i = (nu.nu(derivative(q)) - nu.nu(q)).expect_finite()

    earlier = [j for j in ks.indices(terms_per_plateau) if j < i]
    hypothesis_ok = True
    for j in earlier:
        qj = ks.key_poly(j)
        alpha_j = (nu.nu(derivative(qj)) - nu.nu(qj)).expect_finite()
        if not alpha_j > alpha_i:
            hypothesis_ok = False
            break

    nu_i_f = nu.nu_q(f, q)
    fp = derivative(f)
    nu_i_fp = nu.nu_q(fp, q) if not fp.is_zero() else ExtValue.infinity()
    drop = None if nu_i_f.is_infinite else nu_i_fp - nu_i_f

    s_f = frozenset(s_set(f, i, ks, nu))
    equals = drop == ExtValue.of(alpha_i) if drop is not None else False

    s_fp: frozenset[int] | None = None
    if hypothesis_ok and drop is not None:
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
    return valuation(ks.backend.from_int(j)) == ExtValue.of(GroupElem.zero())


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
    zero = ExtValue.of(GroupElem.zero())
    if not f.is_zero() and v_f < zero:
        raise NegativeValueInputError(f"nu(f) = {v_f} is negative")

    anchor = ks.final_index  # a constant is its own expansion at any anchor
    if f.degree >= 1:
        anchor = find_witness(ks, nu, f, ks.indices(terms_per_plateau))
        if anchor is None:
            raise NoWitnessError(f"no key of degree <= {f.degree} attains nu within budget")
    terms = normalized_terms(full_expansion(f, anchor, ks, nu, terms_per_plateau), normalized)

    # Exactness and the minimal-value law are cheap to certify; do it always.
    values = [valuation(t.coefficient) for t in terms]
    if any(v < zero for v in values):
        raise ScenarioDataError("rewriting produced a scalar outside O_K")
    if _monomial_sum(ks.backend, terms, lambda k: normalized.at(k).normalized) != f:
        raise ScenarioDataError("rewriting identity failed to re-evaluate")
    if terms and min_value(values) != v_f:
        raise ScenarioDataError("rewriting lost the minimal-value law")
    return terms

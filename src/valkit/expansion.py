"""Full expansions against a key sequence and the derivative-drop analysis.

The full expansion of f anchored at index i rewrites f as a combination of
monomials in the keys at indices <= i with coefficients in K: expand in the
anchor key, then recursively expand every non-constant coefficient at the
smallest earlier witness index computing its full value.  The term values
of the result compute the truncation at the anchor exactly.

On top of it: the index-support set of an expansion, the minimizing-term
set of a base-q expansion, the derivative drop with its equality test, and
the monomial rewriting of nonnegative-value polynomials over a normalized
sequence.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    LawMismatchError,
    NegativeValueInputError,
    NoWitnessError,
    ScenarioDataError,
)
from .fields import FieldElem
from .groups import ExtValue, GroupElem, min_value
from .keyseq import KeyIndex, KeySequence, NormalizedSequence, find_witness
from .poly import Poly, derivative
from .truncation import NuOracle


@dataclass(frozen=True)
class MonomialTerm:
    """One summand  b * prod_k Q_k ** exponents[k]  of a full expansion."""

    coefficient: FieldElem
    exponents: tuple[tuple[KeyIndex, int], ...]  # sorted, nonzero exponents

    def value(self, key_value, coeff_value) -> ExtValue:
        total = coeff_value(self.coefficient)
        for k, e in self.exponents:
            total = total + key_value(k).expect_finite().scale(e)
        return total


@dataclass(frozen=True)
class FullExpansion:
    anchor: KeyIndex
    terms: tuple[MonomialTerm, ...]

    def reconstruct(self, ks: KeySequence) -> Poly:
        backend = ks.backend
        acc = Poly(backend, ())
        for term in self.terms:
            part = Poly.constant(backend, term.coefficient)
            for index, e in term.exponents:
                part = part * ks.key_poly(index) ** e
            acc = acc + part
        return acc

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
    anchor_poly = ks.key_poly(i)
    candidates = [
        j for j in ks.indices(terms_per_plateau) if j < i
    ]

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
    return FullExpansion(i, tuple(expand(f, i, anchor_poly)))


def i0_set(
    f: Poly, i: KeyIndex, ks: KeySequence, nu: NuOracle, terms_per_plateau: int = 8
) -> set[KeyIndex]:
    """Indices whose key appears with nonzero exponent in the full expansion."""
    return full_expansion(f, i, ks, nu, terms_per_plateau).support()


def expansion_min_value(
    exp: FullExpansion, ks: KeySequence, nu: NuOracle
) -> ExtValue:
    """Minimum of the term values; equals the truncation at the anchor."""
    from .fields import valuation

    return min_value(
        term.value(lambda k: nu.nu(ks.key_poly(k)), valuation) for term in exp.terms
    )


def s_set(f: Poly, i: KeyIndex, ks: KeySequence, nu: NuOracle) -> set[int]:
    """Slots of the base-q expansion of f attaining the truncation value."""
    q = ks.key_poly(i)
    vq = nu.nu(q)
    values: dict[int, ExtValue] = {}
    for j, c in enumerate(nu.expand(f, q).coeffs):
        if c.is_zero():
            continue
        values[j] = nu.nu(c) + vq.expect_finite().scale(j)
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
    from .fields import valuation

    return valuation(ks.backend.from_int(j)) == ExtValue.of(GroupElem.zero())


@dataclass(frozen=True)
class RewriteTerm:
    scalar: FieldElem  # element of the valuation ring
    exponents: tuple[tuple[KeyIndex, int], ...]


def rewrite_in_generators(
    f: Poly,
    normalized: NormalizedSequence,
    nu: NuOracle,
    terms_per_plateau: int = 8,
) -> list[RewriteTerm]:
    """Write f as an O_K-combination of monomials in the normalized keys.

    Requires nu(f) >= 0 and deg(f) < deg(g); the least scalar value of the
    result equals nu(f), and the identity is verified by re-expansion.
    """
    ks = normalized.ks
    backend = ks.backend
    if f.degree >= ks.final.degree:
        raise ScenarioDataError("rewriting applies below the degree of g")
    v_f = nu.nu(f)
    if not f.is_zero() and v_f < ExtValue.of(GroupElem.zero()):
        raise NegativeValueInputError(f"nu(f) = {v_f} is negative")

    candidates = ks.indices(terms_per_plateau)

    def rec(c: Poly) -> list[RewriteTerm]:
        if c.is_zero():
            return []
        if c.degree == 0:
            return [RewriteTerm(c.coeff(0), ())]
        w = find_witness(ks, nu, c, candidates)
        if w is None:
            raise NoWitnessError(f"no key of degree <= {c.degree} attains nu within budget")
        nk = normalized.at(w)
        out: list[RewriteTerm] = []
        for j, cj in enumerate(nu.expand(c, nk.original).coeffs):
            if cj.is_zero():
                continue
            # c = sum cj Q^j = sum (cj a^j) Q~^j; the rescaled coefficient
            # keeps nonnegative value because the term value did.
            rescaled = cj.scale(nk.scalar**j)
            for t in rec(rescaled):
                out.append(RewriteTerm(t.scalar, _merge(t.exponents, w, j)))
        return out

    terms = rec(f)

    # Exactness and the minimal-value law are cheap to certify; do it always.
    acc = Poly(backend, ())
    zero = ExtValue.of(GroupElem.zero())
    least: ExtValue | None = None
    for t in terms:
        sv = nu.nu(Poly.constant(backend, t.scalar))
        if sv < zero:
            raise ScenarioDataError("rewriting produced a scalar outside O_K")
        least = sv if least is None or sv < least else least
        part = Poly.constant(backend, t.scalar)
        for index, e in t.exponents:
            part = part * normalized.at(index).normalized ** e
        acc = acc + part
    if acc != f:
        raise ScenarioDataError("rewriting identity failed to re-evaluate")
    if terms and least != v_f:
        raise ScenarioDataError("rewriting lost the minimal-value law")
    return terms

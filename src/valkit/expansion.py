"""Full expansions against a key sequence.

The full expansion of f anchored at index i rewrites f as a combination of
monomials in the keys at indices <= i with coefficients in K: expand in the
anchor key, then recursively expand every non-constant coefficient at the
smallest earlier witness index computing its full value.  The caller names
the earlier indices; classification case (i) passes the invariant stream's
records below its last one and reads the index support, `i0_set`.  The term
values of the result compute the truncation at the anchor exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NoWitnessError
from .fields import FieldElem
from .groups import expect_finite
from .keyseq import KeyIndex, KeySequence, find_witness
from .poly import Poly
from .truncation import NuOracle


@dataclass(frozen=True)
class MonomialTerm:
    """One summand  b * prod_k Q_k ** exponents[k]  of an expansion."""

    coefficient: FieldElem
    exponents: tuple[tuple[KeyIndex, int], ...]  # sorted, nonzero exponents


@dataclass(frozen=True)
class FullExpansion:
    anchor: KeyIndex
    terms: tuple[MonomialTerm, ...]

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
    f: Poly, i: KeyIndex, ks: KeySequence, nu: NuOracle, earlier: Sequence[KeyIndex]
) -> FullExpansion:
    """Rewrite f over key monomials at i and the `earlier` indices, which
    lie below i in order; exact identity."""

    def expand(c: Poly, base_index: KeyIndex, base_poly: Poly) -> list[MonomialTerm]:
        out: list[MonomialTerm] = []
        for j, cj in enumerate(nu.expand(c, base_poly).coeffs):
            if cj.is_zero():
                continue
            if cj.degree == 0:
                subterms = [MonomialTerm(cj.coeff(0), ())]
            else:
                # cj is nonzero and of lower degree than g: an infinite value
                # means g is reducible, not that no key witnesses it.
                expect_finite(nu.nu(cj))
                w = find_witness(ks, nu, cj, earlier)
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

    return FullExpansion(i, tuple(expand(f, i, ks.key_poly(i))))


def i0_set(
    f: Poly, i: KeyIndex, ks: KeySequence, nu: NuOracle, earlier: Sequence[KeyIndex]
) -> set[KeyIndex]:
    """Indices whose key appears with nonzero exponent in the full expansion."""
    return full_expansion(f, i, ks, nu, earlier).support()

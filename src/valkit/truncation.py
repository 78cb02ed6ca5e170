"""The valuation with support at a minimal polynomial, and its truncations.

`NuOracle` computes nu(f) = v(f_0(eta)) where f_0 is the remainder of f
modulo the monic minimal polynomial g of eta, by one value function for
polynomials of degree below deg(g), passed to the constructor as
`value_fn`.  Two constructors build one:

* `from_resultant` values f by the norm of f(eta), the determinant of
  multiplication by f modulo g (valid when the valuation extends uniquely);
* `stabilization` evaluates f_0 at the members a_m of a plateau family
  converging to a root eta of g, and returns v(f_0(a_m)) at the first
  member where a certificate proves it equals v(f_0(eta)).  By Taylor,
  f_0(eta) = sum_i f_0[i](a_m) (eta - a_m)^i; with P_m the family's proven
  lower bound on v(eta - a_m), the constant term decides once its value is
  below every other term's lower bound (the ultrametric argument behind
  Kaplansky's lemma on pseudo-Cauchy sequences).  A Taylor coefficient is
  bounded by its terms' values first, and valued exactly at a_m only when
  that bound refuses: a cancellation inside the coefficient (in
  characteristic p, f_1 + 2 f_2 a can vanish to leading order) lifts its
  value above every term's.  Any first member is
  sound, so the walk starts at the family's last built center: the key
  x - a_n costs at most two evaluations, at a_n (an exact zero, skipped)
  and a_(n+1).  The loop compares raw orders and builds one `GroupElem`.

A value is a `GroupElem`, or None for the infinite value of the
multiples of g.  `nu` values a constant f_0 as v(f_0) before its memo,
which holds only non-constant f.  `term_values` is the one place that
values the slots of a q-expansion, nu(f_j) + j * nu(q); `nu_q`, the
truncation at a monic base q, is their least value.  The oracle owns the
q-expansions of its run: `expand` computes each (f, q) pair once and
every consumer holding the oracle reads it from there: truncations, the
invariant stream's check that g is monic over each key, `b_set`'s slot
values and full expansions.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable

from .errors import StabilizationBudgetExceededError, ValkitError
from .fields import valuation
from .groups import GroupElem, rat1
from .poly import Poly, QExpansion, hasse, q_expand


class NuOracle:
    """Exact oracle for the valuation with support at g."""

    def __init__(self, g: Poly, value_fn: Callable[[Poly], GroupElem | None]):
        if not g.is_monic() or g.degree < 1:
            raise ValkitError("the support polynomial must be monic of degree >= 1")
        self.g = g
        self._value_fn = value_fn
        self._cache: dict[Poly, GroupElem | None] = {}
        self._expansions: dict[tuple[Poly, Poly], QExpansion] = {}
        self._lock = threading.Lock()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_resultant(g: Poly) -> "NuOracle":
        """Evaluation mode via v(N(f(eta))) / deg(g).

        The norm N(f(eta)) = res(g, f) is the determinant of multiplication
        by f on K[x]/(g).  Valid when the valuation extends uniquely to
        K[x]/(g), so that all conjugates of f(eta) share one value.
        """
        inverse_degree = Fraction(1, g.degree)

        def fn(f: Poly) -> GroupElem | None:
            from .poly import resultant

            v = valuation(resultant(g, f))
            return None if v is None else v.scale(inverse_degree)

        return NuOracle(g, fn)

    @staticmethod
    def stabilization(g: Poly, family) -> "NuOracle":
        """Certified stabilization along a `keyseq.PlateauFamily` whose
        members converge to a root of g, up to the family's budget."""
        if family.precision is None:
            raise ValkitError("stabilization needs a family with a precision certificate")

        def value(f0: Poly) -> GroupElem:
            orders = [c.order() for c in f0.coeffs]
            values = []
            budget = family.budget
            for m in range(min(max(family.materialized, 1), budget), budget + 1):
                a = family.center(m)
                values.append(f0.eval(a))
                k = values[-1].order()
                # An exact zero is transient: f0(eta) != 0 as deg f0 < deg g.
                if k is not None and _certified(k, f0, orders, a, family.precision(m)):
                    return rat1(k)
            raise StabilizationBudgetExceededError(
                f"no certified family member up to term {budget}",
                trace=[valuation(v) for v in values],
            )

        return NuOracle(g, value)

    # -- the valuation ------------------------------------------------------

    def nu(self, f: Poly) -> GroupElem | None:
        """nu(f) = v(f mod g at eta); None (infinite) exactly on multiples of g.

        A constant is v(f_0), valued before the memo: only non-constant f
        are memoized."""
        if f.degree < 1:
            return valuation(f.coeff(0))
        cached = self._cache.get(f, _MISS)
        if cached is not _MISS:
            return cached
        f0 = f.divmod_monic(self.g)[1] if f.degree >= self.g.degree else f
        result = self._value_fn(f0) if f0.degree >= 1 else valuation(f0.coeff(0))
        with self._lock:
            self._cache.setdefault(f, result)
        return result

    def expand(self, f: Poly, q: Poly) -> QExpansion:
        """The q-expansion of f, computed once per (f, q) for this oracle."""
        key = (f, q)
        cached = self._expansions.get(key)
        if cached is not None:
            return cached
        result = q_expand(f, q)
        with self._lock:
            return self._expansions.setdefault(key, result)

    def term_values(self, f: Poly, q: Poly) -> dict[int, GroupElem | None]:
        """nu(f_j) + j * nu(q) for each nonzero slot j of the q-expansion of f
        (None where nu(f_j) is infinite)."""
        step = self.nu(q)
        if step is None:
            raise ValkitError(
                "expansion base has infinite value (only g may, as a truncation base)"
            )
        values = {}
        for j, c in enumerate(self.expand(f, q).coeffs):
            if not c.is_zero():
                v = self.nu(c)
                values[j] = None if v is None else v + step.scale(j)
        return values

    def nu_q(self, f: Poly, q: Poly) -> GroupElem | None:
        """Truncation at monic q: min over i of nu(f_i) + i * nu(q), None for infinity.

        The expansion rejects any other base (`NonMonicBaseError`).
        """
        if f.degree < q.degree or q == self.g:
            # One slot, or the support polynomial as base (every higher slot
            # is infinite): the constant slot carries the value.
            return self.nu(self.expand(f, q).coeffs[0])
        return min((v for v in self.term_values(f, q).values() if v is not None), default=None)


_MISS = object()  # the memo's miss; None is the cached infinite value


def _certified(k, f0: Poly, orders: list, a, precision) -> bool:
    """Whether k = v(f0(a)) is v(f0(eta)), given v(eta - a) >= precision.

    `orders` are the coefficient orders of f0.  The i-th Taylor coefficient
    sum_{j>=i} binom(j, i) f_j a^(j-i) has value at least
    min_j v(f_j) + (j - i) v(a), as binomials have value >= 0; at a = 0 only
    j = i is left.  The bound is exact for linear f0.  Where it refuses, the
    coefficient is valued exactly at a (an exact zero adds no term).
    """
    va = a.order()
    for i in range(1, len(orders)):
        slots = enumerate(orders[i:]) if va is not None else [(0, orders[i])]
        bounds = [o + d * va if d else o for d, o in slots if o is not None]
        if bounds and not k < min(bounds) + i * precision:
            exact = hasse(f0, i).eval(a).order()
            if exact is not None and not k < exact + i * precision:
                return False
    return True


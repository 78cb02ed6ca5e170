"""The valuation with support at a minimal polynomial, and its truncations.

`NuOracle` computes nu(f) = v(f_0(eta)) where f_0 is the remainder of f
modulo the monic minimal polynomial g of eta, by one value function for
polynomials of degree below deg(g), passed to the constructor as
`value_fn`.  Two constructors build one:

* `from_resultant` values f by the norm of f(eta), the determinant of
  multiplication by f modulo g (valid when the valuation extends uniquely);
* `stabilization` evaluates f_0 along a pseudo-convergent approximation
  family and returns the value once a window of consecutive evaluations
  agrees.  For deg(f_0) < deg(g) the evaluations are eventually constant
  because g has the least degree among unstable polynomials; the window
  guards against accidental early agreement.  The loop compares raw orders
  (`order()`) and builds one `ExtValue`, for the value it returns.  The
  n-th plateau key x - a_n costs n + window family evaluations, so the keys
  up to a budget cost quadratically many between them.

`term_values` is the one place that values the slots of a q-expansion,
nu(f_j) + j * nu(q); `nu_q`, the truncation at a monic base q, is their
least value.  The oracle owns the q-expansions of its run: `expand`
computes each (f, q) pair once and every consumer holding the oracle reads
it from there: truncations, the invariant stream's check that g is monic
over each key, `b_set`'s slot values and full expansions.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from typing import Callable

from .errors import (
    NonMonicBaseError,
    StabilizationBudgetExceededError,
    ValkitError,
)
from .fields import FieldElem, valuation
from .groups import ExtValue, min_value, rat1
from .poly import Poly, QExpansion, q_expand

DEFAULT_WINDOW = 3
DEFAULT_BUDGET = 64


class NuOracle:
    """Exact oracle for the valuation with support at g."""

    def __init__(self, g: Poly, value_fn: Callable[[Poly], ExtValue]):
        if not g.is_monic() or g.degree < 1:
            raise ValkitError("the support polynomial must be monic of degree >= 1")
        self.g = g
        self._value_fn = value_fn
        self._cache: dict[Poly, ExtValue] = {}
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

        def fn(f: Poly) -> ExtValue:
            from .poly import resultant

            v = valuation(resultant(g, f))
            if v.is_infinite:
                return v
            return ExtValue.of(v.expect_finite().scale(Fraction(1, g.degree)))

        return NuOracle(g, fn)

    @staticmethod
    def stabilization(
        g: Poly,
        family: Callable[[int], FieldElem],
        window: int = DEFAULT_WINDOW,
        budget: int = DEFAULT_BUDGET,
    ) -> "NuOracle":
        """Stabilization mode along the 1-based approximation family."""
        return NuOracle(g, lambda f0: _stabilized_value(f0, family, window, budget))

    # -- the valuation ------------------------------------------------------

    def nu(self, f: Poly) -> ExtValue:
        """nu(f) = v(f mod g at eta); infinite exactly on multiples of g."""
        cached = self._cache.get(f)
        if cached is not None:
            return cached
        f0 = f.divmod_monic(self.g)[1] if f.degree >= self.g.degree else f
        if f0.is_zero():
            result = ExtValue.infinity()
        elif f0.degree == 0:
            result = valuation(f0.coeff(0))
        else:
            result = self._value_fn(f0)
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

    def term_values(self, f: Poly, q: Poly) -> dict[int, ExtValue]:
        """nu(f_j) + j * nu(q) for each nonzero slot j of the q-expansion of f."""
        vq = self.nu(q)
        if vq.is_infinite:
            raise ValkitError(
                "expansion base has infinite value (only g may, as a truncation base)"
            )
        step = vq.expect_finite()
        return {
            j: self.nu(c) + step.scale(j)
            for j, c in enumerate(self.expand(f, q).coeffs)
            if not c.is_zero()
        }

    def nu_q(self, f: Poly, q: Poly) -> ExtValue:
        """Truncation at monic q: min over i of nu(f_i) + i * nu(q)."""
        if not q.is_monic() or q.degree < 1:
            raise NonMonicBaseError("truncation base must be monic of degree >= 1")
        if f.degree < q.degree or q == self.g:
            # One slot, or the support polynomial as base (every higher slot
            # is infinite): the constant slot carries the value.
            return self.nu(self.expand(f, q).coeff(0))
        return min_value(self.term_values(f, q).values())


def _stabilized_value(
    f0: Poly, family: Callable[[int], FieldElem], window: int, budget: int
) -> ExtValue:
    """v(f0(a_n)) once `window` consecutive family members agree on it."""
    values: list[FieldElem] = []
    run, run_len = None, 0
    for n in range(1, budget + 1):
        value = f0.eval(family(n))
        values.append(value)
        k = value.order()
        if k is None:
            # A transient exact zero (the family walked through a root of
            # f0); it cannot persist since f0 is not a multiple of g.
            run_len = 0
            continue
        if k == run:
            run_len += 1
        else:
            run, run_len = k, 1
        if run_len >= window:
            return ExtValue.of(rat1(run))
    raise StabilizationBudgetExceededError(
        f"no stabilization window of {window} within {budget} terms",
        trace=[valuation(v) for v in values],
    )

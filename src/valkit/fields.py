"""Exact valued-field element backends.

Two backends supply the base field (K, v) of a scenario:

* ``padic`` -- rational numbers with the p-adic valuation,
* ``hahn``  -- finite-support generalized power series over F_p with
               rational exponents, valued by the least exponent.

A p-adic element is a slotted `PAdicRational` with a plain `__init__`,
immutable by convention as `Fraction` is.  Its value is an `int` when it is
integral and a `Fraction` otherwise, so the integral centers and
coefficients of the lift families stay in integer arithmetic; division and
negative powers go through `Fraction` and come back to the canonical form.
Its order is the exponent of p in the numerator less that in the
denominator, read without a division loop: the lowest set bit for p = 2,
and for an odd prime one gcd with p**32, looked up in a per-prime table of
powers built on first use (an order of 32 or more recurses on the quotient).

A Hahn element stores its exponents as integer numerators over one
denominator per element, kept minimal, so equal series compare and hash
equal without `Fraction` arithmetic; `Fraction` appears only where
exponents enter (`HahnElem.make`, `parse_hahn`) and leave (`order`).
Sums and differences are one linear merge of the two sorted supports
(`HahnElem._merge`), which reduces the denominator only after a term
cancels; a product with a one-term factor shifts the other support, and
other products accumulate in a dict and sort once.  `frobenius(k)` and
`frobenius_root(k)` scale every exponent by p**k and p**-k.

Each element's `order()` is its least exponent, an `int` or a `Fraction`,
or `None` for zero.  `valuation(a)`, the only valuation, turns it into a
`GroupElem`, and zero's infinite value into `None`; loops that only
compare values compare raw orders.

All arithmetic is exact.  Elements are immutable and hashable; mixing
backends (or primes) raises `BackendMismatchError`.  Division is exact
field division; for Hahn elements whose quotient would have infinite
support it raises instead of truncating.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import BackendMismatchError, ValkitError, ValueNotRepresentableError
from .groups import GroupElem, rat1

_HAHN_DIV_BUDGET = 4096


_SPAN = 32
# Per odd prime, built on first use: (p**_SPAN, {p**k: k for k <= _SPAN}).
_ORDER_TABLES: dict[int, tuple[int, dict[int, int]]] = {}


def _p_power(n: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer n.

    For p = 2 it is the position of the lowest set bit.  For odd p,
    gcd(n, p**_SPAN) is p**k with k = min(order, _SPAN); a table gives k.
    A gcd that is no power of p shows that p is not prime.
    """
    if p == 2:
        return (n & -n).bit_length() - 1
    table = _ORDER_TABLES.get(p)
    if table is None:
        top = p**_SPAN
        table = _ORDER_TABLES[p] = (top, {p**k: k for k in range(_SPAN + 1)})
    top, exponents = table
    k = exponents.get(math.gcd(n, top))
    if k is None:
        raise ValkitError(f"the p-adic order needs a prime p, got {p}")
    return k + _p_power(n // top, p) if k == _SPAN else k


def _padic_order(x: int | Fraction, p: int) -> int:
    if type(x) is int:
        return _p_power(x, p)
    k = _p_power(x.numerator, p)
    return k if x.denominator == 1 else k - _p_power(x.denominator, p)


def _padic(value: int | Fraction, p: int) -> "PAdicRational":
    """The canonical element: an `int` value when integral, else a `Fraction`."""
    if type(value) is not int and value.denominator == 1:
        value = value.numerator
    return PAdicRational(value, p)


class PAdicRational:
    """An exact rational carrying the p-adic valuation.

    `value` is an `int` when the rational is integral and a `Fraction`
    otherwise (`_padic` builds every element), so sums, differences and
    products of integers never leave `int` arithmetic.  An `int` and the
    equal `Fraction` compare and hash alike.  Immutable by convention, as
    `Fraction` is.
    """

    __slots__ = ("value", "p")

    def __init__(self, value: int | Fraction, p: int):
        self.value = value
        self.p = p

    def __eq__(self, other):
        if type(other) is not PAdicRational:
            return NotImplemented
        return self.value == other.value and self.p == other.p

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"PAdicRational(value={self.value!r}, p={self.p!r})"

    def _coerce(self, other):
        if type(other) is PAdicRational and other.p == self.p:
            return other
        raise BackendMismatchError(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other):
        value = self.value + self._coerce(other).value
        if type(value) is not int and value.denominator == 1:
            value = value.numerator
        return PAdicRational(value, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        return _padic(self.value - other.value, self.p)

    def __neg__(self):
        return PAdicRational(-self.value, self.p)

    def __mul__(self, other):
        value = self.value * self._coerce(other).value
        if type(value) is not int and value.denominator == 1:
            value = value.numerator
        return PAdicRational(value, self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return _padic(Fraction(self.value) / other.value, self.p)

    def __pow__(self, k: int):
        if k < 0 and self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # Through Fraction: an int to a negative power would be a float.
        return _padic(Fraction(self.value) ** k, self.p)

    def is_zero(self) -> bool:
        return self.value == 0

    def order(self) -> int | None:
        return None if self.value == 0 else _padic_order(self.value, self.p)


def _hahn(acc: dict[int, int], den: int, p: int) -> "HahnElem":
    """The canonical element sum c * t^(n/den) over acc, coefficients mod p."""
    return _reduced([(n, r) for n, c in sorted(acc.items()) if (r := c % p)], den, p)


def _reduced(terms: list[tuple[int, int]], den: int, p: int) -> "HahnElem":
    """The element of sorted terms with coefficients in 1..p-1, den made minimal."""
    if not terms:
        return HahnElem((), 1, p)
    g = math.gcd(den, *(n for n, _ in terms)) if den > 1 else 1
    if g > 1:
        den //= g
        terms = [(n // g, c) for n, c in terms]
    return HahnElem(tuple(terms), den, p)


@dataclass(frozen=True)
class HahnElem:
    """Finite-support series sum c * t^(n/den) over F_p.

    Stored as a tuple of integer (n, c) pairs sorted by n, with coefficients
    in 1..p-1, over one denominator `den` per element.  `den` is minimal
    (gcd(den, *ns) == 1, zero is ((), 1)), so equal series are equal and
    hash equal.  The valuation is the least exponent of the support.
    """

    terms: tuple[tuple[int, int], ...]
    den: int
    p: int

    @staticmethod
    def make(mapping, p) -> "HahnElem":
        """The element sum c * t^e from (e, c) pairs or a dict, e rational."""
        pairs = mapping.items() if isinstance(mapping, dict) else mapping
        items = [(Fraction(e), c) for e, c in pairs]
        den = math.lcm(1, *(e.denominator for e, _ in items))
        acc: dict[int, int] = {}
        for e, c in items:
            n = e.numerator * (den // e.denominator)
            acc[n] = acc.get(n, 0) + c
        return _hahn(acc, den, p)

    def _coerce(self, other):
        if not isinstance(other, HahnElem) or other.p != self.p:
            raise BackendMismatchError(f"cannot combine {self!r} with {other!r}")
        return other

    def _aligned(self, other):
        """Both supports over lcm(den_a, den_b), and that denominator."""
        if self.den == other.den:
            return self.terms, other.terms, self.den
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return (
            [(n * sa, c) for n, c in self.terms],
            [(n * sb, c) for n, c in other.terms],
            den,
        )

    def _merge(self, other, negate: bool) -> "HahnElem":
        """self + other, or self - other when `negate`: one pass over both sorted supports.

        The denominator lcm(den_a, den_b) needs reducing only after a term
        cancels.  For a prime l dividing it, one operand, say a, carries all
        of l in den_a; a is minimal, so a has a numerator prime to l, which
        stays prime to l when rescaled to den, and with no cancellation that
        term is in the result.
        """
        other = self._coerce(other)
        p = self.p
        a, b, den = self._aligned(other)
        out, cancelled, i, j, la, lb = [], False, 0, 0, len(a), len(b)
        while i < la and j < lb:
            (na, ca), (nb, cb) = a[i], b[j]
            if na < nb:
                out.append(a[i])
                i += 1
            elif nb < na:
                out.append((nb, p - cb) if negate else b[j])
                j += 1
            else:
                c = (ca - cb if negate else ca + cb) % p
                if c:
                    out.append((na, c))
                cancelled = cancelled or not c
                i, j = i + 1, j + 1
        out += a[i:]
        out += [(n, p - c) for n, c in b[j:]] if negate else b[j:]
        return _reduced(out, den, p) if cancelled else HahnElem(tuple(out), den, p)

    def __add__(self, other):
        return self._merge(other, False)

    def __neg__(self):
        return HahnElem(tuple((n, (-c) % self.p) for n, c in self.terms), self.den, self.p)

    def __sub__(self, other):
        return self._merge(other, True)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b, den = self._aligned(other)
        if len(a) == 1 or len(b) == 1:
            # A monomial factor c0 * t^n0 shifts the other support.
            (n0, c0), rest = (a[0], b) if len(a) == 1 else (b[0], a)
            p = self.p
            return _reduced([(n + n0, r) for n, c in rest if (r := c * c0 % p)], den, p)
        acc: dict[int, int] = {}
        get = acc.get
        for n1, c1 in a:
            for n2, c2 in b:
                n = n1 + n2
                acc[n] = get(n, 0) + c1 * c2
        return _hahn(acc, den, self.p)

    def __pow__(self, k: int):
        out = _hahn({0: 1}, 1, self.p)
        if k < 0:
            return (out / self) ** (-k)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        """Exact division; raises if the quotient has infinite support."""
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero field element")
        a, b, den = self._aligned(other)
        n0, c0 = b[0]
        inv_c = pow(c0, self.p - 2, self.p)
        if len(b) == 1:
            return _hahn({n - n0: c * inv_c for n, c in a}, den, self.p)
        # Valuation-ascending long division; terminates iff exact.  Every
        # remainder exponent, hence every quotient exponent, lies in (1/den)Z.
        rem = self
        quot: dict[int, int] = {}
        for _ in range(_HAHN_DIV_BUDGET):
            if rem.is_zero():
                return _hahn(quot, den, self.p)
            n, c = rem.terms[0]
            qn, qc = n * (den // rem.den) - n0, (c * inv_c) % self.p
            quot[qn] = quot.get(qn, 0) + qc
            rem = rem - _hahn({qn: qc}, den, self.p) * other
        raise ValueNotRepresentableError(
            "quotient does not have finite support (or exceeds division budget)"
        )

    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> int | Fraction | None:
        n = self.terms[0][0] if self.terms else None
        return n if self.den == 1 else Fraction(n, self.den)

    def frobenius_root(self, k: int = 1) -> "HahnElem":
        """Inverse Frobenius applied k times: exponents divide by p**k.

        Coefficients lie in the prime field and are fixed by p-th roots.
        """
        return _hahn(dict(self.terms), self.den * self.p**k, self.p)

    def frobenius(self, k: int = 1) -> "HahnElem":
        """Frobenius applied k times, self ** p**k: exponents multiply by p**k.

        Only p can leave the minimal denominator, by gcd(den, p**k).
        """
        g = math.gcd(self.den, self.p**k)
        scale = self.p**k // g
        return HahnElem(tuple((n * scale, c) for n, c in self.terms), self.den // g, self.p)


FieldElem = Union[PAdicRational, HahnElem]

_BACKEND_KINDS = ("padic", "hahn")
# A plain integer coefficient, read by `int()` without a `Fraction` parse.
INTEGER = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class Backend:
    """Constructor handle for one valued-field backend."""

    kind: str
    p: int

    def __post_init__(self):
        if self.kind not in _BACKEND_KINDS:
            raise ValkitError(f"unknown backend {self.kind!r}")
        if self.p < 2:
            raise ValkitError("p must be at least 2")
        # Elements are immutable, so one zero and one one serve every call.
        object.__setattr__(self, "_zero", self.from_int(0))
        object.__setattr__(self, "_one", self.from_int(1))

    def zero(self) -> FieldElem:
        return self._zero

    def one(self) -> FieldElem:
        return self._one

    def from_int(self, n: int) -> FieldElem:
        if self.kind == "padic":
            return _padic(n, self.p)
        return _hahn({0: n}, 1, self.p)

    def parse(self, text: str) -> FieldElem:
        if self.kind == "padic":
            text = text.strip()
            if INTEGER.fullmatch(text):
                return PAdicRational(int(text), self.p)
            return _padic(Fraction(text), self.p)
        return parse_hahn(text, self.p)


_HAHN_TERM = re.compile(
    r"""^\s*(?P<c>-?\d+)\s*(?:\*\s*t\s*\^\s*\(\s*(?P<e>-?\d+(?:/\d+)?)\s*\)\s*)?$"""
)


def parse_hahn(text: str, p: int) -> HahnElem:
    """Parse "c1*t^(e1)+c2*t^(e2)+..." with exact rational exponents; "c" is c*t^(0)."""
    terms = []
    for part in text.split("+"):
        m = _HAHN_TERM.match(part)
        if not m:
            raise ValkitError(f"malformed Hahn term {part!r}")
        try:
            e = Fraction(m.group("e") or 0)
        except ZeroDivisionError:
            raise ValkitError(f"zero denominator in Hahn term {part!r}") from None
        terms.append((e, int(m.group("c"))))
    return HahnElem.make(terms, p)


def valuation(a: FieldElem) -> GroupElem | None:
    """The backend's valuation, built from `a.order()`; None (infinity) on zero."""
    k = a.order()
    return None if k is None else rat1(k)


"""Dense univariate polynomials over a valued-field backend.

Coefficients are exact field elements in ascending order with no trailing
zeros.  A `Poly` is a slotted value that stores its degree and hashes its
coefficients once, since the oracle's memos are keyed by polynomials.
Provides base-q expansions (repeated Euclidean division by a monic base,
remainder first, one synthetic-division pass per slot at a linear base, a
shift at x; over Hahn series a linear base splits f by the binomials
q^(p^k) = x^(p^k) + Frob^k(q(0)) first), formal derivatives with
characteristic-p cancellation, q-monicity of an expansion and the
resultant res(g, f) of a monic g, as the determinant of multiplication by
f modulo g, or (-1)^deg g g(a) by Horner's rule for f = x - a.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NonMonicBaseError
from .fields import Backend, FieldElem


class Poly:
    """A dense polynomial; `coeffs` is () for the zero polynomial, of degree -1.

    Immutable by convention; the hash is taken from `coeffs` on first use.
    """

    __slots__ = ("backend", "coeffs", "degree", "_hash")

    def __init__(self, backend: Backend, coeffs: tuple[FieldElem, ...]):
        self.backend = backend
        self.coeffs = coeffs
        self.degree = len(coeffs) - 1
        self._hash = None

    def __eq__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        return self.coeffs == other.coeffs and (
            self.backend is other.backend or self.backend == other.backend
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    def __repr__(self):
        return f"Poly(backend={self.backend!r}, coeffs={self.coeffs!r})"

    @staticmethod
    def make(backend: Backend, coeffs: Iterable[FieldElem]) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return Poly(backend, tuple(cs))

    @staticmethod
    def x(backend: Backend) -> "Poly":
        return Poly.make(backend, [backend.zero(), backend.one()])

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> FieldElem:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.backend.zero()

    def is_monic(self) -> bool:
        return not self.is_zero() and self.coeffs[-1] == self.backend.one()

    def _check(self, other: "Poly") -> None:
        if other.backend is not self.backend and other.backend != self.backend:
            raise ValueError("polynomials over different backends")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(
            self.backend, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __neg__(self) -> "Poly":
        return Poly(self.backend, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.backend, ())
        out = [self.backend.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly.make(self.backend, out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.make(self.backend, [self.backend.one()])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def eval(self, point: FieldElem) -> FieldElem:
        """Horner's rule, starting from the leading coefficient."""
        if not self.coeffs:
            return self.backend.zero()
        acc = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * point + c
        return acc

    def divmod_monic(self, q: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean division by a monic divisor; exact in any backend.

        By a linear q = x - a it is one synthetic-division (Horner) pass:
        b_(k-1) = f_k + a b_k from the top b_(n-1) = f_n, and the remainder
        f_0 + a b_0 = f(a).  The quotient's top is f's: only f(a) may vanish.
        At a = 0 the pass is a shift: the quotient is f_1..f_n, the rest f_0.
        """
        self._check(q)
        if not q.is_monic():
            raise NonMonicBaseError("division base must be monic")
        cs, dq = self.coeffs, q.degree
        if len(cs) - 1 < dq:
            return Poly(self.backend, ()), self
        if dq == 1:
            if q.coeffs[0].is_zero():  # q = x: a shift, no multiplication
                return Poly(self.backend, cs[1:]), Poly.make(self.backend, cs[:1])
            a, b = -q.coeffs[0], cs[-1]
            quot = [b]
            for c in cs[-2:0:-1]:
                b = c + a * b
                quot.append(b)
            rem = Poly.make(self.backend, [cs[0] + a * b])
            return Poly(self.backend, tuple(reversed(quot))), rem
        rem = list(cs)
        quot = [self.backend.zero()] * (len(rem) - dq)
        # q is monic: rem[top] - 1*c is 0, and rem[:dq] drops it.  Zero
        # coefficients of q, all the middle ones of a binomial, are skipped.
        lower = [(i, qc) for i, qc in enumerate(q.coeffs[:-1]) if not qc.is_zero()]
        for top in range(len(rem) - 1, dq - 1, -1):
            c = rem[top]
            if c.is_zero():
                continue
            shift = top - dq
            quot[shift] = c
            for i, qc in lower:
                rem[shift + i] = rem[shift + i] - qc * c
        return Poly.make(self.backend, quot), Poly.make(self.backend, rem[:dq])


@dataclass(frozen=True)
class QExpansion:
    """The unique rewriting f = sum f_i q^i with deg f_i < deg q."""

    base: Poly
    coeffs: tuple[Poly, ...]

    def is_monic(self) -> bool:
        """True when the top coefficient is the constant 1."""
        top = self.coeffs[-1]
        return top.degree == 0 and top.coeff(0) == self.base.backend.one()


def q_expand(f: Poly, q: Poly) -> QExpansion:
    """Expand f in powers of the monic base q, remainder first.

    In general the coefficients are the remainders of repeated division
    by q.  Over Hahn series (characteristic p) a linear q = x + a has
    q^P = x^P + a^P for every power P of p, so f of degree >= p is split
    once as f = A q^P + B by the binomial x^P + Frob^k(a), P = p^k the
    largest power of p at most deg f, and B and A are expanded the same
    way (radix conversion; von zur Gathen and Gerhard, ISSAC 1997).  The
    powers of a that the repeated division multiplies out, and whose
    support mostly cancels mod p, are never formed.
    """
    if not q.is_monic() or q.degree < 1:
        raise NonMonicBaseError("expansion base must be monic of degree >= 1")
    return QExpansion(q, tuple(_expand(f, q)))


def _expand(f: Poly, q: Poly) -> list[Poly]:
    """The coefficients of f in powers of q, at least one."""
    backend, p = q.backend, q.backend.p
    if q.degree == 1 and backend.kind == "hahn" and f.degree >= p:
        k = 1
        while p ** (k + 1) <= f.degree:
            k += 1
        size = p**k
        middle = (backend.zero(),) * (size - 1)
        binomial = Poly(backend, (q.coeffs[0].frobenius(k), *middle, backend.one()))
        high, low = f.divmod_monic(binomial)
        coeffs = _expand(low, q)
        return coeffs + [Poly(backend, ())] * (size - len(coeffs)) + _expand(high, q)
    coeffs = []
    rest = f
    while not rest.is_zero():
        rest, rem = rest.divmod_monic(q)
        coeffs.append(rem)
    return coeffs or [Poly(f.backend, ())]


def derivative(f: Poly) -> Poly:
    """Formal derivative; k * a_k is computed in the coefficient field."""
    out = []
    for k in range(1, len(f.coeffs)):
        out.append(f.coeffs[k] * f.backend.from_int(k))
    return Poly.make(f.backend, out)


def resultant(g: Poly, f: Poly) -> FieldElem:
    """res(g, f) for monic g: the norm of f(eta), eta a root of g.

    It is the determinant of multiplication by f on K[x]/(g), the
    deg g x deg g matrix whose row i holds x^i f mod g: the first row is f
    itself when deg f < deg g and one division otherwise, each next row the
    previous one shifted up a slot with x^n replaced through g.  Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968) evaluates it: every
    quotient is a minor of the matrix, so it is exact in the ring the
    entries generate -- for Hahn series the finite-support series, a
    domain -- and no division leaves it.  A monic linear f = x - a needs no
    matrix: its norm is prod (eta_i - a) = (-1)^n g(a), one Horner pass.  A
    non-monic g raises `NonMonicBaseError`.
    """
    n, zero = g.degree, g.backend.zero()
    # The oracle hands over f already reduced below deg g: no division then.
    if f.degree >= n:
        f = f.divmod_monic(g)[1]
    else:
        f._check(g)
        if not g.is_monic():
            raise NonMonicBaseError("division base must be monic")
    if f.degree == 1 and f.is_monic():
        norm = g.eval(-f.coeffs[0])
        return -norm if n % 2 else norm
    row = list(f.coeffs)
    row += [zero] * (n - len(row))
    rows = [row]
    for _ in range(n - 1):
        top, row = row[-1], [zero] + row[:-1]
        if not top.is_zero():
            row = [a - top * c for a, c in zip(row, g.coeffs)]
        rows.append(row)
    sign, prev = 1, None
    for k in range(n):
        pivot = next((r for r in range(k, n) if not rows[r][k].is_zero()), None)
        if pivot is None:
            return zero
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            for j in range(k + 1, n):
                x = ri[j] * pk[k] - ri[k] * pk[j]
                ri[j] = x / prev if k else x  # step 0's divisor is the empty minor, 1
        prev = pk[k]
    return prev if sign > 0 else -prev

"""Dense polynomials: expansions, derivatives, monicity, resultants."""
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from lemmas import from_ints, schoolbook_divmod, to_poly
from valkit import kahler, poly, truncation
from valkit.cli import parse_config_dict, render_structured, run
from valkit.errors import NonMonicBaseError, ValueNotRepresentableError
from valkit.fields import Backend, HahnElem
from valkit.poly import Poly, QExpansion, derivative, q_expand, resultant

B2 = Backend("padic", 2)
H2 = Backend("hahn", 2)


def hahn(p, *terms):
    return HahnElem.make({Fraction(e): c for e, c in terms}, p)


class TestQExpand:
    def test_base_x(self):
        f = from_ints(B2, [2, 1, 1])  # x^2 + x + 2
        exp = q_expand(f, Poly.x(B2))
        assert [c.coeff(0).value for c in exp.coeffs] == [2, 1, 1]

    def test_identity_case(self):
        q = from_ints(B2, [3, 1])
        exp = q_expand(q, q)
        assert exp.coeffs[0].is_zero()
        assert exp.coeffs[1].coeff(0).value == 1

    def test_artin_schreier_shifted_base(self):
        # f = x^2 - x - t^-1 over F_2((t^Q)); base x - s with s = t^(-1/2)
        # (the first iterated square root of t^-1):
        # f = (x-s)^2 + (x-s) + f(s) with f(s) = s^2 + s + t^-1 = t^(-1/2).
        a = hahn(2, ("-1", 1))
        s = hahn(2, ("-1/2", 1))
        f = Poly.make(H2, [-a, -H2.one(), H2.one()])
        q = Poly.make(H2, [-s, H2.one()])
        exp = q_expand(f, q)
        assert exp.coeffs[0] == Poly.make(H2, [hahn(2, ("-1/2", 1))])
        assert exp.coeffs[1] == Poly.make(H2, [H2.one()])
        assert exp.coeffs[2] == Poly.make(H2, [H2.one()])
        assert to_poly(exp) == f

    def test_non_monic_base_rejected(self):
        f = from_ints(B2, [1, 1])
        with pytest.raises(NonMonicBaseError):
            q_expand(f, from_ints(B2, [0, 2]))


class TestDerivative:
    def test_char_p_cancellation(self):
        # x^p - x - a in characteristic p differentiates to -1
        a = hahn(2, ("-1", 1))
        g = Poly.make(H2, [-a, -H2.one(), H2.one()])
        d = derivative(g)
        assert d == Poly.make(H2, [H2.one()])  # -1 == 1 in F_2

        H3 = Backend("hahn", 3)
        a3 = hahn(3, ("-1", 1))
        g3 = Poly.make(H3, [-a3, -H3.one(), H3.zero(), H3.one()])
        assert derivative(g3) == Poly.make(H3, [H3.from_int(-1)])

    def test_char_zero_keeps_p(self):
        # x^2 - a over the 2-adics differentiates to 2x
        g = from_ints(B2, [-3, 0, 1])
        assert derivative(g) == from_ints(B2, [0, 2])

    def test_constant(self):
        assert derivative(from_ints(B2, [7])).is_zero()


coeffs = st.lists(st.integers(-9, 9), min_size=0, max_size=5)


@st.composite
def poly_and_monic_base(draw, max_base_degree):
    """(f, q) over the 2-adics (small integers) or over Hahn series with
    fractional exponents (p in {2, 3}); q is monic of degree >= 1."""
    if draw(st.booleans()):
        f = from_ints(B2, draw(coeffs))
        lower = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=max_base_degree))
        return f, from_ints(B2, lower + [1])
    p = draw(st.sampled_from([2, 3]))
    backend = Backend("hahn", p)
    term = st.tuples(st.fractions(-3, 3, max_denominator=4), st.integers(1, p - 1))
    elem = st.lists(term, max_size=2).map(lambda ts: HahnElem.make(dict(ts), p))
    f = Poly.make(backend, draw(st.lists(elem, max_size=5)))
    lower = draw(st.lists(elem, min_size=1, max_size=max_base_degree))
    return f, Poly.make(backend, lower + [backend.one()])


class TestQMonic:
    def test_monic_quadratic_over_linear(self):
        f = from_ints(B2, [2, 1, 1])
        assert q_expand(f, from_ints(B2, [-1, 1])).is_monic()

    def test_non_monic(self):
        f = from_ints(B2, [0, 0, 2])
        assert not q_expand(f, Poly.x(B2)).is_monic()

    @given(poly_and_monic_base(max_base_degree=1))
    def test_monic_over_any_linear_base(self, case):
        f, q = case
        monic = Poly.make(f.backend, [*f.coeffs, f.backend.one()])
        assert q_expand(monic, q).is_monic()


class TestAlgebraProperties:
    @given(poly_and_monic_base(max_base_degree=2))
    def test_reconstruction(self, case):
        f, q = case
        exp = q_expand(f, q)
        assert to_poly(exp) == f
        assert all(c.degree < q.degree for c in exp.coeffs)

    @given(coeffs, coeffs)
    def test_leibniz(self, fc, gc):
        f, g = from_ints(B2, fc), from_ints(B2, gc)
        assert derivative(f * g) == derivative(f) * g + f * derivative(g)

    @given(coeffs, coeffs, st.integers(-5, 5))
    def test_derivative_linear(self, fc, gc, k):
        f, g = from_ints(B2, fc), from_ints(B2, gc)
        scale = Poly.make(B2, [B2.from_int(k)])
        assert derivative(f + g * scale) == derivative(f) + derivative(g) * scale

    @given(coeffs, st.integers(0, 3))
    def test_power_is_repeated_product(self, fc, k):
        f = from_ints(B2, fc)
        one = Poly.make(B2, [B2.one()])
        assert f ** 0 == one
        product = one
        for _ in range(k):
            product = product * f
        assert f ** k == product

    @given(poly_and_monic_base(max_base_degree=3))
    def test_divmod_identity(self, case):
        f, q = case
        quot, rem = f.divmod_monic(q)
        assert quot * q + rem == f
        assert rem.degree < q.degree


def sylvester(g, f):
    """The Sylvester matrix of g and f: deg f rows of g, then deg g rows of f."""
    n, m = g.degree, f.degree
    zero = g.backend.zero()
    rows = []
    for a, count in ((g, m), (f, n)):
        for i in range(count):
            row = [zero] * (m + n)
            for j, c in enumerate(reversed(a.coeffs)):
                row[i + j] = c
            rows.append(row)
    return rows


def leibniz_det(rows, one):
    """Sum over permutations of the signed products; no division."""
    total = one - one
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def former_resultant(f, g):
    """Sylvester resultant res(f, g) by Gaussian elimination over the field.

    A copy of the elimination `poly.resultant` used before it became a
    fraction-free determinant; Hahn inputs may fail on an inexact quotient.
    """
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return f.backend.zero()
    if m == 0:
        return f.coeff(0) ** n
    if n == 0:
        return g.coeff(0) ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [f.backend.zero()] * size
        for j in range(m + 1):
            row[i + j] = f.coeff(m - j)
        rows.append(row)
    for i in range(m):
        row = [f.backend.zero()] * size
        for j in range(n + 1):
            row[i + j] = g.coeff(n - j)
        rows.append(row)
    det = f.backend.one()
    sign = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return f.backend.zero()
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        pv = rows[col][col]
        det = det * pv
        for r in range(col + 1, size):
            if rows[r][col].is_zero():
                continue
            factor = rows[r][col] / pv
            rows[r] = [rows[r][k] - factor * rows[col][k] for k in range(size)]
    return det if sign > 0 else -det


@st.composite
def resultant_pairs(draw):
    """Monic g of degree 1-3 and nonzero f of degree <= 2, p-adic or Hahn.

    Coefficients are often zero, so that the elimination meets zero pivots
    and swaps rows.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    backend = Backend(draw(st.sampled_from(["padic", "hahn"])), p)
    if backend.kind == "padic":
        nonzero = st.builds(
            lambda n, d: backend.parse(str(Fraction(n, d))),
            st.integers(-12, 12).filter(bool), st.sampled_from([1, 1, p, 3]),
        )
    else:
        exponent = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, p]))
        nonzero = st.lists(
            st.tuples(exponent, st.integers(1, p - 1)), min_size=1, max_size=3,
            unique_by=lambda t: t[0],
        ).map(lambda ts: HahnElem.make(ts, p))
    elem = st.one_of(st.just(backend.zero()), nonzero)
    g_low = draw(st.lists(elem, min_size=1, max_size=3))
    f_low = draw(st.lists(elem, max_size=2))
    g = Poly.make(backend, g_low + [backend.one()])
    f = Poly.make(backend, f_low + [draw(nonzero)])
    return g, f


class TestResultant:
    def test_resultant_is_product_of_evaluations(self):
        # res(g, f) for monic g = (x-1)(x-3) equals f(1) * f(3)
        g = from_ints(B2, [3, -4, 1])
        f = from_ints(B2, [2, 5, 1])
        expected = f.eval(B2.from_int(1)) * f.eval(B2.from_int(3))
        assert resultant(g, f) == expected

    def test_resultant_with_constant(self):
        g = from_ints(B2, [1, 1, 1])
        c = from_ints(B2, [5])
        assert resultant(g, c).value == Fraction(25)

    def test_resultant_with_zero_and_with_a_multiple_of_g(self):
        g = from_ints(B2, [1, 1, 1])
        assert resultant(g, Poly(B2, ())).is_zero()
        assert resultant(g, g * from_ints(B2, [3, 1])).is_zero()

    def test_non_monic_g_rejected(self):
        with pytest.raises(NonMonicBaseError):
            resultant(from_ints(B2, [1, 2]), from_ints(B2, [1, 1]))
        with pytest.raises(NonMonicBaseError):
            resultant(from_ints(B2, [1, 1, 2]), from_ints(B2, [1, 1]))

    def test_reduced_f_is_not_divided(self, monkeypatch):
        # The oracle reduces f below deg g before it asks for the norm, so
        # the first row needs no division; an unreduced f still gets one.
        calls = []
        divide = Poly.divmod_monic
        monkeypatch.setattr(Poly, "divmod_monic", lambda f, q: calls.append(f) or divide(f, q))
        g = from_ints(B2, [3, -4, 1])
        f = from_ints(B2, [2, 5])
        assert resultant(g, f) == f.eval(B2.from_int(1)) * f.eval(B2.from_int(3))
        assert calls == []
        f2 = from_ints(B2, [2, 5, 1])
        assert resultant(g, f2) == f2.eval(B2.from_int(1)) * f2.eval(B2.from_int(3))
        assert calls == [f2]

    @pytest.mark.parametrize("degree,divisions", [(2, 0), (3, 1), (4, 5)])
    def test_bareiss_divides_from_its_second_step(self, degree, divisions, monkeypatch):
        # Step k divides (n - 1 - k)^2 entries by the previous pivot; step 0's
        # divisor is the empty minor, 1.  For g = x^n - 3 and f = 2x + 1 the
        # norm prod (2 eta + 1) = 1 - 3 (-2)^n is nonzero; a monic linear f
        # would take the Horner norm instead.
        calls = []
        divide = type(B2.one()).__truediv__
        monkeypatch.setattr(type(B2.one()), "__truediv__", lambda a, b: calls.append(b) or divide(a, b))
        g = from_ints(B2, [-3] + [0] * (degree - 1) + [1])
        f = from_ints(B2, [1, 2])
        assert not resultant(g, f).is_zero()
        assert len(calls) == divisions

    @settings(max_examples=300, deadline=None)
    @given(resultant_pairs())
    def test_matches_the_sylvester_determinant(self, pair):
        g, f = pair
        res = resultant(g, f)
        assert res == leibniz_det(sylvester(g, f), g.backend.one())
        try:
            former = former_resultant(g, f)
        except ValueNotRepresentableError:
            return
        assert res == former

    def test_hahn_pair_the_field_elimination_could_not_finish(self):
        # g = x^2 + (1 + t) x + (1 + t^(1/2)) over F_2((t^Q)), f = x: the
        # norm of eta is g(0), but Gaussian elimination divides by a pivot
        # that does not divide the next row exactly.
        g = Poly.make(H2, [hahn(2, (0, 1), ("1/2", 1)), hahn(2, (0, 1), (1, 1)), H2.one()])
        f = Poly.x(H2)
        with pytest.raises(ValueNotRepresentableError):
            former_resultant(g, f)
        assert resultant(g, f) == g.coeff(0)


# ---------------------------------------------------------------------------
# The linear kernels: synthetic division and the Horner norm
# ---------------------------------------------------------------------------


@st.composite
def linear_elements(draw):
    """A backend and a strategy for its elements: p-adic integers, p-adic
    fractions with p in the denominator, or Hahn series with fractional
    exponents."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["integral", "fractional", "hahn"]))
    if kind == "hahn":
        term = st.tuples(st.fractions(-3, 3, max_denominator=4), st.integers(1, p - 1))
        elem = st.lists(term, max_size=3).map(lambda ts: HahnElem.make(dict(ts), p))
        return Backend("hahn", p), elem
    backend = Backend("padic", p)
    denominator = p if kind == "fractional" else 1
    return backend, st.integers(-12, 12).map(
        lambda n: backend.parse(str(Fraction(n, denominator)))
    )


@st.composite
def linear_divisions(draw):
    """(f, x - a) with f of degree -1 to 7; half the time f is a multiple of
    x - a, so that the remainder f(a) is exactly zero."""
    backend, elem = draw(linear_elements())
    a = draw(elem)
    q = Poly.make(backend, [-a, backend.one()])
    f = Poly.make(backend, draw(st.lists(elem, max_size=7)))
    return (f * q if draw(st.booleans()) else f), q


@st.composite
def linear_norms(draw):
    """(g, a, c): monic g of degree 1-4, a point a and a constant c != 0, 1.
    Over Hahn series c is one term, so that c^n divides exactly."""
    backend, elem = draw(linear_elements())
    g = Poly.make(backend, draw(st.lists(elem, min_size=1, max_size=4)) + [backend.one()])
    if backend.kind == "hahn":
        p = backend.p
        term = st.tuples(st.fractions(-2, 2, max_denominator=3), st.integers(1, p - 1))
        c = draw(term.filter(lambda t: t != (0, 1)).map(lambda t: HahnElem.make({t[0]: t[1]}, p)))
    else:
        c = backend.parse(str(draw(st.sampled_from([-1, 2, 3, Fraction(1, 2), Fraction(-3, 5)]))))
    return g, draw(elem), c


class TestLinearKernels:
    @settings(max_examples=300, deadline=None)
    @given(linear_divisions())
    def test_synthetic_division_matches_the_schoolbook(self, case):
        f, q = case
        assert f.divmod_monic(q) == schoolbook_divmod(f, q)

    @settings(max_examples=200, deadline=None)
    @given(linear_divisions())
    def test_slot_i_is_the_ith_taylor_coefficient(self, case):
        # f = sum_i f[i](a) (x - a)^i, f[i] the i-th Hasse derivative; over
        # Hahn series slots from deg f >= p on come from the radix split.
        f, q = case
        a = -q.coeff(0)
        slots = q_expand(f, q).coeffs
        assert len(slots) == max(f.degree + 1, 1)
        for i, slot in enumerate(slots):
            assert slot == Poly.make(f.backend, [truncation._hasse(f, i).eval(a)])

    @settings(max_examples=300, deadline=None)
    @given(linear_norms())
    def test_horner_norm_matches_bareiss(self, case):
        # res(g, c (x - a)) = c^n res(g, x - a); the scaled f is not monic,
        # so the right-hand side is Bareiss's determinant.
        g, a, c = case
        backend = g.backend
        monic = Poly.make(backend, [-a, backend.one()])
        scaled = Poly.make(backend, [-(c * a), c])
        c_n = backend.one()
        for _ in range(g.degree):
            c_n = c_n * c
        assert resultant(g, monic) == resultant(g, scaled) / c_n

    @settings(max_examples=200, deadline=None)
    @given(linear_elements().flatmap(lambda be: st.tuples(st.just(be[0]), st.lists(be[1], max_size=7))))
    def test_division_by_x_is_a_shift(self, case):
        backend, cs = case
        f = Poly.make(backend, cs)
        assert f.divmod_monic(Poly.x(backend)) == schoolbook_divmod(f, Poly.x(backend))

    @pytest.mark.parametrize("backend", [B2, H2])
    def test_division_by_x_multiplies_nothing(self, backend, monkeypatch):
        f = Poly.make(backend, [backend.from_int(n) for n in (3, 0, 1, 1)])
        x = Poly.x(backend)
        calls = []
        mul = type(backend.one()).__mul__
        monkeypatch.setattr(type(backend.one()), "__mul__", lambda a, b: calls.append(b) or mul(a, b))
        quot, rem = f.divmod_monic(x)
        assert calls == []
        assert quot.coeffs == f.coeffs[1:] and rem.coeffs == f.coeffs[:1]


# ---------------------------------------------------------------------------
# The slotted value: stored degree, hash taken once, backend-aware equality
# ---------------------------------------------------------------------------


@st.composite
def element_lists(draw):
    """A backend and a list of its elements, zeros included (possibly trailing)."""
    backend, elem = draw(linear_elements())
    return backend, draw(st.lists(st.one_of(st.just(backend.zero()), elem), max_size=6))


class TestPolyValue:
    @given(element_lists())
    def test_separately_built_equal_polys_agree_as_keys(self, case):
        backend, cs = case
        f = Poly.make(backend, cs)
        # An equal backend that is another object, and rebuilt coefficients.
        g = Poly.make(Backend(backend.kind, backend.p), [c + backend.zero() for c in cs])
        assert f is not g and f == g and not f != g
        assert hash(f) == hash(g) == hash(f)
        assert {f: 1}[g] == 1 and {g: 2}[f] == 2

    @given(element_lists(), st.data())
    def test_equal_coefficients_over_another_backend_differ(self, case, data):
        backend, cs = case
        others = [Backend(k, q) for k in ("padic", "hahn") for q in (2, 3, 5, 7)]
        other = data.draw(st.sampled_from([b for b in others if b != backend]))
        f = Poly.make(backend, cs)
        g = Poly(other, f.coeffs)
        assert f != g and not f == g
        assert len({f, g}) == 2
        with pytest.raises(ValueError):
            f.divmod_monic(Poly.x(other))

    @given(element_lists())
    def test_degree_is_stored(self, case):
        backend, cs = case
        f = Poly.make(backend, cs)
        assert f.degree == len(f.coeffs) - 1
        assert Poly(backend, tuple(cs)).degree == len(cs) - 1
        assert Poly(backend, ()).degree == -1 and Poly(backend, ()).is_zero()

    def test_a_non_polynomial_is_not_equal(self):
        f = Poly.x(B2)
        assert f.__eq__(f.coeffs) is NotImplemented and f != f.coeffs
        assert repr(Poly(B2, ())) == "Poly(backend=Backend(kind='padic', p=2), coeffs=())"
        assert not hasattr(f, "__dict__")


# ---------------------------------------------------------------------------
# Radix conversion at linear Hahn bases, against the repeated division by q
# ---------------------------------------------------------------------------


def repeated_division(f, q):
    """Expansion of f in powers of q by dividing the quotient by q until it is 0."""
    coeffs = []
    rest = f
    while not rest.is_zero():
        rest, rem = rest.divmod_monic(q)
        coeffs.append(rem)
    return QExpansion(q, tuple(coeffs or [Poly(f.backend, ())]))


def p_power_degrees(p, top=30):
    """p^k and p^k - 1 for every p^k <= top."""
    out, power = [], p
    while power <= top:
        out += [power, power - 1]
        power *= p
    return out


@st.composite
def linear_hahn_bases(draw):
    """f of degree 0-30 (often p^k or p^k - 1) and x - c, c of up to 6 terms."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    backend = Backend("hahn", p)
    exponent = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, p]))
    term = st.tuples(exponent, st.integers(1, p - 1))

    def elem(min_terms, max_terms):
        return st.lists(term, min_size=min_terms, max_size=max_terms).map(
            lambda ts: HahnElem.make(dict(ts), p)
        )

    degree = draw(st.one_of(st.integers(0, 30), st.sampled_from(p_power_degrees(p))))
    lower = draw(st.lists(elem(0, 2), min_size=degree, max_size=degree))
    top = draw(elem(1, 2))  # distinct exponents: never zero
    c = draw(elem(0, 6))
    return Poly.make(backend, lower + [top]), Poly.make(backend, [-c, backend.one()])


class TestRadixConversion:
    @settings(max_examples=100, deadline=None)
    @given(linear_hahn_bases())
    def test_matches_repeated_division(self, case):
        f, q = case
        exp = q_expand(f, q)
        assert exp == repeated_division(f, q)
        assert to_poly(exp) == f

    @pytest.mark.parametrize(
        "p, degree", [(p, d) for p in (2, 3, 5, 7) for d in p_power_degrees(p)]
    )
    def test_degrees_at_and_below_powers_of_p(self, p, degree):
        backend = Backend("hahn", p)
        f = Poly.make(backend, [hahn(p, (Fraction(i, p), 1)) for i in range(degree + 1)])
        q = Poly.make(backend, [hahn(p, ("-1/2", 1), (1, p - 1)), backend.one()])
        assert q_expand(f, q) == repeated_division(f, q)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_a_power_of_x_is_a_binomial_in_q(self, p):
        # x^P = (q + a)^P = q^P + a^P: every middle coefficient is zero.
        backend = Backend("hahn", p)
        a = hahn(p, ("-1/3", 1), (2, 1))
        q = Poly.make(backend, [-a, backend.one()])
        for power in (p, p * p):
            f = Poly.make(backend, [backend.zero()] * power + [backend.one()])
            zero = Poly(backend, ())
            expected = [Poly.make(backend, [a**power])] + [zero] * (power - 1)
            assert list(q_expand(f, q).coeffs) == expected + [Poly.make(backend, [backend.one()])]

    @pytest.mark.parametrize("p", [5, 7])
    def test_reports_match_the_repeated_division(self, p, monkeypatch):
        cfg = parse_config_dict({"scenario": "artin-schreier", "p": p, "terms": 16, "va": "-1/2"})
        fast = render_structured(run(cfg))
        calls = []

        def reference(f, q):
            calls.append(q)
            return repeated_division(f, q)

        for module in (poly, truncation, kahler):
            monkeypatch.setattr(module, "q_expand", reference)
        assert render_structured(run(cfg)) == fast
        assert calls

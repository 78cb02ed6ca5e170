"""Randomized property suites with exact assertions.

Each suite draws 200 seeded random instances across the field backends and
the built-in scenarios and checks an algebraic law exactly (rational
equality, never tolerance).  A suite's generator is seeded with
``seed * 1009 + pos`` for its fixed position `pos`, so a seed always draws
the same instances.
"""
import random
from fractions import Fraction

import pytest

from lemmas import (
    NormalizedSequence,
    context,
    derivative_drop,
    expansion_min_value,
    indices_below,
    key_indices,
    least,
    normalized_terms,
    random_schedule_config,
    reconstruct,
    rewrite_in_generators,
    segment_contains,
    uniformizer_power,
)
from valkit.cli import build_stream
from valkit.expansion import full_expansion, i0_set
from valkit.fields import Backend, HahnElem, _padic, valuation
from valkit.groups import (
    CanonicalSegment,
    ClosedForm,
    Diverging,
    GroupElem,
    SegmentRelation,
    Tail,
    canonicalize,
    largest_delta,
    rat1,
    segment_compare,
)
from valkit.kahler import ideal_inclusion_check
from valkit.poly import Poly, derivative

INSTANCES = 200

pytestmark = pytest.mark.parametrize("seed", [0, 1])


def suite_rng(seed: int, pos: int) -> random.Random:
    return random.Random(seed * 1009 + pos)


def random_elem(rng: random.Random, backend: Backend):
    if backend.kind == "padic":
        return _padic(Fraction(rng.randint(-24, 24), rng.randint(1, 24)), backend.p)
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = Fraction(rng.randint(-6, 6), backend.p ** rng.randint(0, 2))
        terms[e] = rng.randint(1, backend.p - 1)
    return HahnElem.make(terms, backend.p)


def random_nonzero_poly(rng: random.Random, backend: Backend, max_deg: int) -> Poly:
    deg = rng.randint(0, max_deg)
    p = Poly.make(backend, [random_elem(rng, backend) for _ in range(deg + 1)])
    return Poly.make(backend, [backend.one()]) if p.is_zero() else p


def random_groupelem(rng: random.Random, nonneg: bool = False) -> GroupElem:
    lo = 0 if nonneg else -12
    return rat1(Fraction(rng.randint(lo, 12), rng.randint(1, 6)))


def random_segment(rng: random.Random) -> CanonicalSegment:
    kind = rng.choice(("closed", "open", "whole", "finite"))
    if kind == "closed":
        return canonicalize([random_groupelem(rng)])
    if kind == "whole":
        return canonicalize([rat1(0)], Tail(Diverging(increasing=False)))
    if kind == "finite":
        return canonicalize([random_groupelem(rng) for _ in range(rng.randint(1, 4))])
    c = random_groupelem(rng, nonneg=True)
    if c.is_zero():
        c = rat1(1)
    return canonicalize((), Tail(ClosedForm(c, random_groupelem(rng), rng.choice((2, 3)))))


def test_truncation_ultrametric_product(seed):
    """Ultrametric and product laws of truncations at scenario keys."""
    rng = suite_rng(seed, 1)
    contexts = [context("as2"), context("as3"), context("hensel")]
    for k in range(INSTANCES):
        ks, nu, _ = contexts[k % len(contexts)]
        q = ks.key_poly(rng.choice(key_indices(ks, 4)))
        f = random_nonzero_poly(rng, ks.g.backend, 3)
        h = random_nonzero_poly(rng, ks.g.backend, 3)
        vf, vh = nu.nu_q(f, q), nu.nu_q(h, q)
        vs = nu.nu_q(f + h, q) if not (f + h).is_zero() else None
        assert vs is None or vs >= min(vf, vh), f"#{k}: ultrametric failed"
        if vf != vh:
            assert vs == min(vf, vh), f"#{k}: ultrametric equality failed on distinct values"
        assert nu.nu_q(f * h, q) == vf + vh, f"#{k}: product law failed at a key polynomial"


def test_truncation_monotonicity(seed):
    """Truncations increase along the key sequence and are bounded by nu."""
    rng = suite_rng(seed, 2)
    contexts = [context("as2"), context("as3"), context("hensel")]
    for k in range(INSTANCES):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = key_indices(ks, 5)
        i, j = sorted(rng.sample(range(len(indices)), 2))
        f = random_nonzero_poly(rng, ks.g.backend, 3)
        vi = nu.nu_q(f, ks.key_poly(indices[i]))
        vj = nu.nu_q(f, ks.key_poly(indices[j]))
        vf = nu.nu(f)
        assert vi <= vj and vj <= vf, f"#{k}: monotonicity failed ({vi}, {vj}, {vf})"


def test_full_expansion_min_value(seed):
    """Full expansions reconstruct f and compute the truncation as a min."""
    rng = suite_rng(seed, 3)
    contexts = [context("as2"), context("as3")]
    for k in range(INSTANCES):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = key_indices(ks, 5)
        i = indices[rng.randint(1, len(indices) - 1)]
        f = random_nonzero_poly(rng, ks.g.backend, 4)
        exp = full_expansion(f, i, ks, nu, indices_below(ks, i))
        truncation = nu.nu_q(f, ks.key_poly(i))
        assert reconstruct(exp, ks) == f, f"#{k}: reconstruction failed"
        assert expansion_min_value(exp, ks, nu) == truncation, f"#{k}: min-value law failed"
        assert all(idx <= i for idx in exp.support()), f"#{k}: support escapes the anchor"
        for term in exp.terms:
            below = sum(e * ks.key_poly(idx).degree for idx, e in term.exponents if idx < i)
            assert below < ks.key_poly(i).degree, f"#{k}: sub-anchor degree bound failed"
        scaled = normalized_terms(exp, NormalizedSequence(ks, nu))
        assert least(valuation(t.coefficient) for t in scaled) == truncation, (
            f"#{k}: normalized min-value law failed"
        )


def test_derivative_lower_bound(seed):
    """The derivative drop dominates the least key drop in the support."""
    rng = suite_rng(seed, 4)
    contexts = [context("as2"), context("as3"), context("hensel")]
    for k in range(INSTANCES):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = key_indices(ks, 5)
        i = indices[rng.randint(1, len(indices) - 1)]
        f = random_nonzero_poly(rng, ks.g.backend, 4)
        if f.degree < 1:
            continue
        support = i0_set(f, i, ks, nu, indices_below(ks, i))
        if not support:
            continue
        bound = min(nu.nu(derivative(q)) - nu.nu(q) for q in map(ks.key_poly, support))
        q_i = ks.key_poly(i)
        fp = derivative(f)
        vi_fp = nu.nu_q(fp, q_i) if not fp.is_zero() else None
        assert vi_fp is None or vi_fp >= nu.nu_q(f, q_i) + bound, (
            f"#{k}: lower bound failed at {i}"
        )


def test_derivative_drop_iff_shift(seed):
    """Drop equality iff a unit slot minimizes, with the shifted slot law."""
    rng = suite_rng(seed, 5)
    contexts = [context("as2"), context("as3")]
    for k in range(INSTANCES):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = key_indices(ks, 4)
        i = indices[rng.randint(0, len(indices) - 1)]
        f = random_nonzero_poly(rng, ks.g.backend, 4)
        if f.degree < 1:
            continue
        # derivative_drop raises LawMismatchError when either law fails.
        assert derivative_drop(f, i, ks, nu).hypothesis_ok, f"#{k}: hypothesis unexpectedly violated"


def test_generator_rewriting(seed):
    """Nonnegative-value polynomials rewrite over O_K with the exact min law."""
    rng = suite_rng(seed, 6)
    contexts = [context("as2"), context("as3"), context("unramified")]
    for k in range(INSTANCES):
        ks, nu, _ = contexts[k % len(contexts)]
        f = random_nonzero_poly(rng, ks.g.backend, ks.g_degree - 1)
        v = nu.nu(f)
        scalar = uniformizer_power(ks.g.backend, Fraction(-v.num, v.den))
        f = f * Poly.make(ks.g.backend, [scalar])  # nu(f) = 0
        # rewrite_in_generators raises when the identity or the min law fails.
        assert rewrite_in_generators(f, NormalizedSequence(ks, nu), nu), (
            f"#{k}: empty rewriting for nonzero f"
        )


def test_final_segment_law(seed):
    """Final segments are upward closed; comparison behaves as containment."""
    rng = suite_rng(seed, 7)
    flip = {
        SegmentRelation.EQUAL: SegmentRelation.EQUAL,
        SegmentRelation.A_CONTAINS_B: SegmentRelation.B_CONTAINS_A,
        SegmentRelation.B_CONTAINS_A: SegmentRelation.A_CONTAINS_B,
    }
    for k in range(INSTANCES):
        segments = [random_segment(rng) for _ in range(3)]
        for seg in segments:
            gamma = random_groupelem(rng)
            step = random_groupelem(rng, nonneg=True)
            assert not segment_contains(seg, gamma) or segment_contains(seg, gamma + step), (
                f"#{k}: upward closure failed"
            )
        a, b, c = segments
        assert segment_compare(b, a) is flip[segment_compare(a, b)], (
            f"#{k}: comparison not antisymmetric"
        )
        if segment_compare(a, b) is segment_compare(b, c) is SegmentRelation.EQUAL:
            assert segment_compare(a, c) is SegmentRelation.EQUAL, f"#{k}: equality not transitive"


def test_near_minimal_translation(seed):
    """A segment without minimum admits near-minimal terms below every epsilon."""
    rng = suite_rng(seed, 8)
    for k in range(INSTANCES):
        p = rng.choice((2, 3, 5))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        d = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        law = ClosedForm(rat1(c), rat1(d), p)
        seg = canonicalize((), Tail(law))
        assert largest_delta(seg) == 0, f"#{k}: nontrivial invariant subgroup in rank 1"
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 7)):
            n0 = next((n for n in range(64) if c / p**n <= eps), None)
            assert n0 is not None, f"#{k}: no near-minimal term below {eps}"
            lam0 = law.term(n0)
            # lam0 - lam < eps for every term lam: sup of lam0 - lam is
            # lam0 - d, never attained, so lam0 - d <= eps suffices.
            assert lam0 - rat1(d) <= rat1(eps), f"#{k}: symbolic bound failed for {eps}"
            for n in range(16):
                assert lam0 - law.term(n) < rat1(eps), f"#{k}: sampled bound failed for {eps}"


def test_beta_inside_alpha(seed):
    """The beta segment embeds into the alpha segment on every scenario."""
    rng = suite_rng(seed, 9)
    for name in ("as2", "as3", "hensel", "unramified"):
        ideal_inclusion_check(context(name)[2])
    for k in range(INSTANCES):
        stream = build_stream(random_schedule_config(rng))
        ideal_inclusion_check(stream)
        rel = segment_compare(stream.beta_segment, stream.alpha_segment)
        assert rel in (SegmentRelation.EQUAL, SegmentRelation.B_CONTAINS_A), (
            f"#{k}: beta escapes alpha ({rel})"
        )

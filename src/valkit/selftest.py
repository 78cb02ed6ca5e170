"""Randomized invariant suites with exact assertions.

Each suite draws seeded random instances across the field backends and the
built-in scenarios and checks an algebraic law exactly (rational equality,
never tolerance).  The suites back `valkit selftest` and the acceptance
tests, which run them at full instance counts.
"""
from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .cli import ScenarioConfig, build_stream, parse_config_dict
from .expansion import (
    derivative_drop,
    full_expansion,
    expansion_min_value,
    i0_set,
    normalized_terms,
    rewrite_in_generators,
)
from .fields import Backend, valuation
from .groups import (
    CanonicalSegment,
    ClosedForm,
    ExtValue,
    GroupElem,
    SegmentRelation,
    Tail,
    canonicalize,
    largest_delta,
    min_value,
    rat1,
    segment_compare,
)
from .kahler import ideal_inclusion_check
from .keyseq import NormalizedSequence
from .poly import Poly, derivative, q_expand


@dataclass
class SuiteResult:
    name: str
    runs: int
    failures: list[str]


# ---------------------------------------------------------------------------
# Shared random generators and scenario contexts
# ---------------------------------------------------------------------------

def _random_elem(rng: random.Random, backend: Backend, allow_zero: bool = True):
    if backend.kind == "padic":
        from .fields import _padic

        num = rng.randint(-24, 24)
        if not allow_zero and num == 0:
            num = 1
        return _padic(Fraction(num, rng.randint(1, 24)), backend.p)
    from .fields import HahnElem

    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, 3)):
        e = Fraction(rng.randint(-6, 6), backend.p ** rng.randint(0, 2))
        terms[e] = rng.randint(1, backend.p - 1)
    if not allow_zero and not terms:
        terms[Fraction(0)] = 1
    return HahnElem.make(terms, backend.p)


def _random_poly(rng, backend, max_deg, allow_zero=True) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [_random_elem(rng, backend) for _ in range(deg + 1)]
    p = Poly.make(backend, coeffs)
    if p.is_zero() and not allow_zero:
        return Poly.constant(backend, backend.one())
    return p


def _random_backend(rng) -> Backend:
    kind = rng.choice(("padic", "hahn"))
    return Backend(kind, rng.choice((2, 3, 5)))


@functools.lru_cache(maxsize=None)
def _context(name: str):
    """(ks, nu, stream) for a built-in scenario context used by the suites."""
    cfgs = {
        "as2": {"scenario": "artin-schreier", "p": 2, "va": "-1"},
        "as3": {"scenario": "artin-schreier", "p": 3, "va": "-1"},
        "hensel": {"scenario": "hensel-immediate", "p": 2, "g": ["2", "1", "1"]},
        "unramified": {"scenario": "unramified", "p": 2, "g": ["1", "1", "1"]},
    }
    cfg = parse_config_dict(cfgs[name])
    stream = build_stream(cfg)
    return stream.ks, stream.nu, stream


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
# Suites
# ---------------------------------------------------------------------------

def suite_q_expansion(rng, instances) -> SuiteResult:
    """Base-q expansions reconstruct exactly with in-bound coefficient degrees."""
    failures = []
    for k in range(instances):
        backend = _random_backend(rng)
        f = _random_poly(rng, backend, 5)
        q_deg = rng.randint(1, 2)
        q = Poly.make(
            backend,
            [_random_elem(rng, backend) for _ in range(q_deg)] + [backend.one()],
        )
        exp = q_expand(f, q)
        if exp.to_poly() != f:
            failures.append(f"#{k}: reconstruction failed for {f} base {q}")
        if any(c.degree >= q.degree for c in exp.coeffs):
            failures.append(f"#{k}: coefficient degree out of bound")
        if not f.is_zero() and f.is_monic() and q.degree == 1 and not exp.is_monic():
            failures.append(f"#{k}: monic f not q-monic over a linear base")
    return SuiteResult("q_expansion_reconstruction", instances, failures)


def suite_truncation_laws(rng, instances) -> SuiteResult:
    """Ultrametric and product laws of truncations at scenario keys."""
    failures = []
    contexts = [_context("as2"), _context("as3"), _context("hensel")]
    for k in range(instances):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = ks.indices(4)
        q = ks.key_poly(rng.choice(indices))
        f = _random_poly(rng, ks.backend, 3, allow_zero=False)
        h = _random_poly(rng, ks.backend, 3, allow_zero=False)
        vf, vh = nu.nu_q(f, q), nu.nu_q(h, q)
        vs = nu.nu_q(f + h, q) if not (f + h).is_zero() else ExtValue.infinity()
        if not vs >= min_value([vf, vh]):
            failures.append(f"#{k}: ultrametric failed")
        if vf != vh and vs != min_value([vf, vh]):
            failures.append(f"#{k}: ultrametric equality failed on distinct values")
        if nu.nu_q(f * h, q) != vf + vh:
            failures.append(f"#{k}: product law failed at a key polynomial")
    return SuiteResult("truncation_ultrametric_product", instances, failures)


def suite_truncation_monotonicity(rng, instances) -> SuiteResult:
    """Truncations increase along the key sequence and are bounded by nu."""
    failures = []
    contexts = [_context("as2"), _context("as3"), _context("hensel")]
    for k in range(instances):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = ks.indices(5)
        i, j = sorted(rng.sample(range(len(indices)), 2))
        f = _random_poly(rng, ks.backend, 3, allow_zero=False)
        vi = nu.nu_q(f, ks.key_poly(indices[i]))
        vj = nu.nu_q(f, ks.key_poly(indices[j]))
        vf = nu.nu(f)
        if not (vi <= vj and vj <= vf):
            failures.append(f"#{k}: monotonicity failed ({vi}, {vj}, {vf})")
    return SuiteResult("truncation_monotonicity", instances, failures)


def suite_full_expansion(rng, instances) -> SuiteResult:
    """Full expansions reconstruct f and compute the truncation as a min."""
    failures = []
    contexts = [_context("as2"), _context("as3")]
    for k in range(instances):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = ks.indices(5)
        i = indices[rng.randint(1, len(indices) - 1)]
        f = _random_poly(rng, ks.backend, 4, allow_zero=False)
        exp = full_expansion(f, i, ks, nu)
        if exp.reconstruct(ks) != f:
            failures.append(f"#{k}: reconstruction failed")
            continue
        if expansion_min_value(exp, ks, nu) != nu.nu_q(f, ks.key_poly(i)):
            failures.append(f"#{k}: min-value law failed")
        if any(idx > i for idx in exp.support()):
            failures.append(f"#{k}: support escapes the anchor")
        # Degree bound below the anchor, and the normalized min-value law.
        for term in exp.terms:
            below = [(idx, e) for idx, e in term.exponents if idx < i]
            if sum(e * ks.key_poly(idx).degree for idx, e in below) >= ks.key_poly(i).degree:
                failures.append(f"#{k}: sub-anchor degree bound failed")
        scaled = normalized_terms(exp, NormalizedSequence(ks, nu))
        if min_value(valuation(t.coefficient) for t in scaled) != nu.nu_q(f, ks.key_poly(i)):
            failures.append(f"#{k}: normalized min-value law failed")
    return SuiteResult("full_expansion_min_value", instances, failures)


def suite_lower_bound(rng, instances) -> SuiteResult:
    """The derivative drop dominates the least key drop in the support."""
    failures = []
    contexts = [_context("as2"), _context("as3"), _context("hensel")]
    for k in range(instances):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = ks.indices(5)
        i = indices[rng.randint(1, len(indices) - 1)]
        f = _random_poly(rng, ks.backend, 4, allow_zero=False)
        if f.degree < 1:
            continue
        support = i0_set(f, i, ks, nu)
        if not support:
            continue
        alphas = []
        for idx in support:
            q = ks.key_poly(idx)
            alphas.append((nu.nu(derivative(q)) - nu.nu(q)).expect_finite())
        bound = min(alphas)
        q_i = ks.key_poly(i)
        fp = derivative(f)
        vi_f = nu.nu_q(f, q_i)
        vi_fp = nu.nu_q(fp, q_i) if not fp.is_zero() else ExtValue.infinity()
        if not vi_fp >= vi_f + bound:
            failures.append(f"#{k}: lower bound failed at {i}")
    return SuiteResult("derivative_lower_bound", instances, failures)


def suite_derivative_drop(rng, instances) -> SuiteResult:
    """Drop equality iff a unit slot minimizes, with the shifted slot law."""
    failures = []
    contexts = [_context("as2"), _context("as3")]
    for k in range(instances):
        ks, nu, _ = contexts[k % len(contexts)]
        indices = ks.indices(4)
        i = indices[rng.randint(0, len(indices) - 1)]
        f = _random_poly(rng, ks.backend, 4, allow_zero=False)
        if f.degree < 1:
            continue
        try:
            result = derivative_drop(f, i, ks, nu)
        except Exception as exc:  # noqa: BLE001 - report any violation
            failures.append(f"#{k}: {type(exc).__name__}: {exc}")
            continue
        if not result.hypothesis_ok:
            failures.append(f"#{k}: hypothesis unexpectedly violated")
    return SuiteResult("derivative_drop_iff_shift", instances, failures)


def suite_rewrite(rng, instances) -> SuiteResult:
    """Nonnegative-value polynomials rewrite over O_K with the exact min law."""
    failures = []
    contexts = [_context("as2"), _context("as3"), _context("unramified")]
    for k in range(instances):
        ks, nu, _ = contexts[k % len(contexts)]
        f = _random_poly(rng, ks.backend, ks.g_degree - 1, allow_zero=False)
        vf = nu.nu(f)
        shift = ks.backend.element_from_value(-vf.expect_finite())
        f = f.scale(shift)  # nu(f) = 0 now
        normalized = NormalizedSequence(ks, nu)
        try:
            terms = rewrite_in_generators(f, normalized, nu)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"#{k}: {type(exc).__name__}: {exc}")
            continue
        if not terms:
            failures.append(f"#{k}: empty rewriting for nonzero f")
    return SuiteResult("generator_rewriting", instances, failures)


def suite_segment_law(rng, instances) -> SuiteResult:
    """Final segments are upward closed; comparison behaves as containment."""
    failures = []
    for k in range(instances):
        segments = [_random_segment(rng) for _ in range(3)]
        for seg in segments:
            gamma = _random_groupelem(rng)
            step = _random_groupelem(rng, nonneg=True)
            if seg.contains(gamma) and not seg.contains(gamma + step):
                failures.append(f"#{k}: upward closure failed")
        a, b, c = segments
        rel_ab, rel_ba = segment_compare(a, b), segment_compare(b, a)
        flip = {
            SegmentRelation.EQUAL: SegmentRelation.EQUAL,
            SegmentRelation.A_CONTAINS_B: SegmentRelation.B_CONTAINS_A,
            SegmentRelation.B_CONTAINS_A: SegmentRelation.A_CONTAINS_B,
        }
        if rel_ba is not flip[rel_ab]:
            failures.append(f"#{k}: comparison not antisymmetric")
        if (
            segment_compare(a, b) is SegmentRelation.EQUAL
            and segment_compare(b, c) is SegmentRelation.EQUAL
            and segment_compare(a, c) is not SegmentRelation.EQUAL
        ):
            failures.append(f"#{k}: equality not transitive")
    return SuiteResult("final_segment_law", instances, failures)


def suite_translation_lemma(rng, instances) -> SuiteResult:
    """A segment without minimum admits near-minimal terms below every epsilon."""
    failures = []
    epsilons = (Fraction(1), Fraction(1, 2), Fraction(1, 7))
    for k in range(instances):
        p = rng.choice((2, 3, 5))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        d = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        law = ClosedForm(rat1(c), rat1(d), p)
        seg = canonicalize((), Tail(law))
        if largest_delta(seg) != 0:
            failures.append(f"#{k}: nontrivial invariant subgroup in rank 1")
        for eps in epsilons:
            lam0 = None
            for n in range(64):
                if c / p**n <= eps:
                    lam0 = law.term(n)
                    break
            if lam0 is None:
                failures.append(f"#{k}: no near-minimal term below {eps}")
                continue
            # lam0 - lam < eps for every term lam: sup of lam0 - lam is
            # lam0 - d, never attained, so lam0 - d <= eps suffices.
            if not lam0 - rat1(d) <= rat1(eps):
                failures.append(f"#{k}: symbolic bound failed for {eps}")
            for n in range(16):
                if not lam0 - law.term(n) < rat1(eps):
                    failures.append(f"#{k}: sampled bound failed for {eps}")
                    break
    return SuiteResult("near_minimal_translation", instances, failures)


def suite_beta_inclusion(rng, instances) -> SuiteResult:
    """The beta segment embeds into the alpha segment on every scenario."""
    failures = []
    streams = [_context(name)[2] for name in ("as2", "as3", "hensel", "unramified")]
    for stream in streams:
        try:
            ideal_inclusion_check(stream)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"builtin: {type(exc).__name__}: {exc}")
    for k in range(instances):
        cfg = random_schedule_config(rng)
        stream = build_stream(cfg)
        try:
            ideal_inclusion_check(stream)
        except Exception as exc:  # noqa: BLE001
            failures.append(f"#{k}: {type(exc).__name__}: {exc}")
            continue
        rel = segment_compare(stream.beta_segment, stream.alpha_segment)
        if rel not in (SegmentRelation.EQUAL, SegmentRelation.B_CONTAINS_A):
            failures.append(f"#{k}: beta escapes alpha ({rel})")
    return SuiteResult("beta_inside_alpha", instances, failures)


def _random_groupelem(rng, nonneg=False) -> GroupElem:
    lo = 0 if nonneg else -12
    return rat1(Fraction(rng.randint(lo, 12), rng.randint(1, 6)))


def _random_segment(rng) -> CanonicalSegment:
    kind = rng.choice(("closed", "open", "whole", "finite"))
    if kind == "closed":
        return canonicalize([_random_groupelem(rng)])
    if kind == "whole":
        return CanonicalSegment("whole")
    if kind == "finite":
        return canonicalize([_random_groupelem(rng) for _ in range(rng.randint(1, 4))])
    c = _random_groupelem(rng, nonneg=True)
    if c.is_zero():
        c = rat1(1)
    return canonicalize((), Tail(ClosedForm(c, _random_groupelem(rng), rng.choice((2, 3)))))


SUITES = (
    suite_q_expansion,
    suite_truncation_laws,
    suite_truncation_monotonicity,
    suite_full_expansion,
    suite_lower_bound,
    suite_derivative_drop,
    suite_rewrite,
    suite_segment_law,
    suite_translation_lemma,
    suite_beta_inclusion,
)


def run_selftest(seed: int = 0, instances: int = 200) -> list[SuiteResult]:
    """Run every suite with a per-suite deterministic seed."""
    results = []
    for pos, suite in enumerate(SUITES):
        rng = random.Random(seed * 1009 + pos)
        results.append(suite(rng, instances))
    return results

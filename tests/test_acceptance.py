"""Acceptance suite: one test per criterion, one printed line each.

Every assertion is exact (rational equality, zero tolerance).  Golden data
for the finite cases comes from the independent oracles implemented at the
bottom of this file: plain-integer digit lifting and norm arithmetic that
share no code with the library paths they check.
"""
import concurrent.futures
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from valkit.cli import parse_config_dict, render_structured, run, build_stream
from valkit.errors import HypothesisViolatedError
from valkit.groups import CanonicalSegment, rat1
from valkit.kahler import (
    VerdictKind,
    b_set,
    classify,
    omega_verdict,
)
import test_properties as properties
from lemmas import random_schedule_config


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}", flush=True)
        raise
    print(f"PASS criterion {num}: {desc}", flush=True)


def stream_for(data):
    return build_stream(parse_config_dict(data))


# ---------------------------------------------------------------------------
# 1. Artin-Schreier reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_artin_schreier_reproduction():
    with criterion(1, "Artin-Schreier invariants from exact Hahn evaluation, p in {2,3}, n <= 8"):
        t0 = time.monotonic()
        va = Fraction(-1)
        for p in (2, 3):
            stream = stream_for({"scenario": "artin-schreier", "p": p, "va": "-1", "terms": 8})
            assert len(stream.records) == 8
            for n, rec in enumerate(stream.records, start=1):
                assert rec.alpha == rat1(-va / p**n)
                assert rec.beta == rat1(-va / p ** (n - 1))
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Artin-Schreier verdict through all three criteria
# ---------------------------------------------------------------------------

def test_criterion_2_artin_schreier_verdict():
    with criterion(2, "Artin-Schreier: omega zero by segments, case (ii) wlim branch 2, slot 1 in B_1"):
        for p in (2, 3):
            stream = stream_for({"scenario": "artin-schreier", "p": p, "va": "-1"})
            v_seg = omega_verdict(stream)
            v_cls = classify(stream)
            assert v_seg.kind is VerdictKind.OMEGA_ZERO
            assert v_cls.kind is VerdictKind.OMEGA_ZERO and v_cls.case == "ii"
            assert v_cls.witness["delta_suffix_len"] == 0
            assert v_cls.witness["wlim_branch"] == 2
            assert b_set(stream).b1 is True


# ---------------------------------------------------------------------------
# 3. Kummer threshold
# ---------------------------------------------------------------------------

def test_criterion_3_kummer_threshold():
    with criterion(3, "Kummer schedules: vanishing exactly at gamma = v(p)/(p-1), p in {2,3,5}"):
        for p in (2, 3, 5):
            vp = Fraction(1)
            at = stream_for({"scenario": "kummer-schedule", "p": p, "vp": "1"})
            assert omega_verdict(at).kind is VerdictKind.OMEGA_ZERO
            assert classify(at).kind is VerdictKind.OMEGA_ZERO
            assert b_set(at).b1 is True

            below_gamma = vp / (p - 1) - Fraction(1, 7)
            below = stream_for(
                {"scenario": "kummer-schedule", "p": p, "vp": "1", "gamma": str(below_gamma)}
            )
            assert omega_verdict(below).kind is VerdictKind.OMEGA_NONZERO
            assert classify(below).kind is VerdictKind.OMEGA_NONZERO
            assert b_set(below).b1 is False


# ---------------------------------------------------------------------------
# 4. Finite cases against independently computed golden data
# ---------------------------------------------------------------------------

def test_criterion_4_finite_cases_against_golden():
    with criterion(4, "unramified case (i) and immediate Hensel case (ii) match the brute-force oracle"):
        # -- unramified x^2 + x + 1 over the 2-adics ------------------------
        golden_alpha = _golden_unramified_alpha()
        assert golden_alpha == Fraction(0)
        stream = stream_for({"scenario": "unramified"})
        (rec,) = stream.records
        assert rec.alpha == rec.beta == rec.beta_tilde == rat1(golden_alpha)
        v_cls = classify(stream)
        assert v_cls.kind is VerdictKind.OMEGA_ZERO and v_cls.case == "i"
        assert v_cls.witness["min_alpha"] == "0/1"
        assert v_cls.witness["beta_tilde_i"] == "0/1"
        assert omega_verdict(stream).kind is VerdictKind.OMEGA_ZERO
        alpha_seg, beta_seg = stream.alpha_segment, stream.beta_segment
        assert alpha_seg == CanonicalSegment("closed", rat1(0)) == beta_seg

        # -- immediate Hensel x^2 + x + 2 over the 2-adics ------------------
        golden = _golden_hensel_family(terms=8)
        assert golden == GOLDEN_HENSEL  # frozen before the build
        stream = stream_for({"scenario": "hensel-immediate", "terms": 8})
        assert [r.nu_key for r in stream.records] == [rat1(v) for _, v in golden]
        assert [r.alpha for r in stream.records] == [rat1(-v) for _, v in golden]
        assert [r.beta for r in stream.records] == [rat1(-v) for _, v in golden]
        alpha_seg, beta_seg = stream.alpha_segment, stream.beta_segment
        assert alpha_seg.kind == "whole" and beta_seg.kind == "whole"
        v_cls = classify(stream)
        assert v_cls.kind is VerdictKind.OMEGA_ZERO and v_cls.case == "ii"
        assert omega_verdict(stream).kind is VerdictKind.OMEGA_ZERO


# Frozen output of _golden_hensel_family(8), computed by the independent
# digit-lifting oracle below and pinned ahead of the pipeline assertions.
GOLDEN_HENSEL = [
    (0, 1),
    (2, 3),
    (10, 4),
    (26, 6),
    (90, 13),
    (8282, 14),
    (24666, 18),
    (286810, 19),
]


# ---------------------------------------------------------------------------
# 5. Property suites
# ---------------------------------------------------------------------------

def test_criterion_5_property_suites():
    # tests/test_properties.py runs each suite at both seeds; this criterion
    # checks the inventory without running the suites a second time.
    with criterion(5, "nine property suites, 200 randomized instances each, at seeds 0 and 1"):
        suites = [name for name in vars(properties) if name.startswith("test_")]
        assert len(suites) == 9 and properties.INSTANCES == 200
        assert properties.pytestmark.args == ("seed", [0, 1])


# ---------------------------------------------------------------------------
# 6. Criterion agreement
# ---------------------------------------------------------------------------

def test_criterion_6_agreement():
    with criterion(6, "segment, classification and slot criteria agree on builtins and 20 random schedules"):
        builtins = [
            {"scenario": "artin-schreier", "p": 2},
            {"scenario": "artin-schreier", "p": 3},
            {"scenario": "kummer-schedule", "p": 2},
            {"scenario": "kummer-schedule", "p": 3},
            {"scenario": "kummer-schedule", "p": 5, "gamma": "1/9"},
            {"scenario": "hensel-immediate"},
            {"scenario": "unramified"},
        ]
        configs = [parse_config_dict(d) for d in builtins]
        rng = random.Random(2024)
        configs += [random_schedule_config(rng) for _ in range(20)]
        decisive_runs = 0
        for cfg in configs:
            stream = build_stream(cfg)
            kinds = {omega_verdict(stream).kind, classify(stream).kind}
            try:
                b1 = b_set(stream).b1
                assert b1 is not None, cfg
                kinds.add(VerdictKind.OMEGA_ZERO if b1 else VerdictKind.OMEGA_NONZERO)
            except HypothesisViolatedError:
                pass
            # never a contradictory decisive pair
            assert not (
                VerdictKind.OMEGA_ZERO in kinds and VerdictKind.OMEGA_NONZERO in kinds
            ), cfg
            if VerdictKind.INCONCLUSIVE not in kinds:
                decisive_runs += 1
                assert len(kinds) == 1
        assert decisive_runs == len(configs)  # these scenarios all decide


# ---------------------------------------------------------------------------
# 7. Determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism():
    with criterion(7, "byte-identical structured reports across runs and thread counts"):
        datas = [
            {"scenario": "artin-schreier", "p": 2, "format": "structured"},
            {"scenario": "artin-schreier", "p": 3, "format": "structured"},
            {"scenario": "kummer-schedule", "p": 3, "format": "structured"},
            {"scenario": "kummer-schedule", "p": 3, "gamma": "1/3", "format": "structured"},
            {"scenario": "hensel-immediate", "format": "structured"},
            {"scenario": "unramified", "format": "structured"},
        ]
        cfgs = [parse_config_dict(d) for d in datas]
        sequential = [render_structured(run(c)) for c in cfgs]
        repeat = [render_structured(run(c)) for c in cfgs]
        assert sequential == repeat
        for workers in (2, 4):
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                parallel = list(pool.map(lambda c: render_structured(run(c)), cfgs))
            assert parallel == sequential
        assert all(out.encode("utf-8") == out.encode("utf-8") for out in sequential)


# ---------------------------------------------------------------------------
# Independent oracles (no shared code with the library paths they check)
# ---------------------------------------------------------------------------

def _v2(x: Fraction) -> Fraction:
    num, den, k = x.numerator, x.denominator, 0
    assert num != 0
    while num % 2 == 0:
        num //= 2
        k += 1
    while den % 2 == 0:
        den //= 2
        k -= 1
    return Fraction(k)


def _golden_unramified_alpha() -> Fraction:
    """alpha_1 = v(g'(eta)) - v(eta) for g = x^2 + x + 1 via norms.

    For b*eta + c the norm is b**2 - b*c + c**2 and the unramified value is
    half its 2-adic order.
    """

    def value(b, c):
        return _v2(Fraction(b * b - b * c + c * c)) / 2

    return value(2, 1) - value(1, 0)


def _golden_hensel_family(terms: int):
    """Digit lifting for the even root of g = x^2 + x + 2 over the 2-adics.

    Starting from 0, append the unique gaining digit each step; v(g(a)) is
    exactly v(eta - a) because the odd conjugate root contributes nothing.
    Returns (center, value) pairs with strictly increasing values.
    """

    def g(x):
        return x * x + x + 2

    def v2int(x):
        k = 0
        while x % 2 == 0:
            x //= 2
            k += 1
        return k

    out = [(0, v2int(g(0)))]
    while len(out) < terms:
        a, va = out[-1]
        # v(g(a)) = va exactly, so a is not yet the root mod 2**(va+1) and
        # the flipped digit must gain.
        cand = a + 2**va
        vc = v2int(g(cand))
        assert vc > va, "lift lost a digit; oracle broken"
        out.append((cand, vc))
    return out

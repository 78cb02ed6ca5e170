"""Seeded, in-domain scenario configs for the four benchmark workloads.

Nothing here imports valkit: every domain condition is checked in plain
integers and `Fraction`s, and an instance is never dropped after valkit has
seen it.  The same seed gives the same configs.

A workload is a sequence of cycles.  Each cycle holds every cell of the
workload (a `(p, terms, ...)` combination with its share of the cycle) once,
plus the workload's golden configs, in a seeded order; the remaining
parameters are drawn per instance.  Fixed shares keep the cost mix, and so
the percentiles, comparable across seeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("hahn-plateau", "padic-lift", "value-schedule", "explicit-keys")

# Golden configs, keyed by their file name under tests/golden/ (the same
# configs tests/test_golden.py runs).
GOLDENS = {
    "artin_schreier_p2": {"scenario": "artin-schreier", "p": 2, "va": "-1"},
    "artin_schreier_p3": {"scenario": "artin-schreier", "p": 3, "va": "-1"},
    "kummer_p3_threshold": {"scenario": "kummer-schedule", "p": 3, "vp": "1"},
    "kummer_p3_below": {"scenario": "kummer-schedule", "p": 3, "vp": "1", "gamma": "1/3"},
    "hensel_immediate": {"scenario": "hensel-immediate"},
    "unramified": {"scenario": "unramified"},
}

WORKLOAD_GOLDENS = {
    "hahn-plateau": ("artin_schreier_p2", "artin_schreier_p3"),
    "padic-lift": ("hensel_immediate",),
    "value-schedule": ("kummer_p3_threshold", "kummer_p3_below"),
    "explicit-keys": ("unramified",),
}

# (cell, share per cycle).  Artin-Schreier cells stop where one instance
# passes ~1 s (p=5 beyond terms=8, p=3 beyond 16, p=7).  With the two golden
# configs (p=2 and p=3 at terms=8) a cycle holds 15 instances, and the
# shares put p50 in the middle of the (3, 8) instances and p90 in the middle
# of the (3, 16) ones, away from the jumps between cells.
_HAHN_CELLS = (
    ((2, 8), 2), ((2, 12), 2), ((2, 16), 2),
    ((3, 8), 4), ((3, 12), 1), ((3, 16), 1),
    ((5, 8), 1),
)
_PRIMES = (2, 3, 5, 7)
_TERMS = (8, 16, 32)
_PADIC_CELLS = tuple(((p, t), 1) for p in _PRIMES for t in _TERMS)
_SCHEDULE_CELLS = tuple(
    ((p, t, at), 1) for p in _PRIMES for t in _TERMS for at in (True, False)
)
_EXPLICIT_CELLS = tuple(
    ((p, deg, scenario), 1)
    for p in _PRIMES
    for deg in (2, 3)
    for scenario in ("unramified", "custom")
)

# Cycles generated per run; a run loops over them.  Sized so that a
# 20-second run at the current speed does not wrap around.
POOL_CYCLES = {
    "hahn-plateau": 24,
    "padic-lift": 24,
    "value-schedule": 220,
    "explicit-keys": 1000,
}

# Coefficient range for drawn polynomials.
_COEFS = range(-50, 51)
# Redraws spent looking for a config not yet in the pool; small cells (few
# distinct small `va`) then repeat a config instead of looping forever.
_DISTINCT_TRIES = 20


@dataclass(frozen=True)
class Instance:
    """One scenario config (as JSON data) and the golden it must match."""

    config: dict
    golden: str | None = None


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = int(n**0.5)
    while r * r > n:
        r -= 1
    while (r + 1) * (r + 1) <= n:
        r += 1
    return r * r == n


def _eval(coeffs: list[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative(coeffs: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _small_rational(rng: random.Random, num_max: int, den_max: int) -> Fraction:
    return Fraction(rng.randint(1, num_max), rng.randint(1, den_max))


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# --- per-workload draws -----------------------------------------------------

def _hahn(rng: random.Random, cell) -> dict:
    p, terms = cell
    va = -_small_rational(rng, 9, 4)
    return {"scenario": "artin-schreier", "p": p, "terms": terms, "va": _fmt(va)}


def _padic(rng: random.Random, cell) -> dict:
    """Monic integral quadratic with a simple residue root and no rational root."""
    p, terms = cell
    while True:
        c, b = rng.choices(_COEFS, k=2)
        g = [c, b, 1]
        if _is_square(b * b - 4 * c):
            continue
        roots = [
            r for r in range(p)
            if _eval(g, r) % p == 0 and _eval(_derivative(g), r) % p != 0
        ]
        if roots:
            start = rng.choice(roots)
            return {
                "scenario": "hensel-immediate", "p": p, "terms": terms,
                "g": [str(x) for x in g], "start": start,
            }


def _schedule(rng: random.Random, cell) -> dict:
    p, terms, at_threshold = cell
    vp = _small_rational(rng, 12, 4)
    threshold = vp / (p - 1)
    gamma = threshold if at_threshold else threshold - _small_rational(rng, 6, 5)
    return {
        "scenario": "kummer-schedule", "p": p, "terms": terms, "vp": _fmt(vp),
        "gamma": _fmt(gamma), "scale": _fmt(_small_rational(rng, 9, 4)),
    }


def _explicit(rng: random.Random, cell) -> dict:
    """Monic integral g of degree 2-3 with no root mod p (so irreducible mod p)."""
    p, degree, scenario = cell
    while True:
        g = rng.choices(_COEFS, k=degree) + [1]
        if all(_eval(g, r) % p for r in range(p)):
            break
    coeffs = [str(x) for x in g]
    if scenario == "unramified":
        return {"scenario": "unramified", "p": p, "g": coeffs}
    return {
        "scenario": "custom", "p": p, "backend": "padic", "g": coeffs,
        "stages": [{"poly": ["0", "1"]}], "oracle": "resultant",
    }


_DRAW = {
    "hahn-plateau": (_HAHN_CELLS, _hahn),
    "padic-lift": (_PADIC_CELLS, _padic),
    "value-schedule": (_SCHEDULE_CELLS, _schedule),
    "explicit-keys": (_EXPLICIT_CELLS, _explicit),
}


def check_domain(workload: str, config: dict) -> None:
    """Raise ValueError unless `config` lies in the workload's input domain."""
    p = config["p"]
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if workload == "hahn-plateau":
        if not Fraction(config["va"]) < 0:
            raise ValueError("va must be negative")
    elif workload == "padic-lift":
        g = [int(c) for c in config["g"]]
        start = config["start"]
        if len(g) != 3 or g[-1] != 1:
            raise ValueError("g must be a monic quadratic")
        if _eval(g, start) % p or _eval(_derivative(g), start) % p == 0:
            raise ValueError("start is not a simple residue root")
        if _is_square(g[1] ** 2 - 4 * g[0]):
            raise ValueError("g has a rational root")
    elif workload == "value-schedule":
        vp, gamma = Fraction(config["vp"]), Fraction(config["gamma"])
        if not (vp > 0 and Fraction(config["scale"]) > 0 and gamma <= vp / (p - 1)):
            raise ValueError("need vp > 0, scale > 0 and gamma <= vp/(p-1)")
    elif workload == "explicit-keys":
        g = [int(c) for c in config["g"]]
        if not (2 <= len(g) - 1 <= 3 and g[-1] == 1):
            raise ValueError("g must be monic of degree 2 or 3")
        if any(_eval(g, r) % p == 0 for r in range(p)):
            raise ValueError("g has a root mod p")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, count: int | None = None) -> list[Instance]:
    """The first `count` instances (default: the whole pool) for one seed."""
    if workload not in _DRAW:
        raise ValueError(f"unknown workload {workload!r}")
    if count is None:
        count = POOL_CYCLES[workload] * cycle_length(workload)
    cells, draw = _DRAW[workload]
    rng = random.Random(f"{workload}/{seed}")
    out: list[Instance] = []
    seen: set[str] = set()
    while len(out) < count:
        cycle = [
            Instance({**GOLDENS[name], "format": "structured"}, name)
            for name in WORKLOAD_GOLDENS[workload]
        ]
        for cell, share in cells:
            for _ in range(share):
                for _ in range(_DISTINCT_TRIES):
                    config = draw(rng, cell)
                    key = repr(config)
                    if key not in seen:
                        break
                seen.add(key)
                check_domain(workload, config)
                cycle.append(Instance({**config, "format": "structured"}))
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]


def cycle_length(workload: str) -> int:
    cells, _ = _DRAW[workload]
    return sum(share for _, share in cells) + len(WORKLOAD_GOLDENS[workload])

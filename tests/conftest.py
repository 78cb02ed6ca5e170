"""Shared fixtures."""
from collections import Counter
from fractions import Fraction

import pytest

from valkit import expansion, kahler, keyseq, poly, truncation


@pytest.fixture
def expansions(monkeypatch) -> Counter:
    """q_expand calls per (f, q) pair, counted wherever valkit binds the name."""
    pairs = Counter()
    q_expand = poly.q_expand

    def counted(f, q):
        pairs[f, q] += 1
        return q_expand(f, q)

    for module in (poly, truncation, keyseq, kahler, expansion):
        if getattr(module, "q_expand", None) is q_expand:
            monkeypatch.setattr(module, "q_expand", counted)
    return pairs


# Arithmetic and comparison dunders of `Fraction`.
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__",
)


@pytest.fixture
def fraction_ops(monkeypatch) -> Counter:
    """Calls of `Fraction`'s arithmetic and comparison dunders, by name.

    Counting starts empty once a check shows that the wrappers count, so
    that a zero cannot pass vacuously.
    """
    calls = Counter()

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    assert Fraction(1, 2) + Fraction(1, 3) < 1 and calls == Counter(__add__=1, __lt__=1)
    calls.clear()
    return calls

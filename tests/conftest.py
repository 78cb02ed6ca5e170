"""Shared fixtures."""
from collections import Counter

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

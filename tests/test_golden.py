"""Pinned structured reports for the reference scenarios.

Any intentional change to the report schema or to a computed invariant
must regenerate these files; an unintentional byte difference is a
regression.
"""
import pathlib
from collections import Counter

import pytest

from lemmas import check_printed_laws
from valkit import kahler
from valkit.cli import build_stream, parse_config_dict, render_structured, render_text, run

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "artin_schreier_p2": {"scenario": "artin-schreier", "p": 2, "va": "-1", "format": "structured"},
    "artin_schreier_p3": {"scenario": "artin-schreier", "p": 3, "va": "-1", "format": "structured"},
    "kummer_p3_threshold": {"scenario": "kummer-schedule", "p": 3, "vp": "1", "format": "structured"},
    "kummer_p3_below": {
        "scenario": "kummer-schedule",
        "p": 3,
        "vp": "1",
        "gamma": "1/3",
        "format": "structured",
    },
    "hensel_immediate": {"scenario": "hensel-immediate", "format": "structured"},
    "unramified": {"scenario": "unramified", "format": "structured"},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_bytes()
    report = run(parse_config_dict(CASES[name]))
    got = render_structured(report).encode("utf-8")
    assert got == expected
    # every law carries the scenario's own ratio, never a guessed one, and
    # holds on every record the report prints
    for law in report["laws"].values():
        if "ratio" in law:
            assert law["ratio"] == report["scenario"]["p"]
    check_printed_laws(report)


# The alpha and beta segments of each golden, as its text report writes them.
TEXT_SEGMENTS = {
    "artin_schreier_p2": ("(0/1, inf)", "(0/1, inf)"),
    "artin_schreier_p3": ("(0/1, inf)", "(0/1, inf)"),
    "kummer_p3_threshold": ("(-1/2, inf)", "(-1/2, inf)"),
    "kummer_p3_below": ("(-1/3, inf)", "(0/1, inf)"),
    "hensel_immediate": ("whole", "whole"),
    "unramified": ("[0/1, inf)", "[0/1, inf)"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_report_prints_no_python_reprs(name):
    text = render_text(run(parse_config_dict({**CASES[name], "format": "text"})))
    # ASCII prints under any stdout encoding.
    assert text.isascii()
    for repr_only in ("{'", "None", "True", "False"):
        assert repr_only not in text
    alpha, beta = TEXT_SEGMENTS[name]
    lines = text.splitlines()
    assert f"alpha segment: {alpha}" in lines and f"beta segment:  {beta}" in lines


@pytest.mark.parametrize("name", sorted(CASES))
def test_segments_computed_once_per_run(name, monkeypatch):
    # The inclusion check, the criteria and the report share the stream's
    # alpha and beta segments.
    columns = Counter()
    column_segment = kahler.column_segment

    def counted(stream, column):
        columns[column] += 1
        return column_segment(stream, column)

    monkeypatch.setattr(kahler, "column_segment", counted)
    run(parse_config_dict(CASES[name]))
    assert columns["alpha"] == columns["beta"] == 1


def test_schedule_stream_without_fraction_arithmetic(fraction_ops):
    # Key values, slot lines, rows and fits of a value schedule run on the
    # value group's integer pairs; `Fraction` only parses the config.
    cfg = parse_config_dict(CASES["kummer_p3_threshold"])
    fraction_ops.clear()
    stream = build_stream(cfg)
    assert fraction_ops == Counter()
    assert all(tail is not None for tail in stream.plateau.tails.values())


def test_hensel_run_without_fraction_arithmetic(fraction_ops):
    # The lift family builds its centers on integers, and the values of the
    # p-adic run are the value group's integer pairs.
    cfg = parse_config_dict(CASES["hensel_immediate"])
    fraction_ops.clear()
    run(cfg)
    assert fraction_ops == Counter()

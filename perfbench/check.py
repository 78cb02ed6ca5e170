"""Known-answer checks on rendered structured reports.

The expected answers are worked out here, from the config alone, without
valkit:

* every instance is decisive (exit code 0) and its criteria agree;
* `hahn-plateau` (Artin-Schreier, va < 0): all three criteria say
  omega_zero, and record n has alpha = -va/p**n and beta = -va/p**(n-1);
* `padic-lift` (immediate Hensel lift) and `explicit-keys` (unramified,
  one explicit key): omega_zero, and `explicit-keys` falls in case (i) of
  the classification;
* `value-schedule` (Kummer): omega_zero exactly when gamma = vp/(p-1);
* golden configs: the report is byte-identical to tests/golden/<name>.json.
"""
from __future__ import annotations

import json
from fractions import Fraction

# Workloads whose key sequence has a degree-1 plateau, so that the slot
# criterion (b1) applies next to the segment and classification criteria.
_PLATEAU_WORKLOADS = ("hahn-plateau", "padic-lift", "value-schedule")


def expected_verdict(workload: str, config: dict) -> str:
    if workload == "value-schedule":
        threshold = Fraction(config.get("vp", 1)) / (config["p"] - 1)
        at_threshold = Fraction(config.get("gamma", threshold)) == threshold
        return "omega_zero" if at_threshold else "omega_nonzero"
    return "omega_zero"


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def check_report(
    workload: str, config: dict, text: str, golden: bytes | None = None
) -> list[str]:
    """Every way the rendered report `text` differs from the known answer."""
    if golden is not None and text.encode("utf-8") != golden:
        return ["report differs from its golden file"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("exit_code") != 0:
        problems.append(f"exit_code {report.get('exit_code')!r}, status {report.get('status')!r}")
    if report.get("status") != "decisive":
        problems.append(f"status {report.get('status')!r}: {report.get('error')}")
    if report.get("criteria_agree") is not True:
        problems.append("criteria disagree")
    verdicts = report.get("verdicts") or {}
    expected = expected_verdict(workload, config)
    segment = (verdicts.get("segment") or {}).get("kind")
    classification = verdicts.get("classification") or {}
    b1 = verdicts.get("b1") or {}
    got = {"segment": segment, "classification": classification.get("kind")}
    if workload in _PLATEAU_WORKLOADS:
        if not b1.get("applicable"):
            problems.append(f"b1 criterion not applicable: {b1.get('why')}")
        else:
            got["b1"] = {True: "omega_zero", False: "omega_nonzero"}.get(b1.get("b1"))
    for criterion, kind in got.items():
        if kind != expected:
            problems.append(f"{criterion} verdict {kind!r}, expected {expected!r}")
    if workload == "explicit-keys" and classification.get("case") != "i":
        problems.append(f"classification case {classification.get('case')!r}, expected 'i'")
    if workload == "hahn-plateau":
        problems += _check_artin_schreier_records(config, report.get("records") or [])
    return problems


def _check_artin_schreier_records(config: dict, records: list) -> list[str]:
    p, va = config["p"], Fraction(config.get("va", -1))
    terms = config.get("terms", 8)
    if len(records) != terms:
        return [f"{len(records)} records, expected {terms}"]
    problems = []
    for n, rec in enumerate(records, start=1):
        want = {
            "index": f"0.{n}",
            "alpha": _fmt(-va / p**n),
            "beta": _fmt(-va / p ** (n - 1)),
        }
        for key, value in want.items():
            if rec.get(key) != value:
                problems.append(f"record {n}: {key} {rec.get(key)!r}, expected {value!r}")
    return problems

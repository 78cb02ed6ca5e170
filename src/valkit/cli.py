"""Scenario runner, configuration parsing and report emission.

Configurations are JSON objects with exact rational fields; unknown keys
are rejected (exact arithmetic has no tolerance knobs).  Reports come in a
human-readable text form and a structured form: a single self-describing
JSON tree with version field "valkit-report/2" and canonical "num/den"
rationals, byte-identical across runs and thread counts for identical
inputs.  Its bytes are `json.dumps(report, sort_keys=True, indent=2)` plus
a newline (ASCII escapes, no floats); a value of any type but dict (str
keys), list, tuple, str, int, bool or None raises TypeError.  The writer
sorts and escapes a dict's keys once per key tuple and indent, into a
bounded cache of layouts (`_layout`): a value schedule's records share
one, so they reach bytes without re-sorting.

`budget` is the one work bound: a plateau family and a closed-form schedule
stop at it, and the stabilization oracle, which certifies the n-th key at
member n + 1 at the latest, serves at most budget - 1 terms.

Exit codes: 0 for a decisive, agreeing run; 2 for an inconclusive run;
3 for invariant violations or computation failures; 4 for bad configs.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from .errors import (
    ConfigError,
    HypothesisViolatedError,
    InconclusiveError,
    ScenarioDataError,
    ValkitError,
)
from .fields import INTEGER, Backend, HahnElem, parse_hahn
from .groups import ClosedForm, FiniteList, GroupElem, format_rational, largest_delta, rat1
from .kahler import (
    COLUMNS,
    BSetReport,
    InvariantStream,
    VerdictKind,
    b_set,
    classify,
    ideal_inclusion_check,
    invariant_stream,
    omega_verdict,
)
from .keyseq import (
    FAMILY_BUDGET,
    KeySequence,
    KeyStage,
    PlateauFamily,
    ScheduleStage,
    artin_schreier_family,
    artin_schreier_poly,
    hensel_family,
)
from .poly import Poly
from .truncation import NuOracle

REPORT_VERSION = "valkit-report/2"

SCENARIOS = ("artin-schreier", "kummer-schedule", "hensel-immediate", "unramified", "custom")

_COMMON_KEYS = {"scenario", "p", "terms", "budget", "format"}
_ALLOWED_KEYS = {
    "artin-schreier": _COMMON_KEYS | {"va"},
    "kummer-schedule": _COMMON_KEYS | {"vp", "gamma", "scale", "schedule"},
    "hensel-immediate": _COMMON_KEYS | {"g", "start"},
    "unramified": _COMMON_KEYS | {"g"},
    "custom": _COMMON_KEYS | {"backend", "g", "stages", "oracle"},
}
# The backend each built-in plateau family computes over.
_FAMILY_BACKEND = {"hensel_lift": "padic", "artin_schreier": "hahn"}


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    p: int
    terms: int = 8
    budget: int = FAMILY_BUDGET
    fmt: str = "text"
    va: Fraction | None = None
    vp: Fraction | None = None
    gamma: Fraction | None = None
    scale: Fraction | None = None
    schedule: tuple[Fraction, ...] | None = None
    g: tuple[str, ...] | None = None
    start: int | None = None
    backend: str | None = None
    stages: tuple[dict, ...] | None = None
    oracle: str | None = None
    # Set only on the objects `parse_config_dict` returns; `replace` clears it.
    parsed: bool = field(default=False, init=False, compare=False, repr=False)


def _rational(raw, field: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (str, int, Fraction)):
        raise ConfigError("rationals must be exact strings or integers", field)
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not an exact rational: {raw!r} ({exc})", field) from None


def _int_at_least(raw, field: str, least: int) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < least:
        raise ConfigError(f"must be an integer >= {least}", field)
    return raw


def _start(raw, field: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError("start must be an integer", field)
    return raw


# The least composite that passes Miller-Rabin over the first twelve prime
# bases: below it `_is_prime` is exact.
_PRIME_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the first twelve prime bases, exact for n < _PRIME_BOUND."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n <= bases[-1] or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # n passes base b when b^d = 1 or b^(d * 2^r) = -1 for some r < s.
    return all(
        pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s)) for b in bases
    )


def _coefficients(raw, field: str, backend: str, p: int, what="the support polynomial"):
    """A monic polynomial of degree >= 1 once trailing zeros are dropped,
    constant first, every entry checked for its backend."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError("must be a nonempty JSON list of coefficients", field)
    for c in raw:
        if backend == "padic":
            # Plain integer strings, the common case, need no Fraction parse.
            if not (isinstance(c, str) and INTEGER.fullmatch(c)):
                _rational(c, field)
            continue
        try:
            parse_hahn(str(c), p)
        except ValkitError as exc:
            raise ConfigError(str(exc), field) from None
    coeffs = tuple(str(c) for c in raw)
    # A polynomial spelled with a top "1", the common case, needs no parse.
    if coeffs[-1] != "1" or len(coeffs) < 2:
        over = Backend(backend, p)
        poly = Poly.make(over, [over.parse(c) for c in coeffs])
        if poly.degree < 1 or not poly.is_monic():
            raise ConfigError(f"{what} must be monic of degree >= 1", field)
    return coeffs


def _check_stage(st, backend: str, p: int) -> None:
    """A custom stage: exactly one of `poly` or a known `family`.

    A `poly` is a key, monic of degree >= 1.  `start` goes only on a
    hensel_lift stage; an artin_schreier stage reads its data off g.
    """
    if not isinstance(st, dict) or set(st) - {"poly", "family", "start"}:
        raise ConfigError("bad stage entry", "stages")
    family = st.get("family")
    if "poly" in st and "family" in st:
        raise ConfigError("stage takes 'poly' or 'family', not both", "stages")
    if "poly" not in st and not (isinstance(family, str) and family in _FAMILY_BACKEND):
        raise ConfigError("stage needs 'poly' or a known 'family'", "stages")
    if "poly" in st:
        _coefficients(st["poly"], "stages", backend, p, "an explicit key")
    elif backend != _FAMILY_BACKEND[family]:
        raise ConfigError(f"family {family!r} needs backend {_FAMILY_BACKEND[family]!r}", "stages")
    if "start" in st:
        if family != "hensel_lift":
            raise ConfigError("start goes only on a hensel_lift stage", "stages")
        _start(st["start"], "stages")


def parse_config_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    scenario = data.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}", "scenario")
    allowed = _ALLOWED_KEYS[scenario]
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} for scenario {scenario}", key)

    p = _int_at_least(data.get("p", _default_p(scenario)), "p", 2)
    if not (p < _PRIME_BOUND and _is_prime(p)):
        raise ConfigError(f"p must be prime and below {_PRIME_BOUND}", "p")
    # One term cannot tell a law apart from a coincidence.
    cfg = ScenarioConfig(
        scenario=scenario,
        p=p,
        terms=_int_at_least(data.get("terms", ScenarioConfig.terms), "terms", 2),
        budget=_int_at_least(data.get("budget", ScenarioConfig.budget), "budget", 1),
        fmt=data.get("format", ScenarioConfig.fmt),
    )
    if cfg.fmt not in ("text", "structured"):
        raise ConfigError("format must be 'text' or 'structured'", "format")

    if scenario == "artin-schreier":
        va = _rational(data.get("va", "-1"), "va")
        if not va < 0:
            raise ConfigError("va must be negative (approximation regime)", "va")
        cfg = replace(cfg, va=va)
    elif scenario == "kummer-schedule":
        vp = _rational(data.get("vp", "1"), "vp")
        if not vp > 0:
            raise ConfigError("vp must be positive", "vp")
        gamma = _rational(data.get("gamma", vp / (cfg.p - 1)), "gamma")
        scale = _rational(data.get("scale", "1"), "scale")
        if not scale > 0:
            raise ConfigError("scale must be positive", "scale")
        if gamma > vp / (cfg.p - 1):
            raise ConfigError(
                "gamma exceeds vp/(p-1), impossible for a Kummer value schedule",
                "gamma",
            )
        schedule = None
        if "schedule" in data:
            raw = data["schedule"]
            if not isinstance(raw, list) or not raw:
                raise ConfigError("schedule must be a nonempty list", "schedule")
            values = tuple(_rational(x, "schedule") for x in raw)
            if any(not a < b for a, b in zip(values, values[1:])):
                raise ConfigError("schedule values must increase strictly", "schedule")
            schedule = values
        cfg = replace(cfg, vp=vp, gamma=gamma, scale=scale, schedule=schedule)
    elif scenario == "hensel-immediate":
        # x^2 + x + p: the simple residue root 0 at every p, irreducible as 1 - 4p < 0.
        g = _coefficients(data.get("g", [str(p), "1", "1"]), "g", "padic", p)
        cfg = replace(cfg, g=g, start=_start(data.get("start", 0), "start"))
    elif scenario == "unramified":
        cfg = replace(cfg, g=_coefficients(data.get("g", ["1", "1", "1"]), "g", "padic", p))
    else:  # custom
        for required in ("backend", "g", "stages", "oracle"):
            if required not in data:
                raise ConfigError(f"custom scenario requires {required!r}", required)
        if data["backend"] not in ("padic", "hahn"):
            raise ConfigError("custom backend must be 'padic' or 'hahn'", "backend")
        if data["oracle"] not in ("resultant", "stabilization"):
            raise ConfigError("oracle must be 'resultant' or 'stabilization'", "oracle")
        stages = data["stages"]
        if not isinstance(stages, list) or not stages:
            raise ConfigError("stages must be a nonempty list", "stages")
        for st in stages:
            _check_stage(st, data["backend"], p)
        if data["oracle"] == "stabilization" and not any("family" in st for st in stages):
            raise ConfigError("stabilization oracle needs a plateau family", "oracle")
        cfg = replace(
            cfg,
            backend=data["backend"],
            g=_coefficients(data["g"], "g", data["backend"], p),
            stages=tuple(stages),
            oracle=data["oracle"],
        )
    # The certified oracle values the n-th key of its family at member
    # n + 1 at the latest.
    stabilized = scenario in ("artin-schreier", "hensel-immediate") or cfg.oracle == "stabilization"
    if stabilized and cfg.terms > cfg.budget - 1:
        raise ConfigError(
            f"must be at most budget - 1 ({cfg.budget - 1}) for the stabilization oracle",
            "terms",
        )
    object.__setattr__(cfg, "parsed", True)
    return cfg


def parse_config(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply") from None
    return parse_config_dict(data)


def emit_config(cfg: ScenarioConfig) -> dict:
    """Canonical JSON form; parse(emit(cfg)) == cfg."""
    out: dict = {
        "scenario": cfg.scenario,
        "p": cfg.p,
        "terms": cfg.terms,
        "budget": cfg.budget,
        "format": cfg.fmt,
    }
    for name in ("va", "vp", "gamma", "scale"):
        if getattr(cfg, name) is not None:
            out[name] = format_rational(getattr(cfg, name))
    if cfg.schedule is not None:
        out["schedule"] = [format_rational(x) for x in cfg.schedule]
    if cfg.g is not None:
        out["g"] = list(cfg.g)
    if cfg.start is not None:
        out["start"] = cfg.start
    if cfg.backend is not None:
        out["backend"] = cfg.backend
    if cfg.stages is not None:
        out["stages"] = [dict(s) for s in cfg.stages]
    if cfg.oracle is not None:
        out["oracle"] = cfg.oracle
    return out


def _default_p(scenario: str) -> int:
    return {"kummer-schedule": 3}.get(scenario, 2)


# ---------------------------------------------------------------------------
# Scenario construction
# ---------------------------------------------------------------------------

def build_stream(cfg: ScenarioConfig) -> InvariantStream:
    if cfg.scenario == "kummer-schedule":
        ks = KeySequence((_kummer_stage(cfg),), None, cfg.p)
        return invariant_stream(ks, None, cfg.terms)

    backend, g, stages = _field_scenario(cfg)
    # `KeySequence` admits one plateau: it approaches a root of g.
    family = next((st for st in stages if isinstance(st, PlateauFamily)), None)
    if cfg.oracle == "resultant" or family is None:
        nu = NuOracle.from_resultant(g)
    else:
        nu = NuOracle.stabilization(g, family)
    ks = KeySequence(tuple(stages), g, cfg.p)
    return invariant_stream(ks, nu, cfg.terms)


def _field_scenario(cfg: ScenarioConfig) -> tuple[Backend, Poly, list[KeyStage]]:
    """The backend, the support polynomial g and the key stages of a scenario."""
    if cfg.scenario == "artin-schreier":
        backend = Backend("hahn", cfg.p)
        g = artin_schreier_poly(backend, HahnElem.make({cfg.va: 1}, cfg.p))
        return backend, g, [artin_schreier_family(backend, g, budget=cfg.budget)]
    # hensel-immediate and unramified are p-adic; custom names its backend.
    backend = Backend(cfg.backend or "padic", cfg.p)
    g = Poly.make(backend, [backend.parse(c) for c in cfg.g])
    if cfg.scenario == "hensel-immediate":
        return backend, g, [hensel_family(backend, g, cfg.start, budget=cfg.budget)]
    if cfg.scenario == "unramified":
        return backend, g, [Poly.x(backend)]
    return backend, g, [_custom_stage(backend, g, st, cfg.budget) for st in cfg.stages]


def _custom_stage(backend: Backend, g: Poly, st: dict, budget: int) -> KeyStage:
    """One custom stage, as checked by `parse_config_dict`."""
    if "poly" in st:
        return Poly.make(backend, [backend.parse(str(c)) for c in st["poly"]])
    if st["family"] == "artin_schreier":
        return artin_schreier_family(backend, g, budget=budget)
    return hensel_family(backend, g, st.get("start", 0), budget=budget)


def _kummer_stage(cfg: ScenarioConfig) -> ScheduleStage:
    """Value schedule for g = x**p - a with v(a) = 0.

    The key-value law is nu(x - a_n) = gamma - scale * p**-n; the expansion
    slots of g carry v(binom(p, b)) = vp for 0 < b < p and p * key_value at
    the outer slots; those of g' carry vp + b * key_value.
    """
    p = cfg.p
    vp = rat1(cfg.vp)
    zero = GroupElem.zero()
    if cfg.schedule is not None:
        key_values = FiniteList(tuple(rat1(x) for x in cfg.schedule))
    else:
        key_values = ClosedForm(-rat1(cfg.scale), rat1(cfg.gamma), p)
    g_laws = [(zero, p), *((vp, b) for b in range(1, p)), (zero, p)]
    gp_laws = [(vp, b) for b in range(0, p)]
    return ScheduleStage(
        key_values=key_values,
        g_coef_laws=tuple(g_laws),
        gprime_coef_laws=tuple(gp_laws),
        nu_gprime=vp,
        budget=cfg.budget,
    )


# ---------------------------------------------------------------------------
# Running and reporting
# ---------------------------------------------------------------------------

def run(cfg: ScenarioConfig) -> dict:
    """Execute all criteria and assemble the report tree.

    Computation failures and invariant violations raised anywhere in the
    analysis are embedded in the report with a failure status rather than
    escaping; a config the parser would reject, or with a field of the
    wrong type, ends in a config-error report with exit code 4.
    """
    report: dict = {"version": REPORT_VERSION}
    try:
        if not cfg.parsed:
            cfg = _reparsed(cfg)
        report["scenario"] = emit_config(cfg)
        stream = build_stream(cfg)
    except (ValkitError, ZeroDivisionError) as exc:
        code = 4 if isinstance(exc, ConfigError) else 3
        # A config that does not parse is reported with its fields as given.
        report.setdefault("scenario", {k: repr(v) for k, v in vars(cfg).items() if k != "parsed"})
        report.update(status="error", error=f"{type(exc).__name__}: {exc}", exit_code=code)
        return report
    try:
        return _analyze(stream, report)
    except ScenarioDataError as exc:
        report.update(status="violation", error=str(exc), exit_code=3)
        return report
    except (ValkitError, ZeroDivisionError) as exc:
        report.update(status="error", error=f"{type(exc).__name__}: {exc}", exit_code=3)
        return report


def _reparsed(cfg: ScenarioConfig) -> ScenarioConfig:
    """The parsed config equal to a hand-built one; ConfigError if none is."""
    try:
        emitted = emit_config(cfg)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"a field has the wrong type ({exc})") from None
    parsed = parse_config_dict(emitted)
    if parsed != cfg:
        raise ConfigError("fields missing or not in canonical form")
    return parsed


def _analyze(stream: InvariantStream, report: dict) -> dict:
    inclusion_checks = ideal_inclusion_check(stream)

    report["nu_gprime"] = str(stream.nu_gprime)
    report["records"] = [r.describe() for r in stream.records]
    plateau = stream.plateau
    tails = sorted(plateau.tails.items()) if plateau is not None else ()
    report["laws"] = {
        f"stage{plateau.stage_pos}.{name}": (
            tail.describe() if tail is not None else {"kind": "unknown"}
        )
        for name, tail in tails
    }

    alpha_seg = stream.alpha_segment
    report["alpha_segment"] = _segment_payload(alpha_seg)
    report["beta_segment"] = _segment_payload(stream.beta_segment)
    report["delta_suffix_len"] = largest_delta(alpha_seg) if alpha_seg is not None else None

    v_segment = omega_verdict(stream)
    v_classify = classify(stream)
    b_report: BSetReport | None = None
    b_error: str | None = None
    try:
        b_report = b_set(stream)
    except HypothesisViolatedError as exc:
        b_error = str(exc)
    except InconclusiveError as exc:
        b_error = f"inconclusive: {exc}"

    report["verdicts"] = {
        "segment": v_segment.describe(),
        "classification": v_classify.describe(),
        "b1": (
            {"applicable": True, **b_report.describe()}
            if b_report is not None
            else {"applicable": False, "why": b_error}
        ),
    }

    kinds = {v_segment.kind, v_classify.kind}
    if b_report is not None:
        if b_report.b1 is None:
            kinds.add(VerdictKind.INCONCLUSIVE)
        else:
            kinds.add(VerdictKind.OMEGA_ZERO if b_report.b1 else VerdictKind.OMEGA_NONZERO)
    contradictory = {VerdictKind.OMEGA_ZERO, VerdictKind.OMEGA_NONZERO} <= kinds
    decisive = VerdictKind.INCONCLUSIVE not in kinds
    report["criteria_agree"] = not contradictory
    report["inclusion_check"] = list(inclusion_checks)  # each one passed, or it raised
    if contradictory:
        report.update(status="violation", error="decisive criteria contradict", exit_code=3)
    elif decisive:
        report.update(status="decisive", error=None, exit_code=0)
    else:
        report.update(status="inconclusive", error=None, exit_code=2)
    return report


def _segment_payload(seg) -> dict:
    return {"kind": "undecided"} if seg is None else seg.describe()


def render_structured(report: dict) -> str:
    """The structured report; the module docstring gives its bytes."""
    out: list[str] = []
    _write(report, "\n", out)
    return "".join(out) + "\n"


# The four seed-1 benchmark pools hold 27 distinct (key tuple, indent)
# shapes; the bound keeps an unusual caller from growing the cache for good.
_LAYOUTS = 256


@functools.lru_cache(maxsize=_LAYOUTS)
def _layout(keys: tuple, inner: str) -> tuple[tuple[str, str], ...]:
    """The keys of a dict in sorted order, each with the text written before
    its value; a non-str key raises, and a failed build is not cached."""
    for key in keys:
        if type(key) is not str:
            raise TypeError(f"a report key must be a str, not {type(key).__name__}")
    return tuple(
        (key, ("," if n else "{") + inner + _escape(key) + ": ")
        for n, key in enumerate(sorted(keys))
    )


def _write(x, nl: str, out: list) -> None:
    t = type(x)
    if t is str:
        out.append(_escape(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif x is None or t is bool:
        out.append("null" if x is None else "true" if x else "false")
    elif t is dict:
        inner = nl + "  "
        for key, prefix in _layout(tuple(x), inner):
            out.append(prefix)
            value = x[key]
            # A dict's str value, the bulk of a report's records, is written
            # without a call; a list's items all go through `_write`, so its
            # str branch stays in use.
            if type(value) is str:
                out.append(_escape(value))
            else:
                _write(value, inner, out)
        out.append(nl + "}" if x else "{}")
    elif t is list or t is tuple:
        inner = nl + "  "
        sep = "[" + inner
        for item in x:
            out.append(sep)
            sep = "," + inner
            _write(item, inner, out)
        out.append(nl + "]" if x else "[]")
    else:
        raise TypeError(f"a report holds no {t.__name__}")


def render_text(report: dict) -> str:
    lines = [f"valkit report ({report['version']})"]
    cfg = report["scenario"]
    lines.append(f"scenario: {cfg['scenario']}  p={cfg['p']}  terms={cfg['terms']}")
    if report.get("status") in ("error", "violation") and report.get("error"):
        lines.append(f"status: {report['status']}: {report['error']}")
        return "\n".join(lines) + "\n"
    header = ("index", "nu_key", "nu_key'", "alpha", "beta", "beta~", "nu_i(g)", "nu_i(g')")
    rows = [header] + [(r["index"], *(r[c] for c in COLUMNS)) for r in report["records"]]
    widths = [max(len(row[k]) for row in rows) for k in range(len(header))]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for name in ("alpha", "beta"):
        seg = report[f"{name}_segment"]
        bracket = "[" if seg["kind"] == "closed" else "("
        shown = f"{bracket}{seg['point']}, inf)" if "point" in seg else seg["kind"]
        lines.append(f"{name} segment:".ljust(15) + shown)
    lines.append(f"delta suffix length: {str(report['delta_suffix_len']).lower()}")
    verdicts = report["verdicts"]
    lines.append(f"segment verdict: {verdicts['segment']['kind']}")
    cls = verdicts["classification"]
    case = f" case ({cls['case']})" if cls.get("case") else ""
    lines.append(f"classification: {cls['kind']}{case}")
    b1 = verdicts["b1"]
    if b1.get("applicable"):
        lines.append(f"b1 criterion: 1 in B_1 = {str(b1['b1']).lower()}  (B = {b1['b_set']})")
    else:
        lines.append(f"b1 criterion: not applicable ({b1.get('why')})")
    lines.append(f"criteria agree: {str(report['criteria_agree']).lower()}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    return render_structured(report) if fmt == "structured" else render_text(report)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _scenario_config_from_args(args) -> ScenarioConfig:
    data: dict = {"scenario": args.id}
    for key in ("p", "va", "vp", "gamma", "scale", "terms", "budget", "g", "start", "format"):
        value = getattr(args, key)
        if value is not None:
            data[key] = value.split(",") if key == "g" else value
    return parse_config_dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="valkit",
        description="Exact invariants and vanishing criteria for valued-field extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON scenario configuration file")
    p_run.add_argument("config", help="path to the configuration file")

    p_sc = sub.add_parser("scenario", help="run a built-in scenario")
    p_sc.add_argument("id", choices=SCENARIOS)
    p_sc.add_argument("--p", type=int)
    p_sc.add_argument("--va")
    p_sc.add_argument("--vp")
    p_sc.add_argument("--gamma")
    p_sc.add_argument("--scale")
    p_sc.add_argument("--terms", type=int)
    p_sc.add_argument("--budget", type=int)
    p_sc.add_argument("--g", help="comma-separated coefficient list, constant first")
    p_sc.add_argument("--start", type=int)
    p_sc.add_argument("--format", choices=("text", "structured"))

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a malformed command line is a bad config
        return 0 if exc.code == 0 else 4

    try:
        if args.command == "run":
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        else:
            cfg = _scenario_config_from_args(args)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4

    report = run(cfg)
    sys.stdout.write(render(report, cfg.fmt))
    return report["exit_code"]


if __name__ == "__main__":
    raise SystemExit(main())

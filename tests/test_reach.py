"""Every statement of every package function runs below the front door.

`cli.main` and `cli.run` are valkit's only production entry points, so a
statement that none of their runs executes is code that only tests reach.
This module runs a fixed list of front-door invocations under
`sys.settrace`, records every line of the package they execute, and
compares that with the statements of every function the package defines,
read from its syntax tree.  A statement counts when one of its own lines
(those outside its nested statements) carries bytecode, and runs when one
of them executes.  Error handling is exempt: a `raise` statement, and an
`except` clause with its body.  The functions that no run enters are
exactly `UNREACHED`; in every other function the statements left
unexecuted are exactly `ALLOWLIST`'s count for it, with the reason no
input reaches them.
"""
import ast
import contextlib
import io
import json
import pathlib
import sys
from functools import partial

import valkit
from lemmas import REDUCIBLE_WITNESS_CONFIG, WITNESS_CONFIG
from valkit import cli
from valkit.cli import ScenarioConfig, main, parse_config_dict, run

PACKAGE = pathlib.Path(valkit.__file__).resolve().parent

_PINNED = "wrapped by the benchmark's tracer (perfbench/spans.py METHODS)"
UNREACHED = {
    "poly.Poly.__add__": _PINNED,
    "poly.Poly.__sub__": _PINNED,
    "poly.Poly.__neg__": _PINNED,
    "poly.Poly.__mul__": _PINNED,
    "poly.Poly.__pow__": _PINNED,
    "fields.PAdicRational.__pow__": _PINNED,
    "fields.HahnElem.__pow__": _PINNED,
    "fields.PAdicRational.__repr__": "error text: BackendMismatchError prints the operands",
    "groups.GroupElem.__repr__": "assertion and error text",
    "poly.Poly.__repr__": "assertion and error text",
    "groups._mismatch": "raised only when the value API is misused",
}

# Unexecuted statements per entered function: (count, why no input reaches them).
# A plateau's key values increase strictly, so every column a criterion turns
# into a segment (alpha, beta, beta_tilde, the negated nu_i(g)) and every
# slot tail is a law moving with them, or the lift family's divergence.
ALLOWLIST = {
    "fields.PAdicRational.__eq__": (
        1,
        "the protocol's answer to a non-element; the package compares elements "
        "of one backend only",
    ),
    "groups.GroupElem.__eq__": (
        1,
        "the protocol's answer to a non-element; `full_expansion` checks that a "
        "coefficient's value is finite before its witness search, and no run "
        "compares a value with an infinite one",
    ),
    "groups.CanonicalSegment.contains": (
        2,
        "`canonicalize` asks an open segment; a closed or whole cut is asked only "
        "about a constant slot law, which no stage produces",
    ),
    "groups.canonicalize": (
        4,
        "a canonicalized column decreases (a law with c > 0) or diverges "
        "downwards: never a constant or increasing law, never an upward divergence",
    ),
    "kahler._classify_min_case": (
        4,
        "a closed alpha segment needs an explicit last key: a plateau's alpha "
        "segment is open or whole, and a key before it has no larger value; the "
        "plateau before that key is then a family, which states its nu_i(g) "
        "tail, and beta is whole only under the lift certificate, which makes "
        "alpha whole too; and beta_tilde_i is at least the least alpha over the "
        "support of g (the derivative lower bound), so beta_tilde_i = min alpha "
        "puts min alpha in it",
    ),
    "kahler._classify_no_min_case": (
        3,
        "a family's beta_tilde tail regenerates alpha and its nu_i(g') law is the "
        "constant nu(g'); a Kummer schedule's beta_tilde segments, with and "
        "without the prefix, differ at most by a closed prefix minimum, its "
        "nu_i(g') fits where beta_tilde and nu_i(g) do, and at the threshold "
        "nu_i(g') ends at the constant vp = nu(g')",
    ),
    "kahler._wlim_branch": (1, "only for the inconclusive weak limit of _classify_no_min_case"),
    "kahler.cut_contains_eventually": (
        3,
        "every slot tail increases with the key values (c < 0), or diverges "
        "upwards under the lift certificate, whose cut is whole",
    ),
    "poly.Poly.__eq__": (
        1,
        "the protocol's answer to a non-polynomial; memo keys and comparisons "
        "hold polynomials only",
    ),
    "poly.Poly.eval": (
        1,
        "no run evaluates the zero polynomial: the oracle values a zero remainder "
        "as infinite first, and the lift family evaluates g and g'",
    ),
    "poly.resultant": (1, "the oracle reduces f below deg g before it asks"),
}

# The six golden reports, as CI's installed console script runs them.
GOLDEN_ARGV = [
    ["scenario", "artin-schreier", "--p", "2", "--va=-1"],
    ["scenario", "artin-schreier", "--p", "3", "--va=-1"],
    ["scenario", "kummer-schedule", "--p", "3", "--vp", "1"],
    ["scenario", "kummer-schedule", "--p", "3", "--vp", "1", "--gamma", "1/3"],
    ["scenario", "hensel-immediate"],
    ["scenario", "unramified"],
]

# Exit code per command line beyond the goldens.
ARGV = [
    (["--help"], 0),
    (["scenario", "unramified", "--format", "text"], 0),
    (["scenario", "unramified", "--p", "41"], 0),  # a prime past the trial bases
    (["scenario", "unramified", "--p", "318665857834031151167461"], 4),  # composite p
    (["scenario", "unramified", "--g", "0,0,1"], 3),  # a repeated root: infinite value
    (["scenario", "artin-schreier", "--budget", "3", "--terms", "2"], 2),  # oracle budget
    (["scenario", "kummer-schedule", "--gamma", "1/3"], 0),
    # Too small a budget: the fits stop at it, and beta_tilde has no law.
    (["scenario", "kummer-schedule", "--p", "5", "--gamma", "1/8", "--budget", "9"], 2),
    # Inputs outside e = 1 with the key x alone (ROADMAP item 4): a
    # contradiction, two Eisenstein g and an incomplete {x}.  The other
    # invocations reach every statement these do, so rejecting them later
    # leaves the allowlist as it is.
    (["scenario", "unramified", "--p", "3"], 3),
    (["scenario", "unramified", "--p", "2", "--g=-2,0,1"], 0),
    (["scenario", "unramified", "--p", "3", "--g=-3,0,1"], 0),
    (["scenario", "unramified", "--p", "2", "--g=-3,0,1"], 0),
]

_PADIC = {"scenario": "custom", "backend": "padic", "oracle": "resultant"}
_HAHN = {"scenario": "custom", "backend": "hahn", "oracle": "resultant"}

# Exit code per config beyond the command lines: CI's two-family and two Hahn
# resultant configs, a key sequence that searches for a witness, and a
# finite value schedule; then inputs that reach the rest of the parser, the
# field arithmetic and the criteria.
CONFIGS = [
    (
        {
            "scenario": "custom", "backend": "padic", "p": 2, "g": ["2", "1", "1"],
            "stages": [{"family": "hensel_lift"}, {"family": "hensel_lift"}],
            "oracle": "stabilization",
        },
        3,
    ),
    (
        {
            "scenario": "custom", "backend": "hahn", "p": 2,
            "g": ["1+1*t^(1/2)", "1+1*t^(1)", "1"], "stages": [{"poly": ["0", "1"]}],
            "oracle": "resultant",
        },
        0,
    ),
    (WITNESS_CONFIG, 0),
    # A cubic g: the determinant divides only from its second elimination
    # step on, so a quadratic's resultant never divides Hahn series.
    (
        {
            "scenario": "custom", "backend": "hahn", "p": 2,
            "g": ["1+1*t^(1/2)", "1", "0", "1"], "stages": [{"poly": ["0", "1"]}],
            "oracle": "resultant",
        },
        0,
    ),
    ({"scenario": "kummer-schedule", "p": 7, "schedule": ["1/42", "5/42", "1/7"]}, 2),
    # Coefficients 1/2 (a product of fractions that is integral) and a top
    # coefficient spelled 01.
    ({**_PADIC, "p": 3, "g": ["1/2", "1", "1"], "stages": [{"poly": ["1/2", "1"]}]}, 0),
    ({**_PADIC, "p": 2, "g": ["1", "1", "01"], "stages": [{"poly": ["0", "1"]}]}, 0),
    # A lift family from a start, before a quadratic key, and one after x.
    (
        {
            **_PADIC, "p": 3, "g": ["11", "0", "1"], "oracle": "stabilization",
            "stages": [{"family": "hensel_lift", "start": 2}, {"poly": ["-2", "1", "1"]}],
        },
        0,
    ),
    (
        {
            **_PADIC, "p": 2, "g": ["2", "1", "1"], "oracle": "stabilization",
            "stages": [{"poly": ["0", "1"]}, {"family": "hensel_lift"}],
        },
        0,
    ),
    # Custom artin_schreier stages at p = 2 and at p = 3, where sums of
    # equal exponents need not cancel.
    (
        {
            **_HAHN, "p": 2, "g": ["1*t^(-1)", "1", "1"], "oracle": "stabilization",
            "stages": [{"family": "artin_schreier"}],
        },
        0,
    ),
    (
        {
            **_HAHN, "p": 3, "g": ["1*t^(-1)+1*t^(-1/3)", "2", "0", "1"],
            "oracle": "stabilization", "stages": [{"family": "artin_schreier"}],
        },
        0,
    ),
    # A key below the family's first key, of the same degree: the value drops.
    (
        {
            **_HAHN, "p": 2, "g": ["1*t^(-1)", "1", "1"], "oracle": "stabilization",
            "stages": [{"poly": ["1*t^(-1/2)", "1"]}, {"family": "artin_schreier"}],
        },
        3,
    ),
    # CI's contradiction, and a Hahn g whose records break beta >= beta_tilde.
    (
        {
            **_HAHN, "p": 2, "stages": [{"poly": ["0", "1"]}],
            "g": ["1*t^(0)+1*t^(-2)+1*t^(-1)", "1*t^(3/2)+1*t^(-2)", "0", "1"],
        },
        3,
    ),
    (
        {
            **_HAHN, "p": 2, "stages": [{"poly": ["0", "1"]}],
            "g": ["1*t^(-1/2)", "1*t^(-1)+1*t^(-3/2)", "1*t^(-3)+1*t^(-3/2)", "1"],
        },
        3,
    ),
    # A Hahn quartic over x: the radix split by (x + a)^4.
    (
        {**_HAHN, "p": 2, "g": ["1+1*t^(1/2)", "1", "0", "0", "1"], "stages": [{"poly": ["0", "1"]}]},
        0,
    ),
    # g = x^3 + x + 1 is not monic over the key x^2 + 1, and g = x + 1 is its own key.
    ({**_PADIC, "p": 2, "g": ["1", "1", "0", "1"], "stages": [{"poly": ["1", "0", "1"]}]}, 3),
    ({**_PADIC, "p": 2, "g": ["1", "1"], "stages": [{"poly": ["1", "1"]}]}, 3),
    # Quartics over two quadratic keys: beta_tilde above a beta at the last
    # key, beta_tilde off the least alpha, and a reducible g whose linear
    # slot coefficient has an infinite value.
    (
        {
            **_PADIC, "p": 3, "g": ["-5", "8", "0", "5", "1"],
            "stages": [{"poly": ["-1", "1"]}, {"poly": ["4", "6", "1"]}, {"poly": ["8", "4", "1"]}],
        },
        0,
    ),
    (
        {
            **_PADIC, "p": 2, "g": ["8", "-1", "1", "7", "1"],
            "stages": [{"poly": ["0", "1"]}, {"poly": ["6", "2", "1"]}, {"poly": ["6", "-2", "1"]}],
        },
        0,
    ),
    (REDUCIBLE_WITNESS_CONFIG, 3),
    # g = (x + 2)(x^3 + x - 1) mod 5 splits over Q_5, so these keys are no
    # key sequence for it: the search for the witness of a linear slot
    # coefficient passes x + 8, skips a quadratic key and finds none.
    (
        {
            **_PADIC, "p": 5, "g": ["-2", "1", "1", "7", "1"],
            "stages": [{"poly": ["8", "1"]}, {"poly": ["4", "-7", "1"]}, {"poly": ["7", "-1", "1"]}],
        },
        3,
    ),
]

# A config built by hand, not parsed: `cli.run` checks it against the parser.
HAND_BUILT = ScenarioConfig("hensel-immediate", 2, g=("2", "1", "1"), start=0)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _span(node) -> set[int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(first, node.end_lineno + 1))


def _functions(node, prefix: str):
    """(dotted name, node) of every function below `node`, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _SCOPES):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def _statements(stmts, exempt: bool = False):
    """(statement, own lines, exempt) of `stmts` and of the statements nested
    in them; a nested function's or class's body belongs to that scope."""
    for stmt in stmts:
        handled = exempt or isinstance(stmt, (ast.Raise, ast.ExceptHandler))
        nested = [] if isinstance(stmt, _SCOPES) else [
            inner
            for block in ("body", "orelse", "finalbody", "handlers")
            for inner in getattr(stmt, block, [])
        ] + [inner for case in getattr(stmt, "cases", []) for inner in case.body]
        inside = stmt.body if isinstance(stmt, _SCOPES) else nested
        yield stmt, _span(stmt) - set().union(*map(_span, inside)), handled
        yield from _statements(nested, handled)


def _bytecode_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _bytecode_lines(const)
    return lines


def statements() -> dict[str, list[tuple[str, int, set[int], bool]]]:
    """Per dotted function name: (file, first line, own bytecode lines, exempt)
    of each statement that carries bytecode."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        carried = _bytecode_lines(compile(source, str(path), "exec"))
        for name, function in _functions(ast.parse(source), path.stem):
            out[name] = [
                (str(path), stmt.lineno, own & carried, exempt)
                for stmt, own, exempt in _statements(function.body)
                if own & carried
            ]
    return out


def executed(tmp_path: pathlib.Path) -> set[tuple[str, int]]:
    """(file, line) of every package line the invocations execute."""
    config_file = tmp_path / "hensel.json"
    config_file.write_text(json.dumps({"scenario": "hensel-immediate"}), encoding="utf-8")
    seen: set[tuple[str, int]] = set()
    files: dict[str, str | None] = {}

    def line(frame, event, arg):
        if event == "line":
            seen.add((files[frame.f_code.co_filename], frame.f_lineno))
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            resolved = pathlib.Path(name).resolve()
            files[name] = str(resolved) if resolved.parent == PACKAGE else None
        return line if files[name] is not None else None

    calls = [(partial(main, [*argv, "--format", "structured"]), 0) for argv in GOLDEN_ARGV]
    calls += [(partial(main, argv), code) for argv, code in ARGV]
    calls.append((partial(main, ["run", str(config_file)]), 0))
    calls.append((lambda: run(HAND_BUILT)["exit_code"], 0))
    calls += [(lambda d=data: run(parse_config_dict(d))["exit_code"], code) for data, code in CONFIGS]
    # A warm layout cache would leave the writer's layout builds untraced.
    cli._layout.cache_clear()
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [run_one() for run_one, _ in calls]
    finally:
        sys.settrace(previous)
    assert codes == [code for _, code in calls]
    return seen


def unexecuted(tmp_path: pathlib.Path) -> tuple[set[str], dict[str, list[str]]]:
    """The functions no invocation enters, and per entered function the
    unexempt statements it leaves unexecuted, as ``file:line``."""
    seen = executed(tmp_path)
    unentered, missed = set(), {}
    for name, stmts in statements().items():
        ran = [any((path, line) in seen for line in own) for path, _, own, _ in stmts]
        if not any(ran):
            unentered.add(name)
            continue
        left = [f"{pathlib.Path(path).name}:{first}" for (path, first, _, exempt), r
                in zip(stmts, ran) if not (r or exempt)]
        if left:
            missed[name] = left
    return unentered, missed


def test_only_the_allowlists_are_unexecuted(tmp_path):
    unentered, missed = unexecuted(tmp_path)
    assert unentered == set(UNREACHED)
    counts = {name: len(lines) for name, lines in missed.items()}
    assert counts == {name: count for name, (count, _) in ALLOWLIST.items()}, missed


def test_every_allowlist_entry_gives_a_reason():
    for count, reason in ALLOWLIST.values():
        assert count > 0 and reason

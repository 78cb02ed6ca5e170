"""Every function the package defines runs below the front door.

`cli.main` and `cli.run` are valkit's only production entry points, so a
function that none of their runs enters is code that only tests reach.
This module runs a fixed list of front-door invocations under
`sys.setprofile`, records every code object of the package they enter (by
file and first line), and compares that with every function and method
the package defines, read from its compiled code.  What stays unreached
is exactly `UNREACHED`, each entry with its reason.
"""
import contextlib
import inspect
import io
import json
import pathlib
import sys
import types
from functools import partial

import valkit
from lemmas import WITNESS_CONFIG
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
    "groups._mismatch": "raised only when the value API is misused",
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
    (["scenario", "unramified", "--format", "text"], 0),
    (["scenario", "unramified", "--p", "318665857834031151167461"], 4),  # composite p
    (["scenario", "unramified", "--g", "0,0,1"], 3),  # a repeated root: infinite value
    (["scenario", "artin-schreier", "--budget", "3", "--terms", "2"], 2),  # oracle budget
]

# Exit code per config beyond the command lines: CI's two-family and two Hahn
# resultant configs, a key sequence that searches for a witness, and a
# finite value schedule.
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
]

# A config built by hand, not parsed: `cli.run` checks it against the parser.
HAND_BUILT = ScenarioConfig("hensel-immediate", 2, g=("2", "1", "1"), start=0)

_SKIPPED = {"<lambda>", "<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>"}


def _functions(code: types.CodeType, prefix: str):
    """(dotted name, (file, first line)) of every function below `code`.

    Names follow the nesting of code objects, since Python 3.10 has no
    `co_qualname`.  A class body is no function (it lacks CO_OPTIMIZED)
    but names the methods inside it.
    """
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name in _SKIPPED:
            continue
        name = f"{prefix}.{const.co_name}"
        if const.co_flags & inspect.CO_OPTIMIZED:
            yield name, (const.co_filename, const.co_firstlineno)
        yield from _functions(const, name)


def defined() -> dict[tuple[str, int], str]:
    """The dotted name of every package function, by (file, first line)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        out.update((key, name) for name, key in _functions(code, path.stem))
    return out


def reached(tmp_path: pathlib.Path) -> set[tuple[str, int]]:
    """(file, first line) of every package function the invocations enter."""
    config_file = tmp_path / "hensel.json"
    config_file.write_text(json.dumps({"scenario": "hensel-immediate"}), encoding="utf-8")
    seen: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    calls = [(partial(main, [*argv, "--format", "structured"]), 0) for argv in GOLDEN_ARGV]
    calls += [(partial(main, argv), code) for argv, code in ARGV]
    calls.append((partial(main, ["run", str(config_file)]), 0))
    calls.append((lambda: run(HAND_BUILT)["exit_code"], 0))
    calls += [(lambda d=data: run(parse_config_dict(d))["exit_code"], code) for data, code in CONFIGS]
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [call() for call, _ in calls]
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in calls]
    files = {name: str(pathlib.Path(name).resolve()) for name, _ in seen}
    return {(files[name], line) for name, line in seen}


def test_only_the_allowlist_is_unreached(tmp_path):
    seen = reached(tmp_path)
    unreached = {name for key, name in defined().items() if key not in seen}
    assert unreached == set(UNREACHED)

"""Flip each comparison in valkit's modules, one at a time, and list the survivors.

    python tools/mutate.py [MODULE.py ...]

Run from anywhere; the default is every module of src/valkit.  Each mutant
turns one `==`, `!=`, `<`, `<=`, `>` or `>=` into `!=`, `==`, `<=`, `<`,
`>=` or `>` in a copy of the tree and runs the Tier-1 suite there with
`-x`.  A mutant under which the suite still passes is printed as
`module.py:line old -> new`.  No bytecode is written: a flip of the same
length restored within the same second would otherwise let the next run
import the mutant's cached bytecode.  The whole package takes about 20
minutes on two cores, so this stays out of CI.
"""
from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIP = {ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Lt: ("<", "<="),
        ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
TIMEOUT_S = 600  # per mutant; a mutant that hangs counts as killed
MEMORY_BYTES = 3 << 30  # per mutant; running out of it also kills


def mutants(source: bytes):
    """(byte offset, line, old, new) of each comparison operator, in order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if type(op) in FLIP:
                old, new = FLIP[type(op)]
                lo = starts[left.end_lineno - 1] + left.end_col_offset
                at = source.index(old.encode(), lo, starts[right.lineno - 1] + right.col_offset)
                found.append((at, source.count(b"\n", 0, at) + 1, old, new))
    return sorted(found)


def passes(work: Path) -> bool:
    """Whether Tier-1 passes in `work` (`-x`, fresh example database)."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": "src"}
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))

    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S, preexec_fn=limit).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(names: list[str]) -> int:
    names = names or sorted(p.name for p in (ROOT / "src" / "valkit").glob("*.py"))
    unknown = [name for name in names if not (ROOT / "src" / "valkit" / name).is_file()]
    if unknown:
        sys.exit(f"not a module of src/valkit: {' '.join(unknown)}\n{__doc__}")
    with tempfile.TemporaryDirectory(prefix="valkit-mutate-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(".*", "__pycache__", "*.egg-info", "out"))
        if not passes(work):
            print("Tier-1 fails on the unmutated tree", file=sys.stderr)
            return 1
        survivors = total = 0
        for name in names:
            path = work / "src" / "valkit" / name
            source = path.read_bytes()
            for at, line, old, new in mutants(source):
                total += 1
                path.write_bytes(source[:at] + new.encode() + source[at + len(old):])
                if passes(work):
                    survivors += 1
                    print(f"{name}:{line} {old} -> {new}", flush=True)
            path.write_bytes(source)
        print(f"{survivors} of {total} mutants survived", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

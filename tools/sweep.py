"""Line sweep: which ``src/funnel`` statements the tier-1 suite never runs.

    python3 tools/sweep.py --lines                      # print the unrun statements
    python3 tools/sweep.py --lines --out SWEEP.json     # write them, keeping listed reasons
    python3 tools/sweep.py --lines --check SWEEP.json   # fail on an unrun statement not listed

The tier-1 suite runs in this process under ``sys.settrace`` (standard
library only; BLAS is pinned to one thread by ``tests/conftest.py``).  A
statement counts as run when a line event fires on its first line.
Docstrings and ``global`` declarations fire no line event and are left out.
Code that runs only in a child process (``tests/test_threads.py``) is not
seen.

Unrun statements are listed by module and by the text of their first line,
not by line number, so edits elsewhere in a file do not churn the list.  A
text that occurs several times in a module is listed once per unrun copy.
Each entry carries a ``reason`` saying why no tier-1 test reaches it; ``--out``
keeps the reasons of entries already in the file and leaves new ones empty.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "funnel"
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def statements(path: Path) -> dict[int, str]:
    """First line number -> stripped first-line text of every statement that fires a line event."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(id(first))
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docstrings
            and not isinstance(node, (ast.Global, ast.Nonlocal))}


def run_traced() -> tuple[int, dict[str, set[int]]]:
    """Run the tier-1 suite in this process and return its exit code and the lines hit per file."""
    targets = {str(p): set() for p in SRC.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            targets[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in targets else None

    sys.path.insert(0, str(SRC.parent))
    import pytest  # imported here so that nothing from src/funnel loads before tracing starts

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(PYTEST_ARGS, plugins=[])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), targets


def unrun_by_module(hits: dict[str, set[int]]) -> tuple[dict[str, list[str]], int]:
    """Unrun statements' texts per module name, in file order, and the total statement count."""
    unrun, total = {}, 0
    for path in sorted(SRC.glob("*.py")):
        stmts = statements(path)
        total += len(stmts)
        missed = [text for line, text in sorted(stmts.items()) if line not in hits[str(path)]]
        if missed:
            unrun[path.stem] = missed
    return unrun, total


def listed(path: Path) -> dict[str, list[dict]]:
    return json.loads(path.read_text())["unrun"] if path.exists() else {}


def write(path: Path, unrun: dict[str, list[str]], total: int) -> None:
    """Write the listing, carrying over the reason of each entry already in ``path``."""
    reasons = {}
    for module, entries in listed(path).items():
        for entry in entries:
            reasons.setdefault((module, entry["text"]), entry["reason"])
    doc = {"command": "python3 tools/sweep.py --lines --out SWEEP.json",
           "statements": total,
           "unrun_count": sum(len(v) for v in unrun.values()),
           "unrun": {module: [{"text": t, "reason": reasons.get((module, t), "")} for t in texts]
                     for module, texts in unrun.items()}}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def check(path: Path, unrun: dict[str, list[str]]) -> list[str]:
    """Unrun statements ``path`` does not list (counting repeats), as report lines."""
    allowed = {m: Counter(e["text"] for e in entries) for m, entries in listed(path).items()}
    faults = []
    for module, texts in unrun.items():
        extra = Counter(texts) - allowed.get(module, Counter())
        faults += [f"{module}: {text}" for text, n in extra.items() for _ in range(n)]
    stale = []
    for module, counts in allowed.items():
        gone = counts - Counter(unrun.get(module, []))
        stale += [f"{module}: {text}" for text in gone.elements()]
    for line in stale:
        print(f"listed but now run (drop it from {path.name}): {line}")
    return faults


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--lines", dest="mode", action="store_const", const="lines", required=True,
                   help="the mode, the only one so far: list the statements tier-1 never runs")
    p.add_argument("--out", type=Path, help="write the listing as JSON to this file")
    p.add_argument("--check", type=Path, help="fail on an unrun statement this file does not list")
    args = p.parse_args(argv)
    code, hits = run_traced()
    unrun, total = unrun_by_module(hits)
    count = sum(len(v) for v in unrun.values())
    print(f"{count} of {total} statements in src/funnel never ran")
    if code != 0:
        print(f"pytest exited {code}; the listing covers the tests that ran")
    if args.out:
        write(args.out, unrun, total)
    if args.check:
        faults = check(args.check, unrun)
        for line in faults:
            print(f"unrun and not listed in {args.check.name}: {line}")
        return 1 if faults or code != 0 else 0
    if not args.out:
        for module, texts in unrun.items():
            for text in texts:
                print(f"{module}: {text}")
    return 1 if code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())

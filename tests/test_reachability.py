"""Every function in ``src/rauzycert`` is run by the golden corpus, or is
named in ``ALLOWED`` with the reason the CLI never runs it.

The corpus goes through ``cli.main`` under a call-only ``sys.settrace``
tracer: it records the code object of each new frame and returns None, so
no line events are traced.  A function is matched to its code object by
file and first line (the first decorator's line for a decorated one).  New
library code that the CLI never runs fails here, and so does an allowlist
entry whose function is now run or gone.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import rauzycert
from rauzycert import cli
from test_golden import CASES, run_case

PACKAGE = Path(rauzycert.__file__).resolve().parent

ALLOWED = {
    "diagram:RauzyDiagram.vertices": "library view (README), used by the diagram tests",
    "diagram:RauzyDiagram.successor": "perfbench hook: tracing.METHODS patches it",
    "diagram:RauzyDiagram.to_json_dict": "perfbench hook: tracing.METHODS patches it",
    "diagram:AllowedPath.__repr__": "library view: hypothesis prints it in a falsifying example",
    "perm:LabeledPermutation.__str__": "error path: path_matrix's not-allowed message",
    "penner:homology_power_check": "library check of exact matrix arithmetic (acceptance"
    " criterion 8): its identity holds for every input, so no command prints it",
    "linalg:IntMatrix.__pow__": "library operator: homology_power_check and the tests take"
    " matrix powers, no command does",
}


def _functions() -> dict[tuple[str, int], str]:
    """Every function and method of the package, by (file, first line)."""
    found = {}

    def walk(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = "%s:%s%s" % (path.stem, prefix, child.name)
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def _entered() -> set[tuple[str, int]]:
    """(file, first line) of every code object the corpus enters."""
    calls = set()

    def tracer(frame, event, arg):
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cli.build_parser.cache_clear()  # so that the corpus builds the parser again
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv in CASES.values():
            run_case(argv)
    finally:
        sys.settrace(previous)
    return {(os.path.realpath(filename), line) for filename, line in calls}


def test_corpus_runs_every_function_not_allowed():
    functions = _functions()
    entered = _entered()
    never = {name for key, name in functions.items() if key not in entered}
    assert sorted(never - set(ALLOWED)) == [], "never run by the CLI: delete or allowlist"
    assert sorted(set(ALLOWED) - never) == [], "stale allowlist entries"

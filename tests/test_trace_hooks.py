"""The benchmark's outside-in tracer (perfbench/tracing.py) still finds the
functions and methods it patches, leaves stdout unchanged while installed,
and restores every patched object when uninstalled."""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
from pathlib import Path

from rauzycert import cli
from test_golden import CASES, GOLDEN

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import METHODS, MODULES, Tracer  # noqa: E402

TRACED_CASES = (
    "certify_readme",
    "path_readme_allowed",
    "diagram_central_n4_augmented_json",
    "fg_central_n5",
)


def _patchable():
    """Every function bound in a rauzycert module and every traced method,
    by owner and attribute name."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rauzycert":
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj):
                    out[(name, attr)] = obj
    for short, cls_name, attr, _ in METHODS:
        cls = getattr(sys.modules["rauzycert." + short], cls_name)
        out[(cls_name, attr)] = cls.__dict__[attr]
    return out


def _run(argv) -> tuple[int, bytes]:
    """One call of ``cli.main``, looked up on the module, so that the
    tracer's wrapper is the one called."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8")


def test_tracer_keeps_stdout_and_restores():
    assert all("rauzycert." + short in sys.modules for short in MODULES)
    exits = json.loads((GOLDEN / "exits.json").read_text())
    before = _patchable()
    tracer = Tracer()
    tracer.install()
    try:
        patched = _patchable()
        for short, cls_name, attr, _ in METHODS:
            assert patched[(cls_name, attr)] is not before[(cls_name, attr)], attr
        for name in TRACED_CASES:
            golden = (exits[name], (GOLDEN / (name + ".out")).read_bytes())
            assert _run(CASES[name]) == golden, name
    finally:
        tracer.uninstall()
    assert _patchable() == before
    for span in ("cli.main", "diagram.AllowedPath", "diagram.explore", "linalg.path_matrix",
                 "pa.certify", "fg.central_component_checks"):
        assert tracer.calls[span] > 0, span

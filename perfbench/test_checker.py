"""The checker accepts the program's output on small items and rejects
tampered outputs; the lists are seeded; tracing leaves the program as it was.

    python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker as C  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import rauzycert.cli as cli  # noqa: E402
import rauzycert.linalg as linalg  # noqa: E402
import rauzycert.pa as pa  # noqa: E402


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def certify_doc(g: int, primitive: bool, seed: int = 0):
    word = workloads._loop(random.Random(seed), g, primitive)
    start = C.family_start(g)
    code, text = run("certify", "--start", C.display(start), "--moves", word[::-1])
    assert code == (0 if primitive else 2)
    return json.loads(text), start, word


def shifted(data, by: Fraction):
    value = C.rational(data) + by
    return {"decimal": "", "num": str(value.numerator), "den": str(value.denominator)}


# ---------------------------------------------------------------- accepts


@pytest.mark.parametrize("g", [3, 4])
@pytest.mark.parametrize("primitive", [True, False])
def test_accepts_certificates(g, primitive):
    doc, start, word = certify_doc(g, primitive)
    C.check_certificate(doc, start, word, workloads.TOL, g)


def test_accepts_family_twist_and_diverge():
    C.check_family(json.loads(run("fg", "--genus", "3")[1]), 3, workloads.TOL)
    C.check_twist(json.loads(run("penner", "--genus", "3", "--n", "5")[1]), 3, 5, workloads.TOL)
    C.check_diverge(json.loads(run("penner", "diverge", "--genus", "3")[1]), 3, workloads.TOL)


def test_accepts_central_component():
    C.check_central(json.loads(run("fg", "central", "--n", "4")[1]), 4)


@pytest.mark.parametrize("n, augmented", [(5, False), (4, True)])
def test_accepts_diagrams(n, augmented):
    start = C.explore(C.central(n), augmented)[-1]
    extra = ("--augmented",) if augmented else ()
    text = run("diagram", "--start", C.display(start), *extra)[1]
    assert C.check_diagram_json(json.loads(text), start, augmented) == C.check_diagram_dot(
        run("diagram", "--start", C.display(start), "--format", "dot", *extra)[1],
        start, augmented)


def test_family_path_matrix_matches_the_closed_form():
    # The block closed form of the genus-g loop, from the program, equals the
    # checker's column-update product.
    from rauzycert.fg import block_matrix

    for g in (2, 3, 5):
        assert C.path_matrix(C.family_start(g), "b" * g + "tf") == [
            list(row) for row in block_matrix(g).rows]


# ---------------------------------------------------------------- rejects


def test_rejects_shifted_bracket():
    doc, start, word = certify_doc(3, True)
    width = C.rational(doc["lambda"]["high"]) - C.rational(doc["lambda"]["low"])
    for key in ("low", "high"):
        doc["lambda"][key] = shifted(doc["lambda"][key], Fraction(1, 1000))
    assert C.rational(doc["lambda"]["high"]) - C.rational(doc["lambda"]["low"]) == width
    with pytest.raises(C.CheckError, match="misses"):
        C.check_certificate(doc, start, word, workloads.TOL, 3)


def test_rejects_wrong_exponent():
    doc, start, word = certify_doc(3, True)
    for wrong in (doc["positive_power"] + 1, doc["positive_power"] - 1):
        doc["positive_power"] = wrong
        with pytest.raises(C.CheckError, match="exponent"):
            C.check_certificate(doc, start, word, workloads.TOL, 3)


def test_rejects_changed_matrix_entry():
    doc, start, word = certify_doc(3, True)
    doc["matrix"][0][1] = str(int(doc["matrix"][0][1]) + 1)
    with pytest.raises(C.CheckError, match="matrix"):
        C.check_certificate(doc, start, word, workloads.TOL, 3)


def test_rejects_wrong_edge_target():
    start = C.central(5)
    doc = json.loads(run("diagram", "--start", C.display(start))[1])
    doc["edges"][3]["dst"] = (doc["edges"][3]["dst"] + 1) % doc["size"]
    with pytest.raises(C.CheckError, match="wrong target"):
        C.check_diagram_json(doc, start, False)
    text = run("diagram", "--start", C.display(start), "--format", "dot")[1]
    with pytest.raises(C.CheckError, match="wrong target"):
        C.check_diagram_dot(text.replace("v0 -> v1 ", "v0 -> v2 ", 1), start, False)


def test_rejects_shifted_twist_bracket():
    doc = json.loads(run("penner", "--genus", "4", "--n", "7")[1])
    for key in ("low", "high"):
        doc["rho"][key] = shifted(doc["rho"][key], Fraction(-1, 1000))
    with pytest.raises(C.CheckError, match="misses"):
        C.check_twist(doc, 4, 7, workloads.TOL)


# ---------------------------------------------------------------- lists and tracing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_lists_are_seeded(name):
    first = [item.argv for item in workloads.build(name, 7)]
    assert first == [item.argv for item in workloads.build(name, 7)]
    assert first != [item.argv for item in workloads.build(name, 8)]
    assert len(first) >= 40


def test_tracer_counts_and_restores():
    original = (linalg.path_matrix, pa.path_matrix, linalg.IntMatrix.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert pa.path_matrix is not original[1]
        tracer.op = 0
        code, _ = run("fg", "--genus", "3")
    finally:
        tracer.uninstall()
    assert code == 0
    assert (linalg.path_matrix, pa.path_matrix, linalg.IntMatrix.__mul__) == original
    metrics = tracer.metrics(0, 1.0)
    assert metrics["linalg.path_matrix.calls"][0] == 2
    assert metrics["linalg.path_matrix.per_path"][0] == 2.0
    assert metrics["linalg.min_positive_power.per_matrix"][0] == 3.0
    assert metrics["pa.certify.calls"][0] == 1
    assert all(value >= 0 for value, _ in metrics.values())
    starts, ends = tracer.span_start, tracer.span_end
    assert all(ends[i] >= starts[i] for i in range(len(starts)))
    assert tracer.span_parent[0] == -1 and tracer.names[tracer.span_name[0]] == "cli.main"


def test_reference_scales_use_the_samples_around_each_operation():
    # samples[i] is taken just before operation i and samples[i + 1] just after.
    samples = [0.002] * 6 + [0.004] * 6
    factors = reference.scales(samples)
    assert len(factors) == len(samples) - 1
    assert factors[0] == 1.0 and factors[-1] == 0.5
    assert factors[5] == reference.NOMINAL_S / 0.003

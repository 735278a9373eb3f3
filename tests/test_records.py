"""The public records are immutable named tuples with the field names and
order of their constructors, and starting the CLI loads only what it uses."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rauzycert.errors import PermutationParseError
from rauzycert.fg import (
    CentralComponentReport, FamilyReport, SampledPath, central_component_checks, family_report,
)
from rauzycert.linalg import IntMatrix, SpectralBracket
from rauzycert.pa import OrbitReport, PACertificate
from rauzycert.penner import (
    PennerMatrices, RotationOrbitReport, StretchReport, build, lc_upper_rotation, stretch_bounds,
)
from rauzycert.perm import LabeledPermutation, UnlabeledPermutation, parse, unlabeled
from rauzycert.surface import GluedSurface, glue

SRC = Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    IntMatrix: ("rows",),
    SpectralBracket: ("low", "high", "iterations"),
    LabeledPermutation: ("alphabet", "top", "bottom"),
    UnlabeledPermutation: ("images",),
    GluedSurface: ("vertex_count", "euler_char", "genus", "side_closed"),
    OrbitReport: (
        "winners", "orbit_map", "best_start", "steps", "trajectory", "skipped_sides",
        "cycle_warnings",
    ),
    PACertificate: (
        "path", "matrix", "primitive", "positive_power", "verdict", "genus", "vertex_count",
        "lam", "lc_upper", "orbit", "lc_lower", "lc_lower_exact", "assumptions", "warnings",
    ),
    FamilyReport: ("g", "certificate", "upper_bound", "lower_bound", "checks"),
    SampledPath: (
        "family", "start_display", "word", "primitive_exponent", "diagonal_positive",
        "power_positive",
    ),
    CentralComponentReport: ("n", "g", "component_size", "lc_lower", "samples", "checks"),
    PennerMatrices: ("g", "n", "a", "b", "c", "d", "m"),
    StretchReport: ("g", "n", "power_min_row_sum", "rho", "checks"),
    RotationOrbitReport: ("g", "bound", "orbit"),
}


def _instances():
    """One instance of every record, as the library builds them."""
    report = family_report(3)
    cert = report.certificate
    central = central_component_checks(4)
    matrices = build(3, 2)
    p = parse("A B C / C B A")
    return [
        cert.matrix, cert.lam, p, unlabeled(p), glue(p), cert.orbit, cert, report,
        central.samples[0], central, matrices, stretch_bounds(matrices), lc_upper_rotation(3),
    ]


INSTANCES = _instances()


def test_every_record_has_one_instance():
    assert [type(x) for x in INSTANCES] == list(FIELDS)


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_fields_in_constructor_order(record):
    assert record._fields == FIELDS[record]


@pytest.mark.parametrize("instance", INSTANCES, ids=lambda x: type(x).__name__)
def test_records_are_read_only(instance):
    for name in instance._fields:
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
    with pytest.raises(AttributeError):
        instance.extra = None


def test_records_compare_hash_and_replace_as_tuples():
    a = SpectralBracket(Fraction(3, 2), Fraction(8, 5), 12)
    assert a == SpectralBracket(low=Fraction(3, 2), high=Fraction(8, 5), iterations=12)
    assert hash(a) == hash((Fraction(3, 2), Fraction(8, 5), 12))
    assert a._replace(low=Fraction(1)).low == 1 and a.low == Fraction(3, 2)


@pytest.mark.parametrize("rows", [(), ((1, 2),), ((1, 2), (3,))])
def test_int_matrix_refuses_non_square_rows(rows):
    for build_matrix in (lambda: IntMatrix(rows), lambda: IntMatrix(rows=rows)):
        with pytest.raises(ValueError, match="matrix must be square and non-empty"):
            build_matrix()


@pytest.mark.parametrize(
    "fields, message",
    [
        ((("A",), (0,), (0,)), "need at least 2 letters, got 1"),
        ((("A", "A"), (0, 1), (1, 0)), "alphabet letters must be distinct"),
        ((("A", "B"), (0, 0), (1, 0)), "top row is not a permutation of the 2-letter alphabet"),
        ((("A", "B"), (0, 1), (1, 2)), "bottom row is not a permutation of the 2-letter alphabet"),
    ],
)
def test_labeled_permutation_refuses_bad_rows(fields, message):
    alphabet, top, bottom = fields
    for build_perm in (
        lambda: LabeledPermutation(alphabet, top, bottom),
        lambda: LabeledPermutation(alphabet=alphabet, top=top, bottom=bottom),
    ):
        with pytest.raises(PermutationParseError) as info:
            build_perm()
        assert str(info.value) == message


@pytest.mark.parametrize("images", [(1, 1), (2, 3), (0, 1)])
def test_unlabeled_permutation_refuses_non_bijections(images):
    for build_perm in (lambda: UnlabeledPermutation(images),
                       lambda: UnlabeledPermutation(images=images)):
        with pytest.raises(PermutationParseError, match="images are not a bijection"):
            build_perm()


def test_cli_start_loads_no_unused_module():
    # -S: site can preload typing and random through a .pth file
    names = ("dataclasses", "inspect", "typing", "csv", "random")
    code = (
        "import sys\n"
        "import rauzycert.cli as cli\n"
        "cli.build_parser()\n"
        "print(' '.join(name for name in sys.argv[1:] if name in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *names],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == []

"""Command-line front end.

One JSON / CSV / DOT document goes to stdout per invocation; diagnostics go
to stderr.  Exit codes: 0 for success (certified, allowed, or all checks
passing) and for ``--help``, 2 for an inconclusive certificate or failed
checks, 1 for errors, a rejected command line and a closed stdout pipe
included.  ``main`` returns the code in every case and raises no
``SystemExit``.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import diagram as diagram_mod
from . import fg as fg_mod
from . import penner as penner_mod
from .errors import RauzyError
from .induction import Move
from .jsonutil import bracket_json, decimal_str, dumps, rational_json
from .linalg import DEFAULT_TOL, IntMatrix, _column_product
from .pa import LETTERS_MAX, certificate_to_json, certify
from .perm import LabeledPermutation, central, fg_start, is_irreducible, parse, unlabeled
from .surface import glue, stratum_of_central


def _tol(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % text) from None


def _emit(document: str) -> None:
    sys.stdout.write(document)
    if not document.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(dumps(obj))


def _emit_report(doc: dict, report) -> int:
    """Emit ``doc`` plus the report's sorted checks and verdict; exit 0 or 2."""
    doc["checks"] = {k: report.checks[k] for k in sorted(report.checks)}
    doc["passed"] = report.passed
    _emit_json(doc)
    return 0 if report.passed else 2


def _emit_csv(header, rows) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue())


def _reject_ignored(mode: str, args, *dests: str) -> None:
    """Raise before any work when a flag that ``mode`` does not read was given."""
    given = ["--" + dest for dest in dests if getattr(args, dest) is not None]
    if given:
        raise ValueError("%s ignores %s" % (mode, ", ".join(given)))


def _start_permutation(args) -> LabeledPermutation:
    if getattr(args, "central", None) is not None:
        return central(args.central)
    if getattr(args, "fg_start", None) is not None:
        return fg_start(args.fg_start)
    return parse(args.start if hasattr(args, "start") else args.perm)


def _cmd_perm(args) -> int:
    stratum = stratum_of_central(args.central) if args.central is not None else None
    p = _start_permutation(args)
    if args.format == "text":
        _emit(p.display())
        return 0
    out = p.to_json_dict()
    out["display"] = p.display()
    out["unlabeled"] = list(unlabeled(p).images)
    out["irreducible"] = is_irreducible(p)
    out["surface"] = glue(p).to_json_dict()
    if stratum is not None:
        out["stratum"] = stratum
    _emit_json(out)
    return 0


def _cmd_move(args) -> int:
    """The one-move path from the start: its end, its (winner, loser) and
    its matrix Id + E(winner, loser), the identity for a flip."""
    p = parse(args.start)
    path = diagram_mod.AllowedPath(p, (Move(args.kind),))
    winner, loser = [p.alphabet[i] for i in path.updates[0]] if path.updates else (None, None)
    _emit_json(
        {
            "kind": args.kind,
            "source": p.to_json_dict(),
            "target": path.end.to_json_dict(),
            "target_display": path.end.display(),
            "winner": winner,
            "loser": loser,
            "matrix": _column_product(p.n, path.updates, tuple(range(p.n))).to_json(),
        }
    )
    return 0


def _cmd_diagram(args) -> int:
    if args.cap <= 0:
        raise ValueError("enumeration cap must be positive")
    seed = _start_permutation(args)
    component = diagram_mod.explore(seed, augmented=args.augmented, cap=args.cap)
    if args.format == "dot":
        diagram_mod.to_dot(component, sys.stdout)
    else:
        diagram_mod.to_json(component, sys.stdout)
        sys.stdout.write("\n")
    return 0


def _cmd_path(args) -> int:
    start = parse(args.start)
    path = diagram_mod.build_path(start, args.moves, reading=args.reading)
    _emit_json(
        {
            "allowed": path.allowed,
            "input_word": args.moves,
            "reading": args.reading,
            "execution_word": path.word,
            "start": start.to_json_dict(),
            "end": path.end.to_json_dict(),
            "end_display": path.end.display(),
            "unlabeled_start": list(unlabeled(start).images),
            "unlabeled_end": list(unlabeled(path.end).images),
        }
    )
    return 0 if path.allowed else 1


def _cmd_certify(args) -> int:
    if args.tol <= 0:
        raise ValueError("tolerance must be positive")
    start = parse(args.start)
    if start.n > LETTERS_MAX:
        raise ValueError("certify needs at most %d letters, got %d" % (LETTERS_MAX, start.n))
    path = diagram_mod.build_path(start, args.moves, reading=args.reading)
    cert = certify(path, tol=args.tol)
    out = certificate_to_json(cert)
    out["input_word"] = args.moves
    out["reading"] = args.reading
    _emit_json(out)
    return 0 if cert.primitive else 2


def _fg_report_json(report: fg_mod.FamilyReport) -> dict:
    cert = report.certificate
    return {
        "g": report.g,
        "execution_word": cert.path.word,
        "upper_bound": rational_json(report.upper_bound),
        "lower_bound": rational_json(report.lower_bound),
        "certificate": certificate_to_json(cert),
    }


def _cmd_fg(args) -> int:
    if args.fg_mode == "central":
        _reject_ignored("fg central", args, "genus", "tol")
    elif args.fg_mode == "table":
        _reject_ignored("fg table", args, "genus")
        if args.gmax > fg_mod.GENUS_MAX:
            raise ValueError("--gmax must be <= %d, got %d" % (fg_mod.GENUS_MAX, args.gmax))
    tol = DEFAULT_TOL if args.tol is None else args.tol
    if args.fg_mode == "table":
        rows = []
        for g in range(args.gmin, args.gmax + 1):
            cert = fg_mod.family_certificate(g, tol)
            lam, bounds = cert.lam, (cert.lc_upper, cert.lc_lower, cert.lc_lower_exact)
            rows.append([g, decimal_str(lam.low), decimal_str(lam.high), *map(str, bounds)])
        _emit_csv(
            ["g", "lambda_low", "lambda_high", "lc_upper", "lc_lower_cap", "lc_lower_exact"],
            rows,
        )
        return 0
    if args.fg_mode == "central":
        report = fg_mod.central_component_checks(
            args.n, loop_len=args.loop_len, samples=args.samples
        )
        return _emit_report(
            {
                "n": report.n,
                "g": report.g,
                "component_size": report.component_size,
                "lc_lower": rational_json(report.lc_lower),
                "samples": [s.to_json_dict() for s in report.samples],
            },
            report,
        )
    if args.genus is None:
        raise ValueError("fg needs --genus (or the table / central subcommand)")
    report = fg_mod.family_report(args.genus, tol=tol)
    return _emit_report(_fg_report_json(report), report)


# Largest penner sweep --nmax: with the default --gmax 6, --nmax 5000 takes
# 18 s at 29 MiB, and --gmax 3 --nmax 5000 takes 3.6 s (2-vCPU VM).  Like
# the --gmax cap, it bounds the flag, not the grid.
SWEEP_N_MAX = 5000


def _cmd_penner(args) -> int:
    if args.penner_mode == "sweep":
        _reject_ignored("penner sweep", args, "genus", "n")
        if args.gmax > penner_mod.GENUS_MAX:
            raise ValueError("--gmax must be <= %d, got %d" % (penner_mod.GENUS_MAX, args.gmax))
        if args.nmax > SWEEP_N_MAX:
            raise ValueError("--nmax must be <= %d, got %d" % (SWEEP_N_MAX, args.nmax))
        rows = []
        for g in range(3, args.gmax + 1):
            for n in range(1, args.nmax + 1):
                report = penner_mod.stretch_bounds(penner_mod.build(g, n), tol=args.tol)
                rows.append(
                    [
                        g,
                        n,
                        decimal_str(report.rho.low),
                        decimal_str(report.rho.high),
                        report.power_min_row_sum,
                        str(penner_mod.lc_upper_rotation(g).bound),
                    ]
                )
        _emit_csv(["g", "n", "rho_low", "rho_high", "min_row_sum_power", "lc_upper"], rows)
        return 0
    if args.penner_mode == "diverge":
        _reject_ignored("penner diverge", args, "n")
        matrices = penner_mod.diverging_sequence(args.genus)
    elif args.genus is None or args.n is None:
        raise ValueError("penner needs --genus and --n (or the sweep / diverge subcommand)")
    else:
        matrices = penner_mod.build(args.genus, args.n)
    report = penner_mod.stretch_bounds(matrices, tol=args.tol)
    rotation = penner_mod.lc_upper_rotation(matrices.g)
    return _emit_report(
        {
            "g": matrices.g,
            "n": matrices.n,
            "blocks": {
                "a": matrices.a.to_json(),
                "b": matrices.b.to_json(),
                "c": matrices.c.to_json(),
                "d": matrices.d.to_json(),
            },
            "matrix": matrices.m.to_json(),
            "min_row_sum_power": report.power_min_row_sum,
            "rho": bracket_json(report.rho),
            "teich_length": list(report.rho.log_bounds()),
            "lc_upper": rational_json(rotation.bound),
            "lc_upper_orbit": list(rotation.orbit),
        },
        report,
    )


# Largest --random count: 10^5 instances take 10 s (2-vCPU VM).
HOMOLOGY_RANDOM_MAX = 10**5
# Each --random instance draws its dimension, entries and power up to these.
RANDOM_DIM_MAX, RANDOM_ENTRY_MAX, RANDOM_N_MAX = 4, 5, 10


def _cmd_homology_check(args) -> int:
    if args.random is not None:
        _reject_ignored("homology-check --random", args, "a", "b", "n")
        if args.random > HOMOLOGY_RANDOM_MAX:
            raise ValueError("--random must be <= %d, got %d" % (HOMOLOGY_RANDOM_MAX, args.random))
        import random

        seed = 0 if args.seed is None else args.seed
        rng = random.Random(seed)
        failures = []
        for index in range(args.random):
            d = rng.randint(1, RANDOM_DIM_MAX)
            a = IntMatrix.from_rows(
                [[rng.randint(0, RANDOM_ENTRY_MAX) for _ in range(d)] for _ in range(d)]
            )
            b = [rng.randint(0, RANDOM_ENTRY_MAX) for _ in range(d)]
            n = rng.randint(1, RANDOM_N_MAX)
            if not penner_mod.homology_power_check(a, b, n):
                failures.append({"index": index, "a": a.to_json(), "b": b, "n": n})
        _emit_json(
            {
                "count": args.random,
                "seed": seed,
                "all_equal": not failures,
                "failures": failures,
            }
        )
        return 0 if not failures else 2
    if args.a is None or args.b is None or args.n is None:
        raise ValueError("homology-check needs --a, --b and --n (or --random)")
    _reject_ignored("homology-check --a/--b/--n", args, "seed")
    a = IntMatrix.from_rows(json.loads(args.a))
    b = [int(x) for x in json.loads(args.b)]
    equal = penner_mod.homology_power_check(a, b, args.n)
    _emit_json({"dim": a.order, "n": args.n, "equal": equal})
    return 0 if equal else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call; callers must not mutate it.

    Reuse is safe: ``parse_args`` returns a fresh ``Namespace`` on every
    call, every default is immutable (``Fraction``, ``None``,
    ``argparse.SUPPRESS``), ``prog`` is fixed, and the help width is read
    when help is formatted, not when the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="rauzycert",
        description="Rauzy-Veech induction, pseudo-Anosov certification and "
        "translation-length bounds on labeled permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perm", help="parse or construct a labeled permutation")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--perm", help='two-row literal, e.g. "A B C / C B A"')
    source.add_argument("--central", type=int, help="central permutation on N letters")
    source.add_argument("--fg-start", dest="fg_start", type=int, help="family start at genus G")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=_cmd_perm)

    p = sub.add_parser("move", help="apply a single move")
    p.add_argument("--start", required=True)
    p.add_argument("--kind", required=True, choices=["t", "b", "f"])
    p.set_defaults(func=_cmd_move)

    p = sub.add_parser("diagram", help="enumerate a diagram component")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--start")
    source.add_argument("--central", type=int)
    p.add_argument("--augmented", action="store_true", help="include flip edges")
    p.add_argument("--cap", type=int, default=diagram_mod.DEFAULT_CAP)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_diagram, fg_start=None)

    p = sub.add_parser("path", help="build a move path and test if it is allowed")
    p.add_argument("--start", required=True)
    p.add_argument("--moves", required=True)
    p.add_argument("--reading", choices=["paper", "ltr"], default="paper")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("certify", help="certify the mapping class of an allowed path")
    p.add_argument("--start", required=True)
    p.add_argument("--moves", required=True)
    p.add_argument("--reading", choices=["paper", "ltr"], default="paper")
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("fg", help="minimal-stretch family reports")
    p.add_argument("--genus", type=int)
    # None stands for DEFAULT_TOL, so that fg central can reject a given --tol
    p.add_argument("--tol", type=_tol, default=None)
    fg_sub = p.add_subparsers(dest="fg_mode")
    table = fg_sub.add_parser("table", help="CSV over a genus range")
    table.add_argument("--gmin", type=int, default=2)
    table.add_argument("--gmax", type=int, default=10)
    # A subcommand's --tol has no default of its own, so that a --tol given
    # before the subcommand is not overwritten.
    table.add_argument("--tol", type=_tol, default=argparse.SUPPRESS)
    central_checks = fg_sub.add_parser(
        "central", help="central-component structural checks"
    )
    central_checks.add_argument("--n", type=int, required=True)
    central_checks.add_argument("--loop-len", dest="loop_len", type=int, default=None)
    central_checks.add_argument("--samples", type=int, default=3)
    p.set_defaults(func=_cmd_fg, fg_mode=None)

    p = sub.add_parser("penner", help="twist-family matrix reports")
    p.add_argument("--genus", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--tol", type=_tol, default=DEFAULT_TOL)
    penner_sub = p.add_subparsers(dest="penner_mode")
    sweep = penner_sub.add_parser("sweep", help="CSV over a (g, n) grid")
    sweep.add_argument("--gmax", type=int, default=6)
    sweep.add_argument("--nmax", type=int, default=20)
    sweep.add_argument("--tol", type=_tol, default=argparse.SUPPRESS)
    diverge = penner_sub.add_parser("diverge", help="the n = g^g member")
    diverge.add_argument("--genus", type=int, required=True)
    diverge.add_argument("--tol", type=_tol, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_penner, penner_mode=None)

    p = sub.add_parser("homology-check", help="block-triangular homology power identity")
    p.add_argument("--a", help="square matrix as a JSON array of rows")
    p.add_argument("--b", help="row vector as a JSON array")
    p.add_argument("--n", type=int)
    p.add_argument("--random", type=int, help="check COUNT random instances")
    p.add_argument("--seed", type=int, help="seed of --random (default 0)")
    p.set_defaults(func=_cmd_homology_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage text or the help
        return 1 if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is seen here, not at exit
        return code
    except (RauzyError, ValueError) as exc:
        print("%s: %s" % (getattr(exc, "prefix", "error"), exc), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader has gone; send what is still buffered to devnull, so
        # that the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

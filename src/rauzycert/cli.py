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
import os
import sys
from fractions import Fraction

from . import diagram as diagram_mod
from . import fg as fg_mod
from . import penner as penner_mod
from .errors import RauzyError, check_range
from .jsonutil import bracket_json, decimal_str, dumps, rational_json
from .linalg import DEFAULT_TOL, _column_product, _positive_tol
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


# Digit limits of each bracket engine (2-vCPU VM).  The closed-form
# bisection of fg, fg table and penner halves from Cauchy's bound, n + 5 for
# penner's twist count n, down to --tol: bits(n) + bits(1/tol) halvings, so
# one limit bounds both, --tol >= 1e-60 and n <= 10^60.  fg table --gmax 250
# took 16 s at 1e-60 against a 30 s budget (26 s at 1e-80), and penner
# --genus 150 --n 10^60 --tol 1e-60 about 1 s (--n 10^1000 ran past 120 s).
# certify's Newton costs about d^2.3 digits^1.9 on d letters, so letters x
# digits <= 96,000: 1e-1000 took 4-6 s at the 96-letter cap against a 10 s
# budget (31 s at 1e-3000).
BISECTION_DIGITS_MAX = 60
NEWTON_TOL_LETTER_DIGITS_MAX = 96000


def _check_tol(tol: Fraction, digits: int, engine: str) -> None:
    """Raise before any work when ``tol`` is not positive or below the floor 10^-digits."""
    _positive_tol(tol)
    # 10^digits > 8^digits, so the bit lengths clear most tol before 10^digits is built
    if (tol.denominator.bit_length() - tol.numerator.bit_length() >= 3 * digits
            and tol * 10**digits < 1):
        raise ValueError("--tol must be >= 1e-%d, the floor of %s" % (digits, engine))


def _start_permutation(args) -> LabeledPermutation:
    if args.central is not None:
        return central(args.central)
    if args.fg_start is not None:
        return fg_start(args.fg_start)
    return parse(args.start)


def _cmd_perm(args) -> int:
    p = _start_permutation(args)
    stratum = stratum_of_central(args.central) if args.central is not None else None
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
    path = diagram_mod.AllowedPath(p, args.kind)
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
    check_range("--cap", args.cap, 1)
    seed = _start_permutation(args)
    # The component of central(n) holds the hyperelliptic Rauzy class, with
    # 2^(n-1) - 1 vertices; past 128 letters explore refuses the seed itself.
    if args.central is not None and args.central <= 128 and 2 ** (args.central - 1) - 1 > args.cap:
        raise diagram_mod._over_cap(seed, args.cap)
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
            "execution_word": path.moves,
            "start": start.to_json_dict(),
            "end": path.end.to_json_dict(),
            "end_display": path.end.display(),
            "unlabeled_start": list(unlabeled(start).images),
            "unlabeled_end": list(unlabeled(path.end).images),
        }
    )
    return 0 if path.allowed else 1


def _cmd_certify(args) -> int:
    start = parse(args.start)
    check_range("certify's letter count", start.n, 2, LETTERS_MAX)
    _check_tol(args.tol, NEWTON_TOL_LETTER_DIGITS_MAX // start.n,
               "certify's Newton on %d letters" % start.n)
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
        "execution_word": cert.path.moves,
        "upper_bound": rational_json(report.upper_bound),
        "lower_bound": rational_json(report.lower_bound),
        "certificate": certificate_to_json(cert),
    }


def _cmd_fg(args) -> int:
    if args.fg_mode == "central":
        _reject_ignored("fg central", args, "genus", "tol")
    elif args.fg_mode == "table":
        _reject_ignored("fg table", args, "genus")
        check_range("--gmin", args.gmin, 2, fg_mod.GENUS_MAX)
        check_range("--gmax", args.gmax, args.gmin, fg_mod.GENUS_MAX)
    tol = DEFAULT_TOL if args.tol is None else args.tol
    _check_tol(tol, BISECTION_DIGITS_MAX, "the closed-form bisection")
    if args.fg_mode == "table":
        rows, primitive = [], True
        for g in range(args.gmin, args.gmax + 1):
            cert = fg_mod.family_certificate(g, tol)
            primitive = primitive and cert.primitive
            lam = cert.lam
            # csv writes None, a bracket or bound that the cell lacks, as ""
            low, high = (decimal_str(lam.low), decimal_str(lam.high)) if lam else (None, None)
            rows.append([g, low, high, cert.lc_upper, cert.lc_lower, cert.lc_lower_exact])
        _emit_csv(
            ["g", "lambda_low", "lambda_high", "lc_upper", "lc_lower_cap", "lc_lower_exact"],
            rows,
        )
        return 0 if primitive else 2
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
# 5.3 s at 27 MiB, and --gmax 3 --nmax 5000 takes 1.2 s (2-vCPU VM).
SWEEP_N_MAX = 5000

# The grid is bounded too: --nmax has a second upper limit, the budget over
# the estimate of one column of n (nmax * column > budget exactly when
# nmax > budget // column).  A cell at genus g is estimated at 400 + 30 g +
# g^2 microseconds at the default --tol, and it grows with the bits --tol
# asks for over the default's _SWEEP_CELL_BITS.  The fit bounds single cells
# measured at g = 3..150 and n = 1 and 5000, at the default --tol and at
# 1e-60 (2-vCPU VM): a g = 150 cell took 12-15 ms against 27 ms estimated
# (74-111 ms against 183 ms at 1e-60), and a g = 3 cell, the thinnest
# margin, 0.41-0.43 ms against 0.50 ms.  Grids at their largest --nmax ran
# in 12-25 s.
_SWEEP_CELL_US = (400, 30, 1)
_SWEEP_CELL_BITS = DEFAULT_TOL.denominator.bit_length()
_SWEEP_BUDGET_S = 30


def _cmd_penner(args) -> int:
    _check_tol(args.tol, BISECTION_DIGITS_MAX, "the closed-form bisection")
    if args.penner_mode == "sweep":
        _reject_ignored("penner sweep", args, "genus", "n")
        check_range("--gmax", args.gmax, 3, penner_mod.GENUS_MAX)
        check_range("--nmax", args.nmax, 1, SWEEP_N_MAX)
        a, b, c = _SWEEP_CELL_US
        bits = max((args.tol.denominator // args.tol.numerator).bit_length(), _SWEEP_CELL_BITS)
        column_us = sum(a + b * g + c * g * g for g in range(3, args.gmax + 1))
        column_us = column_us * bits // _SWEEP_CELL_BITS
        check_range("--nmax under the %d s budget at --gmax %d" % (_SWEEP_BUDGET_S, args.gmax),
                    args.nmax, 1, _SWEEP_BUDGET_S * 10**6 // column_us)
        rows, passed = [], True
        for g in range(3, args.gmax + 1):
            for n in range(1, args.nmax + 1):
                report = penner_mod.stretch_bounds(penner_mod.build(g, n), tol=args.tol)
                passed = passed and report.passed
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
        return 0 if passed else 2
    if args.penner_mode == "diverge":
        _reject_ignored("penner diverge", args, "n")
        matrices = penner_mod.diverging_sequence(args.genus)
    elif args.genus is None or args.n is None:
        raise ValueError("penner needs --genus and --n (or the sweep / diverge subcommand)")
    else:
        matrices = penner_mod.build(args.genus, args.n)
    if matrices.n > 10**BISECTION_DIGITS_MAX:
        twist = "n = g^g at --genus %d" % matrices.g if args.penner_mode else "--n"
        raise ValueError("%s must be <= 10^%d, the limit of the closed-form bisection"
                         % (twist, BISECTION_DIGITS_MAX))
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
    source.add_argument("--perm", dest="start", metavar="PERM",
                        help='two-row literal, e.g. "A B C / C B A"')
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

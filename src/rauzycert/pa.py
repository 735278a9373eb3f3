"""Pseudo-Anosov certification and the two translation-length bound engines.

A primitive path matrix certifies the induced mapping class as pseudo-Anosov;
its spectral radius is the stretch factor, and the stretch translation length
is the log of its bracket, proven on the characteristic polynomial
(``linalg.perron_bracket``).  Non-primitivity is reported as *inconclusive*:
primitivity is a sufficient criterion, not a necessary one.

Upper bounds on the stable curve-graph translation length come from
tracking a polygon side that is never a winner along the path: its inverse
iterates stay on polygon sides, read off from the relabeling orbit map
sigma.  If k iterates get from a side back to a winner side, the two ends
meet in at most one point, hence are at distance at most 2 in the curve
graph, giving the bound 2/k.

Lower bounds come from a positive power of the path matrix: if V^p > 0,
every carried curve fills after p steps, and curves carried only by a
diagonal extension of the invariant track need 6(2g-2) extra steps (the
diagonal-extension constant, taken as an external input).  Nesting then
forces distance to grow by one per block of 6(2g-2) + p iterations, so
the stable translation length is at least 1 / (6(2g-2) + p).  A
certificate carries this bound twice: ``lc_lower`` with the cap p = 2n,
valid for any primitive n x n matrix with a positive diagonal entry, and
``lc_lower_exact`` with p the measured primitivity exponent.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .diagram import AllowedPath
from .errors import NotAllowedError
from .jsonutil import bracket_json, rational_json
from .linalg import (
    DEFAULT_TOL,
    IntMatrix,
    SpectralBracket,
    min_positive_power,
    path_matrix,
    perron_bracket,
)
from .perm import _invert
from .surface import GluedSurface, glue


# Largest alphabet of the certify command: chi costs about n^4 / 4 growing
# products; certify took 21 s on (b^48 t f)^188 (2-vCPU VM), chi 43 s at 112.
LETTERS_MAX = 96


def diagonal_extension_steps(genus: int) -> int:
    """Extra iterations before a curve carried by a diagonal extension of the
    invariant track is carried by the track itself.  External input from the
    nesting argument, not derived here."""
    return 6 * (2 * genus - 2)


ASSUMPTION_DIAGONAL_EXTENSION = (
    "lower bound uses the diagonal-extension constant 6(2g-2) as external input"
)
ASSUMPTION_SIDE_ESSENTIALITY = (
    "side essentiality certified via homological nontriviality only"
)
WARNING_TORUS = "n = 2 torus case: curve-graph bounds are not defined"


class OrbitReport(namedtuple("OrbitReport", "winners orbit_map best_start steps trajectory"
                             " skipped_sides cycle_warnings", defaults=((), ()))):
    """How a never-winner side travels under the inverse map."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "winners": sorted(self.winners),
            "orbit_map": {k: self.orbit_map[k] for k in sorted(self.orbit_map)},
            "best_start": self.best_start,
            "steps": self.steps,
            "trajectory": list(self.trajectory),
            "skipped_sides": list(self.skipped_sides),
            "cycle_warnings": list(self.cycle_warnings),
        }


# The fields from ``lam`` on default to None, and the last two to ().
PACertificate = namedtuple(
    "PACertificate",
    "path matrix primitive positive_power verdict genus vertex_count lam lc_upper orbit"
    " lc_lower lc_lower_exact assumptions warnings",
    defaults=(None,) * 5 + ((), ()),
)


def certificate_to_json(cert: PACertificate) -> dict:
    """The documented certificate schema."""
    return {
        "start": cert.path.start.to_json_dict(),
        "word": cert.path.word,
        "allowed": cert.path.allowed,
        "matrix": cert.matrix.to_json(),
        "primitive": cert.primitive,
        "positive_power": cert.positive_power,
        "verdict": cert.verdict,
        "genus": cert.genus,
        "vertex_count": cert.vertex_count,
        "lambda": bracket_json(cert.lam),
        "teich_length": list(cert.lam.log_bounds()) if cert.lam else None,
        "lc_upper": rational_json(cert.lc_upper),
        "orbit": cert.orbit.to_json_dict() if cert.orbit else None,
        "lc_lower": rational_json(cert.lc_lower),
        "lc_lower_exact": rational_json(cert.lc_lower_exact),
        "assumptions": list(cert.assumptions),
        "warnings": list(cert.warnings),
    }


def check_never_winner_rows(path: AllowedPath, matrix: IntMatrix) -> None:
    """Every never-winner letter's row of the path matrix ``matrix`` must be
    the unit vector at its sigma image.  A violation is an internal
    inconsistency, not bad input."""
    if not path.allowed:
        raise NotAllowedError("never-winner rows need an allowed path")
    winners = {winner for winner, _ in path.updates}
    names = path.start.alphabet
    # sigma sends letter x to the b with relabel[b] == x
    for image, letter in enumerate(path.relabel):
        if letter in winners:
            continue
        row = matrix.rows[letter]
        if sum(row) != 1 or row[image] != 1:
            raise RuntimeError(
                "internal error: never-winner row %r is not the unit vector at %r"
                % (names[letter], names[image])
            )


def lc_upper_bound(
    path: AllowedPath, surface: GluedSurface
) -> tuple[Fraction, OrbitReport] | None:
    """Best orbit bound 2/k over admissible starting sides, or None.

    ``surface`` is the gluing of ``path.start``.  Admissible starts are
    closed, homologically nontrivial sides that are never winners along the
    path.  From each, sigma is applied while the current letter stays
    outside the winner set and unvisited; the longest such run of k
    applications yields the bound 2/k.  Needs genus >= 2 for the
    distance-two step (the regular neighbourhood of two once-meeting curves
    has essential boundary only then).
    """
    if not path.allowed:
        raise NotAllowedError("upper bound needs an allowed path")
    if surface.genus < 2:
        raise ValueError("curve-graph upper bound needs genus >= 2, got %d" % surface.genus)

    names = path.start.alphabet
    winners = {winner for winner, _ in path.updates}
    sigma = _invert(path.relabel)
    # steps[x]: the sigma applications from x to the first winner, found by
    # one backward pass (relabel is sigma's inverse) from each winner; a
    # letter whose sigma cycle holds no winner keeps 0.
    steps = [0] * path.start.n
    for winner in winners:
        letter, k = path.relabel[winner], 1
        while letter not in winners:
            steps[letter] = k
            letter, k = path.relabel[letter], k + 1
    skipped: list[str] = []
    cycle_warnings: list[str] = []
    best_steps, best_start = 0, 0
    for letter in range(path.start.n):
        if letter in winners:
            continue
        if not surface.side_closed[names[letter]]:  # closed sides are nonzero in homology
            skipped.append(names[letter])
        elif not steps[letter]:
            # A sigma cycle avoiding every winner would give a periodic
            # curve orbit; no bound is drawn from it.
            cycle_warnings.append(names[letter])
        elif steps[letter] > best_steps:
            best_steps, best_start = steps[letter], letter
    if not best_steps:
        return None
    best_trajectory = [best_start]
    for _ in range(best_steps):
        best_trajectory.append(sigma[best_trajectory[-1]])
    report = OrbitReport(
        winners=frozenset(names[x] for x in winners),
        orbit_map={names[x]: names[image] for x, image in enumerate(sigma)},
        best_start=names[best_trajectory[0]],
        steps=best_steps,
        trajectory=tuple(names[x] for x in best_trajectory),
        skipped_sides=tuple(skipped),
        cycle_warnings=tuple(cycle_warnings),
    )
    return Fraction(2, best_steps), report


def lc_lower_bound(genus: int, exponent: int) -> Fraction:
    """Stable translation-length lower bound 1/(6(2g-2) + p) on a
    genus-``genus`` surface, for a path matrix whose ``exponent``-th power p
    is positive."""
    if genus < 2:
        raise ValueError("curve-graph lower bound needs genus >= 2, got %d" % genus)
    return Fraction(1, diagonal_extension_steps(genus) + exponent)


def certify(
    path: AllowedPath,
    tol: Fraction | str | float = DEFAULT_TOL,
    bracket: SpectralBracket | None = None,
) -> PACertificate:
    """Assemble the full certificate of an allowed path.

    Primitivity of the path matrix certifies the mapping class as
    pseudo-Anosov and the spectral bracket pins its stretch factor; both
    translation-length bound engines run when the genus admits them.

    The bracket of a primitive matrix is ``bracket``, one the caller has
    already proven to hold the spectral radius, or else ``perron_bracket``
    on the path matrix to width ``tol``, proven on its characteristic
    polynomial.
    """
    if not path.allowed:
        raise NotAllowedError(
            "cannot certify: endpoints differ as unlabeled permutations (%s vs %s)"
            % (path.start.display(), path.end.display())
        )
    matrix = path_matrix(path)
    power = min_positive_power(matrix)
    primitive = power is not None
    surface = glue(path.start)
    warnings_list: list[str] = []
    assumptions: list[str] = []
    if path.start.n == 2:
        warnings_list.append(WARNING_TORUS)

    lam = (bracket or perron_bracket(matrix, tol)) if primitive else None
    lc_upper = orbit = lower = lower_exact = None
    if surface.genus >= 2:
        check_never_winner_rows(path, matrix)
        upper = lc_upper_bound(path, surface)
        if upper is not None:
            lc_upper, orbit = upper
            assumptions.append(ASSUMPTION_SIDE_ESSENTIALITY)
            if orbit.skipped_sides:
                warnings_list.append(
                    "sides skipped as non-closed or homologically unverified: %s"
                    % ", ".join(orbit.skipped_sides)
                )
        if primitive:
            if any(matrix.diagonal()):
                lower = lc_lower_bound(surface.genus, 2 * matrix.order)
            lower_exact = lc_lower_bound(surface.genus, power)
            assumptions.append(ASSUMPTION_DIAGONAL_EXTENSION)
    else:
        warnings_list.append(
            "genus %d < 2: curve-graph translation-length bounds unavailable" % surface.genus
        )

    return PACertificate(
        path=path,
        matrix=matrix,
        primitive=primitive,
        positive_power=power,
        verdict="pseudo-Anosov" if primitive else "inconclusive",
        genus=surface.genus,
        vertex_count=surface.vertex_count,
        lam=lam,
        lc_upper=lc_upper,
        orbit=orbit,
        lc_lower=lower,
        lc_lower_exact=lower_exact,
        assumptions=tuple(assumptions),
        warnings=tuple(warnings_list),
    )

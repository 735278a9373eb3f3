"""The four seeded operation lists.

Each workload function returns one round: a list of ``Item``s in a seeded order.
Items fall into size classes of near-constant cost.  The counts are chosen
so that, with the items sorted by latency, the median rank falls in the
middle of one flat class and the tail rank (ten items above it) in the
middle of another, never on the boundary between two classes; the layout
of each list is written out in README.md.  The seed picks the loops, the
grid points and the start vertices inside each class, and the order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checker as C

TOL = Fraction(1, 10**9)


@dataclass(frozen=True)
class Item:
    size_class: str
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[str], None]


def _json_check(fn, *args):
    return lambda text: fn(json.loads(text), *args)


# ---------------------------------------------------------------- certify_stream


def unwound_walk(rng: random.Random, start, steps: int) -> str:
    """A closed labeled loop at ``start``: ``steps`` random t/b moves, then each
    move undone, last first, by finishing that move's cycle."""
    stations = [start]
    word = []
    for _ in range(steps):
        letter = rng.choice("tb")
        word.append(letter)
        stations.append(C.MOVES[letter](stations[-1])[0])
    for i in range(steps, 0, -1):
        letter, current = word[i - 1], stations[i]
        while current != stations[i - 1]:
            current = C.MOVES[letter](current)[0]
            word.append(letter)
    return "".join(word)


def _loop(rng: random.Random, g: int, primitive: bool) -> str:
    """A seeded allowed word at the family start, with a length in a band
    that keeps the cost of one genus class flat.

    A primitive word is the family loop b^g t f with a closed loop inserted
    at two seeded stations; since every move matrix is at least the
    identity, its matrix dominates the (primitive) family matrix.  A
    non-primitive word is a closed loop that the checker finds not
    primitive.
    """
    start = C.family_start(g)
    family = "b" * g + "tf"
    stations = [start]
    for letter in family:
        stations.append(C.MOVES[letter](stations[-1])[0])
    low, high = 6 * g, 10 * g
    for _ in range(10_000):
        if primitive:
            first, second = sorted(rng.sample(range(len(stations)), 2))
            word = (family[:first] + unwound_walk(rng, stations[first], rng.randint(1, 3))
                    + family[first:second]
                    + unwound_walk(rng, stations[second], rng.randint(1, 3))
                    + family[second:])
        else:
            word = unwound_walk(rng, start, rng.randint(3, 6))
        if low <= len(word) <= high:
            if primitive or C.exponent(C.path_matrix(start, word)) is None:
                return word
    raise RuntimeError("no loop found for g = %d" % g)


def _certify(rng, g: int, primitive: bool) -> Item:
    start = C.family_start(g)
    word = _loop(rng, g, primitive)

    def check(text):
        doc = json.loads(text)
        C.ensure(doc["input_word"] == word[::-1], "input word")
        C.check_certificate(doc, start, word, TOL, g)

    argv = ("certify", "--start", C.display(start), "--moves", word[::-1])
    return Item("certify_g%d_%s" % (g, "pa" if primitive else "inconclusive"),
                argv, 0 if primitive else 2, check)


def _family(g: int) -> Item:
    return Item("fg_genus", ("fg", "--genus", str(g)), 0, _json_check(C.check_family, g, TOL))


def certify_stream(rng: random.Random) -> list[Item]:
    # Ranks by latency, 400 items: genus 3 and 4 loops (150) lie below the
    # median class, genus-5 loops (100) hold the median, and genus-6 loops
    # (90) plus the 60 family reports lie above it.  The family reports are
    # 15% of the list; the tail rank, 11th from the top, falls in the middle
    # of the eighteen genus-18 reports (ranks 3..20 from the top).
    items = []
    for g, pa, inconclusive in ((3, 60, 15), (4, 60, 15), (5, 85, 15), (6, 70, 20)):
        items += [_certify(rng, g, True) for _ in range(pa)]
        items += [_certify(rng, g, False) for _ in range(inconclusive)]
    genera = [24, 22] + [18] * 18 + [rng.randint(12, 17) for _ in range(40)]
    items += [_family(g) for g in genera]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------- twist_diverge


def _twist(g: int, n: int, size_class: str) -> Item:
    argv = ("penner", "--genus", str(g), "--n", str(n))
    return Item(size_class, argv, 0, _json_check(C.check_twist, g, n, TOL))


def _diverge(g: int) -> Item:
    argv = ("penner", "diverge", "--genus", str(g))
    return Item("diverge_g%d" % g, argv, 0, _json_check(C.check_diverge, g, TOL))


def twist_diverge(rng: random.Random) -> list[Item]:
    # Ranks by latency, 77 items: diverge g = 3 (3) and the genus-3 grid (28)
    # lie below the median class, the genus-4 grid (15) holds the median,
    # and diverge g = 4 (3), the genus-5/6 grid (10), the large class of
    # genus 5 at n near 1000 (17) and the paper's g = 5, n = 3125 instance
    # (1) lie above it.  The tail rank, 11th from the top, falls in the
    # large class (ranks 2..18 from the top).
    items = [_diverge(3) for _ in range(3)] + [_diverge(4) for _ in range(3)] + [_diverge(5)]
    items += [_twist(3, rng.randint(1, 300), "grid_g3") for _ in range(28)]
    items += [_twist(4, rng.randint(190, 230), "grid_g4") for _ in range(15)]
    items += [_twist(5, rng.randint(50, 300), "grid_g5") for _ in range(5)]
    items += [_twist(6, rng.randint(20, 150), "grid_g6") for _ in range(5)]
    items += [_twist(5, rng.randint(995, 1005), "large_g5") for _ in range(17)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------- central_component


def _central(n: int) -> Item:
    return Item("central_n%d" % n, ("fg", "central", "--n", str(n)), 0,
                _json_check(C.check_central, n))


def central_component(rng: random.Random) -> list[Item]:
    # Ranks by latency, 74 items: n = 4 (27) below the median class, n = 5
    # (20) holds the median, n = 6 (22) and n = 7 (5) above it.  The tail
    # rank, 11th from the top, falls in the n = 6 class (ranks 6..27 from
    # the top).
    counts = {4: 27, 5: 20, 6: 22, 7: 5}
    items = [_central(n) for n, count in counts.items() for _ in range(count)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------- diagram_export


def _diagram(rng, n: int, augmented: bool, dot: bool, vertices) -> Item:
    start = rng.choice(vertices)
    argv = ("diagram", "--start", C.display(start))
    argv += ("--augmented",) * augmented + ("--format", "dot") * dot
    if dot:
        check = lambda text: C.check_diagram_dot(text, start, augmented)  # noqa: E731
    else:
        check = _json_check(C.check_diagram_json, start, augmented)
    size_class = "%s%d_%s" % ("augmented_n" if augmented else "n", n, "dot" if dot else "json")
    return Item(size_class, argv, 0, check)


def diagram_export(rng: random.Random) -> list[Item]:
    # Ranks by latency, 88 items: n = 9 and 10 in both formats (24), n = 11
    # DOT (6) and n = 11 JSON (4) lie below the median class, n = 12 DOT
    # (20) holds the median, and augmented n = 5 JSON and n = 12 JSON (10),
    # n = 13 DOT (5), n = 13 JSON (17) and augmented n = 6 in both formats
    # (2) lie above it.  The tail rank, 11th from the top, falls in the
    # n = 13 JSON class (ranks 3..19 from the top).  Every start is a
    # seeded vertex of the component.
    layout = [
        (9, False, False, 6), (9, False, True, 6), (10, False, False, 6), (10, False, True, 6),
        (11, False, True, 6), (11, False, False, 4),
        (12, False, True, 20),
        (5, True, False, 5), (12, False, False, 5), (13, False, True, 5),
        (13, False, False, 17), (6, True, False, 1), (6, True, True, 1),
    ]
    components = {}
    items = []
    for n, augmented, dot, count in layout:
        key = (n, augmented)
        if key not in components:
            components[key] = C.explore(C.central(n), augmented)
        items += [_diagram(rng, n, augmented, dot, components[key]) for _ in range(count)]
    rng.shuffle(items)
    return items


WORKLOADS = {
    "certify_stream": certify_stream,
    "twist_diverge": twist_diverge,
    "central_component": central_component,
    "diagram_export": diagram_export,
}


def build(workload: str, seed: int) -> list[Item]:
    """The seeded list of one workload; the workload name salts the seed so
    that two workloads never share a random stream."""
    return WORKLOADS[workload](random.Random("%s:%d" % (workload, seed)))

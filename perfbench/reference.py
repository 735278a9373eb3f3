"""A fixed pure-Python task that tracks the speed of the machine.

The machine this benchmark was sized on is shared: a pure-Python loop timed
in 2-s windows ran anywhere between 0.70 and 1.39 ms over one minute, and
the rauzycert operations timed between those loops moved with it (their
2-s medians varied by 15% while their ratio to the loop varied by 3%).
The benchmark therefore times this task between operations and reports
every time scaled to a machine on which the task takes ``NOMINAL_S``.
The task mixes the kinds of work rauzycert does: big-integer matrix
products, exact fractions, tuples in dicts and JSON text.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.002
WINDOW = 5  # reference samples taken on each side of an operation

_rng = random.Random(0)
_MATRIX = [[_rng.getrandbits(64) for _ in range(10)] for _ in range(10)]
_COLUMNS = list(zip(*_MATRIX))


def reference_task() -> float:
    """Run the task once and return its wall time in seconds."""
    start = time.perf_counter()
    m = _MATRIX
    for _ in range(4):
        m = [[sum(a * b for a, b in zip(row, col)) for col in _COLUMNS] for row in m]
    quotients = [Fraction(row[0], row[1] + 1) for row in m]
    bracket = (min(quotients), max(quotients))
    table = {}
    for i in range(600):
        table[(i % 13, i)] = tuple(range(i % 9))
    json.dumps({"rows": [[str(x) for x in row] for row in m], "n": len(table),
                "low": str(bracket[0])})
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured while the task took these samples
    into a time on the nominal machine."""
    return NOMINAL_S / statistics.median(samples)


def scales(samples: list[float]) -> list[float]:
    """One factor per operation, for ``samples[i]`` taken just before
    operation i and ``samples[i + 1]`` just after it: the median of the
    ``WINDOW`` samples on each side."""
    return [scale(samples[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
            for i in range(len(samples) - 1)]

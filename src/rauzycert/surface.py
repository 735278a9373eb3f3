"""The glued surface of a two-row permutation.

The 2n-gon has n top sides ordered by the top row and n bottom sides
ordered by the bottom row; the leftmost and rightmost corners are shared
between the two chains, giving 2n corners in total.  Both copies of each
letter are oriented left to right and glued left-with-left and
right-with-right; corners are identified accordingly and counted with a
union-find.  With E = n sides and one face,

    euler_char = vertex_count - n + 1,    genus = (2 - euler_char) / 2.

A side is closed when its two endpoints land in the same corner class.
In the CW chain complex (vertex classes, n side edges, one face) every
closed side is nontrivial in homology, because the face's boundary is zero
(each letter occurs once in each row), so ``side_closed`` also states that.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .perm import LabeledPermutation, is_irreducible


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass
class GluedSurface:
    """Euler characteristic and per-side flags of the gluing."""

    vertex_count: int
    euler_char: int
    genus: int
    side_closed: dict[str, bool]

    def to_json_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "euler_char": self.euler_char,
            "genus": self.genus,
            "sides": {
                letter: {"closed": self.side_closed[letter]}
                for letter in sorted(self.side_closed)
            },
        }


def glue(p: LabeledPermutation) -> GluedSurface:
    """Glue the 2n-gon of ``p`` and report its genus and side flags.

    The gluing is defined for reducible permutations too; those only emit a
    warning since the downstream certification steps assume irreducibility.
    """
    if not is_irreducible(p):
        warnings.warn("gluing a reducible permutation: %s" % p.display(), stacklevel=2)
    n = p.n
    uf = _UnionFind(2 * n)

    def bottom_corner(k: int) -> int:
        # k-th corner of the bottom chain, 0 <= k <= n; the ends coincide
        # with the top chain's ends.
        return k if k in (0, n) else n + k

    top_pos = p.top_positions()
    bottom_pos = p.bottom_positions()
    for letter in range(n):
        i, j = top_pos[letter], bottom_pos[letter]
        uf.union(i, bottom_corner(j))  # left endpoints
        uf.union(i + 1, bottom_corner(j + 1))  # right endpoints

    vertex_count = sum(uf.find(corner) == corner for corner in range(2 * n))
    euler_char = vertex_count - n + 1
    assert euler_char % 2 == 0, "gluing always yields an even Euler characteristic"
    genus = (2 - euler_char) // 2

    side_closed: dict[str, bool] = {}
    for letter in range(n):
        i = top_pos[letter]
        side_closed[p.alphabet[letter]] = uf.find(i) == uf.find(i + 1)

    return GluedSurface(
        vertex_count=vertex_count,
        euler_char=euler_char,
        genus=genus,
        side_closed=side_closed,
    )


def stratum_of_central(n: int) -> str:
    """Stratum label of the component of the central permutation on n letters.

    Even n = 2g lands in H(2g-2), odd n = 2g+1 in H(g-1, g-1); n = 2 is the
    torus boundary case H(0).
    """
    if n < 2:
        raise ValueError("need n >= 2, got %d" % n)
    g, odd = divmod(n, 2)
    if odd:
        return "H(%d,%d)" % (g - 1, g - 1)
    return "H(%d)" % (2 * g - 2)

"""The glued surface of a two-row permutation.

The 2n-gon has n top sides ordered by the top row and n bottom sides
ordered by the bottom row; the leftmost and rightmost corners are shared
between the two chains.  Both copies of each letter are oriented left to
right and glued left-with-left and right-with-right, so the corner classes
are the cycles of one permutation of the n + 1 top corners (Yoccoz,
"Interval exchange maps and translation surfaces", Clay Math. Proc. 10,
2010).  With E = n sides and one face,

    euler_char = vertex_count - n + 1,    genus = (2 - euler_char) / 2.

A side is closed when its two endpoints land in the same corner class.
In the CW chain complex (vertex classes, n side edges, one face) every
closed side is nontrivial in homology, because the face's boundary is zero
(each letter occurs once in each row), so ``side_closed`` also states that.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import check_range
from .perm import LabeledPermutation, _cycles


class GluedSurface(namedtuple("GluedSurface", "vertex_count euler_char genus side_closed")):
    """Euler characteristic and per-side flags of the gluing (``side_closed``
    maps each letter name to a bool)."""

    __slots__ = ()

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
    """Glue the 2n-gon of ``p`` and report its genus and side flags; the
    gluing is defined for reducible permutations too."""
    n = p.n
    top_pos = p.top_positions()
    bottom_pos = p.bottom_positions()
    # nxt[k] is the top corner that corner k meets on the bottom chain: corner
    # k + 1 ends top[k], so it starts the letter after top[k] there, or is n.
    nxt = [top_pos[p.bottom[0]]]
    for letter in p.top:
        j = bottom_pos[letter] + 1
        nxt.append(n if j == n else top_pos[p.bottom[j]])
    corner_class, vertex_count = _cycles(nxt)
    euler_char = vertex_count - n + 1
    assert euler_char % 2 == 0, "gluing always yields an even Euler characteristic"
    genus = (2 - euler_char) // 2

    side_closed = {
        name: corner_class[i] == corner_class[i + 1] for name, i in zip(p.alphabet, top_pos)
    }

    return GluedSurface(vertex_count, euler_char, genus, side_closed)


def stratum_of_central(n: int) -> str:
    """Stratum label of the component of the central permutation on n letters.

    Even n = 2g lands in H(2g-2), odd n = 2g+1 in H(g-1, g-1); n = 2 is the
    torus boundary case H(0).
    """
    check_range("central permutation n", n, 2)
    g, odd = divmod(n, 2)
    if odd:
        return "H(%d,%d)" % (g - 1, g - 1)
    return "H(%d)" % (2 * g - 2)

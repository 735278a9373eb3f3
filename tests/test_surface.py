import itertools
import random

import networkx
import pytest

from rauzycert.cli import main
from rauzycert.diagram import explore
from rauzycert.perm import LabeledPermutation, central, default_alphabet, fg_start
from rauzycert.surface import glue, stratum_of_central

from helpers import (
    all_standard_permutations,
    face_boundary_relation,
    random_labeled_permutation,
    union_find_glue,
)


def reference_corner_graph(p):
    """Corners recomputed from scratch: explicit corner names ("T<k>" on the
    top chain), joined by the left-with-left / right-with-right
    identification."""
    n = p.n
    top_pos = p.top_positions()
    bottom_pos = p.bottom_positions()

    def top_corner(k):
        return "T%d" % k

    def bottom_corner(k):
        return "T0" if k == 0 else ("T%d" % n if k == n else "B%d" % k)

    graph = networkx.Graph()
    graph.add_nodes_from(top_corner(k) for k in range(n + 1))
    graph.add_nodes_from(bottom_corner(k) for k in range(n + 1))
    for letter in range(n):
        i, j = top_pos[letter], bottom_pos[letter]
        graph.add_edge(top_corner(i), bottom_corner(j))
        graph.add_edge(top_corner(i + 1), bottom_corner(j + 1))
    return graph


def reference_vertex_count(p):
    """Corner classes as networkx components of the corner graph."""
    return networkx.number_connected_components(reference_corner_graph(p))


class TestGlue:
    def test_family_start_genus_two(self):
        s = glue(fg_start(2))
        assert s.vertex_count == 1
        assert s.genus == 2

    def test_square_torus(self):
        s = glue(central(2))
        assert (s.vertex_count, s.genus) == (1, 1)
        assert all(s.side_closed.values())

    def test_central_five(self):
        s = glue(central(5))
        assert (s.vertex_count, s.genus) == (2, 2)

    @pytest.mark.parametrize("g", range(2, 11))
    def test_family_start_single_vertex_and_genus(self, g):
        s = glue(fg_start(g))
        assert s.vertex_count == 1
        assert s.euler_char == 2 - 2 * g
        assert s.genus == g

    def test_euler_char_always_even(self):
        for n in range(2, 7):
            for p in all_standard_permutations(n):
                assert glue(p).euler_char % 2 == 0

    def test_reducible_input_prints_nothing_on_stderr(self, capsys):
        # perm states irreducibility in its JSON; stderr stays empty on
        # every call in a process, not only after the first
        outputs = []
        for _ in range(2):
            assert main(["perm", "--perm", "A B / A B"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1] and '"irreducible": false' in outputs[0]

    def test_genus_matches_homology_rank_on_central_components(self):
        # H_1 has rank (#sides) - vertex_count + 1 = 2 * genus; the vertex
        # count is recomputed independently via networkx.
        for n in range(2, 9):
            for p in explore(central(n)).vertices:
                s = glue(p)
                v = reference_vertex_count(p)
                assert s.vertex_count == v
                assert p.n - v + 1 == 2 * s.genus


class TestGlueAgainstUnionFind:
    """``glue`` walks the cycles of one permutation of the n + 1 top
    corners; ``union_find_glue`` joins all 2n corners by the gluing.
    Reducible permutations are included."""

    @staticmethod
    def check(perms):
        for p in perms:
            s = glue(p)
            assert (s.vertex_count, s.side_closed) == union_find_glue(p)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_standard_permutation(self, n):
        self.check(all_standard_permutations(n))

    @pytest.mark.parametrize("n", range(2, 5))
    def test_every_labeled_permutation(self, n):
        rows = list(itertools.permutations(range(n)))
        self.check(
            LabeledPermutation(default_alphabet(n), top, bottom)
            for top in rows
            for bottom in rows
        )

    def test_random_labeled_permutations(self):
        rng = random.Random(20261020)
        self.check(random_labeled_permutation(rng, rng.randint(2, 60)) for _ in range(3000))


class TestSideHomology:
    def test_family_start_sides_all_nonzero(self):
        for g in (2, 3, 5):
            p = fg_start(g)
            s = glue(p)
            for letter in p.alphabet:
                assert s.side_closed[letter]

    def test_torus_sides_nonzero(self):
        s = glue(central(2))
        assert s.side_closed == {"a1": True, "a2": True}

    def test_non_closed_side_rejected(self):
        s = glue(central(3))
        assert not s.side_closed["a1"]

    def test_no_closed_side_ever_bounds(self):
        # The face relation abelianizes to zero (each letter once +, once -),
        # so a closed side with vanishing class would need a nonzero relation;
        # exhaustive search over n <= 6 confirms none exists, and that
        # side_closed, which therefore also states nontriviality, matches the
        # corner-graph oracle.
        for n in range(2, 7):
            for p in all_standard_permutations(n):
                assert face_boundary_relation(p) == [0] * n
                graph = reference_corner_graph(p)
                top_pos = p.top_positions()
                assert glue(p).side_closed == {
                    name: networkx.has_path(
                        graph, "T%d" % top_pos[letter], "T%d" % (top_pos[letter] + 1)
                    )
                    for letter, name in enumerate(p.alphabet)
                }

    def test_face_relation_is_zero(self):
        # Each letter occurs once in each row, so the relation cancels and
        # every closed side is nonzero in homology; glue() relies on this.
        rng = random.Random(20251018)
        perms = [central(n) for n in range(2, 13)]
        perms += [random_labeled_permutation(rng, rng.randint(2, 12)) for _ in range(200)]
        for p in perms:
            assert face_boundary_relation(p) == [0] * p.n


class TestStratum:
    def test_even_case(self):
        assert stratum_of_central(4) == "H(2)"

    def test_odd_case(self):
        assert stratum_of_central(5) == "H(1,1)"

    def test_torus_boundary_case(self):
        assert stratum_of_central(2) == "H(0)"

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            stratum_of_central(1)

    def test_genus_consistency_with_glue(self):
        # the stratum label's genus matches the glued surface for n = 2g
        for g in (2, 3, 4):
            assert stratum_of_central(2 * g) == "H(%d)" % (2 * g - 2)
            assert glue(central(2 * g)).genus == g

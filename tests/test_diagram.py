import io
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from helpers import oracle_diagram_doc, oracle_dot, oracle_explore, random_irreducible
from rauzycert.diagram import (
    BLOCK,
    AllowedPath,
    RauzyDiagram,
    build_path,
    explore,
    injectivity_check,
    parse_move_word,
    to_dot,
    to_json,
)
from rauzycert.errors import EnumerationCapError, PermutationParseError, ReducibleError
from rauzycert.induction import MOVES, Move
from rauzycert.perm import (
    LabeledPermutation,
    _images,
    central,
    default_alphabet,
    fg_start,
    from_rows,
    is_irreducible,
    parse,
    unlabeled,
)


def _text(render, component) -> str:
    """What ``to_json`` or ``to_dot`` writes for ``component``."""
    out = io.StringIO()
    render(component, out)
    return out.getvalue()


class TestExplore:
    def test_three_letter_component_exactly(self):
        component = explore(parse("A B C / C B A"))
        displays = [v.display() for v in component.vertices]
        assert set(displays) == {"A C B / C B A", "A B C / C B A", "A B C / C A B"}
        edges = {
            (displays[v], MOVES[move].value, displays[table[v]])
            for move, table in enumerate(component.succ)
            for v in range(len(component))
        }
        assert edges == {
            ("A C B / C B A", "t", "A C B / C B A"),
            ("A C B / C B A", "b", "A B C / C B A"),
            ("A B C / C B A", "b", "A C B / C B A"),
            ("A B C / C B A", "t", "A B C / C A B"),
            ("A B C / C A B", "t", "A B C / C B A"),
            ("A B C / C A B", "b", "A B C / C A B"),
        }

    def test_smallest_component_closed(self):
        component = explore(central(2))
        assert central(2) in component.vertices
        assert all(0 <= w < len(component) for table in component.succ for w in table)

    @pytest.mark.parametrize(
        "n,size", [(4, 7), (5, 15), (6, 31), (7, 63), (8, 127)]
    )
    def test_central_component_sizes(self, n, size):
        # regression values; they happen to follow 2^(n-1) - 1
        assert len(explore(central(n))) == size

    def test_idempotent_from_any_vertex(self):
        component = explore(central(4))
        expected = {v.display() for v in component.vertices}
        for v in component.vertices:
            assert {w.display() for w in explore(v).vertices} == expected

    def test_out_degree_two_unaugmented(self):
        component = explore(central(5))
        assert not component.augmented
        assert [len(table) for table in component.succ] == [len(component)] * 2

    def test_augmented_adds_flip_edges_and_stays_closed(self):
        component = explore(central(4), augmented=True)
        assert [len(table) for table in component.succ] == [len(component)] * 3
        assert all(0 <= w < len(component) for table in component.succ for w in table)

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapError):
            explore(central(6), cap=10)

    def test_rows_hold_at_most_256_letters(self):
        # one byte per letter index: 256 letters reach the vertex cap, 257 are
        # refused before any row is built
        with pytest.raises(EnumerationCapError, match="1-vertex cap"):
            explore(central(256), cap=1)
        with pytest.raises(EnumerationCapError, match="at most 256 letters, got 257"):
            explore(central(257), cap=1)

    def test_reducible_seed_rejected(self):
        with pytest.raises(ReducibleError):
            explore(parse("A B / A B"))

    def test_json_dump_shape(self):
        out = explore(central(3)).to_json_dict()
        assert len(out["vertices"]) == 3
        assert len(out["edges"]) == 6
        kinds = {e["kind"] for e in out["edges"]}
        assert kinds == {"t", "b"}


class TestInjectivity:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_central_components_injective(self, n):
        assert injectivity_check(explore(central(n)))

    def test_fake_diagram_with_duplicate_unlabeled(self):
        # both vertices define the unlabeled permutation (3, 2, 1)
        p = parse("A B C / C B A")
        q = from_rows(p.alphabet, "B C A".split(), "A C B".split())
        fake = RauzyDiagram(p.alphabet, [bytes(p.top + p.bottom), bytes(q.top + q.bottom)], ())
        assert not injectivity_check(fake)

    @given(st.integers(3, 7).flatmap(lambda n: st.permutations(range(n))), st.data(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_packed_check_counts_distinct_images(self, top, data, augmented):
        # the byte-translate check against the tuple rows and ``_images``;
        # both verdicts occur among these seeds
        bottom = tuple(data.draw(st.permutations(top)))
        seed = LabeledPermutation(default_alphabet(len(top)), tuple(top), bottom)
        assume(is_irreducible(seed))
        try:
            component = explore(seed, augmented=augmented, cap=3000)
        except EnumerationCapError:
            reject()
        images = {_images(*component.pair(v)) for v in range(len(component))}
        assert injectivity_check(component) == (len(images) == len(component))

    def test_unlabeled_equality_forces_vertex_equality(self):
        # corollary of injectivity: inside an unaugmented central component
        # an unlabeled-equal pair is an equal pair
        component = explore(central(5))
        for v in component.vertices:
            assert [w for w in component.vertices if unlabeled(v) == unlabeled(w)] == [v]


class TestMoveWords:
    def test_parse_with_exponent(self):
        assert parse_move_word("ftb^3") == (
            Move.FLIP,
            Move.TOP,
            Move.BOTTOM,
            Move.BOTTOM,
            Move.BOTTOM,
        )

    def test_parse_rejects_unknown_letters(self):
        with pytest.raises(PermutationParseError):
            parse_move_word("tx")

    def test_parse_rejects_zero_repeat(self):
        with pytest.raises(PermutationParseError):
            parse_move_word("t^0")

    def test_parse_caps_the_expanded_length(self):
        assert len(parse_move_word("tb^999999")) == 10**6
        with pytest.raises(PermutationParseError):
            parse_move_word("tb^1000000")
        with pytest.raises(PermutationParseError):
            parse_move_word("b^1000000000000")

    def test_parse_repeats_past_the_int_digit_limit(self):
        # more digits than int() converts by default (4,300)
        with pytest.raises(PermutationParseError, match="expands past"):
            parse_move_word("b^" + "9" * 5000)
        assert parse_move_word("b^" + "0" * 5000 + "1") == (Move.BOTTOM,)
        assert parse_move_word("t^0002") == (Move.TOP, Move.TOP)
        with pytest.raises(PermutationParseError, match="repeat must be >= 1"):
            parse_move_word("t^000")

    @pytest.mark.parametrize(
        "word, message",
        [
            ("t^", "unexpected '^' in move word 't^'"),
            ("^3", "unexpected '^' in move word '^3'"),
            ("tb^", "unexpected '^' in move word 'tb^'"),
            ("t ^3", "unexpected '^' in move word 't ^3'"),
            ("t^ 3", "unexpected '^' in move word 't^ 3'"),
            ("t^3^2", "unexpected '^' in move word 't^3^2'"),
            ("tbfx", "unexpected 'x' in move word 'tbfx'"),
            ("t^0", "repeat must be >= 1 in move word 't^0'"),
            ("tb^0", "repeat must be >= 1 in move word 'tb^0'"),
        ],
    )
    def test_parse_error_messages(self, word, message):
        with pytest.raises(PermutationParseError) as info:
            parse_move_word(word)
        assert str(info.value) == message

    def test_parse_reads_runs_and_skips_whitespace(self):
        t, b, f = Move.TOP, Move.BOTTOM, Move.FLIP
        assert parse_move_word("t^01") == (t,)
        assert parse_move_word("tbf") == parse_move_word(" t b\tf\n") == (t, b, f)
        # ^k repeats the last letter of a run only
        assert parse_move_word("ftb^2 bt") == (f, t, b, b, b, t)
        assert parse_move_word("ftbb" * 3) == (f, t, b, b) * 3

    def test_parse_caps_runs_of_plain_letters(self):
        assert len(parse_move_word("t" * 10**6)) == 10**6
        with pytest.raises(PermutationParseError, match="expands past 1000000"):
            parse_move_word("t" * 10**6 + "b")
        with pytest.raises(PermutationParseError, match="expands past 1000000"):
            parse_move_word("t^999999 bb")
        # the run is read up to the letter that carries ^0, and that letter's
        # repeat is refused before its count reaches the cap
        with pytest.raises(PermutationParseError, match="repeat must be >= 1"):
            parse_move_word("t" * 10**6 + "^0")


class TestBuildPath:
    @pytest.mark.parametrize("g", range(2, 7))
    def test_family_word_is_allowed(self, g):
        path = build_path(fg_start(g), "ftb^%d" % g)
        assert path.allowed
        assert len(path.moves) == g + 2

    def test_empty_word_allowed(self):
        path = build_path(central(3), "")
        assert path.allowed and path.end == central(3)

    def test_single_bottom_not_allowed(self):
        path = build_path(parse("A B C / C B A"), "b")
        assert not path.allowed

    def test_reading_directions_differ(self):
        paper = build_path(central(3), "tb")
        ltr = build_path(central(3), "tb", reading="ltr")
        assert paper.moves == (Move.BOTTOM, Move.TOP)
        assert ltr.moves == (Move.TOP, Move.BOTTOM)
        assert paper.end != ltr.end

    def test_rejects_unknown_reading(self):
        with pytest.raises(ValueError):
            build_path(central(3), "t", reading="rtl")

    def test_path_is_self_verifying(self):
        path = build_path(fg_start(2), "ftbb")
        assert path.moves == (Move.BOTTOM, Move.BOTTOM, Move.TOP, Move.FLIP)
        assert path.end == AllowedPath(AllowedPath(fg_start(2), path.moves[:3]).end, (Move.FLIP,)).end
        assert len(path.updates) == 3
        assert path.word == "bbtf"


class TestDot:
    def test_three_letter_component_dot(self):
        dot = _text(to_dot, explore(central(3)))
        assert dot.count(" -> ") == 6
        assert dot.count('label="t"') == 3
        assert dot.count('label="b"') == 3
        assert "v0" in dot and "v2" in dot

    def test_single_component_self_loops(self):
        dot = _text(to_dot, explore(central(2)))
        assert "v0 -> v0" in dot

    def test_byte_identical_across_runs(self):
        first = _text(to_dot, explore(central(4)))
        second = _text(to_dot, explore(central(4)))
        assert first == second


# Letter names that JSON escapes, that a %-format would read, that are
# not ASCII (one outside the BMP) or that have several characters.
ODD_NAMES = ("%", '"q"', "b\\", "\u00e9", "%d%%", "\U0001f600", "long_name", "%s")


def _oracle_cases():
    rng = random.Random(20261018)
    cases = [(central(n), False) for n in range(3, 10)]
    cases.append((central(2), True))  # a one-vertex component
    cases += [(central(n), True) for n in range(3, 6)]
    for _ in range(12):
        n = rng.randint(3, 6)
        cases.append((random_irreducible(rng, n), n <= 4 and rng.random() < 0.5))
    for n, augmented in ((6, False), (8, False), (4, True)):
        cases.append((rng.choice(oracle_explore(central(n))[0]), augmented))
    # letter names that JSON has to escape, that a %-format would read, that
    # are not ASCII or that have several characters
    p = random_irreducible(rng, 4)
    cases.append((LabeledPermutation(('x"', "é", "b\\", "%s"), p.top, p.bottom), True))
    for names, augmented in ((ODD_NAMES[:5], False), (ODD_NAMES[:5], True), (ODD_NAMES[4:], True)):
        p = random_irreducible(rng, len(names))
        cases.append((LabeledPermutation(names, p.top, p.bottom), augmented))
    return cases


def _case_id(value) -> str:
    if isinstance(value, LabeledPermutation):
        return value.display().replace(" ", "")
    return "augmented" if value else "plain"


@pytest.mark.parametrize("seed,augmented", _oracle_cases(), ids=_case_id)
class TestAgainstObjectOracle:
    """The table diagram against the one-object-per-vertex exploration."""

    def test_vertex_order_and_edges(self, seed, augmented):
        component = explore(seed, augmented=augmented)
        vertices, out_edges = oracle_explore(seed, augmented)
        assert component.rows == [bytes(v.top + v.bottom) for v in vertices]
        assert [component.pair(v) for v in range(len(component))] == [
            (v.top, v.bottom) for v in vertices
        ]
        assert list(component.vertices) == vertices
        letter = seed.alphabet.index
        for move, table in enumerate(component.succ):
            edges = [out[move] for out in out_edges]
            assert [edge.kind for edge in edges] == [MOVES[move]] * len(edges)
            assert table == [vertices.index(edge.target) for edge in edges]
            if move < 2:
                assert component.winner[move] == [letter(edge.winner) for edge in edges]
                assert component.loser[move] == [letter(edge.loser) for edge in edges]

    def test_dot_bytes(self, seed, augmented):
        assert _text(to_dot, explore(seed, augmented=augmented)) == oracle_dot(seed, augmented)

    def test_json_text(self, seed, augmented):
        expected = json.dumps(oracle_diagram_doc(seed, augmented), indent=2)
        assert _text(to_json, explore(seed, augmented=augmented)) == expected

    def test_json_dict_view(self, seed, augmented):
        expected = oracle_diagram_doc(seed, augmented)
        for key in ("seed", "size", "injective"):
            del expected[key]
        assert explore(seed, augmented=augmented).to_json_dict() == expected


def _table_json(d: RauzyDiagram) -> str:
    """Oracle for ``to_json``: ``json.dumps`` of the document built from the
    tables of ``d``, one dict per vertex and per edge."""
    names = d.alphabet
    spell = lambda row: [names[i] for i in row]  # noqa: E731
    pairs = [d.pair(v) for v in range(len(d))]
    edges = []
    for v in range(len(d)):
        for move, table in enumerate(d.succ):
            duel = [names[x[move][v]] for x in (d.winner, d.loser)] if move < 2 else [None, None]
            edge = {"src": v, "dst": table[v], "kind": MOVES[move].value}
            edges.append(dict(edge, winner=duel[0], loser=duel[1]))
    doc = {
        "augmented": d.augmented,
        "vertices": [
            {"alphabet": list(names), "top": spell(top), "bottom": spell(bottom)}
            for top, bottom in pairs
        ],
        "edges": edges,
        "seed": " / ".join(" ".join(spell(row)) for row in pairs[0]),
        "size": len(d),
        "injective": len({_images(*pair) for pair in pairs}) == len(d),
    }
    return json.dumps(doc, indent=2)


def _table_dot(d: RauzyDiagram) -> str:
    """Oracle for ``to_dot``: one formatted line per vertex and per edge."""
    lines = ["digraph rauzy {", "  rankdir=LR;", '  node [shape=box, fontname="monospace"];']
    for v in range(len(d)):
        top, bottom = (" ".join(d.alphabet[i] for i in row) for row in d.pair(v))
        lines.append('  v%d [label="%s\\n%s"];' % (v, top, bottom))
    for v in range(len(d)):
        for move, table in enumerate(d.succ):
            lines.append('  v%d -> v%d [label="%s"];' % (v, table[v], MOVES[move].value))
    return "\n".join(lines + ["}"]) + "\n"


def _hand_built(alphabet, size: int, augmented: bool, seed: int) -> RauzyDiagram:
    """A diagram of ``size`` random rows and random successor tables: the
    writers render whatever the tables hold."""
    rng = random.Random(seed)
    n = len(alphabet)
    rows = [bytes(rng.sample(range(n), n) + rng.sample(range(n), n)) for _ in range(size)]
    succ = tuple([rng.randrange(size) for _ in range(size)] for _ in range(2 + augmented))
    return RauzyDiagram(alphabet, rows, succ)


class TestBlockWriter:
    @pytest.mark.parametrize("augmented", [False, True])
    def test_odd_names_against_table_oracle(self, augmented):
        component = _hand_built(ODD_NAMES, 40, augmented, 1)
        assert _text(to_dot, component) == _table_dot(component)
        assert _text(to_json, component) == _table_json(component)

    @pytest.mark.parametrize("n", [86, 129, 256])
    def test_more_than_85_letters(self, n):
        # 3 x 85 = 255: past 85 letters an index offset by a mark inside
        # one byte would collide with another letter's index
        for augmented in (False, True):
            component = _hand_built(default_alphabet(n), 5, augmented, n)
            assert _text(to_dot, component) == _table_dot(component)
            assert _text(to_json, component) == _table_json(component)

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_boundaries(self, size):
        for augmented in (False, True):
            component = _hand_built(("A", "%", '"'), size, augmented, size)
            assert _text(to_dot, component) == _table_dot(component)
            assert _text(to_json, component) == _table_json(component)

    def test_one_write_per_block(self):
        # the vertex text and the edges of a component of 2 * BLOCK + 1
        # vertices take three writes each, apart from the document's frame
        component = _hand_built(("A", "B", "C"), 2 * BLOCK + 1, True, 3)
        for render, frame in ((to_dot, 2), (to_json, 3)):
            writes = []
            render(component, SimpleNamespace(write=writes.append))
            assert len(writes) == 6 + frame
            assert "".join(writes) == _text(render, component)


class TestTables:
    def test_successor_reads_the_tables(self):
        component = explore(central(5), augmented=True)
        for v in range(len(component)):
            for index, move in enumerate((Move.TOP, Move.BOTTOM, Move.FLIP)):
                assert component.successor(v, move) == component.succ[index][v]

    def test_no_flip_edge_unaugmented(self):
        with pytest.raises(KeyError):
            explore(central(4)).successor(0, Move.FLIP)

    def test_cap_counts_vertices(self):
        assert len(explore(central(6), cap=31)) == 31
        with pytest.raises(EnumerationCapError):
            explore(central(6), cap=30)

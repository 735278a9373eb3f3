"""Labeled permutations over a finite ordered alphabet.

A labeled permutation is a pair of rows, each listing the n alphabet letters
in some order: the top row gives the order of the top sides of a 2n-gon, the
bottom row the order of its bottom sides.  Forgetting the letters leaves an
ordinary permutation of {1..n} (bottom order composed with the inverse top
order), which is what the induction moves ultimately act through.

Letters are stored internally as indices 0..n-1 into the alphabet tuple;
matrix rows and columns elsewhere in the package always follow alphabet
order.  The default alphabet is a1, a2, ..., an.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PermutationParseError, check_range

# Most letters ``central`` and ``fg_start`` build (10^5: about 2 s, 140 MiB).
MAX_LETTERS = 10**5


def _invert(seq: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(seq)
    for pos, letter in enumerate(seq):
        inv[letter] = pos
    return tuple(inv)


def _cycles(seq) -> tuple[list[int], int]:
    """The cycle number of each element of the permutation ``seq`` of
    range(len(seq)), cycles numbered in the order of their least elements,
    and the number of cycles."""
    labels = [-1] * len(seq)
    count = 0
    for start in range(len(seq)):
        if labels[start] < 0:
            x = start
            while labels[x] < 0:
                labels[x] = count
                x = seq[x]
            count += 1
    return labels, count


class LabeledPermutation(namedtuple("LabeledPermutation", "alphabet top bottom")):
    """A two-row permutation of an ordered alphabet (a tuple of letter names).

    ``top[i]`` (resp. ``bottom[i]``) is the index of the letter in position
    ``i`` of the top (resp. bottom) row.  Both rows must be permutations of
    ``range(n)`` with n >= 2.

    >>> p = parse("A B C / C B A")
    >>> p.display()
    'A B C / C B A'
    >>> unlabeled(p)
    UnlabeledPermutation(images=(3, 2, 1))
    """

    __slots__ = ()

    def __new__(cls, alphabet, top, bottom):
        n = len(alphabet)
        if n < 2:
            raise PermutationParseError("need at least 2 letters, got %d" % n)
        if len(set(alphabet)) != n:
            raise PermutationParseError("alphabet letters must be distinct")
        for name, row in (("top", top), ("bottom", bottom)):
            if sorted(row) != list(range(n)):
                raise PermutationParseError(
                    "%s row is not a permutation of the %d-letter alphabet" % (name, n)
                )
        return tuple.__new__(cls, (alphabet, top, bottom))

    @property
    def n(self) -> int:
        return len(self.alphabet)

    def top_letters(self) -> tuple[str, ...]:
        return tuple(self.alphabet[i] for i in self.top)

    def bottom_letters(self) -> tuple[str, ...]:
        return tuple(self.alphabet[i] for i in self.bottom)

    def top_positions(self) -> tuple[int, ...]:
        """Position of each letter (by index) in the top row."""
        return _invert(self.top)

    def bottom_positions(self) -> tuple[int, ...]:
        return _invert(self.bottom)

    def display(self) -> str:
        return " ".join(self.top_letters()) + " / " + " ".join(self.bottom_letters())

    def __str__(self) -> str:
        return self.display()

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "top": list(self.top_letters()),
            "bottom": list(self.bottom_letters()),
        }


class UnlabeledPermutation(namedtuple("UnlabeledPermutation", "images")):
    """A permutation of {1..n}; ``images[i-1]`` is the image of i."""

    __slots__ = ()

    def __new__(cls, images):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PermutationParseError("images are not a bijection of {1..n}")
        return tuple.__new__(cls, (images,))


def from_rows(alphabet: tuple[str, ...], top_letters, bottom_letters) -> LabeledPermutation:
    """Build a labeled permutation from rows given as letter names."""
    index = {letter: i for i, letter in enumerate(alphabet)}
    try:
        top = tuple(index[x] for x in top_letters)
        bottom = tuple(index[x] for x in bottom_letters)
    except KeyError as exc:
        raise PermutationParseError("letter %r not in alphabet" % (exc.args[0],)) from None
    return LabeledPermutation(alphabet, top, bottom)


def parse(text: str) -> LabeledPermutation:
    """Parse a two-row permutation literal.

    Accepts either two whitespace-separated rows on separate lines or the
    single-line form ``"A B C / C B A"``.  The letters of the top row fix
    the alphabet order.

    >>> parse("A B C / C B A").top_letters()
    ('A', 'B', 'C')
    >>> parse("A B\\nB A").bottom_letters()
    ('B', 'A')
    """
    text = text.strip()
    if "/" in text:
        parts = text.split("/")
    else:
        parts = [line for line in text.splitlines() if line.strip()]
    if len(parts) != 2:
        raise PermutationParseError("expected exactly two rows, got %d" % len(parts))
    top_row = tuple(parts[0].split())
    bottom_row = tuple(parts[1].split())
    if len(top_row) != len(bottom_row):
        raise PermutationParseError(
            "row length mismatch: %d vs %d" % (len(top_row), len(bottom_row))
        )
    for name, row in (("top", top_row), ("bottom", bottom_row)):
        if len(set(row)) != len(row):
            raise PermutationParseError("duplicate letter in %s row" % name)
    if set(top_row) != set(bottom_row):
        raise PermutationParseError("rows use different letter sets")
    return from_rows(top_row, top_row, bottom_row)


def _images(top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[int, ...]:
    """The images of the unlabeled permutation of a pair of index rows."""
    bottom_pos = _invert(bottom)
    return tuple([bottom_pos[letter] + 1 for letter in top])


def _relabel(start_top: tuple[int, ...], end_top: tuple[int, ...]) -> tuple[int, ...]:
    """The relabeling between two unlabeled-equal vertices as a letter map on
    index rows: entry b is the letter occupying, in the end top row, the
    position letter b has in the start top row."""
    relabel = [0] * len(start_top)
    for letter, image in zip(start_top, end_top):
        relabel[letter] = image
    return tuple(relabel)


def unlabeled(p: LabeledPermutation) -> UnlabeledPermutation:
    """The underlying permutation of {1..n}: bottom order after inverse top order."""
    return UnlabeledPermutation(_images(p.top, p.bottom))


def is_irreducible(p: LabeledPermutation) -> bool:
    """No proper prefix {1..k} is invariant under the unlabeled permutation.

    Irreducibility implies the last top and bottom letters differ, which is
    what makes the induction moves well defined.

    >>> is_irreducible(parse("A C B / B A C"))
    True
    >>> is_irreducible(parse("A B / A B"))
    False
    """
    return _irreducible(p.top, p.bottom)


def _irreducible(top: tuple[int, ...], bottom: tuple[int, ...]) -> bool:
    """``is_irreducible`` on index rows, in O(n): {1..k} is invariant exactly
    when the first k letters of the top and bottom rows are the same set."""
    seen_top = seen_bottom = 0
    for a, b in zip(top[:-1], bottom):
        seen_top |= 1 << a
        seen_bottom |= 1 << b
        if seen_top == seen_bottom:
            return False
    return True


def default_alphabet(n: int) -> tuple[str, ...]:
    return tuple("a%d" % (i + 1) for i in range(n))


def central(n: int) -> LabeledPermutation:
    """The permutation with top a1..an over its reversal.

    >>> central(3).display()
    'a1 a2 a3 / a3 a2 a1'
    """
    check_range("central permutation n", n, 2, MAX_LETTERS, PermutationParseError)
    return LabeledPermutation(default_alphabet(n), tuple(range(n)), tuple(range(n - 1, -1, -1)))


def fg_start(g: int) -> LabeledPermutation:
    """Starting permutation of the minimal-stretch family on 2g letters.

    Top row a1..a_{2g}; bottom row a_{2g}, a_{g-1}, ..., a1, a_{2g-1}, ..., a_g.

    >>> fg_start(2).display()
    'a1 a2 a3 a4 / a4 a1 a3 a2'
    """
    check_range("family genus g", g, 2, MAX_LETTERS // 2, PermutationParseError)
    n = 2 * g
    bottom = (n - 1,) + tuple(range(g - 2, -1, -1)) + tuple(range(n - 2, g - 2, -1))
    return LabeledPermutation(default_alphabet(n), tuple(range(n)), bottom)

"""Words over the ranked alphabet {1..n}, words over an involution alphabet,
star-closed terms, and the combinatorial word statistics everything else uses.

Two kinds of words live here.  An ``AWord`` is a word over the finite ordered
alphabet 1 < 2 < ... < n and is the raw input to the monoid machinery.  An
``IWord`` is a word over a countable set of variables x, y, ... together with
their starred partners x*, y*, ...; identities are pairs of these.  Terms add
a formal star and concatenation on top, and ``flatten`` pushes every star down
to the letters using (t*)* = t and (st)* = t* s*.

``parse_side`` reads one side of an identity as a term and flattens it.
The only shortcut for sides that are plain letter sequences (``x y* z``, the
form every printer here emits) is ``parse_identity``'s, below, which splits
them on whitespace; both readings give the same words and the same errors.

An ``Identity`` carries the encoding that the checker and the oracle read
(``letter_ids``): the sorted base names, and each side as letter ids
2 * (index of the base) + starred.  ``parse_identity`` encodes an identity
of plain letters straight from its tokens, with no ``IVar``; an identity
built from ``IVar`` sides encodes on first use.  Its ``lhs`` and ``rhs``
are an ``IVar`` view, decoded on first use.  ``common_ends`` finds the
common prefix and suffix of the two sides.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count
from operator import ne
from typing import Iterator, NamedTuple


class ParseError(ValueError):
    """Malformed textual input (unbalanced parens, bad token, ...)."""


class RangeError(ValueError):
    """A letter is not an int in the alphabet 1..n, or a rank, bound, count
    or size is not an int at least its least value."""


class PivotAbsentError(ValueError):
    """occ_before / occ_after queried with a pivot that does not occur."""


def _is_int(x) -> bool:
    """An int, and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_at_least(value, lo: int, name: str):
    """value, if it is an int (not a bool) >= lo: the one rule for every
    rank, length bound, count and size the library takes."""
    if type(value) is not int and not _is_int(value):
        raise RangeError(f"{name} must be an int, got {value!r}")
    if value < lo:
        raise RangeError(f"{name} must be >= {lo}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Words over A_n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AWord:
    """A word over {1, ..., rank}; the empty word is allowed."""

    symbols: tuple[int, ...]
    rank: int

    def __post_init__(self):
        n = _int_at_least(self.rank, 1, "rank")
        for a in self.symbols:
            # an exact int passes the type test without a call
            if (type(a) is not int and not _is_int(a)) or not 1 <= a <= n:
                raise RangeError(f"letter {a!r} is not an int in 1..{n}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __str__(self) -> str:
        if self.rank <= 9:
            return "".join(str(a) for a in self.symbols)
        text = ",".join(str(a) for a in self.symbols)
        # a lone letter of two or more digits would read as a digit run
        return text + "," if len(self.symbols) == 1 and self.symbols[0] > 9 else text

    def concat(self, other: "AWord") -> "AWord":
        if other.rank != self.rank:
            raise RangeError("cannot concatenate words of different ranks")
        return AWord(self.symbols + other.symbols, self.rank)


def parse_aword(text: str, n: int) -> AWord:
    """Parse ``"36131"`` (digit form) or ``"3,6,1"`` / ``"3 6 1"``.

    Letters are ASCII decimal digits.  Above rank 9 the digit form takes one
    digit only, since longer digit runs are ambiguous there.  Empty or
    all-whitespace input is the empty word.
    """
    text = text.strip()
    if not text:
        return AWord((), n)
    if "," in text or any(c.isspace() for c in text):
        tokens = text.replace(",", " ").split()
    elif text.isdigit():
        if n > 9 and len(text) > 1:
            raise ParseError("digit form is only unambiguous for rank <= 9; use commas")
        tokens = list(text)
    else:
        raise ParseError(f"cannot parse word {text!r}")
    symbols = []
    for pos, tok in enumerate(tokens):
        # int() would also take '_', a sign and non-ASCII digits
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"bad letter token {tok!r} at position {pos}")
        a = int(tok)
        if not 1 <= a <= n:
            raise RangeError(f"letter {a} at position {pos} outside 1..{n}")
        symbols.append(a)
    return AWord(tuple(symbols), n)


# ---------------------------------------------------------------------------
# Involution variables and words
# ---------------------------------------------------------------------------

class IVar(NamedTuple):
    """A variable x or its starred partner x*."""

    base: str
    starred: bool = False

    def star(self) -> "IVar":
        return IVar(self.base, not self.starred)

    def bare(self) -> "IVar":
        return IVar(self.base, False)

    def __str__(self) -> str:
        return self.base + ("*" if self.starred else "")


#: An IWord is just a tuple of IVars; the empty tuple is the empty word.
IWord = tuple  # tuple[IVar, ...]


def v(name: str) -> IVar:
    """The letter of one token, read as `parse_side` reads it: ``v("x*")``
    is the starred partner of ``v("x")``, and ``v("x**")`` is ``v("x")``."""
    if not (name and _plain((name,))):
        raise ParseError(f"not a letter: {name!r}")
    return IVar(*_token_letter(name))


def iword(text: str) -> IWord:
    """The word of a side, read as `parse_side` reads it, e.g. ``"x y* z"``;
    blank text is the empty word."""
    return parse_side(text) if text.strip() else ()


def format_iword(u: IWord) -> str:
    return " ".join(str(x) for x in u)


def content(u: IWord) -> frozenset:
    """The set of (star-sensitive) letters occurring in u."""
    return frozenset(u)


def bar(u: IWord) -> IWord:
    """Strip every star flag."""
    # a bare letter is kept as it is: building a new one costs more
    return tuple([x.bare() if x.starred else x for x in u])


def occ(x: IVar, u: IWord) -> int:
    """Number of occurrences of the exact letter x (x and x* count separately)."""
    return u.count(x)


def restrict(u: IWord, base_names) -> IWord:
    """Subsequence of u keeping letters whose base lies in ``base_names``.

    Both the plain and the starred letter of each retained base survive; the
    usual two-letter restriction u[x, y] is restrict(u, {x.base, y.base}).
    """
    keep = set(base_names)
    return tuple(x for x in u if x.base in keep)


def occ_before(y: IVar, x: IVar, u: IWord) -> int:
    """Occurrences of x strictly before the first occurrence of the pivot y."""
    try:
        p = u.index(y)
    except ValueError:
        raise PivotAbsentError(f"pivot {y} does not occur") from None
    return u[:p].count(x)


def occ_after(y: IVar, x: IVar, u: IWord) -> int:
    """Occurrences of x strictly after the last occurrence of the pivot y."""
    if y not in u:
        raise PivotAbsentError(f"pivot {y} does not occur")
    p = len(u) - 1 - u[::-1].index(y)
    return u[p + 1:].count(x)


def initial_part(u: IWord) -> IWord:
    """Keep, in order, the first occurrence of each base pair: the occurrence
    at which neither the letter nor its star partner has appeared earlier."""
    seen = set()
    out = []
    for x in u:
        if x.base not in seen:
            seen.add(x.base)
            out.append(x)
    return tuple(out)


def final_part(u: IWord) -> IWord:
    """Mirror of initial_part: last occurrence of each base pair."""
    return initial_part(u[::-1])[::-1]


def reverse(u: IWord) -> IWord:
    """Letter order reversed, star flags untouched."""
    return u[::-1]


def star_word(u: IWord) -> IWord:
    """The formal involution: reverse the word and toggle every star flag."""
    return tuple(x.star() for x in reversed(u))


# ---------------------------------------------------------------------------
# Terms and flattening
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    var: IVar


@dataclass(frozen=True)
class Concat:
    parts: tuple  # of Terms, length >= 2


@dataclass(frozen=True)
class Star:
    inner: "Term"


Term = Atom | Concat | Star


def flatten(t: Term) -> IWord:
    """Convert a term to its unique word form: stars distribute by reversing
    factor order and toggling letter flags; double stars cancel."""
    out = []
    # open concatenations: an iterator over the parts still to walk, and
    # whether an odd number of stars sits above them
    stack = [(iter((t,)), False)]
    while stack:
        parts, starred = stack[-1]
        for node in parts:
            flip = starred
            while type(node) is Star:
                node, flip = node.inner, not flip
            if type(node) is Atom:
                out.append(node.var.star() if flip else node.var)
            else:
                stack.append((reversed(node.parts) if flip else iter(node.parts),
                              flip))
                break
        else:
            stack.pop()
    return tuple(out)


def parse_term(text: str) -> Term:
    """Parse the textual term grammar.

    Juxtaposition is concatenation, postfix ``*`` is star (binds tighter than
    concatenation), parentheses group, identifiers start with a letter or
    underscore.  Whitespace only separates tokens; bare digits are not
    variables.  Nesting depth is not limited by the interpreter's stack.
    """
    return _parse_term(text, 0, len(text))


def _parse_term(text: str, pos: int, endpos: int) -> Term:
    """The term in text[pos:endpos]; error positions index all of text."""
    atoms = {}      # identifier -> its Atom
    groups = []     # parts of the enclosing, still open parentheses
    parts = []
    for tok in _lex_term(text, pos, endpos):
        node = atoms.get(tok)
        if node is None:
            if tok == "*":
                if not parts:
                    raise ParseError("dangling star")
                parts[-1] = Star(parts[-1])
                continue
            if tok == "(":
                groups.append(parts)
                parts = []
                continue
            if tok == ")":
                if not parts:
                    raise ParseError("empty term")
                if not groups:
                    raise ParseError("unexpected token ')'")
                node = parts[0] if len(parts) == 1 else Concat(tuple(parts))
                parts = groups.pop()
            else:
                node = atoms[tok] = Atom(IVar(tok, False))
        parts.append(node)
    if not parts:
        raise ParseError("empty term")
    if groups:
        raise ParseError("unbalanced parentheses")
    return parts[0] if len(parts) == 1 else Concat(tuple(parts))


# One token per match: an identifier, or any single non-space character
# (a parenthesis, a star, or anything else, which is always an error).
_TOKEN = re.compile(r"\w+|\S")


def _lex_term(text: str, pos: int, endpos: int) -> list:
    tokens = _TOKEN.findall(text, pos, endpos)
    if not tokens:
        raise ParseError("empty term")
    if not all(map(_well_formed, set(tokens))):
        for m in _TOKEN.finditer(text, pos, endpos):
            if not _well_formed(m.group()):
                raise ParseError(f"bad character {m.group()[0]!r} at position {m.start()}")
    return tokens


# A token of a plain side, if `_well_formed` too: an identifier and the
# stars that follow it, with no space between them (`\w` also takes digits
# and numerals such as '²', which `_well_formed` rejects as a first character).
_LETTER = re.compile(r"\w+\**")


def _well_formed(tok: str) -> bool:
    c = tok[0]
    return c in "()*" or c.isalpha() or c == "_"


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

class Identity:
    """A formal equation lhs ~ rhs between involution words.

    An identity carries its letter-id encoding (`letter_ids`): the sorted
    base names, and both sides with each letter replaced by its id.  It
    holds the form it was built from, the `IVar` sides or the encoding,
    and derives the other once, on first use; `lhs` and `rhs` are the
    `IVar` view.  The encoding is canonical, since the same sides give the
    same names and ids and back, so equality and hashing read it.
    """

    __slots__ = ("_sides", "_code")

    def __init__(self, lhs: IWord, rhs: IWord):
        self._sides = (lhs, rhs)
        self._code = None

    @classmethod
    def _encoded(cls, names: tuple, u: tuple, v: tuple) -> "Identity":
        self = cls.__new__(cls)
        self._sides, self._code = None, (names, u, v)
        return self

    def _view(self) -> tuple:
        if self._sides is None:
            names, u, v = self._code
            # the letter with id a (`id_letter`) at index a
            letters = [IVar(b, s) for b in names for s in (False, True)]
            self._sides = (tuple(map(letters.__getitem__, u)),
                           tuple(map(letters.__getitem__, v)))
        return self._sides

    def _encoding(self) -> tuple:
        if self._code is None:
            lhs, rhs = self._sides
            self._code = _encode(lhs, rhs, {x: x for x in {*lhs, *rhs}})
        return self._code

    @property
    def lhs(self) -> IWord:
        return self._view()[0]

    @property
    def rhs(self) -> IWord:
        return self._view()[1]

    def __eq__(self, other):
        if not isinstance(other, Identity):
            return NotImplemented
        return self._encoding() == other._encoding()

    def __hash__(self):
        return hash(self._encoding())

    def __repr__(self) -> str:
        return f"Identity(lhs={self.lhs!r}, rhs={self.rhs!r})"

    def __str__(self) -> str:
        return f"{format_iword(self.lhs)} ≈ {format_iword(self.rhs)}"

    def reversed(self) -> "Identity":
        lhs, rhs = self._view()
        return Identity(reverse(lhs), reverse(rhs))

    def starred(self) -> "Identity":
        lhs, rhs = self._view()
        return Identity(star_word(lhs), star_word(rhs))


def _encode(lhs, rhs, letters: dict) -> tuple:
    """The letter-id encoding of two sides, given the (base, starred) pair
    of each of their distinct letter keys: the sorted base names, and the
    sides with every key replaced by its id 2 * (index of the base) +
    starred.  Ids sort like the letters."""
    names = sorted({base for base, _ in letters.values()})
    index = {b: 2 * i for i, b in enumerate(names)}
    ids = {key: index[base] + starred for key, (base, starred) in letters.items()}
    return (tuple(names), tuple(map(ids.__getitem__, lhs)),
            tuple(map(ids.__getitem__, rhs)))


def ident(lhs_text: str, rhs_text: str) -> Identity:
    return Identity(iword(lhs_text), iword(rhs_text))


def parse_identity(text: str) -> Identity:
    """Parse ``"u ≈ v"`` or ``"u ~= v"``.  When both sides are plain letter
    sequences, the identity is encoded straight from the tokens, with no
    `IVar`; otherwise each side is read by `parse_side`.  Error positions
    index the whole text."""
    for sep in ("≈", "~="):
        i = text.find(sep)
        if i >= 0:
            j = i + len(sep)
            left, right = text[:i].split(), text[j:].split()
            distinct = {*left, *right}
            if left and right and _plain(distinct):
                return Identity._encoded(*_encode(
                    left, right, {tok: _token_letter(tok) for tok in distinct}))
            return Identity(parse_side(text, 0, i), parse_side(text, j, len(text)))
    raise ParseError("identity needs a '≈' or '~=' separator")


def _plain(tokens) -> bool:
    """Is every token a single letter: an identifier with its stars
    attached, as `format_iword` prints it?"""
    return all(_well_formed(tok) and _LETTER.fullmatch(tok) for tok in tokens)


def _token_letter(tok: str) -> tuple:
    """The (base, starred) pair of a single-letter token."""
    base = tok.rstrip("*")
    return base, (len(tok) - len(base)) % 2 == 1


def parse_side(text: str, pos: int = 0, endpos: int | None = None) -> IWord:
    """The word of the term in text[pos:endpos], parsed and flattened;
    error positions index all of text."""
    return flatten(_parse_term(text, pos, len(text) if endpos is None else endpos))


def letter_ids(ident: Identity):
    """The encoding an identity carries: sorted base names (a list), and
    both sides with every letter replaced by its id 2 * (index of the base)
    + starred; ids sort like the letters."""
    names, u, v = ident._encoding()
    return list(names), u, v


def id_letter(names, a: int) -> IVar:
    """The letter with id a under `letter_ids`, given its base names."""
    return IVar(names[a >> 1], bool(a & 1))


def common_ends(u, v) -> tuple[int, int]:
    """The lengths p and s of the longest common prefix of two sides and the
    longest common suffix of what follows it, by C-level passes."""
    short = min(len(u), len(v))
    p = next(compress(count(), map(ne, u, v)), short)
    s = next(compress(count(), map(ne, reversed(u), reversed(v))), short)
    return p, min(s, short - p)

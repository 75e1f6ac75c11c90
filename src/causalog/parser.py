"""Reader for the clause text format, which ``Program.to_text`` writes.

The surface syntax is one annotated clause per statement::

    % chance of recovery without treatment
    0.5 :: recovery.
    0.4 :: recovery :- treatment, \\+ severe.

Numbers are ASCII decimal literals (``[0-9]+(\\.[0-9]+)?``), ``%`` starts a
line comment, ``\\+`` negates a body atom and every clause ends with a
period. Proposition names are lowercase-initial ASCII identifiers; ``true``
and ``false`` are reserved for the query language. Any other character,
such as a non-ASCII digit or letter, is an unexpected character.

Two readers share the work, and both hand ``Program._trusted`` each
clause's engine row, building no ``Clause``, which the program builds on
first read. The scanner accepts: it matches one statement pattern per
clause, keying each distinct body text once. It checks only what the
pattern cannot (probabilities above 1, reserved names, contradictory bodies,
duplicate clauses, and that only blanks and comments follow the last
clause). It reads less than the grammar allows, for example no comment
inside a clause. Whenever it stops early or a check fails, the token walk
reads the whole text again: it parses what the scanner left to it and
explains why a text is rejected, with the position of the first fault.
``parse_assignment`` uses the token walk alone.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .graph import NAME, RESERVED_NAMES
from .model import Program, body_keys

# Token kinds: the groups of _LEXEME, and the end of input. Blanks and
# comments match no group; any character no other alternative takes is an
# error.
_EOF, _NUMBER, _IDENT, _PUNCT, _OTHER = range(5)
_LEXEME = re.compile(r"""
    [ \t\r\n]+ | %[^\n]*
  | ([0-9]+(?:\.[0-9]+)?)
  | ([A-Za-z_][A-Za-z0-9_]*)
  | (::|:-|\\\+|,|\.)
  | (.)
""", re.VERBOSE | re.DOTALL)

# (kind, text, offset of its first character); the text of a punctuation
# token is unlike any other token's, so it alone identifies the token
_Token = tuple[int, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens = [(m.lastindex, m[m.lastindex], m.start())
              for m in _LEXEME.finditer(text) if m.lastindex]
    for kind, word, offset in tokens:
        if kind == _OTHER:
            raise _error(text, offset, f"unexpected character {word!r}")
    # the end of input sits where the last line's comment, if any, begins
    end = text.find("%", text.rfind("\n") + 1)
    tokens.append((_EOF, "", len(text) if end < 0 else end))
    return tokens


def _error(text: str, offset: int, message: str) -> ParseError:
    """The error at ``offset`` of ``text``, with its line and column."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, tok: _Token, message: str) -> ParseError:
        return _error(self.text, tok[2], message)

    def unexpected(self, tok: _Token, wanted: str) -> ParseError:
        return self.error(tok, f"expected {wanted}, got {tok[1] or 'end of input'!r}")

    def expect_punct(self, text: str) -> None:
        tok = self.take()
        if tok[1] != text:
            raise self.unexpected(tok, repr(text))

    def expect_ident(self, what: str) -> _Token:
        tok = self.take()
        kind, name, _ = tok
        if kind != _IDENT:
            raise self.unexpected(tok, what)
        if not name[0].islower():
            raise self.error(
                tok, f"bad proposition name {name!r}: must start with a lowercase letter")
        if name in RESERVED_NAMES:
            raise self.error(tok, f"{name!r} is a reserved word")
        return tok


def parse_program(text: str) -> Program:
    """Parse clause text into a Program.

    Rejects, with source positions: syntax errors, probabilities outside
    [0, 1], a body mentioning an atom both positively and negatively, and two
    clauses sharing both effect and body.
    """
    program = _scan(text)
    return program if program is not None else _walk(text)


# The scanner's patterns. A statement is blanks and comments, then a clause
# or the end of the text. Every blank and comment, every number and every
# name is the token the tokenizer would read there: each is followed only
# by a character that cannot extend it. A comment runs to its line's end,
# so a run of blanks and comments splits one way only and a failed match
# never backtracks through it.
_B = r"[ \t\r\n]*"
_LIT = rf"(?:\\\+{_B})?{NAME}"
_STATEMENT = re.compile(
    rf"{_B}(?:%[^\n]*(?:\n|\Z){_B})*"
    rf"(?:([0-9]+(?:\.[0-9]+)?){_B}::{_B}({NAME}){_B}"
    rf"(?::-{_B}({_LIT}(?:{_B},{_B}{_LIT})*){_B})?\.|\Z)")
_LITERAL = re.compile(rf"(\\\+)?{_B}({NAME})")


def _scan(text: str) -> Program | None:
    """The program of ``text`` read one statement match at a time, or None
    where the text breaks a rule or holds what the scanner does not read."""
    entries: list[tuple[str, tuple, tuple, float]] = []
    # (effect, sort key) of each clause: the key is the sorted body, so two
    # clauses share it exactly when they share effect and body
    seen: set[tuple[str, tuple]] = set()
    # each distinct body text's two keys (model.body_keys), built once
    bodies: dict[str | None, tuple[tuple, tuple]] = {None: ((), ())}
    pos = 0
    while (m := _STATEMENT.match(text, pos)) is not None:
        number, effect, body = m.groups()
        if number is None:  # only blanks and comments were left
            return Program._trusted(entries)
        prob = float(number)
        if prob > 1.0 or effect in RESERVED_NAMES:
            return None
        keys = bodies.get(body)
        if keys is None:
            keys = body_keys({(name, neg != "") for neg, name in _LITERAL.findall(body)})
            names = dict(keys[0])
            if len(names) < len(keys[0]) or not RESERVED_NAMES.isdisjoint(names):
                return None
            bodies[body] = keys
        order, row = keys
        key = (effect, order)
        if key in seen:
            return None
        seen.add(key)
        entries.append((effect, order, row, prob))
        pos = m.end()
    return None


def _walk(text: str) -> Program:
    """The program of ``text`` read token by token; raises the ParseError of
    the first fault, at its position."""
    cur = _Cursor(text)
    entries: list[tuple[str, tuple, tuple, float]] = []
    seen: set[tuple[str, tuple]] = set()  # (effect, sort key), as in _scan
    while cur.peek()[0] != _EOF:
        start = cur.take()
        kind, word, _ = start
        if kind != _NUMBER:
            raise cur.error(start, f"expected a probability, got {word!r}")
        prob = float(word)
        if prob > 1.0:
            raise cur.error(start, f"probability {word} outside [0, 1]")
        cur.expect_punct("::")
        effect = cur.expect_ident("an effect atom")[1]
        sep = cur.take()
        body: dict[str, bool] = {}  # name -> positive
        if sep[1] == ":-":
            while True:
                positive = cur.peek()[1] != "\\+"
                if not positive:
                    cur.take()
                atom = cur.expect_ident("a body atom")
                name = atom[1]
                if body.setdefault(name, positive) != positive:
                    raise cur.error(atom, f"contradictory body: {name} appears both "
                                    "positively and negatively")
                nxt = cur.take()
                if nxt[1] == ".":
                    break
                if nxt[1] != ",":
                    raise cur.unexpected(nxt, "',' or '.'")
        elif sep[1] != ".":
            raise cur.unexpected(sep, "':-' or '.'")
        order, row = body_keys([(name, not positive) for name, positive in body.items()])
        if (effect, order) in seen:
            raise cur.error(start, f"duplicate clause for {effect}: same body already given")
        seen.add((effect, order))
        entries.append((effect, order, row, prob))
    return Program._trusted(entries)


def parse_assignment(text: str) -> dict[str, bool]:
    """Parse a comma-separated literal list such as ``\\+treatment,recovery``
    into an assignment. Used for command line evidence and interventions; a
    list needs at least one literal."""
    cur = _Cursor(text)
    out: dict[str, bool] = {}
    while True:
        positive = cur.peek()[1] != "\\+"
        if not positive:
            cur.take()
        atom = cur.expect_ident("a proposition")
        if atom[1] in out:
            raise cur.error(atom, f"{atom[1]} assigned twice")
        out[atom[1]] = positive
        nxt = cur.take()
        if nxt[0] == _EOF:
            return out
        if nxt[1] != ",":
            raise cur.unexpected(nxt, "',' between literals")

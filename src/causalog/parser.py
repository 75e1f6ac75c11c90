"""Reader and writer for the clause text format.

The surface syntax is one annotated clause per statement::

    % chance of recovery without treatment
    0.5 :: recovery.
    0.4 :: recovery :- treatment, \\+ severe.

Numbers are plain decimal literals, ``%`` starts a line comment, ``\\+``
negates a body atom and every clause ends with a period. Proposition names
are lowercase-initial identifiers; ``true`` and ``false`` are reserved for
the query language.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .graph import RESERVED_NAMES
from .model import Clause, Literal, Program

# token kinds
_NUMBER = "number"
_IDENT = "ident"
_PUNCT = "punct"
_EOF = "eof"

_PUNCTUATION = ("::", ":-", "\\+", ",", ".")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == "." and i + 1 < n and text[i + 1].isdigit():
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(_Token(_NUMBER, text[start:i], line, start_col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            tokens.append(_Token(_IDENT, word, line, start_col))
            col += i - start
            continue
        for punct in _PUNCTUATION:
            if text.startswith(punct, i):
                tokens.append(_Token(_PUNCT, punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token(_EOF, "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind != _PUNCT or tok.text != text:
            got = tok.text or "end of input"
            raise ParseError(f"expected {text!r}, got {got!r}", tok.line, tok.column)
        return tok

    def expect_ident(self, what: str) -> _Token:
        tok = self.take()
        if tok.kind != _IDENT:
            got = tok.text or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", tok.line, tok.column)
        if not tok.text[0].islower():
            raise ParseError(
                f"bad proposition name {tok.text!r}: must start with a lowercase letter",
                tok.line, tok.column,
            )
        if tok.text in RESERVED_NAMES:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.column)
        return tok


def parse_program(text: str) -> Program:
    """Parse clause text into a Program.

    Rejects, with source positions: syntax errors, probabilities outside
    [0, 1], a body mentioning an atom both positively and negatively, and two
    clauses sharing both effect and body.
    """
    cur = _Cursor(_tokenize(text))
    clauses: list[Clause] = []
    seen: dict[tuple[str, frozenset[Literal]], tuple[int, int]] = {}
    while cur.peek().kind != _EOF:
        start = cur.peek()
        prob_tok = cur.take()
        if prob_tok.kind != _NUMBER:
            raise ParseError(
                f"expected a probability, got {prob_tok.text!r}",
                prob_tok.line, prob_tok.column,
            )
        prob = float(prob_tok.text)
        if prob > 1.0:
            raise ParseError(
                f"probability {prob_tok.text} outside [0, 1]",
                prob_tok.line, prob_tok.column,
            )
        cur.expect_punct("::")
        effect = cur.expect_ident("an effect atom").text
        sep = cur.take()
        body: dict[str, Literal] = {}
        if sep.kind == _PUNCT and sep.text == ":-":
            while True:
                positive = True
                if cur.peek().kind == _PUNCT and cur.peek().text == "\\+":
                    cur.take()
                    positive = False
                atom = cur.expect_ident("a body atom")
                prior = body.get(atom.text)
                if prior is not None and prior.positive != positive:
                    raise ParseError(
                        f"contradictory body: {atom.text} appears both "
                        "positively and negatively",
                        atom.line, atom.column,
                    )
                body[atom.text] = Literal(atom.text, positive)
                nxt = cur.take()
                if nxt.kind == _PUNCT and nxt.text == ",":
                    continue
                if nxt.kind == _PUNCT and nxt.text == ".":
                    break
                got = nxt.text or "end of input"
                raise ParseError(f"expected ',' or '.', got {got!r}", nxt.line, nxt.column)
        elif not (sep.kind == _PUNCT and sep.text == "."):
            got = sep.text or "end of input"
            raise ParseError(f"expected ':-' or '.', got {got!r}", sep.line, sep.column)
        clause = Clause(effect, frozenset(body.values()), prob)
        if clause.key in seen:
            raise ParseError(
                f"duplicate clause for {effect}: same body already given",
                start.line, start.column,
            )
        seen[clause.key] = (start.line, start.column)
        clauses.append(clause)
    return Program(clauses)


def print_program(program: Program) -> str:
    """Canonical text of a program; ``parse_program`` inverts it exactly."""
    return program.to_text()


def parse_assignment(text: str) -> dict[str, bool]:
    """Parse a comma-separated literal list such as ``\\+treatment,recovery``
    into an assignment. Used for command line evidence and interventions."""
    cur = _Cursor(_tokenize(text))
    out: dict[str, bool] = {}
    if cur.peek().kind == _EOF:
        return out
    while True:
        positive = True
        if cur.peek().kind == _PUNCT and cur.peek().text == "\\+":
            cur.take()
            positive = False
        atom = cur.expect_ident("a proposition")
        if atom.text in out:
            raise ParseError(f"{atom.text} assigned twice", atom.line, atom.column)
        out[atom.text] = positive
        nxt = cur.take()
        if nxt.kind == _EOF:
            return out
        if not (nxt.kind == _PUNCT and nxt.text == ","):
            got = nxt.text or "end of input"
            raise ParseError(f"expected ',' between literals, got {got!r}", nxt.line, nxt.column)

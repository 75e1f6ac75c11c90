"""Propositional query formulas.

Grammar, loosest binding first::

    formula := formula "|" formula
             | formula "&" formula
             | "!" formula
             | "(" formula ")"
             | "true" | "false"
             | atom

Formulas are queried against a program, so atoms are checked: unknown names
are rejected, and so are the program's generated noise names
(``Program.noise_names``), which are not observable. A chain of ``&`` or
``|`` is kept as a balanced tree, and a formula nesting deeper than
``MAX_DEPTH`` is refused, so that no formula reaches the interpreter's
recursion limit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from .errors import FormulaError
from .frozen import Frozen

if TYPE_CHECKING:
    from .model import Program

# the deepest nesting of a formula: operators on a path from the root to an
# atom, and parentheses
MAX_DEPTH = 100


class Formula:
    """Base class; concrete nodes are Atom, Not, And, Or and Const."""

    def atoms(self) -> frozenset[str]:
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        """Truth value under ``env``. Works elementwise when the environment
        maps atoms to boolean arrays."""
        raise NotImplementedError

    def map_atoms(self, rename: Callable[[str], str]) -> "Formula":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()


class Atom(Formula, Frozen):
    _fields = ("name",)

    def __init__(self, name: str):
        self.__dict__["name"] = name

    def atoms(self) -> frozenset[str]:
        return frozenset({self.name})

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        return env[self.name]

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return Atom(rename(self.name))

    def to_text(self) -> str:
        return self.name


class Const(Formula, Frozen):
    _fields = ("value",)

    def __init__(self, value: bool):
        self.__dict__["value"] = value

    def atoms(self) -> frozenset[str]:
        return frozenset()

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        return self.value

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return self

    def to_text(self) -> str:
        return "true" if self.value else "false"


class Not(Formula, Frozen):
    _fields = ("operand",)

    def __init__(self, operand: Formula):
        self.__dict__["operand"] = operand

    def atoms(self) -> frozenset[str]:
        return self.operand.atoms()

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        import numpy as np

        return np.logical_not(self.operand.evaluate(env))

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return Not(self.operand.map_atoms(rename))

    def to_text(self) -> str:
        inner = self.operand.to_text()
        if isinstance(self.operand, _Binary):
            inner = f"({inner})"
        return f"!{inner}"


class _Binary(Formula, Frozen):
    """A node over two operands; a subclass names its ufunc and writes its
    text."""

    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self.__dict__.update(left=left, right=right)

    def atoms(self) -> frozenset[str]:
        return self.left.atoms() | self.right.atoms()

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        import numpy as np

        return getattr(np, self._ufunc)(self.left.evaluate(env), self.right.evaluate(env))

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return type(self)(self.left.map_atoms(rename), self.right.map_atoms(rename))


class And(_Binary):
    _ufunc = "logical_and"

    def to_text(self) -> str:
        parts = []
        for side in (self.left, self.right):
            text = side.to_text()
            if isinstance(side, Or):
                text = f"({text})"
            parts.append(text)
        return " & ".join(parts)


class Or(_Binary):
    _ufunc = "logical_or"

    def to_text(self) -> str:
        return f"{self.left.to_text()} | {self.right.to_text()}"


def conjunction_of(assignment: Mapping[str, bool]) -> Formula:
    """The conjunction asserting every entry of the assignment; ``true`` when
    the assignment is empty. Atoms are combined in name order, as a balanced
    tree."""
    if not assignment:
        return Const(True)
    return _balanced(And, [Atom(name) if assignment[name] else Not(Atom(name))
                           for name in sorted(assignment)])


def literals_of(formula: Formula) -> dict[str, bool] | None:
    """The assignment a conjunction of literals asserts, the inverse of
    ``conjunction_of``: ``{}`` for ``true``, None for any other formula and
    for a conjunction that asserts some atom both ways."""
    out: dict[str, bool] = {}
    pending = [formula]
    while pending:
        f = pending.pop()
        if isinstance(f, And):
            pending += (f.right, f.left)
            continue
        if isinstance(f, Const) and f.value:
            continue
        positive = not isinstance(f, Not)
        atom = f if positive else f.operand
        if not isinstance(atom, Atom) or out.setdefault(atom.name, positive) != positive:
            return None
    return out


def _balanced(op: type[_Binary], terms: Sequence[Formula]) -> Formula:
    """``op`` over ``terms`` in order, as a tree of depth log2(len(terms))."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return op(_balanced(op, terms[:mid]), _balanced(op, terms[mid:]))


class _FormulaCursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.parens = 0  # the parentheses open at ``pos``

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]


def _check_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise FormulaError(f"formula nests deeper than {MAX_DEPTH} levels")


def parse_formula(text: str, program: Program | None = None) -> Formula:
    """Parse a query formula.

    When ``program`` is given, every atom is checked against its internal
    propositions: an unknown atom is an error, and so is an atom naming one
    of the program's generated noise propositions (``Program.noise_names``),
    which are not observable.
    """
    cur = _FormulaCursor(text)
    formula, _ = _parse_or(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise FormulaError(
            f"unexpected trailing text at position {cur.pos + 1}: {cur.text[cur.pos:]!r}"
        )
    if program is not None:
        check_atoms(formula, program)
    return formula


def check_atoms(formula: Formula, program: Program) -> None:
    """Reject atoms outside the program's internal alphabet."""
    check_names(sorted(formula.atoms()), program)


def check_names(names: Iterable[str], program: Program) -> None:
    """Reject names outside the program's internal alphabet, naming the first
    offender in the order given. Only an offender needs the program's noise
    names, so a query lists them only to explain an error."""
    internal = program.dependency_graph().nodes
    for name in names:
        if name in internal:
            continue
        if name in program.noise_names:
            raise FormulaError(
                f"{name} names a generated noise proposition and cannot be queried"
            )
        raise FormulaError(f"unknown proposition {name!r}")


# Each parsing function returns a formula and its depth, the operators on its
# longest path from the root to an atom.


def _parse_or(cur: _FormulaCursor) -> tuple[Formula, int]:
    return _parse_chain(cur, "|", Or, _parse_and)


def _parse_and(cur: _FormulaCursor) -> tuple[Formula, int]:
    return _parse_chain(cur, "&", And, _parse_not)


def _parse_chain(cur: _FormulaCursor, symbol: str, op: type[_Binary],
                 operand: Callable[[_FormulaCursor], tuple[Formula, int]]
                 ) -> tuple[Formula, int]:
    terms = [operand(cur)]
    while cur.peek() == symbol:
        cur.pos += 1
        terms.append(operand(cur))
    # a balanced tree over k terms is ceil(log2 k) deep
    depth = max(d for _, d in terms) + (len(terms) - 1).bit_length()
    _check_depth(depth)
    return _balanced(op, [f for f, _ in terms]), depth


def _parse_not(cur: _FormulaCursor) -> tuple[Formula, int]:
    negations = 0
    while cur.peek() == "!":
        cur.pos += 1
        negations += 1
    formula, depth = _parse_primary(cur)
    depth += negations
    _check_depth(depth)
    for _ in range(negations):
        formula = Not(formula)
    return formula, depth


def _parse_primary(cur: _FormulaCursor) -> tuple[Formula, int]:
    ch = cur.peek()
    if ch == "(":
        # each parenthesis recurses, so their nesting is bounded as well
        cur.pos += 1
        cur.parens += 1
        _check_depth(cur.parens)
        inner = _parse_or(cur)
        if cur.peek() != ")":
            raise FormulaError(f"missing ')' at position {cur.pos + 1}")
        cur.pos += 1
        cur.parens -= 1
        return inner
    if not ch:
        raise FormulaError("unexpected end of formula")
    if ch.isalpha():
        word = cur.take_word()
        if word == "true":
            return Const(True), 0
        if word == "false":
            return Const(False), 0
        if not word[0].islower():
            raise FormulaError(f"bad atom {word!r}: must start with a lowercase letter")
        return Atom(word), 0
    raise FormulaError(f"unexpected character {ch!r} at position {cur.pos + 1}")

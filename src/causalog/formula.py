"""Propositional query formulas.

Grammar, loosest binding first::

    formula := formula "|" formula
             | formula "&" formula
             | "!" formula
             | "(" formula ")"
             | "true" | "false"
             | atom

Formulas are queried against a program, so atoms are checked: unknown names
are rejected, and so are the generated noise names of the program's desugared
form, which are not observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from .errors import FormulaError


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


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def atoms(self) -> frozenset[str]:
        return frozenset({self.name})

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        return env[self.name]

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return Atom(rename(self.name))

    def to_text(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Formula):
    value: bool

    def atoms(self) -> frozenset[str]:
        return frozenset()

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        return self.value

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return self

    def to_text(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def atoms(self) -> frozenset[str]:
        return self.operand.atoms()

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        return np.logical_not(self.operand.evaluate(env))

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return Not(self.operand.map_atoms(rename))

    def to_text(self) -> str:
        inner = self.operand.to_text()
        if isinstance(self.operand, (And, Or)):
            inner = f"({inner})"
        return f"!{inner}"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def atoms(self) -> frozenset[str]:
        return self.left.atoms() | self.right.atoms()

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        return np.logical_and(self.left.evaluate(env), self.right.evaluate(env))

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return And(self.left.map_atoms(rename), self.right.map_atoms(rename))

    def to_text(self) -> str:
        parts = []
        for side in (self.left, self.right):
            text = side.to_text()
            if isinstance(side, Or):
                text = f"({text})"
            parts.append(text)
        return " & ".join(parts)


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def atoms(self) -> frozenset[str]:
        return self.left.atoms() | self.right.atoms()

    def evaluate(self, env: Mapping[str, Any]) -> Any:
        return np.logical_or(self.left.evaluate(env), self.right.evaluate(env))

    def map_atoms(self, rename: Callable[[str], str]) -> Formula:
        return Or(self.left.map_atoms(rename), self.right.map_atoms(rename))

    def to_text(self) -> str:
        return f"{self.left.to_text()} | {self.right.to_text()}"


def conjunction_of(assignment: Mapping[str, bool]) -> Formula:
    """The conjunction asserting every entry of the assignment; ``true`` when
    the assignment is empty. Atoms are combined in name order."""
    formula: Formula | None = None
    for name in sorted(assignment):
        term: Formula = Atom(name) if assignment[name] else Not(Atom(name))
        formula = term if formula is None else And(formula, term)
    return Const(True) if formula is None else formula


class _FormulaCursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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


def parse_formula(text: str, program: Any = None) -> Formula:
    """Parse a query formula.

    When ``program`` is given (a Program or DesugaredProgram), every atom is
    checked against its alphabet: unknown atoms are an error, and atoms naming
    generated noise propositions are rejected as unobservable.
    """
    cur = _FormulaCursor(text)
    formula = _parse_or(cur)
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise FormulaError(
            f"unexpected trailing text at position {cur.pos + 1}: {cur.text[cur.pos:]!r}"
        )
    if program is not None:
        check_atoms(formula, program)
    return formula


def check_atoms(formula: Formula, program: Any) -> None:
    """Reject atoms outside the program's internal alphabet."""
    check_names(sorted(formula.atoms()), program)


def check_names(names: Iterable[str], program: Any) -> None:
    """Reject names outside the program's internal alphabet, naming the first
    offender in the order given."""
    internal = set(_internal_names(program))
    noise = set(_noise_names(program))
    for name in names:
        if name in internal:
            continue
        if name in noise:
            raise FormulaError(
                f"{name} names a generated noise proposition and cannot be queried"
            )
        raise FormulaError(f"unknown proposition {name!r}")


def _internal_names(program: Any) -> tuple[str, ...]:
    if hasattr(program, "internal_propositions"):
        return program.internal_propositions
    return program.propositions


def _noise_names(program: Any) -> tuple[str, ...]:
    if hasattr(program, "noise_names"):
        return program.noise_names
    return program.desugar().noise_names


def _parse_or(cur: _FormulaCursor) -> Formula:
    left = _parse_and(cur)
    while cur.peek() == "|":
        cur.pos += 1
        left = Or(left, _parse_and(cur))
    return left


def _parse_and(cur: _FormulaCursor) -> Formula:
    left = _parse_not(cur)
    while cur.peek() == "&":
        cur.pos += 1
        left = And(left, _parse_not(cur))
    return left


def _parse_not(cur: _FormulaCursor) -> Formula:
    if cur.peek() == "!":
        cur.pos += 1
        return Not(_parse_not(cur))
    return _parse_primary(cur)


def _parse_primary(cur: _FormulaCursor) -> Formula:
    ch = cur.peek()
    if ch == "(":
        cur.pos += 1
        inner = _parse_or(cur)
        if cur.peek() != ")":
            raise FormulaError(f"missing ')' at position {cur.pos + 1}")
        cur.pos += 1
        return inner
    if not ch:
        raise FormulaError("unexpected end of formula")
    if ch.isalpha():
        word = cur.take_word()
        if word == "true":
            return Const(True)
        if word == "false":
            return Const(False)
        if not word[0].islower():
            raise FormulaError(f"bad atom {word!r}: must start with a lowercase letter")
        return Atom(word)
    raise FormulaError(f"unexpected character {ch!r} at position {cur.pos + 1}")

import re

import pytest

from causalog import (
    And,
    Atom,
    Const,
    FormulaError,
    Not,
    Or,
    Program,
    conjunction_of,
    parse_formula,
    parse_program,
)
from causalog.formula import MAX_DEPTH, literals_of

NOISE = "{} names a generated noise proposition and cannot be queried"


def test_parse_precedence():
    phi = parse_formula("a | b & !c")
    assert phi == Or(Atom("a"), And(Atom("b"), Not(Atom("c"))))


def test_parse_parentheses():
    phi = parse_formula("(a | b) & c")
    assert phi == And(Or(Atom("a"), Atom("b")), Atom("c"))


def test_literals_of_reads_conjunctions_of_literals_only():
    assignment = {f"a{k}": k % 3 == 0 for k in range(20)}
    assert literals_of(conjunction_of(assignment)) == assignment
    assert literals_of(Const(True)) == {}
    assert literals_of(parse_formula("a & !b & (c & a)")) == {"a": True, "b": False, "c": True}
    # a formula, or literals that contradict each other, is not an assignment
    for text in ("false", "a | b", "!!a", "!(a & b)", "a & b & !a"):
        assert literals_of(parse_formula(text)) is None, text


def test_constants():
    assert parse_formula("true") == Const(True)
    assert bool(parse_formula("!false").evaluate({}))


def test_to_text_round_trip():
    for text in ("a", "!a", "a & b | c", "(a | b) & !(c | d)", "a & b & c"):
        phi = parse_formula(text)
        assert parse_formula(phi.to_text()) == phi


def test_evaluate():
    phi = parse_formula("a & !b | c")
    assert phi.evaluate({"a": True, "b": False, "c": False})
    assert not phi.evaluate({"a": True, "b": True, "c": False})
    assert phi.evaluate({"a": False, "b": True, "c": True})


def test_atoms():
    assert parse_formula("a & (b | !a)").atoms() == frozenset({"a", "b"})


def test_map_atoms():
    phi = parse_formula("a & !b")
    renamed = phi.map_atoms(lambda n: n + "__e")
    assert renamed.atoms() == frozenset({"a__e", "b__e"})


def test_conjunction_of_sorts_names():
    phi = conjunction_of({"b": False, "a": True})
    assert phi.evaluate({"a": True, "b": False})
    assert not phi.evaluate({"a": True, "b": True})
    assert phi.to_text() == "a & !b"


def test_conjunction_of_empty_is_true():
    assert conjunction_of({}) == Const(True)


@pytest.mark.parametrize("bad", ["", "a &", "a b", "(a", "a & & b", "!"])
def test_parse_errors(bad):
    with pytest.raises(FormulaError):
        parse_formula(bad)


def test_unknown_atom_rejected_against_program(boost_program):
    with pytest.raises(FormulaError, match="unknown proposition 'cure'"):
        parse_formula("cure", boost_program)


def test_noise_atom_rejected_against_program(boost_program):
    # u1 is the noise fact the program's first clause desugars to
    with pytest.raises(FormulaError, match="u1 names a generated noise proposition"):
        parse_formula("u1", boost_program)


@pytest.mark.parametrize("text, name, message", [
    ("0.5 :: a.\n0.4 :: b :- a.\n", "u1", NOISE),
    ("0.5 :: a.\n0.4 :: b :- a.\n", "u2", NOISE),
    ("0.5 :: a.\n0.4 :: b :- a.\n", "u3", "unknown proposition 'u3'"),
    ("0.5 :: u1.\n0.4 :: b :- u1.\n", "uu1", NOISE),
    ("0.5 :: u1.\n0.4 :: b :- u1.\n", "u2", NOISE),
    ("0.5 :: u2.\n0.4 :: b :- u2.\n", "uu2", NOISE),
    ("0.5 :: u2.\n0.4 :: b :- u2.\n", "uu1", "unknown proposition 'uu1'"),
], ids=["u1", "u2", "past-the-last", "uu1", "after-uu1", "uu2", "not-uu1"])
def test_noise_atom_rejected_without_desugaring(monkeypatch, text, name, message):
    # u<i> names the i-th clause's noise, with more leading u's while that
    # names a proposition; the check lists those names from the rows
    program = parse_program(text)
    monkeypatch.setattr(Program, "desugar", lambda self: pytest.fail("the check desugared"))
    with pytest.raises(FormulaError, match=f"^{re.escape(message.format(name))}$"):
        parse_formula(name, program)


def test_known_atom_accepted_against_program(boost_program):
    assert parse_formula("recovery & !treatment", boost_program) is not None


def depth(phi):
    if isinstance(phi, Not):
        return 1 + depth(phi.operand)
    if isinstance(phi, (And, Or)):
        return 1 + max(depth(phi.left), depth(phi.right))
    return 0


def test_long_chains_are_balanced():
    names = [f"n{k}" for k in range(3000)]
    phi = conjunction_of({name: k % 2 == 0 for k, name in enumerate(names)})
    assert depth(phi) == 13  # 12 levels of And over 3000 terms, then a Not
    assert phi.atoms() == frozenset(names)
    for op in (" & ", " | "):
        text = op.join(names)
        parsed = parse_formula(text)
        assert depth(parsed) == 12
        assert parsed.to_text() == text


def test_nesting_limit():
    assert depth(parse_formula("!" * MAX_DEPTH + "a")) == MAX_DEPTH
    assert parse_formula("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH) == Atom("a")
    for text in ("!" * (MAX_DEPTH + 1) + "a",
                 "(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1),
                 "!" * 3000 + "a",
                 "(" * 3000 + "a" + ")" * 3000,
                 # 95 negations over a chain of 64, which is 6 levels deep
                 "!" * (MAX_DEPTH - 5) + "(" + " & ".join(["a"] * 64) + ")"):
        with pytest.raises(FormulaError, match=f"deeper than {MAX_DEPTH} levels"):
            parse_formula(text)

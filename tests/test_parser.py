import re

import pytest

from causalog import (
    Atom,
    Clause,
    Literal,
    ParseError,
    Program,
    ProgramError,
    counterfactual_query,
    intervene,
    joint_table,
    parse_assignment,
    parse_program,
    probability,
)
from causalog import parser
from causalog.engine import marginal
from causalog.model import float_text

from conftest import BOOST_TEXT, SWITCH_TEXT
from proggen import (
    numpy_rng,
    program_text_variant,
    random_program,
    with_negation_and_certainty,
)


def test_parses_facts_and_rules(boost_program):
    clauses = boost_program.clauses
    assert len(clauses) == 3
    assert clauses[0] == Clause("treatment", frozenset(), 0.5)
    assert clauses[2] == Clause("recovery", frozenset({Literal("treatment")}), 0.4)


def test_print_parse_round_trip(boost_program, switch_program):
    for program in (boost_program, switch_program):
        assert parse_program(program.to_text()) == program


def test_canonical_text_is_stable():
    shuffled = "0.4 :: recovery :- treatment.\n0.5 :: recovery.\n0.5 :: treatment.\n"
    assert parse_program(shuffled).to_text() == BOOST_TEXT


def test_negative_literal_has_space_in_output():
    assert "\\+ treatment" in parse_program(SWITCH_TEXT).to_text()


def test_comments_and_blank_lines_ignored():
    text = "% header\n\n0.5 :: a.  % trailing\n%% another\n0.25 :: b :- a.\n"
    program = parse_program(text)
    assert [c.effect for c in program.clauses] == ["a", "b"]


def test_integer_probability_parses():
    program = parse_program("1 :: a.\n0 :: b.\n")
    assert program.clauses[0].probability == 1.0
    assert program.clauses[1].probability == 0.0


def test_body_literal_order_does_not_matter():
    left = parse_program("0.2 :: c :- a, b.\n")
    right = parse_program("0.2 :: c :- b, a.\n")
    assert left == right


def test_duplicate_same_polarity_literal_collapses():
    program = parse_program("0.2 :: c :- a, a.\n")
    assert program.clauses[0].causes == frozenset({Literal("a")})


@pytest.mark.parametrize("bad, fragment", [
    ("0.5 : a.", "unexpected character"),
    ("0.5 :: a", "expected"),
    ("recovery :- treatment.", "probability"),
    ("1.5 :: a.", "outside [0, 1]"),
    ("0.5 :: Big.", "Big"),
    ("0.5 :: true.", "true"),
    ("0.5 :: c :- a, \\+ a.", "contradictory"),
    ("0.5 :: a.\n0.6 :: a.", "duplicate clause for a"),
    ("0.5 :: c :- .", "body atom"),
    (".5 :: a.", "probability"),
])
def test_rejections(bad, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(bad)
    assert fragment in str(err.value)


@pytest.mark.parametrize("bad, line, column, message", [
    ("0.5 : a.", 1, 5, "unexpected character ':'"),
    ("0.5 :: a", 1, 9, "expected ':-' or '.', got 'end of input'"),
    ("recovery :- treatment.", 1, 1, "expected a probability, got 'recovery'"),
    ("1.5 :: a.", 1, 1, "probability 1.5 outside [0, 1]"),
    ("0.5 :: Big.", 1, 8, "bad proposition name 'Big': must start with a lowercase letter"),
    ("0.5 :: true.", 1, 8, "'true' is a reserved word"),
    ("0.5 :: c :- a, \\+ a.", 1, 19,
     "contradictory body: a appears both positively and negatively"),
    ("0.5 :: a.\n0.6 :: a.", 2, 1, "duplicate clause for a: same body already given"),
    ("0.5 :: c :- .", 1, 13, "expected a body atom, got '.'"),
    (".5 :: a.", 1, 1, "expected a probability, got '.'"),
    # the end of input sits where a trailing comment begins
    ("0.5 :: a % no period", 1, 10, "expected ':-' or '.', got 'end of input'"),
    ("0.5 :: a.\n\t0.5 :: b :- a\n", 3, 1, "expected ',' or '.', got 'end of input'"),
    # numbers and names are ASCII
    ("\u00b2 :: a.", 1, 1, "unexpected character '\u00b2'"),  # superscript two
    ("1\u0663 :: b.", 1, 2, "unexpected character '\u0663'"),  # Arabic-Indic three
    ("0.5 :: caf\u00e9.", 1, 11, "unexpected character '\u00e9'"),
])
def test_rejection_positions(bad, line, column, message):
    with pytest.raises(ParseError) as err:
        parse_program(bad)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_print_parse_round_trip_on_random_programs():
    rng = numpy_rng(11)
    for _ in range(200):
        program = random_program(rng, max_nodes=7)
        for candidate in (program, with_negation_and_certainty(rng, program)):
            assert parse_program(candidate.to_text()) == candidate


def test_program_text_is_written_from_the_rows():
    # to_text writes each (body, fire) row as the clauses would be written,
    # in the same order, for negation, certainty, weights that print
    # positionally, declared-only nodes and cycles, and builds no Clause
    rng = numpy_rng(29)
    programs = []
    for _ in range(100):
        program = random_program(rng, max_nodes=7)
        programs += [program, with_negation_and_certainty(rng, program)]
    programs += [
        Program([Clause("a", frozenset(), 1e-21), Clause("b", frozenset(), 1),
                 Clause("c", frozenset({Literal("b"), Literal("a", False)}), 1e-21)],
                declared=["z", "d"]),
        parse_program("0.5 :: a :- b.\n0.25 :: b :- a, \\+ c.\n0.125 :: c.\n"
                      "0.75 :: a :- c.\n1 :: d :- \\+ a.\n"),
    ]
    for program in programs:
        want = "".join(c.text() + "\n" for c in program.clauses)
        assert program.to_text() == want
        rows_only = parse_program(want)
        assert rows_only.to_text() == want
        assert "clauses" not in rows_only.__dict__
    assert programs[-2].to_text() == ("0.000000000000000000001 :: a.\n1.0 :: b.\n"
                                      "0.000000000000000000001 :: c :- \\+ a, b.\n")
    assert not programs[-1].dependency_graph().is_acyclic()


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("0.5 :: a.\n2.0 :: b.\n")
    assert err.value.line == 2
    assert err.value.column == 1
    assert str(err.value).startswith("line 2, column 1:")


def test_same_effect_different_bodies_allowed():
    program = parse_program("0.5 :: a.\n0.2 :: c :- a.\n0.3 :: c :- \\+ a.\n")
    assert [c.effect for c in program.clauses].count("c") == 2


def test_program_rejects_duplicate_keys_directly():
    with pytest.raises(ProgramError):
        Program([Clause("a", frozenset(), 0.2), Clause("a", frozenset(), 0.9)])


def test_parse_assignment():
    assert parse_assignment("\\+treatment,recovery") == {
        "treatment": False,
        "recovery": True,
    }
    assert parse_assignment(" a , \\+ b ") == {"a": True, "b": False}
    # a list of no literal is as malformed as one ending in a comma
    for text in ("", " ", "a,"):
        with pytest.raises(ParseError, match="expected a proposition, got 'end of input'"):
            parse_assignment(text)
    with pytest.raises(ParseError) as err:
        parse_assignment("a b")
    assert str(err.value) == "line 1, column 3: expected ',' between literals, got 'b'"


def test_parse_assignment_rejects_double_binding():
    with pytest.raises(ParseError, match="assigned twice"):
        parse_assignment("a,\\+a")


def test_empty_program_round_trip():
    program = parse_program("")
    assert program.clauses == ()
    assert program.to_text() == ""


def test_tiny_probabilities_print_positionally():
    # the program syntax has no exponent, so 1e-05 must print as 0.00001
    rng = numpy_rng(5)
    randoms = [float(rng.random()) * 10.0 ** -float(rng.uniform(0, 320)) for _ in range(500)]
    for p in [1e-5, 1e-300, 5e-324, 2.5e-5, 1e-4, 0.125, 1.0, 0.0, *randoms]:
        text = float_text(p)
        assert float(text) == p and "e" not in text
        program = Program([Clause("a", frozenset(), p)])
        assert parse_program(program.to_text()) == program
    assert float_text(1e-5) == "0.00001"
    assert float_text(0.1) == "0.1"


# characters a mutation inserts: the syntax's own, blanks, and non-ASCII
# digits, letters and spaces that ASCII-only rules must refuse
_ALPHABET = list(" \t\r\n%:-.,\\+_0123456789abnAZ") + [
    "\u0663", "\u00b2", "\uff11", "\u00e9", "\u0131", "\u00a0", "\u2028"]
_NAME_AT = re.compile(r"(?<![A-Za-z0-9_])n[0-9]+")
_NUMBER_AT = re.compile(r"[0-9]+(?:\.[0-9]+)?")


def _mutate(rng, text, program):
    """``text`` with one random fault or oddity put in."""
    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def at(pattern):
        found = list(pattern.finditer(text))
        return pick(found) if found else None

    def clause_text(c, extra=()):
        lits = [str(lit) for lit in c.sorted_body()] + list(extra)
        body = f" :- {', '.join(lits)}" if lits else ""
        return f"{float_text(c.probability)} :: {c.effect}{body}."

    i = int(rng.integers(len(text) + 1))
    kind = int(rng.integers(9))
    if kind == 0 and text:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + pick(_ALPHABET) + text[i:]
    if kind == 2 and text:
        return text[:i] + pick(_ALPHABET) + text[i + 1:]
    if kind == 3 and (m := at(_NAME_AT)):
        name = pick([m[0].capitalize(), "true", "false", "_" + m[0], m[0] + "\u00e9"])
        return text[:m.start()] + name + text[m.end():]
    if kind == 4 and (m := at(_NUMBER_AT)):
        number = pick(["1.5", "2", "10", "1.0000001", "1.00", "0", "1\u0663", "\u0663",
                       "0.\u0663", "\u0660", "\uff10.5"])
        return text[:m.start()] + number + text[m.end():]
    if kind == 5 and program.clauses:
        c = pick(program.clauses)
        line = clause_text(c)
        return pick([text + "\n" + line, line + "\n" + text])
    if kind == 6 and program.clauses:
        bodied = [c for c in program.clauses if c.causes] or program.clauses
        c = pick(bodied)
        lit = pick(sorted(c.causes)) if c.causes else None
        extra = [str(Literal(lit.name, not lit.positive)) if lit else "\\+ " + c.effect]
        return text + "\n" + clause_text(c, extra) + "\n"
    if kind == 7:
        spots = [m.end() for m in re.finditer(r":-|,", text)] or [i]
        spot = pick(spots)
        return text[:spot] + pick([" % inside\n", "%\n", "% x\r\n "]) + text[spot:]
    return text.rstrip(" \t\r\n") if rng.random() < 0.5 else text + "%"


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as err:
        return err


def test_scanner_agrees_with_token_walk():
    # parse_program must return the token walk's program, clause order
    # included, or raise the walk's error at the walk's position
    rng = numpy_rng(12)
    counts = {"scanned": 0, "walked": 0, "rejected": 0}
    for _ in range(250):
        program = with_negation_and_certainty(rng, random_program(rng, max_nodes=7))
        for _ in range(8):
            text = program_text_variant(rng, program)
            for _ in range(int(rng.integers(0, 3))):
                text = _mutate(rng, text, program)
            expected = _outcome(parser._walk, text)
            got = _outcome(parse_program, text)
            if isinstance(expected, ParseError):
                assert isinstance(got, ParseError), text
                assert (str(got), got.line, got.column) == (
                    str(expected), expected.line, expected.column), text
                counts["rejected"] += 1
            else:
                assert isinstance(got, Program), text
                assert got == expected and got.clauses == expected.clauses, text
                # the scanner's Program._trusted groups the engine's rows and
                # builds the graph as the checked constructor does
                assert got._rows == expected._rows, text
                assert got.dependency_graph() == expected.dependency_graph(), text
                assert got.to_text() == expected.to_text(), text
                counts["walked" if parser._scan(text) is None else "scanned"] += 1
    # every reader took a fair share of the 2,000 texts
    assert min(counts.values()) >= 50, counts


def test_parsed_programs_build_clauses_on_first_read(monkeypatch):
    built = []
    for cls in (Clause, Literal):
        def counting(kind, _make=cls._trusted.__func__, **fields):
            built.append(kind.__name__)
            return _make(kind, **fields)
        monkeypatch.setattr(cls, "_trusted", classmethod(counting))
    text = ("0.3 :: a.\n0.6 :: b :- a.\n0.2 :: b.\n0.5 :: c :- a, \\+ b.\n"
            "0.4 :: d :- \\+ b, a.\n0.7 :: d :- b.\n")
    assert parser._scan(text) is not None  # the scanner reads it
    program = parse_program(text)
    probability(program, Atom("d"))
    counterfactual_query(program, Atom("d"), {"d": False}, {"a": True})
    marginal(program, ["c", "d"])
    joint_table(program)
    assert program == parse_program(text) and hash(program) == hash(parse_program(text))
    assert built == []
    clauses = program.clauses
    assert built and program.clauses is clauses
    assert [c.text() for c in clauses] == [
        "0.3 :: a.", "0.2 :: b.", "0.6 :: b :- a.", "0.5 :: c :- a, \\+ b.",
        "0.4 :: d :- a, \\+ b.", "0.7 :: d :- b."]
    # one frozenset per distinct body
    assert clauses[3].causes is clauses[4].causes


def test_constructed_programs_keep_their_clauses():
    given = [Clause("b", frozenset({Literal("a", False)}), 0.6),
             Clause("a", frozenset(), 0.3), Clause("b", frozenset(), 0.2)]
    program = Program(given)
    assert [id(c) for c in program.clauses] == [id(given[i]) for i in (1, 2, 0)]
    # an intervention builds its program from the rows: equal clauses, in
    # canonical order, but not the given objects
    kept = intervene(program, {"a": True}).clauses
    assert kept == (Clause("a", frozenset(), 1.0), given[2], given[0])

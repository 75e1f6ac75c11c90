"""The contract of the library's immutable value classes: construction,
equality and hash, immutability, repr, ordering and validation.

Each case lists its class's fields here, not from the class, so the
contract is stated independently of how the classes are written.
"""

import numpy as np
import pytest

from causalog import (
    And,
    Atom,
    CausalogError,
    Clause,
    Const,
    DependencyGraph,
    GraphFormatError,
    JointTable,
    Literal,
    LogicalClause,
    Not,
    Or,
    Program,
    ProgramError,
    Provenance,
    QueryResult,
    ReconstructionError,
    TwinProgram,
    ValidationReport,
    parse_program,
)
from causalog.engine import Calibration, Factor, _Cells, marginal
from causalog.reconstruction import (
    NodeReport,
    ReconstructionResult,
    SuccessTable,
)

A = frozenset({"a"})
BODY = (("b", True),)  # a factor's clause body: b true
# compares by identity, so equal instances share it
FAILURE = CausalogError("a failed")


def _table_args():
    return ("b", ("a",), [0.1, 0.5], [1e-9, 1e-9], [40, 50], "samples")


# class, its fields in constructor order, a function building fresh
# arguments for every field, the defaults of the trailing fields, how
# instances compare ("fields", "identity" or "mapping"), and for "fields" one
# field with a value that makes the instance differ
CASES = [
    (QueryResult, ("probability", "worlds_evaluated", "conditioning_mass"),
     lambda: (0.25, 8, 0.5), {"conditioning_mass": 1.0}, "fields",
     ("conditioning_mass", 0.75)),
    (Factor, ("heads", "terms"),
     lambda: (("a",), (((BODY,), 0.6),)), {}, "fields",
     ("heads", ("c",))),
    (JointTable, ("columns", "masses", "worlds_evaluated"),
     lambda: (("a", "b"), np.array([0.1, 0.2, 0.3, 0.4]), 4), {}, "identity", None),
    (_Cells, ("masses",), lambda: (np.array([0.25, 0.75]),), {}, "mapping", None),
    (Calibration, ("marginals", "worlds_evaluated"),
     lambda: ({}, 3), {}, "fields", ("worlds_evaluated", 4)),
    (Atom, ("name",), lambda: ("a",), {}, "fields", ("name", "b")),
    (Const, ("value",), lambda: (True,), {}, "fields", ("value", False)),
    (Not, ("operand",), lambda: (Atom("a"),), {}, "fields", ("operand", Atom("b"))),
    (And, ("left", "right"), lambda: (Atom("a"), Atom("b")), {}, "fields",
     ("right", Atom("c"))),
    (Or, ("left", "right"), lambda: (Atom("a"), Not(Atom("b"))), {}, "fields",
     ("right", Atom("b"))),
    (Literal, ("name", "positive"), lambda: ("a", False), {"positive": True}, "fields",
     ("name", "b")),
    (Clause, ("effect", "causes", "probability"),
     lambda: ("b", frozenset({Literal("a")}), 0.5), {}, "fields", ("probability", 0.25)),
    (LogicalClause, ("head", "literals", "noise"),
     lambda: ("b", frozenset({Literal("a", False)}), frozenset({"u1"})), {}, "fields",
     ("noise", frozenset({"u2"}))),
    (SuccessTable, ("target", "parents", "values", "tolerances", "support", "read"),
     _table_args, {"support": None, "read": None}, "fields", ("values", [0.1, 0.6])),
    (NodeReport, ("target", "parents", "table", "clauses", "error", "oracle_calls",
                  "seconds", "read"),
     lambda: ("b", ("a",), None, ((A, 0.4),), None, 2, 0.5, "factor"),
     {"error": None, "oracle_calls": 0, "seconds": 0.0, "read": None}, "fields",
     ("oracle_calls", 3)),
    (ReconstructionResult, ("program", "nodes", "failures"),
     lambda: (Program([]), {}, {"a": FAILURE}), {"failures": {}},
     "fields", ("program", parse_program("0.5 :: a.\n"))),
    (DependencyGraph, ("nodes", "edges"),
     lambda: (frozenset({"a", "b"}), frozenset({("a", "b")})), {}, "fields",
     ("edges", frozenset())),
    (TwinProgram, ("text",), lambda: ("0.5 :: u1.\n",), {}, "fields", ("text", "")),
    (Provenance, ("program_sha256", "seed", "n"), lambda: ("ff", 1, 10), {}, "fields",
     ("seed", 2)),
    (ValidationReport, ("acyclic", "positive", "proper_normal_form", "diagnostics"),
     lambda: (True, False, True, ("a note",)), {}, "fields", ("acyclic", False)),
]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, fields, make, defaults, compare, differ", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_class_contract(cls, fields, make, defaults, compare, differ):
    args = make()
    a = cls(*args)
    # positional and keyword construction store the same objects
    by_name = cls(**dict(zip(fields, args)))
    for name, arg in zip(fields, args):
        assert getattr(a, name) is arg
        assert getattr(by_name, name) is arg
    # the defaults, with a fresh mutable default per instance
    required = args[:len(fields) - len(defaults)]
    bare, other_bare = cls(*required), cls(*required)
    for name, default in defaults.items():
        assert getattr(bare, name) == default
        if isinstance(default, dict):
            assert getattr(bare, name) is not getattr(other_bare, name)

    b = cls(*make())
    if compare == "identity":
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and hash(a) != hash(b)
    elif compare == "mapping":
        assert a == b and a == dict(a.items())
        with pytest.raises(TypeError):
            hash(a)
    else:
        compared = [name for name in fields if not (cls is SuccessTable and name == "read")]
        assert a == b and not (a != b)
        key = tuple(getattr(a, name) for name in compared)
        assert _hash_or_error(a) == _hash_or_error(b) == _hash_or_error(key)
        name, value = differ
        assert a != cls(**{**dict(zip(fields, make())), name: value})
        # only an instance of the very same class compares equal
        sub = type("Sub", (cls,), {})(*make())
        assert a != sub and sub != a
    assert a != object() and a != args

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)

    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, args))
    assert repr(a) == f"{cls.__qualname__}({shown})"
    # class patterns match the fields positionally
    assert cls.__match_args__ == fields


def test_success_table_read_is_not_part_of_its_value():
    target, parents, values, tolerances, support, _ = _table_args()
    by_factor = SuccessTable(target, parents, values, tolerances, None, "factor")
    by_samples = SuccessTable(target, parents, values, tolerances, None, "samples")
    assert by_factor == by_samples
    assert by_factor.read == "factor"
    assert SuccessTable(target, parents, values, tolerances, support) != by_factor


def test_marginals_compare_and_hash_by_identity():
    program = parse_program("0.3 :: a.\n0.5 :: b :- a.\n")
    first, second = marginal(program, ["a", "b"]), marginal(program, ["a", "b"])
    assert first == first and first != second
    assert {first: 1, second: 2}[first] == 1
    # the values compare through the masses
    assert first.masses.tolist() == second.masses.tolist()


def test_literals_sort_by_name_then_polarity():
    literals = [Literal("b"), Literal("a"), Literal("b", False), Literal("a", False)]
    assert sorted(literals) == [Literal("a", False), Literal("a"), Literal("b", False),
                                Literal("b")]
    assert Literal("a") < Literal("b") and Literal("a", False) < Literal("a")
    assert Literal("a") <= Literal("a") and Literal("a") >= Literal("a", False)
    assert Literal("b") > Literal("a", True)
    with pytest.raises(TypeError):
        Literal("a") < ("a", True)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Literal("A"), ProgramError,
     "bad proposition name 'A': expected lowercase-initial identifier"),
    (lambda: Literal("true"), ProgramError,
     "'true' is a reserved word and cannot name a proposition"),
    (lambda: Clause("b", [Literal("a"), Literal("a", False)], 0.5), ProgramError,
     "contradictory body for b: a appears both positively and negatively"),
    (lambda: Clause("b", [], 1.5), ProgramError, "probability 1.5 outside [0, 1]"),
    (lambda: Clause("b", [], float("nan")), ProgramError, "probability nan outside [0, 1]"),
    (lambda: Clause("B", [], 0.5), ProgramError,
     "bad proposition name 'B': expected lowercase-initial identifier"),
    (lambda: LogicalClause("b", [Literal("a"), Literal("a", False)], []), ProgramError,
     "contradictory body for b"),
    (lambda: LogicalClause("false", [], []), ProgramError,
     "'false' is a reserved word and cannot name a proposition"),
    (lambda: DependencyGraph(frozenset({"a"}), frozenset({("a", "b")})), GraphFormatError,
     "edge (a, b) mentions a node not in the node set"),
    (lambda: SuccessTable("b", ("a",), [0.5], [1e-9]), ReconstructionError,
     "success table for b is incomplete: expected 2 patterns, got 1"),
    # refused when built, not when a later read runs off its end
    (lambda: SuccessTable("b", ("a",), [0.1, 0.2], [1e-9] * 2, [5]), ReconstructionError,
     "success table for b is incomplete: expected 2 patterns, got 1"),
], ids=["literal-name", "literal-reserved", "clause-contradictory", "clause-probability",
        "clause-nan", "clause-effect", "logical-contradictory", "logical-reserved",
        "graph-edge", "table-incomplete", "table-support-incomplete"])
def test_value_class_validation(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def test_construction_normalises_bodies_and_probability():
    clause = Clause("b", [Literal("a")], 1)
    assert clause.causes == frozenset({Literal("a")}) and isinstance(clause.causes, frozenset)
    assert clause.probability == 1.0 and isinstance(clause.probability, float)
    logical = LogicalClause("b", [Literal("a")], ["u1"])
    assert logical.literals == frozenset({Literal("a")})
    assert logical.noise == frozenset({"u1"})


def test_class_patterns_match_positionally():
    match And(Atom("a"), Not(Atom("b"))):
        case And(Atom(left), Not(Atom(right))):
            assert (left, right) == ("a", "b")
        case _:
            pytest.fail("positional class pattern did not match")

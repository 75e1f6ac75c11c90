import json
import random

import pytest

from causalog import (
    CyclicProgramError,
    DependencyGraph,
    GraphFormatError,
    ValidationReport,
    parse_program,
    validate,
)

DIAMOND = DependencyGraph.build(
    ["a", "b", "c", "d"],
    [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
)


def test_parents_children_sources_sinks():
    assert DIAMOND.parents("d") == frozenset({"b", "c"})
    assert DIAMOND.sinks() == frozenset({"d"})


def test_topological_order_breaks_ties_by_name():
    assert DIAMOND.topological_order() == ("a", "b", "c", "d")


def test_cycle_detection():
    loop = DependencyGraph.build(["a", "b"], [("a", "b"), ("b", "a")])
    assert not loop.is_acyclic()
    cycle = loop.find_cycle()
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b"}
    with pytest.raises(CyclicProgramError):
        loop.topological_order()


def test_find_cycle_returns_a_closed_path_of_edges():
    rng = random.Random(23)
    for _ in range(400):
        names = [f"v{k}" for k in range(rng.randint(2, 9))]
        edges = {(a, b) for a in names for b in names if rng.random() < 0.2}
        graph = DependencyGraph.build(names, edges)
        cycle = graph.find_cycle()
        assert (cycle is None) == graph.is_acyclic()
        if cycle is not None:
            assert cycle[0] == cycle[-1] == min(cycle)
            assert len(set(cycle)) == len(cycle) - 1
            assert set(zip(cycle, cycle[1:])) <= edges


def test_find_cycle_walks_back_from_a_tail():
    # a and b lie past the cycle c -> d -> e -> c and are never peeled; the
    # walk starts at a, goes back through b into the cycle, and writes the
    # cycle from c
    graph = DependencyGraph.build("abcdef", [("f", "c"), ("c", "d"), ("d", "e"), ("e", "c"),
                                             ("e", "b"), ("b", "a")])
    assert graph.find_cycle() == ["c", "d", "e", "c"]


def test_ancestors_includes_seed():
    assert DIAMOND.ancestors({"d"}) == frozenset({"a", "b", "c", "d"})
    assert DIAMOND.ancestors({"a"}) == frozenset({"a"})


def test_edge_list_round_trip():
    text = DIAMOND.to_edge_list()
    assert DependencyGraph.parse(text) == DIAMOND


def test_edge_list_keeps_isolated_nodes():
    g = DependencyGraph.build(["solo", "x", "y"], [("x", "y")])
    text = g.to_edge_list()
    assert "solo" in text.splitlines()
    assert DependencyGraph.parse(text) == g


def test_dot_round_trip():
    text = DIAMOND.to_dot()
    assert text.startswith("digraph")
    assert DependencyGraph.parse(text) == DIAMOND


def test_dot_chains_and_comments():
    text = "digraph g {\n  a -> b -> c;\n  # lonely\n  d;\n}\n"
    g = DependencyGraph.parse(text)
    assert g.edges == frozenset({("a", "b"), ("b", "c")})
    assert "d" in g.nodes


def test_edge_list_comments_and_blank_lines():
    g = DependencyGraph.parse("# graph\n\na b\nc\n")
    assert g.edges == frozenset({("a", "b")})
    assert g.nodes == frozenset({"a", "b", "c"})


@pytest.mark.parametrize("bad", [
    "a b c\n",
    "digraph g { a -> }\n",
    "A b\n",
])
def test_bad_graph_text_rejected(bad):
    with pytest.raises(GraphFormatError):
        DependencyGraph.parse(bad)


@pytest.mark.parametrize("text", [
    "true a\n",
    "a false\n",
    "digraph g { true -> a; }\n",
    "digraph g { a; false; }\n",
])
def test_reserved_words_rejected_as_graph_nodes(text):
    # graphs follow the program name rule, reserved words included
    with pytest.raises(GraphFormatError, match="reserved"):
        DependencyGraph.parse(text)


def test_program_dependency_graph(switch_program):
    g = switch_program.dependency_graph()
    assert g.nodes == frozenset({"treatment", "recovery"})
    assert g.edges == frozenset({("treatment", "recovery")})


# --- structural validation -------------------------------------------------


def test_validate_clean_program(boost_program):
    report = validate(boost_program)
    assert report.acyclic and report.positive and report.proper_normal_form
    assert report.diagnostics == ()


def test_validate_flags_negation(switch_program):
    report = validate(switch_program)
    assert report.acyclic
    assert not report.positive
    assert any("\\+ treatment" in d for d in report.diagnostics)


def test_validate_flags_cycle():
    program = parse_program("0.5 :: a :- b.\n0.5 :: b :- a.\n")
    report = validate(program)
    assert not report.acyclic
    assert any("cycle" in d for d in report.diagnostics)


def test_validate_flags_boundary_probability():
    report = validate(parse_program("1 :: a.\n"))
    assert not report.proper_normal_form


def test_validate_sink_fact_rule_is_strict_only():
    # b is a sink defined only conditionally; the lenient check lets that
    # pass with a note, the strict one counts it against normal form.
    program = parse_program("0.5 :: a.\n0.5 :: b :- a.\n")
    lenient = validate(program)
    assert lenient.proper_normal_form
    assert any("sink" in d for d in lenient.diagnostics)
    strict = validate(program, strict=True)
    assert not strict.proper_normal_form


def test_validate_reads_the_rows():
    # the diagnostics are written from the program's rows, in canonical
    # clause order, and no Clause is built
    program = parse_program("0.3 :: d :- b.\n1.0 :: b :- \\+ a, c.\n0.0 :: c.\n0.5 :: a.\n")
    report = validate(program, strict=True)
    assert "clauses" not in program.__dict__
    assert report == ValidationReport(True, False, False, (
        "clause '1.0 :: b :- \\+ a, c.' negates a",
        "clause '0.0 :: c.' has boundary probability 0.0",
        "clause '1.0 :: b :- \\+ a, c.' has boundary probability 1.0",
        "sink d has no unconditional clause",
    ))


def test_report_json_shape(boost_program):
    payload = json.loads(json.dumps(validate(boost_program).to_json_dict()))
    assert set(payload) == {"acyclic", "positive", "proper_normal_form",
                            "diagnostics"}


def test_report_text(boost_program):
    text = validate(boost_program).to_text()
    assert "acyclic: yes" in text
    assert "proper normal form: yes" in text


def test_writers_pin_their_bytes():
    # isolated nodes first, then edges, each in name order
    graph = DependencyGraph.build(["z", "m", "c", "b", "a"], [("b", "c"), ("a", "b")])
    assert graph.to_dot() == "digraph g {\n  m;\n  z;\n  a -> b;\n  b -> c;\n}\n"
    assert graph.to_edge_list() == "m\nz\na b\nb c\n"
    empty = DependencyGraph.build([], [])
    assert empty.to_dot() == "digraph g {\n}\n"
    assert empty.to_edge_list() == ""


@pytest.mark.parametrize("text, message", [
    ("digraph g {\n a -> b;\n a -> B;\n}", "line 3: bad proposition name 'B'"),
    # a statement is named by the line it starts on
    ("digraph g { a;\n\n  b ->\n  true; }",
     "line 3: 'true' is a reserved word and cannot name a proposition"),
    ("digraph g {\n a -> b # c -> d\n ; X\n}", "line 3: bad proposition name 'X'"),
    # an unclosed body is no digraph, and names no line
    ("digraph g { a -> b;", "not a digraph: expected 'digraph [name] { ... }'"),
], ids=["edge", "split-statement", "after-comment", "unclosed"])
def test_dot_errors_name_their_line(text, message):
    with pytest.raises(GraphFormatError) as err:
        DependencyGraph.parse(text)
    assert str(err.value) == message


def test_parents_and_children_match_an_edge_scan():
    import random

    rand = random.Random(3)
    names = [f"v{i}" for i in range(30)]
    edges = {(a, b) for a in names for b in names if a < b and rand.random() < 0.2}
    graph = DependencyGraph.build(names, edges)
    for node in names + ["absent"]:
        assert graph.parents(node) == frozenset(a for a, b in edges if b == node)

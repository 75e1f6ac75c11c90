import json

import pytest

from causalog import (
    CyclicProgramError,
    DependencyGraph,
    GraphFormatError,
    parse_program,
    validate,
)
from causalog.graph import subsets_by_size

DIAMOND = DependencyGraph.build(
    ["a", "b", "c", "d"],
    [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
)


def test_parents_children_sources_sinks():
    assert DIAMOND.parents("d") == frozenset({"b", "c"})
    assert DIAMOND.children("a") == frozenset({"b", "c"})
    assert DIAMOND.sources() == frozenset({"a"})
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


def test_subsets_by_size_order():
    got = list(subsets_by_size(["b", "a"]))
    assert got == [frozenset(), frozenset({"a"}), frozenset({"b"}),
                   frozenset({"a", "b"})]


def test_program_dependency_graph(switch_program):
    g = switch_program.dependency_graph()
    assert g.nodes == frozenset({"treatment", "recovery"})
    assert g.edges == frozenset({("treatment", "recovery")})


# --- structural validation -------------------------------------------------


def test_validate_clean_program(boost_program):
    report = validate(boost_program)
    assert report.acyclic and report.positive and report.proper_normal_form
    assert report.all_ok
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


def test_report_json_shape(boost_program):
    payload = json.loads(validate(boost_program).to_json())
    assert set(payload) == {"acyclic", "positive", "proper_normal_form",
                            "diagnostics"}


def test_report_text(boost_program):
    text = validate(boost_program).to_text()
    assert "acyclic: yes" in text
    assert "proper normal form: yes" in text

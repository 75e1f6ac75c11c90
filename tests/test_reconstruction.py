import json
import math
import re

import numpy as np
import pytest

from causalog import (
    Atom,
    CausalogError,
    Clause,
    Dataset,
    DatasetError,
    DependencyGraph,
    EnumerationCapError,
    ExactOracle,
    FrequencyOracle,
    ImproperParameterError,
    Literal,
    NonMonotoneTableError,
    Not,
    OracleAnswer,
    OracleError,
    Program,
    ProgramError,
    ReconstructionError,
    StarvedPatternError,
    SuccessTable,
    TableSizeError,
    ZeroEvidenceError,
    conditional,
    conjunction_of,
    forward_sample,
    joint_table,
    learn,
    parse_program,
    reconstruct,
    success_table,
)
from causalog import engine, reconstruction
from causalog.engine import MAX_TABLE_WIDTH, marginal, marginals, node_factor
from causalog.reconstruction import (
    EXACT_TOLERANCE,
    MAX_PARENTS,
    SaturationError,
    pattern_code,
    table_codes,
)

from oracles import marginal_given
from proggen import (
    numpy_rng,
    random_program,
    subsets_by_code,
    subsets_by_size,
    with_negation_and_certainty,
)

TR_GRAPH = DependencyGraph.build(
    ["treatment", "recovery"], [("treatment", "recovery")])


class TableOracle:
    """Scripted oracle: each target's table keyed by the subset pinned true,
    where a CausalogError instead of a value fails at that pattern."""

    def __init__(self, tables, tolerance=1e-9):
        self._tables = tables
        self._tolerance = tolerance
        self.expected = None

    @property
    def nodes(self):
        return frozenset(self._tables)

    def expect(self, families):
        self.expected = list(families)

    def success_table(self, target, parents):
        values = {}
        for subset in subsets_by_size(parents):
            value = self._tables[target][subset]
            if isinstance(value, CausalogError):
                raise reconstruction.pattern_error(target, subset, value) from value
            values[subset] = value
        return SuccessTable(target, parents, by_code(parents, values),
                            [self._tolerance] * len(values))


def by_code(parents, keyed):
    """The entries of ``keyed``, a mapping by the subset of ``parents``
    pinned true, as a table column: a list by pattern code."""
    return [keyed[subset] for subset in subsets_by_code(tuple(parents))]


def at(column, parents, subset):
    """The entry of a table column at the pattern pinning ``subset`` true."""
    return column[pattern_code(parents, {p: p in subset for p in parents})]


def make_table(target, parents, values, tol=1e-9):
    keyed = {frozenset(k): v for k, v in values.items()}
    return SuccessTable(target, tuple(parents), by_code(parents, keyed), [tol] * len(keyed))


def _bodies(table):
    """The (body, probability) pairs detection accepts in ``table``, in
    table order, each body the subset its pattern pins true."""
    subsets = subsets_by_code(table.parents)
    return [(subsets[code], solved)
            for code, _, _, _, solved in reconstruction._detect(table) if solved is not None]


# --- success tables -----------------------------------------------------------


def test_success_table_from_exact_oracle(boost_program):
    oracle = ExactOracle(boost_program)
    table = success_table(oracle, "recovery", ["treatment"])
    assert table.values == [pytest.approx(0.5, abs=1e-12), pytest.approx(0.7, abs=1e-12)]


def test_success_table_parent_cap(boost_program):
    oracle = ExactOracle(boost_program)
    with pytest.raises(ReconstructionError, match=r"^recovery has 13 parents; its table "
                       r"would hold 2\^13 patterns \(limit 12 parents\)$"):
        success_table(oracle, "recovery", [f"x{i}" for i in range(13)])


def test_incomplete_table_rejected():
    with pytest.raises(ReconstructionError, match="incomplete"):
        SuccessTable("a", ("b",), [0.5], [1e-9])


def test_tables_are_kept_by_code():
    # the first parent is the most significant bit
    keyed = make_table("c", ["a", "b"], {(): 0.1, ("a",): 0.2, ("b",): 0.3, ("a", "b"): 0.4})
    assert keyed.values == [0.1, 0.3, 0.2, 0.4]
    assert keyed.tolerances == [1e-9] * 4 and keyed.support is None
    # a list is kept as given, any other sequence copied into one
    values, support = [0.1, 0.3, 0.2, 0.4], (5, 6, 7, 8)
    table = SuccessTable("c", ("a", "b"), values, [1e-9] * 4, support)
    assert table.values is values and table.tolerances == keyed.tolerances
    assert table.support == [5, 6, 7, 8]
    assert at(table.support, table.parents, {"a"}) == 7


@pytest.mark.parametrize("parents, values, message", [
    (("b", "a"), [0.5] * 4, r"parents \['b', 'a'\] are not distinct and in name order"),
    (("a", "a"), [0.5] * 4, r"parents \['a', 'a'\] are not distinct and in name order"),
], ids=["unsorted", "repeated"])
def test_malformed_tables_rejected(parents, values, message):
    with pytest.raises(ReconstructionError, match=message):
        SuccessTable("c", parents, values, [1e-9] * len(values))


# --- detection and solving ------------------------------------------------------


def test_detect_boost_table():
    table = make_table("recovery", ["treatment"],
                       {(): 0.5, ("treatment",): 0.7})
    assert _bodies(table) == [
        (frozenset(), pytest.approx(0.5, abs=1e-9)),
        (frozenset({"treatment"}), pytest.approx(0.4, abs=1e-9)),
    ]


def test_detect_rejects_explained_interaction():
    # 0.44 = 1 - (1-0.3)(1-0.2): the pair pattern is exactly what the two
    # single clauses predict, so no two-cause clause may be introduced.
    table = make_table("c", ["a", "b"],
                       {(): 0.0, ("a",): 0.3, ("b",): 0.2, ("a", "b"): 0.44})
    solved = _bodies(table)
    assert [s for s, _ in solved] == [frozenset({"a"}), frozenset({"b"})]


def test_detect_finds_real_interaction():
    # now the pair pattern exceeds the noisy-OR prediction: genuine clause
    value = 1 - (1 - 0.3) * (1 - 0.2) * (1 - 0.5)
    table = make_table("c", ["a", "b"],
                       {(): 0.0, ("a",): 0.3, ("b",): 0.2, ("a", "b"): value})
    solved = dict(_bodies(table))
    assert solved[frozenset({"a", "b"})] == pytest.approx(0.5, abs=1e-9)


def test_detect_non_monotone_table():
    table = make_table("c", ["a"], {(): 0.5, ("a",): 0.3})
    with pytest.raises(NonMonotoneTableError):
        reconstruction._detect(table)


def test_detector_ignores_noise_below_tolerance():
    # the bump at the pair pattern is inside the statistical tolerance, so
    # it must be attributed to noise, not to a clause
    table = make_table("c", ["a", "b"],
                       {(): 0.0, ("a",): 0.3, ("b",): 0.2, ("a", "b"): 0.449},
                       tol=0.02)
    solved = _bodies(table)
    assert frozenset({"a", "b"}) not in dict(solved)


def test_threshold_widens_with_solved_uncertainty():
    # each solved parameter carries ~tol/miss of uncertainty; at the pair
    # pattern those uncertainties add to the raw tolerance, so a bump that a
    # naive comparison would accept is still attributed to noise
    tol = 0.02
    bump = 0.44 + tol + 0.015  # above raw tol, below propagated threshold
    table = make_table("c", ["a", "b"],
                       {(): 0.0, ("a",): 0.3, ("b",): 0.2, ("a", "b"): bump},
                       tol=tol)
    solved = _bodies(table)
    assert frozenset({"a", "b"}) not in dict(solved)


def test_solved_probability_clamped_near_one():
    table = make_table("c", ["a"], {(): 0.0, ("a",): 1.0})
    solved = dict(_bodies(table))
    assert solved[frozenset({"a"})] == pytest.approx(1.0, abs=1e-8)
    assert solved[frozenset({"a"})] < 1.0


@pytest.mark.parametrize("values, tol", [
    ({(): 1.2}, 1e-9),  # a rate above 1
    ({(): 0.5, ("a",): 0.3}, -0.5),  # a negative tolerance accepts a fall
], ids=["above-one", "below-zero"])
def test_detect_refuses_weights_outside_the_unit_interval(values, tol):
    # reconstruct builds its clauses unchecked, so detection lets no weight
    # outside (0, 1) through
    with pytest.raises(ImproperParameterError, match=r"escapes \(0, 1\]"):
        reconstruction._detect(make_table("c", ["a"] if len(values) > 1 else [], values, tol))


def test_table_codes_list_patterns_in_table_order():
    for width in range(MAX_PARENTS + 1):
        parents = tuple(f"p{k:02d}" for k in range(width))
        subsets = subsets_by_code(parents)
        codes = table_codes(width)
        assert [subsets[code] for code in codes] == list(subsets_by_size(parents))
        assert table_codes(width) is codes  # kept per width


def test_table_codes_order():
    # the empty pattern, {a} (code 0b10), {b} (0b01), then both
    assert table_codes(2) == (0, 2, 1, 3)


def _detect_outcome(table):
    """What detection gives for ``table``: its steps, each with the subset
    its pattern pins true in place of the code, or the error class with the
    subset and message it names."""
    try:
        steps = reconstruction._detect(table)
    except CausalogError as err:
        return type(err), err.subset, str(err)
    subsets = subsets_by_code(table.parents)
    return [(subsets[code], *rest) for code, *rest in steps]


def _reference_detect(table):
    """Detection written over subsets, as it was before the walk over codes:
    its steps, (subset, predicted, residual, tolerance, solved) in table
    order with ``solved`` None where the subset is no body, or the error
    class and the subset it names."""
    accepted, solved_tol, steps = [], {}, []
    for subset in subsets_by_size(table.parents):
        miss, spread = 1.0, 0.0
        for body, prob in accepted:
            if body < subset:
                miss *= 1.0 - prob
                spread += solved_tol[body] / (1.0 - prob)
        predicted = 1.0 - miss
        value = at(table.values, table.parents, subset)
        tol = at(table.tolerances, table.parents, subset)
        threshold = tol + miss * spread
        residual = value - predicted
        solved = None
        if residual > threshold:
            if miss <= tol:
                return SaturationError, subset
            solved = 1.0 - (1.0 - value) / miss
            if not 0.0 < solved <= 1.0:
                return ImproperParameterError, subset
            solved = min(solved, 1.0 - max(tol, 1e-15))
            accepted.append((subset, solved))
            solved_tol[subset] = tol / miss + max(0.0, 1.0 - value) / miss * spread
        elif residual < -threshold:
            return NonMonotoneTableError, subset
        steps.append((subset, predicted, residual, threshold, solved))
    return steps


def _assert_detection_matches_the_reference(table):
    """Detection of ``table`` gives the reference's steps, float for float,
    or fails with the same error at the same subset."""
    got = _detect_outcome(table)
    assert (got[:2] if isinstance(got, tuple) else got) == _reference_detect(table)
    return got


@pytest.mark.parametrize("parents, values, tol, outcome", [
    (["treatment"], {(): 0.5, ("treatment",): 0.7}, 1e-9, "two clauses"),
    (["a", "b"], {(): 0.0, ("a",): 0.3, ("b",): 0.2, ("a", "b"): 0.44}, 1e-9, "explained"),
    (["a", "b"], {(): 0.0, ("a",): 0.3, ("b",): 0.2, ("a", "b"): 0.72}, 1e-9, "interaction"),
    (["a", "b"], {(): 0.0, ("a",): 0.3, ("b",): 0.2, ("a", "b"): 0.475}, 0.02, "noise"),
    (["a", "b"], {(): 0.0, ("a",): 1.0, ("b",): 0.2, ("a", "b"): 1.0}, 1e-9, "clamped"),
    (["a"], {(): 1.0, ("a",): 1.5}, 1e-9, SaturationError),
    (["a", "b"], {(): 0.2, ("a",): 0.5, ("b",): 0.3, ("a", "b"): 0.4}, 1e-9,
     NonMonotoneTableError),
    (["a", "b"], {(): 0.0, ("a",): 0.3, ("b",): 0.2, ("a", "b"): 1.3}, 1e-9,
     ImproperParameterError),
], ids=["boost", "explained", "interaction", "noise", "clamped", "saturated",
        "non-monotone", "improper"])
def test_detection_is_the_same_by_subset_and_by_code(parents, values, tol, outcome):
    got = _assert_detection_matches_the_reference(make_table("c", parents, values, tol))
    if isinstance(outcome, type):
        # the last pattern in table order is the one that fails
        assert got[:2] == (outcome, frozenset(parents))
    else:
        assert [step[0] for step in got] == list(subsets_by_size(parents))
        # a clamp shows as the solved value 1 - tolerance
        clamped = [step[4] == 1.0 - tol for step in got]
        assert any(clamped) == (outcome == "clamped")


def test_detection_of_oracle_tables_matches_the_reference():
    # the exact oracle's tables of random programs, and the frequency
    # oracle's of samples from them, whose tolerances widen the thresholds
    rng = numpy_rng(4409)
    outcomes = {"exact": 0, "samples": 0, "refused": 0}
    for k in range(40):
        program = random_program(rng, max_nodes=7, max_parents=4)
        if k % 2:
            program = with_negation_and_certainty(rng, program)
        graph = program.dependency_graph()
        oracles = {"exact": ExactOracle(program),
                   "samples": FrequencyOracle(forward_sample(program, 400, seed=k), 5)}
        for kind, oracle in oracles.items():
            for target in program.propositions:
                try:
                    table = success_table(oracle, target, graph.parents(target))
                except CausalogError:
                    continue
                got = _assert_detection_matches_the_reference(table)
                outcomes["refused" if isinstance(got[0], type) else kind] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_json_residuals_are_the_reference_walk():
    # the residual audit is derived from the node's table when --json asks
    # for it; random noisy-OR tables, some with bodies of probability 1
    # whose solved value is clamped, bumps within tolerance and a few falls
    # that fail the node
    rng = numpy_rng(6113)
    seen = {"clamped": 0, "rejected": 0, "ok": 0}
    for _ in range(120):
        parents = [f"p{k}" for k in range(int(rng.integers(0, 5)))]
        tol = float(rng.choice([1e-9, 0.01]))
        subsets = list(subsets_by_size(parents))
        weights = {body: float(rng.choice([rng.uniform(0.05, 0.95), 1.0], p=[0.85, 0.15]))
                   for body in subsets if rng.random() < 0.4}
        values = {}
        for subset in subsets:
            miss = math.prod(1.0 - p for body, p in weights.items() if body <= subset)
            values[subset] = min(1.0, 1.0 - miss + float(rng.uniform(0.0, tol / 4)))
        if parents and rng.random() < 0.15:  # a fall that no positive program gives
            values[subsets[-1]] = max(0.0, values[subsets[-1]] - 0.5)
        graph = DependencyGraph.build(parents + ["c"], [(p, "c") for p in parents])
        tables = {p: {frozenset(): 0.5} for p in parents}
        result = reconstruct(TableOracle({**tables, "c": values}, tol), graph)
        report = result.nodes["c"]
        expected = _reference_detect(make_table("c", parents, values, tol))
        if not report.ok:
            assert isinstance(expected, tuple) and expected[0] is type(report.error)
            assert report.to_json_dict()["residuals"] == []
            seen["rejected"] += 1
            continue
        assert report.to_json_dict()["residuals"] == [
            {"pattern": sorted(subset), "value": values[subset], "predicted": predicted,
             "residual": residual, "tolerance": threshold, "accepted": solved is not None}
            for subset, predicted, residual, threshold, solved in expected]
        assert list(report.clauses) == [(subset, solved) for subset, *_, solved in expected
                                        if solved is not None]
        seen["ok"] += 1
        seen["clamped"] += any(step[4] == 1.0 - tol for step in expected)
    assert min(seen.values()) >= 5, seen


# --- whole-program reconstruction ----------------------------------------------


def test_bad_node_names_fail_before_any_table_is_read(monkeypatch):
    class Counting(TableOracle):
        calls = 0

        def success_table(self, target, parents):
            Counting.calls += 1
            return super().success_table(target, parents)

    bad = ProgramError("bad proposition name 'Bad': expected lowercase-initial identifier")
    graph = DependencyGraph.build(["a", "Bad"], [("a", "Bad")])
    oracle = Counting({"a": {frozenset(): 0.5}, "Bad": {}})
    with pytest.raises(ProgramError, match=f"^{re.escape(str(bad))}$"):
        reconstruct(oracle, graph)
    assert Counting.calls == 0 and oracle.expected is None
    # learn on a graph naming a node so refuses before counting a table
    monkeypatch.setattr(FrequencyOracle, "success_table", Counting.success_table)
    dataset = Dataset(("a", "b"), np.ones((40, 2), dtype=bool))
    with pytest.raises(ProgramError, match=f"^{re.escape(str(bad))}$"):
        learn(dataset, graph)
    assert Counting.calls == 0



def test_round_trip_from_own_oracle(boost_program):
    result = reconstruct(ExactOracle(boost_program), TR_GRAPH)
    assert result.ok
    want = {(c.effect, c.causes): c.probability for c in boost_program.clauses}
    got = {(c.effect, c.causes): c.probability for c in result.program.clauses}
    assert set(want) == set(got)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-9)


def test_switch_oracle_reconstructs_boost(switch_program, boost_program):
    # the positive member of the distribution's equivalence class is the
    # boost program, so that is what comes back from the switch's oracle
    result = reconstruct(ExactOracle(switch_program), TR_GRAPH)
    assert result.ok
    want = {(c.effect, c.causes): c.probability for c in boost_program.clauses}
    got = {(c.effect, c.causes): c.probability for c in result.program.clauses}
    assert set(want) == set(got)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-9)


def test_reconstruct_requires_acyclic_graph(boost_program):
    loop = DependencyGraph.build(["treatment", "recovery"],
                                 [("treatment", "recovery"),
                                  ("recovery", "treatment")])
    with pytest.raises(ReconstructionError, match="cycle"):
        reconstruct(ExactOracle(boost_program), loop)


def test_reconstruct_requires_oracle_coverage(boost_program):
    wider = DependencyGraph.build(["treatment", "recovery", "zeal"], [])
    with pytest.raises(ReconstructionError, match="zeal"):
        reconstruct(ExactOracle(boost_program), wider)


def test_single_node_graph(boost_program):
    lone = DependencyGraph.build(["treatment"], [])
    result = reconstruct(ExactOracle(boost_program), lone)
    assert result.ok
    assert result.program.to_text() == "0.5 :: treatment.\n"


def test_failures_are_collected_per_node():
    # b is pinned true, so the pattern b=false cannot be conditioned on and
    # the node that depends on it fails; the other nodes still come back
    program = parse_program("1 :: b.\n0.5 :: a.\n0.3 :: c :- b.\n0.2 :: c :- a.\n")
    graph = program.dependency_graph()
    result = reconstruct(ExactOracle(program), graph)
    assert not result.ok
    assert set(result.failures) == {"c"}
    assert isinstance(result.failures["c"], OracleError)
    recovered = {c.effect for c in result.program.clauses}
    assert recovered == {"a", "b"}


def test_starved_patterns_aggregate():
    # 40 rows with a and b false, 3 with a true, none with b true: the three
    # patterns other than {} are starved, listed in table order
    rows = np.zeros((43, 3), dtype=bool)
    rows[40:, 0] = True
    dataset = Dataset(("a", "b", "t"), rows)
    with pytest.raises(StarvedPatternError) as err:
        success_table(FrequencyOracle(dataset), "t", ["a", "b"])
    assert err.value.target == "t"
    assert err.value.patterns == ((frozenset({"a"}), 3), (frozenset({"b"}), 0),
                                  (frozenset({"a", "b"}), 0))
    assert str(err.value) == ("t: 3 parent pattern(s) below support: {a} has 3 "
                              "samples; {b} has 0 samples; {a, b} has 0 samples")
    graph = DependencyGraph.build(["a", "b", "t"], [("a", "t"), ("b", "t")])
    report = reconstruct(FrequencyOracle(dataset), graph).nodes["t"]
    assert isinstance(report.error, StarvedPatternError)
    assert report.oracle_calls == 4 and report.read is None


def test_scripted_oracle_is_told_the_families_and_fails_at_its_pattern():
    # t's table fails at its third pattern, {b}: the patterns read up to it
    failure = ZeroEvidenceError("no mass")
    oracle = TableOracle({
        "a": {frozenset(): 0.3},
        "b": {frozenset(): 0.6},
        "t": {frozenset(): 0.1, frozenset({"a"}): 0.5, frozenset({"b"}): failure,
              frozenset({"a", "b"}): 0.9},
    })
    graph = DependencyGraph.build(["a", "b", "t"], [("a", "t"), ("b", "t")])
    result = reconstruct(oracle, graph)
    assert oracle.expected == [("a", ()), ("b", ()), ("t", ("a", "b"))]
    assert set(result.failures) == {"t"}
    err = result.failures["t"]
    assert isinstance(err, OracleError) and err.__cause__ is failure
    assert err.subset == frozenset({"b"})
    assert str(err) == "oracle failed for t at pattern {b}: no mass"
    assert result.nodes["t"].oracle_calls == 3
    assert [result.nodes[n].oracle_calls for n in "ab"] == [1, 1]


def test_report_json_shape(boost_program):
    result = reconstruct(ExactOracle(boost_program), TR_GRAPH)
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert payload["ok"] is True
    assert set(payload) == {"ok", "program", "nodes"}
    recovery = payload["nodes"]["recovery"]
    assert recovery["parents"] == ["treatment"]
    assert {tuple(c["causes"]) for c in recovery["clauses"]} == {(), ("treatment",)}
    patterns = [r["pattern"] for r in recovery["residuals"]]
    assert patterns == [[], ["treatment"]]
    assert all(r["accepted"] for r in recovery["residuals"])


def test_reconstructed_program_matches_oracle_program_distribution(boost_program):
    result = reconstruct(ExactOracle(boost_program), TR_GRAPH)
    ours = joint_table(result.program)
    theirs = joint_table(boost_program)
    for t in (False, True):
        for r in (False, True):
            key = {"treatment": t, "recovery": r}
            assert ours.probability_of(key) == pytest.approx(
                theirs.probability_of(key), abs=1e-12)


# --- exact oracle: one enumeration per success table -----------------------------


def _pattern_sets(rng, program):
    """Each node's graph parents, and for each node a random set of up to
    three other propositions, so tables also cover non-parent patterns."""
    graph = program.dependency_graph()
    names = list(program.propositions)
    sets = []
    for target in names:
        sets.append((target, sorted(graph.parents(target))))
        others = [n for n in names if n != target]
        size = int(rng.integers(0, min(3, len(others)) + 1))
        picks = rng.choice(len(others), size=size, replace=False)
        sets.append((target, sorted(others[int(i)] for i in picks)))
    return sets


def _queries(rng, program):
    """Every (target, pattern) of the tables of ``_pattern_sets``, in table
    order, as a reconstruction would ask them."""
    queries = []
    for target, parents in _pattern_sets(rng, program):
        for subset in subsets_by_size(parents):
            queries.append((target, {p: p in subset for p in parents}))
    return queries


def test_exact_oracle_matches_per_pattern_conditional():
    rng = numpy_rng(4711)
    zero = negated = 0
    for _ in range(40):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=6, max_parents=3))
        negated += any(not lit.positive for c in program.clauses for lit in c.causes)
        queries = _queries(rng, program)
        oracle = ExactOracle(program)
        answers = []
        for target, pattern in queries:
            try:
                want = conditional(program, Atom(target), conjunction_of(pattern))
            except ZeroEvidenceError as err:
                with pytest.raises(ZeroEvidenceError) as got:
                    oracle.success_given_parents(target, pattern)
                assert str(got.value) == str(err)
                answers.append(None)
                zero += 1
                continue
            answer = oracle.success_given_parents(target, pattern)
            assert answer.probability == pytest.approx(want.probability, abs=1e-12)
            assert answer.tolerance == EXACT_TOLERANCE and answer.support is None
            answers.append(answer)
        # the same patterns in shuffled order rebuild the tables in between
        # and give the same answers, bit for bit
        shuffled = ExactOracle(program)
        for i in rng.permutation(len(queries)):
            target, pattern = queries[int(i)]
            if answers[i] is None:
                with pytest.raises(ZeroEvidenceError):
                    shuffled.success_given_parents(target, pattern)
            else:
                assert shuffled.success_given_parents(target, pattern) == answers[i]
    assert zero > 0 and negated > 0


def test_exact_oracle_cap_fails_only_nodes_above_it():
    # node k reads every earlier node, so its factor spans k + 1 variables,
    # 2^(k+1) cells; a cap of 2^4 admits n0..n3 and refuses the rest
    lines = ["0.3 :: n0."]
    for k in range(1, 7):
        lines += [f"0.2 :: n{k}."] + [f"0.5 :: n{k} :- n{j}." for j in range(k)]
    program = parse_program("\n".join(lines) + "\n")
    result = reconstruct(ExactOracle(program, max_worlds=16),
                         program.dependency_graph())
    assert set(result.failures) == {"n4", "n5", "n6"}
    for name, err in result.failures.items():
        assert isinstance(err, OracleError)
        assert isinstance(err.__cause__, EnumerationCapError)
        assert err.target == name and err.subset == frozenset()
        assert f"oracle failed for {name} at pattern {{}}" in str(err)
        assert result.nodes[name].oracle_calls == 1
        # the same closure as a per-pattern conditional
        with pytest.raises(EnumerationCapError):
            conditional(program, Atom(name), Not(Atom(f"n{int(name[1:]) - 1}")),
                        max_worlds=16)
    assert {c.effect for c in result.program.clauses} == {"n0", "n1", "n2", "n3"}


def test_exact_oracle_resolves_the_cap_once(boost_program, monkeypatch):
    # a bad setting is refused when the oracle is built, not at each node
    monkeypatch.setenv("CAUSALOG_MAX_WORLDS", "abc")
    with pytest.raises(CausalogError) as err:
        ExactOracle(boost_program)
    assert type(err.value) is CausalogError
    assert str(err.value) == "CAUSALOG_MAX_WORLDS must be a positive integer, got 'abc'"
    # an explicit cap is not read from the environment
    assert reconstruct(ExactOracle(boost_program, max_worlds=16), TR_GRAPH).ok
    # the cap in force when the oracle is built is the one it keeps
    monkeypatch.setenv("CAUSALOG_MAX_WORLDS", "2")
    oracle = ExactOracle(boost_program)
    monkeypatch.delenv("CAUSALOG_MAX_WORLDS")
    assert set(reconstruct(oracle, TR_GRAPH).failures) == {"recovery"}


# --- frequency oracle: one bincount per success table -----------------------------


class MaskOracle:
    """The per-pattern reference: one row mask per pattern."""

    def __init__(self, dataset, min_support=30, z=3.0):
        self._data = dataset
        self.min_support = min_support
        self.z = z

    @property
    def nodes(self):
        return frozenset(self._data.columns)

    def expect(self, families):
        pass

    def success_table(self, target, parents):
        """The table pattern by pattern, starved patterns listed together."""
        values, tolerances, support, starved = {}, {}, {}, []
        for subset in subsets_by_size(parents):
            try:
                answer = self.success_given_parents(
                    target, {p: p in subset for p in parents})
            except StarvedPatternError as err:
                starved.append(err.patterns[0])
                continue
            values[subset], tolerances[subset], support[subset] = answer
        if starved:
            listing = "; ".join(f"{{{', '.join(sorted(s))}}} has {n} samples"
                                for s, n in starved)
            raise StarvedPatternError(
                f"{target}: {len(starved)} parent pattern(s) below support: {listing}",
                target=target, patterns=tuple(starved))
        return SuccessTable(target, parents, by_code(parents, values),
                            by_code(parents, tolerances), by_code(parents, support))

    def success_given_parents(self, target, pattern):
        mask = np.ones(len(self._data), dtype=bool)
        for name, value in pattern.items():
            mask &= self._data.column(name) == bool(value)
        n = int(mask.sum())
        subset = frozenset(name for name, value in pattern.items() if value)
        if n < self.min_support:
            raise StarvedPatternError(
                f"pattern {{{', '.join(sorted(subset))}}} matches only {n} rows "
                f"(minimum support {self.min_support})",
                target=target, patterns=((subset, n),))
        s = int((mask & self._data.column(target)).sum())
        smoothed = (s + 1.0) / (n + 2.0)
        return OracleAnswer(s / n, self.z * float(np.sqrt(smoothed * (1.0 - smoothed) / n)), n)


def test_frequency_oracle_matches_per_pattern_masks():
    rng = numpy_rng(90210)
    seen = {"starved": 0, "complete": 0}
    for k in range(20):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=6, max_parents=3))
        rows = int(rng.choice([40, 300, 3000]))
        dataset = forward_sample(program, rows, seed=k)
        fast, slow = FrequencyOracle(dataset), MaskOracle(dataset)
        for target, parents in _pattern_sets(rng, program):
            try:
                want = success_table(slow, target, parents)
            except StarvedPatternError as err:
                with pytest.raises(StarvedPatternError) as got:
                    success_table(fast, target, parents)
                assert str(got.value) == str(err)
                assert got.value.patterns == err.patterns
                seen["starved"] += 1
                continue
            got = success_table(fast, target, parents)
            assert got == want and got.read == "samples"
            seen["complete"] += 1
        queries = _queries(rng, program)
        for i in rng.permutation(len(queries)):
            target, pattern = queries[int(i)]
            try:
                want = slow.success_given_parents(target, pattern)
            except StarvedPatternError as err:
                with pytest.raises(StarvedPatternError) as got:
                    fast.success_given_parents(target, pattern)
                assert str(got.value) == str(err)
                assert got.value.patterns == err.patterns
                continue
            assert fast.success_given_parents(target, pattern) == want
    assert seen["starved"] > 0 and seen["complete"] > 0


# --- per-node stats ----------------------------------------------------------------


def test_node_stats_count_oracle_calls(boost_program):
    result = reconstruct(ExactOracle(boost_program), TR_GRAPH)
    nodes = json.loads(json.dumps(result.to_json_dict()))["nodes"]
    assert nodes["recovery"]["stats"]["oracle_calls"] == 2
    assert nodes["treatment"]["stats"]["oracle_calls"] == 1
    for node in nodes.values():
        assert set(node["stats"]) == {"oracle_calls", "seconds", "read"}
        assert 0.0 <= node["stats"]["seconds"] < 60.0
        assert node["stats"]["read"] == "factor"
    # a failed node reports the patterns asked up to the failure: c's first
    # pattern {} pins b false, which has probability zero; b's certain
    # clause is a zero cell, so c's table takes the calibration
    program = parse_program("1 :: b.\n0.5 :: a.\n0.3 :: c :- b.\n0.2 :: c :- a.\n")
    failed = reconstruct(ExactOracle(program), program.dependency_graph())
    assert failed.nodes["c"].oracle_calls == 1
    assert failed.nodes["c"].to_json_dict()["stats"] == {
        "oracle_calls": 1, "seconds": failed.nodes["c"].seconds, "read": None}
    assert [failed.nodes[n].read for n in "ab"] == ["factor", "factor"]
    # a parent set outside the program is eliminated; samples are counted
    wider = DependencyGraph.build(["a", "b", "c"], [("a", "b")])
    assert reconstruct(ExactOracle(program), wider).nodes["b"].read == "elimination"
    dataset = forward_sample(program, 200, seed=3)
    learned = reconstruct(FrequencyOracle(dataset), wider)
    assert {report.read for report in learned.nodes.values()} == {"samples"}


def test_frequency_oracle_unknown_target_matches_masks():
    # a starved pattern is reported before the target is looked up
    rows = np.zeros((50, 2), dtype=bool)
    rows[:3, 0] = True
    dataset = Dataset(("a", "b"), rows)
    for oracle in (FrequencyOracle(dataset), MaskOracle(dataset)):
        with pytest.raises(StarvedPatternError):
            oracle.success_given_parents("zz", {"a": True})
        with pytest.raises(DatasetError, match="no column named 'zz'"):
            oracle.success_given_parents("zz", {"a": False})


def test_oracles_refuse_patterns_wider_than_a_table():
    # a table holds 2^|pattern| patterns; both oracles tabulate at most
    # 2^MAX_TABLE_WIDTH of them. Certain facts make one world, so the widest
    # exact table costs one enumeration step.
    names = [f"x{i}" for i in range(MAX_TABLE_WIDTH + 2)]
    program = parse_program("".join(f"1 :: {n}.\n" for n in names))
    dataset = Dataset(tuple(names), np.ones((40, len(names)), dtype=bool))
    exact, frequency = ExactOracle(program), FrequencyOracle(dataset)
    wide = {n: True for n in names[1:]}
    for oracle in (exact, frequency):
        with pytest.raises(TableSizeError,
                           match=f"table over {MAX_TABLE_WIDTH + 1} "):
            oracle.success_given_parents(names[0], wide)
    widest = {n: True for n in names[1:MAX_TABLE_WIDTH + 1]}
    assert exact.success_given_parents(names[0], widest).probability == 1.0
    assert frequency.success_given_parents(names[0], widest).support == 40


def test_more_than_max_parents_are_refused():
    # t has MAX_PARENTS + 1 parents: refused through both oracles before
    # either is asked, and the other nodes are still recovered
    parents = [f"p{i:02d}" for i in range(MAX_PARENTS + 1)]
    program = parse_program(
        "".join(f"0.5 :: {p}.\n" for p in parents)
        + "0.7 :: t :- p00, p01.\n0.4 :: t :- p05.\n"
    )
    graph = DependencyGraph.build(parents + ["t"], [(p, "t") for p in parents])
    dataset = forward_sample(program, 40, seed=5)
    for oracle in (ExactOracle(program), FrequencyOracle(dataset)):
        result = reconstruct(oracle, graph)
        assert list(result.failures) == ["t"]
        err = result.failures["t"]
        assert isinstance(err, ReconstructionError)
        assert str(err) == (f"t has {MAX_PARENTS + 1} parents; its table would hold "
                            f"2^{MAX_PARENTS + 1} patterns (limit {MAX_PARENTS} parents)")
        assert result.nodes["t"].oracle_calls == 0


# --- one calibration per reconstruction ---------------------------------------------


def _layered_positive(n, gated=False):
    """n0 .. n(n-1), each node on its two predecessors, positive bodies.
    ``gated`` makes n0 read a root r, with no clause for r false: a zero
    cell in n0's factor, so every node below n0 takes the calibration,
    though no pattern of any node's parents has zero mass."""
    lines = ["0.3 :: r.", "0.5 :: n0 :- r."] if gated else ["0.3 :: n0."]
    lines += ["0.2 :: n1.", "0.6 :: n1 :- n0."]
    for k in range(2, n):
        lines += [f"0.{k % 9 + 1} :: n{k}.", f"0.5 :: n{k} :- n{k - 1}.",
                  f"0.35 :: n{k} :- n{k - 2}.", f"0.15 :: n{k} :- n{k - 1}, n{k - 2}."]
    return parse_program("\n".join(lines) + "\n")


def _counting(monkeypatch, module, *names):
    """Replace the named functions of ``module`` by wrappers that log each
    call and its result; returns the log."""
    log = []
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            log.append((_name, result))
            return result
        monkeypatch.setattr(module, name, counted)
    return log


def test_reconstruct_calibrates_once_with_linear_work(monkeypatch):
    log = _counting(monkeypatch, reconstruction, "marginal", "marginals")
    worlds = {}
    for n in (50, 100, 200):
        program = _layered_positive(n, gated=True)
        del log[:]
        result = reconstruct(ExactOracle(program), program.dependency_graph())
        assert result.ok
        want = {(c.effect, c.causes): c.probability for c in program.clauses}
        got = {(c.effect, c.causes): c.probability for c in result.program.clauses}
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=1e-9)
        assert [name for name, _ in log] == ["marginals"]
        worlds[n] = log[0][1].worlds_evaluated
    # twice the nodes, twice the cells, up to the ends of the chain
    assert 1.9 < worlds[100] / worlds[50] < 2.1
    assert 1.9 < worlds[200] / worlds[100] < 2.1


def test_parent_sets_outside_the_program_take_their_own_elimination(monkeypatch):
    log = _counting(monkeypatch, reconstruction, "marginal", "marginals")
    program = _layered_positive(12, gated=True)
    graph = program.dependency_graph()
    # n11 gains a parent it does not read, so only its table is eliminated
    wider = DependencyGraph.build(graph.nodes, graph.edges | {("n0", "n11")})
    result = reconstruct(ExactOracle(program), wider)
    assert result.ok
    assert [(name, getattr(r, "columns", None)) for name, r in log] == [
        ("marginals", None), ("marginal", ("n11", "n0", "n10", "n9"))]
    assert {(c.effect, c.causes) for c in result.program.clauses} == {
        (c.effect, c.causes) for c in program.clauses}


def test_calibration_covers_only_the_closure_of_the_asked_families(monkeypatch):
    # the graph asks r, n0 .. n9 of the 200-node program: the calibration
    # builds exactly the tables it builds for the 10-node program
    log = _counting(monkeypatch, reconstruction, "marginal", "marginals")
    worlds = []
    for n in (10, 200):
        program = _layered_positive(n, gated=True)
        edges = program.dependency_graph().edges
        asked = {"r"} | {f"n{k}" for k in range(10)}
        graph = DependencyGraph.build(asked, {e for e in edges if e[1] in asked})
        del log[:]
        result = reconstruct(ExactOracle(program), graph)
        assert result.ok
        assert [name for name, _ in log] == ["marginals"]
        worlds.append(log[0][1].worlds_evaluated)
        assert [result.nodes[k].read for k in ("r", "n0", "n1", "n9")] == [
            "factor", "factor", "calibration", "calibration"]
    assert worlds[0] == worlds[1]


def test_strictly_positive_programs_need_no_inference(monkeypatch):
    # every factor has no zero cell, so every table is read off its node's
    # own factor: no calibration and no elimination
    log = _counting(monkeypatch, reconstruction, "marginal", "marginals")
    hub = "0.5 :: a.\n" + "".join(f"0.{k % 9 + 1} :: c{k} :- a.\n" for k in range(20))
    for program in (_layered_positive(50), parse_program(hub)):
        result = reconstruct(ExactOracle(program), program.dependency_graph())
        assert result.ok and log == []
        # the tables are read off the program's rows: no factor is built
        assert program._factors == {}
        # writing the recovered program builds no Clause
        result.program.to_text()
        assert "clauses" not in result.program.__dict__
        assert {report.read for report in result.nodes.values()} == {"factor"}
        want = {(c.effect, c.causes): c.probability for c in program.clauses}
        got = {(c.effect, c.causes): c.probability for c in result.program.clauses}
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=1e-12)


def test_factor_tables_equal_calibrated_tables():
    # every node's table against one calibration of the program, pattern by
    # pattern: equal within 1e-12 where the closure is strictly positive, and
    # with certainty or negation the same ZeroEvidenceError text at the same
    # first pattern
    rng = numpy_rng(6151)
    seen = {"factor": 0, "calibration": 0, "zero": 0, "unread": 0}
    for k in range(60):
        program = random_program(rng, max_nodes=7, max_parents=3)
        positive = k % 2 == 0
        if not positive:
            # half the nodes with parents lose their unconditional clause, so
            # some parent values have no clause at all: more zero cells
            program = with_negation_and_certainty(rng, program)
            program = Program([c for c in program.clauses if c.causes or rng.random() < 0.5
                               or not program.dependency_graph().parents(c.effect)],
                              declared=program.propositions)
        graph = program.dependency_graph()
        families = [(t, tuple(sorted(graph.parents(t)))) for t in program.propositions]
        calibrated = marginals(program, [(t, *ps) for t, ps in families]).marginals
        oracle = ExactOracle(program)
        for target, parents in families:
            # a family no clique holds, as a parent only a clause of
            # probability 0 reads, takes its own elimination
            reference = calibrated.get((target, *parents)) or marginal(
                program, (target, *parents))
            want, zero = {}, None
            for subset in subsets_by_size(parents):
                try:
                    want[subset] = marginal_given(reference, {p: p in subset for p in parents})
                except ZeroEvidenceError as err:
                    zero = zero or (subset, str(err))
            try:
                table = success_table(oracle, target, parents)
            except OracleError as err:
                assert zero is not None and not positive
                assert (err.subset, str(err.__cause__)) == zero
                assert isinstance(err.__cause__, ZeroEvidenceError)
                seen["zero"] += 1
                continue
            assert zero is None
            assert table.read == "factor" or not positive
            seen[table.read] += 1
            seen["unread"] += any(c.probability == 0.0 for c in program.clauses
                                  if c.effect == target and c.causes)
            for subset, value in want.items():
                assert at(table.values, parents, subset) == pytest.approx(value, abs=1e-12)
    assert all(seen.values()), seen


def test_caps_that_refuse_the_calibration_leave_each_node_its_own_table():
    # under caps of 8-32, seeded programs with certainty clauses refuse the
    # calibration both ways: a family whose route check exceeds the cap is
    # left out of it, and a calibration whose largest table exceeds the cap
    # is refused whole, after which a node asked with its own parents reads
    # its own elimination. A table read that way is the one engine.marginal
    # gives, and a node fails on the cap only when that table is refused
    rng = numpy_rng(2)
    seen = {"left_out": 0, "refused_whole": 0, "elimination": 0, "capped": 0}
    for _ in range(200):
        program = with_negation_and_certainty(rng, random_program(
            rng, min_nodes=3, max_nodes=9, max_parents=4, max_bodies=16))
        graph = program.dependency_graph()
        families = [(t, tuple(sorted(graph.parents(t)))) for t in program.propositions]
        for cap in (8, 16, 32):
            oracle = ExactOracle(program, max_worlds=cap)
            oracle.expect(families)
            for target, parents in families:
                try:
                    own = marginal(program, (target, *parents), cap)
                except EnumerationCapError:
                    own = None
                try:
                    table = oracle.success_table(target, parents)
                except EnumerationCapError:
                    assert own is None
                    seen["capped"] += 1
                    continue
                except OracleError as err:
                    # a pattern of probability zero
                    assert isinstance(err.__cause__, ZeroEvidenceError)
                    continue
                if table.read == "elimination":
                    miss, hit = own.masses.reshape(2, -1).tolist()
                    assert table.values == [h / (m + h) for m, h in zip(miss, hit)]
                    seen["elimination"] += 1
            if oracle._families is not None:  # the calibration was asked for
                seen["refused_whole"] += oracle._families == {}
                for target, parents in families:
                    try:
                        oracle._route(target, parents)
                    except EnumerationCapError:
                        seen["left_out"] += 1
    assert all(seen.values()), seen


def _with_row_read_cases(rng, program):
    """``program`` plus six facts r0..r5 read by a head w, whose bodies
    negate some of them and whose weights include 0 and 1, a fact z that
    only a clause of probability 0 reads, and a node lone with no clause."""
    clauses = list(program.clauses)
    roots = [f"r{k}" for k in range(6)]
    clauses += [Clause(name, [], float(rng.uniform(0.1, 0.9))) for name in roots + ["z"]]
    bodies = [[]] + [[Literal(name, bool(rng.random() < 0.6))] for name in roots]
    bodies.append([Literal("r0"), Literal(roots[int(rng.integers(1, 6))], False)])
    for body in bodies:
        fire = rng.choice([0.0, 1.0]) if rng.random() < 0.2 else rng.uniform(0.1, 0.9)
        clauses.append(Clause("w", body, float(fire)))
    clauses.append(Clause("w", [Literal("z")], 0.0))
    return Program(clauses, declared=[*program.propositions, "lone"])


def test_exact_oracle_rows_equal_the_factor_tables():
    # a table read by the factor route equals, float for float, the node's
    # factor at head 1 in sorted parent order, whichever of noisy_or's two
    # tabulations ran; the route is the one the factor tables give
    rng = numpy_rng(2741)
    seen = {"calibration": 0, "negated": 0, "certain": 0, "impossible": 0,
            "unread": 0, "no_clause": 0, "listed": 0, "sliced": 0}
    for _ in range(30):
        program = _with_row_read_cases(rng, with_negation_and_certainty(
            rng, random_program(rng, min_nodes=3, max_nodes=7, max_parents=3)))
        graph = program.dependency_graph()
        oracle = ExactOracle(program)
        for target in program.propositions:
            parents = tuple(sorted(graph.parents(target)))
            closure = graph.ancestors(parents) | set(parents)
            route = ("factor" if all(node_factor(program, a).table.all() for a in closure)
                     else "calibration")
            try:
                table = success_table(oracle, target, parents)
            except OracleError as err:
                # a pattern of probability zero: some factor cell is zero
                assert isinstance(err.__cause__, ZeroEvidenceError)
                table = None
            assert route == ("calibration" if table is None else table.read)
            if route == "calibration":
                seen["calibration"] += 1
                continue
            factor = node_factor(program, target)
            for subset in subsets_by_code(parents):
                cell = (1, *[int(name in subset) for name in factor.scope[1:]])
                assert at(table.values, parents, subset) == factor.table[cell]
            own = [c for c in program.clauses if c.effect == target]
            seen["negated"] += any(not lit.positive for c in own for lit in c.causes)
            seen["certain"] += any(c.probability == 1.0 for c in own)
            seen["impossible"] += any(c.probability == 0.0 for c in own)
            seen["unread"] += len(factor.scope) < 1 + len(parents)
            seen["no_clause"] += not own
            seen["listed" if 2 << len(parents) <= engine._LIST_CELLS else "sliced"] += 1
    assert all(seen.values()), seen


def test_reconstruct_programs_with_many_children_and_components():
    # a node read by 100 others, and 100 independent facts: one calibration
    # step multiplies more tables than one np.einsum takes
    hub = "0.5 :: a.\n" + "".join(f"0.{k % 9 + 1} :: c{k} :- a.\n" for k in range(100))
    facts = "".join(f"0.{k % 9 + 1} :: f{k}.\n" for k in range(100))
    for text in (hub, facts, hub + facts):
        program = parse_program(text)
        result = reconstruct(ExactOracle(program), program.dependency_graph())
        assert result.ok
        want = {(c.effect, c.causes): c.probability for c in program.clauses}
        got = {(c.effect, c.causes): c.probability for c in result.program.clauses}
        assert set(got) == set(want)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=1e-12)

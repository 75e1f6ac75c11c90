import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from causalog import (
    Atom,
    Clause,
    Dataset,
    DatasetError,
    DependencyGraph,
    FrequencyOracle,
    Literal,
    OracleError,
    Program,
    Provenance,
    StarvedPatternError,
    forward_sample,
    learn,
    parse_program,
    probability,
    program_fingerprint,
)

from causalog import cli, learning

from conftest import BOOST_TEXT
from oracles import reference_world
from proggen import numpy_rng, random_program, with_negation_and_certainty

TR_GRAPH = DependencyGraph.build(
    ["treatment", "recovery"], [("treatment", "recovery")])


# --- forward sampling -----------------------------------------------------------


def test_sampling_is_deterministic(boost_program):
    a = forward_sample(boost_program, 100, seed=7)
    b = forward_sample(boost_program, 100, seed=7)
    assert a == b
    c = forward_sample(boost_program, 100, seed=8)
    assert not np.array_equal(a.rows, c.rows)


def test_sampling_prefix_is_stable_across_row_counts(boost_program):
    # row i consumes the i-th block of draws, so a longer run with the same
    # seed starts with exactly the shorter run's rows
    short = forward_sample(boost_program, 50, seed=3)
    long = forward_sample(boost_program, 120, seed=3)
    assert np.array_equal(short.rows, long.rows[:50])


def _negated_program():
    rng = numpy_rng(1524)
    program = with_negation_and_certainty(rng, random_program(
        rng, min_nodes=5, max_nodes=5, max_parents=2, require_edge=True))
    # the draw has negated bodies and clauses pinned to 0 or 1
    assert any(not lit.positive for c in program.clauses for lit in c.causes)
    assert any(c.probability in (0.0, 1.0) for c in program.clauses)
    return program


@pytest.mark.parametrize("make_program", [
    lambda: parse_program(BOOST_TEXT),
    _negated_program,
], ids=["boost", "negated"])
def test_sampling_matches_independent_rederivation(make_program):
    # the contract: Philox keyed with the seed, one uniform per (row, noise)
    # cell in row-major order, noise thresholds in noise-name order, then the
    # Boolean system is solved per row
    n, seed = 200, 42
    program = make_program()
    dp = program.desugar()
    names = tuple(f"u{k}" for k in range(1, len(program.clauses) + 1))
    assert dp.noise_names == names
    dataset = forward_sample(program, n, seed=seed)

    uniforms = np.random.Generator(np.random.Philox(key=seed)).random(
        (n, len(names)))
    thresholds = [c.probability for c in program.clauses]
    for i in range(n):
        noise = {u: bool(uniforms[i, j] < thresholds[j])
                 for j, u in enumerate(names)}
        world = reference_world(dp, noise)
        for j, name in enumerate(dataset.columns):
            assert bool(dataset.rows[i, j]) == world[name], (i, name)



def _pinned(program, noise):
    """``program`` with each clause's weight set to its noise fact's value in
    ``noise``, a draw of every fact: 1.0 fires on every row, 0.0 on none."""
    names = program.desugar().noise_names  # one per clause, in clause order
    return Program([Clause(c.effect, c.causes, float(noise[u]))
                    for c, u in zip(program.clauses, names)], declared=program.propositions)


def test_sampling_evaluates_worlds(boost_program, monkeypatch):
    # a row sampled with every noise fact pinned is the world that noise
    # assignment induces; sampling itself builds no desugared program
    def world(program):
        with monkeypatch.context() as patch:
            patch.setattr(Program, "desugar", lambda self: pytest.fail("sampling desugared"))
            dataset = forward_sample(program, 3, seed=11)
        assert (dataset.rows == dataset.rows[0]).all()
        return dict(zip(dataset.columns, dataset.rows[0].tolist()))

    assert boost_program.desugar().noise_names == ("u1", "u2", "u3")
    pinned = _pinned(boost_program, {"u1": True, "u2": False, "u3": True})
    assert world(pinned) == {"treatment": True, "recovery": True}
    pinned = _pinned(boost_program, {"u1": False, "u2": False, "u3": True})
    assert world(pinned) == {"treatment": False, "recovery": False}
    # random programs with negated bodies and weights of 0 or 1
    rng = numpy_rng(2308)
    for _ in range(12):
        program = with_negation_and_certainty(rng, random_program(rng, max_nodes=5,
                                                                  max_parents=2))
        dp = program.desugar()
        for _ in range(4):
            noise = {u: bool(rng.random() < 0.5) for u in dp.noise_names}
            want = reference_world(dp, noise)
            assert world(_pinned(program, noise)) == {
                name: want[name] for name in program.propositions}

def _one_draw(program, n, seed):
    """The rows of ``forward_sample`` from one draw of the whole uniform
    matrix, thresholded at once and solved over the desugared clauses, a
    column per proposition in topological order."""
    dp = program.desugar()
    noise, columns = dp.noise_names, dp.internal_propositions
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((n, len(noise)))
    values = dict(zip(noise, (uniforms < [dp.noise_probability(u) for u in noise]).T))
    by_head = {}
    for clause in dp.clauses:
        by_head.setdefault(clause.head, []).append(clause)
    for name in program.dependency_graph().topological_order():
        values[name] = np.zeros(n, dtype=bool)
        for clause in by_head.get(name, ()):
            (u,) = clause.noise
            fires = values[u]
            for lit in clause.literals:
                fires = fires & (values[lit.name] == lit.positive)
            values[name] = values[name] | fires
    return np.array([values[c] for c in columns], dtype=bool).reshape(len(columns), n).T


def _wide_program():
    # a fact per clause: 3,000 priors and 2,999 negated links, so a block
    # is 10 rows
    return parse_program("".join(
        f"0.{k % 9 + 1} :: r{k}.\n" + (f"0.5 :: r{k} :- \\+ r{k - 1}.\n" if k else "")
        for k in range(3000)))


def _grid_edge_program():
    # weights at and beside the edges of the 2^-53 grid the draws lie on
    weights = [0.0, 1.0, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53,
               float(np.nextafter(0.3, 0.0)), float(np.nextafter(0.3, 1.0))]
    clauses = [Clause("w0", (), weights[0])]
    clauses += [Clause(f"w{k}", (Literal(f"w{k - 1}", k % 2 == 0),), weight)
                for k, weight in enumerate(weights[1:], start=1)]
    return Program(clauses)


@pytest.mark.parametrize("make_program, block", [
    (lambda: parse_program(BOOST_TEXT), 21845),
    (_wide_program, 10),
    (_grid_edge_program, 9362),
], ids=["three-facts", "5999-facts", "grid-edge-weights"])
def test_blocks_draw_the_rows_of_one_draw(make_program, block):
    # the draws are made one block of rows at a time; at each block edge the
    # rows must be those of one draw of the whole matrix
    program = make_program()
    assert block == learning._BLOCK_DRAWS // len(program.clauses)
    for n in (block - 1, block, block + 1, 3 * block + 17):
        rows = forward_sample(program, n, seed=77).rows
        assert rows.shape == (n, len(program.propositions))
        assert np.array_equal(rows, _one_draw(program, n, 77)), n


def test_one_row_blocks_draw_the_rows_of_one_draw(boost_program, monkeypatch):
    # more facts than draws in a block: each block is one row
    monkeypatch.setattr(learning, "_BLOCK_DRAWS", 2)
    assert np.array_equal(forward_sample(boost_program, 7, seed=5).rows,
                          _one_draw(boost_program, 7, 5))


@pytest.mark.parametrize("n", [0, 9])
def test_sampling_a_program_without_facts(n):
    # declared propositions and no clauses: no draws, every cell false
    program = Program([], declared=["b", "a"])
    dataset = forward_sample(program, n, seed=3)
    assert dataset.columns == ("a", "b")
    assert dataset.rows.shape == (n, 2) and not dataset.rows.any()
    assert np.array_equal(dataset.rows, _one_draw(program, n, 3))


def test_sampling_memory_is_bounded_by_blocks():
    # a double per (row, fact) would be 35.2 MB at 200,000 rows of 22 facts;
    # drawn in blocks, the peak numpy reports to tracemalloc stays below half
    # of that (the bool rows of the facts and the columns, about 9.7 MB)
    program = parse_program(
        "".join(f"0.3 :: n{k}.\n" for k in range(12))
        + "".join(f"0.4 :: n{k} :- n{k - 1}.\n" for k in range(1, 11)))
    n, facts = 200_000, len(program.clauses)
    assert facts == 22
    forward_sample(program, 10, seed=1)  # the program's graph and order, cached
    tracemalloc.start()
    try:
        forward_sample(program, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * facts * 8 / 2, peak


def test_sample_columns_are_internal_propositions_only(boost_program):
    dataset = forward_sample(boost_program, 5, seed=0)
    assert dataset.columns == ("recovery", "treatment")


def test_sample_frequencies_match_engine(boost_program):
    dataset = forward_sample(boost_program, 20000, seed=11)
    for name in dataset.columns:
        freq = float(dataset.column(name).mean())
        exact = probability(boost_program, Atom(name)).probability
        assert freq == pytest.approx(exact, abs=0.02)


def test_sample_carries_provenance(boost_program):
    dataset = forward_sample(boost_program, 17, seed=5)
    assert dataset.provenance == Provenance(
        program_fingerprint(boost_program), 5, 17)


def test_zero_rows(boost_program):
    dataset = forward_sample(boost_program, 0, seed=1)
    assert len(dataset) == 0


def test_negative_rows_rejected(boost_program):
    with pytest.raises(DatasetError, match="nonnegative"):
        forward_sample(boost_program, -1, seed=1)


@pytest.mark.parametrize("n", [2.5, True, "3"])
def test_non_integer_rows_rejected(boost_program, n):
    with pytest.raises(DatasetError, match="must be a nonnegative integer"):
        forward_sample(boost_program, n, seed=1)


@pytest.mark.parametrize("seed", [-1, 1 << 128, 1.5, "7", True])
def test_out_of_range_seed_rejected(boost_program, seed):
    with pytest.raises(DatasetError, match="seed"):
        forward_sample(boost_program, 3, seed=seed)


# --- dataset and CSV ------------------------------------------------------------


def test_csv_round_trip(tmp_path, boost_program):
    dataset = forward_sample(boost_program, 60, seed=9)
    path = str(tmp_path / "samples.csv")
    dataset.to_csv(path)
    with open(path) as handle:
        first, second = handle.readline(), handle.readline()
    assert first.startswith("# provenance: {")
    assert second == "recovery,treatment\n"
    assert Dataset.from_csv(path) == dataset


def test_csv_without_provenance(tmp_path):
    path = str(tmp_path / "plain.csv")
    with open(path, "w") as handle:
        handle.write("a,b\n1,0\n0,0\n")
    dataset = Dataset.from_csv(path)
    assert dataset.provenance is None
    assert dataset.columns == ("a", "b")
    assert dataset.rows.tolist() == [[True, False], [False, False]]


@pytest.mark.parametrize("text, fragment", [
    ("", "header"),
    ("a,b\n1\n", "line 2: expected 2 cells"),
    ("a,b\n1,2\n", "line 2: cell '2'"),
    ("a,b\n1,0\nx,0\n", "line 3: cell 'x'"),
    ("a,b\n1,0\n0;1\n", "line 3: expected 2 cells, got 1"),
    ("# provenance: not json\na\n1\n", "provenance"),
])
def test_csv_errors(tmp_path, text, fragment):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as handle:
        handle.write(text)
    with pytest.raises(DatasetError, match=fragment):
        Dataset.from_csv(path)


def test_csv_that_is_not_utf8(tmp_path, boost_program):
    path = tmp_path / "bad.csv"
    forward_sample(boost_program, 20, seed=3).to_csv(str(path))
    # a bad row, and a bad header over a body in the exact form to_csv
    # writes, which the column reader leaves to the line reader
    for raw in (path.read_bytes() + b"1,\xff\n", b"a,\xff\n0,1\n"):
        path.write_bytes(raw)
        with pytest.raises(DatasetError) as err:
            Dataset.from_csv(str(path))
        assert str(err.value) == f"{path} is not UTF-8 text: invalid start byte"


def _row_loop_csv(dataset):
    """The CSV bytes written one row at a time, the reference for ``to_csv``."""
    lines = []
    if dataset.provenance is not None:
        lines.append(f"# provenance: {dataset.provenance.to_json()}\n")
    lines.append(",".join(dataset.columns) + "\n")
    for row in dataset.rows:
        lines.append(",".join("1" if v else "0" for v in row) + "\n")
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("make", [
    lambda program: forward_sample(program, 500, seed=31),
    lambda program: Dataset(("a", "b", "c"),
                            forward_sample(program, 77, seed=4).rows[:, [0, 1, 0]]),
    lambda program: forward_sample(program, 0, seed=1),
    lambda program: Dataset(("x",), forward_sample(program, 9, seed=2).rows[:, :1]),
    lambda program: Dataset(("x",), np.zeros((0, 1), dtype=bool)),
    lambda program: Dataset((), np.zeros((3, 0), dtype=bool)),
], ids=["provenance", "plain", "zero-rows", "one-column", "one-column-empty",
        "no-columns"])
def test_to_csv_matches_row_loop(tmp_path, boost_program, make):
    dataset = make(boost_program)
    path = tmp_path / "out.csv"
    dataset.to_csv(str(path))
    assert path.read_bytes() == _row_loop_csv(dataset)
    assert Dataset.from_csv(str(path)) == dataset


@pytest.mark.parametrize("text", [
    "# provenance: {PROV}\r\na,b\r\n1,0\r\n0,1\r\n",
    "# provenance: {PROV}\ra,b\r1,0\r0,1\r",
    "# provenance: {PROV}\na,b\n\n1,0\n \n0,1\n\n",
    "# provenance: {PROV}\n a , b \n 1 ,0\n0, 1 \n",
    "# provenance: {PROV}\na,b\n1,0\n0,1",
    "# a comment\n# provenance: {PROV}\na,b\n1,0\n0,1\n",
    "# provenance: {PROV}\n# a comment\ra,b\n1,0\n0,1\n",
    "# provenance: {PROV}\n# a comment\x0ba,b\n1,0\n0,1\n",
], ids=["crlf", "cr", "blank-lines", "spaces", "no-final-newline", "comment",
        "cr-ends-comment", "vt-ends-comment"])
def test_from_csv_accepts_loose_forms(tmp_path, text):
    provenance = Provenance("ab" * 32, 3, 2)
    path = tmp_path / "loose.csv"
    path.write_bytes(text.replace("{PROV}", provenance.to_json()).encode())
    want = Dataset(("a", "b"), np.array([[True, False], [False, True]]), provenance)
    assert Dataset.from_csv(str(path)) == want


@pytest.mark.parametrize("text, fragment", [
    ("", "missing header row"),
    ("\na,b\n1,0\n", "missing header row"),
    ("a,b\n1\n", "line 4: expected 2 cells"),
    ("a,b\n1,2\n", "line 4: cell '2'"),
    ("a,b\n1,0\nx,0\n", "line 5: cell 'x'"),
    ("a,b\n1,0\n1,0,1\n", "line 5: expected 2 cells, got 3"),
    ("a,b\n1,0\r\n1,\r\n", "line 5: cell '' is not 0 or 1"),
    ("a,b\n\n\n1,0\n10,0\n", "line 7: cell '10'"),
    ("# provenance: not json\na\n1\n", "provenance"),
    ("a,,b\n1,0,1\n", "^line 2: column 2 of the header has no name$"),
    (" a , \t,b\r\n1,0,1\r\n", "^line 2: column 2 of the header has no name$"),
    (",\n", "^line 2: column 1 of the header has no name$"),
    ("a,B\n1,0\n", "^line 2: column 2 of the header, 'B', is not a proposition name$"),
    (" x y ,b\r\n1,0\r\n",
     "^line 2: column 1 of the header, 'x y', is not a proposition name$"),
    ("a,true\n1,0\n", "^line 2: column 2 of the header, 'true', is a reserved word$"),
    # a repeated name, through the block reader and through the line reader
    ("a,b,a\n1,0,1\n", "^line 2: column 3 of the header, 'a', repeats column 1$"),
    ("a, b ,a\r\n1, 0 ,1\r\n", "^line 2: column 3 of the header, 'a', repeats column 1$"),
])
def test_csv_error_lines_behind_provenance_and_blank_line(tmp_path, text, fragment):
    # a provenance line in front, a blank line after the header
    provenance = Provenance("cd" * 32, 1, 2).to_json()
    path = tmp_path / "bad.csv"
    path.write_text(f"# provenance: {provenance}\n" + text.replace("a,b\n", "a,b\n\n", 1),
                    newline="")
    with pytest.raises(DatasetError, match=fragment):
        Dataset.from_csv(str(path))


def test_dataset_shape_checks():
    with pytest.raises(DatasetError, match="columns"):
        Dataset(("a", "b"), np.zeros((3, 1), dtype=bool))
    with pytest.raises(DatasetError, match="^column 2, 'a', repeats column 1$"):
        Dataset(("a", "a"), np.zeros((3, 2), dtype=bool))
    with pytest.raises(DatasetError, match="no column"):
        Dataset(("a",), np.zeros((3, 1), dtype=bool)).column("b")


@pytest.mark.parametrize("name, message", [
    ("Bad", "column 2, 'Bad', is not a proposition name"),
    ("true", "column 2, 'true', is a reserved word"),
    ("", "column 2 has no name"),
    (["a"], "column 2, ['a'], is not a proposition name"),
    (np.array([1, 2]), "column 2, array([1, 2]), is not a proposition name"),
    (None, "column 2 has no name"),
], ids=["upper", "reserved", "empty", "unhashable", "array", "none"])
def test_dataset_refuses_column_names_that_are_no_propositions(name, message):
    # the CSV reader's rule and wording, without the line
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        Dataset(("a", name), np.zeros((3, 2), dtype=bool))


def test_dataset_rows_are_frozen(boost_program):
    dataset = forward_sample(boost_program, 4, seed=2)
    with pytest.raises(ValueError):
        dataset.rows[0, 0] = True
    with pytest.raises(ValueError):
        dataset.column("treatment")[0] = True


def test_dataset_leaves_the_callers_array_alone():
    rows = np.zeros((3, 2), dtype=bool)
    dataset = Dataset(("x", "y"), rows)
    assert rows.flags.writeable
    rows[0, 0] = True
    assert not dataset.rows.any()
    assert dataset.rows.shape == (3, 2) and not dataset.rows.flags.writeable


# --- frequency oracle -----------------------------------------------------------


def grid_dataset():
    # 100 rows: a true in the first 40; among those, b true in the first 10;
    # among the 60 a-false rows, b true in the first 30
    a = np.arange(100) < 40
    b = (np.arange(100) < 10) | ((np.arange(100) >= 40) & (np.arange(100) < 70))
    return Dataset(("a", "b"), np.column_stack([a, b]))


def test_frequency_rate_and_tolerance():
    oracle = FrequencyOracle(grid_dataset(), min_support=5)
    answer = oracle.success_given_parents("b", {"a": True})
    assert answer.probability == pytest.approx(0.25, abs=0)
    assert answer.tolerance == pytest.approx(0.2085543045808062, abs=1e-12)
    assert answer.support == 40


def test_frequency_empty_pattern_uses_all_rows():
    oracle = FrequencyOracle(grid_dataset(), min_support=5)
    answer = oracle.success_given_parents("b", {})
    assert answer.probability == pytest.approx(0.4, abs=0)
    assert answer.support == 100


def test_starved_pattern():
    rows = np.zeros((20, 2), dtype=bool)
    rows[:3, 0] = True
    oracle = FrequencyOracle(Dataset(("a", "b"), rows), min_support=30)
    with pytest.raises(StarvedPatternError,
                       match=r"pattern \{a\} matches only 3 rows "
                             r"\(minimum support 30\)"):
        oracle.success_given_parents("b", {"a": True})


def test_min_support_is_honored():
    rows = np.zeros((20, 2), dtype=bool)
    rows[:3, 0] = True
    oracle = FrequencyOracle(Dataset(("a", "b"), rows), min_support=2)
    answer = oracle.success_given_parents("b", {"a": True})
    assert answer.support == 3


@pytest.mark.parametrize("min_support", [0, -1])
def test_min_support_below_one_rejected(min_support):
    # a pattern with no rows would otherwise divide by zero
    with pytest.raises(OracleError, match="min_support must be at least 1"):
        FrequencyOracle(grid_dataset(), min_support=min_support)
    with pytest.raises(OracleError, match="min_support must be at least 1"):
        learn(grid_dataset(), DependencyGraph.build(["a", "b"], [("a", "b")]),
              min_support=min_support)


@pytest.mark.parametrize("min_support", [1.9, True, 30.0, "30"])
def test_min_support_must_be_an_integer(min_support):
    # none is rounded or truncated into a support count
    with pytest.raises(OracleError, match="min_support must be at least 1 and integral"):
        FrequencyOracle(grid_dataset(), min_support=min_support)
    with pytest.raises(OracleError, match="min_support must be at least 1 and integral"):
        learn(grid_dataset(), DependencyGraph.build(["a", "b"], [("a", "b")]),
              min_support=min_support)


def _outcome(oracle, target, parents):
    try:
        return oracle.success_table(target, parents)
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return type(err), str(err)


def test_grouped_counts_equal_counts_alone():
    # 200 rows hold a histogram over at most 7 columns: first fit puts five
    # families in one group over c0..c6, leaves the 8-column family alone and
    # starts a third group for c7; the two families naming a missing column
    # are not grouped and fail as they would alone
    dataset = Dataset(tuple(f"c{k}" for k in range(9)),
                      numpy_rng(7).random((200, 9)) < 0.5)
    families = [("c0", ()), ("c1", ("c0",)), ("c2", ("c0", "c1")),
                ("c5", ("c3", "c4")), ("c8", tuple(f"c{k}" for k in range(1, 8))),
                ("c6", ("c5",)), ("c7", ("c0", "c6")), ("gone", ("c0",)),
                ("c3", ("gone",))]
    grouped = FrequencyOracle(dataset, min_support=1)
    grouped.expect(families)
    assert sorted({names for names, _ in grouped._groups.values()}) == [
        ("c0", "c1", "c2", "c3", "c4", "c5", "c6"), ("c0", "c6", "c7"),
        tuple(f"c{k}" for k in range(1, 9))]
    for target, parents in families + families[:2]:
        alone = _outcome(FrequencyOracle(dataset, min_support=1), target, parents)
        assert _outcome(grouped, target, parents) == alone, (target, parents)
    assert grouped.success_given_parents("c2", {"c0": True, "c1": False}) == \
        FrequencyOracle(dataset, min_support=1).success_given_parents(
            "c2", {"c0": True, "c1": False})


# --- fingerprints ---------------------------------------------------------------


def test_fingerprint_is_canonical(boost_program):
    shuffled = parse_program(
        "0.4 :: recovery :- treatment.\n0.5 :: recovery.\n0.5 :: treatment.\n")
    assert program_fingerprint(shuffled) == program_fingerprint(boost_program)
    assert program_fingerprint(boost_program) == hashlib.sha256(
        BOOST_TEXT.encode()).hexdigest()


def test_fingerprint_separates_programs(boost_program, switch_program):
    assert program_fingerprint(boost_program) != program_fingerprint(switch_program)


# --- learning end to end --------------------------------------------------------


def test_learn_recovers_boost(boost_program):
    dataset = forward_sample(boost_program, 30000, seed=13)
    result = learn(dataset, TR_GRAPH)
    assert result.ok
    want = {(c.effect, c.causes): c.probability for c in boost_program.clauses}
    got = {(c.effect, c.causes): c.probability for c in result.program.clauses}
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=0.03)


def test_learn_reports_starved_nodes():
    program = parse_program("0.02 :: a.\n0.5 :: b :- a.\n")
    dataset = forward_sample(program, 200, seed=21)
    result = learn(dataset, program.dependency_graph())
    assert not result.ok
    assert set(result.failures) == {"b"}
    error = result.failures["b"]
    assert isinstance(error, StarvedPatternError)
    assert "below support" in str(error)
    # the failed node contributes no clauses, the healthy node still reports
    assert all(c.effect != "b" for c in result.program.clauses)
    assert result.nodes["a"].ok


def test_learn_respects_min_support():
    program = parse_program("0.02 :: a.\n0.5 :: b :- a.\n")
    dataset = forward_sample(program, 200, seed=21)
    result = learn(dataset, program.dependency_graph(), min_support=2)
    assert "b" not in result.failures


# --- the recover benchmark's stored samples -------------------------------------


def _pool_entries():
    """The first entry of each row count of the recover benchmark's pool."""
    pool = Path(__file__).resolve().parent.parent / "bench" / "recover_pool.json"
    first = {}
    for entry in json.loads(pool.read_text())["entries"]:
        first.setdefault(entry["rows"], entry)
    return [first[rows] for rows in sorted(first)]


@pytest.mark.parametrize("entry", _pool_entries(), ids=lambda entry: str(entry["rows"]))
def test_sample_and_learn_reproduce_the_recover_pool(tmp_path, capsys, entry):
    # the benchmark checks each sample's bytes and each learned weight against
    # the pool, so a change to the draws or to the CSV form fails here as well
    program, graph = tmp_path / "program.pl", tmp_path / "graph.edges"
    program.write_text(entry["program"])
    graph.write_text(entry["graph"])
    rows, learned = tmp_path / "rows.csv", tmp_path / "learned.pl"
    assert cli.main(["sample", str(program), "-n", str(entry["rows"]),
                     "--seed", str(entry["seed"]), "-o", str(rows)]) == 0
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == entry["sha256"]
    assert cli.main(["learn", "--data", str(rows), "--graph", str(graph),
                     "-o", str(learned)]) == 0, capsys.readouterr().err
    got = {(c.effect, c.causes): c.probability
           for c in parse_program(learned.read_text()).clauses}
    want = {(head, frozenset(Literal(name, positive) for name, positive in body)): weight
            for head, body, weight in entry["learned"]}
    assert got.keys() == want.keys()
    for key, weight in want.items():
        assert got[key] == pytest.approx(weight, abs=1e-12, rel=0), key

import hashlib

import numpy as np
import pytest

from causalog import (
    Atom,
    Dataset,
    DatasetError,
    DependencyGraph,
    FrequencyOracle,
    Provenance,
    StarvedPatternError,
    forward_sample,
    learn,
    parse_program,
    probability,
    program_fingerprint,
)

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
    ("# provenance: not json\na\n1\n", "provenance"),
])
def test_csv_errors(tmp_path, text, fragment):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as handle:
        handle.write(text)
    with pytest.raises(DatasetError, match=fragment):
        Dataset.from_csv(path)


def test_dataset_shape_checks():
    with pytest.raises(DatasetError, match="columns"):
        Dataset(("a", "b"), np.zeros((3, 1), dtype=bool))
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset(("a", "a"), np.zeros((3, 2), dtype=bool))
    with pytest.raises(DatasetError, match="no column"):
        Dataset(("a",), np.zeros((3, 1), dtype=bool)).column("b")


def test_dataset_rows_are_frozen(boost_program):
    dataset = forward_sample(boost_program, 4, seed=2)
    with pytest.raises(ValueError):
        dataset.rows[0, 0] = True


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

import math

import pytest

from causalog import (
    Atom,
    CausalogError,
    CyclicProgramError,
    EnumerationCapError,
    Not,
    TableSizeError,
    WorldError,
    ZeroEvidenceError,
    conditional,
    counterfactual_query,
    engine,
    evaluate_world,
    forward_sample,
    joint_table,
    parse_formula,
    parse_program,
    probability,
)

from conftest import SHARED_JOINT
from oracles import reference_conditional, reference_probability, reference_world
from proggen import (
    layered_program,
    numpy_rng,
    random_assignment,
    random_formula,
    random_program,
    with_negation_and_certainty,
)

EXACT = 1e-12


# --- frozen values from the two worked examples ------------------------------


def test_boost_marginal(boost_program):
    # 0.5 + 0.5*(1 - 0.5*0.6) ... by hand: P(recovery) = 0.6
    assert probability(boost_program, Atom("recovery")).probability == pytest.approx(0.6, abs=EXACT)


def test_boost_conditionals(boost_program):
    r = conditional(boost_program, Atom("recovery"), Atom("treatment"))
    assert r.probability == pytest.approx(0.7, abs=EXACT)
    assert r.conditioning_mass == pytest.approx(0.5, abs=EXACT)
    r = conditional(boost_program, Atom("recovery"), Not(Atom("treatment")))
    assert r.probability == pytest.approx(0.5, abs=EXACT)


def test_switch_matches_boost_observationally(boost_program, switch_program):
    for text in ("recovery", "treatment & recovery", "recovery & !treatment"):
        phi = parse_formula(text)
        a = probability(boost_program, phi).probability
        b = probability(switch_program, phi).probability
        assert a == pytest.approx(b, abs=EXACT)


def test_joint_table_values(boost_program, switch_program):
    for program in (boost_program, switch_program):
        table = joint_table(program)
        assert table.total() == pytest.approx(1.0, abs=EXACT)
        for (t, r), want in SHARED_JOINT.items():
            got = table.probability_of({"treatment": t, "recovery": r})
            assert got == pytest.approx(want, abs=EXACT)


# --- world evaluation ---------------------------------------------------------


def test_evaluate_world_solves_equations(boost_program):
    dp = boost_program.desugar()
    names = dp.noise_names
    assert names == ("u1", "u2", "u3")
    world = evaluate_world(boost_program, {"u1": True, "u2": False, "u3": True})
    assert world["treatment"] and world["recovery"]
    world = evaluate_world(boost_program, {"u1": False, "u2": False, "u3": True})
    assert not world["treatment"] and not world["recovery"]
    # random programs with negated bodies and noise pinned to 0 or 1
    rng = numpy_rng(2308)
    for _ in range(12):
        dp = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=5, max_parents=2)).desugar()
        for _ in range(4):
            noise = {u: bool(rng.random() < 0.5) for u in dp.noise_names}
            assert evaluate_world(dp, noise) == reference_world(dp, noise)


def test_evaluate_world_checks_keys(boost_program):
    with pytest.raises(WorldError, match="missing"):
        evaluate_world(boost_program, {"u1": True})
    with pytest.raises(WorldError, match="unknown"):
        evaluate_world(boost_program, {"u1": 1, "u2": 1, "u3": 1, "u9": 1})


def test_clauseless_proposition_is_false():
    program = parse_program("0.5 :: a :- ghost.\n")
    world = evaluate_world(program, {"u1": True})
    assert world["ghost"] is False
    assert world["a"] is False
    assert probability(program, Atom("ghost")).probability == 0.0


# --- agreement with the scalar reference oracle ------------------------------


def test_against_reference_oracle():
    rng = numpy_rng(90210)
    for _ in range(25):
        program = random_program(rng, max_nodes=4, max_parents=2, max_bodies=3)
        names = program.propositions
        for _ in range(3):
            phi = random_formula(rng, names)
            got = probability(program, phi).probability
            want = reference_probability(program, phi)
            assert got == pytest.approx(want, abs=1e-12)


def test_conditional_against_reference_oracle():
    rng = numpy_rng(31337)
    for _ in range(15):
        program = random_program(rng, max_nodes=4, max_parents=2, max_bodies=3)
        names = program.propositions
        phi = random_formula(rng, names)
        evidence = Atom(sorted(names)[0])
        got = conditional(program, phi, evidence).probability
        want = reference_conditional(program, phi, evidence)
        assert got == pytest.approx(want, abs=1e-12)


def test_law_of_total_probability():
    rng = numpy_rng(777)
    for _ in range(20):
        program = random_program(rng)
        names = program.propositions
        phi = random_formula(rng, names)
        e = random_formula(rng, names)
        whole = probability(program, phi).probability
        inside = parse_formula(f"({phi.to_text()}) & ({e.to_text()})")
        outside = parse_formula(f"({phi.to_text()}) & !({e.to_text()})")
        split = (probability(program, inside).probability
                 + probability(program, outside).probability)
        assert split == pytest.approx(whole, abs=1e-12)


# --- result metadata and refusals ---------------------------------------------


def test_worlds_evaluated_restricts_to_ancestors():
    # querying a root ignores the rest of the program
    program = parse_program(
        "0.5 :: a.\n0.5 :: b.\n0.5 :: c :- a, b.\n0.5 :: d :- c.\n")
    assert probability(program, Atom("a")).worlds_evaluated == 2
    assert probability(program, Atom("c")).worlds_evaluated == 8


def test_enumeration_cap_refusal(boost_program):
    with pytest.raises(EnumerationCapError) as err:
        probability(boost_program, Atom("recovery"), max_worlds=2)
    assert "CAUSALOG_MAX_WORLDS" in str(err.value)
    assert err.value.needed > err.value.cap


def test_cap_env_override(boost_program, monkeypatch):
    monkeypatch.setenv("CAUSALOG_MAX_WORLDS", "2")
    with pytest.raises(EnumerationCapError) as err:
        probability(boost_program, Atom("recovery"))
    assert "--max-worlds" in str(err.value)
    assert "CAUSALOG_MAX_WORLDS" in str(err.value)
    for bad in ("banana", "-5", "0"):
        monkeypatch.setenv("CAUSALOG_MAX_WORLDS", bad)
        with pytest.raises(CausalogError, match="CAUSALOG_MAX_WORLDS") as err:
            probability(boost_program, Atom("recovery"))
        assert not isinstance(err.value, EnumerationCapError)


def test_zero_evidence_refused(boost_program):
    contradiction = parse_formula("treatment & !treatment")
    with pytest.raises(ZeroEvidenceError):
        conditional(boost_program, Atom("recovery"), contradiction)


def test_joint_table_size_guard():
    lines = [f"0.5 :: p{i}.\n" for i in range(21)]
    program = parse_program("".join(lines))
    with pytest.raises(TableSizeError):
        joint_table(program)


def test_joint_table_uniform_product():
    program = parse_program("0.5 :: a.\n0.5 :: b.\n")
    table = joint_table(program)
    for a in (False, True):
        for b in (False, True):
            assert table.probability_of({"a": a, "b": b}) == pytest.approx(0.25, abs=EXACT)
    assert math.isclose(table.total(), 1.0, abs_tol=EXACT)


def test_tabulated_factors_match_clause_evaluation(monkeypatch):
    # joint tables over 13-14 nodes and the 2^13-world counterfactual
    # enumerate chunks large enough for their factors to be looked up in
    # tables; evaluating the clauses on every world must give the very same
    # numbers
    rng = numpy_rng(1226)
    cases = []
    for _ in range(3):
        program = with_negation_and_certainty(rng, random_program(
            rng, min_nodes=13, max_nodes=14, max_parents=3, lo=0.2, hi=0.8))
        names = list(program.propositions)
        cases.append((program, random_formula(rng, names),
                      random_assignment(rng, names, 2),
                      random_assignment(rng, names, 1)))
    # pair factors over both copies of n1 .. n6, 2^13 worlds
    cases.append((layered_program(7), parse_formula("n6 | !n4"),
                  {"n6": True, "n1": False}, {"n0": False}))

    def answers():
        out = []
        for program, phi, evidence, action in cases:
            out.append(probability(program, phi))
            try:
                out.append(counterfactual_query(program, phi, evidence, action))
            except ZeroEvidenceError:
                out.append(None)
            out.append(joint_table(program).cells)
        return out

    tabulated = answers()
    monkeypatch.setattr(engine, "_TABLE_MARGIN_BITS", 64)
    assert answers() == tabulated


def test_cyclic_program_is_refused():
    program = parse_program("0.5 :: a :- b.\n0.5 :: b :- a.\n")
    queries = [
        lambda: probability(program, Atom("a")),
        lambda: conditional(program, Atom("a"), Atom("b")),
        lambda: counterfactual_query(program, Atom("a"), {"b": True}, {"b": False}),
        lambda: forward_sample(program, 4, seed=0),
    ]
    for query in queries:
        with pytest.raises(CyclicProgramError, match="cycle: a"):
            query()


def test_probability_clamped_to_unit_interval(boost_program):
    r = conditional(boost_program, Atom("recovery"), Atom("recovery"))
    assert r.probability == 1.0

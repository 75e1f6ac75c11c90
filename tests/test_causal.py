import pytest

from causalog import (
    Atom,
    InterventionError,
    ZeroEvidenceError,
    conditional,
    conjunction_of,
    counterfactual_query,
    intervene,
    interventional_query,
    parse_formula,
    parse_program,
    probability,
    twin_program,
)

from oracles import reference_conditional, reference_probability
from proggen import (
    layered_program,
    numpy_rng,
    random_assignment,
    random_formula,
    random_program,
    with_negation_and_certainty,
)

EXACT = 1e-12


# --- program surgery ----------------------------------------------------------


def test_intervene_erases_and_pins(boost_program):
    forced = intervene(boost_program, {"treatment": True})
    texts = forced.to_text().splitlines()
    assert "1.0 :: treatment." in texts
    assert "0.5 :: treatment." not in texts
    assert len(forced.clauses_by_effect["treatment"]) == 1


def test_intervene_false_keeps_proposition_queryable(boost_program):
    suppressed = intervene(boost_program, {"treatment": False})
    assert "treatment" in suppressed.propositions
    assert probability(suppressed, Atom("treatment")).probability == 0.0
    assert probability(suppressed, Atom("recovery")).probability == pytest.approx(0.5, abs=EXACT)


def test_intervene_unknown_name(boost_program):
    with pytest.raises(InterventionError, match="cure"):
        intervene(boost_program, {"cure": True})


def test_interventional_matches_conditional_here(boost_program, switch_program):
    # With the treatment a root node, conditioning and forcing agree.
    for program in (boost_program, switch_program):
        forced = interventional_query(program, Atom("recovery"), {"treatment": True})
        assert forced.probability == pytest.approx(0.7, abs=EXACT)


def test_intervention_breaks_upstream_inference():
    # forcing the child says nothing about its cause
    program = parse_program("0.2 :: rain.\n0.9 :: wet :- rain.\n0.1 :: wet.\n")
    observed = conditional(program, Atom("rain"), Atom("wet")).probability
    forced = interventional_query(program, Atom("rain"), {"wet": True}).probability
    assert observed > 0.2
    assert forced == pytest.approx(0.2, abs=EXACT)


# --- twin construction --------------------------------------------------------


def test_twin_structure(boost_program):
    twin = twin_program(boost_program, {"treatment": True})
    dp = twin.desugared
    assert len(dp.noise_names) == 3  # shared, not duplicated
    heads = sorted(c.head for c in dp.clauses)
    assert heads == ["recovery__e", "recovery__e", "recovery__i",
                     "recovery__i", "treatment__e", "treatment__i"]
    pinned = [c for c in dp.clauses if c.head == "treatment__i"]
    assert len(pinned) == 1 and not pinned[0].literals and not pinned[0].noise


def test_twin_export_round_trip(boost_program):
    twin = twin_program(boost_program, {"treatment": True})
    replay = parse_program(twin.to_program_text())
    # the exported ordinary program must induce the same distribution over
    # the twin alphabet
    for name in ("treatment__e", "recovery__e", "recovery__i"):
        want = probability(twin.desugared, Atom(name)).probability
        got = probability(replay, Atom(name)).probability
        assert got == pytest.approx(want, abs=EXACT)
    joint = conjunction_of({"recovery__i": True, "recovery__e": False})
    want = probability(twin.desugared, joint).probability
    got = probability(replay, joint).probability
    assert got == pytest.approx(want, abs=EXACT)


# --- counterfactuals ----------------------------------------------------------


def test_boost_counterfactual_is_certain(boost_program):
    r = counterfactual_query(
        boost_program, Atom("recovery"),
        {"treatment": False, "recovery": True}, {"treatment": True})
    assert r.probability == pytest.approx(1.0, abs=EXACT)


def test_switch_counterfactual_diverges(switch_program):
    r = counterfactual_query(
        switch_program, Atom("recovery"),
        {"treatment": False, "recovery": True}, {"treatment": True})
    assert r.probability == pytest.approx(0.7, abs=EXACT)


def test_counterfactual_against_reference(boost_program, switch_program):
    for program, want in ((boost_program, 1.0), (switch_program, 0.7)):
        twin = twin_program(program, {"treatment": True})
        got = reference_conditional(
            twin.desugared,
            Atom("recovery__i"),
            conjunction_of({"recovery__e": True, "treatment__e": False}),
        )
        assert got == pytest.approx(want, abs=EXACT)


def test_counterfactual_zero_evidence():
    # a is deterministically true, so observing it false has mass zero
    program = parse_program("1 :: a.\n0.5 :: b :- a.\n")
    with pytest.raises(ZeroEvidenceError):
        counterfactual_query(program, Atom("b"), {"a": False}, {"b": True})


def test_empty_evidence_counterfactual_equals_intervention():
    rng = numpy_rng(2024)
    for _ in range(20):
        program = random_program(rng, max_nodes=4, max_parents=2, max_bodies=3)
        names = program.propositions
        phi = random_formula(rng, names)
        action = random_assignment(rng, names, 1)
        a = counterfactual_query(program, phi, {}, action).probability
        b = interventional_query(program, phi, action).probability
        assert a == pytest.approx(b, abs=1e-12)


def test_consistency_when_evidence_covers_intervention():
    rng = numpy_rng(8080)
    for _ in range(20):
        program = random_program(rng, max_nodes=4, max_parents=2, max_bodies=3)
        names = list(program.propositions)
        action = random_assignment(rng, names, 1)
        evidence = random_assignment(rng, names, min(2, len(names)))
        evidence.update(action)  # evidence extends the intervention
        phi = random_formula(rng, names)
        counter = counterfactual_query(program, phi, evidence, action).probability
        plain = conditional(program, phi, conjunction_of(evidence)).probability
        assert counter == pytest.approx(plain, abs=1e-12)


def test_counterfactual_randomized_against_reference():
    rng = numpy_rng(5150)
    for _ in range(10):
        program = random_program(rng, max_nodes=4, max_parents=2, max_bodies=3)
        names = list(program.propositions)
        phi = random_formula(rng, names)
        evidence = random_assignment(rng, names, 1)
        action = random_assignment(rng, names, 1)
        twin = twin_program(program, action)
        want = reference_conditional(
            twin.desugared,
            phi.map_atoms(lambda n: n + "__i"),
            conjunction_of({k + "__e": v for k, v in evidence.items()}),
        )
        got = counterfactual_query(program, phi, evidence, action).probability
        assert got == pytest.approx(want, abs=1e-12)


def test_counterfactual_checks_names(boost_program):
    with pytest.raises(InterventionError):
        counterfactual_query(boost_program, Atom("recovery"),
                             {"cure": True}, {"treatment": True})


def test_twin_reference_total_mass(boost_program):
    twin = twin_program(boost_program, {"treatment": True})
    assert reference_probability(twin.desugared, conjunction_of({})) == pytest.approx(1.0, abs=EXACT)


def test_factored_counterfactual_differential():
    rng = numpy_rng(1994)
    seen = {"negated": 0, "do_false": 0, "evidence_off_query": 0,
            "multi_atom": 0, "zero_evidence": 0}
    for _ in range(120):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=4, max_parents=2, max_bodies=3))
        names = list(program.propositions)
        phi = random_formula(rng, names)
        evidence = random_assignment(rng, names, int(rng.integers(0, 3)))
        action = random_assignment(rng, names, int(rng.integers(1, 3)))
        twin = twin_program(program, action)
        phi_i = phi.map_atoms(lambda n: n + "__i")
        evidence_e = conjunction_of({k + "__e": v for k, v in evidence.items()})
        try:
            want = reference_conditional(twin.desugared, phi_i, evidence_e)
        except ZeroDivisionError:
            with pytest.raises(ZeroEvidenceError):
                counterfactual_query(program, phi, evidence, action)
            seen["zero_evidence"] += 1
            continue
        got = counterfactual_query(program, phi, evidence, action)
        assert got.probability == pytest.approx(want, abs=EXACT)
        # never more worlds than walking the twin's shared noise
        noise = conditional(twin.desugared, phi_i, evidence_e)
        assert noise.probability == pytest.approx(want, abs=EXACT)
        assert got.worlds_evaluated <= noise.worlds_evaluated
        seen["negated"] += any(not lit.positive
                               for c in program.clauses for lit in c.causes)
        seen["do_false"] += not all(action.values())
        seen["evidence_off_query"] += bool(evidence) and not (evidence.keys() & phi.atoms())
        seen["multi_atom"] += len(phi.atoms()) > 1
    assert all(count > 0 for count in seen.values()), seen


def test_boost_counterfactual_worlds(boost_program):
    # treatment__e plus both copies of recovery; treatment__i is pinned
    r = counterfactual_query(
        boost_program, Atom("recovery"),
        {"treatment": False, "recovery": True}, {"treatment": True})
    assert r.worlds_evaluated == 8


def test_layered_counterfactual_under_default_cap():
    program = layered_program(10)
    assert len(program.clauses) == 30  # 2^30 shared-noise worlds
    r = counterfactual_query(program, Atom("n9"), {"n0": False, "n9": True},
                             {"n0": True})
    assert 0.0 < r.probability < 1.0
    assert r.worlds_evaluated <= 1 << 19
    # evidence that agrees with the intervention reduces to a conditional
    evidence = {"n0": True, "n9": True}
    phi = parse_formula("n8 | !n5")
    counter = counterfactual_query(program, phi, evidence, {"n0": True})
    plain = conditional(program, phi, conjunction_of(evidence))
    assert counter.probability == pytest.approx(plain.probability, abs=EXACT)

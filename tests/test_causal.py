import itertools
from pathlib import Path

import pytest

from causalog import (
    Atom,
    Clause,
    CyclicProgramError,
    EnumerationCapError,
    FormulaError,
    InterventionError,
    Literal,
    Program,
    ZeroEvidenceError,
    conditional,
    conjunction_of,
    counterfactual_query,
    intervene,
    interventional_query,
    parse_formula,
    parse_program,
    probability,
    query,
    twin_program,
)
from causalog import cli

from oracles import (
    reference_conditional,
    reference_probability,
    reference_twin,
    reference_twin_text,
)
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
    assert [c.effect for c in forced.clauses].count("treatment") == 1


def test_intervene_false_keeps_proposition_queryable(boost_program):
    suppressed = intervene(boost_program, {"treatment": False})
    assert "treatment" in suppressed.propositions
    assert probability(suppressed, Atom("treatment")).probability == 0.0
    assert probability(suppressed, Atom("recovery")).probability == pytest.approx(0.5, abs=EXACT)


@pytest.mark.parametrize("action", [{"treatment": True}, {"treatment": False},
                                    {"recovery": True, "treatment": False}, {}],
                         ids=["true", "false", "both", "none"])
def test_intervene_reads_the_rows(switch_program, action):
    # the intervened program is built from the rows, and builds no Clause
    # of either program; it equals the one built from the kept clauses
    program = switch_program
    forced = intervene(program, action)
    assert "clauses" not in program.__dict__ and "clauses" not in forced.__dict__
    kept = [c for c in program.clauses if c.effect not in action]
    want = Program(kept + [Clause(name, frozenset(), 1.0) for name in sorted(action)
                           if action[name]], declared=program.propositions)
    assert forced == want and forced.to_text() == want.to_text()
    assert forced.propositions == want.propositions and forced.clauses == want.clauses


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
    dp = reference_twin(boost_program, {"treatment": True})
    assert len(dp.noise_names) == 3  # shared, not duplicated
    heads = sorted(c.head for c in dp.clauses)
    assert heads == ["recovery__e", "recovery__e", "recovery__i",
                     "recovery__i", "treatment__e", "treatment__i"]
    pinned = [c for c in dp.clauses if c.head == "treatment__i"]
    assert len(pinned) == 1 and not pinned[0].literals and not pinned[0].noise


def test_twin_export_round_trip(boost_program):
    twin = twin_program(boost_program, {"treatment": True})
    dp = reference_twin(boost_program, {"treatment": True})
    replay = parse_program(twin.to_program_text())
    # the exported ordinary program must induce the same distribution over
    # the twin alphabet as brute force over the twin's shared noise
    for name in ("treatment__e", "recovery__e", "recovery__i"):
        want = reference_probability(dp, Atom(name))
        got = probability(replay, Atom(name)).probability
        assert got == pytest.approx(want, abs=EXACT)
    joint = conjunction_of({"recovery__i": True, "recovery__e": False})
    want = reference_probability(dp, joint)
    got = probability(replay, joint).probability
    assert got == pytest.approx(want, abs=EXACT)


# names whose twin copies list apart from the names themselves (a < a0 but
# a0__e < a__e, and a__f__e < a__e but a__i < a__f__i), and names the first
# noise facts would take, so that theirs become uu1 and uuu1
_TWIN_NAMES = ["a", "a0", "a__f", "u1", "uu1", "b", "c", "d"]


def test_twin_export_is_the_reference_twin_text():
    rng = numpy_rng(3030)
    seen = {"negated": 0, "certain": 0, "forced_true": 0, "forced_false": 0,
            "declared": 0, "u1": 0, "a_a0": 0}
    for _ in range(200):
        source = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=6, max_parents=3, max_bodies=3))
        rename = dict(zip(source.propositions,
                          rng.permutation(_TWIN_NAMES)[:len(source.propositions)].tolist()))
        declared = ["zz"] * int(rng.random() < 0.3)
        program = Program([Clause(rename[c.effect],
                                  [Literal(rename[l.name], l.positive) for l in c.causes],
                                  c.probability) for c in source.clauses], declared=declared)
        names = program.propositions
        action = random_assignment(rng, names, int(rng.integers(0, 3)))
        text = twin_program(program, action).to_program_text()
        assert text == reference_twin_text(reference_twin(program, action))
        seen["negated"] += any(not lit.positive for c in program.clauses for lit in c.causes)
        seen["certain"] += any(c.probability in (0.0, 1.0) for c in program.clauses)
        seen["forced_true"] += any(action.values())
        seen["forced_false"] += not all(action.values())
        seen["declared"] += bool(declared)
        seen["u1"] += "u1" in names
        seen["a_a0"] += any({"a", "a0"} <= {lit.name for lit in c.causes}
                            for c in program.clauses)
    assert all(count > 0 for count in seen.values()), seen


def test_twin_program_builds_no_desugared_form(boost_program, monkeypatch):
    want = reference_twin_text(reference_twin(boost_program, {"treatment": False}))
    monkeypatch.setattr(Program, "desugar", lambda self: pytest.fail("the twin desugared"))
    assert twin_program(boost_program, {"treatment": False}).to_program_text() == want


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
        got = reference_conditional(
            reference_twin(program, {"treatment": True}),
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
    # both read the twin's factors out as a plain probability, so they agree
    # to the last bit; the interventional answer is also checked against
    # brute force on the surgically modified program
    rng = numpy_rng(2024)
    do_false = 0
    for _ in range(40):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=4, max_parents=2, max_bodies=3))
        names = program.propositions
        phi = random_formula(rng, names)
        action = random_assignment(rng, names, 1)
        a = counterfactual_query(program, phi, {}, action)
        b = interventional_query(program, phi, action)
        assert a == b
        assert a.conditioning_mass == 1.0
        assert b.probability == pytest.approx(
            reference_probability(intervene(program, action), phi), abs=1e-12)
        do_false += not all(action.values())
    assert do_false > 0


def test_query_kinds_are_one_query():
    # a counterfactual with no intervention is the conditional, with no
    # evidence the interventional query and with neither the plain
    # probability, equal in every field of the result
    rng = numpy_rng(1515)
    seen = {"zero_evidence": 0, "negated": 0, "certain": 0, "do_false": 0}
    for _ in range(60):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=5, max_parents=2, max_bodies=3))
        names = program.propositions
        phi = random_formula(rng, names)
        evidence = random_assignment(rng, names, int(rng.integers(1, 3)))
        action = random_assignment(rng, names, int(rng.integers(1, 3)))
        try:
            want = conditional(program, phi, conjunction_of(evidence))
        except ZeroEvidenceError as err:
            with pytest.raises(ZeroEvidenceError) as got:
                counterfactual_query(program, phi, evidence, {})
            assert str(got.value) == str(err)
            seen["zero_evidence"] += 1
        else:
            assert counterfactual_query(program, phi, evidence, {}) == want
        assert (counterfactual_query(program, phi, {}, action)
                == interventional_query(program, phi, action))
        assert counterfactual_query(program, phi, {}, {}) == probability(program, phi)
        seen["negated"] += any(not lit.positive for c in program.clauses for lit in c.causes)
        seen["certain"] += any(c.probability in (0.0, 1.0) for c in program.clauses)
        seen["do_false"] += not all(action.values())
    assert all(count > 0 for count in seen.values()), seen


def test_formula_evidence_under_an_intervention_against_reference():
    # evidence that is no conjunction of literals stays in the final table,
    # read in the world as it was while phi is read in the intervened one
    rng = numpy_rng(4242)
    seen = {"answered": 0, "zero_evidence": 0}
    for _ in range(40):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=4, max_parents=2, max_bodies=3))
        names = program.propositions
        phi, evidence = random_formula(rng, names), random_formula(rng, names)
        action = random_assignment(rng, names, int(rng.integers(1, 3)))
        try:
            want = reference_conditional(reference_twin(program, action),
                                         phi.map_atoms(lambda n: n + "__i"),
                                         evidence.map_atoms(lambda n: n + "__e"))
        except ZeroDivisionError:
            with pytest.raises(ZeroEvidenceError):
                query(program, phi, evidence, action)
            seen["zero_evidence"] += 1
            continue
        got = query(program, phi, evidence, action)
        assert got.probability == pytest.approx(want, abs=EXACT)
        seen["answered"] += 1
    assert all(count > 0 for count in seen.values()), seen


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
        want = reference_conditional(
            reference_twin(program, action),
            phi.map_atoms(lambda n: n + "__i"),
            conjunction_of({k + "__e": v for k, v in evidence.items()}),
        )
        got = counterfactual_query(program, phi, evidence, action).probability
        assert got == pytest.approx(want, abs=1e-12)


def test_counterfactual_checks_names(boost_program):
    # evidence is checked as the formula it becomes, an intervention by name
    with pytest.raises(FormulaError, match="unknown proposition 'cure'"):
        counterfactual_query(boost_program, Atom("recovery"),
                             {"cure": True}, {"treatment": True})
    with pytest.raises(InterventionError, match="unknown proposition 'cure'"):
        counterfactual_query(boost_program, Atom("recovery"),
                             {"treatment": False}, {"cure": True})


# the program of the boost_program fixture
BOOST_FILE = str(Path(__file__).resolve().parent.parent / "fixtures" / "recovery_boost.pl")

INTERVENTION_ENTRY_POINTS = {
    "query": lambda program, do: query(program, Atom("recovery"), forced=do),
    "interventional_query": lambda program, do: interventional_query(
        program, Atom("recovery"), do),
    "counterfactual_query": lambda program, do: counterfactual_query(
        program, Atom("recovery"), {"treatment": False}, do),
    "intervene": intervene,
    "twin_program": twin_program,
}


@pytest.mark.parametrize("name", ["zz", "u1"], ids=["unknown", "noise"])
@pytest.mark.parametrize("entry", [*INTERVENTION_ENTRY_POINTS, "cli"])
def test_every_entry_point_refuses_an_unknown_intervention_alike(entry, name, boost_program,
                                                                 capsys):
    # u1 is the noise fact of the program's first clause: no proposition
    message = f"intervention names unknown proposition {name!r}"
    if entry == "cli":
        argv = ["query", BOOST_FILE, "--prob", "recovery", "--do", name]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error[intervention]: {message}\n")
        return
    with pytest.raises(InterventionError) as err:
        INTERVENTION_ENTRY_POINTS[entry](boost_program, {name: True})
    assert str(err.value) == message


def test_twin_reference_total_mass(boost_program):
    twin = reference_twin(boost_program, {"treatment": True})
    assert reference_probability(twin, conjunction_of({})) == pytest.approx(1.0, abs=EXACT)


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
            want = reference_conditional(reference_twin(program, action), phi_i, evidence_e)
        except ZeroDivisionError:
            with pytest.raises(ZeroEvidenceError):
                counterfactual_query(program, phi, evidence, action)
            seen["zero_evidence"] += 1
            continue
        got = counterfactual_query(program, phi, evidence, action)
        assert got.probability == pytest.approx(want, abs=EXACT)
        # never more worlds than the exported twin, whose noise facts are
        # propositions of their own
        replay = parse_program(twin.to_program_text())
        noise = conditional(replay, phi_i, evidence_e)
        assert noise.probability == pytest.approx(want, abs=EXACT)
        assert got.worlds_evaluated <= noise.worlds_evaluated
        seen["negated"] += any(not lit.positive
                               for c in program.clauses for lit in c.causes)
        seen["do_false"] += not all(action.values())
        seen["evidence_off_query"] += bool(evidence) and not (evidence.keys() & phi.atoms())
        seen["multi_atom"] += len(phi.atoms()) > 1
    assert all(count > 0 for count in seen.values()), seen


def test_boost_counterfactual_worlds(boost_program):
    # treatment__e (2 cells) and the pair factor of recovery's copies given
    # treatment__e (8), each built whole, then restricted to the evidence on
    # treatment__e and recovery__e, leaving one product over recovery__i (2);
    # the forced treatment__i is a constant and widens no table
    def query(cap=None):
        return counterfactual_query(
            boost_program, Atom("recovery"),
            {"treatment": False, "recovery": True}, {"treatment": True}, cap)

    r = query()
    assert r.worlds_evaluated == 12
    with pytest.raises(EnumerationCapError) as err:
        query(7)
    assert err.value.needed == 8
    assert query(8) == r


def test_interventional_worlds(boost_program):
    # the forced treatment is a constant in recovery's body, as in a
    # counterfactual: recovery__i's factor (2 cells) and the final table (2);
    # without the intervention recovery's factor spans the treatment (4)
    r = interventional_query(boost_program, Atom("recovery"), {"treatment": True})
    assert r.probability == pytest.approx(0.7, abs=EXACT)
    assert r.worlds_evaluated == 4
    for query, needed in (
            (lambda cap: interventional_query(
                boost_program, Atom("recovery"), {"treatment": True}, cap), 2),
            (lambda cap: probability(boost_program, Atom("recovery"), cap), 4)):
        with pytest.raises(EnumerationCapError) as err:
            query(needed - 1)
        assert err.value.needed == needed


def test_intervention_cuts_a_cycle_through_the_forced_node():
    # forcing a erases its clauses, the only way back into a from b, so the
    # intervened world is acyclic; evidence reads the world as it was, which
    # still has the cycle
    program = parse_program("0.3 :: a.\n0.5 :: a :- b.\n0.5 :: b :- a.\n")
    r = interventional_query(program, Atom("b"), {"a": True})
    assert r.probability == pytest.approx(0.5, abs=EXACT)
    with pytest.raises(CyclicProgramError, match="cycle: a -> b -> a$"):
        counterfactual_query(program, Atom("b"), {"b": True}, {"a": True})


def test_propositions_named_like_twin_copies_stay_apart():
    # a__i and b__e are propositions of their own, unrelated to a and b
    program = parse_program("0.5 :: a.\n0.6 :: b :- a.\n0.3 :: a__i.\n0.2 :: b__e.\n")
    r = interventional_query(program, Atom("a__i"), {"a": False})
    assert r.probability == pytest.approx(0.3, abs=EXACT)
    for action in ({"a": True}, {"a": False}):
        twin = reference_twin(program, action)
        for phi, evidence in itertools.product(
                (Atom("a__i"), Atom("b"), parse_formula("b | b__e")),
                ({"b__e": True}, {"b__e": True, "b": True}, {"a__i": False})):
            want = reference_conditional(
                twin, phi.map_atoms(lambda n: n + "__i"),
                conjunction_of({k + "__e": v for k, v in evidence.items()}))
            got = counterfactual_query(program, phi, evidence, action)
            assert got.probability == pytest.approx(want, abs=EXACT)
            assert got.conditioning_mass == pytest.approx(
                probability(program, conjunction_of(evidence)).probability, abs=EXACT)


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

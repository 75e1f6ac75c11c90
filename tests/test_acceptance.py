"""The nine acceptance checks, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL ...`` line (visible with
``pytest -s``) and then asserts. Expected values come from hand-worked
fixtures, closed-form identities, and independent scalar arithmetic, never
from the code under test.
"""

import time

import pytest

from causalog import (
    And,
    Atom,
    CausalogError,
    ExactOracle,
    Not,
    conditional,
    conjunction_of,
    counterfactual_query,
    forward_sample,
    interventional_query,
    joint_table,
    learn,
    probability,
    reconstruct,
)

from conftest import SHARED_JOINT
from proggen import (
    closed_form_success,
    numpy_rng,
    query_plan,
    random_assignment,
    random_formula,
    random_learnable_program,
    random_program,
    subsets_by_size,
)


def report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


def clause_map(program):
    return {(c.effect, c.causes): c.probability for c in program.clauses}


def union_errors(hidden, learned):
    """Per-clause absolute parameter errors over the union of clause keys,
    so a missed or invented clause is charged its full weight."""
    want = clause_map(hidden)
    got = clause_map(learned)
    return [abs(want.get(key, 0.0) - got.get(key, 0.0))
            for key in set(want) | set(got)]


# --- worked-example criteria -----------------------------------------------------


def test_criterion_1_interventional_value(boost_program):
    got = interventional_query(boost_program, Atom("recovery"),
                               {"treatment": True}).probability
    report(1, abs(got - 0.7) <= 1e-9,
           f"recovery under forced treatment = {got!r}, want 0.7 within 1e-9")


def test_criterion_2_counterfactual_value(boost_program):
    got = counterfactual_query(boost_program, Atom("recovery"),
                               {"treatment": False, "recovery": True},
                               {"treatment": True}).probability
    report(2, abs(got - 1.0) <= 1e-9,
           f"boost counterfactual = {got!r}, want 1.0 within 1e-9")


def test_criterion_3_same_joint_different_counterfactual(boost_program,
                                                         switch_program):
    got = counterfactual_query(switch_program, Atom("recovery"),
                               {"treatment": False, "recovery": True},
                               {"treatment": True}).probability
    boost = joint_table(boost_program)
    switch = joint_table(switch_program)
    worst = 0.0
    for (t, r), mass in SHARED_JOINT.items():
        cell = {"treatment": t, "recovery": r}
        worst = max(worst,
                    abs(boost.probability_of(cell) - switch.probability_of(cell)),
                    abs(boost.probability_of(cell) - mass))
    ok = abs(got - 0.7) <= 1e-9 and worst <= 1e-12
    report(3, ok,
           f"switch counterfactual = {got!r} (want 0.7 within 1e-9); "
           f"joint tables agree within {worst:.2e} (want 1e-12)")


# --- exact-oracle property suite ---------------------------------------------------


@pytest.fixture(scope="module")
def suite200():
    rng = numpy_rng(424242)
    return [random_program(rng, max_nodes=6, max_parents=3, lo=0.05, hi=0.95)
            for _ in range(200)]


def test_criterion_4_oracle_round_trip(suite200):
    start = time.perf_counter()
    problems = []
    worst = 0.0
    for i, program in enumerate(suite200):
        result = reconstruct(ExactOracle(program), program.dependency_graph())
        if not result.ok:
            problems.append(f"#{i} failed on {sorted(result.failures)}")
            continue
        want = clause_map(program)
        got = clause_map(result.program)
        if set(want) != set(got):
            problems.append(f"#{i} structure differs")
            continue
        worst = max(worst, max(abs(got[k] - v) for k, v in want.items()))
    elapsed = time.perf_counter() - start
    ok = not problems and worst < 1e-6 and elapsed < 60.0
    report(4, ok,
           f"{200 - len(problems)}/200 canonical round trips, max parameter "
           f"error {worst:.2e} (budget 1e-6), {elapsed:.1f} s (budget 60 s)"
           + (f"; first problem: {problems[0]}" if problems else ""))


def test_criterion_5_success_probability_identity(suite200):
    worst = 0.0
    checked = 0
    for program in suite200:
        graph = program.dependency_graph()
        for node in sorted(graph.nodes):
            parents = sorted(graph.parents(node))
            for subset in subsets_by_size(parents):
                pattern = {p: (p in subset) for p in parents}
                got = conditional(program, Atom(node),
                                  conjunction_of(pattern)).probability
                want = closed_form_success(program, node, subset)
                worst = max(worst, abs(got - want))
                checked += 1
    report(5, worst <= 1e-9,
           f"engine matches the noisy-OR closed form on {checked} "
           f"(node, parent pattern) cases, worst deviation {worst:.2e} "
           f"(budget 1e-9)")


# --- sampled-data suite ------------------------------------------------------------


@pytest.fixture(scope="module")
def learning_suite():
    rng = numpy_rng(20260816)
    hidden = [random_learnable_program(rng) for _ in range(20)]
    start = time.perf_counter()
    runs = []
    for i, program in enumerate(hidden):
        graph = program.dependency_graph()
        large = learn(forward_sample(program, 100_000, seed=1000 + i), graph)
        small = learn(forward_sample(program, 1_000, seed=5000 + i), graph)
        runs.append((program, large, small))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_6_learning_consistency(learning_suite):
    runs, elapsed = learning_suite
    structure_hits = 0
    worst = 0.0
    large_errors = []
    small_errors = []
    for hidden, large, small in runs:
        want = clause_map(hidden)
        got = clause_map(large.program)
        if large.ok and set(want) == set(got):
            structure_hits += 1
            worst = max(worst, max(abs(got[k] - v) for k, v in want.items()))
        large_errors.extend(union_errors(hidden, large.program))
        small_errors.extend(union_errors(hidden, small.program))
    mean_large = sum(large_errors) / len(large_errors)
    mean_small = sum(small_errors) / len(small_errors)
    ok = (structure_hits == 20 and worst <= 0.03
          and mean_small > mean_large and elapsed < 300.0)
    report(6, ok,
           f"{structure_hits}/20 exact structures at 100k rows, max parameter "
           f"error {worst:.4f} (budget 0.03); batch-mean error {mean_small:.4f} "
           f"at 1k rows > {mean_large:.4f} at 100k rows: "
           f"{mean_small > mean_large}; {elapsed:.0f} s (budget 300 s)")


def test_criterion_7_learned_counterfactuals(learning_suite):
    runs, _ = learning_suite
    problems = []
    worst = 0.0
    for i, (hidden, large, _) in enumerate(runs):
        phi, evidence, action = query_plan(hidden)
        try:
            truth = counterfactual_query(hidden, phi, evidence, action).probability
            guess = counterfactual_query(large.program, phi, evidence,
                                         action).probability
        except CausalogError as err:
            problems.append(f"#{i} raised {err.code}")
            continue
        worst = max(worst, abs(truth - guess))
    ok = not problems and worst <= 0.03
    report(7, ok,
           f"fixed counterfactual replayed on 20 learned programs, worst "
           f"|hidden - learned| = {worst:.4f} (budget 0.03)"
           + (f"; {problems}" if problems else ""))


# --- probabilistic-law criteria -----------------------------------------------------


def test_criterion_8_distribution_laws():
    rng = numpy_rng(88001)
    worst_total = 0.0
    for _ in range(100):
        program = random_program(rng)
        worst_total = max(worst_total, abs(joint_table(program).total() - 1.0))

    rng = numpy_rng(88002)
    worst_lotp = 0.0
    for _ in range(100):
        program = random_program(rng)
        names = program.propositions
        phi = random_formula(rng, names)
        psi = random_formula(rng, names)
        whole = probability(program, phi).probability
        inside = probability(program, And(phi, psi)).probability
        outside = probability(program, And(phi, Not(psi))).probability
        worst_lotp = max(worst_lotp, abs(whole - inside - outside))

    rng = numpy_rng(88003)
    worst_empty = 0.0
    for _ in range(100):
        program = random_program(rng, max_nodes=4, max_parents=2, max_bodies=3)
        names = sorted(program.propositions)
        action = random_assignment(rng, names, size=1 + int(rng.integers(0, 2)))
        phi = random_formula(rng, names)
        plain = interventional_query(program, phi, action).probability
        twin = counterfactual_query(program, phi, {}, action).probability
        worst_empty = max(worst_empty, abs(plain - twin))

    rng = numpy_rng(88004)
    worst_consistency = 0.0
    for _ in range(100):
        program = random_program(rng, max_nodes=4, max_parents=2, max_bodies=3)
        names = sorted(program.propositions)
        action = random_assignment(rng, names, size=1)
        evidence = random_assignment(rng, names, size=min(2, len(names)))
        evidence.update(action)
        cf = counterfactual_query(program, Atom(names[-1]), evidence,
                                  action).probability
        plain = conditional(program, Atom(names[-1]),
                            conjunction_of(evidence)).probability
        worst_consistency = max(worst_consistency, abs(cf - plain))

    ok = max(worst_total, worst_lotp, worst_empty, worst_consistency) <= 1e-12
    report(8, ok,
           f"normalization {worst_total:.2e}, total probability {worst_lotp:.2e}, "
           f"empty-evidence counterfactual vs interventional {worst_empty:.2e}, "
           f"evidence-covers-intervention consistency {worst_consistency:.2e} "
           f"(each over 100 cases, budget 1e-12)")


def test_criterion_9_parent_observation_equals_intervention():
    rng = numpy_rng(99001)
    worst = 0.0
    for _ in range(100):
        # the DAG draw has an edge, but a program keeps only the bodies it
        # draws, so redraw until an edge survives in the program itself
        while True:
            program = random_program(rng, require_edge=True)
            graph = program.dependency_graph()
            with_parents = [n for n in sorted(graph.nodes) if graph.parents(n)]
            if with_parents:
                break
        node = with_parents[0]
        parents = sorted(graph.parents(node))
        pattern = {p: bool(rng.random() < 0.5) for p in parents}
        observed = conditional(program, Atom(node),
                               conjunction_of(pattern)).probability
        forced = interventional_query(program, Atom(node), pattern).probability
        worst = max(worst, abs(observed - forced))
    report(9, worst <= 1e-12,
           f"conditioning on a full parent pattern equals intervening on it, "
           f"worst deviation {worst:.2e} over 100 cases (budget 1e-12)")

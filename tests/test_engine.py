import gc
import itertools
import math
import weakref
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from causalog import (
    Atom,
    CausalogError,
    CyclicProgramError,
    EnumerationCapError,
    ExactOracle,
    Not,
    Program,
    ProgramError,
    TableSizeError,
    ZeroEvidenceError,
    conditional,
    conjunction_of,
    counterfactual_query,
    forward_sample,
    intervene,
    interventional_query,
    joint_table,
    parse_formula,
    parse_program,
    probability,
    reconstruct,
    twin_program,
)

from causalog import causal, engine
from causalog.engine import _factors, marginal, marginals, node_factor, query

from conftest import SHARED_JOINT
from oracles import (
    marginal_given,
    reference_conditional,
    reference_joint,
    reference_probability,
    reference_twin,
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


# --- clauseless propositions --------------------------------------------------


def test_clauseless_proposition_is_false():
    # a body atom no clause concludes, and a name an intervention erases
    # to false, are false in every sampled row and have probability 0
    program = parse_program("0.5 :: a :- ghost.\n")
    rows = forward_sample(program, 50, seed=4).rows
    assert not rows.any()
    assert probability(program, Atom("ghost")).probability == 0.0
    forced = intervene(parse_program("0.5 :: x.\n0.5 :: y :- x.\n"), {"x": False})
    dataset = forward_sample(forced, 50, seed=4)
    assert dataset.columns == ("x", "y") and not dataset.rows.any()
    assert probability(forced, Atom("x")).probability == 0.0


# --- agreement with the scalar reference oracle ------------------------------


def test_against_reference_oracle():
    rng = numpy_rng(90210)
    for _ in range(25):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=4, max_parents=2, max_bodies=3))
        names = program.propositions
        for _ in range(3):
            phi = random_formula(rng, names)
            got = probability(program, phi).probability
            want = reference_probability(program, phi)
            assert got == pytest.approx(want, abs=1e-12)


def test_conditional_against_reference_oracle():
    rng = numpy_rng(31337)
    for _ in range(15):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=4, max_parents=2, max_bodies=3))
        names = program.propositions
        phi = random_formula(rng, names)
        evidence = Atom(sorted(names)[0])
        try:
            want = reference_conditional(program, phi, evidence)
        except ZeroDivisionError:
            with pytest.raises(ZeroEvidenceError):
                conditional(program, phi, evidence)
            continue
        got = conditional(program, phi, evidence).probability
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
    # a query touches only its ancestral closure: the rest of the program
    # changes neither its answer nor the cells of the tables it builds
    program = parse_program(
        "0.5 :: a.\n0.5 :: b.\n0.5 :: c :- a, b.\n0.5 :: d :- c.\n")
    closures = {"a": "0.5 :: a.\n", "c": "0.5 :: a.\n0.5 :: b.\n0.5 :: c :- a, b.\n"}
    for atom, closure in closures.items():
        assert probability(program, Atom(atom)) == probability(parse_program(closure), Atom(atom))
    # the root's factor and the final table over it, two cells each
    assert probability(program, Atom("a")).worlds_evaluated == 4


def _factor_variables(dp, atoms):
    """The propositions of the ancestral closure of ``atoms`` and the random
    noise facts its clauses read that several clauses of ``dp`` read: every
    variable a query over ``atoms`` can eliminate."""
    relevant = set(atoms)
    while True:
        grown = relevant | {lit.name for c in dp.clauses if c.head in relevant
                            for lit in c.literals}
        if grown == relevant:
            break
        relevant = grown
    reads = [u for c in dp.clauses for u in c.noise if 0.0 < dp.noise_probability(u) < 1.0]
    return relevant, {u for c in dp.clauses if c.head in relevant for u in c.noise
                      if reads.count(u) > 1}


def test_world_count_bounds():
    # the largest product never exceeds 2^(factor variables), and the cap
    # refuses rather than truncates: a cap one cell below the largest
    # product raises, a cap equal to it returns the default-cap answer
    # (through the planned elimination where the default cap took one step)
    rng = numpy_rng(5)
    seen = {"negated": 0, "certain": 0, "shared_noise": 0}
    for _ in range(60):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=5, max_parents=2, max_bodies=3))
        names = list(program.propositions)
        phi = random_formula(rng, names)
        observed = random_assignment(rng, names, 1)
        evidence = conjunction_of(observed)
        action = random_assignment(rng, names, int(rng.integers(1, 3)))
        forced = intervene(program, action)
        reference = reference_twin(program, action)
        replay = parse_program(twin_program(program, action).to_program_text())
        phi_i = phi.map_atoms(lambda n: n + "__i")
        evidence_e = evidence.map_atoms(lambda n: n + "__e")
        both = phi.atoms() | evidence.atoms()
        twin_atoms = phi_i.atoms() | evidence_e.atoms()
        queries = [
            (lambda cap: probability(program, phi, cap), program.desugar(), phi.atoms()),
            (lambda cap: conditional(program, phi, evidence, cap), program.desugar(), both),
            (lambda cap: interventional_query(program, phi, action, cap), forced.desugar(),
             phi.atoms()),
            # merged copies and constants only remove twin variables
            (lambda cap: counterfactual_query(program, phi, observed, action, cap),
             reference, twin_atoms),
            # the exported twin, its noise facts propositions of their own
            (lambda cap: conditional(replay, phi_i, evidence_e, cap), replay.desugar(),
             twin_atoms),
        ]
        for query, dp, atoms in queries:
            try:
                answer = query(None)
            except ZeroEvidenceError:
                continue
            with pytest.raises(EnumerationCapError) as err:
                query(1)
            needed = err.value.needed
            relevant, shared = _factor_variables(dp, atoms)
            assert needed <= 1 << (len(relevant) + len(shared))
            with pytest.raises(EnumerationCapError):
                query(needed - 1)
            got = query(needed)
            assert got.probability == pytest.approx(answer.probability, abs=EXACT)
            assert got.conditioning_mass == pytest.approx(answer.conditioning_mass, abs=EXACT)
        seen["negated"] += any(not lit.positive for c in program.clauses for lit in c.causes)
        seen["certain"] += any(c.probability in (0.0, 1.0) for c in program.clauses)
        seen["shared_noise"] += bool(_factor_variables(reference, twin_atoms)[1])
    assert all(count > 0 for count in seen.values()), seen


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


def test_joint_table_cells_answer_as_a_dict_would():
    # cells is a read-only view over the masses; on every read it answers as
    # the dict of one key tuple and one float per cell would
    rng = numpy_rng(1818)
    for n in range(11):
        program = random_program(rng, min_nodes=n, max_nodes=n)
        if n % 2:
            program = with_negation_and_certainty(rng, program)
        table = joint_table(program)
        cells = table.cells
        want = dict(zip(itertools.product((False, True), repeat=n), table.masses.tolist()))
        assert list(cells) == list(want) and list(cells.keys()) == list(want)
        assert len(cells) == len(want) == 1 << n
        assert cells.values() == list(want.values())
        assert cells == want and want == cells
        assert cells == pytest.approx(want, abs=0) and want == pytest.approx(cells, abs=0)
        bits = [bool(b) for b in rng.integers(0, 2, n)]
        probes = [tuple(bits), tuple(int(b) for b in bits), tuple(np.bool_(b) for b in bits),
                  tuple(float(b) for b in bits), tuple(2 * b for b in bits),
                  tuple(bits[:-1]), tuple(bits) + (False,), None, 0, "n0", frozenset()]
        for probe in probes:
            assert (probe in cells) == (probe in want), probe
            assert cells.get(probe) == want.get(probe), probe
            if probe not in want:
                with pytest.raises(KeyError):
                    cells[probe]
        # writes are refused: the masses and the view are read-only, and the
        # table is frozen
        with pytest.raises(ValueError):
            table.masses[0] = 0.5
        with pytest.raises(TypeError):
            cells[tuple(bits)] = 0.5
        with pytest.raises(AttributeError):
            table.masses = np.ones(1 << n)


def test_joint_table_builds_no_per_cell_objects():
    # a 16-node joint table is its 2^16 masses and a view over them: with the
    # program's factors cached, the call peaks within a small multiple of the
    # masses, where a dict of one key tuple and one float per cell took 15 MB
    program = layered_program(16)
    joint_table(program)
    tracemalloc.start()
    try:
        table = joint_table(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.masses.size == len(table.cells) == 1 << 16
    assert peak < 4 * (1 << 16) * 8, peak


def test_marginal_edge_cases():
    program = parse_program("0.3 :: a.\n0.5 :: b :- a.\n")
    # a repeated column has mass only where its copies agree
    assert marginal(program, ["a", "a"]).masses.tolist() == pytest.approx(
        [0.7, 0.0, 0.0, 0.3], abs=EXACT)
    assert marginal(program, ["b", "a", "b"]).masses.tolist() == pytest.approx(
        [0.7, 0.0, 0.15, 0.0, 0.0, 0.0, 0.0, 0.15], abs=EXACT)
    assert marginal(program, []).masses.tolist() == [1.0]
    empty = joint_table(parse_program(""))
    assert empty.cells == {(): 1.0}
    assert empty.total() == 1.0


def test_desugared_program_is_refused_by_name(boost_program):
    # the queries take a Program; its desugaring is refused with a typed
    # error, not an AttributeError from deep in the factor build
    dp = boost_program.desugar()
    for ask in (lambda: query(dp, Atom("recovery")),
                lambda: query(dp, Atom("recovery"), Atom("treatment"), {"treatment": True}),
                lambda: marginal(dp, ["recovery"]),
                lambda: marginals(dp, [("recovery", "treatment")]),
                lambda: node_factor(dp, "recovery")):
        with pytest.raises(ProgramError, match="expected a Program, got DesugaredProgram"):
            ask()


def test_repeated_columns_spread_in_place():
    # a repeated column's mass lies where its copies agree; spreading the
    # table there builds no index array of the table's size per column, so
    # the peak stays within a small multiple of the answer
    lines = [f"0.{k % 8 + 1} :: r{k}." for k in range(12)]
    lines += [f"0.0{k % 9 + 1} :: h :- {'' if k % 3 else chr(92) + '+ '}r{k}."
              for k in range(12)]
    program = parse_program("\n".join(lines) + "\n")
    names = list(program.propositions)
    joint = reference_joint(program)
    for columns in (["h", *(f"r{k}" for k in range(12)), "h"],
                    ["r3", "h", "r3", "r3", "r0"]):
        cells = {}
        for bits, w in joint.items():
            values = dict(zip(names, bits))
            cells.setdefault(tuple(values[c] for c in columns), []).append(w)
        want = [math.fsum(cells.get(key, [0.0]))
                for key in itertools.product((False, True), repeat=len(columns))]
        marginal(program, columns)  # the program's factors, built once
        tracemalloc.start()
        try:
            masses = marginal(program, columns).masses
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masses == pytest.approx(want, abs=EXACT)
        if len(columns) > 5:
            assert peak <= 3 * masses.nbytes, (peak, masses.nbytes)


def test_tabulated_factors_match_clause_evaluation():
    # the kernel tabulates every factor once, in place; the answers must
    # match evaluating the clauses assignment by assignment: joint tables
    # over 13-14 nodes against the chain rule, probabilities against the sums
    # of those cells, and counterfactuals (pair factors and constants)
    # against the twin's export replayed as a program (its shared noise as
    # variables) and, for the last case, against brute force on the twin
    rng = numpy_rng(1226)
    cases = []
    for _ in range(3):
        program = with_negation_and_certainty(rng, random_program(
            rng, min_nodes=13, max_nodes=14, max_parents=3, lo=0.2, hi=0.8))
        names = list(program.propositions)
        cases.append((program, random_formula(rng, names),
                      random_assignment(rng, names, 2),
                      random_assignment(rng, names, 1)))
        joint = reference_joint(program)
        cells = joint_table(program).cells
        assert list(cells) == list(itertools.product((False, True), repeat=len(names)))
        assert cells == pytest.approx(joint, abs=EXACT)
        phi = cases[-1][1]
        want = math.fsum(w for bits, w in joint.items() if phi.evaluate(dict(zip(names, bits))))
        assert probability(program, phi).probability == pytest.approx(want, abs=EXACT)
    # a root with ten children, the marginal of the children: the step that
    # sums the root out multiplies eleven operands over 2^11 cells, a product
    # built by broadcasting
    lines = ["0.4 :: r."]
    for k in range(10):
        lines += [f"0.{k + 1} :: c{k} :- r.", f"0.{9 - k}5 :: c{k} :- \\+ r."]
    marginal_cases = [(parse_program("\n".join(lines) + "\n"),
                   tuple(f"c{k}" for k in (3, 9, 0, 8, 1, 7, 2, 6, 4, 5)))]
    # a head on twelve roots, its clauses' bodies one to three literals, some
    # negated, one clause certain and one impossible: the head's factor has
    # 2^13 cells, each clause's miss multiplied into the slice its body selects
    lines = [f"0.{k % 8 + 1} :: r{k}." for k in range(12)]
    lines += ["0.3 :: h :- r0.", "0.25 :: h :- \\+ r1, r2.", "0.4 :: h :- r3, \\+ r4, r5.",
              "1 :: h :- r6, r7.", "0 :: h :- \\+ r8.", "0.15 :: h :- \\+ r9, \\+ r10, r11.",
              "0.2 :: h :- r2, r11.", "0.35 :: h :- \\+ r0, r8."]
    marginal_cases.append((parse_program("\n".join(lines) + "\n"), ("r8", "h", "r0", "r6")))
    for program, columns in marginal_cases:
        names = list(program.propositions)
        joint = reference_joint(program)
        assert joint_table(program).cells == pytest.approx(joint, abs=EXACT)
        cells = {}
        for bits, w in joint.items():
            values = dict(zip(names, bits))
            cells.setdefault(tuple(values[c] for c in columns), []).append(w)
        want = [math.fsum(cells[key])
                for key in itertools.product((False, True), repeat=len(columns))]
        assert marginal(program, columns).masses == pytest.approx(want, abs=EXACT)
    # pair factors over both copies of n1 .. n6
    cases.append((layered_program(7), parse_formula("n6 | !n4"),
                  {"n6": True, "n1": False}, {"n0": False}))
    # the copies of n0, n1, n3, n4 and n5 share noise, n2__i is forced and
    # n2__e has its own factor
    cases.append((layered_program(7), parse_formula("n5 | !n3"),
                  {"n4": True, "n5": False}, {"n2": False}))
    # a pair factor over a head on six roots under do(c=false): the clauses
    # on c hold in the evidence copy only, the one on !c and d holds on d
    # alone in the intervention copy, the others alike in both
    lines = ["0.3 :: a.", "0.6 :: b.", "0.5 :: c.", "0.4 :: d.", "0.7 :: e.", "0.2 :: f.",
             "0.1 :: h.", "0.5 :: h :- c.", "0.35 :: h :- \\+ c, d.",
             "0.45 :: h :- a, \\+ b, e.", "0.25 :: h :- f.", "1 :: h :- c, d, \\+ e."]
    cases.append((parse_program("\n".join(lines) + "\n"), parse_formula("h | !d"),
                  {"h": True, "a": False}, {"c": False}))
    for program, phi, evidence, action in cases:
        twin = twin_program(program, action)
        replay = parse_program(twin.to_program_text())
        phi_i = phi.map_atoms(lambda n: n + "__i")
        evidence_e = conjunction_of({k + "__e": v for k, v in evidence.items()})
        got = counterfactual_query(program, phi, evidence, action).probability
        assert conditional(replay, phi_i, evidence_e).probability == pytest.approx(
            got, abs=EXACT)
    # the last case: its twin's 2^12 noise worlds are few enough for brute force
    assert got == pytest.approx(
        reference_conditional(reference_twin(program, action), phi_i, evidence_e), abs=EXACT)


def test_listed_tables_equal_sliced_tables(monkeypatch):
    # a table of at most _LIST_CELLS cells is built in Python lists, a larger
    # one by slicing in place; both must give the very same floats, for the
    # factors of every query kind: heads, pair factors, bodies a forced parent
    # makes impossible, certain clauses and impossible ones
    rng = numpy_rng(2110)
    gate = engine._LIST_CELLS
    seen = {"head": 0, "pair": 0, "impossible_body": 0, "certain": 0,
            "impossible_clause": 0, "listed": 0, "sliced": 0}
    for _ in range(120):
        program = with_negation_and_certainty(
            rng, random_program(rng, min_nodes=5, max_nodes=9, max_parents=6, max_bodies=8))
        names = list(program.propositions)
        queried = random_assignment(rng, names, int(rng.integers(1, 3)))
        observed = random_assignment(rng, names, int(rng.integers(1, len(names))))
        forced = random_assignment(rng, names[:3], int(rng.integers(0, 3)))
        fires = [c.probability for c in program.clauses]
        seen["certain"] += 1.0 in fires
        seen["impossible_clause"] += 0.0 in fires
        for factor in _factors(program, queried, observed, forced)[0]:
            seen["listed" if 1 << len(factor.scope) <= gate else "sliced"] += 1
            tables = []
            for limit in (1 << 62, 0):
                monkeypatch.setattr(engine, "_LIST_CELLS", limit)
                tables.append(engine.Factor(factor.heads, factor.terms).table)
            assert tables[0].shape == tables[1].shape == (2,) * len(factor.scope)
            assert (tables[0] == tables[1]).all(), factor
            seen["pair" if len(factor.heads) == 2 else "head"] += 1
            seen["impossible_body"] += any(
                body is None for bodies, _ in factor.terms for body in bodies)
    assert min(seen.values()) >= 10, seen


def _whole_product(operands, keep):
    # the reference: every operand multiplied in order into a table of ones
    # over all the axes, the summed variables leading, which are summed out
    axes = engine._union([keep, *(s for _, s in operands)])
    summed = axes[len(keep):]
    axis = {v: k for k, v in enumerate(summed + keep)}
    product = np.ones((2,) * len(axes))
    for table, scope in operands:
        ordered = sorted(range(len(scope)), key=lambda k: axis[scope[k]])
        shape = [1] * len(axes)
        for v in scope:
            shape[axis[v]] = 2
        product *= table.transpose(ordered).reshape(shape)
    return product.sum(axis=tuple(range(len(summed)))) if summed else product


def test_grown_broadcast_product_equals_the_whole_product():
    # the product grown operand by operand sums to the same floats, bit for
    # bit, as one multiplied into a whole table of ones; every case sums
    # variables out, and about half keep a variable that no operand holds
    rng = numpy_rng(23)
    orphans = 0
    for _ in range(60):
        width = int(rng.integers(10, 15))
        names = [f"v{k}" for k in range(width)]
        held = names[:-1] if rng.random() < 0.5 else names
        operands = []
        for _ in range(int(rng.integers(engine._EINSUM_LOOPS + 1, 12))):
            scope = tuple(rng.choice(held, size=int(rng.integers(1, 5)), replace=False))
            operands.append((rng.random((2,) * len(scope)), scope))
        for name in set(held).difference(*(s for _, s in operands)):
            operands.append((rng.random(2), (name,)))
        keep = tuple(rng.choice(held, size=int(rng.integers(0, 5)), replace=False))
        if held is not names:
            keep = keep[:1] + (names[-1],) + keep[1:]
            orphans += 1
        assert len(operands) > engine._EINSUM_LOOPS
        assert len(engine._union([keep, *(s for _, s in operands)])) in \
            engine._BROADCAST_VARIABLES
        got, want = engine._contract(list(operands), keep), _whole_product(operands, keep)
        assert got.shape == want.shape == (2,) * len(keep)
        assert (got == want).all()
    assert 20 <= orphans <= 40


def test_factor_cache_dies_with_its_program():
    # the factors every query shares live on their program, so that they go
    # when it does
    program = parse_program("0.3 :: a.\n0.4 :: b.\n0.5 :: b :- a.\n")
    probability(program, Atom("b"))
    counterfactual_query(program, Atom("b"), {"b": True}, {"a": False})
    marginal(program, ["a", "b"])
    assert reconstruct(ExactOracle(program), program.dependency_graph()).ok
    assert set(program._factors) == {"a", "b"}
    alive = weakref.ref(program)
    del program
    gc.collect()
    assert alive() is None


def test_cyclic_program_is_refused():
    program = parse_program("0.5 :: a :- b.\n0.5 :: b :- a.\n")
    queries = [
        lambda: probability(program, Atom("a")),
        lambda: conditional(program, Atom("a"), Atom("b")),
        lambda: counterfactual_query(program, Atom("a"), {"b": True}, {"b": False}),
        lambda: forward_sample(program, 4, seed=0),
    ]
    for query in queries:
        with pytest.raises(CyclicProgramError, match="cycle: a -> b -> a$"):
            query()


def test_queries_build_no_program(monkeypatch):
    # every query kind reads its factors off the program's own clauses: none
    # desugars the program, intervenes on it or builds its twin
    def refuse(*args, **kwargs):
        raise AssertionError("a query built a program")

    monkeypatch.setattr(Program, "desugar", refuse)
    monkeypatch.setattr(causal, "intervene", refuse)
    monkeypatch.setattr(causal, "twin_program", refuse)
    root = Path(__file__).resolve().parent.parent / "fixtures"
    for name, counterfactual in (("recovery_boost.pl", 1.0), ("recovery_switch.pl", 0.7)):
        program = parse_program((root / name).read_text())
        recovery, treatment = Atom("recovery"), Atom("treatment")
        answers = [
            (probability(program, recovery), 0.6),
            (conditional(program, recovery, treatment), 0.7),
            (interventional_query(program, recovery, {"treatment": True}), 0.7),
            (counterfactual_query(program, recovery, {"treatment": False, "recovery": True},
                                  {"treatment": True}), counterfactual),
        ]
        for result, want in answers:
            assert result.probability == pytest.approx(want, abs=EXACT)
        columns = ("treatment", "recovery")
        want = [SHARED_JOINT[(t, r)] for t in (False, True) for r in (False, True)]
        assert marginal(program, columns).masses == pytest.approx(want, abs=EXACT)
        calibrated = marginals(program, [columns]).marginals[columns]
        assert calibrated.masses == pytest.approx(want, abs=EXACT)
        table = joint_table(program)
        assert table.probability_of({"treatment": True, "recovery": True}) == pytest.approx(
            SHARED_JOINT[(True, True)], abs=EXACT)
        result = reconstruct(ExactOracle(program), program.dependency_graph())
        assert result.ok
        assert joint_table(result.program).cells == pytest.approx(table.cells, abs=1e-9)


def test_probability_clamped_to_unit_interval(boost_program):
    r = conditional(boost_program, Atom("recovery"), Atom("recovery"))
    assert r.probability == 1.0


# --- one calibration for many families ----------------------------------------


def test_calibrated_families_match_per_family_marginals():
    rng = numpy_rng(2718)
    seen = {"family": 0, "left_out": 0, "zero": 0}
    for _ in range(60):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=7, max_parents=3))
        graph = program.dependency_graph()
        names = list(program.propositions)
        families = [(h, *sorted(graph.parents(h))) for h in names]
        # sets that need not be families: a node and up to three others
        for h in names:
            others = [n for n in names if n != h]
            picks = rng.choice(len(others), size=min(len(others), int(rng.integers(1, 4))),
                               replace=False)
            families.append((h, *sorted(others[int(i)] for i in picks)))
        calibration = marginals(program, families)
        assert calibration.worlds_evaluated > 0
        for family in families:
            want = marginal(program, family)
            got = calibration.marginals.get(family)
            if got is None:
                seen["left_out"] += 1
                continue
            seen["family"] += 1
            assert got.columns == family
            assert got.masses == pytest.approx(want.masses, abs=EXACT, rel=0)
            for code in range(1 << (len(family) - 1)):
                pattern = {name: bool(code >> (len(family) - 2 - k) & 1)
                           for k, name in enumerate(family[1:])}
                try:
                    expected = marginal_given(want, pattern)
                except ZeroEvidenceError as err:
                    with pytest.raises(ZeroEvidenceError) as got_err:
                        marginal_given(got, pattern)
                    assert str(got_err.value) == str(err)
                    seen["zero"] += 1
                    continue
                assert marginal_given(got, pattern) == pytest.approx(expected, abs=EXACT)
    assert all(count > 0 for count in seen.values()), seen


def test_calibration_refuses_a_plan_above_the_cap():
    # n3 reads n0..n2, so its factor has 2^4 cells
    program = parse_program("0.3 :: n0.\n0.4 :: n1 :- n0.\n0.5 :: n2 :- n1.\n"
                            "0.2 :: n3 :- n0, n1, n2.\n")
    families = [("n3", "n0", "n1", "n2")]
    with pytest.raises(EnumerationCapError) as err:
        marginals(program, families, max_worlds=8)
    assert (err.value.needed, err.value.cap) == (16, 8)
    assert set(marginals(program, families, max_worlds=16).marginals) == set(families)


def test_cap_error_writes_powers_of_two_as_exponents():
    big = EnumerationCapError(1 << 101, 1 << 26)
    assert "a table of 2^101 factor cells" in str(big)
    assert "the cap of 67108864" in str(big)
    assert (big.needed, big.cap) == (1 << 101, 1 << 26)
    assert "a table of 48 factor cells" in str(EnumerationCapError(48, 16))

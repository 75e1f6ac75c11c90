"""Evidence by restriction and the one-step contraction, against the
brute-force oracles.

Every query runs twice: with the one-step contraction of a small query's
factors switched off, so that it takes the planned elimination, and with it
taken whenever the cap allows. Both answers must equal the reference within
1e-12, whatever the evidence: literals, which restrict the factors, formulas,
which stay in the final table, contradictory literals and evidence of
probability zero.
"""

import pytest

from causalog import (
    And,
    Atom,
    EnumerationCapError,
    Not,
    ZeroEvidenceError,
    conditional,
    conjunction_of,
    counterfactual_query,
    intervene,
    interventional_query,
    parse_program,
    probability,
)
from causalog import cli, engine

from oracles import reference_conditional, reference_probability, reference_twin
from proggen import (
    numpy_rng,
    random_assignment,
    random_formula,
    random_program,
    with_negation_and_certainty,
)

EXACT = 1e-12


@pytest.fixture(params=["planned", "one-step"])
def gate(request, monkeypatch):
    """The one-step threshold: never taken, or taken whenever the cap allows."""
    monkeypatch.setattr(engine, "_ONE_STEP_CELLS", 0 if request.param == "planned" else 1 << 62)
    return request.param


def _check_conditional(program, phi, evidence):
    """``conditional`` against the reference; zero-mass evidence raises the
    same error text. Returns whether the evidence had mass zero."""
    try:
        want = reference_conditional(program, phi, evidence)
    except ZeroDivisionError:
        with pytest.raises(ZeroEvidenceError) as err:
            conditional(program, phi, evidence)
        assert str(err.value) == f"evidence '{evidence.to_text()}' has probability zero"
        return True
    assert conditional(program, phi, evidence).probability == pytest.approx(want, abs=EXACT)
    return False


def test_queries_match_the_reference_on_both_sides_of_the_gate(gate):
    rng = numpy_rng(1313)
    seen = {"literal_zero": 0, "formula_zero": 0, "observed_phi": 0, "contradiction": 0,
            "counterfactual_zero": 0, "do_false": 0, "negated": 0}
    for _ in range(80):
        program = with_negation_and_certainty(
            rng, random_program(rng, max_nodes=4, max_parents=2, max_bodies=3))
        names = list(program.propositions)
        phi = random_formula(rng, names)
        observed = random_assignment(rng, names, int(rng.integers(1, len(names) + 1)))
        action = random_assignment(rng, names, int(rng.integers(1, 3)))

        assert probability(program, phi).probability == pytest.approx(
            reference_probability(program, phi), abs=EXACT)
        assert interventional_query(program, phi, action).probability == pytest.approx(
            reference_probability(intervene(program, action), phi), abs=EXACT)

        # literal evidence restricts the factors; a formula stays in the table
        seen["literal_zero"] += _check_conditional(program, phi, conjunction_of(observed))
        seen["formula_zero"] += _check_conditional(program, phi, random_formula(rng, names))
        seen["observed_phi"] += bool(phi.atoms() & observed.keys())
        atom = Atom(names[int(rng.integers(0, len(names)))])
        contradiction = And(conjunction_of(observed), And(atom, Not(atom)))
        seen["contradiction"] += _check_conditional(program, phi, contradiction)

        twin = reference_twin(program, action)
        phi_i = phi.map_atoms(lambda n: n + "__i")
        evidence_e = conjunction_of({k + "__e": v for k, v in observed.items()})
        try:
            want = reference_conditional(twin, phi_i, evidence_e)
        except ZeroDivisionError:
            with pytest.raises(ZeroEvidenceError) as err:
                counterfactual_query(program, phi, observed, action)
            assert str(err.value) == (
                f"evidence '{conjunction_of(observed).to_text()}' has probability zero")
            seen["counterfactual_zero"] += 1
        else:
            got = counterfactual_query(program, phi, observed, action)
            assert got.probability == pytest.approx(want, abs=EXACT)
        seen["do_false"] += not all(action.values())
        seen["negated"] += any(not lit.positive for c in program.clauses for lit in c.causes)
    assert all(count > 0 for count in seen.values()), seen


def _chain(n):
    return parse_program("0.5 :: n0.\n" + "".join(
        f"0.9 :: n{k} :- n{k - 1}.\n" for k in range(1, n)))


def test_the_cap_decides_between_one_step_and_the_plan():
    # twelve factors over twelve variables take one step under the default
    # cap: the factors (2 + 11 * 4 cells) and their whole product (2^12)
    program = _chain(12)
    one_step = probability(program, Atom("n11"))
    assert one_step.worlds_evaluated == 46 + (1 << 12)
    assert one_step.probability == pytest.approx(0.5 * 0.9 ** 11, abs=EXACT)
    # a cap below that product takes the plan, whose tables fit: the factors,
    # each link's step (4) and the final table (2)
    planned = probability(program, Atom("n11"), 1 << 11)
    assert planned.worlds_evaluated == 46 + 11 * 4 + 2
    assert planned.probability == pytest.approx(one_step.probability, abs=EXACT)
    # a refused query names the plan's largest table, not the product
    with pytest.raises(EnumerationCapError) as err:
        probability(program, Atom("n11"), 3)
    assert err.value.needed == 4


def test_a_factor_counts_in_full_before_restriction():
    # the head's factor over eleven parents is built whole (2^12 cells), even
    # though evidence on every parent leaves one variable of it
    program = parse_program("".join(f"0.5 :: p{k}.\n0.1 :: h :- p{k}.\n" for k in range(11)))
    evidence = conjunction_of({f"p{k}": k < 3 for k in range(11)})
    r = conditional(program, Atom("h"), evidence)
    assert r.probability == pytest.approx(1 - 0.9 ** 3, abs=EXACT)
    assert r.conditioning_mass == pytest.approx(0.5 ** 11, abs=EXACT)
    with pytest.raises(EnumerationCapError) as err:
        conditional(program, Atom("h"), evidence, (1 << 12) - 1)
    assert err.value.needed == 1 << 12


@pytest.mark.parametrize("atoms", [12, 620])
def test_zero_evidence_error_is_one_short_line(atoms, tmp_path, capsys):
    # the evidence names z, which no clause can make true. Evidence over at
    # most 12 atoms is quoted whole however long its text; longer evidence
    # is quoted in part, with its count, on a line under 300 characters
    names = [f"cause_with_a_long_name_{i}" for i in range(atoms - 1)] + ["z"]
    text = "".join(f"0.3 :: {name}.\n" for name in names[:-1]) + "0.7 :: q.\n0.0 :: z.\n"
    evidence = conjunction_of(dict.fromkeys(names, True))
    quoted = evidence.to_text()
    with pytest.raises(ZeroEvidenceError) as err:
        conditional(parse_program(text), Atom("q"), evidence)
    message = str(err.value)
    if atoms <= 12:
        assert len(quoted) > 160
        assert message == f"evidence '{quoted}' has probability zero"
    else:
        assert message.startswith(f"evidence '{quoted[:120]}")
        assert message.endswith(f" ...' of {atoms} atoms has probability zero")
        assert len(message) < 300
    path = tmp_path / "program.pl"
    path.write_text(text)
    for do in ([], ["--do", "q"]):
        code = cli.main(["query", str(path), "--prob", "q", "--given", ",".join(names), *do])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error[zero-evidence]: {message}\n"

"""Seeded random generators for property tests.

Two regimes:

* ``random_program``: broad generator for engine/causal property tests and
  the exact-oracle round-trip suite. Every node keeps an unconditional
  clause so all evidence patterns have positive probability, bodies are
  positive and distinct, and probabilities stay inside [lo, hi].

* ``random_learnable_program``: a conditioned generator for the sampled
  regime. Detecting structure from finite data needs residual margins well
  above the statistical noise floor and solved-parameter noise shrinks with
  pattern support, so candidates are rejected until every parent pattern
  has healthy probability mass, every clause contributes a comfortable
  residual, and no pattern saturates. Two-cause bodies are attempted with
  deliberately small lower-tier parameters (peeling divides by the miss
  product of the strict subsets, which amplifies noise). The rejection loop
  inspects exact quantities only, never a sample draw, so it conditions the
  task, not the data's luck.
"""

import itertools

import numpy as np

from causalog import (
    And,
    Atom,
    Clause,
    Literal,
    Not,
    Or,
    Program,
    conjunction_of,
    parse_program,
    probability,
)
from causalog.graph import subsets_by_size


def numpy_rng(seed):
    return np.random.default_rng(seed)


def _random_dag(rng, min_nodes, max_nodes, max_parents, require_edge):
    while True:
        n = int(rng.integers(min_nodes, max_nodes + 1))
        names = [f"n{i}" for i in range(n)]
        parent_map = {}
        for i, name in enumerate(names):
            k = int(rng.integers(0, min(i, max_parents) + 1))
            picks = rng.choice(i, size=k, replace=False) if k else []
            parent_map[name] = sorted(names[int(j)] for j in picks)
        if require_edge and not any(parent_map.values()):
            continue
        return names, parent_map


def random_program(rng, max_nodes=6, max_parents=3, lo=0.05, hi=0.95,
                   max_bodies=4, min_nodes=2, require_edge=False):
    """Draw an acyclic positive program in proper normal form."""
    names, parent_map = _random_dag(rng, min_nodes, max_nodes, max_parents,
                                    require_edge)
    clauses = []
    for name in names:
        parents = parent_map[name]
        bodies = [frozenset()]
        candidates = [
            frozenset(c)
            for size in range(1, len(parents) + 1)
            for c in itertools.combinations(parents, size)
        ]
        extra = int(rng.integers(0, max_bodies))
        if extra and candidates:
            order = rng.permutation(len(candidates))
            bodies.extend(candidates[int(j)] for j in order[:extra])
        for body in bodies:
            prob = float(rng.uniform(lo, hi))
            clauses.append(Clause(name, frozenset(Literal(b) for b in body),
                                  prob))
    return Program(clauses)


def with_negation_and_certainty(rng, program):
    """Negate some body literals and pin some clauses to 0 or 1, so that
    bodies test absence and some evidence has probability zero."""
    clauses = []
    for c in program.clauses:
        # sorted, so the draws do not follow the hash-seeded set order
        causes = frozenset(Literal(lit.name, bool(rng.random() < 0.6))
                           for lit in c.sorted_body())
        p = c.probability
        if rng.random() < 0.1:
            p = float(rng.choice([0.0, 1.0]))
        clauses.append(Clause(c.effect, causes, p))
    return Program(clauses)


def layered_program(n):
    """A fixed program on ``n0 .. n(n-1)``, each node on its two predecessors,
    with negated bodies and three or four clauses per node."""
    lines = ["0.3 :: n0.", "0.2 :: n1.", "0.6 :: n1 :- n0.", "0.25 :: n1 :- \\+ n0."]
    for k in range(2, n):
        a, b = f"n{k - 1}", f"n{k - 2}"
        lines += [f"0.{k} :: n{k}.", f"0.5 :: n{k} :- {a}.",
                  f"0.35 :: n{k} :- \\+ {b}."]
    lines += [f"0.15 :: n{n - 1} :- n{n - 2}, n{n - 3}.", "0.45 :: n5 :- n4, \\+ n3."]
    return parse_program("\n".join(lines) + "\n")


def random_formula(rng, names, depth=2):
    """Small random boolean formula over the given proposition names."""
    if depth == 0 or rng.random() < 0.3:
        atom = Atom(str(rng.choice(list(names))))
        return Not(atom) if rng.random() < 0.4 else atom
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return And(left, right) if rng.random() < 0.5 else Or(left, right)


def random_assignment(rng, names, size):
    """Random truth assignment to ``size`` distinct propositions."""
    picks = rng.choice(len(names), size=size, replace=False)
    ordered = sorted(names)
    return {ordered[int(i)]: bool(rng.random() < 0.5) for i in picks}


def closed_form_success(program, target, subset):
    """Noisy-OR of the target's clauses whose causes lie inside ``subset``."""
    miss = 1.0
    for clause in program.clauses_by_effect.get(target, ()):
        causes = {lit.name for lit in clause.causes}
        if causes <= set(subset):
            miss *= 1.0 - clause.probability
    return 1.0 - miss


def random_learnable_program(rng, max_nodes=5, max_parents=2):
    """Draw a hidden program whose structure is recoverable from samples."""
    must_pair = bool(rng.random() < 0.4)
    for attempt in range(4000):
        if attempt >= 1500:
            must_pair = False
        names, parent_map = _random_dag(rng, 3, max_nodes, max_parents,
                                        require_edge=True)
        pair_nodes = [n for n in names if len(parent_map[n]) == 2]
        if must_pair and not pair_nodes:
            continue
        pair_target = pair_nodes[0] if must_pair else None
        clauses = []
        for name in names:
            parents = parent_map[name]
            if name == pair_target:
                # The two-cause parameter is solved by dividing through the
                # miss product of the tiers below it, so those tiers are
                # drawn small to keep the division gentle.
                clauses.append(Clause(name, frozenset(),
                                      float(rng.uniform(0.12, 0.22))))
                for p in parents:
                    clauses.append(Clause(name, frozenset({Literal(p)}),
                                          float(rng.uniform(0.12, 0.22))))
                clauses.append(Clause(
                    name, frozenset(Literal(p) for p in parents),
                    float(rng.uniform(0.2, 0.5))))
                continue
            clauses.append(Clause(name, frozenset(),
                                  float(rng.uniform(0.15, 0.45))))
            for p in parents:
                if rng.random() < 0.8:
                    clauses.append(Clause(name, frozenset({Literal(p)}),
                                          float(rng.uniform(0.2, 0.5))))
        if not any(c.causes for c in clauses):
            continue
        candidate = Program(clauses)
        if _well_conditioned(candidate, parent_map, pair_target):
            return candidate
    raise AssertionError("could not draw a well-conditioned hidden program")


def _pattern_floor(size, is_pair_node):
    # Patterns that back a parameter solve need real support (the solved
    # noise scales as 1/sqrt(rows)); patterns that only ever get rejected
    # just need to stay clear of starvation at the small sample size.
    if size == 2:
        return 0.2 if is_pair_node else 0.08
    return 0.15 if size == 1 else 0.12


def _well_conditioned(program, parent_map, pair_target,
                      margin=0.06, saturation=0.9):
    bodies = {
        name: {frozenset(l.name for l in c.causes): c.probability
               for c in program.clauses_by_effect.get(name, ())}
        for name in parent_map
    }
    for name, parents in parent_map.items():
        for subset in subsets_by_size(parents):
            pattern = {p: (p in subset) for p in parents}
            if pattern:
                floor = _pattern_floor(len(subset), name == pair_target)
                mass = probability(program, conjunction_of(pattern)).probability
                if mass < floor:
                    return False
            value = closed_form_success(program, name, subset)
            if value > saturation:
                return False
            if subset and subset in bodies[name]:
                miss = 1.0
                for body, prob in bodies[name].items():
                    if body < subset:
                        miss *= 1.0 - prob
                if value - (1.0 - miss) < margin:
                    return False
    return True


def query_plan(program):
    """Deterministic counterfactual query for a hidden program.

    Picks the first node (by name) that has a parent: would the node still
    hold, had that parent been switched off, given we saw the node hold?
    Positive programs are monotone, so forcing a parent *off* against
    evidence that the node fired puts the answer strictly inside (0, 1) and
    makes it depend on the clause parameters; forcing a parent on (or
    observing the parent too) collapses to a constant."""
    graph = program.dependency_graph()
    for name in sorted(graph.nodes):
        parents = sorted(graph.parents(name))
        if parents:
            parent = parents[0]
            return (Atom(name), {name: True}, {parent: False})
    raise AssertionError("generator guarantees at least one edge")

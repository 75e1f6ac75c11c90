"""Independent reference oracles for cross-checking the engine.

Everything here is deliberately written from scratch with plain Python
scalars: worlds are enumerated one by one with itertools, clause evaluation
is re-derived by a local topological pass, and probabilities are summed with
math.fsum. None of the engine's vectorized or factorized machinery is
reused, so agreement between the two routes is meaningful.
"""

import itertools
import math

from causalog import (
    Clause,
    DesugaredProgram,
    Literal,
    LogicalClause,
    Program,
    ZeroEvidenceError,
    conjunction_of,
)
from causalog.engine import check_intervention


def _as_desugared(program):
    if isinstance(program, Program):
        return program.desugar()
    return program


def reference_twin(program: Program, action) -> DesugaredProgram:
    """The counterfactual twin of ``program`` under the intervention
    ``action`` as a desugared program: every logical clause of the
    program's desugared form once per copy (``__e`` and ``__i``) with its
    body atoms renamed, guarded by the same shared noise fact; the clauses
    of a forced proposition are left out of the ``__i`` copy, and one
    forced true gets an unconditional ``__i`` clause."""
    forced = check_intervention(program, action)
    dp = program.desugar()
    clauses = []
    for clause in dp.clauses:
        for suffix in ("__e", "__i"):
            if suffix == "__i" and clause.head in forced:
                continue
            literals = [Literal(lit.name + suffix, lit.positive) for lit in clause.literals]
            clauses.append(LogicalClause(clause.head + suffix, literals, clause.noise))
    for name in sorted(forced):
        if forced[name]:
            clauses.append(LogicalClause(name + "__i", [], []))
    declared = [p + suffix for p in program.propositions for suffix in ("__e", "__i")]
    return DesugaredProgram(clauses, dp.noise_probs, declared=declared)


def reference_twin_text(dp: DesugaredProgram) -> str:
    """A twin from ``reference_twin`` in the plain clause format: a fact per
    noise name, a probability-one clause per logical clause with its body
    literals by name and its noise last, and a probability-zero clause for
    each proposition no clause reads or concludes."""
    lines = [Clause.format(dp.noise_probability(u), u) for u in dp.noise_names]
    for clause in dp.clauses:
        body = [str(lit) for lit in sorted(clause.literals, key=lambda l: l.name)]
        lines.append(Clause.format(1.0, clause.head, body + sorted(clause.noise)))
    mentioned = {name for c in dp.clauses for name in [c.head, *(l.name for l in c.literals)]}
    unmentioned = set(dp.internal_propositions) - mentioned
    lines += [Clause.format(0.0, name) for name in sorted(unmentioned)]
    return "\n".join(lines) + ("\n" if lines else "")


def _topological_heads(dp: DesugaredProgram) -> list[str]:
    """Order internal propositions so every body atom precedes its head."""
    heads = list(dp.internal_propositions)
    deps = {h: set() for h in heads}
    for clause in dp.clauses:
        for lit in clause.literals:
            deps[clause.head].add(lit.name)
    order = []
    placed = set()
    pending = sorted(heads)
    while pending:
        progress = [h for h in pending if deps[h] <= placed]
        if not progress:
            raise AssertionError("reference oracle needs an acyclic program")
        for h in progress:
            order.append(h)
            placed.add(h)
        pending = [h for h in pending if h not in placed]
    return order


def reference_world(dp: DesugaredProgram, noise: dict) -> dict:
    """Evaluate one external world by a straightforward topological sweep."""
    values = dict(noise)
    by_head = {}
    for clause in dp.clauses:
        by_head.setdefault(clause.head, []).append(clause)
    for head in _topological_heads(dp):
        result = False
        for clause in by_head.get(head, ()):
            body = all(values[l.name] == l.positive for l in clause.literals)
            guards = all(noise[u] for u in clause.noise)
            if body and guards:
                result = True
                break
        values[head] = result
    return values


def world_weights(dp: DesugaredProgram):
    """Yield (noise assignment, weight) over every external world."""
    names = list(dp.noise_names)
    for bits in itertools.product((False, True), repeat=len(names)):
        noise = dict(zip(names, bits))
        weight = 1.0
        for name, value in noise.items():
            p = dp.noise_probability(name)
            weight *= p if value else 1.0 - p
        yield noise, weight


def reference_probability(program, phi) -> float:
    """Scalar brute-force P(phi) by full enumeration of external worlds."""
    dp = _as_desugared(program)
    masses = []
    for noise, weight in world_weights(dp):
        env = reference_world(dp, noise)
        if phi.evaluate(env):
            masses.append(weight)
    return math.fsum(masses)


def reference_conditional(program, phi, evidence) -> float:
    dp = _as_desugared(program)
    joint = []
    given = []
    for noise, weight in world_weights(dp):
        env = reference_world(dp, noise)
        if evidence.evaluate(env):
            given.append(weight)
            if phi.evaluate(env):
                joint.append(weight)
    denominator = math.fsum(given)
    if denominator <= 0.0:
        raise ZeroDivisionError("evidence has zero probability")
    return math.fsum(joint) / denominator


def marginal_given(marginal, pattern) -> float:
    """P(first column | the other columns as in ``pattern``) read off a
    marginal's masses, whose first column is the most significant bit of a
    cell's code; a pattern of mass zero raises the ZeroEvidenceError that
    ``conditional`` raises for it."""
    code = 0
    for name in marginal.columns[1:]:
        code = (code << 1) | bool(pattern[name])
    miss = float(marginal.masses[code])
    hit = float(marginal.masses[(1 << (len(marginal.columns) - 1)) + code])
    if miss + hit <= 0.0:
        raise ZeroEvidenceError(
            f"evidence '{conjunction_of(pattern).to_text()}' has probability zero")
    return hit / (miss + hit)


def noisy_or(probabilities) -> float:
    """Closed-form chance that at least one independent cause fires."""
    miss = 1.0
    for p in probabilities:
        miss *= 1.0 - p
    return 1.0 - miss


def reference_joint(program: Program) -> dict:
    """Scalar P(every internal assignment) of a surface program by the chain
    rule: each head's noisy-OR evaluated clause by clause on the assignment,
    keyed by the tuple of values in ``program.propositions`` order."""
    names = program.propositions
    by_effect = {}
    for clause in program.clauses:
        by_effect.setdefault(clause.effect, []).append(clause)
    joint = {}
    for bits in itertools.product((False, True), repeat=len(names)):
        values = dict(zip(names, bits))
        weight = 1.0
        for head in names:
            miss = 1.0
            for clause in by_effect.get(head, ()):
                if all(values[l.name] == l.positive for l in clause.causes):
                    miss *= 1.0 - clause.probability
            weight *= 1.0 - miss if values[head] else miss
        joint[bits] = weight
    return joint

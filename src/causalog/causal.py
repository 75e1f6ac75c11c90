"""Interventions, twin programs and counterfactual queries.

An intervention forces some propositions to fixed truth values: every clause
for a forced proposition is erased, and propositions forced true get an
unconditional probability-one clause instead (``intervene``).

A counterfactual query ("given what was observed, what would have happened
under the intervention?") needs both worlds at once. The twin construction
duplicates every internal proposition into an evidence copy (suffix ``__e``)
and an intervention copy (suffix ``__i``) while keeping a single shared set
of noise facts, so both copies see the same random draws. Surgery is applied
to the intervention copy only, evidence is asserted on the evidence copy, and
the query is a conditional over the combined program. An interventional
query is the same construction with no evidence. Both hand the query to
``engine.query``, the one entry point of every query kind, which checks the
intervention's names, then the evidence as a formula, and reads the twin's
factors straight from the program's clauses, so neither builds a program.
``intervene`` and ``twin_program`` (for ``twin-export``) build the
surgically modified program and the combined one for their own callers,
after the same ``engine.check_intervention``. The twin's text is written
with ``Clause.format``, the one statement writer ``Program.to_text`` uses.
"""

from __future__ import annotations

from typing import Mapping

from .engine import QueryResult, check_intervention, query
from .formula import Formula, conjunction_of
from .frozen import Frozen
from .model import (
    Clause,
    DesugaredProgram,
    Literal,
    LogicalClause,
    Program,
)

EVIDENCE_SUFFIX = "__e"
INTERVENTION_SUFFIX = "__i"


def intervene(program: Program, intervention: Mapping[str, bool]) -> Program:
    """Surgery: erase the clauses of every intervened proposition; add an
    unconditional probability-one clause for those forced true. The alphabet
    is preserved, so erased propositions stay queryable (and are false unless
    forced)."""
    forced = check_intervention(program, intervention)
    clauses = [c for c in program.clauses if c.effect not in forced]
    for name in sorted(forced):
        if forced[name]:
            clauses.append(Clause(name, frozenset(), 1.0))
    return Program(clauses, declared=program.propositions)


def interventional_query(program: Program, phi: Formula,
                         intervention: Mapping[str, bool],
                         max_worlds: int | None = None) -> QueryResult:
    """Probability of ``phi`` after the intervention."""
    return query(program, phi, forced=intervention, max_worlds=max_worlds)


class TwinProgram(Frozen):
    """Both copies of a program sharing one set of noise facts.

    ``desugared`` holds the combined clause system: evidence-copy clauses,
    intervention-copy clauses after surgery, and the shared facts. Intervened
    propositions forced true appear as clauses with an empty body."""

    _fields = ("desugared",)

    def __init__(self, desugared: DesugaredProgram):
        self.__dict__["desugared"] = desugared

    def to_program_text(self) -> str:
        """Render the twin in the ordinary clause format.

        Shared noise facts become explicit propositions with their own
        unconditional clause, and every logical clause becomes a
        probability-one clause, so any tool reading the plain format can
        replay counterfactual queries as conditionals. A twin proposition no
        clause mentions, such as the intervention copy of a node forced
        false, gets a clause of probability zero, so it stays queryable."""
        dp = self.desugared
        lines = [Clause.format(dp.noise_probability(u), u) for u in dp.noise_names]
        for clause in dp.clauses:
            body = [str(lit) for lit in sorted(clause.literals, key=lambda l: l.name)]
            lines.append(Clause.format(1.0, clause.head, body + sorted(clause.noise)))
        # a proposition no clause reads (a sink) and none concludes
        unmentioned = dp.dependency_graph().sinks().difference(c.head for c in dp.clauses)
        lines += [Clause.format(0.0, name) for name in sorted(unmentioned)]
        return "\n".join(lines) + ("\n" if lines else "")


def twin_program(program: Program, intervention: Mapping[str, bool]) -> TwinProgram:
    """Build the combined evidence/intervention program.

    Every logical clause of the desugared source appears once per copy with
    its body atoms renamed, guarded by the same shared noise fact. The
    intervention then erases the clauses of the forced propositions in the
    intervention copy only. A cyclic program is refused before the twin is
    built, so the error names the program's own atoms."""
    program.dependency_graph().topological_order()
    forced = check_intervention(program, intervention)
    dp = program.desugar()
    # the program's clauses are checked, and a valid name with a suffix is
    # one too, so the copies are built without the checks again
    clauses: list[LogicalClause] = []
    for clause in dp.clauses:
        for suffix in (EVIDENCE_SUFFIX, INTERVENTION_SUFFIX):
            if suffix == INTERVENTION_SUFFIX and clause.head in forced:
                continue
            clauses.append(LogicalClause._trusted(
                head=clause.head + suffix,
                literals=frozenset([Literal._trusted(name=lit.name + suffix,
                                                     positive=lit.positive)
                                    for lit in clause.literals]),
                noise=clause.noise,
            ))
    for name in sorted(forced):
        if forced[name]:
            clauses.append(LogicalClause._trusted(head=name + INTERVENTION_SUFFIX,
                                                  literals=frozenset(), noise=frozenset()))
    declared = [p + EVIDENCE_SUFFIX for p in program.propositions]
    declared += [p + INTERVENTION_SUFFIX for p in program.propositions]
    twin_dp = DesugaredProgram(clauses, dp.noise_probs, declared=declared)
    return TwinProgram(twin_dp)


def counterfactual_query(program: Program, phi: Formula,
                         evidence: Mapping[str, bool],
                         intervention: Mapping[str, bool],
                         max_worlds: int | None = None) -> QueryResult:
    """Probability that ``phi`` would have held under the intervention, given
    that the evidence was actually observed: the conditional of ``phi`` on
    the intervention copy given the evidence on the evidence copy. With
    empty evidence it is the interventional query. Evidence of probability
    zero in the untouched program raises ZeroEvidenceError."""
    given = conjunction_of(evidence) if evidence else None
    return query(program, phi, given, intervention, max_worlds)

"""Interventions, twin programs and counterfactual queries.

An intervention forces some propositions to fixed truth values: every clause
for a forced proposition is erased, and propositions forced true get an
unconditional probability-one clause instead. Interventional queries run on
the surgically modified program.

A counterfactual query ("given what was observed, what would have happened
under the intervention?") needs both worlds at once. The twin construction
duplicates every internal proposition into an evidence copy (suffix ``__e``)
and an intervention copy (suffix ``__i``) while keeping a single shared set
of noise facts, so both copies see the same random draws. Surgery is applied
to the intervention copy only, evidence is asserted on the evidence copy, and
the query is a conditional over the combined program. The engine answers it
by factors over the twin's heads (merged copies for nodes the intervention
cannot reach, pair factors for the others) rather than by walking the shared
noise, whichever enumerates fewer assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .engine import QueryResult, probability, twin_conditional
from .errors import InterventionError
from .formula import Formula, check_atoms, conjunction_of
from .model import (
    Clause,
    DesugaredProgram,
    Literal,
    LogicalClause,
    Program,
    float_text,
)

EVIDENCE_SUFFIX = "__e"
INTERVENTION_SUFFIX = "__i"


def _check_assignment(program: Program, assignment: Mapping[str, bool],
                      what: str) -> dict[str, bool]:
    known = set(program.propositions)
    out: dict[str, bool] = {}
    for name, value in assignment.items():
        if name not in known:
            raise InterventionError(f"{what} names unknown proposition {name!r}")
        out[name] = bool(value)
    return out


def intervene(program: Program, intervention: Mapping[str, bool]) -> Program:
    """Surgery: erase the clauses of every intervened proposition; add an
    unconditional probability-one clause for those forced true. The alphabet
    is preserved, so erased propositions stay queryable (and are false unless
    forced)."""
    forced = _check_assignment(program, intervention, "intervention")
    clauses = [c for c in program.clauses if c.effect not in forced]
    for name in sorted(forced):
        if forced[name]:
            clauses.append(Clause(name, frozenset(), 1.0))
    return Program(clauses, declared=program.propositions)


def interventional_query(program: Program, phi: Formula,
                         intervention: Mapping[str, bool],
                         max_worlds: int | None = None) -> QueryResult:
    """Probability of ``phi`` after the intervention."""
    check_atoms(phi, program)
    return probability(intervene(program, intervention), phi, max_worlds)


@dataclass(frozen=True)
class TwinProgram:
    """Both copies of a program sharing one set of noise facts.

    ``desugared`` holds the combined clause system: evidence-copy clauses,
    intervention-copy clauses after surgery, and the shared facts. Intervened
    propositions forced true appear as clauses with an empty body."""

    source: Program
    intervention: tuple[tuple[str, bool], ...]
    desugared: DesugaredProgram

    def evidence_atom(self, name: str) -> str:
        return name + EVIDENCE_SUFFIX

    def intervention_atom(self, name: str) -> str:
        return name + INTERVENTION_SUFFIX

    @cached_property
    def source_propositions(self) -> tuple[str, ...]:
        return self.source.propositions

    def to_program_text(self) -> str:
        """Render the twin in the ordinary clause format.

        Shared noise facts become explicit propositions with their own
        unconditional clause, and every logical clause becomes a
        probability-one clause, so any tool reading the plain format can
        replay counterfactual queries as conditionals."""
        dp = self.desugared
        lines = []
        for u in dp.noise_names:
            lines.append(f"{float_text(dp.noise_probability(u))} :: {u}.")
        for clause in dp.clauses:
            parts = [str(lit) for lit in sorted(clause.literals, key=lambda l: l.name)]
            parts.extend(sorted(clause.noise))
            if parts:
                lines.append(f"1.0 :: {clause.head} :- {', '.join(parts)}.")
            else:
                lines.append(f"1.0 :: {clause.head}.")
        return "\n".join(lines) + ("\n" if lines else "")


def twin_program(program: Program, intervention: Mapping[str, bool]) -> TwinProgram:
    """Build the combined evidence/intervention program.

    Every logical clause of the desugared source appears once per copy with
    its body atoms renamed, guarded by the same shared noise fact. The
    intervention then erases the clauses of the forced propositions in the
    intervention copy only."""
    forced = _check_assignment(program, intervention, "intervention")
    dp = program.desugar()
    clauses: list[LogicalClause] = []
    for clause in dp.clauses:
        for suffix in (EVIDENCE_SUFFIX, INTERVENTION_SUFFIX):
            if suffix == INTERVENTION_SUFFIX and clause.head in forced:
                continue
            clauses.append(LogicalClause(
                clause.head + suffix,
                frozenset(Literal(lit.name + suffix, lit.positive)
                          for lit in clause.literals),
                clause.noise,
            ))
    for name in sorted(forced):
        if forced[name]:
            clauses.append(LogicalClause(name + INTERVENTION_SUFFIX,
                                         frozenset(), frozenset()))
    declared = [p + EVIDENCE_SUFFIX for p in program.propositions]
    declared += [p + INTERVENTION_SUFFIX for p in program.propositions]
    twin_dp = DesugaredProgram(clauses, dp.noise_probs, declared=declared)
    return TwinProgram(program, tuple(sorted(forced.items())), twin_dp)


def counterfactual_query(program: Program, phi: Formula,
                         evidence: Mapping[str, bool],
                         intervention: Mapping[str, bool],
                         max_worlds: int | None = None) -> QueryResult:
    """Probability that ``phi`` would have held under the intervention, given
    that the evidence was actually observed.

    The twin construction does the bookkeeping: ``phi`` is relabeled onto the
    intervention copy and the evidence onto the evidence copy. The answer is
    the conditional over the twin, enumerated by whichever of its factored
    form and its shared noise takes fewer assignments. With empty
    evidence this coincides with the interventional query. Evidence of
    probability zero in the untouched program raises ZeroEvidenceError."""
    check_atoms(phi, program)
    observed = _check_assignment(program, evidence, "evidence")
    twin = twin_program(program, intervention)
    phi_i = phi.map_atoms(lambda n: n + INTERVENTION_SUFFIX)
    evidence_e = conjunction_of(
        {name + EVIDENCE_SUFFIX: value for name, value in observed.items()}
    )
    return twin_conditional(twin, phi_i, evidence_e, max_worlds)

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
``intervene`` builds the surgically modified program for its own callers
from the program's rows, and ``twin_program`` (for ``twin-export``) writes
the combined one as text straight from the rows and ``Program.noise_names``,
building no desugared form, both after the same
``engine.check_intervention``. The twin's text is written with
``Clause.format``, the one statement writer ``Program.to_text`` uses.
"""

from __future__ import annotations

from typing import Mapping

from .engine import QueryResult, check_intervention, query
from .formula import Formula, conjunction_of
from .frozen import Frozen
from .model import Clause, Program, body_keys, literal_text

EVIDENCE_SUFFIX = "__e"
INTERVENTION_SUFFIX = "__i"
_SUFFIXES = (EVIDENCE_SUFFIX, INTERVENTION_SUFFIX)


def intervene(program: Program, intervention: Mapping[str, bool]) -> Program:
    """Surgery: erase the clauses of every intervened proposition; add an
    unconditional probability-one clause for those forced true. The alphabet
    is preserved, so erased propositions stay queryable (and are false unless
    forced)."""
    forced = check_intervention(program, intervention)
    entries = [(effect, *body_keys([(name, not positive) for name, positive in row]), fire)
               for effect, rows in program._rows.items() if effect not in forced
               for row, fire in rows]
    entries += [(name, (), (), 1.0) for name in sorted(forced) if forced[name]]
    return Program._trusted(entries, declared=program.propositions)


def interventional_query(program: Program, phi: Formula,
                         intervention: Mapping[str, bool],
                         max_worlds: int | None = None) -> QueryResult:
    """Probability of ``phi`` after the intervention."""
    return query(program, phi, forced=intervention, max_worlds=max_worlds)


class TwinProgram(Frozen):
    """Both copies of a program sharing one set of noise facts, as ``text``
    in the ordinary clause format.

    Shared noise facts become explicit propositions with their own
    unconditional clause, and every clause of either copy becomes a
    probability-one clause guarded by its noise fact, so any tool reading
    the plain format can replay counterfactual queries as conditionals."""

    _fields = ("text",)

    def __init__(self, text: str):
        self.__dict__["text"] = text

    def to_program_text(self) -> str:
        return self.text


def twin_program(program: Program, intervention: Mapping[str, bool]) -> TwinProgram:
    """Write the combined evidence/intervention program from the rows.

    First a noise fact per clause in canonical order, named by
    ``Program.noise_names``. Then each clause once per copy, its body atoms
    renamed and listed by their new names, guarded by its noise fact; the
    intervention erases the clauses of the forced propositions in the
    intervention copy only. Then a probability-one clause for each
    proposition forced true, and a clause of probability zero for each twin
    proposition no clause reads or concludes, such as the intervention copy
    of a node forced false, so it stays queryable. A cyclic program is refused before the twin is
    written, so the error names the program's own atoms."""
    graph = program.dependency_graph()
    graph.topological_order()
    forced = check_intervention(program, intervention)
    noise, lines = [], []
    used: set[str] = set()  # the twin propositions some clause reads or concludes
    for (effect, row, fire), u in zip(program._ordered_rows(), program.noise_names):
        noise.append(Clause.format(fire, u))
        for suffix in (EVIDENCE_SUFFIX,) if effect in forced else _SUFFIXES:
            body = sorted([(name + suffix, positive) for name, positive in row])
            used.update([effect + suffix, *[name for name, _ in body]])
            lines.append(Clause.format(1.0, effect + suffix,
                                       [literal_text(*atom) for atom in body] + [u]))
    pinned = [name + INTERVENTION_SUFFIX for name in sorted(forced) if forced[name]]
    used.update(pinned)
    lines += [Clause.format(1.0, name) for name in pinned]
    unmentioned = {p + suffix for p in graph.nodes for suffix in _SUFFIXES}.difference(used)
    lines = noise + lines + [Clause.format(0.0, name) for name in sorted(unmentioned)]
    return TwinProgram("\n".join(lines) + ("\n" if lines else ""))


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

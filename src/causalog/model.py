"""Core program model.

A program is a set of annotated clauses ``p :: effect :- causes`` over
propositional atoms. Each clause is sugar for an independent noise proposition
(a random fact holding with probability ``p``) guarding a purely logical
clause; ``desugar`` makes that explicit. The semantics of a desugared program
is a system of Boolean equations, one per internal proposition: the
proposition is true exactly when some clause for it fires, a clause firing
when all its body literals hold and all its noise propositions are drawn true.
Acyclic programs have a unique solution for every noise assignment.

Programs are kept in a canonical order (topological by effect, then effect
name, then body) so that printing is deterministic and structural equality is
just tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import ProgramError
from .graph import RESERVED_NAMES, VALID_NAME, DependencyGraph


def _check_proposition(name: str) -> str:
    if not isinstance(name, str) or not VALID_NAME.match(name):
        raise ProgramError(f"bad proposition name {name!r}: expected lowercase-initial identifier")
    if name in RESERVED_NAMES:
        raise ProgramError(f"{name!r} is a reserved word and cannot name a proposition")
    return name


@dataclass(frozen=True, order=True)
class Literal:
    """A proposition or its negation, as found in clause bodies."""

    name: str
    positive: bool = True

    def __post_init__(self) -> None:
        _check_proposition(self.name)

    def negated(self) -> "Literal":
        return Literal(self.name, not self.positive)

    def __str__(self) -> str:
        return self.name if self.positive else f"\\+ {self.name}"


@dataclass(frozen=True)
class Clause:
    """An annotated clause: with probability ``probability``, ``effect`` holds
    whenever every cause literal holds."""

    effect: str
    causes: frozenset[Literal]
    probability: float

    def __post_init__(self) -> None:
        _check_proposition(self.effect)
        if not isinstance(self.causes, frozenset):
            object.__setattr__(self, "causes", frozenset(self.causes))
        names = [lit.name for lit in self.causes]
        if len(set(names)) != len(names):
            dup = sorted(n for n in set(names) if names.count(n) > 1)
            raise ProgramError(
                f"contradictory body for {self.effect}: {', '.join(dup)} "
                "appears both positively and negatively"
            )
        p = float(self.probability)
        if not (0.0 <= p <= 1.0) or p != p:
            raise ProgramError(f"probability {self.probability!r} outside [0, 1]")
        object.__setattr__(self, "probability", p)

    @property
    def key(self) -> tuple[str, frozenset[Literal]]:
        """Identity of the clause up to its probability."""
        return (self.effect, self.causes)

    def sorted_body(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.causes, key=lambda lit: lit.name))

    def text(self) -> str:
        head = f"{float_text(self.probability)} :: {self.effect}"
        if not self.causes:
            return head + "."
        body = ", ".join(str(lit) for lit in self.sorted_body())
        return f"{head} :- {body}."


def float_text(x: float) -> str:
    """Shortest decimal text that parses back to the same float."""
    return repr(float(x))


class Program:
    """An immutable set of annotated clauses in canonical order.

    ``declared`` lists internal propositions that carry no clause and are not
    mentioned by any clause; they are identically false but still part of the
    alphabet. Transformations such as interventions use this to keep erased
    propositions queryable.
    """

    def __init__(self, clauses: Iterable[Clause], declared: Iterable[str] = ()):
        clause_list = list(clauses)
        seen: dict[tuple[str, frozenset[Literal]], Clause] = {}
        for c in clause_list:
            if not isinstance(c, Clause):
                raise ProgramError(f"expected a Clause, got {type(c).__name__}")
            if c.key in seen:
                raise ProgramError(
                    f"duplicate clause for {c.effect}: two clauses share the body "
                    f"{{{', '.join(str(l) for l in c.sorted_body()) or ''}}}"
                )
            seen[c.key] = c
        mentioned = {c.effect for c in clause_list}
        mentioned.update(lit.name for c in clause_list for lit in c.causes)
        extras = frozenset(_check_proposition(n) for n in declared) - mentioned
        graph = DependencyGraph.build(
            mentioned | extras,
            {(lit.name, c.effect) for c in clause_list for lit in c.causes},
        )
        rank = graph.ordering_rank()
        clause_list.sort(
            key=lambda c: (rank[c.effect], c.effect,
                           tuple((l.name, not l.positive) for l in c.sorted_body()))
        )
        self._clauses = tuple(clause_list)
        self._declared = extras
        self._graph = graph

    # -- basic views ---------------------------------------------------------

    @property
    def clauses(self) -> tuple[Clause, ...]:
        return self._clauses

    @property
    def declared(self) -> frozenset[str]:
        return self._declared

    @cached_property
    def propositions(self) -> tuple[str, ...]:
        """All internal propositions, sorted by name."""
        return tuple(sorted(self._graph.nodes))

    def dependency_graph(self) -> DependencyGraph:
        return self._graph

    @cached_property
    def clauses_by_effect(self) -> Mapping[str, tuple[Clause, ...]]:
        by: dict[str, list[Clause]] = {}
        for c in self._clauses:
            by.setdefault(c.effect, []).append(c)
        return {k: tuple(v) for k, v in by.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._clauses == other._clauses and self._declared == other._declared

    def __hash__(self) -> int:
        return hash((self._clauses, self._declared))

    def __repr__(self) -> str:
        return f"Program({len(self._clauses)} clauses over {len(self.propositions)} propositions)"

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        if not self._clauses:
            return ""
        return "\n".join(c.text() for c in self._clauses) + "\n"

    # -- desugaring ----------------------------------------------------------

    @cached_property
    def _desugared(self) -> "DesugaredProgram":
        internal = set(self._graph.nodes)
        clauses = []
        probs = {}
        for i, c in enumerate(self._clauses, start=1):
            name = f"u{i}"
            while name in internal:
                name = "u" + name
            clauses.append(LogicalClause(c.effect, c.causes, frozenset({name})))
            probs[name] = c.probability
        return DesugaredProgram(clauses, probs, declared=self._declared)

    def desugar(self) -> "DesugaredProgram":
        return self._desugared


@dataclass(frozen=True)
class LogicalClause:
    """A purely logical clause of a desugared program.

    The head holds when every body literal holds and every noise proposition
    in ``noise`` is drawn true. An empty body makes the head unconditionally
    true (used for intervened propositions).
    """

    head: str
    literals: frozenset[Literal]
    noise: frozenset[str]

    def __post_init__(self) -> None:
        _check_proposition(self.head)
        if not isinstance(self.literals, frozenset):
            object.__setattr__(self, "literals", frozenset(self.literals))
        if not isinstance(self.noise, frozenset):
            object.__setattr__(self, "noise", frozenset(self.noise))
        names = [lit.name for lit in self.literals]
        if len(set(names)) != len(names):
            raise ProgramError(f"contradictory body for {self.head}")


class DesugaredProgram:
    """Logical clauses plus an independent Bernoulli fact per noise name."""

    def __init__(self, clauses: Iterable[LogicalClause],
                 noise_probs: Mapping[str, float], declared: Iterable[str] = ()):
        self._clauses = tuple(clauses)
        self._noise_probs = dict(noise_probs)
        heads = {c.head for c in self._clauses}
        body_names = {lit.name for c in self._clauses for lit in c.literals}
        internal = heads | body_names | {
            _check_proposition(n) for n in declared
        }
        for c in self._clauses:
            for u in c.noise:
                if u not in self._noise_probs:
                    raise ProgramError(f"clause for {c.head} references undeclared noise {u!r}")
        overlap = internal & self._noise_probs.keys()
        if overlap:
            raise ProgramError(
                f"noise names collide with internal propositions: {sorted(overlap)}"
            )
        for u, p in self._noise_probs.items():
            p = float(p)
            if not (0.0 <= p <= 1.0) or p != p:
                raise ProgramError(f"noise probability {p!r} outside [0, 1]")
            self._noise_probs[u] = p
        self._internal = frozenset(internal)
        self._graph = DependencyGraph.build(
            internal, {(lit.name, c.head) for c in self._clauses for lit in c.literals}
        )

    @property
    def clauses(self) -> tuple[LogicalClause, ...]:
        return self._clauses

    @property
    def noise_probs(self) -> Mapping[str, float]:
        return dict(self._noise_probs)

    def noise_probability(self, name: str) -> float:
        return self._noise_probs[name]

    @cached_property
    def noise_names(self) -> tuple[str, ...]:
        """Noise propositions in first-use order, unused ones last."""
        ordered: list[str] = []
        seen: set[str] = set()
        for c in self._clauses:
            for u in sorted(c.noise):
                if u not in seen:
                    seen.add(u)
                    ordered.append(u)
        ordered.extend(sorted(self._noise_probs.keys() - seen))
        return tuple(ordered)

    @cached_property
    def internal_propositions(self) -> tuple[str, ...]:
        return tuple(sorted(self._internal))

    def dependency_graph(self) -> DependencyGraph:
        return self._graph

    @cached_property
    def clauses_by_head(self) -> Mapping[str, tuple[LogicalClause, ...]]:
        by: dict[str, list[LogicalClause]] = {}
        for c in self._clauses:
            by.setdefault(c.head, []).append(c)
        return {k: tuple(v) for k, v in by.items()}

    def topological_order(self) -> tuple[str, ...]:
        return self._graph.topological_order()

    def __repr__(self) -> str:
        return (f"DesugaredProgram({len(self._clauses)} clauses, "
                f"{len(self._noise_probs)} noise facts)")


def desugar(program: Program) -> DesugaredProgram:
    """Replace every annotated clause with a fresh noise fact and a logical
    clause guarded by it. Fresh names are ``u1, u2, ...`` in clause order,
    prefixed with extra ``u`` letters if a user proposition already took the
    name."""
    return program.desugar()

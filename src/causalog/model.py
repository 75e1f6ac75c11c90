"""Core program model.

A program is a set of annotated clauses ``p :: effect :- causes`` over
propositional atoms. Each clause is sugar for an independent noise proposition
(a random fact holding with probability ``p``) guarding a purely logical
clause. The semantics is a system of Boolean equations, one per internal
proposition: the proposition is true exactly when some clause for it fires,
a clause firing when all its body literals hold and its noise proposition is
drawn true. Acyclic programs have a unique solution for every noise
assignment. Queries and sampling read a program's (body, fire) rows, one
per clause, and never build that noise form, nor do the twin export and the
error that names a noise proposition, which take the noise names from
``Program.noise_names``; ``Program.desugar`` spells the form out for
brute-force references that enumerate noise assignments.

Programs list their clauses in a canonical order (topological by effect,
then effect name, then body) so that printing is deterministic; two programs
are equal when they have the same clauses and declared propositions.
"""

from __future__ import annotations

from functools import cached_property, total_ordering
from typing import Iterable, Mapping

from .errors import ProgramError
from .frozen import Frozen
from .graph import RESERVED_NAMES, VALID_NAME, DependencyGraph


def _check_proposition(name: str) -> str:
    if not isinstance(name, str) or not VALID_NAME.match(name):
        raise ProgramError(f"bad proposition name {name!r}: expected lowercase-initial identifier")
    if name in RESERVED_NAMES:
        raise ProgramError(f"{name!r} is a reserved word and cannot name a proposition")
    return name


@total_ordering
class Literal(Frozen):
    """A proposition or its negation, as found in clause bodies; literals
    order by name, then polarity."""

    _fields = ("name", "positive")

    def __init__(self, name: str, positive: bool = True):
        _check_proposition(name)
        self.__dict__.update(name=name, positive=positive)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name, self.positive) == (other.name, other.positive)
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name, self.positive) < (other.name, other.positive)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.positive))

    def __str__(self) -> str:
        return literal_text(self.name, self.positive)


class Clause(Frozen):
    """An annotated clause: with probability ``probability``, ``effect`` holds
    whenever every cause literal holds."""

    _fields = ("effect", "causes", "probability")

    def __init__(self, effect: str, causes: Iterable[Literal], probability: float):
        _check_proposition(effect)
        if not isinstance(causes, frozenset):
            causes = frozenset(causes)
        names = [lit.name for lit in causes]
        if len(set(names)) != len(names):
            dup = sorted(n for n in set(names) if names.count(n) > 1)
            raise ProgramError(
                f"contradictory body for {effect}: {', '.join(dup)} "
                "appears both positively and negatively"
            )
        p = float(probability)
        if not (0.0 <= p <= 1.0) or p != p:
            raise ProgramError(f"probability {probability!r} outside [0, 1]")
        self.__dict__.update(effect=effect, causes=causes, probability=p)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return ((self.effect, self.causes, self.probability)
                    == (other.effect, other.causes, other.probability))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.effect, self.causes, self.probability))

    def sorted_body(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.causes, key=lambda lit: lit.name))

    def text(self) -> str:
        return Clause.format(self.probability, self.effect, map(str, self.sorted_body()))

    @staticmethod
    def format(probability: float, effect: str, body: Iterable[str] = ()) -> str:
        """The statement ``p :: effect :- body.``, or ``p :: effect.`` when
        ``body``, the texts of its literals, is empty."""
        head = f"{float_text(probability)} :: {effect}"
        listed = ", ".join(body)
        return f"{head} :- {listed}." if listed else head + "."


def literal_text(name: str, positive: bool) -> str:
    """A literal as a clause body writes it: ``name`` or ``\\+ name``."""
    return name if positive else f"\\+ {name}"


def row_text(effect: str, row: tuple[tuple[str, bool], ...], fire: float) -> str:
    """The statement of a clause given as an engine row, as ``Clause.text``
    writes it: the row lists its literals by name."""
    return Clause.format(fire, effect, [literal_text(*atom) for atom in row])


def body_keys(pairs: Iterable[tuple[str, bool]]) -> tuple[tuple, tuple]:
    """A body's sort key, its (name, negated) ``pairs`` sorted, and its
    engine row, the same atoms as (name, positive) pairs in the same order:
    a body names each atom once, so both follow the names."""
    order = tuple(sorted(pairs))
    return order, tuple([(name, not negated) for name, negated in order])


def float_text(x: float) -> str:
    """Shortest positional decimal that parses back to the same probability:
    its ``repr``, with an exponent written out as leading zeros, since the
    program syntax has no exponent. ``repr`` writes one in [0, 1] only below
    1e-4, so the mantissa is positive and the exponent negative."""
    text = repr(float(x))
    mantissa, e, exponent = text.partition("e")
    if not e:
        return text
    whole, _, fraction = mantissa.partition(".")
    return f"0.{'0' * (-int(exponent) - len(whole))}{whole}{fraction}"


class Program:
    """An immutable set of annotated clauses in canonical order.

    ``declared`` lists internal propositions that carry no clause and are not
    mentioned by any clause; they are identically false but still part of the
    alphabet. Transformations such as interventions use this to keep erased
    propositions queryable.

    A program is compiled to what the engine reads: each node's clauses as
    (body, fire) rows in body order, the dependency graph, and the factors
    every query on it tabulates from the rows; they go with the program.
    The canonical order is the one ``_ordered_rows`` lists: ``clauses``,
    ``to_text``, the noise names, sampling, the twin and ``validate`` all
    read it. The ``Clause`` objects are what the constructor was given,
    listed in that order, or, for a parsed or recovered program, built on
    the first read of ``clauses``. Equality, hashing and writing the program's text read the
    rows and ``declared`` alone, so writing a program builds no ``Clause``.
    """

    def __init__(self, clauses: Iterable[Clause], declared: Iterable[str] = ()):
        # check each clause and key it by effect and row, which are unique
        # once duplicates are out
        given: dict[tuple[str, tuple], Clause] = {}
        keyed = []
        for c in clauses:
            if not isinstance(c, Clause):
                raise ProgramError(f"expected a Clause, got {type(c).__name__}")
            order, row = body_keys([(l.name, not l.positive) for l in c.causes])
            if (c.effect, row) in given:
                raise ProgramError(
                    f"duplicate clause for {c.effect}: two clauses share the body "
                    f"{{{', '.join(str(l) for l in c.sorted_body()) or ''}}}"
                )
            given[c.effect, row] = c
            keyed.append((c.effect, order, row, c.probability))
        self._build(keyed, frozenset(_check_proposition(n) for n in declared))
        # the given clauses, kept, in canonical order
        self.clauses = tuple([given[effect, row] for effect, row, _ in self._ordered_rows()])

    @classmethod
    def _trusted(cls, entries: list[tuple[str, tuple, tuple, float]],
                 declared: Iterable[str] = ()) -> "Program":
        """The program of the (effect, *body_keys(causes), probability)
        entries and the ``declared`` names, whose caller has made
        ``__init__``'s checks on them (valid names, bodies naming no atom
        twice, probabilities in [0, 1], no two sharing effect and body)."""
        program = object.__new__(cls)
        program._build(entries, frozenset(declared))
        return program

    def _build(self, entries: list[tuple], declared: frozenset[str]) -> None:
        """One pass over the checked entries, each (effect, *body_keys,
        probability): group them by effect, sorted by body, into the
        engine's rows, (body, fire) with the body as sorted (name, positive)
        pairs, and collect the graph's nodes and edges."""
        groups: dict[str, list[tuple]] = {}
        edges: set[tuple[str, str]] = set()
        for entry in entries:
            groups.setdefault(entry[0], []).append(entry)
            for name, _ in entry[1]:
                edges.add((name, entry[0]))
        rows: dict[str, list[tuple[tuple[tuple[str, bool], ...], float]]] = {}
        for effect, group in groups.items():
            group.sort()  # by body, since no two entries share effect and body
            rows[effect] = [(entry[2], entry[3]) for entry in group]
        mentioned = set(groups).union([name for name, _ in edges])
        self._rows = rows
        self._factors: dict = {}  # the engine's factors, built once per node
        self._declared = declared - mentioned
        self._graph = DependencyGraph._trusted(nodes=frozenset(mentioned | declared),
                                               edges=frozenset(edges))

    # -- basic views ---------------------------------------------------------

    def _ordered_rows(self) -> list[tuple[str, tuple[tuple[str, bool], ...], float]]:
        """Every clause as (effect, row, fire) in canonical order: effects by
        rank in the graph, each one's rows in body order."""
        rank = self._graph.ordering_rank()
        return [(effect, row, fire) for effect in sorted(self._rows, key=rank.__getitem__)
                for row, fire in self._rows[effect]]

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses in canonical order, built from the rows on first
        read, one frozenset per distinct body."""
        bodies: dict[tuple, frozenset[Literal]] = {}
        clauses = []
        for effect, row, fire in self._ordered_rows():
            if row not in bodies:
                bodies[row] = frozenset([Literal._trusted(name=name, positive=positive)
                                         for name, positive in row])
            clauses.append(Clause._trusted(effect=effect, causes=bodies[row], probability=fire))
        return tuple(clauses)

    @cached_property
    def noise_names(self) -> tuple[str, ...]:
        """The generated noise proposition of each clause in canonical
        order: ``u<i>`` for the ``i``-th, from 1, with more leading ``u``s
        while that names one of the program's propositions."""
        nodes = self._graph.nodes
        names = []
        for i in range(1, sum(map(len, self._rows.values())) + 1):
            name = f"u{i}"
            while name in nodes:
                name = "u" + name
            names.append(name)
        return tuple(names)

    @cached_property
    def propositions(self) -> tuple[str, ...]:
        """All internal propositions, sorted by name."""
        return tuple(sorted(self._graph.nodes))

    def dependency_graph(self) -> DependencyGraph:
        return self._graph

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self._rows == other._rows and self._declared == other._declared

    def __hash__(self) -> int:
        return hash((frozenset([(effect, tuple(rows)) for effect, rows in self._rows.items()]),
                     self._declared))

    def __repr__(self) -> str:
        clauses = sum(map(len, self._rows.values()))
        return f"Program({clauses} clauses over {len(self.propositions)} propositions)"

    def __str__(self) -> str:
        return self.to_text()

    def to_text(self) -> str:
        """One statement a line, written straight from the rows in the order
        ``clauses`` lists them: effects by rank in the graph, each one's
        rows in body order, a body's literals, like its row, by name."""
        lines = [row_text(*entry) for entry in self._ordered_rows()]
        return "\n".join(lines) + "\n" if lines else ""

    # -- desugaring ----------------------------------------------------------

    @cached_property
    def _desugared(self) -> "DesugaredProgram":
        clauses = []
        probs = {}
        for c, name in zip(self.clauses, self.noise_names):
            # a Clause's effect and body have passed LogicalClause's checks
            clauses.append(LogicalClause._trusted(head=c.effect, literals=c.causes,
                                                  noise=frozenset({name})))
            probs[name] = c.probability
        return DesugaredProgram(clauses, probs, declared=self._declared)

    def desugar(self) -> "DesugaredProgram":
        return self._desugared


class LogicalClause(Frozen):
    """A purely logical clause of a desugared program.

    The head holds when every body literal holds and every noise proposition
    in ``noise`` is drawn true. An empty body makes the head unconditionally
    true (used for intervened propositions).
    """

    _fields = ("head", "literals", "noise")

    def __init__(self, head: str, literals: Iterable[Literal], noise: Iterable[str]):
        _check_proposition(head)
        literals = literals if isinstance(literals, frozenset) else frozenset(literals)
        noise = noise if isinstance(noise, frozenset) else frozenset(noise)
        names = [lit.name for lit in literals]
        if len(set(names)) != len(names):
            raise ProgramError(f"contradictory body for {head}")
        self.__dict__.update(head=head, literals=literals, noise=noise)


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

    def __repr__(self) -> str:
        return (f"DesugaredProgram({len(self._clauses)} clauses, "
                f"{len(self._noise_probs)} noise facts)")

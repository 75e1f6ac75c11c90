"""Exact inference over acyclic programs.

The probability of a formula is, by definition, the total weight of the noise
assignments whose induced structure satisfies it, each assignment weighed by
the product of its fact probabilities. One kernel computes that sum over the
ancestral closure of the atoms a query mentions; everything else
marginalizes out exactly.

The kernel walks every assignment of a plan's columns, one bit each, in
fixed-size chunks so memory stays flat. A column is a random noise fact,
weighed by p and 1 - p (the factor of one unconditional clause), or a head
weighed by its noisy-OR factor, P(head true | parents) = 1 - prod(1 -
fire(c)) over the clauses whose body the parents satisfy. That factor is
exact when no other relevant clause reads the head's noise facts, which
always holds in the surface syntax. Every other relevant head is computed
per chunk from the columns by ``solve``, the Boolean-equation solve that
also answers ``evaluate_world`` on one assignment and forward sampling on a
column of draws per noise fact. The plan chooses per head: a head with no
random noise (intervened, or probabilities 0 and 1 only) is solved and
costs no bit; a head with noise of its own costs one bit, its factor; a
head reading a noise fact that another relevant clause reads, as in a
desugared program built by hand, is solved from its noise facts as columns.

Counterfactuals run on the twin of a surface program (``twin_conditional``),
whose two copies share each clause's noise fact, and the plan goes per
source node: a node with no intervened ancestor-or-self has equal copies,
one column under the ordinary factor; an intervened node's intervention
copy is solved; every other node costs the fewer of its relevant copies,
under a pair factor, and its random noise facts, ties to the factor. The
pair factor's P(0, 0) is the miss over the clauses whose body holds in
either copy, and P(1, 1) = 1 - P(h_e = 0) - P(h_i = 0) + P(0, 0).

No node costs more bits than under its factor or its noise alone. The
number of enumerated assignments is reported back. On large chunks a factor
is first tabulated over the few columns it reads and then looked up per
assignment, which gives the same numbers as evaluating its clauses per
assignment. A query that would need more assignments than the cap
(``--max-worlds`` or ``CAUSALOG_MAX_WORLDS``, default 2**26) is refused
rather than silently truncated.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    CausalogError,
    EnumerationCapError,
    TableSizeError,
    WorldError,
    ZeroEvidenceError,
)
from .formula import Atom, Formula, check_atoms, check_names, conjunction_of
from .model import DesugaredProgram, Literal, Program

if TYPE_CHECKING:
    from .causal import TwinProgram

DEFAULT_MAX_WORLDS = 1 << 26
MAX_WORLDS_ENV = "CAUSALOG_MAX_WORLDS"
_CHUNK_BITS = 16
# A factor is looked up in a table over the columns it reads when chunks have
# at least 2**13 worlds and the table is at most 1/16 of a chunk. On smaller
# chunks, evaluating the clauses costs less than tabulating and indexing
# (break-even near 2**13 worlds on layered programs, 2 CPUs, numpy 2.4).
_TABLE_MIN_BITS = 13
_TABLE_MARGIN_BITS = 4


@dataclass(frozen=True)
class QueryResult:
    """An exact probability plus how it was obtained.

    ``worlds_evaluated`` counts the assignments of the plan's columns;
    ``conditioning_mass`` is the probability of the evidence (1.0 when the
    query was unconditional)."""

    probability: float
    worlds_evaluated: int
    conditioning_mass: float = 1.0


def resolved_max_worlds(max_worlds: int | None) -> int:
    if max_worlds is not None:
        return int(max_worlds)
    env = os.environ.get(MAX_WORLDS_ENV)
    if not env:
        return DEFAULT_MAX_WORLDS
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value <= 0:
        raise CausalogError(
            f"{MAX_WORLDS_ENV} must be a positive integer, got {env!r}"
        )
    return value


def _as_desugared(program: Program | DesugaredProgram) -> DesugaredProgram:
    if isinstance(program, Program):
        return program.desugar()
    return program


def evaluate_world(program: Program | DesugaredProgram,
                   world: Mapping[str, bool]) -> dict[str, bool]:
    """Solve the Boolean equation system for one total noise assignment.

    Returns the full structure: the given noise values plus the uniquely
    determined value of every internal proposition. Internal propositions
    with no clause come out false."""
    dp = _as_desugared(program)
    known = set(dp.noise_names)
    missing = sorted(known - world.keys())
    if missing:
        raise WorldError(f"noise assignment missing {', '.join(missing)}")
    extra = sorted(set(world.keys()) - known)
    if extra:
        raise WorldError(f"assignment names unknown noise propositions {', '.join(extra)}")
    values: dict[str, bool] = {u: bool(world[u]) for u in known}
    order = dp.topological_order()
    env = solve(dp, order, values, 1)
    values.update((name, bool(env[name][0])) for name in order)
    return values


# ---------------------------------------------------------------------------
# the plan


# P(heads | parents) for one head, for both copies of a twin node, or for a
# random noise fact (one unconditional clause): the heads, then per clause
# its body once per head (aligned with the heads) and its miss probability
# 1 - fire.
_Factor = tuple[tuple[str, ...], list[tuple[tuple[frozenset[Literal], ...], float]]]


class _FactorPlan:
    """What the kernel walks: one bit per column, each column a head or a
    random noise fact weighed by a factor; twin copies merged onto another
    copy's column; the noise facts of probability 0 or 1 as constants; and
    every other relevant head, body atoms first, for ``solve`` to compute
    from the columns."""

    def __init__(self) -> None:
        self.columns: list[str] = []
        self.factors: list[_Factor] = []
        self.aliases: dict[str, str] = {}
        self.known: dict[str, bool] = {}
        self.solved: list[str] = []

    def weigh(self, factor: _Factor) -> None:
        self.columns.extend(factor[0])
        self.factors.append(factor)


def _factor(dp: DesugaredProgram, heads: tuple[str, ...]) -> _Factor:
    """The factor of one head, or of the two copies of a twin node, whose
    clauses correspond one to one through the noise fact they share."""
    by_head = dp.clauses_by_head
    copies = [{c.noise: c.literals for c in by_head.get(h, ())} for h in heads[1:]]
    terms = []
    for c in by_head.get(heads[0], ()):
        fire = math.prod(map(dp.noise_probability, c.noise))
        if fire != 0.0:
            bodies = (c.literals, *(copy[c.noise] for copy in copies))
            terms.append((bodies, 1.0 - fire))
    return heads, terms


def _plan(dp: DesugaredProgram, relevant: frozenset[str],
          twin: "TwinProgram | None") -> _FactorPlan:
    """Choose per node how the kernel walks the ancestral closure
    ``relevant``. A node with no random noise is solved. A node whose
    factor has at most as many heads as it has random noise facts is
    weighed by that factor; any other node is solved from its random noise
    facts as columns."""
    prob = dp.noise_probability
    by_head = dp.clauses_by_head
    plan = _FactorPlan()
    order = [n for n in dp.topological_order() if n in relevant]
    random_noise: dict[str, list[str]] = {}
    for h in order:
        random_noise[h] = []
        for c in by_head.get(h, ()):
            for u in c.noise:
                if 0.0 < prob(u) < 1.0:
                    random_noise[h].append(u)
                else:
                    plan.known[u] = prob(u) == 1.0
    if twin is None:
        # a noisy-OR factor needs each of its head's noise facts to itself
        use = [u for noise in random_noise.values() for u in noise]
        shared = set()
        if len(set(use)) < len(use):
            shared = {u for u, n in Counter(use).items() if n > 1}
        nodes = [((h,), (h,) if shared.isdisjoint(random_noise[h]) else ()) for h in order]
    else:
        nodes = _twin_nodes(twin, relevant)
    for heads, factor_heads in nodes:
        noise = {u for h in heads for u in random_noise[h]}
        if not noise:
            continue
        if factor_heads and len(factor_heads) <= len(noise):
            plan.weigh(_factor(dp, factor_heads))
            for h in heads[len(factor_heads):]:  # merged twin copies
                plan.aliases[h] = factor_heads[0]
            continue
        for u in sorted(noise.difference(plan.columns)):
            plan.weigh(((u,), [((frozenset(),), 1.0 - prob(u))]))
    walked = set(plan.columns) | plan.aliases.keys()
    plan.solved = [h for h in order if h not in walked]
    return plan


def _twin_nodes(twin: "TwinProgram", relevant: frozenset[str]
                ) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The relevant copies of each twin node and the heads of their factor.

    A node no intervention reaches has equal copies, merged onto the first
    one's column; an intervened node's copies are separate nodes, the
    intervention copy without noise; every other node has a pair factor,
    which a copy outside the closure leaves as the other copy's factor."""
    dp = twin.desugared
    forced = dict(twin.intervention)
    touched: set[str] = set()  # evidence copies of intervened nodes and their descendants
    for node in twin.source.dependency_graph().topological_order():
        e, i = twin.evidence_atom(node), twin.intervention_atom(node)
        heads = tuple(h for h in (e, i) if h in relevant)
        if node in forced:
            touched.add(e)
            yield from (((h,), (h,)) for h in heads)
        elif any(lit.name in touched
                 for c in dp.clauses_by_head.get(e, ()) for lit in c.literals):
            touched.add(e)
            yield heads, heads
        elif heads:
            yield heads, heads[:1]


# ---------------------------------------------------------------------------
# the enumeration kernel


def _columns(names: Sequence[str]) -> Iterator[tuple[int, dict[str, np.ndarray]]]:
    """Every assignment of ``names`` in chunks: per chunk its size and one
    bool column per name, bit j of the assignment's index for the j-th name.
    The low bits repeat in every chunk and the high bits are constant in one,
    so the low columns are built once."""
    low = min(len(names), _CHUNK_BITS)
    count = 1 << low
    idx = np.arange(count)
    base = {name: (idx >> j & 1).astype(bool) for j, name in enumerate(names[:low])}
    for high in range(1 << (len(names) - low)):
        env = dict(base)
        for j, name in enumerate(names[low:]):
            env[name] = np.full(count, bool(high >> j & 1))
        yield count, env


def _holds(env: Mapping[str, np.ndarray], body: frozenset[Literal],
           count: int) -> np.ndarray | bool:
    if not body:
        return True
    sat = np.ones(count, dtype=bool)
    for lit in body:
        sat &= env[lit.name] == lit.positive
    return sat


def _miss(terms: Iterable[tuple[np.ndarray | bool, float]], count: int) -> np.ndarray:
    """Noisy-OR miss: the product of 1 - fire over the clauses that hold."""
    miss = np.ones(count, dtype=np.float64)
    for sat, keep in terms:
        miss = np.where(sat, miss * keep, miss)
    return miss


def _factor_weight(env: Mapping[str, np.ndarray], factor: _Factor,
                   count: int) -> np.ndarray:
    heads, clauses = factor
    if len(heads) == 1:
        miss = _miss(((_holds(env, body, count), keep)
                      for (body,), keep in clauses), count)
        return np.where(env[heads[0]], 1.0 - miss, miss)
    sats = [(_holds(env, b_e, count), _holds(env, b_i, count), keep)
            for (b_e, b_i), keep in clauses]
    miss_e = _miss(((s_e, keep) for s_e, _, keep in sats), count)
    miss_i = _miss(((s_i, keep) for _, s_i, keep in sats), count)
    both = _miss(((s_e | s_i, keep) for s_e, s_i, keep in sats), count)
    h_e, h_i = env[heads[0]], env[heads[1]]
    return np.where(h_e,
                    np.where(h_i, 1.0 - miss_e - miss_i + both, miss_i - both),
                    np.where(h_i, miss_e - both, both))


def _with_aliases(plan: _FactorPlan, env: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Add the twin copies merged onto a column of ``env``."""
    for name, column in plan.aliases.items():
        if column in env:
            env[name] = env[column]
    return env


def _table(plan: _FactorPlan, factor: _Factor,
           count: int) -> tuple[list[str], np.ndarray] | None:
    """The factor tabulated over the heads and columns it reads, or None when
    chunks of ``count`` worlds are too small, or the table too large, for a
    lookup per world to beat evaluating the clauses per world."""
    if count < 1 << _TABLE_MIN_BITS:
        return None
    heads, clauses = factor
    names = set(heads)
    for bodies, _ in clauses:
        for body in bodies:
            names.update(lit.name for lit in body)
    scope = sorted({plan.aliases.get(n, n) for n in names})
    size = 1 << len(scope)
    if size << _TABLE_MARGIN_BITS > count:
        return None
    _, env = next(_columns(scope))
    return scope, _factor_weight(_with_aliases(plan, env), factor, size)


def _enumerate(dp: DesugaredProgram,
               plan: _FactorPlan) -> Iterator[tuple[dict[str, np.ndarray], np.ndarray]]:
    """Every assignment of the plan's columns, in chunks: the solved
    environment and the product of the factors."""
    bits = len(plan.columns)
    tables = [_table(plan, factor, 1 << min(bits, _CHUNK_BITS))
              for factor in plan.factors]
    for count, env in _columns(plan.columns):
        env = solve(dp, plan.solved, {**plan.known, **_with_aliases(plan, env)}, count)
        weight = np.ones(count, dtype=np.float64)
        for factor, table in zip(plan.factors, tables):
            if table is None:
                weight *= _factor_weight(env, factor, count)
                continue
            scope, values = table
            if len(scope) == 1:
                weight *= np.where(env[scope[0]], values[1], values[0])
                continue
            code = np.zeros(count, dtype=np.uint16)
            for k, name in enumerate(scope):
                code += env[name] * np.uint16(1 << k)
            weight *= values[code]
        yield env, weight


def solve(dp: DesugaredProgram, order: Sequence[str],
          known: Mapping[str, np.ndarray | bool], count: int) -> dict[str, np.ndarray]:
    """Solve the Boolean equations for ``count`` noise assignments at once.

    ``order`` lists the heads to compute, each after the body atoms it
    computes; ``known`` maps every other body atom and every noise fact
    their clauses read to a bool column of length ``count`` or to a Python
    bool. Returns ``known`` plus the heads of ``order``: true where one of
    its clauses has every body literal and every noise entry true, false
    where it has no clause."""
    by_head = dp.clauses_by_head
    env = dict(known)
    for name in order:
        value = np.zeros(count, dtype=bool)
        for clause in by_head.get(name, ()):
            guards = [env[u] for u in clause.noise]
            # constants decide without touching the columns: an in-place
            # AND with a scalar costs ~40x one with a column (2^16 rows,
            # numpy 2.4)
            if any(g is False for g in guards):
                continue
            sat = np.ones(count, dtype=bool)
            for lit in clause.literals:
                sat &= env[lit.name] == lit.positive
            for g in guards:
                if g is not True:
                    sat &= g
            value |= sat
        env[name] = value
    return env


def _query_masses(dp: DesugaredProgram, formulas: Sequence[Formula],
                  max_worlds: int | None,
                  twin: "TwinProgram | None" = None) -> tuple[np.ndarray, int]:
    """The mass of every cell of the formulas' joint truth values and the
    number of assignments walked: one enumeration of the ancestral closure
    of their atoms and one ``np.bincount`` per chunk. The first formula is
    the most significant bit of a cell's code."""
    cap = resolved_max_worlds(max_worlds)
    atoms = frozenset().union(*(f.atoms() for f in formulas))
    plan = _plan(dp, dp.dependency_graph().ancestors(atoms), twin)
    worlds = 1 << len(plan.columns)
    if worlds > cap:
        raise EnumerationCapError(worlds, cap)
    size = 1 << len(formulas)
    masses = np.zeros(size, dtype=np.float64)
    for env, weight in _enumerate(dp, plan):
        codes = np.zeros(weight.shape, dtype=np.int64)
        for f in formulas:
            codes = (codes << 1) | f.evaluate(env)
        masses += np.bincount(codes, weights=weight, minlength=size)
    return masses, worlds


# ---------------------------------------------------------------------------
# public queries


def probability(program: Program | DesugaredProgram, phi: Formula,
                max_worlds: int | None = None) -> QueryResult:
    """Exact probability that a random structure satisfies ``phi``."""
    dp = _as_desugared(program)
    check_atoms(phi, dp)
    masses, worlds = _query_masses(dp, [phi], max_worlds)
    return QueryResult(_clamp_unit(masses[1]), worlds)


def conditional(program: Program | DesugaredProgram, phi: Formula,
                evidence: Formula, max_worlds: int | None = None) -> QueryResult:
    """Exact conditional probability of ``phi`` given an evidence formula.

    Numerator and denominator come from one shared enumeration. Evidence of
    probability zero raises ZeroEvidenceError."""
    return _conditional(_as_desugared(program), phi, evidence, max_worlds)


def twin_conditional(twin: "TwinProgram", phi: Formula, evidence: Formula,
                     max_worlds: int | None = None) -> QueryResult:
    """``conditional`` on ``twin.desugared``, with phi and evidence over the
    twin's alphabet, planned per node of the source program: a node the
    intervention cannot reach is one column under its ordinary factor, an
    intervened node's intervention copy is solved, and any other node costs
    the fewer of its relevant copies, under a pair factor, and its random
    noise facts, solved from them as columns (ties to the factor)."""
    return _conditional(twin.desugared, phi, evidence, max_worlds, twin)


def _conditional(dp: DesugaredProgram, phi: Formula, evidence: Formula,
                 max_worlds: int | None,
                 twin: "TwinProgram | None" = None) -> QueryResult:
    check_atoms(phi, dp)
    check_atoms(evidence, dp)
    masses, worlds = _query_masses(dp, [phi, evidence], max_worlds, twin)
    # phi is the high bit of a cell's code, the evidence the low bit
    mass = masses[1] + masses[3]
    if mass <= 0.0:
        raise _zero_evidence(evidence)
    return QueryResult(_clamp_unit(masses[3] / mass), worlds, _clamp_unit(mass))


def _zero_evidence(evidence: Formula) -> ZeroEvidenceError:
    return ZeroEvidenceError(f"evidence '{evidence.to_text()}' has probability zero")


@dataclass(frozen=True)
class JointTable:
    """The full joint distribution over the internal propositions.

    Keys of ``cells`` are tuples of booleans aligned with ``columns``."""

    columns: tuple[str, ...]
    cells: Mapping[tuple[bool, ...], float]

    def probability_of(self, assignment: Mapping[str, bool]) -> float:
        key = tuple(bool(assignment[c]) for c in self.columns)
        return self.cells[key]

    def total(self) -> float:
        return math.fsum(self.cells.values())


def joint_table(program: Program, max_propositions: int = 20) -> JointTable:
    """Exact joint table over all internal propositions (at most
    ``max_propositions`` of them; the table is exponential in that count)."""
    dp = _as_desugared(program)
    columns = dp.internal_propositions
    if len(columns) > max_propositions:
        raise TableSizeError(
            f"joint table over {len(columns)} propositions exceeds the limit "
            f"of {max_propositions}"
        )
    # the first column is the most significant bit, the order in which
    # itertools.product lists the cells
    masses = marginal(dp, columns).masses
    cells = dict(zip(itertools.product((False, True), repeat=len(columns)),
                     masses.tolist()))
    return JointTable(columns, cells)


def _clamp_unit(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return float(x)


@dataclass(frozen=True)
class Marginal:
    """The mass of every cell of the joint marginal over ``columns``.

    ``masses[code]`` is the probability that the columns take the values
    spelled by the bits of ``code``, the first column being the most
    significant bit; ``worlds_evaluated`` counts the assignments walked."""

    columns: tuple[str, ...]
    masses: np.ndarray
    worlds_evaluated: int

    def given(self, pattern: Mapping[str, bool]) -> float:
        """P(first column | the other columns as in ``pattern``), the value
        ``conditional`` gives; a pattern of probability zero raises the same
        ZeroEvidenceError."""
        code = 0
        for name in self.columns[1:]:
            code = (code << 1) | bool(pattern[name])
        # the first column is the most significant bit of a cell's code
        miss, hit = self.masses.reshape(2, -1)[:, code].tolist()
        if miss + hit <= 0.0:
            raise _zero_evidence(conjunction_of(pattern))
        return _clamp_unit(hit / (miss + hit))


def marginal(program: Program | DesugaredProgram, atoms: Sequence[str],
             max_worlds: int | None = None) -> Marginal:
    """Exact marginal over ``atoms``: one enumeration of their ancestral
    closure, each world's weight added to its cell by one ``np.bincount``."""
    dp = _as_desugared(program)
    columns = tuple(atoms)
    check_names(columns, dp)
    masses, count = _query_masses(dp, [Atom(name) for name in columns], max_worlds)
    return Marginal(columns, masses, count)

"""Exact inference over acyclic programs.

The probability of a formula is, by definition, the total weight of the noise
assignments whose induced structure satisfies it, each assignment weighed by
the product of its fact probabilities. Two exact evaluation strategies
compute that sum:

* noise enumeration walks the noise assignments directly, solving the Boolean
  equation system for a chunk of them at once. It is always applicable, and
  it is the only strategy for desugared programs whose noise facts feed
  several clauses, such as a twin program built by hand. The same ``solve``
  answers ``evaluate_world`` on one assignment and forward sampling on a
  column of draws per noise fact.

* factor enumeration walks assignments of the internal propositions instead,
  weighing each by a product of per-head factors. When every noise fact feeds
  at most one clause, distinct heads have disjoint noise, so the joint
  distribution factorizes per head given its parents, with P(head true |
  parents) = 1 - prod(1 - fire(c)) over the clauses whose body the parent
  assignment satisfies (the noisy-OR miss). Programs written in the surface
  syntax always qualify. This is usually exponentially cheaper because only
  ancestors of the queried atoms need enumerating.

Counterfactuals run on the twin of a surface program (``twin_conditional``),
whose two copies share each clause's noise fact. The twin still factorizes
per source head: a node with no intervened ancestor-or-self has identical
copies and gets one column with the ordinary factor; an intervened node's
intervention copy is a constant; every other node gets a pair factor over
its two copies, P(0, 0) being the miss over the clauses whose body holds in
either copy and P(1, 1) = 1 - P(h_e = 0) - P(h_i = 0) + P(0, 0).

All strategies restrict enumeration to the ancestral closure of the atoms
mentioned by the query; everything else marginalizes out exactly. Whichever
is valid and cheaper runs, factor winning ties, in fixed-size chunks so
memory stays flat, and the number of enumerated assignments is reported
back. On large chunks a factor is first tabulated over the few columns it
reads and then looked up per assignment, which gives the same numbers as
evaluating its clauses per assignment. A query that would need more
assignments than the cap (``--max-worlds`` or ``CAUSALOG_MAX_WORLDS``,
default 2**26) is refused rather than silently truncated.
"""

from __future__ import annotations

import itertools
import math
import os
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
from .formula import And, Formula, check_atoms
from .model import DesugaredProgram, Literal, LogicalClause, Program

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

    ``worlds_evaluated`` counts the assignments the chosen strategy walked;
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
    for name, column in solve(dp, dp.topological_order(), values, 1).items():
        values[name] = bool(column[0])
    return values


# ---------------------------------------------------------------------------
# factor plans


# P(heads | parents) for one head, or for both copies of a twin node: the
# heads, then per clause its body once per head (aligned with the heads) and
# its miss probability 1 - fire.
_Factor = tuple[tuple[str, ...], list[tuple[tuple[frozenset[Literal], ...], float]]]


class _FactorPlan:
    """What factor enumeration walks: one bit per column, the factors that
    weigh each assignment, twin copies merged onto another copy's column and
    intervened twin copies pinned to a constant."""

    def __init__(self, columns: list[str] | None = None,
                 factors: list[_Factor] | None = None):
        self.columns = columns if columns is not None else []
        self.factors = factors if factors is not None else []
        self.aliases: dict[str, str] = {}
        self.constants: dict[str, bool] = {}


def _clause_fire_probability(dp: DesugaredProgram, clause: LogicalClause) -> float:
    fire = 1.0
    for u in clause.noise:
        fire *= dp.noise_probability(u)
    return fire


def _factor(dp: DesugaredProgram, heads: tuple[str, ...]) -> _Factor:
    """The factor of one head, or of the two copies of a twin node, whose
    clauses correspond one to one through the noise fact they share."""
    by_head = dp.clauses_by_head
    copies = [{c.noise: c.literals for c in by_head.get(h, ())} for h in heads[1:]]
    terms = []
    for c in by_head.get(heads[0], ()):
        fire = _clause_fire_probability(dp, c)
        if fire != 0.0:
            bodies = (c.literals, *(copy[c.noise] for copy in copies))
            terms.append((bodies, 1.0 - fire))
    return heads, terms


def _twin_plan(twin: "TwinProgram", relevant: frozenset[str]) -> _FactorPlan:
    """Merged, forced and pair factors over the relevant copies of the twin.

    A copy outside the ancestral closure sums out of its node's pair factor,
    leaving the ordinary factor of the other copy."""
    dp = twin.desugared
    forced = dict(twin.intervention)
    plan = _FactorPlan()
    touched: set[str] = set()  # evidence copies of intervened nodes and their descendants
    for node in twin.source.dependency_graph().topological_order():
        e, i = twin.evidence_atom(node), twin.intervention_atom(node)
        if node in forced:
            touched.add(e)
            if i in relevant:
                plan.constants[i] = forced[node]
            heads = (e,) if e in relevant else ()
        elif any(lit.name in touched
                 for c in dp.clauses_by_head.get(e, ()) for lit in c.literals):
            touched.add(e)
            heads = tuple(h for h in (e, i) if h in relevant)
        elif e in relevant or i in relevant:
            plan.aliases[i] = e
            heads = (e,)
        else:
            heads = ()
        if heads:
            plan.columns.extend(heads)
            plan.factors.append(_factor(dp, heads))
    return plan


# ---------------------------------------------------------------------------
# the enumeration kernels

_Worlds = Iterator[tuple[dict[str, np.ndarray], np.ndarray]]


def _chunks(bits: int) -> Iterator[tuple[int, int]]:
    total = 1 << bits
    chunk = 1 << min(bits, _CHUNK_BITS)
    for start in range(0, total, chunk):
        yield start, min(chunk, total - start)


def _bit_columns(start: int, count: int, names: Sequence[str]) -> dict[str, np.ndarray]:
    idx = np.arange(start, start + count, dtype=np.uint64)
    return {
        name: ((idx >> np.uint64(j)) & np.uint64(1)).astype(bool)
        for j, name in enumerate(names)
    }


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


def _with_copies(plan: _FactorPlan, env: dict[str, np.ndarray],
                 count: int) -> dict[str, np.ndarray]:
    """Add the merged and the pinned twin copies to ``env``."""
    for name, column in plan.aliases.items():
        if column in env:
            env[name] = env[column]
    for name, value in plan.constants.items():
        env[name] = np.full(count, value)
    return env


def _table(plan: _FactorPlan, factor: _Factor,
           count: int) -> tuple[list[str], np.ndarray] | None:
    """The factor tabulated over the columns it reads, or None when chunks of
    ``count`` worlds are too small, or the table too large, for a lookup per
    world to beat evaluating the clauses per world."""
    if count < 1 << _TABLE_MIN_BITS:
        return None
    heads, clauses = factor
    names = set(heads)
    for bodies, _ in clauses:
        for body in bodies:
            names.update(lit.name for lit in body)
    scope = sorted({plan.aliases.get(n, n) for n in names} - plan.constants.keys())
    size = 1 << len(scope)
    if size << _TABLE_MARGIN_BITS > count:
        return None
    env = _with_copies(plan, _bit_columns(0, size, scope), size)
    return scope, _factor_weight(env, factor, size)


def _factor_worlds(plan: _FactorPlan) -> _Worlds:
    bits = len(plan.columns)
    tables = [_table(plan, factor, 1 << min(bits, _CHUNK_BITS))
              for factor in plan.factors]
    for start, count in _chunks(bits):
        env = _with_copies(plan, _bit_columns(start, count, plan.columns), count)
        weight = np.ones(count, dtype=np.float64)
        for factor, table in zip(plan.factors, tables):
            if table is None:
                weight *= _factor_weight(env, factor, count)
                continue
            scope, values = table
            code = np.zeros(count, dtype=np.uint16)
            for k, name in enumerate(scope):
                code += env[name] * np.uint16(1 << k)
            weight *= values[code]
        yield env, weight


def solve(dp: DesugaredProgram, order: Sequence[str],
          noise: Mapping[str, np.ndarray | bool], count: int) -> dict[str, np.ndarray]:
    """Solve the Boolean equations for ``count`` noise assignments at once.

    ``order`` lists every body atom before its head; ``noise`` maps each noise
    fact the clauses of ``order`` read to a bool column of length ``count`` or
    to a Python bool. A head is true where one of its clauses has every body
    literal and every noise entry true; a head without clauses is false."""
    by_head = dp.clauses_by_head
    env: dict[str, np.ndarray] = {}
    for name in order:
        value = np.zeros(count, dtype=bool)
        for clause in by_head.get(name, ()):
            guards = [noise[u] for u in clause.noise]
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


def _noise_worlds(dp: DesugaredProgram, order: list[str],
                  random_noise: list[str]) -> _Worlds:
    probs = {u: dp.noise_probability(u) for u in random_noise}
    certain = {u: p == 1.0 for u, p in dp.noise_probs.items() if p in (0.0, 1.0)}
    for start, count in _chunks(len(random_noise)):
        noise_env = _bit_columns(start, count, random_noise)
        weight = np.ones(count, dtype=np.float64)
        for u in random_noise:
            p = probs[u]
            weight *= np.where(noise_env[u], p, 1.0 - p)
        yield solve(dp, order, {**certain, **noise_env}, count), weight


# ---------------------------------------------------------------------------
# strategy selection


def _worlds(dp: DesugaredProgram, atoms: set[str] | frozenset[str],
            max_worlds: int | None,
            twin: "TwinProgram | None" = None) -> tuple[_Worlds, int]:
    """Choose the cheaper valid enumeration of the ancestral closure of
    ``atoms`` and return its chunks with the number of assignments."""
    cap = resolved_max_worlds(max_worlds)
    relevant = dp.dependency_graph().ancestors(atoms)
    order = [n for n in dp.topological_order() if n in relevant]
    clauses = [c for c in dp.clauses if c.head in relevant]

    noise_use: dict[str, int] = {}
    for c in clauses:
        for u in c.noise:
            noise_use[u] = noise_use.get(u, 0) + 1
    random_noise = [u for u in dp.noise_names
                    if u in noise_use and 0.0 < dp.noise_probability(u) < 1.0]

    plan = None
    if twin is not None:
        plan = _twin_plan(twin, relevant)
    elif all(count == 1 for count in noise_use.values()):
        plan = _FactorPlan(order, [_factor(dp, (name,)) for name in order])

    candidates: list[tuple[int, str]] = [(len(random_noise), "noise")]
    if plan is not None:
        candidates.append((len(plan.columns), "factor"))
    bits, strategy = min(candidates, key=lambda c: (c[0], c[1] != "factor"))
    if (1 << bits) > cap:
        raise EnumerationCapError(1 << bits, cap)
    if strategy == "factor":
        return _factor_worlds(plan), 1 << bits
    return _noise_worlds(dp, order, random_noise), 1 << bits


def _query_masses(dp: DesugaredProgram, formulas: Sequence[Formula],
                  max_worlds: int | None,
                  twin: "TwinProgram | None" = None) -> tuple[list[float], int]:
    """Exact mass of each formula, computed in one shared enumeration."""
    atoms: set[str] = set()
    for f in formulas:
        atoms |= f.atoms()
    worlds, count = _worlds(dp, atoms, max_worlds, twin)
    masses = [0.0] * len(formulas)
    for env, weight in worlds:
        for i, f in enumerate(formulas):
            mask = np.broadcast_to(np.asarray(f.evaluate(env), dtype=bool), weight.shape)
            masses[i] += float(weight[mask].sum())
    return masses, count


# ---------------------------------------------------------------------------
# public queries


def probability(program: Program | DesugaredProgram, phi: Formula,
                max_worlds: int | None = None) -> QueryResult:
    """Exact probability that a random structure satisfies ``phi``."""
    dp = _as_desugared(program)
    check_atoms(phi, dp)
    masses, worlds = _query_masses(dp, [phi], max_worlds)
    return QueryResult(_clamp_unit(masses[0]), worlds)


def conditional(program: Program | DesugaredProgram, phi: Formula,
                evidence: Formula, max_worlds: int | None = None) -> QueryResult:
    """Exact conditional probability of ``phi`` given an evidence formula.

    Numerator and denominator come from one shared enumeration. Evidence of
    probability zero raises ZeroEvidenceError."""
    return _conditional(_as_desugared(program), phi, evidence, max_worlds)


def twin_conditional(twin: "TwinProgram", phi: Formula, evidence: Formula,
                     max_worlds: int | None = None) -> QueryResult:
    """``conditional`` on ``twin.desugared``, with phi and evidence over the
    twin's alphabet, but weighing the twin by merged, forced and pair factors
    of its source program whenever that enumerates no more assignments than
    the shared noise does."""
    return _conditional(twin.desugared, phi, evidence, max_worlds, twin)


def _conditional(dp: DesugaredProgram, phi: Formula, evidence: Formula,
                 max_worlds: int | None,
                 twin: "TwinProgram | None" = None) -> QueryResult:
    check_atoms(phi, dp)
    check_atoms(evidence, dp)
    masses, worlds = _query_masses(dp, [And(phi, evidence), evidence],
                                   max_worlds, twin)
    joint, mass = masses
    if mass <= 0.0:
        raise ZeroEvidenceError(
            f"evidence '{evidence.to_text()}' has probability zero"
        )
    return QueryResult(_clamp_unit(joint / mass), worlds, _clamp_unit(mass))


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
    worlds, _ = _worlds(dp, columns, None)
    size = 1 << len(columns)
    masses = np.zeros(size, dtype=np.float64)
    for env, weight in worlds:
        # the first column is the most significant bit, the order in which
        # itertools.product lists the cells
        codes = np.zeros(weight.shape, dtype=np.int64)
        for name in columns:
            codes = (codes << 1) | env[name]
        masses += np.bincount(codes, weights=weight, minlength=size)
    cells = dict(zip(itertools.product((False, True), repeat=len(columns)),
                     masses.tolist()))
    return JointTable(columns, cells)


def _clamp_unit(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return float(x)

"""Exact inference over acyclic programs.

The probability of a formula is, by definition, the total weight of the noise
assignments whose induced structure satisfies it. One kernel computes that
sum over the ancestral closure of the atoms a query mentions by variable
elimination (Zhang & Poole, 1994; Dechter, 1999): every variable outside the
queried atoms is summed out in min-degree order kept in incremental adjacency
sets, so the cost follows the width of that order rather than the number of
ancestors. A step multiplies its operands and sums with one ``np.einsum``,
unless the product spans 2^10 to 2^21 cells and has more operands than
einsum has dedicated loops for; such a product is grown by broadcasting,
each operand multiplying in only over the variables seen so far, whose
whole-array loops beat einsum's cell-by-cell one there, and then summed.
``marginal`` and ``joint_table`` read their answer straight off the final
table over the atoms; for formulas, and for atoms ``marginal`` is given
more than once, one ``np.bincount`` sorts that table into the formulas'
cells. A ``JointTable``, what ``marginal`` and
``joint_table`` return and what ``marginals`` maps each family to, keeps such
a table as its read-only ``masses``; its ``cells`` is a read-only mapping view over them, which builds
no per-cell object until a caller reads the cell.

A factor is tabulated once over its own scope. A head's factor is its
noisy-OR, P(head | parents) = 1 - prod(1 - fire(c)) over the clauses whose
body holds; clauses of probability 0 or 1 make it deterministic. ``noisy_or``
computes it, for a factor and for the exact oracle of ``reconstruction``,
which reads it off a program's rows without building one. A table of at
most 64 cells (``_LIST_CELLS``) is built cell by cell in Python lists, one
bit-mask test per body; a larger one in place, each clause's miss
multiplying the slice its body selects of a table of ones, so the cap on
cells bounds memory too. The two multiply the same misses in the same order
and give the same floats.

``query`` is the one entry point of every query kind: the probability of a
formula under an intervention, given evidence observed in the world as it
was, a conditional on the twin network (Balke & Pearl, 1994). A plain
probability has neither, a conditional no intervention, an interventional
query no evidence. Every entry point that takes an intervention checks its
names with ``check_intervention``, ``query`` before the formula and the
evidence. One builder (``_factors``) reads the query's factors off
the program itself, so no query builds, intervenes or desugars a program;
under an intervention a node it reaches gets a second copy, its intervened
one. A ``Program`` groups each node's clauses into (body, fire) rows when
it is built, and keeps the ordinary factors, each tabulated once, beside
them: every query on the program shares them, and they go with it.

Evidence that is a conjunction of literals, as every ``--given`` and every
counterfactual observation is, restricts the factors before the elimination
is planned (reduced factors, Koller & Friedman, 2009, ch. 9): each table is
sliced on the observed values of its scope, a cached one as a read-only
view, and an observed atom of the queried formula is a constant. Such
evidence adds no table width. Other evidence is a formula read off the final
table, as the queried one is.

The elimination is planned before it builds a table, and a query whose
largest table (a factor, built whole before any restriction, or the product
one step sums over) would have more cells than the cap (``--max-worlds`` or
``CAUSALOG_MAX_WORLDS``, default 2**26) is refused rather than truncated. A
query whose few factors have a small product within the cap skips the plan:
that product is built and summed in one step. Every other query takes the
plan, so this changes neither which queries are refused nor the cells they
need. ``worlds_evaluated`` reports the total cells of the query's tables,
its factors and each step's product.
``marginals`` runs the same elimination over every variable and back again,
a two-pass calibration whose cliques give many families' marginals at once.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    CausalogError,
    EnumerationCapError,
    InterventionError,
    ProgramError,
    TableSizeError,
    ZeroEvidenceError,
)
from .formula import Atom, Formula, check_atoms, check_names, literals_of
from .frozen import Frozen
from .graph import DependencyGraph
from .model import Program

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_WORLDS = 1 << 26
MAX_WORLDS_ENV = "CAUSALOG_MAX_WORLDS"
# the most propositions a table is indexed by, for joint_table and for an
# oracle's success table alike: such a table holds 2^width cells whatever
# the cap on worlds allows
MAX_TABLE_WIDTH = 20
# the fewest rows learning trusts a parent pattern's rate from; it lives with
# the other limits here so that the command line's --min-support reads it
# without loading the learning module
DEFAULT_MIN_SUPPORT = 30


class QueryResult(Frozen):
    """An exact probability plus how it was obtained.

    ``worlds_evaluated`` counts the cells of the query's tables, its
    factors and each elimination step's product;
    ``conditioning_mass`` is the probability of the evidence (1.0 when the
    query was unconditional)."""

    _fields = ("probability", "worlds_evaluated", "conditioning_mass")

    def __init__(self, probability: float, worlds_evaluated: int,
                 conditioning_mass: float = 1.0):
        self.__dict__.update(probability=probability, worlds_evaluated=worlds_evaluated,
                             conditioning_mass=conditioning_mass)


def check_table_width(width: int) -> None:
    """Refuse a table over more than MAX_TABLE_WIDTH propositions with
    TableSizeError, before anything allocates it."""
    if width > MAX_TABLE_WIDTH:
        raise TableSizeError(
            f"table over {width} propositions exceeds the limit of {MAX_TABLE_WIDTH}")


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


# ---------------------------------------------------------------------------
# factors


# A body: (variable, polarity) pairs, or None where the clause cannot hold.
Body = tuple[tuple[str, bool], ...] | None


# A factor of at most this many cells is tabulated in Python lists, where one
# bit-mask test per clause per cell costs less than numpy's calls on each
# clause's slice. Lists against slicing, per table (2 CPUs, numpy 2.4, Python
# 3.11; medians): the factors of the three bench workloads' requests, heads
# of 4 cells 6.3 against 8.1 us, of 16 cells 14.5 against 22.9 us, pair
# factors of 32 cells 18.9 against 42.3 us, of 128 cells 47.7 against 60.6 us,
# of 256 cells 81 against 69 us; heads with a clause per parent, of 64 cells
# 36-43 against 39-50 us, of 128 cells 62-79 against 47-58 us.
_LIST_CELLS = 1 << 6


class Factor(Frozen):
    """P(heads | parents) for one head, or for the two copies of a
    counterfactual node: per clause its body once per head (aligned with
    the heads) and its miss probability 1 - fire. ``scope`` is the heads,
    then the parents in order of first use."""

    _fields = ("heads", "terms")

    def __init__(self, heads: tuple[str, ...],
                 terms: tuple[tuple[tuple[Body, ...], float], ...]):
        scope = heads + tuple(dict.fromkeys(
            name for bodies, _ in terms for body in bodies for name, _ in body or ()))
        self.__dict__.update(heads=heads, terms=terms, scope=scope)

    @cached_property
    def table(self) -> np.ndarray:
        """The factor tabulated once, one axis per variable of its scope: a
        head's ``noisy_or``, or the pair factor, built like it in lists or by
        slicing, whose clauses' misses multiply P(0, 1) and P(1, 0) where the
        evidence and the intervention copy's body holds and P(0, 0) where
        either holds; then P(1, 1) is 1 - P(h_e = 0) - P(h_i = 0) + P(0, 0),
        and P(0, 1) and P(1, 0) lose P(0, 0)."""
        import numpy as np

        shape = (2,) * len(self.scope)
        if len(self.heads) == 1:
            table = np.asarray(noisy_or(self.terms, self.scope[1:])).reshape(shape)
        elif 1 << len(self.scope) <= _LIST_CELLS:
            table = np.array(self._pair_cells()).reshape(shape)
        else:
            axis = {name: k for k, name in enumerate(self.scope)}
            table = np.ones(shape)
            both = table[0, 0, ...]
            for bodies, keep in self.terms:
                either = np.zeros(both.shape, dtype=bool)
                for body, heads in zip(bodies, ((0, 1), (1, 0))):
                    if body is not None:
                        index = [*heads] + [slice(None)] * (len(self.scope) - 2)
                        for name, positive in body:
                            index[axis[name]] = int(positive)
                        table[tuple(index)] *= keep
                        either[tuple(index[2:])] = True
                np.multiply(both, keep, out=both, where=either)
            hit = np.subtract(1.0, table[0, 1, ...], out=table[1, 1, ...])
            hit -= table[1, 0, ...]
            hit += both
            table[0, 1, ...] -= both
            table[1, 0, ...] -= both
        table.flags.writeable = False  # shared by every query on the program
        return table

    def _pair_cells(self) -> list[float]:
        """The pair factor's cells in C order, a parent pattern being the
        bits of a cell's index below the heads'."""
        width = len(self.scope) - 2
        bit = {name: 1 << (width - 1 - k) for k, name in enumerate(self.scope[2:])}
        terms = [(*_mask(e_body, bit), *_mask(d_body, bit), keep)
                 for (e_body, d_body), keep in self.terms]
        rows = []  # per pattern, the misses where either body holds, and each copy's
        for i in range(1 << width):
            b = e = d = 1.0
            for e_mask, e_want, d_mask, d_want, keep in terms:
                in_e, in_d = i & e_mask == e_want, i & d_mask == d_want
                e *= keep if in_e else 1.0
                d *= keep if in_d else 1.0
                b *= keep if in_e or in_d else 1.0
            rows.append((b, e, d))
        return ([b for b, _, _ in rows] + [e - b for b, e, _ in rows]
                + [d - b for b, _, d in rows] + [1.0 - e - d + b for b, e, d in rows])


def noisy_or(terms: Iterable[tuple[tuple[Body], float]], parents: Sequence[str]
             ) -> list[float] | np.ndarray:
    """A head's noisy-OR P(head | parents), over the head and then
    ``parents``, from its factor's ((body,), miss) ``terms`` (a body None
    cannot hold): each miss multiplies, in term order, the patterns where
    its body holds, giving P(0 | pattern), and P(1 | pattern) is 1 minus
    that; a pattern's index in either half has a bit per parent, the first
    the most significant. A list in C order, or above _LIST_CELLS cells an
    array built by slicing; a body that fails multiplies by 1.0, which
    changes no float, so both agree."""
    width = len(parents)
    if 2 << width <= _LIST_CELLS:
        bit = {name: 1 << (width - 1 - k) for k, name in enumerate(parents)}
        tests = [(*_mask(body, bit), miss) for (body,), miss in terms]
        misses = []
        for i in range(1 << width):
            product = 1.0
            for mask, want, miss in tests:
                product *= miss if i & mask == want else 1.0
            misses.append(product)
        return misses + [1.0 - product for product in misses]
    import numpy as np

    axis = {name: k for k, name in enumerate(parents, start=1)}
    table = np.ones((2,) * (width + 1))
    for (body,), miss in terms:
        if body is not None:
            index = [0] + [slice(None)] * width
            for name, positive in body:
                index[axis[name]] = int(positive)
            table[tuple(index)] *= miss
    np.subtract(1.0, table[0, ...], out=table[1, ...])
    return table


def _mask(body: Body, bit: Mapping[str, int]) -> tuple[int, int]:
    """A body's (mask, want): it holds at the pattern i when i & mask == want;
    one that cannot hold wants a bit its mask clears."""
    mask, want = 0, int(body is None)
    for name, positive in body or ():
        mask |= bit[name]
        want |= bit[name] if positive else 0
    return mask, want


# marks a node's intervention copy; no proposition's name can hold it
_DO_MARK = "@do"


def _rows(program: Program) -> dict[str, list[tuple[Body, float]]]:
    """Each node's clauses as (body, fire) rows, built with the program."""
    if not isinstance(program, Program):
        raise ProgramError(
            f"expected a Program, got {type(program).__name__}; query the "
            "program it was desugared from")
    return program._rows


def head_terms(program: Program, node: str) -> list[tuple[tuple[Body], float]]:
    """The ((body,), miss) terms of the node's clauses that can fire, in body
    order: what its factor multiplies, read off the program's rows."""
    return [((body,), 1.0 - fire) for body, fire in _rows(program).get(node, ()) if fire > 0.0]


def node_factor(program: Program, node: str) -> Factor:
    """P(node | its parents in the program), the factor every query on the
    program shares, built once and kept on the program, so that it dies
    with it; its table is tabulated on first use."""
    _rows(program)  # a Program, or a ProgramError naming what was given
    cache = program._factors
    found = cache.get(node)
    if found is None:
        found = cache[node] = Factor((node,), tuple(head_terms(program, node)))
    return found


def _factors(program: Program, queried: Iterable[str],
             observed: Collection[str] = (), forced: Mapping[str, bool] | None = None
             ) -> tuple[list[Factor], Callable[[str], str]]:
    """The factors of the ancestral closure of ``queried`` under the
    intervention ``forced`` and of ``observed`` as it was, parent first, and
    the function that names a node's copy in the intervened world.

    The world as it was is the program itself, so a node's evidence copy is
    the node, under its ordinary factor. A node the intervention reaches has
    an intervention copy too, its name marked with ``_DO_MARK``: a forced one
    is a constant in its children's bodies, and a variable only when
    queried; other copies share a pair factor with the evidence copy, or
    have their own when it is not needed. With no evidence only the
    intervened world is read, where no edge enters a forced node, so the walk
    cuts those edges and the cycles through them."""
    clauses = _rows(program)
    forced = forced or {}
    graph = program.dependency_graph()
    if forced and not observed:
        graph = DependencyGraph.build(graph.nodes, {e for e in graph.edges if e[1] not in forced})
    order = graph.topological_order()
    touched = set(forced)  # the nodes whose two copies can differ
    for node in order if forced else ():
        if any(name in touched for body, _ in clauses.get(node, ()) for name, _ in body):
            touched.add(node)

    def intervened(name: str) -> str:
        return name + _DO_MARK if name in touched else name

    def body(lits: tuple[tuple[str, bool], ...], do: bool) -> Body:
        out = []
        for name, positive in lits:
            if not do or name not in forced:
                out.append((intervened(name) if do else name, positive))
            elif forced[name] != positive:
                return None
        return tuple(out)

    def factor(node: str, worlds: Sequence[bool], terms: Iterable) -> Factor:
        return Factor(tuple(node + _DO_MARK if do else node for do in worlds),
                      tuple((tuple(body(b, do) for do in worlds), miss) for (b,), miss in terms))

    needed = {intervened(name) for name in queried} | set(observed)
    factors = []
    for node in reversed(order):
        worlds = [do for do, name in ((False, node), (True, node + _DO_MARK)) if name in needed]
        if node in forced and True in worlds:
            worlds.pop()
            factors.append(factor(node, [True], [(((),), 0.0)] if forced[node] else []))
        if worlds == [False]:
            factors.append(node_factor(program, node))
        elif worlds:
            factors.append(factor(node, worlds, head_terms(program, node)))
        if worlds:
            needed.update(factors[-1].scope)
    return factors[::-1], intervened


# ---------------------------------------------------------------------------
# the elimination kernel


def _elimination(scopes: Sequence[tuple[str, ...]],
                 query: tuple[str, ...]) -> list[tuple[list[int], tuple[str, ...]]]:
    """Plan the min-degree elimination of every variable outside ``query``.

    Each step multiplies the factors it names and keeps a scope; the result
    of step s is factor ``len(scopes) + s``. An eliminated variable's
    neighbours become a clique, so the degrees stay current without a
    rescan; ties go to the variable seen first. The last step multiplies
    what is left onto ``query``."""
    kept = set(query)
    alive = set(range(len(scopes)))
    holders: dict[str, set[int]] = {}
    adjacent: dict[str, set[str]] = {}
    for j, scope in enumerate(scopes):
        for v in scope:
            holders.setdefault(v, set()).add(j)
            adjacent.setdefault(v, set()).update(scope)
    rank = {v: r for r, v in enumerate(adjacent)}
    for v, near in adjacent.items():
        near.discard(v)
    heap = [(len(near), rank[v], v) for v, near in adjacent.items() if v not in kept]
    heapq.heapify(heap)
    steps: list[tuple[list[int], tuple[str, ...]]] = []
    while heap:
        degree, _, v = heapq.heappop(heap)
        if v not in adjacent or degree != len(adjacent[v]):
            continue  # eliminated already, or a stale degree
        ids = holders.pop(v)
        near = adjacent.pop(v)
        new = len(scopes) + len(steps)
        steps.append((sorted(ids), tuple(sorted(near, key=rank.__getitem__))))
        alive -= ids
        alive.add(new)
        for u in near:
            holders[u] -= ids
            holders[u].add(new)
            adjacent[u] |= near
            adjacent[u] -= {u, v}
            if u not in kept:
                heapq.heappush(heap, (len(adjacent[u]), rank[u], u))
    steps.append((sorted(alive), query))
    return steps


# np.einsum refuses 64 operands or more (32 before numpy 2)
_MAX_OPERANDS = 31

# np.einsum has dedicated inner loops for up to three operands and one
# generic loop, cell by cell, for more. A product of more operands over 10 to
# 21 variables is built by broadcasting, whose whole-array multiplies beat
# that loop there and lose to it on smaller products (2 CPUs, numpy 2.4, one
# chain-like operand per variable, einsum against the grown product, min of
# 7 alternating rounds: 2^8 cells 26 against 47 us, 2^9 44 against 54 us,
# 2^10 82 against 66 us, 2^13 0.83 against 0.23 ms; earlier, against a
# product of ones, 2^21 751 against 61 ms). With three operands or fewer
# einsum was as fast or faster at every size tried, up to 2^21 cells (a wide
# head's factor and a prior: 2.1 against 7.1 ms). The grown product peaks at
# 1.5 times its final size, the last one beside the one before, which holds
# a variable less; einsum holds only its output, half a one-variable step's
# product. Above 2^21 cells (16 MB) einsum is kept, though ten times slower
# there (2^22 cells: 1.3 s against 0.16 s), so near the 2^26 cap a step
# needs no more memory than einsum needs.
_EINSUM_LOOPS = 3
_BROADCAST_VARIABLES = range(10, 22)

# A query whose factors, times the cells of their whole product, come to at
# most this many is contracted in one step, with no plan, because planning
# costs more than the product there. Whole queries, their factors cached (2
# CPUs, numpy 2.4), one step against the plan, medians: layered queries of
# 11 variables and 11 factors (2^14.5) 150 against 230 us, of 12 and 12
# (2^15.6) 207 against 229 us, of 13 and 13 (2^16.7) 324 against 267 us, of
# 15 and 15 (2^18.9) 0.95 against 0.49 ms; counterfactuals of 8 variables
# and 6 factors (2^10.6), below the broadcasting range, 457 against 626 us.
_ONE_STEP_CELLS = 1 << 16


def _union(scopes: Iterable[tuple[str, ...]]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(itertools.chain.from_iterable(scopes)))


def _contract(operands: list[tuple[np.ndarray, tuple[str, ...]]],
              keep: tuple[str, ...]) -> np.ndarray:
    """Multiply the (table, scope) operands and sum out every variable not
    in ``keep``; the result's axes follow ``keep``.

    A product of more than _EINSUM_LOOPS operands over a number of variables
    in _BROADCAST_VARIABLES is grown by multiplying the operands in order by
    broadcasting, the summed variables on its leading axes, each operand
    over only the variables seen so far, and then summed out: that adds
    whole blocks, where summing trailing axes of length 2 would cost more
    than ``np.einsum``. Each cell takes the same factors in the same order
    as in a product of ones over every axis, and the same sum. Any other
    product is one ``np.einsum``; operands beyond what it takes are first
    multiplied in groups, each onto its own scope, which the whole
    product's scope holds."""
    import numpy as np

    axes = _union([keep, *(s for _, s in operands)])
    if len(operands) > _EINSUM_LOOPS and len(axes) in _BROADCAST_VARIABLES:
        summed = axes[len(keep):]
        axis = {v: k for k, v in enumerate(summed + keep)}
        product = np.ones((1,) * len(axes))
        held: set[str] = set()
        for table, scope in operands:
            ordered = sorted(range(len(scope)), key=lambda k: axis[scope[k]])
            shape = [1] * len(axes)
            for v in scope:
                shape[axis[v]] = 2
            # in place unless the operand adds a variable; C order lays the
            # product out as a product of ones over every axis would be, so
            # the sum below adds its cells in the same order
            out = product if held.issuperset(scope) else None
            held.update(scope)
            product = np.multiply(product, table.transpose(ordered).reshape(shape),
                                  out=out, order="C")
        # a kept variable that no operand holds still has length 1
        product = np.broadcast_to(product, (2,) * len(axes))
        return product.sum(axis=tuple(range(len(summed)))) if summed else product
    if not operands:
        return np.ones(())
    while len(operands) > _MAX_OPERANDS:
        group, operands = operands[:_MAX_OPERANDS], operands[_MAX_OPERANDS:]
        scope = _union(s for _, s in group)
        operands.append((_contract(group, scope), scope))
        axes = _union([keep, *(s for _, s in operands)])
    axis = {v: k for k, v in enumerate(axes)}
    args: list = []
    for table, scope in operands:
        args += [table, [axis[v] for v in scope]]
    return np.einsum(*args, [axis[v] for v in keep])


def _eliminate(factors: Sequence[Factor], query: tuple[str, ...], max_worlds: int | None,
               keep_all: bool = False, observed: Mapping[str, bool] | None = None
               ) -> tuple[list, list, list, int]:
    """Restrict ``factors`` to the ``observed`` values, plan their
    elimination onto ``query``, refuse a plan whose largest table (a factor
    in full, or a step's product over the scope it keeps and the variable it
    sums out) exceeds the cap, and run it: the tables of the factors then of
    each step's message (a message is dropped once used unless
    ``keep_all``), their scopes, the steps and the cells of every factor and
    product. A small product of every factor within the cap is one step, the
    whole product summed onto ``query``, unless ``keep_all``."""
    cap = resolved_max_worlds(max_worlds)
    observed = observed or {}
    # a factor's table is built whole before it is restricted
    cells = [1 << len(f.scope) for f in factors]
    scopes = [f.scope for f in factors]
    if observed:
        scopes = [tuple(v for v in s if v not in observed) for s in scopes]
    variables = len(set(query).union(*scopes))
    if (not keep_all and len(factors) << variables <= _ONE_STEP_CELLS
            and max(cells, default=1) <= cap and 1 << variables <= cap):
        steps = [(list(range(len(factors))), query)]
        cells.append(1 << variables)
    else:
        steps = _elimination(scopes, query)
        cells += [2 << len(out) for _, out in steps[:-1]]
        cells.append(1 << len(query))
        if max(cells) > cap:
            raise EnumerationCapError(max(cells), cap)
    scopes += [out for _, out in steps]
    tables = [_restricted(f, observed) if observed else f.table for f in factors]
    for ids, out in steps:
        tables.append(_contract([(tables[j], scopes[j]) for j in ids], out))
        for j in ids if not keep_all else ():
            tables[j] = None
    return tables, scopes, steps, sum(cells)


def _restricted(factor: Factor, observed: Mapping[str, bool]) -> np.ndarray:
    """The factor's table sliced on the observed values of its scope: a
    read-only view over the variables left."""
    index = tuple(int(observed[v]) if v in observed else slice(None) for v in factor.scope)
    return factor.table[index + (...,)]


def _masses(factors: Sequence[Factor], formulas: Sequence[Formula],
            max_worlds: int | None, observed: Mapping[str, bool] | None = None
            ) -> tuple[np.ndarray, int]:
    """The mass of every cell of the formulas' joint truth values, jointly
    with the ``observed`` values, and the cells of the tables built: the
    factors restricted to the observed values and eliminated onto the
    formulas' other atoms, whose final table one ``np.bincount`` sorts into
    cells; an observed atom is a constant. The first formula is the most
    significant bit of a cell's code."""
    import numpy as np

    observed = observed or {}
    atoms = frozenset().union(*(f.atoms() for f in formulas))
    query = tuple(sorted(atoms.difference(observed)))
    tables, _, _, cells = _eliminate(factors, query, max_worlds, observed=observed)
    # every assignment of the query by broadcasting: its j-th atom as the
    # two truth values along axis j
    k = len(query)
    grid = {name: np.array([False, True]).reshape((1,) * j + (2,) + (1,) * (k - 1 - j))
            for j, name in enumerate(query)}
    grid.update((name, observed[name]) for name in atoms.intersection(observed))
    codes = np.zeros((2,) * k, dtype=np.int64)
    for f in formulas:
        codes = (codes << 1) | f.evaluate(grid)
    masses = np.bincount(codes.ravel(), weights=tables[-1].ravel(),
                         minlength=1 << len(formulas))
    return masses, cells


# ---------------------------------------------------------------------------
# public queries


def query(program: Program, phi: Formula, evidence: Formula | None = None,
          forced: Mapping[str, bool] | None = None,
          max_worlds: int | None = None) -> QueryResult:
    """Exact probability that ``phi`` holds in the world under the
    intervention ``forced``, given that ``evidence`` held in the world as it
    was. Without an intervention both worlds are one, without evidence the
    answer is a plain probability.

    Numerator and denominator come from one shared elimination. Evidence
    that is a conjunction of literals restricts the factors to its values,
    so it adds no table width; other evidence is a formula of the final
    table, as ``phi`` is. Evidence of probability zero raises
    ZeroEvidenceError; an intervention on a name that is not one of the
    program's propositions raises InterventionError, checked first."""
    forced = check_intervention(program, forced or {})
    check_atoms(phi, program)
    if evidence is not None:
        check_atoms(evidence, program)
    factors, intervened = _factors(
        program, phi.atoms(), evidence.atoms() if evidence is not None else (), forced)
    if forced:
        phi = phi.map_atoms(intervened)
    if evidence is None:
        masses, cells = _masses(factors, [phi], max_worlds)
        return QueryResult(_clamp_unit(masses[1]), cells)
    observed = literals_of(evidence)
    if observed is None:
        masses, cells = _masses(factors, [phi, evidence], max_worlds)
        # phi is the high bit of a cell's code, the evidence the low bit
        hit, mass = masses[3], masses[1] + masses[3]
    else:
        masses, cells = _masses(factors, [phi], max_worlds, observed)
        hit, mass = masses[1], masses[0] + masses[1]
    if mass <= 0.0:
        raise zero_evidence(evidence)
    return QueryResult(_clamp_unit(hit / mass), cells, _clamp_unit(mass))


def check_intervention(program: Program, forced: Mapping[str, bool]) -> dict[str, bool]:
    """The intervention ``forced`` with bool values, the one check of every
    entry point that takes one: a name that is not one of the program's
    propositions, a noise name included, raises InterventionError."""
    known = program.dependency_graph().nodes
    for name in forced:
        if name not in known:
            raise InterventionError(f"intervention names unknown proposition {name!r}")
    return {name: bool(value) for name, value in forced.items()}


def probability(program: Program, phi: Formula,
                max_worlds: int | None = None) -> QueryResult:
    """Exact probability that a random structure satisfies ``phi``."""
    return query(program, phi, max_worlds=max_worlds)


def conditional(program: Program, phi: Formula, evidence: Formula,
                max_worlds: int | None = None) -> QueryResult:
    """Exact conditional probability of ``phi`` given an evidence formula."""
    return query(program, phi, evidence, max_worlds=max_worlds)


def zero_evidence(evidence: Formula) -> ZeroEvidenceError:
    """The error of conditioning on ``evidence`` of probability zero. It
    quotes evidence over at most 12 atoms, or of at most 160 characters, in
    full; longer evidence is quoted up to a blank within its first 160
    characters and followed by its number of atoms, so the error stays one
    short line."""
    text, atoms = f"'{evidence.to_text()}'", len(evidence.atoms())
    if atoms > 12 and len(text) > 160:
        text = f"{text[:160].rpartition(' ')[0]} ...' of {atoms} atoms"
    return ZeroEvidenceError(f"evidence {text} has probability zero")


class JointTable(Frozen):
    """The mass of every cell of the joint marginal over ``columns``: what
    ``marginal`` and ``joint_table`` return, and what ``marginals`` maps each
    family to.

    ``masses[code]`` is the probability that the columns take the values
    spelled by the bits of ``code``, the first column being the most
    significant bit; ``masses`` is read-only. ``cells`` is a read-only
    mapping view over it, keyed by tuples of booleans aligned with
    ``columns`` in the order ``itertools.product`` lists them; no key or
    float is built until a caller reads it. ``worlds_evaluated`` counts the
    cells of the tables it was computed from, as for ``QueryResult``. Tables
    compare by identity: to compare two, compare ``.masses``."""

    _fields = ("columns", "masses", "worlds_evaluated")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, columns: tuple[str, ...], masses: np.ndarray, worlds_evaluated: int):
        self.__dict__.update(columns=columns, masses=masses, worlds_evaluated=worlds_evaluated)

    @property
    def cells(self) -> Mapping[tuple[bool, ...], float]:
        return _Cells(self.masses)

    def probability_of(self, assignment: Mapping[str, bool]) -> float:
        return self.cells[tuple(bool(assignment[c]) for c in self.columns)]

    def total(self) -> float:
        return math.fsum(self.masses.tolist())


class _Cells(Mapping, Frozen):
    """A joint table's masses keyed by tuples of booleans, the first entry
    the most significant bit of the cell's index."""

    _fields = ("masses",)

    def __init__(self, masses: np.ndarray):
        self.__dict__["masses"] = masses

    def __getitem__(self, key: tuple[bool, ...]) -> float:
        # found where a dict of the same keys finds it: a tuple of the
        # table's width whose entries equal False or True, 0, 1 and numpy
        # bools among them
        if not (isinstance(key, tuple) and 1 << len(key) == self.masses.size
                and all(bit in (False, True) for bit in key)):
            raise KeyError(key)
        return float(self.masses[sum(bool(bit) << k for k, bit in enumerate(key[::-1]))])

    def __iter__(self) -> Iterator[tuple[bool, ...]]:
        return itertools.product((False, True), repeat=self.masses.size.bit_length() - 1)

    def __len__(self) -> int:
        return self.masses.size

    def values(self) -> list[float]:
        return self.masses.tolist()


def joint_table(program: Program) -> JointTable:
    """Exact joint table over all internal propositions, at most
    MAX_TABLE_WIDTH of them."""
    columns = tuple(sorted(program.dependency_graph().nodes))
    check_table_width(len(columns))
    return marginal(program, columns)


def _clamp_unit(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return float(x)


def marginal(program: Program, atoms: Sequence[str],
             max_worlds: int | None = None) -> JointTable:
    """Exact marginal over ``atoms``: one elimination of their ancestral
    closure onto them, whose final table is the answer. Repeated atoms are
    read as formulas, one ``Atom`` per column, whose cells get mass only
    where the columns agree. The masses are read-only."""
    columns = tuple(atoms)
    check_names(columns, program)
    factors = _factors(program, columns)[0]
    if len(set(columns)) < len(columns):
        masses, cells = _masses(factors, [Atom(name) for name in columns], max_worlds)
    else:
        tables, _, _, cells = _eliminate(factors, columns, max_worlds)
        masses = tables[-1].ravel()
    masses.flags.writeable = False
    return JointTable(columns, masses, cells)


class Calibration(Frozen):
    """The exact marginals of several families from one calibration.

    ``marginals`` maps each requested family that a clique holds to its
    ``JointTable``, whose ``worlds_evaluated`` counts the cells of the product
    it was summed from; ``worlds_evaluated`` here counts the cells of every
    table the calibration built."""

    _fields = ("marginals", "worlds_evaluated")

    def __init__(self, marginals: Mapping[tuple[str, ...], JointTable],
                 worlds_evaluated: int):
        self.__dict__.update(marginals=marginals, worlds_evaluated=worlds_evaluated)


def marginals(program: Program,
              families: Iterable[Sequence[str]],
              max_worlds: int | None = None) -> Calibration:
    """Exact marginals over several families of atoms, such as every node
    with its parents, from one Shafer-Shenoy calibration (Shafer & Shenoy,
    1990) of the program's factors.

    The upward pass is the elimination of every variable: step s multiplies
    its factors and its child steps' messages over its clique, the variable
    it eliminates plus the scope it keeps, and sums that variable out. The
    downward pass sends each step, last to first, the message of the step
    that consumed it: that step's factors, its other children's messages and
    its own downward message, summed onto the child's kept scope. A clique's
    factors and all its messages multiply to its joint marginal, and a
    family inside it is summed out of that, with no division, so a pattern
    of mass zero has exactly zero mass here too.

    Some clique holds a family exactly when the clique of the step that
    eliminates the family's first eliminated variable does; a family no
    clique holds is left out of the result, for ``marginal`` to answer. The
    plan is checked before any table is built: a calibration whose largest
    table, a factor or a clique, would exceed the cap raises
    EnumerationCapError."""
    import numpy as np

    families = [tuple(f) for f in families]
    names = sorted(set().union(*families))
    check_names(names, program)
    factors, _ = _factors(program, names)
    first = len(factors)  # the table index of step 0's message
    tables, scopes, steps, worlds = _eliminate(factors, (), max_worlds, keep_all=True)
    cliques = [frozenset(_union([out, *(scopes[j] for j in ids)])) for ids, out in steps]

    def contract(operands, keep):
        nonlocal worlds
        worlds += 1 << len(_union([keep, *(s for _, s in operands)]))
        return _contract(operands, keep)

    down = [np.ones(())] * len(steps)
    for p in reversed(range(len(steps))):
        ids, keep = steps[p]
        rest = [(tables[j], scopes[j]) for j in ids if j < first] + [(down[p], keep)]
        kids = [j for j in ids if j >= first]
        messages = [(tables[j], scopes[j]) for j in kids]
        # the messages of the children before and after each child, so that
        # a step with many children costs linear work
        before = _products(messages, contract)
        after = _products(messages[::-1], contract)[::-1]
        for j, pre, post in zip(kids, before, after):
            # a ones table puts in the kept variables only the child's own
            # message carries
            ones = (np.ones((2,) * len(scopes[j])), scopes[j])
            down[j - first] = contract(rest + pre + post + [ones], scopes[j])
    eliminated = {v: s for s, (clique, (_, keep)) in enumerate(zip(cliques, steps))
                  for v in clique.difference(keep)}
    found = {}
    for family in families:
        s = min(eliminated[v] for v in family)
        if cliques[s].issuperset(family):
            ids, keep = steps[s]
            table = contract([(tables[j], scopes[j]) for j in ids] + [(down[s], keep)],
                             family)
            masses = table.ravel()
            masses.flags.writeable = False
            found[family] = JointTable(family, masses, 1 << len(cliques[s]))
    return Calibration(found, worlds)


def _products(operands: list[tuple[np.ndarray, tuple[str, ...]]],
              contract) -> list[list[tuple[np.ndarray, tuple[str, ...]]]]:
    """For each i, the product of ``operands[:i]`` as a list of at most one
    operand over the union of their scopes."""
    out: list[list] = [[]]
    for operand in operands[:-1]:
        last = out[-1] + [operand]
        if len(last) > 1:
            scope = _union(s for _, s in last)
            last = [(contract(last, scope), scope)]
        out.append(last)
    return out

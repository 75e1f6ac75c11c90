"""Recovering a program from its dependency graph and a distribution oracle.

For an acyclic positive program, the chance that a proposition ``h`` holds
once every parent is pinned to a fixed on/off pattern has noisy-OR shape: one
minus the product of (1 - probability) over exactly the clauses whose body
the pattern satisfies. Pinning all parents makes observation and intervention
coincide, so an ordinary conditional oracle suffices. Reading the table of
all 2^|parents| patterns bottom-up therefore identifies the clauses:

* walk parent subsets by increasing size;
* predict the table value at subset T from the clauses already accepted
  (those with body strictly inside T);
* a surplus of the observed value over the prediction, beyond tolerance,
  means T itself is a clause body, and the surplus fixes its probability via
  ``value = 1 - (1 - predicted) * (1 - p)``.

The surplus test, rather than a bare comparison against the subsets below,
is what makes non-clauses at combined patterns come out clean: two singleton
clauses already predict the combined pattern exactly.

Everything here works per node and never looks at another node's answers, so
partial failures (starved patterns, non-monotone noise, unresolvable
saturation) are collected per node and reconstruction still returns what it
could recover. An oracle answers a node's whole success table in one call.
The exact oracle reads the table of a node asked with its own parents off
the hidden program's (body, fire) rows (the engine's ``noisy_or``, with no
factor built) when no pattern of those parents can have zero mass, and
otherwise from one calibration of the families ``reconstruct`` asks (one
elimination answers any other parent set); the frequency oracle counts the
families ``reconstruct`` asks in groups, one bincount over the rows' codes
of each group's columns. Both hand over their tables as lists by pattern
code, and a table is kept that way from the oracle through detection: the
code of a pattern has a bit per parent, the first parent in name order the
most significant, set where the parent is pinned true, so a body lies
inside a subset when its bits are among the subset's. Detection keeps one
plain step per pattern and builds no subset: only an accepted body's names
are read off its code's bits (``_pattern_bits``), and the residual audit of
``--json`` (``NodeReport.to_json_dict``) walks the table again when asked
and names its patterns from the same bits. The success-table pattern lives
here for both oracles: its codes (``pattern_code``), their table order
(``table_codes``), its bits, the one subset an error or a starved listing
names (``subset_of``) and its text in messages (``subset_text``).
"""

from __future__ import annotations

import math
import time
from functools import cache
from itertools import compress, product
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Protocol, Sequence

from .engine import (
    JointTable,
    check_table_width,
    head_terms,
    marginal,
    marginals,
    noisy_or,
    resolved_max_worlds,
    zero_evidence,
)
from .errors import (
    CausalogError,
    EnumerationCapError,
    ImproperParameterError,
    NonMonotoneTableError,
    OracleError,
    ReconstructionError,
    SaturationError,
    StarvedPatternError,
)
from .formula import conjunction_of
from .frozen import Frozen
from .graph import DependencyGraph
from .model import Program, _check_proposition, body_keys

if TYPE_CHECKING:
    import numpy as np

# the trust radius of every exact answer, and the most parents a node's
# success table is read over: 2^MAX_PARENTS patterns
EXACT_TOLERANCE = 1e-9
MAX_PARENTS = 12

# (target, its parents in name order): one success table
Family = tuple[str, tuple[str, ...]]


def pattern_code(parents: Sequence[str], pattern: Mapping[str, bool]) -> int:
    """The code of one pattern of ``parents``: a bit per parent, the first
    parent the most significant, set where the parent is pinned true."""
    code = 0
    for name in parents:
        code = (code << 1) | bool(pattern[name])
    return code


@cache
def _pattern_bits(width: int) -> tuple[tuple[bool, ...], ...]:
    """The bits of each pattern of ``width`` parents, the first parent's
    first, by ``pattern_code``; kept per width, for at most MAX_PARENTS.
    ``compress(parents, bits)`` names the parents a pattern pins true, in
    name order: the bodies ``reconstruct`` accepts and the patterns of the
    ``--json`` audit are read this way."""
    return tuple(product((False, True), repeat=width))


def subset_of(parents: tuple[str, ...], code: int) -> frozenset[str]:
    """The subset of ``parents`` the pattern of ``code`` pins true, for the
    one pattern an error or a starved listing names."""
    last = len(parents) - 1
    return frozenset([name for k, name in enumerate(parents) if code >> (last - k) & 1])


@cache
def table_codes(width: int) -> tuple[int, ...]:
    """The pattern codes of ``width`` parents in table order, kept per width:
    by the number of parents pinned true, then by descending code, which for
    parents in name order lists the subsets of each size in name order."""
    return tuple(sorted(range(1 << width), key=lambda code: (code.bit_count(), -code)))


def subset_text(subset: Iterable[str]) -> str:
    """A pattern in messages, as the parents it pins true: ``{a, b}``."""
    return f"{{{', '.join(sorted(subset))}}}"


def pattern_error(target: str, subset: frozenset[str], err: CausalogError) -> OracleError:
    """The error of an oracle that failed for ``target`` at the pattern
    pinning ``subset`` true, for ``err``; raise it from ``err``."""
    return OracleError(f"oracle failed for {target} at pattern {subset_text(subset)}: {err}",
                       target=target, subset=subset)


class OracleAnswer(NamedTuple):
    """One oracle reply: the success probability of the target under a parent
    pattern, the tolerance the answer should be trusted to, and the number of
    samples behind it (None for exact oracles)."""

    probability: float
    tolerance: float
    support: int | None = None


class Oracle(Protocol):
    """Answers how often a target holds when its parents, in name order, are
    pinned to each on/off pattern, as one SuccessTable. A failure at one
    pattern raises ``pattern_error``, starved patterns raise one
    StarvedPatternError that lists them all, and any other error is taken to
    come before the first pattern. ``expect`` is told every family that
    ``reconstruct`` will ask, before the first, for an oracle that answers
    families more cheaply together, as both shipped oracles do: the exact
    oracle calibrates them once and the frequency oracle counts them in
    groups. ``nodes`` is the set of propositions it covers."""

    @property
    def nodes(self) -> frozenset[str]: ...

    def expect(self, families: Sequence[Family]) -> None: ...

    def success_table(self, target: str, parents: tuple[str, ...]) -> SuccessTable: ...


class ExactOracle:
    """Exact answers computed from a known program.

    A family is a node with its parents in the program. When every factor of
    the ancestral closure of those parents is strictly positive, no cell 0,
    every parent pattern has positive mass, so P(node | pattern) is the
    node's own factor at the pattern (the factorization): ``engine.noisy_or``
    reads the table off the node's (body, fire) rows, with no inference and
    without building the factor, and a closure node's factor is positive
    where its misses lie in (0, 1). Any other parent set takes the general
    path, where the answer at a pattern is P(target, pattern) / P(pattern),
    as a conditional would give, and a pattern of probability zero raises
    ZeroEvidenceError. At the first family that needs it, one calibration
    (``engine.marginals``) gives the marginal of every expected family whose
    closure holds a zero cell: those ``expect`` was told, or the program's
    own, and it covers only their ancestral closure. A parent set that is
    not a family takes one elimination onto the target and those parents
    (``engine.marginal``).

    The cap, ``max_worlds`` or else CAUSALOG_MAX_WORLDS, is resolved once,
    when the oracle is built, so a bad setting raises there. It applies to
    every table, the factors the factor read computes included, counted from
    the rows first. A calibration whose largest table exceeds it builds
    nothing, and every node then takes its own elimination, so a node whose
    closure, factor or largest table exceeds the cap fails alone. A pattern
    over more than ``engine.MAX_TABLE_WIDTH`` propositions raises
    TableSizeError. Every answer is trusted to EXACT_TOLERANCE.

    Useful for round-trip testing and for re-expressing a program in positive
    normal form: reconstruction against this oracle returns a noisy-OR
    program with the same distribution whenever one exists."""

    def __init__(self, program: Program, max_worlds: int | None = None):
        self._program = program
        self._max_worlds = resolved_max_worlds(max_worlds)
        self._expected: Sequence[Family] | None = None
        self._families: Mapping[tuple[str, ...], JointTable] | None = None
        # each node seen: whether every factor of its closure is strictly
        # positive, and what _factor_cells gives
        self._positive: dict[str, bool] = {}
        self._tables: dict[str, tuple[tuple[str, ...], list[float] | np.ndarray, bool]] = {}

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._program.propositions)

    def expect(self, families: Sequence[Family]) -> None:
        self._expected = list(families)
        self._families = None

    def success_table(self, target: str, parents: tuple[str, ...]) -> SuccessTable:
        values, read = self._read(target, parents)
        total = sum(values)
        if total != total:  # NaN: a pattern has probability zero
            code = next(code for code in table_codes(len(parents))
                        if values[code] != values[code])
            subset = subset_of(parents, code)
            err = zero_evidence(conjunction_of({p: p in subset for p in parents}))
            raise pattern_error(target, subset, err) from err
        return SuccessTable(target, parents, values, [EXACT_TOLERANCE] * len(values), None, read)

    def success_given_parents(self, target: str,
                              pattern: Mapping[str, bool]) -> OracleAnswer:
        """One pattern of the table ``success_table`` reads."""
        parents = tuple(sorted(pattern))
        value = self._read(target, parents)[0][pattern_code(parents, pattern)]
        if value != value:  # NaN
            raise zero_evidence(conjunction_of(pattern))
        return OracleAnswer(value, EXACT_TOLERANCE, None)

    def _read(self, target: str, parents: tuple[str, ...]) -> tuple[list[float], str]:
        """P(target | pattern) for every pattern of ``parents`` by
        ``pattern_code``, NaN where the pattern has probability zero, and
        how it was read: ``factor``, ``calibration`` or ``elimination``."""
        check_table_width(len(parents))
        family = (target, *parents)
        read = self._route(target, parents)
        if read == "factor":
            scope, cells, _ = self._factor_cells(target)
            if scope != parents:  # a parent only clauses of probability 0 read
                cells = noisy_or(head_terms(self._program, target), parents)
            return (cells[len(cells) // 2:] if isinstance(cells, list)
                    else cells[1].reshape(-1).tolist()), read
        table = None
        if read == "calibration":
            if self._families is None:
                self._families = self._calibrate()
            table = self._families.get(family)
        if table is None:
            table, read = marginal(self._program, family, self._max_worlds), "elimination"
        # masses are never negative, so hit / (miss + hit) lies in [0, 1];
        # a table is a few patterns, where a list beats numpy's per-call cost
        miss, hit = table.masses.reshape(2, -1).tolist()
        return [h / (m + h) if m + h > 0.0 else math.nan for m, h in zip(miss, hit)], read

    def _route(self, target: str, parents: tuple[str, ...]) -> str:
        """How the table of ``target`` under ``parents`` is read: off the
        target's factor, or from the calibration, when they are its parents
        in the acyclic program, else by its own elimination. It reads the
        closure's positivity, which is kept per node."""
        graph = self._program.dependency_graph()
        if (target in graph.nodes and graph.parents(target) == frozenset(parents)
                and graph.is_acyclic()):
            return "factor" if self._closure_positive(parents) else "calibration"
        return "elimination"

    def _factor_cells(self, node: str) -> tuple[tuple[str, ...], list[float] | np.ndarray, bool]:
        """The parents the node's factor reads, in name order, its cells over
        them by ``engine.noisy_or`` and whether none is 0, kept; refused on
        each read when they exceed the cap."""
        found = self._tables.get(node)
        if found is None:
            terms = head_terms(self._program, node)
            scope = tuple(sorted({name for (body,), _ in terms for name, _ in body}))
            cells = 2 << len(scope)
            if cells > self._max_worlds:
                raise EnumerationCapError(cells, self._max_worlds)
            table = noisy_or(terms, scope)
            # no cell is 0 exactly where every miss lies strictly inside (0, 1)
            nonzero = all(table) if isinstance(table, list) else bool(table.all())
            found = self._tables[node] = scope, table, nonzero
        return found

    def _closure_positive(self, names: Iterable[str]) -> bool:
        """Whether every factor of the ancestral closure of ``names`` in the
        acyclic program is strictly positive. Each node's answer is kept; a
        node below one that is not is never tabulated."""
        graph = self._program.dependency_graph()
        known = self._positive
        todo = list(names)
        while todo:
            node = todo[-1]
            if node in known:
                todo.pop()
                continue
            waiting = [p for p in graph.parents(node) if p not in known]
            if waiting:
                todo += waiting
                continue
            todo.pop()
            known[node] = (all(known[p] for p in graph.parents(node))
                           and self._factor_cells(node)[2])
        return all(known[name] for name in names)

    def _calibrate(self) -> Mapping[tuple[str, ...], JointTable]:
        """The marginal of every expected family whose parents' closure holds
        a zero cell, from one calibration, or none when the calibration would
        exceed the cap. A family whose closure exceeds the cap is left out:
        it fails on its own."""
        graph = self._program.dependency_graph()
        expected = self._expected
        if expected is None:
            expected = [(name, tuple(sorted(graph.parents(name))))
                        for name in self._program.propositions]
        families = []
        for target, parents in expected:
            try:
                if self._route(target, parents) == "calibration":
                    families.append((target, *parents))
            except EnumerationCapError:
                continue
        try:
            return marginals(self._program, families, self._max_worlds).marginals
        except EnumerationCapError:
            return {}


class SuccessTable(Frozen):
    """Success probability of one target under every on/off pattern of its
    parents, which are distinct and in name order.

    Each column is a list by ``pattern_code``, the first parent the most
    significant bit: ``values[code]`` is the success probability at the
    pattern of that code, ``tolerances[code]`` its trust radius and
    ``support[code]`` its sample count for empirical oracles (``support`` is
    None for exact ones). The constructor keeps a list it is given and
    copies any other sequence into one. ``read`` says how the oracle read the
    table (``factor``, ``calibration``, ``elimination`` or ``samples`` for
    the shipped oracles); it is not part of the table's value."""

    _fields = ("target", "parents", "values", "tolerances", "support", "read")

    def __init__(self, target: str, parents: tuple[str, ...], values: Sequence[float],
                 tolerances: Sequence[float], support: Sequence[int] | None = None,
                 read: str | None = None):
        if list(parents) != sorted(set(parents)):
            raise ReconstructionError(
                f"success table for {target}: parents {list(parents)} are not distinct "
                f"and in name order")
        expected = 1 << len(parents)
        columns = [column if column is None or isinstance(column, list) else list(column)
                   for column in (values, tolerances, support)]
        for column in columns:
            if column is not None and len(column) != expected:
                raise ReconstructionError(
                    f"success table for {target} is incomplete: expected "
                    f"{expected} patterns, got {len(column)}")
        self.__dict__.update(target=target, parents=parents, values=columns[0],
                             tolerances=columns[1], support=columns[2], read=read)

    def _values(self) -> tuple:
        return self.target, self.parents, self.values, self.tolerances, self.support


def success_table(oracle: Oracle, target: str, parents: Iterable[str]) -> SuccessTable:
    """Ask the oracle for the success table of one target, over at most
    MAX_PARENTS parents.

    An oracle error names the offending pattern: one before the first
    pattern is reported at the first, the empty subset."""
    ordered = tuple(sorted(set(parents)))
    if len(ordered) > MAX_PARENTS:
        raise ReconstructionError(
            f"{target} has {len(ordered)} parents; its table would hold "
            f"2^{len(ordered)} patterns (limit {MAX_PARENTS} parents)")
    try:
        return oracle.success_table(target, ordered)
    except OracleError:
        raise
    except CausalogError as err:
        raise pattern_error(target, frozenset(), err) from err


def _detect(table: SuccessTable) -> list[tuple[int, float, float, float, float | None]]:
    """Detect which parent subsets are clause bodies and solve their
    probabilities: one step per pattern in table order, ``(code, predicted,
    residual, tolerance, solved)``. ``solved`` is the clause probability
    where the subset is a body and None where it is not, and ``tolerance``
    the effective acceptance threshold at the subset: the table's own
    tolerance there plus the uncertainty propagated from the solved
    parameters feeding ``predicted``. A solved probability is clamped to
    ``1 - max(tol, 1e-15)``, for the table's own tolerance ``tol`` there."""
    # Subsets are visited smallest first, so the prediction at each subset
    # only involves parameters that are already solved. Every solved
    # parameter carries a first-order uncertainty bound derived from the
    # table tolerances, and the acceptance threshold at a subset widens by
    # the uncertainty propagated into its prediction. Without this, any
    # table with statistical tolerances would routinely accept phantom
    # clauses: the prediction is itself an estimate, and comparing the
    # residual against the raw per-pattern tolerance alone ignores that.
    # The walk is over pattern codes, and a body lies strictly inside a
    # subset when its bits are a part of the subset's: every accepted body
    # was visited before, so it is never the subset itself.
    values, tolerances, parents = table.values, table.tolerances, table.parents
    # each accepted body: its code, its miss 1 - p and its uncertainty / (1 - p)
    accepted: list[tuple[int, float, float]] = []
    steps: list[tuple[int, float, float, float, float | None]] = []
    for code in table_codes(len(parents)):
        miss = 1.0
        spread = 0.0
        for body, keep, share in accepted:
            if body & code == body:
                miss *= keep
                spread += share
        predicted = 1.0 - miss
        value = values[code]
        tol = tolerances[code]
        threshold = tol + miss * spread
        residual = value - predicted
        solved = None
        if residual > threshold:
            if miss <= tol:
                subset = subset_of(parents, code)
                raise SaturationError(
                    f"{table.target}: prediction at {subset_text(subset)} is already "
                    f"within tolerance of certainty but the table value still exceeds "
                    f"it; the clause probability cannot be solved",
                    table.target, subset,
                )
            solved = 1.0 - (1.0 - value) / miss
            if not 0.0 < solved <= 1.0:  # below 0 only for a negative tolerance
                subset = subset_of(parents, code)
                raise ImproperParameterError(
                    f"{table.target}: solved probability {solved} at "
                    f"{subset_text(subset)} escapes (0, 1]; "
                    f"the table is not noisy-OR shaped",
                    table.target, subset,
                )
            solved = min(solved, 1.0 - max(tol, 1e-15))
            uncertainty = tol / miss + max(0.0, 1.0 - value) / miss * spread
            accepted.append((code, 1.0 - solved, uncertainty / (1.0 - solved)))
        elif residual < -threshold:
            subset = subset_of(parents, code)
            raise NonMonotoneTableError(
                f"{table.target}: value {value} at {subset_text(subset)} falls below "
                f"the prediction {predicted} by more than the tolerance "
                f"{threshold}; the oracle is not consistent with any "
                f"positive program",
                table.target, subset,
            )
        steps.append((code, predicted, residual, threshold, solved))
    return steps


class NodeReport(Frozen):
    """Reconstruction outcome for one node: its table (None when it failed),
    its clauses as (body, probability) pairs in table order, the error, the
    number of patterns the oracle read, the seconds spent on the node and
    how the oracle read its table (None when it read none). The residual
    audit of ``to_json_dict`` is derived from the table when asked, by the
    same deterministic walk that found the clauses."""

    _fields = ("target", "parents", "table", "clauses", "error", "oracle_calls", "seconds",
               "read")

    def __init__(self, target: str, parents: tuple[str, ...], table: SuccessTable | None,
                 clauses: tuple[tuple[frozenset[str], float], ...],
                 error: CausalogError | None = None, oracle_calls: int = 0,
                 seconds: float = 0.0, read: str | None = None):
        self.__dict__.update(target=target, parents=parents, table=table, clauses=clauses,
                             error=error, oracle_calls=oracle_calls, seconds=seconds,
                             read=read)

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json_dict(self) -> dict:
        out: dict = {
            "target": self.target,
            "parents": list(self.parents),
            "clauses": [
                {"causes": sorted(body), "probability": prob}
                for body, prob in self.clauses
            ],
            "residuals": [],
            "stats": {"oracle_calls": self.oracle_calls, "seconds": self.seconds,
                      "read": self.read},
        }
        table = self.table
        if table is not None:
            # each pattern's parents pinned true, in name order
            patterns = [list(compress(table.parents, bits))
                        for bits in _pattern_bits(len(table.parents))]
            out["residuals"] = [
                {
                    "pattern": patterns[code],
                    "value": table.values[code],
                    "predicted": predicted,
                    "residual": residual,
                    "tolerance": tolerance,
                    "accepted": solved is not None,
                }
                for code, predicted, residual, tolerance, solved in _detect(table)
            ]
            out["table"] = {",".join(patterns[code]): table.values[code]
                            for code in table_codes(len(table.parents))}
        if self.error is not None:
            out["error"] = {"code": self.error.code, "message": str(self.error)}
        return out


class ReconstructionResult(Frozen):
    """A recovered program plus per-node audit data.

    ``program`` contains the clauses of every node that succeeded; nodes that
    failed are listed in ``failures`` and contribute nothing. ``failures``
    defaults to a new empty dict."""

    _fields = ("program", "nodes", "failures")

    def __init__(self, program: Program, nodes: Mapping[str, NodeReport],
                 failures: Mapping[str, CausalogError] | None = None):
        failures = {} if failures is None else failures
        self.__dict__.update(program=program, nodes=nodes, failures=failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "program": self.program.to_text(),
            "nodes": {name: report.to_json_dict()
                      for name, report in sorted(self.nodes.items())},
        }


def _patterns_read(err: CausalogError, parents: tuple[str, ...]) -> int:
    """The patterns an oracle read for a table that failed with ``err``:
    every one when some were starved, up to the pattern that failed, and none
    when the table was refused before the oracle was asked."""
    if isinstance(err, StarvedPatternError):
        return 1 << len(parents)
    if isinstance(err, OracleError) and err.subset is not None:
        code = pattern_code(parents, {p: p in err.subset for p in parents})
        return table_codes(len(parents)).index(code) + 1
    return 0


def reconstruct(oracle: Oracle, graph: DependencyGraph) -> ReconstructionResult:
    """Recover a program over the graph's nodes from the oracle.

    Each node is processed independently: its parents are read off the graph,
    its success table is read from the oracle in one call and peeled into
    clauses. The oracle is told every node's family first. Each node's
    report counts the patterns read and the seconds spent. The result's own
    dependency graph is always a subgraph of the input graph. A node name
    that is no proposition name raises ProgramError before any table is
    read."""
    names = sorted(graph.nodes)
    for name in names:
        _check_proposition(name)
    if not graph.is_acyclic():
        raise ReconstructionError(
            "reconstruction needs an acyclic graph; cycle: " + " -> ".join(graph.find_cycle()))
    uncovered = sorted(graph.nodes - oracle.nodes)
    if uncovered:
        raise ReconstructionError(
            f"oracle does not cover graph nodes: {', '.join(uncovered)}"
        )
    entries: list[tuple[str, tuple, tuple, float]] = []
    reports: dict[str, NodeReport] = {}
    failures: dict[str, CausalogError] = {}
    families = [(target, tuple(sorted(graph.parents(target)))) for target in names]
    oracle.expect(families)
    for target, parents in families:
        start = time.perf_counter()
        table, bodies, error, calls, read = None, [], None, 0, None
        try:
            table = success_table(oracle, target, parents)
            calls, read = 1 << len(parents), table.read
            bits = _pattern_bits(len(parents))
            bodies = [(list(compress(parents, bits[code])), solved)
                      for code, _, _, _, solved in _detect(table) if solved is not None]
        except CausalogError as err:
            if table is None:
                calls = _patterns_read(err, parents)
            table, bodies, error = None, [], err
            failures[target] = err
        reports[target] = NodeReport(target, parents, table,
                                     tuple([(frozenset(body), prob) for body, prob in bodies]),
                                     error, calls, time.perf_counter() - start, read)
        # the names are graph nodes, checked above; each body is a distinct
        # subset of the parents and each weight a float in (0, 1]
        entries += [(target, *body_keys([(name, False) for name in body]), prob)
                    for body, prob in bodies]
    program = Program._trusted(entries, declared=names)
    return ReconstructionResult(program, reports, failures)

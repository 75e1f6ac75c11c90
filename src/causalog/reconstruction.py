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
could recover. The oracle is asked one pattern at a time, but neither oracle
shipped here works per pattern: the exact oracle calibrates the hidden
program once, at its first pattern, which answers every node whose parents
are the program's (one elimination per node answers any other), and the
frequency oracle fills a node's whole table at its first pattern with one
bincount over the rows' pattern codes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Protocol

from .engine import Marginal, marginal, marginals
from .errors import (
    CausalogError,
    EnumerationCapError,
    ImproperParameterError,
    NonMonotoneTableError,
    OracleError,
    ReconstructionError,
    SaturationError,
    StarvedPatternError,
    TableSizeError,
)
from .graph import DependencyGraph, subsets_by_size
from .model import Clause, Literal, Program

EXACT_TOLERANCE = 1e-9
MAX_PARENTS = 12
# the widest pattern an oracle tabulates: the table holds 2^width patterns,
# and success_table asks each of them, so this only bounds an explicit
# max_parents well above MAX_PARENTS (the same 20 as engine.joint_table)
MAX_TABLE_WIDTH = 20


def check_table_width(width: int) -> None:
    """Refuse a pattern over more than MAX_TABLE_WIDTH propositions with
    TableSizeError, before an oracle allocates its table."""
    if width > MAX_TABLE_WIDTH:
        raise TableSizeError(
            f"pattern over {width} propositions exceeds the table limit of "
            f"{MAX_TABLE_WIDTH}"
        )


class OracleAnswer(NamedTuple):
    """One oracle reply: the success probability of the target under a parent
    pattern, the tolerance the answer should be trusted to, and the number of
    samples behind it (None for exact oracles)."""

    probability: float
    tolerance: float
    support: int | None = None


class Oracle(Protocol):
    """Answers 'how often does the target hold when its parents are pinned to
    this pattern'. ``nodes`` is the set of propositions it covers."""

    @property
    def nodes(self) -> frozenset[str]: ...

    def success_given_parents(self, target: str,
                              pattern: Mapping[str, bool]) -> OracleAnswer: ...


class ExactOracle:
    """Exact answers computed from a known program by conditioning.

    At its first pattern the oracle calibrates the program once
    (``engine.marginals``), which gives the exact marginal over every node
    and its parents in the program, so the success table of a node whose
    parent set the program shares is a lookup: the marginal's cells hold
    P(target, pattern) for every pattern at once. Any other parent set takes
    one elimination onto the target and those parents (``engine.marginal``),
    and the latest such table is kept for the set's other patterns. The
    answer at a pattern is P(target, pattern) / P(pattern), as a conditional
    would give, and a pattern of probability zero raises ZeroEvidenceError.

    The cap applies to every table. A calibration whose largest table
    exceeds it builds nothing, and every node then takes its own
    elimination, so a node whose largest table exceeds the cap fails alone.
    A pattern over more than MAX_TABLE_WIDTH propositions raises
    TableSizeError.

    Useful for round-trip testing and for re-expressing a program in positive
    normal form: reconstruction against this oracle returns a noisy-OR
    program with the same distribution whenever one exists."""

    def __init__(self, program: Program, tolerance: float = EXACT_TOLERANCE,
                 max_worlds: int | None = None):
        self._program = program
        self._tolerance = float(tolerance)
        self._max_worlds = max_worlds
        self._families: Mapping[tuple[str, ...], Marginal] | None = None
        self._table: Marginal | None = None

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._program.propositions)

    def success_given_parents(self, target: str,
                              pattern: Mapping[str, bool]) -> OracleAnswer:
        check_table_width(len(pattern))
        atoms = (target, *sorted(pattern))
        if self._families is None:
            self._families = self._calibrate()
        table = self._families.get(atoms)
        if table is None:
            if self._table is None or self._table.columns != atoms:
                self._table = marginal(self._program, atoms, self._max_worlds)
            table = self._table
        return OracleAnswer(table.given(pattern), self._tolerance, None)

    def _calibrate(self) -> Mapping[tuple[str, ...], Marginal]:
        """The marginal of every node with its parents in the program, or
        none when the calibration would exceed the cap."""
        graph = self._program.dependency_graph()
        families = [(name, *sorted(graph.parents(name)))
                    for name in self._program.propositions]
        try:
            return marginals(self._program, families, self._max_worlds).marginals
        except EnumerationCapError:
            return {}


@dataclass(frozen=True)
class SuccessTable:
    """Success probability of one target under every on/off parent pattern.

    Keys of ``values`` are the subsets of ``parents`` pinned true (the rest
    pinned false). ``tolerances`` carries the per-pattern trust radius and
    ``support`` the per-pattern sample counts for empirical oracles."""

    target: str
    parents: tuple[str, ...]
    values: Mapping[frozenset[str], float]
    tolerances: Mapping[frozenset[str], float]
    support: Mapping[frozenset[str], int] | None = None

    def __post_init__(self) -> None:
        expected = 1 << len(self.parents)
        if len(self.values) != expected or len(self.tolerances) != expected:
            raise ReconstructionError(
                f"success table for {self.target} is incomplete: expected "
                f"{expected} patterns, got {len(self.values)}"
            )

    def subsets(self) -> Iterable[frozenset[str]]:
        return subsets_by_size(self.parents)


def success_table(oracle: Oracle, target: str, parents: Iterable[str],
                  max_parents: int = MAX_PARENTS) -> SuccessTable:
    """Query the oracle for every parent pattern of one target.

    Starved patterns are collected across the whole table and reported in a
    single error; any other oracle failure propagates with the offending
    subset named."""
    ordered = tuple(sorted(set(parents)))
    if len(ordered) > max_parents:
        raise ReconstructionError(
            f"{target} has {len(ordered)} parents; the table would need "
            f"{1 << len(ordered)} oracle calls (limit {max_parents} parents)"
        )
    values: dict[frozenset[str], float] = {}
    tolerances: dict[frozenset[str], float] = {}
    support: dict[frozenset[str], int] = {}
    starved: list[tuple[frozenset[str], int]] = []
    any_support = False
    for subset in subsets_by_size(ordered):
        pattern = {p: (p in subset) for p in ordered}
        try:
            answer = oracle.success_given_parents(target, pattern)
        except StarvedPatternError as err:
            starved.append((subset, err.patterns[0][1] if err.patterns else 0))
            continue
        except CausalogError as err:
            raise OracleError(
                f"oracle failed for {target} at pattern "
                f"{{{', '.join(sorted(subset)) or ''}}}: {err}",
                target=target, subset=subset,
            ) from err
        values[subset] = float(answer.probability)
        tolerances[subset] = float(answer.tolerance)
        if answer.support is not None:
            any_support = True
            support[subset] = answer.support
    if starved:
        listing = "; ".join(
            f"{{{', '.join(sorted(s)) or ''}}} has {n} samples"
            for s, n in starved
        )
        raise StarvedPatternError(
            f"{target}: {len(starved)} parent pattern(s) below support: {listing}",
            target=target, patterns=tuple(starved),
        )
    return SuccessTable(target, ordered, values, tolerances,
                        support if any_support else None)


@dataclass(frozen=True)
class SubsetRecord:
    """Audit trail of one detection step.

    ``tolerance`` is the effective acceptance threshold at this subset: the
    table's own per-pattern tolerance plus the uncertainty propagated from
    the already-solved parameters feeding ``predicted``."""

    subset: frozenset[str]
    value: float
    predicted: float
    residual: float
    tolerance: float
    accepted: bool
    solved: float | None = None
    note: str = ""


def detect_and_solve(table: SuccessTable) -> list[tuple[frozenset[str], float]]:
    """Detect which parent subsets are clause bodies and solve their
    probabilities. Returns (body, probability) pairs in subset order."""
    accepted, _ = _detect(table)
    return accepted


def _detect(table: SuccessTable) -> tuple[list[tuple[frozenset[str], float]],
                                          list[SubsetRecord]]:
    # Subsets are visited smallest first, so the prediction at each subset
    # only involves parameters that are already solved. Every solved
    # parameter carries a first-order uncertainty bound derived from the
    # table tolerances, and the acceptance threshold at a subset widens by
    # the uncertainty propagated into its prediction. Without this, any
    # table with statistical tolerances would routinely accept phantom
    # clauses: the prediction is itself an estimate, and comparing the
    # residual against the raw per-pattern tolerance alone ignores that.
    accepted: list[tuple[frozenset[str], float]] = []
    solved_tol: dict[frozenset[str], float] = {}
    records: list[SubsetRecord] = []
    for subset in table.subsets():
        miss = 1.0
        spread = 0.0
        for body, prob in accepted:
            if body < subset:
                miss *= 1.0 - prob
                spread += solved_tol[body] / (1.0 - prob)
        predicted = 1.0 - miss
        value = table.values[subset]
        tol = table.tolerances[subset]
        threshold = tol + miss * spread
        residual = value - predicted
        if residual > threshold:
            if miss <= tol:
                raise SaturationError(
                    f"{table.target}: prediction at "
                    f"{{{', '.join(sorted(subset)) or ''}}} is already within "
                    f"tolerance of certainty but the table value still exceeds "
                    f"it; the clause probability cannot be solved",
                    table.target, subset,
                )
            solved = 1.0 - (1.0 - value) / miss
            note = ""
            if solved > 1.0:
                raise ImproperParameterError(
                    f"{table.target}: solved probability {solved} at "
                    f"{{{', '.join(sorted(subset)) or ''}}} escapes [0, 1]; "
                    f"the table is not noisy-OR shaped",
                    table.target, subset,
                )
            limit = 1.0 - max(tol, 1e-15)
            if solved > limit:
                note = f"clamped from {solved}"
                solved = limit
            accepted.append((subset, solved))
            solved_tol[subset] = (
                tol / miss + max(0.0, 1.0 - value) / miss * spread
            )
            records.append(SubsetRecord(subset, value, predicted, residual,
                                        threshold, True, solved, note))
        elif residual < -threshold:
            raise NonMonotoneTableError(
                f"{table.target}: value {value} at "
                f"{{{', '.join(sorted(subset)) or ''}}} falls below the "
                f"prediction {predicted} by more than the tolerance "
                f"{threshold}; the oracle is not consistent with any "
                f"positive program",
                table.target, subset,
            )
        else:
            records.append(SubsetRecord(subset, value, predicted, residual,
                                        threshold, False))
    return accepted, records


@dataclass(frozen=True)
class NodeReport:
    """Reconstruction outcome for one node, with the number of patterns the
    oracle was asked and the seconds spent on the node."""

    target: str
    parents: tuple[str, ...]
    table: SuccessTable | None
    clauses: tuple[tuple[frozenset[str], float], ...]
    records: tuple[SubsetRecord, ...]
    error: CausalogError | None = None
    oracle_calls: int = 0
    seconds: float = 0.0

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
            "residuals": [
                {
                    "pattern": sorted(r.subset),
                    "value": r.value,
                    "predicted": r.predicted,
                    "residual": r.residual,
                    "tolerance": r.tolerance,
                    "accepted": r.accepted,
                }
                for r in self.records
            ],
            "stats": {"oracle_calls": self.oracle_calls, "seconds": self.seconds},
        }
        if self.table is not None:
            out["table"] = {
                ",".join(sorted(s)): v for s, v in sorted(
                    self.table.values.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
                )
            }
        if self.error is not None:
            out["error"] = {"code": self.error.code, "message": str(self.error)}
        return out


@dataclass(frozen=True)
class ReconstructionResult:
    """A recovered program plus per-node audit data.

    ``program`` contains the clauses of every node that succeeded; nodes that
    failed are listed in ``failures`` and contribute nothing."""

    program: Program
    nodes: Mapping[str, NodeReport]
    failures: Mapping[str, CausalogError] = field(default_factory=dict)

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


class _CountingOracle:
    """Forwards to an oracle and counts the patterns asked."""

    def __init__(self, oracle: Oracle):
        self._oracle = oracle
        self.calls = 0

    @property
    def nodes(self) -> frozenset[str]:
        return self._oracle.nodes

    def success_given_parents(self, target: str,
                              pattern: Mapping[str, bool]) -> OracleAnswer:
        self.calls += 1
        return self._oracle.success_given_parents(target, pattern)


def reconstruct(oracle: Oracle, graph: DependencyGraph,
                max_parents: int = MAX_PARENTS) -> ReconstructionResult:
    """Recover a program over the graph's nodes from the oracle.

    Each node is processed independently: its parents are read off the graph,
    its success table is filled by the oracle and peeled into clauses. Each
    node's report counts the patterns asked and the seconds spent. The
    result's own dependency graph is always a subgraph of the input graph."""
    if not graph.is_acyclic():
        cycle = graph.find_cycle() or []
        raise ReconstructionError(
            "reconstruction needs an acyclic graph; cycle: " + " -> ".join(cycle)
        )
    uncovered = sorted(graph.nodes - oracle.nodes)
    if uncovered:
        raise ReconstructionError(
            f"oracle does not cover graph nodes: {', '.join(uncovered)}"
        )
    clauses: list[Clause] = []
    reports: dict[str, NodeReport] = {}
    failures: dict[str, CausalogError] = {}
    counted = _CountingOracle(oracle)
    for target in sorted(graph.nodes):
        parents = tuple(sorted(graph.parents(target)))
        counted.calls = 0
        start = time.perf_counter()
        error = None
        try:
            table = success_table(counted, target, parents, max_parents)
            solved, records = _detect(table)
        except CausalogError as err:
            table, solved, records, error = None, [], [], err
            failures[target] = err
        reports[target] = NodeReport(target, parents, table, tuple(solved),
                                     tuple(records), error, counted.calls,
                                     time.perf_counter() - start)
        for body, prob in solved:
            clauses.append(Clause(target, frozenset(Literal(b) for b in body), prob))
    program = Program(clauses, declared=sorted(graph.nodes))
    return ReconstructionResult(program, reports, failures)

"""Dependency graphs over proposition names.

A program induces a directed graph with an edge ``cause -> effect`` for every
clause whose body mentions the cause, positively or negatively. The graph is
the structural side channel used by reconstruction and learning, and it can be
read from and written to two plain-text formats: a DOT subset and a bare edge
list.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import CyclicProgramError, GraphFormatError

# The proposition-name rule shared by programs and graphs.
VALID_NAME = re.compile(r"[a-z][A-Za-z0-9_]*$")
RESERVED_NAMES = frozenset({"true", "false"})


@dataclass(frozen=True)
class DependencyGraph:
    """An immutable directed graph over proposition names."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise GraphFormatError(f"edge ({a}, {b}) mentions a node not in the node set")

    @staticmethod
    def build(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "DependencyGraph":
        edge_set = frozenset(edges)
        node_set = frozenset(nodes) | {n for e in edge_set for n in e}
        return DependencyGraph(node_set, edge_set)

    # -- local structure ---------------------------------------------------

    def parents(self, node: str) -> frozenset[str]:
        return frozenset(a for a, b in self.edges if b == node)

    def children(self, node: str) -> frozenset[str]:
        return frozenset(b for a, b in self.edges if a == node)

    def sinks(self) -> frozenset[str]:
        with_out = {a for a, _ in self.edges}
        return frozenset(self.nodes - with_out)

    def sources(self) -> frozenset[str]:
        with_in = {b for _, b in self.edges}
        return frozenset(self.nodes - with_in)

    # -- global structure --------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        """Unique topological order (lexicographic tie break).

        Raises CyclicProgramError when the graph has a cycle.
        """
        order = self._kahn
        if len(order) != len(self.nodes):
            cycle = self.find_cycle()
            path = " -> ".join(cycle) if cycle else "?"
            raise CyclicProgramError(f"dependency graph has a cycle: {path}")
        return order

    def ordering_rank(self) -> dict[str, int]:
        """Deterministic rank usable even on cyclic graphs.

        Nodes reachable by peeling in-degree-zero nodes get their Kahn
        position; any leftover (cyclic core) is appended in name order, so
        printing a cyclic program is still stable.
        """
        order = [*self._kahn, *sorted(self.nodes.difference(self._kahn))]
        return {name: i for i, name in enumerate(order)}

    @cached_property
    def _kahn(self) -> tuple[str, ...]:
        """Kahn's peeling with lexicographic tie break, computed once per
        graph; it stops short of the nodes on or after a cycle."""
        indeg = {n: 0 for n in self.nodes}
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            indeg[b] += 1
            out[a].append(b)
        ready = sorted(n for n, d in indeg.items() if d == 0)
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for m in out[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    heapq.heappush(ready, m)
        return tuple(order)

    def is_acyclic(self) -> bool:
        return len(self._kahn) == len(self.nodes)

    def find_cycle(self) -> list[str] | None:
        """Some cycle as a node path ``[a, b, ..., a]``, or None."""
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            out[a].append(b)
        color: dict[str, int] = {}
        stack: list[str] = []

        def visit(n: str) -> list[str] | None:
            color[n] = 1
            stack.append(n)
            for m in sorted(out[n]):
                c = color.get(m, 0)
                if c == 1:
                    return stack[stack.index(m):] + [m]
                if c == 0:
                    found = visit(m)
                    if found:
                        return found
            stack.pop()
            color[n] = 2
            return None

        for n in sorted(self.nodes):
            if color.get(n, 0) == 0:
                found = visit(n)
                if found:
                    return found
        return None

    def ancestors(self, seeds: Iterable[str]) -> frozenset[str]:
        """Ancestral closure of ``seeds``, seeds included."""
        parents: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            parents[b].add(a)
        closed: set[str] = set()
        todo = [s for s in seeds]
        while todo:
            n = todo.pop()
            if n in closed:
                continue
            closed.add(n)
            todo.extend(parents.get(n, ()))
        return frozenset(closed)

    # -- text formats --------------------------------------------------------

    def to_dot(self) -> str:
        lines = ["digraph g {"]
        linked = {n for e in self.edges for n in e}
        for n in sorted(self.nodes - linked):
            lines.append(f"  {n};")
        for a, b in sorted(self.edges):
            lines.append(f"  {a} -> {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_edge_list(self) -> str:
        lines = []
        linked = {n for e in self.edges for n in e}
        for n in sorted(self.nodes - linked):
            lines.append(n)
        for a, b in sorted(self.edges):
            lines.append(f"{a} {b}")
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def parse(text: str) -> "DependencyGraph":
        """Sniff the format: DOT when the text opens with ``digraph``."""
        if text.lstrip().startswith("digraph"):
            return DependencyGraph.parse_dot(text)
        return DependencyGraph.parse_edge_list(text)

    @staticmethod
    def parse_edge_list(text: str) -> "DependencyGraph":
        nodes: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 1:
                nodes.add(_check_name(parts[0], lineno))
            elif len(parts) == 2:
                a = _check_name(parts[0], lineno)
                b = _check_name(parts[1], lineno)
                edges.add((a, b))
            else:
                raise GraphFormatError(
                    f"line {lineno}: expected 'node' or 'cause effect', got {len(parts)} tokens"
                )
        return DependencyGraph.build(nodes, edges)

    @staticmethod
    def parse_dot(text: str) -> "DependencyGraph":
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        body = re.search(r"digraph\s+(?:[A-Za-z0-9_]+\s*)?\{(.*)\}\s*$", text, re.S)
        if not body:
            raise GraphFormatError("not a digraph: expected 'digraph [name] { ... }'")
        nodes: set[str] = set()
        edges: set[tuple[str, str]] = set()
        for stmt in body.group(1).split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if "->" in stmt:
                chain = [_check_name(part.strip(), 0) for part in stmt.split("->")]
                for a, b in zip(chain, chain[1:]):
                    edges.add((a, b))
            else:
                nodes.add(_check_name(stmt, 0))
        return DependencyGraph.build(nodes, edges)


def _check_name(token: str, lineno: int) -> str:
    where = f"line {lineno}: " if lineno else ""
    if not VALID_NAME.match(token):
        raise GraphFormatError(f"{where}bad proposition name {token!r}")
    if token in RESERVED_NAMES:
        raise GraphFormatError(
            f"{where}{token!r} is a reserved word and cannot name a proposition")
    return token


def subsets_by_size(items: Iterable[str]) -> Iterator[frozenset[str]]:
    """All subsets of ``items``, by increasing size, lexicographic within a size."""
    from itertools import combinations

    ordered = sorted(items)
    for size in range(len(ordered) + 1):
        for combo in combinations(ordered, size):
            yield frozenset(combo)

"""Dependency graphs over proposition names.

A program induces a directed graph with an edge ``cause -> effect`` for every
clause whose body mentions the cause, positively or negatively. The graph is
the structural side channel used by reconstruction and learning, and it can be
read from and written to two plain-text formats: a DOT subset and a bare edge
list. Both writers print one listing, isolated nodes then edges in name
order, in their own line format, and both readers name the line of a bad
name. ``NAME`` is the one proposition-name pattern: graphs, programs and
the clause scanner all match it. A graph keeps one adjacency, each node's
parents, built once.

Kahn's peeling, run once per graph, gives the topological order and decides
acyclicity. On a cyclic graph the nodes it leaves each have a parent among
them, so the one cycle every caller names comes from walking back through
them from the least-named one, each time to the least-named such parent,
until a node repeats; the cycle is written from its least-named node.
"""

from __future__ import annotations

import heapq
import re
from functools import cached_property
from typing import Iterable

from .errors import CyclicProgramError, GraphFormatError
from .frozen import Frozen

# The proposition-name rule shared by programs, graphs and the clause scanner.
NAME = r"[a-z][A-Za-z0-9_]*"
VALID_NAME = re.compile(NAME + "$")
RESERVED_NAMES = frozenset({"true", "false"})


class DependencyGraph(Frozen):
    """An immutable directed graph over proposition names."""

    _fields = ("nodes", "edges")

    def __init__(self, nodes: frozenset[str], edges: frozenset[tuple[str, str]]):
        for a, b in edges:
            if a not in nodes or b not in nodes:
                raise GraphFormatError(f"edge ({a}, {b}) mentions a node not in the node set")
        self.__dict__.update(nodes=nodes, edges=edges)

    @staticmethod
    def build(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "DependencyGraph":
        edge_set = frozenset(edges)
        # the nodes hold both ends of every edge
        return DependencyGraph._trusted(nodes=frozenset(nodes).union(*edge_set),
                                        edges=edge_set)

    # -- local structure ---------------------------------------------------

    def parents(self, node: str) -> frozenset[str]:
        return self._parents.get(node, frozenset())

    @cached_property
    def _parents(self) -> dict[str, frozenset[str]]:
        """Every node's parents, built once per graph."""
        parents: dict[str, set[str]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            parents[b].add(a)
        return {n: frozenset(s) for n, s in parents.items()}

    def sinks(self) -> frozenset[str]:
        with_out = {a for a, _ in self.edges}
        return frozenset(self.nodes - with_out)

    # -- global structure --------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        """Unique topological order (lexicographic tie break).

        Raises CyclicProgramError when the graph has a cycle.
        """
        order = self._kahn
        if len(order) != len(self.nodes):
            raise CyclicProgramError(
                f"dependency graph has a cycle: {' -> '.join(self.find_cycle())}")
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
        ready = sorted(n for n, d in indeg.items() if d == 0)  # a sorted list is a heap
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
        """A cycle as a node path ``[a, b, ..., a]``, or None when the graph
        is acyclic.

        Every node Kahn's peeling leaves has a parent it also leaves. The
        search walks back from the least-named such node, each time to the
        least-named such parent, until a node repeats; the nodes from that
        node on are a cycle, which is written in edge order from its
        least-named node."""
        left = self.nodes.difference(self._kahn)
        if not left:
            return None
        parents = self._parents
        walk: list[str] = []
        step: dict[str, int] = {}
        node = min(left)
        while node not in step:
            step[node] = len(walk)
            walk.append(node)
            node = min(parents[node] & left)
        cycle = walk[step[node]:][::-1]
        start = cycle.index(min(cycle))
        return cycle[start:] + cycle[:start + 1]

    def ancestors(self, seeds: Iterable[str]) -> frozenset[str]:
        """Ancestral closure of ``seeds``, seeds included."""
        parents = self._parents
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
        return "digraph g {\n" + self._listing("  {};", "  {} -> {};") + "}\n"

    def to_edge_list(self) -> str:
        return self._listing("{}", "{} {}")

    def _listing(self, node: str, edge: str) -> str:
        """One line per isolated node, then one per edge, each in name
        order and written in the ``node`` or ``edge`` format."""
        linked = {n for e in self.edges for n in e}
        lines = [node.format(n) for n in sorted(self.nodes - linked)]
        lines += [edge.format(a, b) for a, b in sorted(self.edges)]
        return "".join(line + "\n" for line in lines)

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
        # each statement from its first character to the next ';', named by
        # the line it starts on
        for stmt in re.finditer(r"[^;\s][^;]*", body.group(1)):
            lineno = text.count("\n", 0, body.start(1) + stmt.start()) + 1
            chain = [_check_name(part.strip(), lineno) for part in stmt[0].split("->")]
            nodes.add(chain[0])
            edges.update(zip(chain, chain[1:]))
        return DependencyGraph.build(nodes, edges)


def _check_name(token: str, lineno: int) -> str:
    where = f"line {lineno}: "
    if not VALID_NAME.match(token):
        raise GraphFormatError(f"{where}bad proposition name {token!r}")
    if token in RESERVED_NAMES:
        raise GraphFormatError(
            f"{where}{token!r} is a reserved word and cannot name a proposition")
    return token

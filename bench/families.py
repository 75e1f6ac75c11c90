"""Seeded program families and the independent reference that checks answers.

Programs are built here as plain data (node index, body, probability) and
written out in the clause text format; the program under test only ever sees
the files. Nodes are named ``n0 .. n<n-1>`` in index order and every parent
of node ``i`` lies within the ``window`` nodes before it.

That window is what makes the reference cheap and independent of causalog:
a forward pass that keeps the joint distribution of the last ``window``
nodes computes any conjunction's probability exactly in ``n * 2**(window+1)``
steps, and the same pass over node *pairs* (evidence copy, intervention
copy) answers counterfactuals with the closed-form pair distribution of a
head whose clauses share one noise draw between the two copies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LAYERED_WINDOW = 4
NEGATION_SHARE = 0.2
P_LO, P_HI = 0.05, 0.95


@dataclass(frozen=True)
class Spec:
    """A generated program: ``clauses[i]`` lists ``(body, p)`` for node
    ``i``, a body being a tuple of ``(parent index, positive)``."""

    clauses: tuple[tuple[tuple[tuple[tuple[int, bool], ...], float], ...], ...]
    window: int

    @property
    def n(self) -> int:
        return len(self.clauses)

    def name(self, i: int) -> str:
        return f"n{i}"

    @cached_property
    def _parents(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(j for body, _ in node for j, _ in body) for node in self.clauses)

    def parents(self, i: int) -> frozenset[int]:
        return self._parents[i]

    def text(self) -> str:
        lines = []
        for i, node in enumerate(self.clauses):
            for body, p in node:
                head = f"{p!r} :: {self.name(i)}"
                lits = ", ".join(self.name(j) if pos else f"\\+ {self.name(j)}"
                                 for j, pos in body)
                lines.append(f"{head} :- {lits}." if lits else f"{head}.")
        return "\n".join(lines) + "\n"

    def edges_text(self) -> str:
        lines = [f"{self.name(i)}" for i in range(self.n)]
        lines += [f"{self.name(j)} {self.name(i)}"
                  for i in range(self.n) for j in sorted(self.parents(i))]
        return "\n".join(lines) + "\n"

    def clause_map(self) -> dict[tuple[str, frozenset], float]:
        """``(head, frozenset of (atom, positive)) -> p``, the form
        ``parse_clauses`` returns."""
        return {(self.name(i), frozenset((self.name(j), pos) for j, pos in body)): p
                for i, node in enumerate(self.clauses) for body, p in node}

    def ancestors(self, seeds, cut=()) -> set[int]:
        """Ancestral closure of ``seeds``; nodes in ``cut`` keep no parents."""
        out, stack = set(), list(seeds)
        while stack:
            i = stack.pop()
            if i not in out:
                out.add(i)
                if i not in cut:
                    stack.extend(self.parents(i))
        return out


def _prob(rng) -> float:
    return round(float(rng.uniform(P_LO, P_HI)), 3)


def layered(rng, n: int, positive: bool = False,
            window: int = LAYERED_WINDOW, max_parents: int = 3) -> Spec:
    """Each node but ``n0`` draws 1..3 parents from the ``window`` nodes before it and
    keeps an unconditional clause, one clause per parent and, sometimes, a
    clause on a pair or triple of them. Body literals are negated with
    probability ``NEGATION_SHARE`` unless ``positive``."""
    nodes = []
    for i in range(n):
        cand = list(range(max(0, i - window), i))
        k = int(rng.integers(1, min(len(cand), max_parents) + 1)) if cand else 0
        parents = sorted(int(j) for j in rng.choice(cand, size=k, replace=False)) if k else []
        bodies = [()] + [(j,) for j in parents]
        bodies += [c for size in (2, 3) for c in itertools.combinations(parents, size)
                   if rng.random() < 0.35]
        node = []
        for body in bodies:
            lits = tuple((j, positive or bool(rng.random() >= NEGATION_SHARE)) for j in body)
            node.append((lits, _prob(rng)))
        nodes.append(tuple(node))
    return Spec(tuple(nodes), window)


def chain(rng, n: int) -> Spec:
    """``n0 -> n1 -> ...``: each link keeps an unconditional clause and one
    clause on its predecessor, negated with probability ``NEGATION_SHARE``."""
    nodes = [(((), _prob(rng)),)]
    for i in range(1, n):
        pos = bool(rng.random() >= NEGATION_SHARE)
        nodes.append((((), _prob(rng)), (((i - 1, pos),), _prob(rng))))
    return Spec(tuple(nodes), 1)


# ---------------------------------------------------------------------------
# reference: forward pass over a sliding window


def _window_digits(k: int, w: int) -> np.ndarray:
    idx = np.arange(k ** w)
    return (idx[:, None] // k ** np.arange(w - 1, -1, -1)) % k


def _misses(node, rows: int, value) -> list[np.ndarray]:
    """For each copy accessor in ``value``, the product of (1 - p) over the
    clauses whose body holds, plus the product over clauses whose body holds
    in any copy (the shared-noise miss)."""
    out = [np.ones(rows) for _ in range(len(value) + 1)]
    for body, p in node:
        sats = []
        for get in value:
            sat = np.ones(rows, dtype=bool)
            for j, pos in body:
                sat &= get(j) == pos
            sats.append(sat)
        for m, sat in zip(out, sats + [np.logical_or.reduce(sats)]):
            m *= np.where(sat, 1.0 - p, 1.0)
    return out


def _forward(prog: Spec, k: int, cpt_of, allowed: dict[int, np.ndarray]) -> float:
    """Total mass of the run where node ``i`` may only take the states
    ``allowed[i]`` marks. ``state`` holds the joint of the last ``window``
    nodes (``k`` states each); ``cpt_of(i, col)`` gives node ``i``'s
    distribution for every window assignment, ``col[j]`` being node ``j``'s
    state in each."""
    w = prog.window
    digits = _window_digits(k, w)
    state = np.zeros(k ** w)
    state[0] = 1.0  # nodes before n0 are padding, fixed to state 0
    for i in range(prog.n):
        col = {j: digits[:, w - (i - j)] for j in range(max(0, i - w), i)}
        cpt = cpt_of(i, col)
        if i in allowed:
            cpt = cpt * allowed[i][None, :]
        state = (state[:, None] * cpt).reshape((k,) * (w + 1)).sum(axis=0).ravel()
    return float(state.sum())


def plain_mass(prog: Spec, fixed: dict[int, bool], do: dict[int, bool] | None = None) -> float:
    """P(every node in ``fixed`` takes its value), after forcing ``do``."""
    do = do or {}
    rows = 2 ** prog.window

    def cpt(i, col):
        if i in do:
            out = np.zeros((rows, 2))
            out[:, int(do[i])] = 1.0
            return out
        miss, _ = _misses(prog.clauses[i], rows, [lambda j: col[j] == 1])
        return np.stack([miss, 1.0 - miss], axis=1)

    allowed = {i: np.array([not v, v], dtype=float) for i, v in fixed.items()}
    return _forward(prog, 2, cpt, allowed)


def twin_mass(prog: Spec, evidence: dict[int, bool], query: dict[int, bool],
              do: dict[int, bool]) -> float:
    """P(evidence holds in the factual copy and query in the intervened copy).

    Pair state ``s = e + 2 * i``. For a head left alone by the intervention,
    P(e=0, i=0) is the miss over clauses whose body holds in either copy, and
    the other cells follow from the two per-copy misses."""
    rows = 4 ** prog.window

    def cpt(i, col):
        node = prog.clauses[i]
        if i in do:
            miss_e, _ = _misses(node, rows, [lambda j: col[j] % 2 == 1])
            out = np.zeros((rows, 4))
            v = 2 * int(do[i])
            out[:, 0 + v] = miss_e
            out[:, 1 + v] = 1.0 - miss_e
            return out
        miss_e, miss_i, both = _misses(node, rows, [
            lambda j: col[j] % 2 == 1, lambda j: col[j] // 2 == 1])
        return np.stack([both, miss_i - both, miss_e - both,
                         1.0 - miss_e - miss_i + both], axis=1)

    allowed = {}
    for i in set(evidence) | set(query):
        mask = np.ones(4)
        for s in range(4):
            if i in evidence and (s % 2 == 1) != evidence[i]:
                mask[s] = 0.0
            if i in query and (s // 2 == 1) != query[i]:
                mask[s] = 0.0
        allowed[i] = mask
    return _forward(prog, 4, cpt, allowed)


def joint(prog: Spec) -> np.ndarray:
    """Probability of every assignment; bit ``b`` of the index is the value
    of the ``b``-th node in name order, the order ``joint_table`` keys by."""
    order = sorted(range(prog.n), key=prog.name)
    idx = np.arange(1 << prog.n)
    value = {i: ((idx >> b) & 1).astype(bool) for b, i in enumerate(order)}
    out = np.ones(1 << prog.n)
    for i in range(prog.n):
        miss, _ = _misses(prog.clauses[i], 1 << prog.n, [lambda j: value[j]])
        out *= np.where(value[i], 1.0 - miss, miss)
    return out


"""Reads program text back for checking: ``p :: head :- a, \\+ b.`` lines.

Deliberately separate from causalog's parser, so a wrong parse in the program
under test cannot hide a wrong answer.
"""

from __future__ import annotations

import json
import re

_LINE = re.compile(r"^\s*(\S+)\s*::\s*([A-Za-z0-9_]+)\s*(?::-\s*(.*?))?\s*\.\s*$")


def parse(text: str) -> dict[tuple[str, frozenset], float]:
    """``(head, frozenset of (atom, positive)) -> probability``."""
    out = {}
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("%"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"unreadable clause line {line!r}")
        prob, head, body = match.groups()
        lits = []
        for lit in (body.split(",") if body else ()):
            lit = lit.strip()
            negated = lit.startswith("\\+")
            lits.append((lit[2:].strip() if negated else lit, not negated))
        out[(head, frozenset(lits))] = float(prob)
    return out


def from_list(items: list) -> dict[tuple[str, frozenset], float]:
    return {(head, frozenset((a, pos) for a, pos in body)): p for head, body, p in items}


def compare(got: dict, want: dict, tolerance: float) -> str | None:
    if got.keys() != want.keys():
        missing = sorted(map(str, want.keys() - got.keys()))[:3]
        extra = sorted(map(str, got.keys() - want.keys()))[:3]
        return f"clause keys differ: missing {missing}, extra {extra}"
    worst = max((abs(got[k] - want[k]) for k in want), default=0.0)
    if worst > tolerance:
        return f"a clause weight is off by {worst!r}"
    return None


def twin_lines(parsed: dict) -> list:
    """A twin export as sorted (head, body literals, noise probability)
    triples, independent of how the export names its noise facts. A logical
    clause whose own weight is not 1.0 keeps that weight as a fourth field,
    so it can never match."""
    noise = {head: p for (head, body), p in parsed.items() if "__" not in head}
    lines = []
    for (head, body), p in parsed.items():
        if head in noise:
            continue
        lits = sorted([a, pos] for a, pos in body if a not in noise)
        guards = [noise[a] for a, _ in body if a in noise]
        line = [head, lits, guards[0] if len(guards) == 1 else (None if not guards else guards)]
        lines.append(line if p == 1.0 else line + [p])
    return sorted(lines, key=json.dumps)

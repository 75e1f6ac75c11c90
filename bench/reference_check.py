"""Cross-checks the benchmark's reference against ``tests/oracles.py``.

The reference in ``families.py`` supplies every expected query answer. Each
time expected values are written, every case whose program is small enough
for the brute-force enumeration of all noise worlds in ``tests/oracles.py``
is recomputed that way too, and a calibration set of tiny programs from the
same families covers every query form (plain, ``--given``, ``--do`` and
counterfactual) on every run, since the larger workloads have no small case.
"""

from __future__ import annotations

import os
import sys

import numpy as np

import families as F

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_CLAUSES = 8  # 2^8 noise worlds, some 30 ms of brute force in pure Python
CALIBRATION_PROGRAMS = 6
TOLERANCE = 1e-12


class BruteForce:
    def __init__(self):
        tests = os.path.join(ROOT, "tests")
        self.available = os.path.isfile(os.path.join(tests, "oracles.py"))
        if self.available:
            sys.path.insert(0, tests)
            import oracles

            self._oracles = oracles
        self.checked = 0
        self.problems: list[str] = []

    def check(self, prog: F.Spec, query, given, do, twin: bool, expected: float) -> None:
        """Compare ``expected`` with brute force when the program is small."""
        if not self.available or sum(map(len, prog.clauses)) > MAX_CLAUSES:
            return
        from causalog.formula import conjunction_of

        q, e = ("__i", "__e") if twin else ("", "")
        dp = _desugared(prog, do, twin)
        phi = conjunction_of({f"n{i}{q}": v for i, v in query.items()})
        if given:
            evidence = conjunction_of({f"n{i}{e}": v for i, v in given.items()})
            got = self._oracles.reference_conditional(dp, phi, evidence)
        else:
            got = self._oracles.reference_probability(dp, phi)
        self.checked += 1
        if abs(got - expected) > TOLERANCE:
            self.problems.append(f"reference {expected!r} but brute force {got!r} "
                                 f"for {query} given {given} do {do} twin={twin}")

    def calibrate(self, seed: int) -> None:
        rng = np.random.default_rng([seed % (1 << 63), 7])
        done = 0
        while done < CALIBRATION_PROGRAMS:
            prog = F.layered(rng, int(rng.integers(3, 6)), window=3)
            if sum(map(len, prog.clauses)) > MAX_CLAUSES:
                continue
            last, first = prog.n - 1, 0
            cases = [({last: True}, {first: False}, {}, False),
                     ({last: False}, {}, {first: True}, False),
                     ({last: True}, {last: True, 1: False}, {first: False}, True)]
            for query, given, do, twin in cases:
                if twin:
                    expected = F.twin_mass(prog, given, query, do) / F.twin_mass(prog, given, {}, do)
                else:
                    expected = F.plain_mass(prog, {**given, **query}, do) / (
                        F.plain_mass(prog, given, do) if given else 1.0)
                self.check(prog, query, given, do, twin, expected)
            done += 1


def _desugared(prog: F.Spec, do: dict[int, bool], twin: bool):
    """The program (or its twin) as a DesugaredProgram with one noise fact
    per clause, built directly rather than through causalog's own
    ``desugar``, ``intervene`` or ``twin_program``."""
    from causalog.model import DesugaredProgram, Literal, LogicalClause

    copies = ("__e", "__i") if twin else ("",)
    clauses, noise = [], {}
    for i, node in enumerate(prog.clauses):
        for body, p in node:
            u = f"u{len(noise)}"
            noise[u] = p
            for suffix in copies:
                if i in do and suffix == copies[-1]:
                    continue
                lits = frozenset(Literal(f"n{j}{suffix}", pos) for j, pos in body)
                clauses.append(LogicalClause(f"n{i}{suffix}", lits, frozenset({u})))
    for i, value in do.items():
        if value:
            clauses.append(LogicalClause(f"n{i}{copies[-1]}", frozenset(), frozenset()))
    declared = [f"n{i}{s}" for i in range(prog.n) for s in copies]
    return DesugaredProgram(clauses, noise, declared=declared)

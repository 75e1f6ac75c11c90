"""Request lists for the three workloads, built from the workload seed.

Every request is a dict the worker can execute and check without further
input: ``argv`` for a ``causalog`` CLI call (or ``file`` for a library
``joint_table`` call) plus the expected answer under ``check``. Programs and
graphs go to files under the work directory; the expected values come from
the reference in ``families.py``, or, for sampling and learning, from
``recover_pool.json``, which stores the seed commit's output.

Requests are laid out in rounds; a round holds one request of each kind in
a seed-shuffled order. The worker runs the whole list in passes, so what a
run measures is the list itself, and the list holds exactly the same number
of requests of each kind and size stratum whatever the seed (``_balanced``):
the seed picks the programs, not the mix.
"""

from __future__ import annotations

import json
import os

import numpy as np

import families as F

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_FILE = os.path.join(HERE, "recover_pool.json")

RECONSTRUCT_TOL = 1e-9
LEARN_TOL = 1e-12


def literals(assignment: dict[int, bool]) -> str:
    return ",".join(("" if v else "\\+") + f"n{i}" for i, v in sorted(assignment.items()))


def formula(assignment: dict[int, bool]) -> str:
    return " & ".join(("" if v else "!") + f"n{i}" for i, v in sorted(assignment.items()))


class _Writer:
    """Writes one request's files under the work directory and hands each
    expected answer to ``brute`` (a ``reference_check.BruteForce``)."""

    def __init__(self, workdir: str, brute):
        self.workdir = workdir
        self.brute = brute
        self.count = 0
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def path(self, kind: str, suffix: str) -> str:
        self.count += 1
        return os.path.join(self.workdir, kind, f"r{self.count}{suffix}")

    def program(self, prog_text: str, suffix: str = ".pl") -> str:
        path = self.path("in", suffix)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(prog_text)
        return path


def _balanced(rng, values, count):
    """``count`` draws from ``values``, each value equally often, in a seeded
    order."""
    if count % len(values):
        raise ValueError(f"{count} draws do not spread evenly over {len(values)} strata")
    draws = [values[i % len(values)] for i in range(count)]
    return iter([draws[int(i)] for i in rng.permutation(count)])


def _rounds(rng, makers, count):
    requests = []
    for _ in range(count):
        for k in rng.permutation(len(makers)):
            requests.append(makers[int(k)]())
    return requests


def _query_request(w: _Writer, prog: F.Spec, kind: str, query, given, do):
    argv = ["query", w.program(prog.text()), "--prob", formula(query), "--json"]
    if given:
        argv += ["--given", literals(given)]
    if do:
        argv += ["--do", literals(do)]
    mass = F.plain_mass(prog, given, do) if given else 1.0
    expected = F.plain_mass(prog, {**given, **query}, do) / mass
    w.brute.check(prog, query, given, do, False, expected)
    return {"kind": kind, "argv": argv, "check": {"probability": expected}}


def _coin(rng) -> bool:
    return bool(rng.random() < 0.5)


def _layered_query(rng, w, form, bits):
    """A layered query whose ancestral closure, the factor worlds the engine
    enumerates, has exactly ``bits`` nodes."""
    while True:
        prog = F.layered(rng, int(rng.integers(max(14, bits), 23)))
        for _ in range(60):
            q = int(rng.integers(0, prog.n))
            query, given, do = {q: _coin(rng)}, {}, {}
            if form == "conj":
                query[int(rng.integers(0, prog.n))] = _coin(rng)
            elif form == "given":
                e = int(rng.integers(0, prog.n))
                if e == q:
                    continue
                given = {e: _coin(rng)}
            elif form == "do":
                above = sorted(prog.ancestors([q]) - {q})
                if not above:
                    continue
                do = {int(rng.choice(above)): _coin(rng)}
            if len(prog.ancestors(set(query) | set(given), cut=set(do))) == bits:
                return _query_request(w, prog, f"query.layered.{form}", query, given, do)


def _chain_query(rng, w, form, n):
    """A query on the last node of an ``n``-chain. The intervention is on the
    root, so the engine's work is fixed by ``n``: an intervention lower down
    would cut the enumeration by a seed-drawn power of two."""
    prog = F.chain(rng, n)
    last = {n - 1: _coin(rng)}
    if form == "given":
        return _query_request(w, prog, "query.chain.given", last,
                              {int(rng.integers(0, n - 1)): _coin(rng)}, {})
    if form == "do":
        return _query_request(w, prog, "query.chain.do", last, {},
                              {0: _coin(rng)})
    return _query_request(w, prog, "query.chain.obs", last, {}, {})


def build_exact(rng, w: _Writer, rounds: int = 20):
    """Observational, conditional and interventional queries on layered
    programs (factor worlds 2^12..2^19) and chains (n 15..19), library
    ``joint_table`` on 12..16 nodes, and one ``validate`` in ten requests."""
    layered_forms, chain_forms = ("obs", "conj", "given", "do"), ("obs", "given", "do")
    layered_bits = _balanced(rng, list(range(12, 20)), rounds * len(layered_forms))
    chain_n = {f: _balanced(rng, list(range(15, 20)), rounds) for f in chain_forms}
    table_n = _balanced(rng, list(range(12, 17)), rounds * 2)

    def joint_table():
        prog = F.layered(rng, next(table_n))
        path = w.program(prog.text())
        expected = path[:-3] + ".npy"
        np.save(expected, F.joint(prog))
        return {"kind": "joint_table", "file": path, "check": {"joint": expected}}

    def validate():
        prog = F.layered(rng, int(rng.integers(14, 23)))
        positive = all(pos for node in prog.clauses for body, _ in node for _, pos in body)
        return {"kind": "validate", "argv": ["validate", w.program(prog.text()), "--json"],
                "check": {"validate": {"acyclic": True, "positive": positive,
                                       "proper_normal_form": True}}}

    makers = [lambda f=f: _layered_query(rng, w, f, next(layered_bits)) for f in layered_forms]
    makers += [lambda f=f: _chain_query(rng, w, f, next(chain_n[f])) for f in chain_forms]
    makers += [joint_table, joint_table, validate]
    return _rounds(rng, makers, rounds)


def _twin_lines(prog: F.Spec, do: dict[int, bool]):
    """The export as (head, body literals, noise probability) triples; the
    noise probability is None for a clause forced true by the intervention."""
    lines = []
    for i, node in enumerate(prog.clauses):
        for body, p in node:
            for suffix in ("__e", "__i"):
                if suffix == "__i" and i in do:
                    continue
                lits = sorted([f"n{j}{suffix}", pos] for j, pos in body)
                lines.append([f"n{i}{suffix}", lits, p])
    lines += [[f"n{i}__i", [], None] for i, v in do.items() if v]
    return sorted(lines, key=json.dumps)


def build_counterfactual(rng, w: _Writer, rounds: int = 24):
    """``query --given --do`` on small layered programs with negation, sized
    so the twin's shared-noise enumeration spans 2^10..2^21 worlds, plus one
    ``twin-export`` in ten requests."""
    noise_bits = _balanced(rng, list(range(10, 22)), rounds * 9)

    def program(n_min=4, n_max=10):
        return F.layered(rng, int(rng.integers(n_min, n_max + 1)), window=3)

    def pick(prog, q, e=None):
        """Evidence on the query node ``q`` (and on ``e``), and an
        intervention on one of ``q``'s ancestors."""
        evidence = {q: _coin(rng)}
        if e is not None:
            evidence.setdefault(e, _coin(rng))
        above = sorted(prog.ancestors([q]) - {q})
        return evidence, {int(rng.choice(above)): _coin(rng)}

    def counterfactual():
        # Evidence always holds the query node, so the factual copy's
        # ancestry covers the intervened copy's and only the evidence nodes
        # decide which noise facts the enumeration needs.
        bits = next(noise_bits)
        while True:
            prog = program(max(4, bits // 3), min(10, bits // 2 + 1))
            anc = [prog.ancestors([i]) for i in range(prog.n)]
            size = [sum(len(prog.clauses[i]) for i in nodes) for nodes in anc]
            fits = [(q, e) for q in range(1, prog.n) if len(anc[q]) > 1
                    for e in [None, *range(prog.n)]
                    if (size[q] if e is None else
                        sum(len(prog.clauses[i]) for i in anc[q] | anc[e])) == bits]
            if fits:
                evidence, do = pick(prog, *fits[int(rng.integers(0, len(fits)))])
                break
        query = {next(iter(evidence)): _coin(rng)}
        expected = F.twin_mass(prog, evidence, query, do) / F.twin_mass(prog, evidence, {}, do)
        w.brute.check(prog, query, evidence, do, True, expected)
        argv = ["query", w.program(prog.text()), "--prob", formula(query),
                "--given", literals(evidence), "--do", literals(do), "--json"]
        return {"kind": "counterfactual", "argv": argv, "check": {"probability": expected}}

    def twin_export():
        prog = program()
        _, do = pick(prog, int(rng.integers(1, prog.n)))
        out = w.path("out", ".pl")
        argv = ["twin-export", w.program(prog.text()), "--do", literals(do), "-o", out]
        return {"kind": "twin-export", "argv": argv,
                "check": {"twin": _twin_lines(prog, do), "output": out}}

    return _rounds(rng, [counterfactual] * 9 + [twin_export], rounds)


def _clause_list(clauses: dict) -> list:
    return sorted([head, sorted([a, pos] for a, pos in body), p]
                  for (head, body), p in clauses.items())


# One success-table cell costs the exact oracle about as much time as 2500
# enumerated worlds (a call's fixed overhead); a fit of reconstruct times on
# 60 positive layered programs gave 1.7e-7 s per world and 4.1e-4 s per cell.
CELL_WORLDS = 2500


def build_recover(rng, w: _Writer, rounds: int = 16):
    """``reconstruct`` of positive layered programs (n 6..18, 10..120 ms)
    against the exact oracle, eight to a round, with one ``sample`` of a
    stored learnable program and the ``learn`` that reads its CSV back. Each
    row count of the pool is sampled equally often."""
    with open(POOL_FILE, encoding="utf-8") as handle:
        pool = json.load(handle)["entries"]
    levels: dict[int, list[dict]] = {}
    for entry in pool:
        levels.setdefault(entry["rows"], []).append(entry)
    rows = _balanced(rng, sorted(levels), rounds)
    # Quarter-powers of two of the oracle's work: stratum s holds
    # 2^(s/4) <= work < 2^((s+1)/4), from 2^15.5 to 2^19.5.
    work_strata = _balanced(rng, list(range(62, 78)), rounds * 8)

    def reconstruct():
        # The exact oracle enumerates 2^|ancestors| factor worlds for each of
        # a node's 2^|parents| cells; programs are drawn until their work
        # lands in the next stratum, which pins the request's time to about
        # 13%, where the worlds alone pin it to 23% and n alone far less.
        stratum = next(work_strata)
        while True:
            prog = F.layered(rng, int(rng.integers(6, 19)), positive=True)
            cells = sum(1 << len(prog.parents(i)) for i in range(prog.n))
            worlds = sum(1 << (len(prog.parents(i)) + len(prog.ancestors([i])))
                         for i in range(prog.n))
            if ((worlds + CELL_WORLDS * cells) ** 4).bit_length() - 1 == stratum:
                break
        graph = w.program(prog.edges_text(), ".edges")
        out = w.path("out", ".pl")
        argv = ["reconstruct", "--hidden", w.program(prog.text()), "--graph", graph, "-o", out]
        return {"kind": "reconstruct", "argv": argv, "cells": cells,
                "check": {"clauses": _clause_list(prog.clause_map()),
                          "tolerance": RECONSTRUCT_TOL, "output": out}}

    requests = []
    for _ in range(rounds):
        level = levels[next(rows)]
        entry = level[int(rng.integers(0, len(level)))]
        program = w.program(entry["program"])
        graph = w.program(entry["graph"], ".edges")
        csv = w.path("out", ".csv")
        learned = w.path("out", ".pl")
        pair = [
            {"kind": "sample", "argv": ["sample", program, "-n", str(entry["rows"]),
                                        "--seed", str(entry["seed"]), "-o", csv],
             "check": {"sha256": entry["sha256"], "output": csv}},
            # The CSV is deleted once learned, so its pages never need writing
            # back to disk while later requests are timed.
            {"kind": "learn", "argv": ["learn", "--data", csv, "--graph", graph, "-o", learned],
             "check": {"clauses": entry["learned"], "tolerance": LEARN_TOL, "output": learned},
             "delete": csv},
        ]
        recon = [reconstruct() for _ in range(8)]
        requests += recon[:4] + pair[:1] + recon[4:] + pair[1:]
    return requests


BUILDERS = {"exact": build_exact, "counterfactual": build_counterfactual,
            "recover": build_recover}


def build(workload: str, seed: int, workdir: str, brute) -> list[dict]:
    rng = np.random.default_rng([seed % (1 << 63), sorted(BUILDERS).index(workload)])
    return BUILDERS[workload](rng, _Writer(workdir, brute))

"""Writes ``recover_pool.json``: the stored expectations for ``sample`` and
``learn`` in the ``recover`` workload.

Each entry is a 12-node learnable program (drawn by ``random_learnable_program``
from ``tests/proggen.py``, which conditions the draw so every structure is
recoverable from samples), a row count, a sampling seed, the SHA-256 of the
CSV that ``causalog sample`` writes, and the clauses ``causalog learn``
recovers from it. A run checks its own output against these, so the pool is
regenerated only on purpose, at a commit whose sampling and learning are
trusted. Row counts are eight levels evenly spaced
from 50k to 64k, with five programs at each; a ``recover`` request list
samples every level twice. The 90th percentile of that workload falls among
these requests, so a narrow band keeps it steady, and rows at the low end of
the 50k-200k range keep a pass over the list short enough to repeat:

    python3 bench/make_pool.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

import clauses  # noqa: E402
import proggen  # noqa: E402
from causalog import cli  # noqa: E402

PROGRAMS_PER_LEVEL = 5
ROWS = [rows for rows in range(50_000, 66_000, 2_000) for _ in range(PROGRAMS_PER_LEVEL)]
NODES = 12


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"causalog {' '.join(argv)} failed")


def _entry(rng, rows: int, paths: dict[str, str]) -> dict | None:
    """One pool entry, or None when the draw does not fit: the program has
    fewer nodes, or finite samples did not pin its structure down."""
    program = proggen.random_learnable_program(rng, max_nodes=NODES, max_parents=2)
    if len(program.propositions) != NODES:
        return None
    seed = int(rng.integers(0, 1 << 31))
    text = program.to_text()
    graph = program.dependency_graph().to_edge_list()
    for key, content in (("p.pl", text), ("g.edges", graph)):
        with open(paths[key], "w", encoding="utf-8") as handle:
            handle.write(content)
    _cli(["sample", paths["p.pl"], "-n", str(rows), "--seed", str(seed), "-o", paths["d.csv"]])
    try:
        _cli(["learn", "--data", paths["d.csv"], "--graph", paths["g.edges"],
              "-o", paths["out.pl"]])
    except RuntimeError:
        return None
    with open(paths["d.csv"], "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    with open(paths["out.pl"], encoding="utf-8") as handle:
        learned = clauses.parse(handle.read())
    return {"program": text, "graph": graph, "rows": rows, "seed": seed, "sha256": digest,
            "learned": sorted([h, sorted([a, pos] for a, pos in body), p]
                              for (h, body), p in learned.items())}


def main() -> int:
    rng = np.random.default_rng(20230830)
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {k: os.path.join(tmp, k) for k in ("p.pl", "g.edges", "d.csv", "out.pl")}
        for rows in ROWS:
            entry = None
            while entry is None:
                entry = _entry(rng, rows, paths)
            entries.append(entry)
            print(f"rows {rows}: {len(entry['learned'])} clauses learned", file=sys.stderr)
    with open(os.path.join(HERE, "recover_pool.json"), "w", encoding="utf-8") as handle:
        json.dump({"generator": "bench/make_pool.py", "entries": entries}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

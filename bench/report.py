"""Frontier and baseline report; informational, never gated.

    python3 bench/report.py

For every query kind on the ``layered`` and ``chain`` families, the frontier
is the largest n the CLI answers under the default enumeration cap in under
one second (program and query conventions as in ROADMAP's baseline: query
the last node; condition on ``n0`` false; intervene ``do(n0)``; the
counterfactual observes ``n0`` false and the last node true). Near one second
the frontier is a step that moves with machine noise, which is why it is not
among the gated metrics. The baseline points repeat ROADMAP's hand-measured
numbers through the benchmark's own families, median of three. Times are in
seconds, printed and written to ``bench/.work/report.json`` with the CPU count and the
Python and numpy versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import families as F  # noqa: E402
from causalog import (  # noqa: E402
    Dataset, DependencyGraph, ExactOracle, cli, forward_sample, joint_table, learn,
    parse_program, reconstruct,
)

LIMIT_S = 1.0
MAX_N = 40
KINDS = {
    "observational": lambda last: [],
    "conditional": lambda last: ["--given", "\\+n0"],
    "interventional": lambda last: ["--do", "n0"],
    "counterfactual": lambda last: ["--given", f"\\+n0,{last}", "--do", "n0"],
}
FAMILIES = {"layered": F.layered, "chain": F.chain}


def _cli_seconds(argv: list[str]) -> float | None:
    """Wall time of one in-process CLI call, or None when it fails."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return time.perf_counter() - start if code == 0 else None


def frontier(family: str, kind: str, tmp: str) -> dict:
    best, stop = None, "reached the size limit"
    for n in range(2, MAX_N + 1):
        path = os.path.join(tmp, f"{family}-{n}.pl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(FAMILIES[family](np.random.default_rng(n), n).text())
        last = f"n{n - 1}"
        took = _cli_seconds(["query", path, "--prob", last, *KINDS[kind](last)])
        if took is None:
            stop = f"refused at n={n}"
            break
        if took >= LIMIT_S:
            stop = f"n={n} took {took:.2f} s"
            break
        best = (n, took)
    return {"n": best[0] if best else None, "seconds": best[1] if best else None, "stop": stop}


def _median_seconds(fn, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def baseline(tmp: str) -> dict:
    out = {}
    layered22 = parse_program(F.layered(np.random.default_rng(22), 22).text())
    path = os.path.join(tmp, "layered22.pl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(layered22.to_text())
    out["CLI probability, layered n=22, in-process"] = _median_seconds(
        lambda: _cli_seconds(["query", path, "--prob", "n21"]))
    hidden = F.layered(np.random.default_rng(22), 22, positive=True)
    program, graph = parse_program(hidden.text()), DependencyGraph.parse(hidden.edges_text())
    out["reconstruct, positive layered n=22"] = _median_seconds(
        lambda: reconstruct(ExactOracle(program), graph), repeat=1)
    table16 = parse_program(F.layered(np.random.default_rng(16), 16).text())
    out["joint_table, 16 nodes"] = _median_seconds(lambda: joint_table(table16))
    with open(os.path.join(HERE, "recover_pool.json"), encoding="utf-8") as handle:
        entry = json.load(handle)["entries"][0]
    source = parse_program(entry["program"])
    rows = 200_000
    data = forward_sample(source, rows, entry["seed"])
    csv = os.path.join(tmp, "rows.csv")
    out["forward_sample, 200k rows x 12"] = _median_seconds(
        lambda: forward_sample(source, rows, entry["seed"]))
    out["to_csv, 200k rows x 12"] = _median_seconds(lambda: data.to_csv(csv))
    out["from_csv, 200k rows x 12"] = _median_seconds(lambda: Dataset.from_csv(csv))
    dag = DependencyGraph.parse(entry["graph"])
    out["learn, 200k rows x 12"] = _median_seconds(lambda: learn(data, dag))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    fixture = os.path.join(ROOT, "fixtures", "recovery_boost.pl")
    argv = [sys.executable, "-m", "causalog", "query", fixture, "--prob", "recovery",
            "--given", "\\+treatment,recovery", "--do", "treatment"]
    if os.path.isfile(fixture):
        out["CLI counterfactual on the fixture, fresh process"] = _median_seconds(
            lambda: subprocess.run(argv, env=env, check=True, capture_output=True), repeat=5)
    return out


def main() -> int:
    report = {"machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__, "platform": platform.platform()},
              "frontier_under_1s": {}, "baseline": {}}
    print(f"machine: {report['machine']}")
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
        for family in FAMILIES:
            for kind in KINDS:
                result = frontier(family, kind, tmp)
                report["frontier_under_1s"][f"{family}.{kind}"] = result
                print(f"frontier {family:8s} {kind:15s} n={result['n']} "
                      f"({result['seconds'] or 0:.3f} s; next: {result['stop']})")
        report["baseline"] = baseline(tmp)
    for name, seconds in report["baseline"].items():
        print(f"baseline {name}: {seconds:.4f} s")
    with open(os.path.join(HERE, ".work", "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""causalog benchmark: one workload, one seed, one time box.

    python3 bench/run.py --workload exact --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; ``src/causalog`` is imported from there, so
nothing needs building. The run

1. builds the workload's request list from the seed (``workloads.py``) under
   ``bench/.work/<workload>/``, with every expected answer, and checks the
   reference against the brute-force enumeration of ``tests/oracles.py`` on
   every program small enough for it;
2. runs the request list in passes in a worker process (``worker.py``), so
   that the peak resident memory is the workload's own; a request's latency
   is the median over the passes that reached it, which a second-long stall
   of the machine does not move;
3. times fresh interpreters, one at a time, half before and half after the
   requests: ``setup_s`` is the median time of
   ``python -c "import causalog"``, what every CLI call pays before its
   request starts;
4. prints one ``name value unit`` line per metric and, as the last line, a
   JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
   the end-to-end metrics with ``--trace 0``, the per-layer table with
   ``--trace 1``.

Every time behind a gated metric is corrected to the reference speed of
``speed.py`` from a probe run just before and just after it, because the
shared host's own speed swings by more than the bounds between runs; the
wall-clock figures are printed beside them. A request that failed in any
pass (non-zero exit, exception, refusal or wrong answer) counts as an
infinite latency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 10
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy; "
                "t1 = time.perf_counter(); import causalog; t2 = time.perf_counter(); "
                "print(t1 - t0, t2 - t1)")



def _launch(code: str) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=60)
    return time.perf_counter() - start, done.stdout


def _import_seconds() -> tuple[float, float]:
    """Wall and corrected time of one fresh ``import causalog``."""
    before = speed.probe()
    wall = _launch("import causalog")[0]
    return wall, speed.corrected(wall, before, speed.probe())


def setup_samples(traced: bool, count: int) -> list[tuple[float, ...]]:
    """``count`` fresh interpreters, launched one after another: the wall
    and corrected times of ``import causalog`` or, traced, the wall time of
    an empty interpreter plus the import times of numpy and of causalog
    measured inside another one."""
    if not traced:
        return [_import_seconds() for _ in range(count)]
    return [(_launch("pass")[0], *map(float, _launch(IMPORT_PROBE)[1].split()))
            for _ in range(count)]


def setup_metrics(traced: bool, samples: list[tuple[float, ...]]) -> dict[str, float]:
    columns = [statistics.median(column) for column in zip(*samples)]
    if not traced:
        return {"setup_s": columns[1], "wall.setup_s": columns[0]}
    return {"setup.interpreter_ms": columns[0] * 1e3,
            "setup.numpy_import_ms": columns[1] * 1e3,
            "setup.causalog_import_ms": columns[2] * 1e3}


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) distribution, which
    unlike a single rank does not jump when a seed moves a few requests
    across a gap between size strata. Infinite values (failures) sort last
    and make the estimate infinite unless their weight is below 1e-12."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 100_001)
    inner = grid[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    pdf = np.concatenate([[0.0], np.exp(log_pdf - log_pdf.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    keep = weights > 1e-12
    return float(weights[keep] @ x[keep])


def _timings(latencies: list[list[float]], ok: list[bool]) -> dict[str, float]:
    """Throughput and latency percentiles over the requests of the list, each
    at its median latency: ``requests_per_s`` is the correct requests of one
    pass divided by the time the pass takes at those latencies."""
    typical = [statistics.median(x) for x in latencies]
    lat = [x if good else math.inf for x, good in zip(typical, ok)]
    return {"requests_per_s": sum(ok) / sum(typical),
            "latency_p50_ms": quantile(lat, 0.5) * 1e3,
            "latency_p90_ms": quantile(lat, 0.9) * 1e3}


def end_to_end(result: dict) -> dict[str, float]:
    """The gated metrics from the corrected latencies, and the same timings
    from the wall latencies under ``wall.``."""
    metrics = _timings(result["corrected"], result["ok"])
    metrics.update({f"wall.{name}": value
                    for name, value in _timings(result["latencies"], result["ok"]).items()})
    metrics["success_ratio"] = 1 - result["failed"] / result["executions"]
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "causalog", "__init__.py")):
        print(f"error: no causalog sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import reference_check
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(workloads.BUILDERS))}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    brute = reference_check.BruteForce()
    brute.calibrate(args.seed)
    requests = workloads.build(args.workload, args.seed, workdir, brute)
    with open(os.path.join(workdir, "requests.json"), "w", encoding="utf-8") as handle:
        json.dump(requests, handle)
    for problem in brute.problems:
        print(f"reference check: {problem}", file=sys.stderr)

    # Half the launches before the requests and half after, so that they see
    # the machine at two moments; the first launch writes the bytecode cache
    # and is dropped.
    _launch("import causalog")
    samples = setup_samples(bool(args.trace), SETUP_LAUNCHES // 2)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), workdir,
                    str(args.seconds), str(args.trace)],
                   cwd=ROOT, check=True, timeout=max(150.0, 4 * args.seconds))
    samples += setup_samples(bool(args.trace), SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    metrics = setup_metrics(bool(args.trace), samples)
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)
    metrics.update(result["per_layer"] if args.trace else end_to_end(result))
    for problem in result["errors"][:10]:
        print(f"failed: {problem}", file=sys.stderr)

    attempted, failed = result["executions"], result["failed"]
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests, "
          f"{attempted} executions ({', '.join(f'{k} {v}' for k, v in sorted(result['kinds'].items()))}), "
          f"failed_ratio {failed / attempted:.6g}")
    # BENCHMARK.json names every metric and its unit; a run reports exactly those.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        table = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table}
    for name, entry in out.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
        if f"wall.{name}" in metrics:
            print(f"  wall clock, uncorrected: {metrics[f'wall.{name}']:.6g} {entry['unit']}")
    print(f"reference answers checked by brute force: {brute.checked}")
    print(json.dumps({"correct": failed == 0 and not brute.problems,
                      "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

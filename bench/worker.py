"""Runs one workload's request list in-process and checks every answer.

Usage: ``python3 bench/worker.py WORKDIR SECONDS TRACE``. Reads
``WORKDIR/requests.json`` (written by ``run.py``) and writes
``WORKDIR/result.json``.

One client, closed loop: each request is issued only after the previous one
returned and was checked. Requests go through ``causalog.cli.main(argv)``
(or, for ``joint_table``, the library) with stdout and stderr captured; a
request's latency is the time inside that call, and the harness's own
checking is not part of it. With TRACE 0 the list is run in passes until
SECONDS have passed; the first pass always completes, so every request has
at least one latency, and each later pass takes every request at another
moment of the run. The speed probe of ``speed.py`` runs between every two
executions, outside the latencies. With TRACE 1 the list runs once, each request twice, once
untraced and once with the tracing wrappers installed, giving the per-layer
table and the tracing overhead; the spans go to ``WORKDIR/spans.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import clauses  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from causalog import cli, engine, parser  # noqa: E402

ANSWER_TOL = 1e-9  # query answers and joint-table cells against the reference


def execute(req: dict):
    """Run one request; returns (latency in s, outcome). The outcome is the
    captured stdout, the library result, or an error string."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in req:
                code = cli.main(req["argv"])
            else:
                with open(req["file"], encoding="utf-8") as handle:
                    result = engine.joint_table(parser.parse_program(handle.read()))
                code = 0
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is a failed request
        code = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if code != 0:
        return latency, f"error: exit {code}: {err.getvalue().strip()[:300]}"
    return latency, (out.getvalue() if "argv" in req else result)


def check(req: dict, outcome) -> str | None:
    """None when the answer is right, else what is wrong."""
    if isinstance(outcome, str) and outcome.startswith("error:"):
        return outcome
    want = req["check"]
    if "probability" in want:
        got = json.loads(outcome)["result"]["probability"]
        if abs(got - want["probability"]) > ANSWER_TOL:
            return f"probability {got!r}, expected {want['probability']!r}"
    elif "validate" in want:
        got = json.loads(outcome)["result"]
        wrong = {k: got.get(k) for k, v in want["validate"].items() if got.get(k) != v}
        if wrong:
            return f"validate reported {wrong}"
    elif "joint" in want:
        expected = np.load(want["joint"])
        keys = np.array(list(outcome.cells.keys()), dtype=bool).reshape(len(outcome.cells), -1)
        index = keys.astype(np.int64) @ (np.int64(1) << np.arange(keys.shape[1], dtype=np.int64))
        got = np.zeros(len(expected))
        if len(index) != len(expected) or list(outcome.columns) != sorted(outcome.columns):
            return f"joint table of {len(index)} cells over {outcome.columns}"
        got[index] = np.fromiter(outcome.cells.values(), dtype=float, count=len(index))
        worst = float(np.max(np.abs(got - expected)))
        if worst > ANSWER_TOL:
            return f"joint table cell off by {worst!r}"
    elif "sha256" in want:
        with open(want["output"], "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if digest != want["sha256"]:
            return f"sample sha256 {digest}, expected {want['sha256']}"
    elif "clauses" in want:
        with open(want["output"], encoding="utf-8") as handle:
            got = clauses.parse(handle.read())
        return clauses.compare(got, clauses.from_list(want["clauses"]), want["tolerance"])
    elif "twin" in want:
        with open(want["output"], encoding="utf-8") as handle:
            got = clauses.twin_lines(clauses.parse(handle.read()))
        if got != want["twin"]:
            return "twin export differs from the expected clause set"
    return None


def attempt(req: dict) -> tuple[float, str | None]:
    """Latency and problem of one request. The answer is dropped before the
    next request starts, as it would be when the CLI process exits."""
    latency, outcome = execute(req)
    return latency, check(req, outcome)


def _cleanup(req: dict) -> None:
    """Remove the file a request has finished with (a learned CSV)."""
    if "delete" in req and os.path.exists(req["delete"]):
        os.remove(req["delete"])


def run(requests: list[dict], seconds: float) -> dict:
    """Passes over the list until ``seconds`` have passed, finishing the first
    pass whatever the time. ``latencies[k]`` lists request ``k``'s wall
    latencies, one per pass that reached it, and ``corrected[k]`` the same
    at the reference speed of ``speed.py``, from the probes run just before
    and just after each execution; ``ok[k]`` is false if any of them
    failed."""
    deadline = time.perf_counter() + seconds
    latencies: list[list[float]] = [[] for _ in requests]
    corrected: list[list[float]] = [[] for _ in requests]
    before = speed.probe()
    ok = [True] * len(requests)
    errors: list[str] = []
    executions = failed = 0
    while executions < len(requests) or time.perf_counter() < deadline:
        k = executions % len(requests)
        latency, problem = attempt(requests[k])
        _cleanup(requests[k])
        after = speed.probe()
        latencies[k].append(latency)
        corrected[k].append(speed.corrected(latency, before, after))
        before = after
        executions += 1
        if problem is not None:
            ok[k] = False
            failed += 1
            errors.append(_describe(requests[k], problem))
    return {"latencies": latencies, "corrected": corrected, "ok": ok,
            "executions": executions, "failed": failed,
            "errors": errors, "kinds": _kinds(requests, executions),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _kinds(requests: list[dict], executions: int) -> dict[str, int]:
    """Executions per request kind when ``executions`` requests have been
    run in passes over ``requests``."""
    kinds: dict[str, int] = {}
    for i in range(executions):
        kind = requests[i % len(requests)]["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
    return kinds


def _describe(req: dict, problem: str) -> str:
    return f"{req['kind']} {req.get('argv', req.get('file'))}: {problem}"


def run_traced(requests: list[dict], workdir: str) -> dict:
    """Every request, run once untraced and once traced. Which goes first
    alternates between successive requests of one kind, so that neither side
    of any kind always runs second."""
    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)
    walls = {False: 0.0, True: 0.0}
    seen: dict[str, int] = {}
    failed, errors, cells = 0, [], 0
    for i, req in enumerate(requests):
        seen[req["kind"]] = seen.get(req["kind"], 0) + 1
        for traced in ((False, True) if seen[req["kind"]] % 2 else (True, False)):
            if traced:
                tracer.request = i
                patch.apply()
            try:
                latency, problem = attempt(req)
            finally:
                patch.revert()
            walls[traced] += latency
            if problem is not None:
                failed += 1
                errors.append(_describe(req, problem))
        _cleanup(req)
        cells += req.get("cells", 0)
    with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "request", "info"],
                   "spans": tracer.spans}, handle)
    per_layer = tracing.per_layer(tracer.spans, cells)
    per_layer["trace.overhead_ratio"] = walls[True] / walls[False]
    kinds = {kind: 2 * count for kind, count in _kinds(requests, len(requests)).items()}
    return {"executions": 2 * len(requests), "failed": failed, "errors": errors,
            "kinds": kinds, "per_layer": per_layer}


def main(argv: list[str]) -> int:
    workdir, seconds, traced = argv[0], float(argv[1]), argv[2] == "1"
    with open(os.path.join(workdir, "requests.json"), encoding="utf-8") as handle:
        requests = json.load(handle)
    execute(requests[0])  # first-call set-up inside argparse and numpy
    if traced:
        result = run_traced(requests, workdir)
    else:
        result = run(requests, seconds)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's tracer over the package it wraps.

``bench/tracing.py`` wraps causalog's functions and methods by name, so a
rename of one it wraps would otherwise first show as a failed or silently
zero ``bench/run.py --trace 1``. These tests install the tracer over
in-process CLI calls and read its per-layer table.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from causalog import cli

ROOT = Path(__file__).resolve().parent.parent
BOOST = str(ROOT / "fixtures" / "recovery_boost.pl")
EDGES = str(ROOT / "fixtures" / "recovery.edges")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_query_through_the_engine():
    tracing = _tracing()
    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)
    main = cli.main
    requests = [
        ["--given", r"\+treatment,recovery", "--do", "treatment"],
        ["--do", "treatment"],
        ["--given", "treatment"],
    ]
    for i, flags in enumerate(requests):
        tracer.request = i
        patch.apply()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["query", BOOST, "--prob", "recovery", *flags, "--json"]) == 0
        finally:
            patch.revert()
    assert cli.main is main
    layers = tracing.per_layer(tracer.spans, 0)
    assert layers["cli.calls"] == len(requests)
    # each query makes one traced engine call, the counterfactual's under
    # causal.counterfactual_query
    assert layers["engine.calls"] == layers["cli.calls"]
    assert layers["engine.worlds"] > 0
    assert layers["causal.worlds"] > 0


def test_tracer_sees_the_modules_the_handlers_import(tmp_path):
    # sample, learn and reconstruct import learning and reconstruction when
    # they run, so the names they take must be the wrapped ones
    tracing = _tracing()
    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)
    rows = str(tmp_path / "rows.csv")
    requests = [
        ["sample", BOOST, "-n", "2000", "--seed", "7", "-o", rows],
        ["learn", "--data", rows, "--graph", EDGES],
        ["reconstruct", "--hidden", BOOST, "--graph", EDGES],
    ]
    for i, argv in enumerate(requests):
        tracer.request = i
        patch.apply()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        finally:
            patch.revert()
    layers = tracing.per_layer(tracer.spans, 0)
    assert layers["cli.calls"] == len(requests)
    for name in ("learning.sample_ms", "learning.csv_write_ms", "learning.csv_read_ms",
                 "reconstruction.self_ms"):
        assert layers[name] > 0, name

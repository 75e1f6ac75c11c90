"""End-to-end tests of the command line, run as real subprocesses.

The final test group executes every console example in README.md and compares
stdout exactly, so the documentation cannot drift from the behavior.
"""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from causalog import cli, parse_program

ROOT = Path(__file__).resolve().parent.parent

BOOST = "fixtures/recovery_boost.pl"
SWITCH = "fixtures/recovery_switch.pl"
EDGES = "fixtures/recovery.edges"


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "causalog", *args],
                          capture_output=True, text=True, cwd=str(cwd))


def same_clauses(text_a, text_b, tol):
    a = {(c.effect, c.causes): c.probability
         for c in parse_program(text_a).clauses}
    b = {(c.effect, c.causes): c.probability
         for c in parse_program(text_b).clauses}
    assert set(a) == set(b)
    for key, value in b.items():
        assert a[key] == pytest.approx(value, abs=tol)


# --- query ----------------------------------------------------------------------


def test_counterfactual_example():
    result = run_cli("query", BOOST, "--prob", "recovery",
                     "--given", r"\+treatment,recovery", "--do", "treatment")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1.000000\n"
    assert result.stderr == ""


def test_interventional_example():
    result = run_cli("query", BOOST, "--prob", "recovery", "--do", "treatment")
    assert result.returncode == 0
    assert result.stdout == "0.700000\n"


def test_switch_counterfactual_differs():
    result = run_cli("query", SWITCH, "--prob", "recovery",
                     "--given", r"\+treatment,recovery", "--do", "treatment")
    assert result.stdout == "0.700000\n"


def test_observational_and_conditional():
    assert run_cli("query", BOOST, "--prob", "recovery").stdout == "0.600000\n"
    given = run_cli("query", BOOST, "--prob", "recovery", "--given", r"\+treatment")
    assert given.stdout == "0.500000\n"


def test_precision_flag():
    result = run_cli("query", BOOST, "--prob", "recovery", "--do", "treatment",
                     "--precision", "2")
    assert result.stdout == "0.70\n"
    result = run_cli("query", BOOST, "--prob", "recovery", "--do", "treatment",
                     "--precision", "9")
    assert result.stdout == "0.700000000\n"


def test_query_json_schema():
    result = run_cli("query", BOOST, "--prob", "recovery", "--do", "treatment",
                     "--json")
    payload = json.loads(result.stdout)
    assert set(payload) == {"command", "inputs", "result", "diagnostics"}
    assert payload["command"] == "query"
    assert payload["inputs"]["kind"] == "interventional"
    assert payload["result"]["probability"] == pytest.approx(0.7, abs=1e-9)
    assert payload["diagnostics"] == []


def test_given_plus_do_dispatches_counterfactually():
    result = run_cli("query", BOOST, "--prob", "recovery",
                     "--given", r"\+treatment,recovery", "--do", "treatment",
                     "--json")
    payload = json.loads(result.stdout)
    assert payload["inputs"]["kind"] == "counterfactual"
    assert payload["result"]["probability"] == pytest.approx(1.0, abs=1e-9)


def test_max_worlds_flag():
    result = run_cli("query", BOOST, "--prob", "recovery", "--max-worlds", "1")
    assert result.returncode == 1
    assert result.stderr.startswith("error[cap]:")


# --- validate -------------------------------------------------------------------


def test_validate_text():
    result = run_cli("validate", BOOST)
    assert result.returncode == 0
    assert "acyclic: yes" in result.stdout
    assert "positive: yes" in result.stdout
    switch = run_cli("validate", SWITCH)
    assert switch.returncode == 0  # the report is the product, not a verdict
    assert "positive: no" in switch.stdout


def test_validate_json_and_strict():
    lenient = json.loads(run_cli("validate", SWITCH, "--json").stdout)
    assert set(lenient) == {"command", "inputs", "result", "diagnostics"}
    report = lenient["result"]
    assert set(report) == {"acyclic", "positive", "proper_normal_form",
                           "diagnostics"}
    assert report["acyclic"] is True
    assert report["positive"] is False
    assert report["proper_normal_form"] is True
    strict = json.loads(run_cli("validate", SWITCH, "--strict", "--json").stdout)
    assert strict["result"]["proper_normal_form"] is False


# --- graph ----------------------------------------------------------------------


def test_graph_formats(tmp_path):
    assert run_cli("graph", BOOST).stdout == "treatment recovery\n"
    dot = run_cli("graph", BOOST, "--format", "dot").stdout
    assert dot == "digraph g {\n  treatment -> recovery;\n}\n"
    out = tmp_path / "g.edges"
    result = run_cli("graph", BOOST, "-o", str(out))
    assert result.stdout == ""
    assert out.read_text() == "treatment recovery\n"


# --- sample / learn -------------------------------------------------------------


def test_sample_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    result = run_cli("sample", BOOST, "-n", "50", "--seed", "3",
                     "-o", str(out), "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["result"]["rows"] == 50
    assert payload["result"]["columns"] == ["recovery", "treatment"]
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# provenance:")
    assert lines[1] == "recovery,treatment"
    assert len(lines) == 52


def test_sample_then_learn(tmp_path):
    out = tmp_path / "rows.csv"
    assert run_cli("sample", BOOST, "-n", "5000", "--seed", "17",
                   "-o", str(out)).returncode == 0
    learned = run_cli("learn", "--data", str(out), "--graph", EDGES)
    assert learned.returncode == 0, learned.stderr
    same_clauses(learned.stdout, (ROOT / BOOST).read_text(), tol=0.05)


def test_learn_reports_starved_nodes(tmp_path):
    rare = tmp_path / "rare.pl"
    rare.write_text("0.02 :: a.\n0.5 :: b :- a.\n")
    graph = tmp_path / "rare.edges"
    graph.write_text("a b\n")
    rows = tmp_path / "rows.csv"
    assert run_cli("sample", str(rare), "-n", "100", "--seed", "5",
                   "-o", str(rows)).returncode == 0
    result = run_cli("learn", "--data", str(rows), "--graph", str(graph))
    assert result.returncode == 1
    assert "b: error[starved]:" in result.stderr
    assert "error[reconstruction]: could not recover: b" in result.stderr


# --- reconstruct ----------------------------------------------------------------


def test_reconstruct_round_trip():
    result = run_cli("reconstruct", "--hidden", BOOST, "--graph", EDGES)
    assert result.returncode == 0
    same_clauses(result.stdout, (ROOT / BOOST).read_text(), tol=1e-9)


def test_reconstruct_normalizes_negation():
    # the switch program is not positive; its oracle is reproduced by the
    # positive boost program, which is what comes back
    result = run_cli("reconstruct", "--hidden", SWITCH, "--graph", EDGES)
    assert result.returncode == 0
    same_clauses(result.stdout, (ROOT / BOOST).read_text(), tol=1e-9)


def test_reconstruct_to_file(tmp_path):
    out = tmp_path / "recovered.pl"
    result = run_cli("reconstruct", "--hidden", BOOST, "--graph", EDGES,
                     "-o", str(out), "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["result"]["ok"] is True
    assert set(payload["result"]["nodes"]) == {"recovery", "treatment"}
    same_clauses(out.read_text(), (ROOT / BOOST).read_text(), tol=1e-9)


# --- twin export ----------------------------------------------------------------

TWIN_TEXT = """\
0.5 :: u1.
0.5 :: u2.
0.4 :: u3.
1.0 :: treatment__e :- u1.
1.0 :: recovery__e :- u2.
1.0 :: recovery__i :- u2.
1.0 :: recovery__e :- treatment__e, u3.
1.0 :: recovery__i :- treatment__i, u3.
1.0 :: treatment__i.
"""


def test_twin_export_stdout():
    result = run_cli("twin-export", BOOST, "--do", "treatment")
    assert result.returncode == 0
    assert result.stdout == TWIN_TEXT


def test_twin_export_replays_queries(tmp_path):
    out = tmp_path / "twin.pl"
    assert run_cli("twin-export", BOOST, "--do", "treatment",
                   "-o", str(out)).returncode == 0
    # the exported file is an ordinary program: the intervened copy carries
    # the do-probability, the evidence copy the observational one
    intervened = run_cli("query", str(out), "--prob", "recovery__i")
    assert intervened.stdout == "0.700000\n"
    observed = run_cli("query", str(out), "--prob", "recovery__e")
    assert observed.stdout == "0.600000\n"


# --- failure modes --------------------------------------------------------------


def test_missing_file():
    result = run_cli("query", "no_such_file.pl", "--prob", "recovery")
    assert result.returncode == 1
    assert result.stderr.startswith("error[io]:")
    assert result.stdout == ""


def test_parse_error(tmp_path):
    bad = tmp_path / "bad.pl"
    bad.write_text("0.5 :: :- a.\n")
    result = run_cli("validate", str(bad))
    assert result.returncode == 1
    assert result.stderr.startswith("error[parse]:")


def test_unknown_atom():
    result = run_cli("query", BOOST, "--prob", "cure")
    assert result.returncode == 1
    assert result.stderr.startswith("error[formula]:")


def test_zero_probability_evidence(tmp_path):
    sure = tmp_path / "sure.pl"
    sure.write_text("1 :: a.\n0.5 :: b :- a.\n")
    result = run_cli("query", str(sure), "--prob", "b", "--given", r"\+a")
    assert result.returncode == 1
    assert result.stderr.startswith("error[zero-evidence]:")


def test_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("query", BOOST).returncode == 2  # --prob is required


@pytest.mark.parametrize("argv, flag", [
    (["query", BOOST, "--prob", "recovery", "--precision", "-1"], "--precision"),
    (["sample", BOOST, "-n", "3", "--seed", "-1", "-o", "unused.csv"], "--seed"),
    (["sample", BOOST, "-n", "3", "--seed", str(1 << 128), "-o", "unused.csv"],
     "--seed"),
    (["query", BOOST, "--prob", "recovery", "--max-worlds", "0"], "--max-worlds"),
    (["query", BOOST, "--prob", "recovery", "--max-worlds", "-5"], "--max-worlds"),
])
def test_out_of_range_arguments_are_usage_errors(argv, flag, capsys, monkeypatch):
    # in-process, so a traceback would surface as an uncaught exception here
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err
    assert not (ROOT / "unused.csv").exists()


def test_cyclic_program_is_an_error(tmp_path, capsys):
    path = tmp_path / "cycle.pl"
    path.write_text("0.5 :: a :- b.\n0.5 :: b :- a.\n")
    assert cli.main(["query", str(path), "--prob", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[cycle]:")
    assert "Traceback" not in captured.err


# --- README examples ------------------------------------------------------------


def readme_blocks():
    """Console blocks from the README: lists of (command, expected stdout)."""
    text = (ROOT / "README.md").read_text()
    blocks = []
    for block in re.findall(r"```console\n(.*?)```", text, re.DOTALL):
        lines = block.splitlines()
        steps = []
        i = 0
        while i < len(lines):
            assert lines[i].startswith("$ "), f"console line {lines[i]!r}"
            command = lines[i][2:]
            i += 1
            out = []
            while i < len(lines) and not lines[i].startswith("$ "):
                out.append(lines[i])
                i += 1
            steps.append((command, "".join(f"{l}\n" for l in out)))
        blocks.append(steps)
    return blocks


@pytest.mark.parametrize("steps", readme_blocks(),
                         ids=lambda steps: steps[0][0][:60])
def test_readme_console_examples(steps):
    for command, expected in steps:
        argv = shlex.split(command)
        assert argv[:3] == ["python", "-m", "causalog"], command
        result = subprocess.run([sys.executable, *argv[1:]],
                                capture_output=True, text=True, cwd=str(ROOT))
        assert result.returncode == 0, (command, result.stderr)
        assert result.stdout == expected, command

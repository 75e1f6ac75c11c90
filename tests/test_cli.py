"""End-to-end tests of the command line, run as real subprocesses.

The final test group executes every console example in README.md and compares
stdout exactly, so the documentation cannot drift from the behavior.
"""

import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from causalog import cli, learning, parse_program, reconstruction

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


def test_repeated_literal_flags_add_up(capsys, monkeypatch):
    # every --given and --do counts, as if their literals were one list
    monkeypatch.chdir(ROOT)
    query = ["query", SWITCH, "--prob", "recovery", "--json"]
    pairs = [
        (["--given", r"\+treatment", "--given", "recovery"],
         ["--given", r"\+treatment,recovery"]),
        (["--do", "treatment", "--do", r"\+recovery"],
         ["--do", r"treatment,\+recovery"]),
        (["--given", "recovery", "--do", "treatment", "--given", r"\+treatment"],
         ["--given", r"recovery,\+treatment", "--do", "treatment"]),
    ]
    for repeated, joined in pairs:
        (code, out, err), want = calls([query + repeated, query + joined], capsys)
        assert (code, err) == (0, "") and (code, out, err) == want
    payload = json.loads(calls([query + pairs[2][0]], capsys)[0][1])
    assert payload["inputs"]["given"] == r"recovery,\+treatment"
    assert payload["inputs"]["do"] == "treatment"
    assert payload["inputs"]["kind"] == "counterfactual"
    # a proposition bound twice across flags is the error it is within one
    for flags in (["--given", "treatment", "--given", r"\+treatment"],
                  ["--do", "treatment", "--do", "treatment"]):
        code, out, err = calls([query + flags], capsys)[0]
        assert (code, out) == (1, "")
        assert err.startswith("error[parse]: ") and "treatment assigned twice" in err
    export = ["twin-export", BOOST, "--do", "treatment"]
    twice, once, clash = calls([export + ["--do", r"\+recovery"],
                                ["twin-export", BOOST, "--do", r"treatment,\+recovery"],
                                export + ["--do", "treatment"]], capsys)
    assert twice == once and twice[0] == 0
    assert clash[0] == 1 and "treatment assigned twice" in clash[2]


def test_empty_literal_lists_are_parse_errors(capsys, monkeypatch):
    # an empty --given or --do is malformed, as ',' is, rather than a flag
    # dropped so that the query runs as another kind
    monkeypatch.chdir(ROOT)
    query = ["query", BOOST, "--prob", "recovery"]
    for argv in (query + ["--given", ""], query + ["--do", ""],
                 query + ["--given", "", "--do", "treatment"],
                 query + ["--given", "treatment", "--do", " ", "--json"],
                 ["twin-export", BOOST, "--do", ""]):
        code, out, err = calls([argv], capsys)[0]
        assert (code, out) == (1, ""), argv
        assert err.startswith("error[parse]: line 1, column "), (argv, err)
        assert err.endswith("expected a proposition, got 'end of input'\n"), (argv, err)


def test_max_worlds_flag():
    result = run_cli("query", BOOST, "--prob", "recovery", "--max-worlds", "1")
    assert result.returncode == 1
    assert result.stderr.startswith("error[cap]:")


def test_wide_heads_answer_or_fail_by_name_under_a_memory_limit(tmp_path):
    # a head on k root parents, queried by two children that each limit
    # their own address space to 1 GiB: at k=24 the head's factor (2^25
    # cells, 256 MB) is the only array of its size, so the query answers; at
    # k=27, with the cap raised, the factor alone needs 2 GiB and the query
    # exits 1 with a named error, not a traceback
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))

    children = {}
    for k, flags in ((24, ()), (27, ("--max-worlds", "1000000000"))):
        path = tmp_path / f"fan{k}.pl"
        path.write_text("".join(f"0.5 :: r{j}.\n0.0{j % 9 + 1} :: h :- r{j}.\n"
                                for j in range(k)))
        children[k] = subprocess.Popen(
            [sys.executable, "-m", "causalog", "query", str(path), "--prob", "h", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=str(ROOT),
            preexec_fn=limit)
    out, err = children[24].communicate()
    miss = math.prod(1 - 0.5 * (j % 9 + 1) / 100 for j in range(24))
    assert (children[24].returncode, out, err) == (0, f"{1 - miss:.6f}\n", "")
    out, err = children[27].communicate()
    assert (children[27].returncode, out) == (1, "")
    assert err.startswith("error[memory]: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("owner, name, argv, hint", [
    (learning, "forward_sample", ["sample", BOOST, "-n", "10", "--seed", "1", "-o", "unused.csv"],
     "; ask for fewer rows with -n\n"),
    (cli, "probability", ["query", BOOST, "--prob", "recovery"],
     "; lower the cap with --max-worlds or CAUSALOG_MAX_WORLDS\n"),
    (reconstruction, "ExactOracle", ["reconstruct", "--hidden", BOOST, "--graph", EDGES],
     "; lower the cap with CAUSALOG_MAX_WORLDS\n"),
    (learning.Dataset, "from_csv", ["learn", "--data", "unused.csv", "--graph", EDGES], "\n"),
], ids=["sample", "query", "reconstruct", "learn"])
def test_memory_error_names_what_bounds_the_subcommand(owner, name, argv, hint, capsys,
                                                       monkeypatch):
    # the cap bounds only exact inference, so only query and reconstruct
    # point at it; the call that would allocate raises instead, since a real
    # huge request can start writing on a host that overcommits memory
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 73.3 TiB")

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(owner, name, exhausted)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[memory]: Unable to allocate 73.3 TiB" + hint
    assert not (ROOT / "unused.csv").exists()


def test_reconstruct_cap_advice_points_at_what_it_takes(capsys, monkeypatch):
    # reconstruct takes no --max-worlds, so its node failure names the
    # environment variable, and the flag only as the query command's
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("CAUSALOG_MAX_WORLDS", "2")
    assert cli.main(["reconstruct", "--hidden", BOOST, "--graph", EDGES]) == 1
    assert capsys.readouterr() == ("", (
        "recovery: error[oracle]: oracle failed for recovery at pattern {}: query needs a "
        "table of 2^2 factor cells, which exceeds the cap of 2; raise it with "
        "CAUSALOG_MAX_WORLDS (the query command also takes --max-worlds), or simplify the "
        "program\nerror[reconstruction]: could not recover: recovery\n"))
    with pytest.raises(SystemExit) as usage:
        cli.main(["reconstruct", "--hidden", BOOST, "--graph", EDGES, "--max-worlds", "8"])
    assert usage.value.code == 2


def test_reconstruct_reports_a_bad_cap_setting_once(capsys, monkeypatch):
    # the setting is read once, before any node, and reported as query
    # reports it, not as an oracle failure of every node
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("CAUSALOG_MAX_WORLDS", "abc")
    message = "error[error]: CAUSALOG_MAX_WORLDS must be a positive integer, got 'abc'\n"
    assert cli.main(["reconstruct", "--hidden", BOOST, "--graph", EDGES]) == 1
    assert capsys.readouterr() == ("", message)
    assert cli.main(["query", BOOST, "--prob", "recovery"]) == 1
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("rows", ["1000000000000000000000000000000", "9223372036854775807"])
def test_sample_count_numpy_cannot_shape_is_a_dataset_error(rows, tmp_path, capsys,
                                                            monkeypatch):
    # refused before anything is allocated: numpy cannot shape a matrix of
    # that many cells, whatever the memory
    monkeypatch.chdir(ROOT)
    out = tmp_path / "rows.csv"
    assert cli.main(["sample", BOOST, "-n", rows, "--seed", "1", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error[dataset]: sample count {rows} is too large for numpy "
                            "to shape its matrices\n")
    assert not out.exists()


def test_thousand_node_chain_answers_in_process(tmp_path, capsys):
    # q :: n0 and p :: n_k :- n_(k-1): the last node holds exactly when n0
    # and every link fire. Elimination sums the chain one link at a time, so
    # the cells it builds grow linearly in its length; enumerating it would
    # need 2^1000 worlds, far above the cap.
    q, p = 0.5, 0.9995

    def query(n, flags):
        path = tmp_path / f"chain{n}.pl"
        lines = [f"{q} :: n0."] + [f"{p} :: n{k} :- n{k - 1}." for k in range(1, n)]
        path.write_text("\n".join(lines) + "\n")
        last = f"n{n - 1}"
        assert cli.main(["query", str(path), "--prob", last, *flags(last), "--json"]) == 0
        return json.loads(capsys.readouterr().out)["result"]

    links = p ** 999
    kinds = [
        (lambda last: [], q * links),
        (lambda last: ["--given", "n0"], links),
        (lambda last: ["--do", "n0"], links),
        # the links that fired under do(n0) alone, as n0 was false
        (lambda last: ["--given", rf"\+{last}", "--do", "n0"],
         (1 - q) * links / (1 - q * links)),
    ]
    for flags, want in kinds:
        results = [query(n, flags) for n in (250, 500, 1000)]
        assert results[-1]["probability"] == pytest.approx(want, abs=1e-12)
        cells = [r["worlds_evaluated"] for r in results]
        assert cells[2] - cells[1] == 2 * (cells[1] - cells[0]) > 0


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


def test_sample_then_learn_without_propositions(tmp_path, capsys):
    # an empty program samples rows of no columns; learn reads that file
    # back as those rows and recovers the empty program
    program, graph = tmp_path / "empty.pl", tmp_path / "empty.edges"
    program.write_text("")
    graph.write_text("")
    rows, learned = tmp_path / "rows.csv", tmp_path / "learned.pl"
    assert cli.main(["sample", str(program), "-n", "3", "--seed", "1",
                     "-o", str(rows)]) == 0
    assert rows.read_bytes().endswith(b"}\n\n\n\n\n")
    assert cli.main(["learn", "--data", str(rows), "--graph", str(graph),
                     "-o", str(learned)]) == 0, capsys.readouterr().err
    assert learned.read_text() == ""


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


def test_learn_names_a_header_that_is_no_proposition(capsys, monkeypatch):
    # a program file passed as data: its comment line is the header, which
    # names no proposition, so the error is about line 1, not line 2's cell
    monkeypatch.chdir(ROOT)
    assert cli.main(["learn", "--data", BOOST, "--graph", EDGES]) == 1
    assert capsys.readouterr() == ("", (
        "error[dataset]: line 1: column 1 of the header, '% Treatment boosts the base "
        "chance of recovery.', is not a proposition name\n"))


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

# the boost program plus a fact whose probability, 1e-21, repr writes with
# an exponent, and a fact of probability one
TWIN_EXTRA = "0.000000000000000000001 :: rare.\n1 :: sure.\n"
TWIN_TEXT = """\
0.000000000000000000001 :: u1.
1.0 :: u2.
0.5 :: u3.
0.5 :: u4.
0.4 :: u5.
1.0 :: rare__e :- u1.
1.0 :: rare__i :- u1.
1.0 :: sure__e :- u2.
1.0 :: sure__i :- u2.
1.0 :: treatment__e :- u3.
1.0 :: recovery__e :- u4.
1.0 :: recovery__i :- u4.
1.0 :: recovery__e :- treatment__e, u5.
1.0 :: recovery__i :- treatment__i, u5.
1.0 :: treatment__i.
"""


def test_twin_export_stdout(tmp_path):
    source = tmp_path / "source.pl"
    source.write_text((ROOT / BOOST).read_text() + TWIN_EXTRA)
    result = run_cli("twin-export", str(source), "--do", "treatment")
    assert result.returncode == 0
    assert result.stdout == TWIN_TEXT


def test_twin_export_replays_queries(tmp_path, capsys):
    out = tmp_path / "twin.pl"
    assert run_cli("twin-export", BOOST, "--do", "treatment",
                   "-o", str(out)).returncode == 0
    # the exported file is an ordinary program: the intervened copy carries
    # the do-probability, the evidence copy the observational one
    intervened = run_cli("query", str(out), "--prob", "recovery__i")
    assert intervened.stdout == "0.700000\n"
    observed = run_cli("query", str(out), "--prob", "recovery__e")
    assert observed.stdout == "0.600000\n"
    # a twin proposition that no exported clause mentions still gets a line:
    # the intervention copy of a node forced false, and a clause-less atom
    # that only a forced node's clauses read; the replayed conditional answers
    # as the counterfactual does
    source = tmp_path / "source.pl"
    for text, do, prob, given, given_e in (
            ("0.5 :: a.\n0.6 :: b :- a.\n", r"\+b", "b", "b", "b__e"),
            ("0.3 :: z.\n0.5 :: a :- y.\n0.4 :: a :- z.\n", "a", "y", "a", "a__e")):
        source.write_text(text)
        assert cli.main(["twin-export", str(source), "--do", do, "-o", str(out)]) == 0
        assert f"0.0 :: {prob}__i.\n" in out.read_text()
        capsys.readouterr()
        assert cli.main(["query", str(source), "--prob", prob, "--given", given,
                         "--do", do]) == 0
        want = capsys.readouterr().out
        assert cli.main(["query", str(out), "--prob", prob + "__i", "--given", given_e]) == 0
        assert capsys.readouterr().out == want == "0.000000\n"


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


@pytest.mark.parametrize("args, unbuffered", [
    (("query", BOOST, "--prob", "recovery", "--json"), False),
    (("query", BOOST, "--prob", "recovery", "--json"), True),
    (("validate", BOOST), False), (("validate", BOOST), True), (("query", "--help"), False)])
def test_closed_stdout_is_exit_one_without_traceback(args, unbuffered):
    # the reader of stdout is gone before the command writes its answer; a
    # buffered stdout fails at its last flush, an unbuffered one at the write
    # (``--help`` is left to argparse there, which ignores the failed write)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "causalog", *args], stdout=write,
                                stderr=subprocess.PIPE, text=True, cwd=str(ROOT), env=env)
    finally:
        os.close(write)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


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
    (["learn", "--data", "unused.csv", "--graph", EDGES, "--min-support", "0"],
     "--min-support"),
    (["learn", "--data", "unused.csv", "--graph", EDGES, "--min-support", "-3"],
     "--min-support"),
    (["query", BOOST, "--prob", "recovery", "--precision", "2147483648"], "--precision"),
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


def test_invalid_utf8_input_is_an_error(tmp_path, capsys):
    # byte 0xff never occurs in UTF-8; each file kind names its own error code
    fixtures = ROOT / "fixtures"
    rows = tmp_path / "rows.csv"
    assert cli.main(["sample", str(fixtures / "recovery_boost.pl"), "-n", "50",
                     "--seed", "1", "-o", str(rows)]) == 0
    bad = {}
    for name, source in (("program", fixtures / "recovery_boost.pl"),
                         ("graph", fixtures / "recovery.edges"), ("csv", rows)):
        bad[name] = str(tmp_path / f"bad-{source.name}")
        Path(bad[name]).write_bytes(source.read_bytes() + b"\xff\n")
    edges = str(fixtures / "recovery.edges")
    cases = [
        (["query", bad["program"], "--prob", "recovery"], "program"),
        (["validate", bad["program"]], "program"),
        (["reconstruct", "--hidden", bad["program"], "--graph", edges], "program"),
        (["learn", "--data", bad["csv"], "--graph", edges], "dataset"),
        (["learn", "--data", str(rows), "--graph", bad["graph"]], "graph"),
    ]
    capsys.readouterr()
    for argv, code in cases:
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[{code}]: "), captured.err
        assert "is not UTF-8 text" in captured.err
        assert "Traceback" not in captured.err


def test_cyclic_program_is_an_error(tmp_path, capsys):
    path = tmp_path / "cycle.pl"
    path.write_text("0.5 :: a :- b.\n0.5 :: b :- a.\n")
    assert cli.main(["query", str(path), "--prob", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[cycle]:")
    assert "Traceback" not in captured.err


def test_cyclic_twin_export_is_an_error(tmp_path, capsys):
    path = tmp_path / "cycle.pl"
    path.write_text("0.5 :: a :- b.\n0.5 :: b :- a.\n")
    out = tmp_path / "twin.pl"
    assert cli.main(["twin-export", str(path), "--do", "a", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[cycle]: dependency graph has a cycle: a -> b -> a\n"
    assert not out.exists()


def test_recovery_json_carries_node_stats(tmp_path, capsys):
    csv = tmp_path / "samples.csv"
    fixtures = ROOT / "fixtures"
    assert cli.main(["sample", str(fixtures / "recovery_boost.pl"), "-n", "3000",
                     "--seed", "5", "-o", str(csv)]) == 0
    for argv, read in ((["learn", "--data", str(csv)], "samples"),
                       (["reconstruct", "--hidden", str(fixtures / "recovery_boost.pl")],
                        "factor")):
        capsys.readouterr()
        assert cli.main([*argv, "--graph", str(fixtures / "recovery.edges"), "--json"]) == 0
        nodes = json.loads(capsys.readouterr().out)["result"]["nodes"]
        assert nodes["recovery"]["stats"]["oracle_calls"] == 2
        assert nodes["treatment"]["stats"]["oracle_calls"] == 1
        assert all(node["stats"]["seconds"] >= 0.0 for node in nodes.values())
        assert all(node["stats"]["read"] == read for node in nodes.values())


# --- the parser built once per process ----------------------------------------


def calls(argvs, capsys):
    """The (exit status, stdout, stderr) of each call, in order."""
    out = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


@pytest.mark.parametrize("first", [
    ["--precision", "2"],
    ["--json"],
    ["--precision"],  # a usage error, exit 2
])
def test_back_to_back_calls_equal_fresh_calls(first, capsys, monkeypatch):
    # each flag, then the plain query, which must not see it
    monkeypatch.chdir(ROOT)
    query = ["query", BOOST, "--prob", "recovery", "--do", "treatment"]
    argvs = [query + first, query]
    together = calls(argvs, capsys)
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh += calls([argv], capsys)
    assert together == fresh
    assert together[1] == (0, "0.700000\n", "")


SAMPLE = ["sample", BOOST, "-n", "2000", "--seed", "7", "-o", "rows.csv"]


# each subcommand on the fixtures, with the calls it needs first, and the text
# it prints without --json
SUBCOMMANDS = [
    ([], ["validate", SWITCH, "--strict"],
     "acyclic: yes\npositive: no\nproper normal form: no\n"
     "  note: clause '0.5 :: recovery :- \\+ treatment.' negates treatment\n"
     "  note: sink recovery has no unconditional clause\n"),
    ([], ["graph", BOOST, "--format", "dot"], "digraph g {\n  treatment -> recovery;\n}\n"),
    ([], ["query", SWITCH, "--prob", "recovery", "--given", r"\+treatment,recovery",
          "--do", "treatment"], "0.700000\n"),
    ([], SAMPLE, ""),
    ([SAMPLE], ["learn", "--data", "rows.csv", "--graph", EDGES],
     "0.5095 :: treatment.\n0.4954128440366973 :: recovery.\n"
     "0.43015434026228927 :: recovery :- treatment.\n"),
    ([], ["reconstruct", "--hidden", BOOST, "--graph", EDGES],
     "0.5 :: treatment.\n0.5 :: recovery.\n0.3999999999999999 :: recovery :- treatment.\n"),
    ([], ["twin-export", BOOST, "--do", "treatment"],
     "0.5 :: u1.\n0.5 :: u2.\n0.4 :: u3.\n1.0 :: treatment__e :- u1.\n"
     "1.0 :: recovery__e :- u2.\n1.0 :: recovery__i :- u2.\n"
     "1.0 :: recovery__e :- treatment__e, u3.\n1.0 :: recovery__i :- treatment__i, u3.\n"
     "1.0 :: treatment__i.\n"),
]


@pytest.mark.parametrize("before, argv, text", SUBCOMMANDS,
                         ids=[argv[0] for _, argv, _ in SUBCOMMANDS])
def test_every_subcommand_prints_its_text_and_one_document(before, argv, text, tmp_path,
                                                           capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    assert all(code == 0 for code, _, _ in calls(before, capsys))
    assert calls([argv], capsys) == [(0, text, "")]
    (code, out, err), = calls([argv + ["--json"]], capsys)
    assert (code, err) == (0, "")
    document = json.loads(out)
    assert list(document) == ["command", "inputs", "result", "diagnostics"]
    assert document["command"] == argv[0]
    assert document["diagnostics"] == []


@pytest.mark.parametrize("name, message", [
    ("zz", "unknown proposition 'zz'"),
    ("u1", "u1 names a generated noise proposition and cannot be queried"),
], ids=["unknown", "noise"])
def test_unknown_given_names_are_formula_errors_with_or_without_do(name, message, capsys,
                                                                   monkeypatch):
    # --given is checked as the formula it becomes, whether or not --do is set
    monkeypatch.chdir(ROOT)
    query = ["query", BOOST, "--prob", "recovery", "--given", name]
    assert calls([query, query + ["--do", "treatment"]], capsys) \
        == [(1, "", f"error[formula]: {message}\n")] * 2


# --- inputs past the interpreter's recursion limit --------------------------------


def test_long_dependency_cycle(tmp_path, capsys):
    n = 3000
    path = tmp_path / "cycle.pl"
    path.write_text("".join(f"0.5 :: n{k} :- n{(k - 1) % n}.\n" for k in range(n)))
    assert cli.main(["query", str(path), "--prob", "n1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error[cycle]: dependency graph has a cycle: n0 -> n1 -> ")
    assert "Traceback" not in captured.err
    assert cli.main(["validate", str(path)]) == 0
    assert "acyclic: no" in capsys.readouterr().out


@pytest.fixture
def long_chain(tmp_path):
    path = tmp_path / "chain.pl"
    path.write_text("0.5 :: n0.\n" + "".join(f"0.9 :: n{k} :- n{k - 1}.\n"
                                             for k in range(1, 1500)))
    return str(path)


@pytest.mark.parametrize("given, want", [
    # the evidence cuts the chain: n1499 holds when its last 1400 links fire
    (range(100), 0.9 ** 1400),
    (range(1500), 1.0),
], ids=["100-literals", "1500-literals"])
def test_given_literals_restrict_the_chain(long_chain, given, want, capsys):
    # each literal slices the factors that read it, so evidence adds no
    # table width; at 100 literals the final table once needed 2^101 cells
    flags = ["--prob", "n1499", "--given", ",".join(f"n{k}" for k in given), "--json"]
    assert cli.main(["query", long_chain, *flags]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["probability"] == pytest.approx(want, rel=1e-12)
    assert result["conditioning_mass"] == pytest.approx(0.5 * 0.9 ** max(given), rel=1e-12)


@pytest.mark.parametrize("flags, code", [
    (["--prob", "|".join(f"n{k}" for k in range(1500))], "cap"),
    (["--prob", "!" * 3000 + "n1"], "formula"),
    (["--prob", "(" * 3000 + "n1" + ")" * 3000], "formula"),
], ids=["prob-1500-atoms", "3000-negations", "3000-parentheses"])
def test_deep_formulas_are_refused(long_chain, flags, code, capsys):
    assert cli.main(["query", long_chain, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[{code}]: ")
    assert "Traceback" not in captured.err


def test_cap_error_counts_cells_as_a_power_of_two(long_chain, capsys):
    # the 101 atoms of a disjunction stay in the final table
    flags = ["--prob", "|".join(f"n{k}" for k in [*range(100), 1499])]
    assert cli.main(["query", long_chain, *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error[cap]: query needs a table of 2^101 factor cells, which exceeds "
        "the cap of 67108864;")
    assert str(1 << 101) not in captured.err


@pytest.mark.parametrize("program, given", [
    ("² :: a.\n", None),   # superscript two: a digit, but not a decimal one
    ("1٣ :: b.\n", None),  # an Arabic-Indic three after an ASCII one
    (None, "²"),
    (None, "1٣"),
])
def test_non_ascii_digits_are_parse_errors(program, given, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    if program is not None:
        path = tmp_path / "digits.pl"
        path.write_text(program, encoding="utf-8")
        argv = ["validate", str(path)]
    else:
        argv = ["query", BOOST, "--prob", "recovery", "--given", given]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[parse]: line 1, column ")
    assert "unexpected character" in captured.err


# --- import cost -----------------------------------------------------------------


def test_validate_does_not_import_numpy():
    # numpy takes about a hundred milliseconds to import; the commands that
    # do no arithmetic must not pay it. Nor does any command pay for
    # dataclasses, with the inspect it pulls in, or hashlib, which only
    # sample's provenance digest needs
    script = ("import sys\n"
              "import causalog\n"
              "from causalog import cli\n"
              f"status = cli.main(['validate', {BOOST!r}])\n"
              "heavy = ('numpy', 'dataclasses', 'inspect', 'hashlib')\n"
              "print(status, [name for name in heavy if name in sys.modules])\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=str(ROOT))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"


# what `import causalog` loads: everything a query, a validation or a twin
# export runs, and neither learning nor reconstruction
QUERY_STACK = ["causalog", "causalog.causal", "causalog.engine", "causalog.errors",
               "causalog.formula", "causalog.frozen", "causalog.graph", "causalog.model",
               "causalog.parser", "causalog.validate"]


@pytest.mark.parametrize("argv, extra", [
    (None, []),
    (["validate", BOOST], ["cli"]),
    (["graph", BOOST], ["cli"]),
    (["query", BOOST, "--prob", "recovery", "--given", r"\+recovery", "--do", "treatment"],
     ["cli"]),
    (["twin-export", BOOST, "--do", "treatment"], ["cli"]),
    (["sample", BOOST, "-n", "10", "--seed", "1", "-o", "{tmp}/rows.csv"],
     ["cli", "learning", "reconstruction"]),
    (["reconstruct", "--hidden", BOOST, "--graph", EDGES], ["cli", "reconstruction"]),
    (["learn", "--data", "{tmp}/rows.csv", "--graph", EDGES, "--min-support", "1"],
     ["cli", "learning", "reconstruction"]),
], ids=["import", "validate", "graph", "query", "twin-export", "sample", "reconstruct",
        "learn"])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, extra, tmp_path):
    # a fresh process compiles every module it loads where no bytecode cache
    # is kept, so a subcommand must not load what it never runs
    (tmp_path / "rows.csv").write_text("recovery,treatment\n0,0\n1,0\n0,1\n1,1\n")
    script = "import json, sys\nimport causalog\n"
    if argv is not None:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        script += f"from causalog import cli\nstatus = cli.main({argv!r})\n"
    else:
        script += "status = 0\n"
    script += ("print(json.dumps([status, sorted(name for name in sys.modules\n"
               "                               if name.split('.')[0] == 'causalog')]))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=str(ROOT))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [
        0, sorted(QUERY_STACK + [f"causalog.{name}" for name in extra])]


@pytest.mark.parametrize("submodule", [None, "validate", "learning", "reconstruction"])
def test_every_export_is_its_definition(submodule):
    # the learning and reconstruction exports resolve on first use; a
    # submodule loaded first must not shadow an export (causalog.validate
    # names both), and the star import binds every name in __all__
    script = ("import sys, types\n"
              "import causalog\n"
              + (f"import causalog.{submodule}\n" if submodule else "")
              + "listed = set(dir(causalog))\n"
              "star = {}\n"
              "exec('from causalog import *', star)\n"
              "for name in causalog.__all__:\n"
              "    value = getattr(causalog, name)\n"
              "    assert not isinstance(value, types.ModuleType), name\n"
              "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
              "    assert name in listed, name\n"
              "    assert star[name] is value, name\n"
              "try:\n"
              "    causalog.no_such_name\n"
              "except AttributeError as err:\n"
              "    print(err)\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=str(ROOT))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "module 'causalog' has no attribute 'no_such_name'\n"


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

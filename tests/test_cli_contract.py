"""The command line's contract on malformed input, checked in process.

Whatever bytes a program, graph or CSV file holds, and whatever a literal
list or formula flag says, ``cli.main`` exits 0, 1 or 2. A failure writes
``error[<code>]:`` lines (exit 1) or usage text (exit 2) on stderr, and
never a traceback. The files hold random bytes or texts assembled from the
tokens of their format, which get past the first check more often. The
argument lists, last, are drawn from the subcommands, their flags, the
fixtures and a few output paths.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from causalog import cli  # noqa: E402

# the names, mostly valid ones, then the tokens of the program, graph, CSV
# and formula formats, and a few that no format takes
_NAMES = ["a", "b", "c"] * 5 + ["zz", "u1", "B", "true", "_x", "é"]
_PROGRAM = _NAMES + ["0.5", "1.0", "0", "2", "1.", "::", ":-", "\\+", ",", ".", "%",
                     " ", "\n", "\t", "(", "'"]
_GRAPH = _NAMES + ["digraph", "g", "{", "}", "->", ";", "#", " ", "\n", "\r"]
_CSV = _NAMES + ["0", "1", "2", ",", "\n", "\r\n", " ", "#", "# provenance:", "\ufeff"]
_FORMULAS = _NAMES + ["&", "|", "!", "(", ")", " ", "->"]

_name = st.sampled_from(_NAMES)
_literal = st.tuples(st.sampled_from(["", "\\+ "]), _name).map("".join)
_literals = st.one_of(st.lists(_literal, max_size=4).map(",".join),
                      st.lists(st.sampled_from([*_NAMES, "\\+", ",", " "]), max_size=8)
                      .map("".join))
_clause = st.builds("{} :: {}{}.".format, st.sampled_from(["0.5", "1.0", "0", "0.25"] * 3 + ["2"]),
                    _name, st.lists(_literal, max_size=3).map(
                        lambda body: f" :- {', '.join(body)}" if body else ""))
_edge = st.builds("{} {}".format, _name, _name)


def _soup(tokens: list[str], size: int = 40) -> st.SearchStrategy[bytes]:
    return st.lists(st.sampled_from(tokens), max_size=size).map("".join).map(str.encode)


def _file(lines: st.SearchStrategy[str], tokens: list[str]) -> st.SearchStrategy[bytes]:
    """Lines of the format, tokens of it in any order, or any bytes."""
    return st.one_of(st.lists(lines, max_size=5).map("\n".join).map(str.encode),
                     _soup(tokens), st.binary(max_size=60))


# a program that parses, so that the flags' checks are reached more often
_VALID = b"0.5 :: a.\n0.4 :: b :- a.\n0.3 :: c :- a, \\+ b.\n"
_programs = st.one_of(st.just(_VALID), _file(_clause, _PROGRAM))
_graphs = st.one_of(_file(_edge, _GRAPH), st.lists(_edge, max_size=4).map(
    lambda edges: "digraph g {\n%s\n}\n" % ";\n".join(e.replace(" ", " -> ")
                                                    for e in edges)).map(str.encode))
_data = _file(st.lists(st.sampled_from(["0", "1", "a", "b", "c"]), min_size=1, max_size=3)
              .map(",".join), _CSV)
_formulas = st.one_of(_name, _soup(_FORMULAS, 8).map(bytes.decode))

_ERROR_LINE = re.compile(r"([a-z][A-Za-z0-9_]*: )?error\[[a-z-]+\]: ")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _run(workdir, files: dict[str, bytes], argv: list[str]) -> None:
    """Write ``files`` under ``workdir``, run ``argv`` there in process and
    check the contract."""
    for name, data in files.items():
        (workdir / name).write_bytes(data)
    argv = [str(workdir / arg) if arg in files else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text
    if code == 0:
        assert text == ""
    elif code == 1:
        assert text and all(_ERROR_LINE.match(line) for line in text.splitlines()), text
    else:
        assert text.startswith("usage: "), text


_EXAMPLES = settings(max_examples=100)


@_EXAMPLES
@given(program=_programs, strict=st.booleans())
def test_validate(workdir, program, strict):
    _run(workdir, {"p.pl": program}, ["validate", "p.pl", *(["--strict"] * strict)])


@_EXAMPLES
@given(program=_programs, form=st.sampled_from(["dot", "edges"]), as_json=st.booleans())
def test_graph(workdir, program, form, as_json):
    _run(workdir, {"p.pl": program},
         ["graph", "p.pl", "--format", form, *(["--json"] * as_json)])


@_EXAMPLES
@given(program=_programs, prob=_formulas,
       given_=st.one_of(st.none(), _literals), do=st.one_of(st.none(), _literals))
def test_query(workdir, program, prob, given_, do):
    argv = ["query", "p.pl", "--prob", prob]
    argv += ["--given", given_] if given_ is not None else []
    argv += ["--do", do] if do is not None else []
    _run(workdir, {"p.pl": program}, argv)


@_EXAMPLES
@given(program=_programs, graph=_graphs)
def test_reconstruct(workdir, program, graph):
    _run(workdir, {"p.pl": program, "g.txt": graph},
         ["reconstruct", "--hidden", "p.pl", "--graph", "g.txt"])


@_EXAMPLES
@given(data=_data, graph=_graphs, support=st.sampled_from(["1", "30", "0"]))
def test_learn(workdir, data, graph, support):
    _run(workdir, {"d.csv": data, "g.txt": graph},
         ["learn", "--data", "d.csv", "--graph", "g.txt", "--min-support", support])


@_EXAMPLES
@given(program=_programs, do=_literals)
def test_twin_export(workdir, program, do):
    _run(workdir, {"p.pl": program}, ["twin-export", "p.pl", "--do", do])


# --- random argument lists ----------------------------------------------------

_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_INPUTS = [str(_FIXTURES / name)
           for name in ("recovery_boost.pl", "recovery_switch.pl", "recovery.edges")]
# stand-ins for paths under the work directory: a CSV that ``sample`` may
# have written earlier, a program file and the directory itself
_OUTPUTS = ["out.csv", "out.pl", "."]
_LITERAL_LISTS = ["treatment", "\\+recovery", "treatment,recovery", "zz", ""]
# each argument with the values it is drawn with, None for a flag without
# one; "file" is the positional program file
_VALUES = {
    "file": [*_INPUTS, "out.pl"], "--json": None, "--strict": None, "--help": None,
    "--format": ["dot", "edges", "png"],
    "--prob": ["recovery", "treatment & !recovery", "zz", "("],
    "--given": _LITERAL_LISTS, "--do": _LITERAL_LISTS,
    "--precision": ["0", "3", "1075", "x"], "--max-worlds": ["1", "4", "0"],
    "-n": ["0", "1", "7", "100"], "--seed": ["0", "5", "-1"],
    # the files each reads, the fitting one most often
    "--graph": [_INPUTS[2], *_INPUTS], "--hidden": _INPUTS,
    "--data": ["out.csv", "out.csv", *_INPUTS],
    "--min-support": ["1", "30", "0"], "-o": _OUTPUTS,
}
# each subcommand's required arguments, then its optional ones
_COMMANDS = {
    "validate": (["file"], ["--strict", "--json"]),
    "graph": (["file"], ["--format", "-o", "--json"]),
    "query": (["file", "--prob"],
              ["--given", "--do", "--precision", "--max-worlds", "--json"]),
    "sample": (["file", "-n", "--seed", "-o"], ["--json"]),
    "reconstruct": (["--hidden", "--graph"], ["-o", "--json"]),
    "learn": (["--data", "--graph"], ["--min-support", "-o", "--json"]),
    "twin-export": (["file", "--do"], ["-o", "--json"]),
}


def _argument(name: str) -> st.SearchStrategy[list[str]]:
    values = _VALUES[name]
    if values is None:
        return st.just([name])
    return st.sampled_from(values).map(lambda value: [value] if name == "file" else [name, value])


@st.composite
def _argvs(draw) -> list[str]:
    """A subcommand, most often with its required arguments, some of its
    optional ones and now and then one of another's, in any order."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    names = [name for name in required if draw(st.integers(0, 9))]
    names += [name for name in optional if draw(st.booleans())]
    names += draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=1))
    parts = [draw(_argument(name)) for name in names]
    return [command, *sum(draw(st.permutations(parts)), [])]


@settings(max_examples=300)
@given(argv=_argvs())
def test_random_argument_lists(workdir, argv):
    # the output stand-ins follow -o and --data, so that a later run may
    # read what an earlier one wrote
    argv = [str(workdir / arg) if prev in ("-o", "--data") and arg in _OUTPUTS else arg
            for prev, arg in zip([None, *argv], argv)]
    _run(workdir, {}, argv)


# --- one argument parse per call ------------------------------------------------


def _parse(parse, argv: list[str]):
    """What ``parse(argv)`` gives: the namespace's fields in order, or the
    exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(parse(argv)).items())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _check_one_pass(argv: list[str]) -> None:
    assert _parse(cli._parse_args, argv) == _parse(cli._build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--he"], ["-x"], ["nope"], ["twin"], ["--json", "query", "f"],
    ["query"], ["query", "-h"], ["query", "f", "--prob", "a", "-h"],
    ["query", "f", "--prob=a"], ["query", "f", "--pro", "a"], ["query", "f", "--p", "a"],
    ["query", "f", "--prob", "a", "--he"], ["query", "--", "f", "--prob", "a"],
    ["query", "f", "--prob", "a", "--", "g"], ["query", "f", "--prob", "a", "g", "h"],
    ["query", "f", "--prob", "a", "-o", "x"], ["query", "f", "--prob", "a", "--precision", "x"],
    ["query", "f", "--prob", "-1", "--given", "a", "--given", "b"],
    ["sample", "f", "-n", "-1", "--seed", "3", "-o", "x"], ["graph", "f", "-h", "--format", "png"],
    ["twin-export", "f", "--do", "a", "--do=\\+b", "--json"], ["validate", "f", "query"],
])
def test_one_pass_parse_edge_cases(argv):
    _check_one_pass(argv)


@settings(max_examples=200)
@given(argv=_argvs())
def test_one_pass_parse_matches_the_full_parse(argv):
    _check_one_pass(argv)

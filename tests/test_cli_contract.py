"""The command line's contract on malformed input, checked in process.

Whatever bytes a program, graph or CSV file holds, and whatever a literal
list or formula flag says, ``cli.main`` exits 0, 1 or 2. A failure writes
``error[<code>]:`` lines (exit 1) or usage text (exit 2) on stderr, and
never a traceback. The files hold random bytes or texts assembled from the
tokens of their format, which get past the first check more often.
"""

import contextlib
import io
import re

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

"""The CSV reader's loose forms, checked against the form ``to_csv`` writes.

A dataset of one to four columns, written by ``to_csv``, reads back as the
same dataset after its line ends become CRLF or CR, its cells get blanks
around them, blank lines join its rows or its final line end goes. One bad
cell gives the same error in both forms, at the line the cell is on. A
dataset of no columns is left out: there a blank line is a row, so its form
cannot be loosened.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from causalog import Dataset, DatasetError, Provenance  # noqa: E402

_NAMES = ["a", "b", "treatment", "x_1", "zZ9"]


@st.composite
def _datasets(draw, min_rows: int = 0) -> Dataset:
    columns = tuple(draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4,
                                  unique=True)))
    n = draw(st.integers(min_rows, 12))
    cells = draw(st.lists(st.booleans(), min_size=n * len(columns),
                          max_size=n * len(columns)))
    provenance = draw(st.one_of(st.none(), st.builds(
        Provenance, st.just("ab" * 32), st.integers(0, 9), st.integers(0, 99))))
    return Dataset(columns, np.array(cells, dtype=bool).reshape(n, len(columns)),
                   provenance)


# a line end, the blanks put around each cell and making each blank line,
# the rows a blank line goes before (the row count puts it after the last)
# and whether the last line keeps its end
_forms = st.tuples(st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["", " ", " \t"]),
                   st.lists(st.integers(0, 12), max_size=3), st.booleans())


def _loosen(text: str, form: tuple) -> tuple[str, dict[int, int]]:
    """``text``, as ``to_csv`` writes it, in the loose ``form``, and the line
    number each of its lines has there."""
    end, blank, before, keep_end = form
    lines = text.split("\n")[:-1]
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    out: list[str] = []
    moved = {}
    for i, line in enumerate(lines + [None]):
        if i > header:
            out += [blank] * before.count(i - header - 1)
        if line is None:
            break
        if i >= header:
            line = ",".join(f"{blank}{cell}{blank}" for cell in line.split(","))
        moved[i + 1] = len(out) + 1
        out.append(line)
    return end.join(out) + (end if keep_end else ""), moved


def _read(path, text: str) -> Dataset:
    path.write_bytes(text.encode())
    return Dataset.from_csv(str(path))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=200)
@given(dataset=_datasets(), form=_forms)
def test_loose_forms_read_back_as_the_dataset(workdir, dataset, form):
    dataset.to_csv(str(workdir / "canonical.csv"))
    text = (workdir / "canonical.csv").read_text()
    assert Dataset.from_csv(str(workdir / "canonical.csv")) == dataset
    assert _read(workdir / "loose.csv", _loosen(text, form)[0]) == dataset


@settings(max_examples=200)
@given(dataset=_datasets(min_rows=1), form=_forms, data=st.data())
def test_a_bad_cell_names_its_line_in_every_form(workdir, dataset, form, data):
    dataset.to_csv(str(workdir / "canonical.csv"))
    lines = (workdir / "canonical.csv").read_text().split("\n")
    row = data.draw(st.integers(0, len(dataset) - 1))
    column = data.draw(st.integers(0, len(dataset.columns) - 1))
    # an empty cell alone on its line would make a blank line, which is skipped
    bad = data.draw(st.sampled_from(["2", "x", "10", "01", *[""] * (len(dataset.columns) > 1)]))
    lineno = len(lines) - len(dataset) + row  # the row's line, counted from 1
    cells = lines[lineno - 1].split(",")
    cells[column] = bad
    lines[lineno - 1] = ",".join(cells)
    text = "\n".join(lines)
    loose, moved = _loosen(text, form)
    for path, content, line in ((workdir / "canonical.csv", text, lineno),
                                (workdir / "loose.csv", loose, moved[lineno])):
        with pytest.raises(DatasetError) as err:
            _read(path, content)
        assert str(err.value) == f"line {line}: cell {bad!r} is not 0 or 1"

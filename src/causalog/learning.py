"""Sampling programs and learning them back from samples.

Forward sampling draws every noise fact independently and solves the Boolean
equation system column-wise, all rows at once, with the engine's shared
solve. Sampling is seeded and deterministic: the counter-based Philox
generator is keyed with the seed and consumed as one draw per (row, fact)
cell in row-major order, so row ``i`` always consumes the ``i``-th run of
draws no matter how rows are batched. ``Generator.random`` makes the
uniform ``(raw >> 11) * 2^-53`` of a raw 64-bit word, so a fact with
probability ``p`` fires exactly where its ``u < p`` would: where
``raw >> 11 < ceil(p * 2^53)``, compared as integers. The words are drawn
and compared a block of rows at a time, at most ``_BLOCK_DRAWS`` of them,
into one bool per (fact, row), so the rows do not depend on the block size
and sampling holds a byte per cell.

A dataset records only the internal propositions (noise is latent), plus a
provenance stamp: the fingerprint of the generating program, the seed and the
row count. It stores one contiguous bool array per column, as the solve
makes them and counting reads them. The CSV form is a header of proposition
names, one 0/1 row per sample, and an optional leading ``# provenance:``
comment. Writing fills one byte image a column at a time; reading turns a
file in exactly that form column-major a block of rows at a time and falls
back to a line-by-line reader for anything looser.

Learning is reconstruction against the empirical frequency oracle: the
success probability of a target under a parent pattern is estimated by the
relative frequency among the rows matching the pattern, with a standard-error
tolerance (Z * sqrt(v / n) with Z = 3, v estimated with add-one smoothing so
it never degenerates to zero) and a minimum support below which the pattern
is reported as starved instead of trusted. The families ``reconstruct``
announces are counted in groups, one bincount per group, and a table's rates
and tolerances are computed as arrays.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Sequence

from .engine import DEFAULT_MIN_SUPPORT, check_table_width, solve
from .errors import DatasetError, OracleError, StarvedPatternError
from .frozen import Frozen
from .graph import RESERVED_NAMES, VALID_NAME, DependencyGraph
from .model import Program
from .reconstruction import (
    Family,
    OracleAnswer,
    ReconstructionResult,
    SuccessTable,
    pattern_code,
    reconstruct,
    subset_text,
    subsets_by_code,
    table_order,
)

if TYPE_CHECKING:
    import numpy as np

# the standard errors a sample rate is trusted to
Z = 3.0
# the cells a block of rows holds, rounded down to whole rows but at least
# one row: the raw words forward sampling draws at once (512 KiB), and the
# CSV cells read at once
_BLOCK_DRAWS = 1 << 16


def program_fingerprint(program: Program) -> str:
    """Hex digest of the canonical program text."""
    import hashlib

    return hashlib.sha256(program.to_text().encode()).hexdigest()


class Provenance(Frozen):
    _fields = ("program_sha256", "seed", "n")

    def __init__(self, program_sha256: str, seed: int, n: int):
        self.__dict__.update(program_sha256=program_sha256, seed=seed, n=n)

    def to_json(self) -> str:
        return json.dumps(
            {"program_sha256": self.program_sha256, "seed": self.seed, "n": self.n}
        )

    @staticmethod
    def from_json(text: str) -> "Provenance":
        try:
            raw = json.loads(text)
            return Provenance(str(raw["program_sha256"]), int(raw["seed"]),
                              int(raw["n"]))
        except (ValueError, KeyError, TypeError) as err:
            raise DatasetError(f"bad provenance comment: {err}") from err


class Dataset:
    """An immutable 0/1 sample matrix with named columns.

    The samples are stored one contiguous bool array per column, shape
    ``(columns, n)``; ``rows`` is a read-only ``(n, columns)`` view of that
    storage. The constructor copies the rows it is given, so the caller's
    array stays the caller's."""

    def __init__(self, columns: tuple[str, ...], rows: np.ndarray,
                 provenance: Provenance | None = None):
        import numpy as np

        rows = np.asarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise DatasetError(
                f"row matrix of shape {rows.shape} does not match "
                f"{len(columns)} columns"
            )
        self._adopt(tuple(columns), rows.T.copy(), provenance)

    @classmethod
    def _of_columns(cls, columns: tuple[str, ...], data: np.ndarray,
                    provenance: Provenance | None) -> "Dataset":
        """The dataset that takes over ``data``, a C-contiguous bool array of
        shape ``(len(columns), n)`` that nothing else holds."""
        dataset = object.__new__(cls)
        dataset._adopt(columns, data, provenance)
        return dataset

    def _adopt(self, columns: tuple[str, ...], data: np.ndarray,
               provenance: Provenance | None) -> None:
        if len(set(columns)) != len(columns):
            raise DatasetError("duplicate column names")
        data.setflags(write=False)
        self.columns = columns
        self._data = data
        self.rows = data.T
        self.provenance = provenance
        self._index = {name: i for i, name in enumerate(columns)}

    def __len__(self) -> int:
        return self._data.shape[1]

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.columns == other.columns
                and np.array_equal(self._data, other._data)
                and self.provenance == other.provenance)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._data[self._index[name]]
        except KeyError:
            raise DatasetError(f"no column named {name!r}") from None

    # -- CSV ----------------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Write the optional provenance line, the header, then one row per
        sample: ``0``/``1`` cells joined by ``,``, each row ended by ``\\n``.
        The rows are laid out as one byte image, filled one column at a time,
        and written at once, straight from the array's buffer."""
        import numpy as np

        head = ""
        if self.provenance is not None:
            head = f"# provenance: {self.provenance.to_json()}\n"
        head += ",".join(self.columns) + "\n"
        n, width = self.rows.shape
        if width:
            image = np.empty((n, width), dtype="<u2")
            for cell, column, code in zip(image.T, self._data, _cell_codes(width)):
                np.add(column, code, out=cell)
        else:
            image = np.full(n, ord("\n"), dtype=np.uint8)
        with open(path, "wb") as handle:
            handle.write(head.encode("utf-8"))
            handle.write(image)

    @staticmethod
    def from_csv(path: str) -> "Dataset":
        """Read a dataset written by ``to_csv``, or any CSV of the same
        shape: blank lines, CRLF or CR line ends, spaces around cells and a
        missing final newline are accepted as well. A file in exactly the
        form ``to_csv`` writes is read a block of rows at a time, without a
        per-row parse; anything else goes through the line-by-line reader,
        which names the first bad line. A file that is not UTF-8 raises
        DatasetError."""
        import numpy as np

        with open(path, "rb") as handle:
            raw = handle.read()
        canonical = _canonical_csv(raw)
        if canonical is not None:
            return canonical
        try:
            lines = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as err:
            raise DatasetError(f"{path} is not UTF-8 text: {err.reason}") from None
        provenance, columns, start = _csv_header(lines)
        data = []
        for lineno, line in enumerate(lines[start + 1:], start=start + 2):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise DatasetError(
                    f"line {lineno}: expected {len(columns)} cells, got {len(cells)}"
                )
            row = []
            for cell in cells:
                cell = cell.strip()
                if cell not in ("0", "1"):
                    raise DatasetError(f"line {lineno}: cell {cell!r} is not 0 or 1")
                row.append(cell == "1")
            data.append(row)
        rows = np.array(data, dtype=bool).reshape(len(data), len(columns))
        return Dataset(columns, rows, provenance)


def _csv_comments(lines: list[str]) -> tuple[Provenance | None, int]:
    """Provenance and index of the first line not starting with ``#``; a
    ``# provenance:`` comment before it is read."""
    provenance = None
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        stripped = lines[start][1:].strip()
        if stripped.startswith("provenance:"):
            provenance = Provenance.from_json(stripped[len("provenance:"):])
        start += 1
    return provenance, start


def _csv_header(lines: list[str]) -> tuple[Provenance | None, tuple[str, ...], int]:
    """Provenance, column names and index of the header line: the first line
    not starting with ``#``. Each column must be named as a proposition."""
    provenance, start = _csv_comments(lines)
    if start >= len(lines) or not lines[start].strip():
        raise DatasetError("missing header row")
    columns = tuple(name.strip() for name in lines[start].split(","))
    for k, name in enumerate(columns, start=1):
        if not VALID_NAME.match(name) or name in RESERVED_NAMES:
            where = f"line {start + 1}: column {k} of the header"
            if not name:
                raise DatasetError(f"{where} has no name")
            why = "a reserved word" if name in RESERVED_NAMES else "not a proposition name"
            raise DatasetError(f"{where}, {name!r}, is {why}")
    return provenance, columns, start


def _cell_codes(width: int) -> np.ndarray:
    """A row of ``width`` ``0`` cells as little-endian uint16s, one per cell:
    the digit, then the byte after it, ``,`` or, after the last, ``\\n``.
    Adding a cell's bool gives its digit; ``| 1`` gives the ``1`` cell."""
    import numpy as np

    codes = np.full(width, ord("0") | ord(",") << 8, dtype="<u2")
    codes[-1] = ord("0") | ord("\n") << 8
    return codes


def _canonical_csv(raw: bytes) -> Dataset | None:
    """The dataset when ``raw`` is in the exact form ``to_csv`` writes (comment
    lines, a header, then rows of ``0``/``1`` joined by ``,`` and each ended
    by ``\\n``; with an empty header, rows of a bare ``\\n``), else None.
    Such a body is one matrix of ``_cell_codes`` with a fixed width, so it is
    checked and read without a per-row parse: a block of rows at a time,
    turned into one contiguous row per column, which is compared in place."""
    import numpy as np

    end = 0
    while raw.startswith(b"#", end):
        end = raw.find(b"\n", end) + 1
        if end == 0:
            return None
    header = end
    end = raw.find(b"\n", header) + 1
    if end == 0:
        return None
    width = raw.count(b",", header, end) + 1 if end - header > 1 else 0
    size = len(raw) - end
    if not width:
        if raw.count(b"\n", end) != size:
            return None
        data = np.zeros((0, size), dtype=bool)
    else:
        if size % (2 * width):
            return None
        cells = np.frombuffer(raw, dtype="<u2", offset=end).reshape(-1, width)
        ones = (_cell_codes(width) | 1)[:, None]
        data = np.empty((width, len(cells)), dtype=bool)
        step = max(1, _BLOCK_DRAWS // width)
        for start in range(0, len(cells), step):
            block = cells[start:start + step].T.copy()
            if not ((block | 1) == ones).all():
                return None
            np.equal(block, ones, out=data[:, start:start + step])
    # the body is ASCII, so the head decides what the line reader would do;
    # a head it would split into other lines is left to it
    try:
        lines = raw[:end].decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None
    if len(lines) != raw.count(b"\n", 0, end):
        return None
    if width:
        provenance, columns, _ = _csv_header(lines)
    else:
        provenance, columns = _csv_comments(lines)[0], ()
    return Dataset._of_columns(columns, data, provenance)


def forward_sample(program: Program, n: int, seed: int) -> Dataset:
    """Draw ``n`` independent samples of the internal propositions.

    ``n`` must be a nonnegative integer for which numpy can shape a bool
    matrix of one row per noise fact, and one of one row per proposition, of
    ``n`` columns; ``seed`` must be an integer in [0, 2**128), the Philox key
    space. Both are checked before anything is allocated."""
    import numpy as np

    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise DatasetError(f"sample count must be a nonnegative integer, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 128:
        raise DatasetError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    dp = program.desugar()
    noise = dp.noise_names
    columns = dp.internal_propositions
    # numpy shapes a (k, n) array only while n and k * n fit its index type
    if n > np.iinfo(np.intp).max // max(1, len(noise), len(columns)):
        raise DatasetError(f"sample count {n} is too large for numpy to shape its matrices")
    # one bool row per fact, so that each fact's column is contiguous for
    # the solve; each block of draws is compared straight into its rows
    fired = np.empty((len(noise), n), dtype=bool)
    if noise:
        # Generator.random() is (raw >> 11) / 2^53 of Philox's raw 64-bit
        # words, so its u < p is exactly raw >> 11 < ceil(p * 2^53): never
        # for p = 0, always for p = 1 (p * 2^53 is exact)
        probabilities = np.array([dp.noise_probability(u) for u in noise])
        thresholds = np.ceil(probabilities * 2.0 ** 53).astype(np.uint64)[:, None]
        bits = np.random.Philox(key=seed)
        block = max(1, _BLOCK_DRAWS // len(noise))
        for start in range(0, n, block):
            rows = min(block, n - start)
            draws = bits.random_raw(rows * len(noise)).reshape(rows, len(noise))
            draws >>= 11
            np.less(draws.T, thresholds, out=fired[:, start:start + rows])
    values = solve(dp, dict(zip(noise, fired)), n)
    data = np.empty((len(columns), n), dtype=bool)
    for row, name in zip(data, columns):
        row[...] = values[name]
    return Dataset._of_columns(columns, data,
                               Provenance(program_fingerprint(program), seed, n))


class FrequencyOracle:
    """Relative-frequency estimates from a dataset.

    For a pattern with ``n_T`` matching rows of which ``s`` have the target
    true, the answer is ``s / n_T`` with tolerance ``Z * sqrt(v / n_T)`` where
    ``v`` uses the add-one-smoothed rate ``(s + 1) / (n_T + 2)``. Patterns
    with fewer than ``min_support`` rows, an integer of at least 1, are
    starved: a table lists them all in one StarvedPatternError, in table
    order, and a single pattern raises its own.

    The row counts come from histograms, one bincount over each row's code
    of the columns counted. ``expect`` puts the families it is told into
    groups: a group's histogram is over the union of its families' columns
    and holds no more cells than the dataset has rows, and each family's
    counts are that histogram summed over the group's other columns. A family
    wider than that, one with a name that is not a column, and a family
    nobody announced are each a group of one. A table's rates and tolerances
    are computed for every pattern at once."""

    def __init__(self, dataset: Dataset, min_support: int = DEFAULT_MIN_SUPPORT):
        if isinstance(min_support, bool) or not isinstance(min_support, int) or min_support < 1:
            raise OracleError(f"min_support must be at least 1 and integral, got {min_support!r}")
        self._data = dataset
        self.min_support = min_support
        # each expected family: the columns of its group and the group's
        # families; each family counted with its group and not yet asked:
        # its counts
        self._groups: dict[Family, tuple[tuple[str, ...], list[Family]]] = {}
        self._counted: dict[Family, tuple[np.ndarray, np.ndarray | None]] = {}

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._data.columns)

    def expect(self, families: Sequence[Family]) -> None:
        """Group the families, first fit in the order given; nothing is
        counted until a family of a group is asked."""
        rows, columns = len(self._data), self._data.columns
        groups: list[tuple[set[str], list[Family]]] = []
        for target, parents in families:
            names = {target, *parents}
            if not names.issubset(columns):
                continue
            for union, members in groups:
                if 1 << len(union | names) <= rows:
                    union |= names
                    members.append((target, parents))
                    break
            else:
                groups.append((names, [(target, parents)]))
        self._groups = {family: (tuple(sorted(union)), members)
                        for union, members in groups for family in members}
        self._counted = {}

    def success_table(self, target: str, parents: tuple[str, ...]) -> SuccessTable:
        support, hits = self._counts(target, parents)
        if hits is None:  # the target is not a column: DatasetError
            self._data.column(target)
        subsets = subsets_by_code(parents)
        starved = support < self.min_support
        if starved.any():
            listed = sorted(((subsets[code], int(support[code])) for code in starved.nonzero()[0]),
                            key=lambda entry: table_order(entry[0]))
            listing = "; ".join(f"{subset_text(s)} has {n} samples" for s, n in listed)
            raise StarvedPatternError(
                f"{target}: {len(listed)} parent pattern(s) below support: {listing}",
                target=target, patterns=tuple(listed),
            )
        rates, tolerances = self._estimates(hits, support)
        return SuccessTable(target, parents, dict(zip(subsets, rates.tolist())),
                            dict(zip(subsets, tolerances.tolist())),
                            dict(zip(subsets, support.tolist())), "samples")

    def success_given_parents(self, target: str,
                              pattern: Mapping[str, bool]) -> OracleAnswer:
        """One pattern of the table ``success_table`` reads."""
        parents = tuple(sorted(pattern))
        support, hits = self._counts(target, parents)
        code = pattern_code(parents, pattern)
        n = int(support[code])
        if n < self.min_support:
            subset = frozenset(name for name, value in pattern.items() if value)
            raise StarvedPatternError(
                f"pattern {subset_text(subset)} matches only {n} rows "
                f"(minimum support {self.min_support})",
                target=target, patterns=((subset, n),),
            )
        if hits is None:  # the target is not a column: DatasetError
            self._data.column(target)
        rate, tolerance = self._estimates(hits[code:code + 1], support[code:code + 1])
        return OracleAnswer(float(rate[0]), float(tolerance[0]), n)

    def _estimates(self, hits: np.ndarray, support: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The rate and the tolerance of each pattern, from its rows and
        those of them with the target true."""
        import numpy as np

        smoothed = (hits + 1.0) / (support + 2.0)
        return hits / support, Z * np.sqrt(smoothed * (1.0 - smoothed) / support)

    def _counts(self, target: str, parents: tuple[str, ...]
                ) -> tuple[np.ndarray, np.ndarray | None]:
        """The rows of every parent pattern by ``pattern_code`` and, when the
        target is a column, those of them with the target true, counted with
        the family's group. A pattern over more than
        ``engine.MAX_TABLE_WIDTH`` propositions raises TableSizeError."""
        check_table_width(len(parents))
        family = (target, parents)
        if family not in self._counted:
            names, families = self._groups.get(family) or (self._counted_names(family), [family])
            self._counted.update(self._count(names, families))
        return self._counted.pop(family)

    def _counted_names(self, family: Family) -> tuple[str, ...]:
        """The columns a family is counted over: its parents, then its
        target when that is a column."""
        target, parents = family
        return parents + (target,) if target in self._data.columns else parents

    def _count(self, names: tuple[str, ...], families: list[Family]
               ) -> dict[Family, tuple[np.ndarray, np.ndarray | None]]:
        """The counts of each family from one histogram over ``names``, the
        columns of them all: one bincount over each row's code, a bit per
        name, the first the most significant. A family over fewer names sums
        the others out, its parents' bits then the target's kept in order."""
        import numpy as np

        codes = np.zeros(len(self._data), np.min_scalar_type((1 << len(names)) - 1))
        for name in names:
            codes <<= 1
            codes |= self._data.column(name)
        histogram = np.bincount(codes, minlength=1 << len(names))
        counted = {}
        for family in families:
            target, parents = family
            own = self._counted_names(family)
            counts = histogram
            if own != names:
                cube = histogram.reshape((2,) * len(names))
                kept = [name for name in names if name in own]
                counts = cube.sum(axis=tuple(k for k, name in enumerate(names)
                                             if name not in own))
                counts = counts.transpose([kept.index(name) for name in own]).reshape(-1)
            if own == parents:
                counted[family] = counts, None
            else:
                counted[family] = counts[0::2] + counts[1::2], counts[1::2]
        return counted


def learn(dataset: Dataset, graph: DependencyGraph,
          min_support: int = DEFAULT_MIN_SUPPORT) -> ReconstructionResult:
    """Reconstruct a program from samples and a dependency graph."""
    return reconstruct(FrequencyOracle(dataset, min_support), graph)

"""Sampling programs and learning them back from samples.

Forward sampling draws every noise fact independently and solves the Boolean
equation system column-wise, all rows at once, with the engine's shared
solve. Sampling is seeded and deterministic: the counter-based Philox
generator is keyed with the seed and consumed as one uniform draw per (row,
fact) cell in row-major order, so row ``i`` always consumes the ``i``-th
run of draws no matter how rows are batched. The draws are made and
thresholded a block of rows at a time, at most ``_BLOCK_DRAWS`` uniforms,
into one bool per (fact, row): the blocks consume the stream in the order
one draw of the whole matrix would, so the rows do not depend on the block
size, and sampling holds a byte per cell, not a double.

A dataset records only the internal propositions (noise is latent), plus a
provenance stamp: the fingerprint of the generating program, the seed and the
row count. The CSV form is a header of proposition names, one 0/1 row per
sample, and an optional leading ``# provenance:`` comment. Writing lays out
all rows as one byte image; reading parses a file in exactly that form as one
byte matrix and falls back to a line-by-line reader for anything looser.

Learning is reconstruction against the empirical frequency oracle: the
success probability of a target under a parent pattern is estimated by the
relative frequency among the rows matching the pattern, with a standard-error
tolerance (Z * sqrt(v / n) with Z = 3, v estimated with add-one smoothing so
it never degenerates to zero) and a minimum support below which the pattern
is reported as starved instead of trusted. A whole table is read at once: the
row counts of every pattern come from one bincount over the rows' pattern
codes, and the rates and tolerances are computed as arrays.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Sequence

from .engine import check_table_width, solve
from .errors import DatasetError, OracleError, StarvedPatternError
from .frozen import Frozen
from .graph import DependencyGraph
from .model import Program
from .reconstruction import (
    Family,
    OracleAnswer,
    ReconstructionResult,
    SuccessTable,
    pattern_code,
    reconstruct,
    subsets_by_code,
    table_order,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MIN_SUPPORT = 30
# the standard errors a sample rate is trusted to
Z = 3.0
# the uniforms forward sampling draws at once, rounded down to whole rows
# but at least one row (512 KiB of doubles)
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
    """An immutable 0/1 sample matrix with named columns."""

    def __init__(self, columns: tuple[str, ...], rows: np.ndarray,
                 provenance: Provenance | None = None):
        import numpy as np

        rows = np.asarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise DatasetError(
                f"row matrix of shape {rows.shape} does not match "
                f"{len(columns)} columns"
            )
        if len(set(columns)) != len(columns):
            raise DatasetError("duplicate column names")
        self.columns = tuple(columns)
        self.rows = rows
        self.rows.setflags(write=False)
        self.provenance = provenance
        self._index = {name: i for i, name in enumerate(columns)}

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.columns == other.columns
                and np.array_equal(self.rows, other.rows)
                and self.provenance == other.provenance)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.rows[:, self._index[name]]
        except KeyError:
            raise DatasetError(f"no column named {name!r}") from None

    # -- CSV ----------------------------------------------------------------

    def to_csv(self, path: str) -> None:
        """Write the optional provenance line, the header, then one row per
        sample: ``0``/``1`` cells joined by ``,``, each row ended by ``\\n``.
        The rows are laid out as one byte image and written at once,
        straight from the array's buffer."""
        import numpy as np

        head = ""
        if self.provenance is not None:
            head = f"# provenance: {self.provenance.to_json()}\n"
        head += ",".join(self.columns) + "\n"
        n, width = self.rows.shape
        if width:
            image = np.full((n, 2 * width), ord(","), dtype=np.uint8)
            image[:, 0::2] = self.rows
            image[:, 0::2] += ord("0")
            image[:, -1] = ord("\n")
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
        form ``to_csv`` writes is parsed as one byte matrix; anything else
        goes through the line-by-line reader, which names the first bad
        line. A file that is not UTF-8 raises DatasetError."""
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


def _csv_header(lines: list[str]) -> tuple[Provenance | None, tuple[str, ...], int]:
    """Provenance, column names and index of the header line: the first line
    not starting with ``#``; a ``# provenance:`` comment before it is read."""
    provenance = None
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        stripped = lines[start][1:].strip()
        if stripped.startswith("provenance:"):
            provenance = Provenance.from_json(stripped[len("provenance:"):])
        start += 1
    if start >= len(lines) or not lines[start].strip():
        raise DatasetError("missing header row")
    return provenance, tuple(name.strip() for name in lines[start].split(",")), start


def _canonical_csv(raw: bytes) -> Dataset | None:
    """The dataset when ``raw`` is in the exact form ``to_csv`` writes (comment
    lines, a header, then rows of ``0``/``1`` joined by ``,`` and each ended
    by ``\\n``), else None. Such a body is one byte matrix with a fixed width,
    so one shape and alphabet check replaces the per-row parse."""
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
    width = 2 * (raw.count(b",", header, end) + 1)
    body = np.frombuffer(raw, dtype=np.uint8, offset=end)
    if body.size % width:
        return None
    body = body.reshape(-1, width)
    if not ((body[:, 0::2] | 1) == ord("1")).all() \
            or not (body[:, 1:-1:2] == ord(",")).all() \
            or not (body[:, -1] == ord("\n")).all():
        return None
    # the body is ASCII, so the head decides what the line reader would do;
    # a head it would split into other lines is left to it
    try:
        lines = raw[:end].decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return None
    if len(lines) != raw.count(b"\n", 0, end):
        return None
    provenance, columns, _ = _csv_header(lines)
    return Dataset(columns, body[:, 0::2] == ord("1"), provenance)


def forward_sample(program: Program, n: int, seed: int) -> Dataset:
    """Draw ``n`` independent samples of the internal propositions.

    ``seed`` must be an integer in [0, 2**128), the Philox key space."""
    import numpy as np

    if n < 0:
        raise DatasetError(f"sample count must be nonnegative, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 128:
        raise DatasetError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    dp = program.desugar()
    noise = dp.noise_names
    columns = dp.internal_propositions
    # one bool row per fact, so that each fact's column is contiguous for
    # the solve; each block of draws is compared straight into its rows
    fired = np.empty((len(noise), n), dtype=bool)
    if noise:
        thresholds = np.array([dp.noise_probability(u) for u in noise])
        generator = np.random.Generator(np.random.Philox(key=seed))
        block = max(1, _BLOCK_DRAWS // len(noise))
        draws = np.empty((min(block, n), len(noise)))
        for start in range(0, n, block):
            part = draws[:min(block, n - start)]
            generator.random(out=part)
            np.less(part, thresholds, out=fired[:, start:start + len(part)].T)
    values = solve(dp, dict(zip(noise, fired)), n)
    rows = np.column_stack([values[c] for c in columns]) if columns else \
        np.zeros((n, 0), dtype=bool)
    return Dataset(columns, rows,
                   Provenance(program_fingerprint(program), seed, int(n)))


class FrequencyOracle:
    """Relative-frequency estimates from a dataset.

    For a pattern with ``n_T`` matching rows of which ``s`` have the target
    true, the answer is ``s / n_T`` with tolerance ``Z * sqrt(v / n_T)`` where
    ``v`` uses the add-one-smoothed rate ``(s + 1) / (n_T + 2)``. Patterns
    with fewer than ``min_support`` rows, which must be at least 1, are
    starved: a table lists them all in one StarvedPatternError, in table
    order, and a single pattern raises its own. A table's row counts come
    from one bincount, and its rates and tolerances are computed for every
    pattern at once."""

    def __init__(self, dataset: Dataset, min_support: int = DEFAULT_MIN_SUPPORT):
        self._data = dataset
        self.min_support = int(min_support)
        if self.min_support < 1:
            raise OracleError(f"min_support must be at least 1, got {min_support}")

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._data.columns)

    def expect(self, families: Sequence[Family]) -> None:
        """Nothing to prepare: each table is one bincount of its own."""

    def success_table(self, target: str, parents: tuple[str, ...]) -> SuccessTable:
        support, hits = self._counts(target, parents)
        if hits is None:  # the target is not a column: DatasetError
            self._data.column(target)
        subsets = subsets_by_code(parents)
        starved = support < self.min_support
        if starved.any():
            listed = sorted(((subsets[code], int(support[code])) for code in starved.nonzero()[0]),
                            key=lambda entry: table_order(entry[0]))
            listing = "; ".join(f"{{{', '.join(sorted(s)) or ''}}} has {n} samples"
                                for s, n in listed)
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
                f"pattern {{{', '.join(sorted(subset))}}} matches only {n} rows "
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
        target is a column, those of them with the target true, by one
        bincount over each row's code: the parent bits, then the target bit.
        A pattern over more than ``engine.MAX_TABLE_WIDTH`` propositions
        raises TableSizeError."""
        import numpy as np

        check_table_width(len(parents))
        names = parents + (target,) if target in self._data.columns else parents
        codes = np.zeros(len(self._data), np.min_scalar_type((1 << len(names)) - 1))
        for name in names:
            codes <<= 1
            codes |= self._data.column(name)
        counts = np.bincount(codes, minlength=1 << len(names))
        if len(names) > len(parents):
            return counts[0::2] + counts[1::2], counts[1::2]
        return counts, None


def learn(dataset: Dataset, graph: DependencyGraph,
          min_support: int = DEFAULT_MIN_SUPPORT) -> ReconstructionResult:
    """Reconstruct a program from samples and a dependency graph."""
    return reconstruct(FrequencyOracle(dataset, min_support), graph)

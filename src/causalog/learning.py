"""Sampling programs and learning them back from samples.

Forward sampling draws every noise fact independently and solves the Boolean
equation system column-wise, all rows at once, with the engine's shared
solve. Sampling is seeded and deterministic: the counter-based Philox
generator is keyed with the seed and consumed as one uniform draw per (row,
fact) cell in row-major order, so row ``i`` always consumes the ``i``-th
block of draws no matter how rows are batched.

A dataset records only the internal propositions (noise is latent), plus a
provenance stamp: the fingerprint of the generating program, the seed and the
row count. The CSV form is a header of proposition names, one 0/1 row per
sample, and an optional leading ``# provenance:`` comment.

Learning is reconstruction against the empirical frequency oracle: the
success probability of a target under a parent pattern is estimated by the
relative frequency among the rows matching the pattern, with a standard-error
tolerance (z * sqrt(v / n), v estimated with add-one smoothing so it never
degenerates to zero) and a minimum support below which the pattern is
reported as starved instead of trusted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .engine import solve
from .errors import DatasetError, StarvedPatternError
from .graph import DependencyGraph
from .model import Program
from .reconstruction import (
    MAX_PARENTS,
    OracleAnswer,
    ReconstructionResult,
    reconstruct,
)

DEFAULT_MIN_SUPPORT = 30
DEFAULT_Z = 3.0


def program_fingerprint(program: Program) -> str:
    """Hex digest of the canonical program text."""
    return hashlib.sha256(program.to_text().encode()).hexdigest()


@dataclass(frozen=True)
class Provenance:
    program_sha256: str
    seed: int
    n: int

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
        with open(path, "w", encoding="utf-8", newline="") as handle:
            if self.provenance is not None:
                handle.write(f"# provenance: {self.provenance.to_json()}\n")
            handle.write(",".join(self.columns) + "\n")
            for row in self.rows:
                handle.write(",".join("1" if v else "0" for v in row) + "\n")

    @staticmethod
    def from_csv(path: str) -> "Dataset":
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        provenance = None
        start = 0
        while start < len(lines) and lines[start].startswith("#"):
            stripped = lines[start][1:].strip()
            if stripped.startswith("provenance:"):
                provenance = Provenance.from_json(stripped[len("provenance:"):])
            start += 1
        if start >= len(lines) or not lines[start].strip():
            raise DatasetError("missing header row")
        columns = tuple(name.strip() for name in lines[start].split(","))
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


def forward_sample(program: Program, n: int, seed: int) -> Dataset:
    """Draw ``n`` independent samples of the internal propositions.

    ``seed`` must be an integer in [0, 2**128), the Philox key space."""
    if n < 0:
        raise DatasetError(f"sample count must be nonnegative, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 128:
        raise DatasetError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    dp = program.desugar()
    noise = dp.noise_names
    columns = dp.internal_propositions
    generator = np.random.Generator(np.random.Philox(key=seed))
    uniforms = generator.random((n, len(noise)))
    noise_cols = {
        u: uniforms[:, j] < dp.noise_probability(u) for j, u in enumerate(noise)
    }
    values = solve(dp, dp.topological_order(), noise_cols, n)
    rows = np.column_stack([values[c] for c in columns]) if columns else \
        np.zeros((n, 0), dtype=bool)
    return Dataset(columns, rows,
                   Provenance(program_fingerprint(program), seed, int(n)))


class FrequencyOracle:
    """Relative-frequency estimates from a dataset.

    For a pattern with ``n_T`` matching rows of which ``s`` have the target
    true, the answer is ``s / n_T`` with tolerance ``z * sqrt(v / n_T)`` where
    ``v`` uses the add-one-smoothed rate ``(s + 1) / (n_T + 2)``. Patterns
    with fewer than ``min_support`` rows raise StarvedPatternError."""

    def __init__(self, dataset: Dataset, min_support: int = DEFAULT_MIN_SUPPORT,
                 z: float = DEFAULT_Z):
        self._data = dataset
        self.min_support = int(min_support)
        self.z = float(z)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._data.columns)

    def success_given_parents(self, target: str,
                              pattern: Mapping[str, bool]) -> OracleAnswer:
        mask = np.ones(len(self._data), dtype=bool)
        for name, value in pattern.items():
            mask &= self._data.column(name) == bool(value)
        n = int(mask.sum())
        subset = frozenset(name for name, value in pattern.items() if value)
        if n < self.min_support:
            names = ", ".join(sorted(subset))
            raise StarvedPatternError(
                f"pattern {{{names}}} matches only {n} rows "
                f"(minimum support {self.min_support})",
                target=target, patterns=((subset, n),),
            )
        s = int((mask & self._data.column(target)).sum())
        rate = s / n
        smoothed = (s + 1.0) / (n + 2.0)
        tolerance = self.z * float(np.sqrt(smoothed * (1.0 - smoothed) / n))
        return OracleAnswer(rate, tolerance, n)


def empirical_oracle(dataset: Dataset,
                     min_support: int = DEFAULT_MIN_SUPPORT,
                     z: float = DEFAULT_Z) -> FrequencyOracle:
    return FrequencyOracle(dataset, min_support, z)


def learn(dataset: Dataset, graph: DependencyGraph,
          min_support: int = DEFAULT_MIN_SUPPORT, z: float = DEFAULT_Z,
          max_parents: int = MAX_PARENTS) -> ReconstructionResult:
    """Reconstruct a program from samples and a dependency graph."""
    return reconstruct(empirical_oracle(dataset, min_support, z), graph,
                       max_parents)

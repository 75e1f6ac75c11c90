"""Exception hierarchy.

Every error class carries a short machine-readable ``code``. The command line
front end prints failures as ``error[<code>]: <message>`` and scripts are
expected to match on the code rather than the message text.
"""

from __future__ import annotations


class CausalogError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ParseError(CausalogError):
    """Malformed program text. Carries the 1-based source position."""

    code = "parse"

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class FormulaError(CausalogError):
    """Malformed query formula, or a formula over unknown atoms."""

    code = "formula"


class ProgramError(CausalogError):
    """A program object violating a structural invariant (duplicate clause,
    probability out of range, bad proposition name, contradictory body), or
    another object, such as a desugared program, where a Program is due."""

    code = "program"


class GraphFormatError(CausalogError):
    """Unreadable dependency graph text."""

    code = "graph"


class CyclicProgramError(CausalogError):
    """An operation that needs acyclicity was given a cyclic program."""

    code = "cycle"


class EnumerationCapError(CausalogError):
    """The exact query would build a table of more factor cells than
    allowed. The advice names CAUSALOG_MAX_WORLDS, which every caller
    reads, and --max-worlds as the query command's alone."""

    code = "cap"

    def __init__(self, needed: int, cap: int):
        # a power of two as 2^k, since a long query's count runs to many digits
        count = f"2^{needed.bit_length() - 1}" if needed & (needed - 1) == 0 else needed
        super().__init__(
            f"query needs a table of {count} factor cells, which exceeds the "
            f"cap of {cap}; raise it with CAUSALOG_MAX_WORLDS (the query command "
            "also takes --max-worlds), or simplify the program"
        )
        self.needed = needed
        self.cap = cap


class ZeroEvidenceError(CausalogError):
    """Conditioning on evidence of probability zero."""

    code = "zero-evidence"


class TableSizeError(CausalogError):
    """A table over more than ``engine.MAX_TABLE_WIDTH`` propositions."""

    code = "table-size"


class InterventionError(CausalogError):
    """An intervention names a proposition the program lacks."""

    code = "intervention"


class _NodeError(CausalogError):
    """A failure at one node (``target``), at a parent subset if any."""

    def __init__(self, message: str, target: str | None = None,
                 subset: frozenset[str] | None = None):
        super().__init__(message)
        self.target = target
        self.subset = subset


class OracleError(_NodeError):
    """An oracle could not answer a query."""

    code = "oracle"


class StarvedPatternError(OracleError):
    """Too few samples match one or more parent patterns."""

    code = "starved"

    def __init__(self, message: str, target: str | None = None,
                 patterns: tuple[tuple[frozenset[str], int], ...] = ()):
        super().__init__(message, target=target)
        self.patterns = patterns


class NonMonotoneTableError(_NodeError):
    """A success table that decreases when a parent is switched on, beyond
    tolerance. Impossible for exact oracles over positive programs, possible
    for noisy empirical ones."""

    code = "non-monotone"


class SaturationError(_NodeError):
    """Clause detection hit a subset whose prediction is already within
    tolerance of certainty while the table value still exceeds it, so the
    remaining parameter cannot be solved for."""

    code = "saturation"


class ImproperParameterError(_NodeError):
    """A solved clause probability escaped the open unit interval."""

    code = "improper"


class ReconstructionError(CausalogError):
    """Reconstruction could not start (cyclic graph, uncovered nodes,
    too many parents), or could not recover every node."""

    code = "reconstruction"


class DatasetError(CausalogError):
    """Unreadable or inconsistent sample file."""

    code = "dataset"

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
    probability out of range, bad proposition name, contradictory body)."""

    code = "program"


class GraphFormatError(CausalogError):
    """Unreadable dependency graph text."""

    code = "graph"


class CyclicProgramError(CausalogError):
    """An operation that needs acyclicity was given a cyclic program."""

    code = "cycle"


class WorldError(CausalogError):
    """A noise assignment that is not total over the noise propositions."""

    code = "world"


class EnumerationCapError(CausalogError):
    """The exact query would enumerate more assignments than allowed."""

    code = "cap"

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"query needs {needed} assignments which exceeds the enumeration "
            f"cap of {cap}; raise it with --max-worlds or CAUSALOG_MAX_WORLDS, "
            "or simplify the program"
        )
        self.needed = needed
        self.cap = cap


class ZeroEvidenceError(CausalogError):
    """Conditioning on evidence of probability zero."""

    code = "zero-evidence"


class TableSizeError(CausalogError):
    """Joint table requested over too many propositions."""

    code = "table-size"


class InterventionError(CausalogError):
    """Bad intervention or evidence assignment (unknown proposition)."""

    code = "intervention"


class OracleError(CausalogError):
    """An oracle could not answer a query."""

    code = "oracle"

    def __init__(self, message: str, target: str | None = None,
                 subset: frozenset[str] | None = None):
        super().__init__(message)
        self.target = target
        self.subset = subset


class StarvedPatternError(OracleError):
    """Too few samples match one or more parent patterns."""

    code = "starved"

    def __init__(self, message: str, target: str | None = None,
                 patterns: tuple[tuple[frozenset[str], int], ...] = ()):
        super().__init__(message, target=target)
        self.patterns = patterns


class NonMonotoneTableError(CausalogError):
    """A success table that decreases when a parent is switched on, beyond
    tolerance. Impossible for exact oracles over positive programs, possible
    for noisy empirical ones."""

    code = "non-monotone"

    def __init__(self, message: str, target: str, subset: frozenset[str]):
        super().__init__(message)
        self.target = target
        self.subset = subset


class SaturationError(CausalogError):
    """Clause detection hit a subset whose prediction is already within
    tolerance of certainty while the table value still exceeds it, so the
    remaining parameter cannot be solved for."""

    code = "saturation"

    def __init__(self, message: str, target: str, subset: frozenset[str]):
        super().__init__(message)
        self.target = target
        self.subset = subset


class ImproperParameterError(CausalogError):
    """A solved clause probability escaped the open unit interval."""

    code = "improper"

    def __init__(self, message: str, target: str, subset: frozenset[str]):
        super().__init__(message)
        self.target = target
        self.subset = subset


class ReconstructionError(CausalogError):
    """Reconstruction could not start (cyclic graph, uncovered nodes,
    too many parents)."""

    code = "reconstruction"


class DatasetError(CausalogError):
    """Unreadable or inconsistent sample file."""

    code = "dataset"

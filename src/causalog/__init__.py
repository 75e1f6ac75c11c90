"""Exact causal reasoning over propositional probabilistic logic programs.

The package parses programs of weighted clauses (``0.4 :: recovery :-
treatment.``), answers observational, interventional, and counterfactual
queries exactly, and recovers such programs from either an exact
conditional-probability oracle or a table of samples, given the dependency
graph.

``import causalog`` loads the query stack: the parser, the clause model,
the engine, the causal layer and the structural checks. The learning and
reconstruction exports load on first use (PEP 562), so a process that only
answers queries never compiles them.
"""

from .causal import (
    TwinProgram,
    counterfactual_query,
    intervene,
    interventional_query,
    twin_program,
)
from .engine import (
    JointTable,
    QueryResult,
    conditional,
    joint_table,
    probability,
    query,
)
from .errors import (
    CausalogError,
    CyclicProgramError,
    DatasetError,
    EnumerationCapError,
    FormulaError,
    GraphFormatError,
    ImproperParameterError,
    InterventionError,
    NonMonotoneTableError,
    OracleError,
    ParseError,
    ProgramError,
    ReconstructionError,
    SaturationError,
    StarvedPatternError,
    TableSizeError,
    ZeroEvidenceError,
)
from .formula import And, Atom, Const, Formula, Not, Or, conjunction_of, parse_formula
from .graph import DependencyGraph
from .model import Clause, DesugaredProgram, Literal, LogicalClause, Program
from .parser import parse_assignment, parse_program
from .validate import ValidationReport, validate

__version__ = "0.1.0"

# each lazy export and the submodule that defines it
_LAZY = {
    **dict.fromkeys(("Dataset", "FrequencyOracle", "Provenance", "forward_sample", "learn",
                     "program_fingerprint"), "learning"),
    **dict.fromkeys(("ExactOracle", "NodeReport", "OracleAnswer", "ReconstructionResult",
                     "SuccessTable", "reconstruct", "success_table"), "reconstruction"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

__all__ = [
    "And",
    "Atom",
    "CausalogError",
    "Clause",
    "Const",
    "CyclicProgramError",
    "Dataset",
    "DatasetError",
    "DependencyGraph",
    "DesugaredProgram",
    "EnumerationCapError",
    "ExactOracle",
    "Formula",
    "FormulaError",
    "FrequencyOracle",
    "GraphFormatError",
    "ImproperParameterError",
    "InterventionError",
    "JointTable",
    "Literal",
    "LogicalClause",
    "NodeReport",
    "NonMonotoneTableError",
    "Not",
    "Or",
    "OracleAnswer",
    "OracleError",
    "ParseError",
    "Program",
    "ProgramError",
    "Provenance",
    "QueryResult",
    "ReconstructionError",
    "ReconstructionResult",
    "SaturationError",
    "StarvedPatternError",
    "SuccessTable",
    "TableSizeError",
    "TwinProgram",
    "ValidationReport",
    "ZeroEvidenceError",
    "conditional",
    "conjunction_of",
    "counterfactual_query",
    "forward_sample",
    "intervene",
    "interventional_query",
    "joint_table",
    "learn",
    "parse_assignment",
    "parse_formula",
    "parse_program",
    "probability",
    "program_fingerprint",
    "query",
    "reconstruct",
    "success_table",
    "twin_program",
    "validate",
]

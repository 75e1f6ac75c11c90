"""Command line front end.

One subcommand per task:

* ``validate``: structural report (acyclicity, positivity, normal form)
* ``graph``: export the dependency graph as DOT or an edge list
* ``query``: exact probability; ``--given`` conditions, ``--do`` intervenes,
  both together ask the counterfactual
* ``sample``: draw a CSV dataset by forward sampling
* ``reconstruct``: recover a program from a known program used as an exact
  oracle plus a dependency graph
* ``learn``: recover a program from a CSV dataset plus a dependency graph
* ``twin-export``: write the combined evidence/intervention program in the
  plain clause format

Exit status: 0 on success, 1 on any domain error (printed to stderr as
``error[<code>]: <message>``, ``error[memory]`` for a run that does not fit
in memory, with what to lower where the subcommand has it), 2 on bad usage.
``--json`` switches the output to one JSON document on stdout with the shape
``{"command": ..., "inputs": ..., "result": ..., "diagnostics": []}``; a run
that fails prints no document.

``learning`` and ``reconstruction`` are imported inside the ``sample``,
``reconstruct`` and ``learn`` handlers, so the other subcommands never load
them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable

from .causal import counterfactual_query, twin_program
from .engine import DEFAULT_MIN_SUPPORT, MAX_WORLDS_ENV, conditional, probability
from .errors import CausalogError, GraphFormatError, ProgramError, ReconstructionError
from .formula import conjunction_of, parse_formula
from .graph import DependencyGraph
from .parser import parse_assignment, parse_program
from .validate import validate

# what a subcommand returns: the --json document's inputs and result, and the
# text it prints without --json ("" when it prints nothing)
_Outcome = tuple[dict[str, Any], Any, str]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        inputs, result, text = args.run(args)
    except CausalogError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error[io]: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy's _ArrayMemoryError among them
        hint = _MEMORY_HINTS.get(args.command)
        print(f"error[memory]: {err or 'out of memory'}" + (f"; {hint}" if hint else ""),
              file=sys.stderr)
        return 1
    if args.json:
        # a failure raises, so a document always has empty diagnostics
        print(json.dumps({"command": args.command, "inputs": inputs, "result": result,
                          "diagnostics": []}, indent=2))
    elif text:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


# what bounds a subcommand's memory: the cap on exact inference's tables
# governs only the subcommands that run it
_MEMORY_HINTS = {
    "query": f"lower the cap with --max-worlds or {MAX_WORLDS_ENV}",
    "reconstruct": f"lower the cap with {MAX_WORLDS_ENV}",
    "sample": "ask for fewer rows with -n",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps
    its results in a fresh namespace, so calls share nothing through it."""
    parser = argparse.ArgumentParser(
        prog="causalog",
        description="Exact causal reasoning over probabilistic logic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[argparse.Namespace], _Outcome], help: str,
                file: bool = True, graph: bool = False,
                output: bool | None = None) -> argparse.ArgumentParser:
        """A subcommand reading a program ``file`` and a ``--graph`` file as
        asked, with ``-o/--output`` required when ``output`` is True,
        optional when False and absent when None, and ``--json``."""
        p = sub.add_parser(name, help=help)
        if file:
            p.add_argument("file", help="program file")
        if graph:
            p.add_argument("--graph", required=True, metavar="FILE",
                           help="dependency graph file (DOT or edge list)")
        if output is not None:
            p.add_argument("-o", "--output", required=output,
                           help="file to write" + ("" if output else " instead of stdout"))
        p.add_argument("--json", action="store_true",
                       help="print one JSON document instead of text")
        p.set_defaults(run=run)
        return p

    p = command("validate", _cmd_validate, "check a program's structural properties")
    p.add_argument("--strict", action="store_true",
                   help="fail the normal-form flag when a sink lacks an unconditional clause")

    p = command("graph", _cmd_graph, "export the dependency graph", output=False)
    p.add_argument("--format", choices=("dot", "edges"), default="edges")

    p = command("query", _cmd_query, "exact probability of a formula")
    p.add_argument("--prob", required=True, metavar="FORMULA",
                   help="query formula, e.g. 'recovery & !treatment'")
    p.add_argument("--given", action=_JoinLiterals, metavar="LITERALS",
                   help="comma-separated evidence literals, e.g. '\\+treatment,recovery'; "
                   "repeatable")
    p.add_argument("--do", dest="do_", action=_JoinLiterals, metavar="LITERALS",
                   help="comma-separated intervention literals; repeatable")
    # a double's decimal expansion ends within 1074 places
    p.add_argument("--precision", type=_int_in(0, 1075, "in [0, 1074]"), default=6,
                   metavar="D", help="decimal places to print (default 6, at most 1074)")
    p.add_argument("--max-worlds", type=_int_in(1, None, "a positive integer"),
                   default=None, help="override for this query the cap on the cells of "
                   "the largest table the elimination builds")

    p = command("sample", _cmd_sample, "forward-sample a CSV dataset", output=True)
    p.add_argument("-n", "--rows", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=_int_in(0, 1 << 128, "in [0, 2**128)"), required=True,
                   help="generator seed, 0 <= seed < 2**128")

    p = command("reconstruct", _cmd_reconstruct,
                "recover a program from an exact oracle and a graph", file=False, graph=True,
                output=False)
    p.add_argument("--hidden", required=True, metavar="FILE",
                   help="program file answering the oracle queries")

    p = command("learn", _cmd_learn, "recover a program from samples and a graph", file=False,
                graph=True, output=False)
    p.add_argument("--data", required=True, metavar="CSV", help="sample file")
    p.add_argument("--min-support", type=_int_in(1, None, "a positive integer"),
                   default=DEFAULT_MIN_SUPPORT,
                   help=f"fewest samples a parent pattern may have (default {DEFAULT_MIN_SUPPORT})")

    p = command("twin-export", _cmd_twin_export,
                "export the evidence/intervention twin of a program", output=False)
    p.add_argument("--do", dest="do_", action=_JoinLiterals, required=True,
                   metavar="LITERALS", help="comma-separated intervention literals; repeatable")
    return parser


class _JoinLiterals(argparse.Action):
    """Keeps every occurrence of a literal-list flag, joined with commas: a
    repeated flag adds its literals, and a proposition bound twice is an
    error, where argparse's default would keep only the last occurrence."""

    def __call__(self, parser, namespace, values, option_string=None):
        prior = getattr(namespace, self.dest)
        setattr(namespace, self.dest, values if prior is None else f"{prior},{values}")


def _int_in(low: int, high: int | None, what: str) -> Callable[[str], int]:
    """An argparse type accepting integers ``low <= value < high``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low or (high is not None and value >= high):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return parse


def _read(path: str, error: type[CausalogError]) -> str:
    """The text of ``path``; a file that is not UTF-8 raises ``error``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:
            raise error(f"{path} is not UTF-8 text: {err.reason}") from None


def _write_or_return(text: str, output: str | None) -> str:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        return ""
    return text


def _cmd_validate(args: argparse.Namespace) -> _Outcome:
    program = parse_program(_read(args.file, ProgramError))
    report = validate(program, strict=args.strict)
    return ({"file": args.file, "strict": args.strict}, report.to_json_dict(),
            report.to_text())


def _cmd_graph(args: argparse.Namespace) -> _Outcome:
    program = parse_program(_read(args.file, ProgramError))
    graph = program.dependency_graph()
    text = graph.to_dot() if args.format == "dot" else graph.to_edge_list()
    return ({"file": args.file, "format": args.format}, {"graph": text},
            _write_or_return(text, args.output))


def _cmd_query(args: argparse.Namespace) -> _Outcome:
    program = parse_program(_read(args.file, ProgramError))
    phi = parse_formula(args.prob, program)
    given = parse_assignment(args.given) if args.given is not None else None
    doing = parse_assignment(args.do_) if args.do_ is not None else None
    if doing is not None:
        # with no evidence the counterfactual is the interventional query
        kind = "counterfactual" if given is not None else "interventional"
        result = counterfactual_query(program, phi, given or {}, doing, args.max_worlds)
    elif given is not None:
        kind = "conditional"
        result = conditional(program, phi, conjunction_of(given), args.max_worlds)
    else:
        kind = "observational"
        result = probability(program, phi, args.max_worlds)
    return ({"file": args.file, "prob": args.prob, "given": args.given, "do": args.do_,
             "kind": kind},
            {"probability": result.probability, "worlds_evaluated": result.worlds_evaluated,
             "conditioning_mass": result.conditioning_mass},
            f"{result.probability:.{args.precision}f}\n")


def _cmd_sample(args: argparse.Namespace) -> _Outcome:
    from .learning import forward_sample

    program = parse_program(_read(args.file, ProgramError))
    dataset = forward_sample(program, args.rows, args.seed)
    dataset.to_csv(args.output)
    return ({"file": args.file, "n": args.rows, "seed": args.seed},
            {"output": args.output, "columns": list(dataset.columns), "rows": len(dataset)},
            "")


def _recovered(inputs: dict[str, Any], result, args: argparse.Namespace) -> _Outcome:
    """The outcome of ``reconstruct`` or ``learn``: a node that failed is
    printed to stderr and fails the run. The residual audit is built only
    for ``--json``, the one output that shows it."""
    if not result.ok:
        for name, err in sorted(result.failures.items()):
            print(f"{name}: error[{err.code}]: {err}", file=sys.stderr)
        raise ReconstructionError(f"could not recover: {', '.join(sorted(result.failures))}")
    return (inputs, result.to_json_dict() if args.json else None,
            _write_or_return(result.program.to_text(), args.output))


def _cmd_reconstruct(args: argparse.Namespace) -> _Outcome:
    from .reconstruction import ExactOracle, reconstruct

    hidden = parse_program(_read(args.hidden, ProgramError))
    graph = DependencyGraph.parse(_read(args.graph, GraphFormatError))
    result = reconstruct(ExactOracle(hidden), graph)
    return _recovered({"hidden": args.hidden, "graph": args.graph}, result, args)


def _cmd_learn(args: argparse.Namespace) -> _Outcome:
    from .learning import Dataset, learn

    dataset = Dataset.from_csv(args.data)
    graph = DependencyGraph.parse(_read(args.graph, GraphFormatError))
    result = learn(dataset, graph, min_support=args.min_support)
    return _recovered(
        {"data": args.data, "graph": args.graph, "min_support": args.min_support},
        result, args)


def _cmd_twin_export(args: argparse.Namespace) -> _Outcome:
    program = parse_program(_read(args.file, ProgramError))
    twin = twin_program(program, parse_assignment(args.do_))
    text = twin.to_program_text()
    return ({"file": args.file, "do": args.do_}, {"program": text},
            _write_or_return(text, args.output))


if __name__ == "__main__":
    sys.exit(main())

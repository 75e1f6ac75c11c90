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
``error[<code>]: <message>``), 2 on bad usage. ``--json`` switches the output
to one JSON document on stdout with the shape
``{"command": ..., "inputs": ..., "result": ..., "diagnostics": [...]}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from .causal import counterfactual_query, interventional_query, twin_program
from .engine import conditional, probability
from .errors import CausalogError
from .formula import conjunction_of, parse_formula
from .graph import DependencyGraph
from .learning import DEFAULT_MIN_SUPPORT, Dataset, forward_sample, learn
from .parser import parse_assignment, parse_program
from .reconstruction import ExactOracle, reconstruct
from .validate import validate


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.run(args)
    except CausalogError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error[io]: {err}", file=sys.stderr)
        return 1
    if getattr(args, "json", False):
        payload.pop("_text", None)
        print(json.dumps(payload, indent=2))
    else:
        text = payload.get("_text", "")
        if text:
            print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalog",
        description="Exact causal reasoning over probabilistic logic programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a program's structural properties")
    p.add_argument("file", help="program file")
    p.add_argument("--strict", action="store_true",
                   help="fail the normal-form flag when a sink lacks an unconditional clause")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("graph", help="export the dependency graph")
    p.add_argument("file", help="program file")
    p.add_argument("--format", choices=("dot", "edges"), default="edges")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_graph)

    p = sub.add_parser("query", help="exact probability of a formula")
    p.add_argument("file", help="program file")
    p.add_argument("--prob", required=True, metavar="FORMULA",
                   help="query formula, e.g. 'recovery & !treatment'")
    p.add_argument("--given", metavar="LITERALS",
                   help="comma-separated evidence literals, e.g. '\\+treatment,recovery'")
    p.add_argument("--do", dest="do_", metavar="LITERALS",
                   help="comma-separated intervention literals")
    p.add_argument("--precision", type=_int_in(0, None, "a nonnegative integer"),
                   default=6, metavar="D", help="decimal places to print (default 6)")
    p.add_argument("--max-worlds", type=_int_in(1, None, "a positive integer"),
                   default=None, help="override the enumeration cap for this query")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_query)

    p = sub.add_parser("sample", help="forward-sample a CSV dataset")
    p.add_argument("file", help="program file")
    p.add_argument("-n", "--rows", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=_int_in(0, 1 << 128, "in [0, 2**128)"), required=True,
                   help="generator seed, 0 <= seed < 2**128")
    p.add_argument("-o", "--output", required=True, help="CSV file to write")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_sample)

    p = sub.add_parser("reconstruct",
                       help="recover a program from an exact oracle and a graph")
    p.add_argument("--hidden", required=True, metavar="FILE",
                   help="program file answering the oracle queries")
    p.add_argument("--graph", required=True, metavar="FILE",
                   help="dependency graph file (DOT or edge list)")
    p.add_argument("-o", "--output", help="write the program to a file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_reconstruct)

    p = sub.add_parser("learn", help="recover a program from samples and a graph")
    p.add_argument("--data", required=True, metavar="CSV", help="sample file")
    p.add_argument("--graph", required=True, metavar="FILE",
                   help="dependency graph file (DOT or edge list)")
    p.add_argument("--min-support", type=int, default=DEFAULT_MIN_SUPPORT,
                   help=f"fewest samples a parent pattern may have (default {DEFAULT_MIN_SUPPORT})")
    p.add_argument("-o", "--output", help="write the program to a file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_learn)

    p = sub.add_parser("twin-export",
                       help="export the evidence/intervention twin of a program")
    p.add_argument("file", help="program file")
    p.add_argument("--do", dest="do_", required=True, metavar="LITERALS",
                   help="comma-separated intervention literals")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_twin_export)

    return parser


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


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_or_return(text: str, output: str | None) -> str:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        return ""
    return text


def _cmd_validate(args: argparse.Namespace) -> dict[str, Any]:
    program = parse_program(_read(args.file))
    report = validate(program, strict=args.strict)
    return {
        "command": "validate",
        "inputs": {"file": args.file, "strict": args.strict},
        "result": report.to_json_dict(),
        "diagnostics": [],
        "_text": report.to_text(),
    }


def _cmd_graph(args: argparse.Namespace) -> dict[str, Any]:
    program = parse_program(_read(args.file))
    graph = program.dependency_graph()
    text = graph.to_dot() if args.format == "dot" else graph.to_edge_list()
    return {
        "command": "graph",
        "inputs": {"file": args.file, "format": args.format},
        "result": {"graph": text},
        "diagnostics": [],
        "_text": _write_or_return(text, args.output),
    }


def _cmd_query(args: argparse.Namespace) -> dict[str, Any]:
    program = parse_program(_read(args.file))
    phi = parse_formula(args.prob, program)
    given = parse_assignment(args.given) if args.given else None
    doing = parse_assignment(args.do_) if args.do_ else None
    if given is not None and doing is not None:
        kind = "counterfactual"
        result = counterfactual_query(program, phi, given, doing, args.max_worlds)
    elif doing is not None:
        kind = "interventional"
        result = interventional_query(program, phi, doing, args.max_worlds)
    elif given is not None:
        kind = "conditional"
        result = conditional(program, phi, conjunction_of(given), args.max_worlds)
    else:
        kind = "observational"
        result = probability(program, phi, args.max_worlds)
    return {
        "command": "query",
        "inputs": {
            "file": args.file,
            "prob": args.prob,
            "given": args.given,
            "do": args.do_,
            "kind": kind,
        },
        "result": {
            "probability": result.probability,
            "worlds_evaluated": result.worlds_evaluated,
            "conditioning_mass": result.conditioning_mass,
        },
        "diagnostics": [],
        "_text": f"{result.probability:.{args.precision}f}\n",
    }


def _cmd_sample(args: argparse.Namespace) -> dict[str, Any]:
    program = parse_program(_read(args.file))
    dataset = forward_sample(program, args.rows, args.seed)
    dataset.to_csv(args.output)
    return {
        "command": "sample",
        "inputs": {"file": args.file, "n": args.rows, "seed": args.seed},
        "result": {
            "output": args.output,
            "columns": list(dataset.columns),
            "rows": len(dataset),
        },
        "diagnostics": [],
        "_text": "",
    }


class _RecoveryFailed(CausalogError):
    code = "reconstruction"


def _recovery_payload(command: str, inputs: dict[str, Any], result,
                      output: str | None) -> dict[str, Any]:
    diagnostics = [
        f"{name}: error[{err.code}]: {err}"
        for name, err in sorted(result.failures.items())
    ]
    if not result.ok:
        for line in diagnostics:
            print(line, file=sys.stderr)
        failed = ", ".join(sorted(result.failures))
        raise _RecoveryFailed(f"could not recover: {failed}")
    text = result.program.to_text()
    return {
        "command": command,
        "inputs": inputs,
        "result": result.to_json_dict(),
        "diagnostics": diagnostics,
        "_text": _write_or_return(text, output),
    }


def _cmd_reconstruct(args: argparse.Namespace) -> dict[str, Any]:
    hidden = parse_program(_read(args.hidden))
    graph = DependencyGraph.parse(_read(args.graph))
    result = reconstruct(ExactOracle(hidden), graph)
    return _recovery_payload(
        "reconstruct", {"hidden": args.hidden, "graph": args.graph},
        result, args.output,
    )


def _cmd_learn(args: argparse.Namespace) -> dict[str, Any]:
    dataset = Dataset.from_csv(args.data)
    graph = DependencyGraph.parse(_read(args.graph))
    result = learn(dataset, graph, min_support=args.min_support)
    return _recovery_payload(
        "learn",
        {"data": args.data, "graph": args.graph, "min_support": args.min_support},
        result, args.output,
    )


def _cmd_twin_export(args: argparse.Namespace) -> dict[str, Any]:
    program = parse_program(_read(args.file))
    doing = parse_assignment(args.do_)
    twin = twin_program(program, doing)
    text = twin.to_program_text()
    return {
        "command": "twin-export",
        "inputs": {"file": args.file, "do": args.do_},
        "result": {"program": text},
        "diagnostics": [],
        "_text": _write_or_return(text, args.output),
    }


if __name__ == "__main__":
    sys.exit(main())

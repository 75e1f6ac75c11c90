"""Structural checks on programs.

Three properties are reported:

* acyclic: the dependency graph has no directed cycle; a cyclic one is
  noted with the cycle ``DependencyGraph.find_cycle`` names, one closed path
  written from its least-named node,
* positive: no clause body contains a negated atom,
* proper normal form: every probability lies strictly between 0 and 1 and
  every sink of the dependency graph has an unconditional clause. Duplicate
  effect/body pairs also break the form but cannot be constructed, the model
  layer rejects them outright.

Reconstruction guarantees hold for acyclic positive programs in proper normal
form. The sink rule matters there: a sink without an unconditional clause can
encode distributions whose reconstruction is ambiguous at the margins. When
``strict`` is false the sink check is still reported in the diagnostics but
does not fail the flag, which is convenient when inspecting derived programs.
"""

from __future__ import annotations

from .frozen import Frozen
from .model import Program, row_text


class ValidationReport(Frozen):
    _fields = ("acyclic", "positive", "proper_normal_form", "diagnostics")

    def __init__(self, acyclic: bool, positive: bool, proper_normal_form: bool,
                 diagnostics: tuple[str, ...]):
        self.__dict__.update(acyclic=acyclic, positive=positive,
                             proper_normal_form=proper_normal_form, diagnostics=diagnostics)

    def to_json_dict(self) -> dict:
        return {
            "acyclic": self.acyclic,
            "positive": self.positive,
            "proper_normal_form": self.proper_normal_form,
            "diagnostics": list(self.diagnostics),
        }

    def to_text(self) -> str:
        lines = [
            f"acyclic: {'yes' if self.acyclic else 'no'}",
            f"positive: {'yes' if self.positive else 'no'}",
            f"proper normal form: {'yes' if self.proper_normal_form else 'no'}",
        ]
        for d in self.diagnostics:
            lines.append(f"  note: {d}")
        return "\n".join(lines) + "\n"


def validate(program: Program, strict: bool = False) -> ValidationReport:
    """Check the three structural properties; findings never raise."""
    diagnostics: list[str] = []
    graph = program.dependency_graph()

    cycle = graph.find_cycle()
    acyclic = cycle is None
    if cycle:
        diagnostics.append("cycle: " + " -> ".join(cycle))

    rows = program._ordered_rows()
    positive = True
    for effect, row, fire in rows:
        negs = [name for name, pos in row if not pos]
        if negs:
            positive = False
            diagnostics.append(f"clause '{row_text(effect, row, fire)}' negates {', '.join(negs)}")

    proper = True
    for effect, row, fire in rows:
        if not (0.0 < fire < 1.0):
            proper = False
            diagnostics.append(
                f"clause '{row_text(effect, row, fire)}' has boundary probability {fire}")

    unconditional = {effect for effect, row, _ in rows if not row}
    for sink in sorted(graph.sinks()):
        if sink not in unconditional:
            diagnostics.append(f"sink {sink} has no unconditional clause")
            if strict:
                proper = False

    return ValidationReport(acyclic, positive, proper, tuple(diagnostics))

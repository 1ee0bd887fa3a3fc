"""Graphviz DOT export of Petri nets.

The export is purely textual (no graphviz dependency); it renders places
as circles (annotated with their initial token count), transitions as
boxes, choice places shaded, and arc weights greater than one as edge
labels — the visual conventions of the paper's figures.
"""

from __future__ import annotations

from typing import Optional

from .net import PetriNet


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def net_to_dot(net: PetriNet, title: Optional[str] = None) -> str:
    """Render ``net`` as a Graphviz DOT digraph string."""
    initial = net.initial_marking
    choices = set(net.choice_places())
    sources = set(net.source_transitions())
    sinks = set(net.sink_transitions())
    lines = [f"digraph {_quote(net.name)} {{"]
    lines.append("  rankdir=LR;")
    if title:
        lines.append(f"  label={_quote(title)};")
        lines.append("  labelloc=t;")
    lines.append("  node [fontsize=10];")
    for place in net.places:
        tokens = initial[place.name]
        label = place.name if not tokens else f"{place.name}\\n{tokens}"
        fill = ', style=filled, fillcolor="#ffe0b0"' if place.name in choices else ""
        lines.append(
            f"  {_quote(place.name)} [shape=circle, label={_quote(label)}{fill}];"
        )
    for transition in net.transitions:
        if transition.name in sources:
            fill = ', style=filled, fillcolor="#c8e6c9"'
        elif transition.name in sinks:
            fill = ', style=filled, fillcolor="#e1bee7"'
        else:
            fill = ""
        label = transition.label or transition.name
        lines.append(
            f"  {_quote(transition.name)} "
            f"[shape=box, height=0.3, label={_quote(label)}{fill}];"
        )
    for arc in net.arcs:
        attrs = ""
        if arc.weight != 1:
            attrs = f' [label="{arc.weight}"]'
        lines.append(f"  {_quote(arc.source)} -> {_quote(arc.target)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"

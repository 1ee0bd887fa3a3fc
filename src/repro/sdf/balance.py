"""Balance equations and repetition vectors for SDF graphs.

The repetition vector ``q`` of an SDF graph is the smallest positive
integer solution of the balance equations
``production(e) * q[source(e)] = consumption(e) * q[target(e)]`` for
every edge ``e``.  Firing each actor ``q`` times returns every channel
to its initial token count, so ``q`` plays exactly the role of the
minimal T-invariant in the Petri net view (Section 2 of the paper).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Optional

from .graph import SDFError, SDFGraph


class InconsistentSDFError(SDFError):
    """The balance equations admit only the trivial solution.

    An inconsistent SDF graph cannot execute forever in bounded memory —
    the dataflow analogue of an inconsistent Petri net.
    """


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def repetition_vector(graph: SDFGraph) -> Dict[str, int]:
    """Compute the minimal repetition vector of ``graph``.

    Raises
    ------
    InconsistentSDFError
        If the balance equations have no positive solution (sample-rate
        inconsistency).
    SDFError
        If the graph has no actors.

    Notes
    -----
    The solution is computed per connected component by propagating
    rational rates along edges and checking consistency on cycles, then
    scaling each component independently to the smallest integer vector.
    Disconnected components are each normalized to their own minimal
    vector (matching the convention that independent subgraphs iterate
    independently).
    """
    if not graph.actor_names:
        raise SDFError("cannot compute a repetition vector for an empty graph")

    rates: Dict[str, Optional[Fraction]] = {a: None for a in graph.actor_names}
    adjacency: Dict[str, list] = {a: [] for a in graph.actor_names}
    for edge in graph.edges:
        # q[target] = q[source] * production / consumption
        ratio = Fraction(edge.production, edge.consumption)
        adjacency[edge.source].append((edge.target, ratio))
        adjacency[edge.target].append((edge.source, 1 / ratio))

    for start in graph.actor_names:
        if rates[start] is not None:
            continue
        rates[start] = Fraction(1)
        stack = [start]
        component = [start]
        while stack:
            actor = stack.pop()
            for neighbour, ratio in adjacency[actor]:
                expected = rates[actor] * ratio
                if rates[neighbour] is None:
                    rates[neighbour] = expected
                    component.append(neighbour)
                    stack.append(neighbour)
                elif rates[neighbour] != expected:
                    raise InconsistentSDFError(
                        f"balance equations are inconsistent at actor "
                        f"{neighbour!r}: {rates[neighbour]} vs {expected}"
                    )
        # scale the component to the smallest integer vector
        denominators = [rates[a].denominator for a in component]
        scale = 1
        for d in denominators:
            scale = _lcm(scale, d)
        numerators = [int(rates[a] * scale) for a in component]
        divisor = 0
        for n in numerators:
            divisor = gcd(divisor, n)
        for actor in component:
            rates[actor] = Fraction(int(rates[actor] * scale) // divisor)

    return {a: int(r) for a, r in rates.items()}

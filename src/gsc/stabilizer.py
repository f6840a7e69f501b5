"""The initialization-based reduction of graph-state generators.

Generator i of a graph state is the Pauli word with X on vertex i and Z on
each of its neighbors. Initializing an independent set of vertices in |+>
(and everything else in |0>) makes the product state a +1 eigenstate of the
generators belonging to that set, so only the remaining generators need to
be measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, json_fields, json_ints

PLUS = "+"
ZERO = "0"

MIS_ORDERS = ("degree_ascending", "seeded_random")


def greedy_maximal_independent_set(
    g: Graph, order: str = "degree_ascending", seed: int = 0
) -> frozenset[int]:
    """Greedy maximal independent set under a deterministic vertex order.

    ``degree_ascending`` (default) visits low-degree vertices first with
    index tie-break; on trees and stars this tends to pick the large side.
    ``seeded_random`` shuffles the visit order for variance studies.
    """
    if order == "degree_ascending":
        verts = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    elif order == "seeded_random":
        verts = list(range(g.n))
        random.Random(f"mis:{seed}").shuffle(verts)
    else:
        raise ValueError(f"unknown MIS order {order!r}")
    chosen = bytearray(g.n)
    blocked = bytearray(g.n)
    out = []
    for v in verts:
        if blocked[v]:
            continue
        chosen[v] = 1
        out.append(v)
        for w in g.adj[v]:
            blocked[w] = 1
        blocked[v] = 1
    return frozenset(out)


@dataclass(frozen=True)
class ReductionPlan:
    """Per-qubit initialization basis plus the generators left to measure."""

    independent_set: frozenset[int]
    init_basis: tuple[str, ...]
    measured: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.init_basis)

    @property
    def init_string(self) -> str:
        """Bases as one string, e.g. '+0+' for |+>|0>|+>."""
        return "".join(self.init_basis)

    def to_json_dict(self) -> dict:
        return {
            "independent_set": sorted(self.independent_set),
            "init": self.init_string,
            "measured": list(self.measured),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ReductionPlan":
        independent, init, measured = json_fields(obj, "plan", "independent_set", "init", "measured")
        if not isinstance(init, str):
            raise TypeError(f"plan init must be a string, got {init!r}")
        bad = [c for c in init if c not in (PLUS, ZERO)]
        if bad:
            raise ValueError(f"invalid init bases {bad}")
        return cls(
            independent_set=frozenset(json_ints(independent, "plan independent_set")),
            init_basis=tuple(init),
            measured=json_ints(measured, "plan measured"),
        )


def reduce_generators(g: Graph, independent_set: frozenset[int]) -> ReductionPlan:
    """Turn a maximal independent set into an initialization/measurement plan.

    Rejects sets that are not independent (witness pair reported) or not
    maximal (witness vertex reported).
    """
    for v in independent_set:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    for v in sorted(independent_set):
        for w in g.adj[v]:
            if w in independent_set and w > v:
                raise ValueError(f"set is not independent: vertices {v} and {w} are adjacent")
    for v in range(g.n):
        if v in independent_set:
            continue
        if not any(w in independent_set for w in g.adj[v]):
            raise ValueError(f"set is not maximal: vertex {v} could be added")
    init = tuple(PLUS if v in independent_set else ZERO for v in range(g.n))
    measured = tuple(v for v in range(g.n) if v not in independent_set)
    return ReductionPlan(independent_set=independent_set, init_basis=init, measured=measured)

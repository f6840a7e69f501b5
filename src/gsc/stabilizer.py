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
from functools import cached_property

import numpy as np

from .graph import Graph

PLUS = "+"
ZERO = "0"
# a membership byte (0 or 1) to its basis character
_BASES = bytes.maketrans(b"\0\1", (ZERO + PLUS).encode())


def greedy_maximal_independent_set(
    g: Graph, order: str = "degree_ascending", seed: int = 0
) -> frozenset[int]:
    """Greedy maximal independent set under a deterministic vertex order.

    ``degree_ascending`` (default) visits low-degree vertices first with
    index tie-break; on trees and stars this tends to pick the large side.
    ``seeded_random`` shuffles the visit order for variance studies.

    The ascending order starts with the vertices of degree 0 and then those
    of degree 1, which are decided at once: nothing blocks an isolated
    vertex, and a leaf is blocked only by an earlier leaf on its one edge,
    the smaller end of a two-vertex component. The loop takes the order on
    from the first vertex of degree 2 or more, leaving out the taken leaves'
    neighbours, which it would pass over.
    """
    blocked = bytearray(g.n)
    marks = np.frombuffer(blocked, dtype=np.uint8)  # writes land in ``blocked``
    if order == "degree_ascending":
        degrees = g.degrees()
        verts = np.argsort(degrees, kind="stable")
        isolated, lead = np.bincount(degrees, minlength=2)[:2].cumsum().tolist()
        out = verts[:isolated].tolist()
        rest = verts[lead:]
        if lead > isolated:
            leaves = verts[isolated:lead]
            ends = g.neighbours[g.offsets[leaves]]
            taken = (degrees[ends] > 1) | (ends > leaves)
            marks[ends[taken]] = 1
            out += leaves[taken].tolist()
            rest = rest[marks[rest] == 0]
        verts = rest.tolist()
    elif order == "seeded_random":
        verts = list(range(g.n))
        random.Random(f"mis:{seed}").shuffle(verts)
        out = []
    else:
        raise ValueError(f"unknown MIS order {order!r}")
    offsets = g.offsets.tolist()
    for v in verts:
        if not blocked[v]:
            out.append(v)
            marks[g.neighbours[offsets[v]:offsets[v + 1]]] = 1
    return frozenset(out)


@dataclass(frozen=True)
class ReductionPlan:
    """Start the independent set in |+> and the rest in |0>; measure the rest's generators."""

    n: int
    independent_set: frozenset[int]

    @cached_property
    def member(self) -> np.ndarray:
        """Whether each vertex is in the set, as a read-only bool array.
        The set must lie in 0..n-1, as ``reduce_generators`` checks. Like
        ``measured``, computed on first use and kept in the instance's
        dict, which a frozen dataclass leaves writable."""
        member = np.zeros(self.n, dtype=bool)
        member[np.fromiter(self.independent_set, dtype=np.int64, count=len(self.independent_set))] = True
        member.setflags(write=False)
        return member

    @cached_property
    def measured(self) -> np.ndarray:
        """Generators left to measure: the set's complement, ascending, as a
        read-only int64 array."""
        measured = (~self.member).nonzero()[0]
        measured.setflags(write=False)
        return measured

    @property
    def init_string(self) -> str:
        """Bases as one string, e.g. '+0+' for |+>|0>|+>: the membership
        mask's bytes, translated."""
        return self.member.view(np.uint8).tobytes().translate(_BASES).decode()


def reduce_generators(g: Graph, independent_set: frozenset[int]) -> ReductionPlan:
    """Turn a maximal independent set into an initialization/measurement plan.

    Rejects sets that are not independent (witness pair reported) or not
    maximal (witness vertex reported). Both checks read only the members'
    rows: no entry there may be a member, and the members with their
    neighbours must cover every vertex.
    """
    n = g.n
    if independent_set and not (0 <= min(independent_set) and max(independent_set) < n):
        v = next(v for v in independent_set if not 0 <= v < n)
        raise ValueError(f"vertex {v} out of range for n={n}")
    plan = ReductionPlan(n, independent_set)
    member = plan.member
    # the members' rows, concatenated in vertex order
    rows = member.nonzero()[0]
    starts = g.offsets[rows]
    lengths = g.offsets[rows + 1] - starts
    ends = lengths.cumsum()
    shift = np.repeat(starts - ends + lengths, lengths)  # from each entry's place to its index
    nbrs = g.neighbours[np.arange(len(shift)) + shift]
    # the first entry that joins two members is the smallest such pair;
    # count_nonzero stands in for any() and all(), which cost more on the
    # small sets gsc verify re-checks
    inner = member[nbrs]
    if np.count_nonzero(inner):
        i = int(inner.argmax())
        v = int(rows[ends.searchsorted(i, side="right")])
        raise ValueError(f"set is not independent: vertices {v} and {int(nbrs[i])} are adjacent")
    covered = member.copy()
    covered[nbrs] = True
    if np.count_nonzero(covered) < n:
        raise ValueError(f"set is not maximal: vertex {int(covered.argmin())} could be added")
    return plan

"""Vertex-to-position assignment on the qubit row.

The min-cut mapper keeps the graph as connected pieces and always takes the
piece holding the smallest unplaced vertex. A piece of at most two vertices
is appended (ascending) to the free end of the row; a larger one is split
into the two sides of its best randomized minimum cut (Karger contraction).
So densely connected vertices land on adjacent positions and their ancilla
intervals stay short. Each piece lists its edges in sorted order, so a
mapping is fixed by the graph, the seed and the stop rules alone. The
contraction runs for a cut stop at a cut of size 1, or once the best cut
equals the piece's exact edge connectivity. That connectivity is computed
only where a fixed rule on the piece's size and the runs left allows it,
from the sparse edge lists (Chartrand's minimum-degree rule, else
Nagamochi-Ibaraki seeded with the best cut so far). One generator serves
every cut and advances only by the runs performed, so these stop rules
decide what later cuts draw: changing any of them changes mappings.

A piece of k > 2 vertices and k - 1 edges is a tree. Its one contraction
run would cut the last edge of its one permutation, since every other edge
joins two groups and a cut of 1 stops the search. So a tree piece draws
that same permutation and splits by one interval test per vertex against
a DFS preorder made once per tree: no union-find, and the same mappings.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import Graph

AUTO = "auto"

DEFAULT_CONTRACTION_BUDGET = 100_000


@dataclass(frozen=True)
class Mapping:
    """Bijection vertex -> row position; pos[v] is where vertex v sits."""

    pos: tuple[int, ...]

    def __post_init__(self):
        n = len(self.pos)
        if set(self.pos) != set(range(n)):
            raise ValueError("mapping is not a bijection onto 0..n-1")

    @property
    def n(self) -> int:
        return len(self.pos)


def basic_mapping(g: Graph, kind: str = "natural", seed: int = 0) -> Mapping:
    """Identity mapping, or a seeded uniform permutation."""
    if kind == "natural":
        return Mapping(pos=tuple(range(g.n)))
    if kind == "random":
        perm = list(range(g.n))
        random.Random(f"map:{seed}").shuffle(perm)
        return Mapping(pos=tuple(perm))
    raise ValueError(f"unknown mapping kind {kind!r}")


def _edge_connectivity(u: np.ndarray, v: np.ndarray, k: int, bound: int | None = None) -> int:
    """Exact edge connectivity of a connected simple graph on k vertices.

    ``bound`` may be the size of any cut of the graph, such as a contraction
    run's: the result is still exact, and a tight bound saves phases. A graph
    with minimum degree at least floor(k/2) has connectivity equal to its
    minimum degree (Chartrand 1966). Otherwise Nagamochi & Ibaraki (1992)
    on the weighted multigraph, kept as one neighbour-weight dict per vertex:
    each phase lowers the best cut B to the smallest degree, scans a
    maximum-adjacency ordering with a bucket queue, and records each edge e
    whose q(e), its far end's key just after e was added to it, is at least
    B. The two ends of such an edge are joined by q(e) edge-disjoint paths,
    so contracting them keeps every cut below B; the last vertex's final
    edge always qualifies, so each phase contracts at least one edge. Work is
    O(m + k) per phase plus the merges, smaller dict into larger.
    """
    nbr: list[dict[int, int]] = [{} for _ in range(k)]
    for a, b in zip(u.tolist(), v.tolist()):
        nbr[a][b] = 1
        nbr[b][a] = 1
    deg = [len(d) for d in nbr]
    if min(deg) >= k // 2:
        return min(deg)
    best = len(u) if bound is None else bound
    parent = list(range(k))
    alive = parent[:]
    while len(alive) > 1:
        best = min(best, min(deg[x] for x in alive))
        key = [0] * k
        seen = [False] * k
        buckets: list[list[int]] = [[] for _ in range(max(deg[x] for x in alive) + 1)]
        heavy = []
        x = alive[0]
        top = 0
        for _ in range(len(alive) - 1):
            seen[x] = True
            for y, wxy in nbr[x].items():
                if not seen[y]:
                    ky = key[y] = key[y] + wxy
                    if ky >= best:
                        heavy.append((x, y))
                    buckets[ky].append(y)
                    if ky > top:
                        top = ky
            while True:  # the graph is connected, so a key above 0 is waiting
                if buckets[top]:
                    x = buckets[top].pop()
                    if not seen[x] and key[x] == top:
                        break
                else:
                    top -= 1
        for a, b in heavy:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            if len(nbr[a]) < len(nbr[b]):
                a, b = b, a
            na, nb = nbr[a], nbr[b]
            deg[a] += deg[b] - 2 * na.pop(b)
            del nb[a]
            for z, wz in nb.items():
                nz = nbr[z]
                del nz[b]
                na[z] = na.get(z, 0) + wz
                nz[a] = na[z]
            parent[b] = a
        alive = [x for x in alive if parent[x] == x]
    return best


def _contraction_runs(
    u: np.ndarray,
    v: np.ndarray,
    k: int,
    reps: int,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray]:
    """Best cut over ``reps`` independent contraction runs.

    Each run contracts uniformly random edges (equivalently: scans a random
    edge permutation with union-find) until two super-vertices remain.
    Returns the smallest crossing-edge count and the group labels of the
    winning run; ties resolve to the earliest run. A run ends with a cut of
    0 exactly when the graph is disconnected. Runs stop once a cut of size 1
    or less is seen, or once the best cut equals the exact edge
    connectivity: no later run could cut fewer edges. The connectivity is
    computed the first time a larger cut is found, and only under a fixed
    stop rule on k and the runs still to come. ``rng`` advances by one
    permutation per run performed, so after a stop it sits right after the
    winning run and the stop rules decide what the caller draws next.
    """
    m = len(u)
    ul = u.tolist()
    vl = v.tolist()
    best_size = m + 1
    best_root = None
    connectivity = None
    for done in range(1, reps + 1):
        order = rng.permutation(m).tolist()
        parent = list(range(k))
        size = [1] * k
        comps = k
        if comps > 2:
            for idx in order:
                a = ul[idx]
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                b = vl[idx]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if a == b:
                    continue
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                comps -= 1
                if comps == 2:
                    break
        root = np.empty(k, dtype=np.int64)
        for i in range(k):
            r = i
            while parent[r] != r:
                r = parent[r]
            root[i] = r
        cut = int(np.count_nonzero(root[u] != root[v]))
        if cut < best_size:
            best_size = cut
            best_root = root
            if best_size <= 1:
                break
            if connectivity is None:
                # fixed stop rule, not a cost estimate: it decides which runs are drawn,
                # so changing it changes mappings (0 never matches)
                remaining = (reps - done) * m
                connectivity = _edge_connectivity(u, v, k, best_size) if 8 * k * k <= remaining else 0
            if best_size == connectivity:
                break
    assert best_root is not None
    return best_size, best_root


def auto_repetitions(k: int, contraction_budget: int = DEFAULT_CONTRACTION_BUDGET) -> int:
    """Repetition count for a k-vertex cut: ceil(k^2 ln k), budget-capped.

    The budget bounds total contractions per cut (each run performs k-2),
    which keeps large components tractable where the uncapped count would
    not be.
    """
    if k < 3:
        return 1
    formula = math.ceil(k * k * math.log(k))
    capped = max(1, contraction_budget // (k - 2))
    return max(1, min(formula, capped))


def _root_tree(verts: list[int], u: np.ndarray, w: np.ndarray, tin: list[int], size: list[int]) -> list[int]:
    """Root a piece of k vertices and k - 1 edges at its first vertex.

    Writes the DFS preorder index and subtree size of each vertex into
    ``tin`` and ``size`` (indexed by graph vertex) and returns each edge's
    child end, in the piece's edge order. Raises if the rooting does not
    reach every vertex: such a piece is disconnected, and only the whole
    graph can be.
    """
    k = len(verts)
    ul, wl = u.tolist(), w.tolist()
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in zip(ul, wl):
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * k
    parent[0] = 0
    preorder = []
    stack = [0]
    while stack:  # a stack DFS lists each subtree contiguously
        x = stack.pop()
        preorder.append(x)
        for y in adj[x]:
            if parent[y] < 0:
                parent[y] = x
                stack.append(y)
    if len(preorder) < k:
        raise ValueError("min-cut mapping requires a connected graph")
    subtree = [1] * k
    for x in reversed(preorder[1:]):
        subtree[parent[x]] += subtree[x]
    for i, x in enumerate(preorder):
        tin[verts[x]] = i
        size[verts[x]] = subtree[x]
    return [verts[b] if parent[b] == a else verts[a] for a, b in zip(ul, wl)]


def mincut_mapping(
    g: Graph,
    repetitions_per_cut: int | str = AUTO,
    seed: int = 0,
    contraction_budget: int = DEFAULT_CONTRACTION_BUDGET,
) -> Mapping:
    """Recursive min-cut placement of vertices onto row positions.

    Pieces wait in a heap keyed by their smallest vertex, so the piece
    holding the smallest unplaced vertex is taken first. A piece of <= 2
    vertices is appended (ascending index) to the rightmost free positions;
    a larger one is replaced by the two sides of its best randomized cut.
    Each side is one contraction group, so it is connected, and only the
    whole graph can give a cut of 0. A piece keeps its vertices ascending
    and its edges, as local indices, in sorted order.

    A piece of k > 2 vertices and k - 1 edges is a tree (a piece below the
    whole graph is connected). A contraction run over a tree unions k - 2
    edges, each joining two groups, and stops with the permutation's last
    edge uncut: a cut of 1, so the search ends after that one run, and its
    sides are the two components of the tree without that edge. So a tree
    piece costs one draw of the same ``rng.permutation(m)`` and one
    interval test per vertex, and mappings are the same as with
    contraction runs. The tree is rooted once, when it first appears, with
    a DFS preorder index and a subtree size per vertex. Every later piece
    of it is a connected subtree of that rooting, kept as its root and the
    child end of each edge, in sorted edge order. The side below the cut
    edge is then the piece's vertices whose preorder index lies in the
    child end's subtree interval.
    """
    reps = repetitions_per_cut
    if reps != AUTO and (type(reps) is not int or reps < 1):  # a bool is not a count
        raise ValueError(f"karger_reps must be {AUTO!r} or an integer of at least 1, got {reps!r}")
    n = g.n
    u, w = g.edge_arrays()
    if n == 2 and not len(u):  # the one disconnected graph that is never cut
        raise ValueError("min-cut mapping requires a connected graph")
    rng = np.random.default_rng(random.Random(f"mincut:{seed}").getrandbits(63))
    tin = [0] * n
    size = [0] * n
    # (smallest vertex, vertex array, u, w), or for a tree piece
    # (smallest vertex, root vertex, child ends of its edges, None)
    pieces = [(0, np.arange(n), u, w)]
    order: list[int] = []
    while pieces:
        _, head, u, w = heapq.heappop(pieces)
        if w is not None:
            verts = head
            k = len(verts)
            if k <= 2:
                order.extend(verts.tolist())
                continue
            if len(u) != k - 1:
                runs = auto_repetitions(k, contraction_budget) if reps == AUTO else reps
                cut, group = _contraction_runs(u, w, k, runs, rng)
                if cut == 0:
                    raise ValueError("min-cut mapping requires a connected graph")
                for side in (group == group[0], group != group[0]):
                    keep = side[u] & side[w]
                    local = np.cumsum(side) - 1
                    sub = verts[side]
                    heapq.heappush(pieces, (int(sub[0]), sub, local[u[keep]], local[w[keep]]))
                continue
            head, u = int(verts[0]), _root_tree(verts.tolist(), u, w, tin, size)
        if len(u) <= 1:
            order.extend(sorted([head, *u]))
            continue
        c = u[rng.permutation(len(u))[-1]]
        lo, hi = tin[c], tin[c] + size[c]
        # c, at lo, roots the side below the cut edge and is an edge of neither side
        below = [y for y in u if lo < tin[y] < hi]
        above = [y for y in u if not lo <= tin[y] < hi]
        heapq.heappush(pieces, (min(c, min(below, default=c)), c, below, None))
        heapq.heappush(pieces, (min(head, min(above, default=head)), head, above, None))
    pos = [0] * n
    for i, vtx in enumerate(order):
        pos[vtx] = n - 1 - i
    return Mapping(pos=tuple(pos))


# Each mapper takes the graph and a seed; ``compile_graph`` and ``gsc compile`` read this table.
MAPPERS = {
    "natural": partial(basic_mapping, kind="natural"),
    "random": partial(basic_mapping, kind="random"),
    "mincut": mincut_mapping,
}

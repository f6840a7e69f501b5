"""Vertex-to-position assignment on the qubit row.

The min-cut mapper keeps the graph as connected pieces and always takes the
piece holding the smallest unplaced vertex. A piece of at most two vertices
is appended (ascending) to the free end of the row; a larger one is split
into the two sides of its best randomized minimum cut (Karger contraction).
So densely connected vertices land on adjacent positions and their ancilla
intervals stay short. Each piece lists its edges in sorted order, so a
mapping is fixed by the graph, the seed and the stop rules alone. The
contraction runs for a cut stop at a cut of size 1, or once the best cut
equals the piece's exact edge connectivity where computing it costs less
than the runs it can save. One generator serves every cut and advances only
by the runs performed, so these stop rules decide what later cuts draw:
changing any of them changes mappings.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

import numpy as np

from .graph import Graph, is_connected

AUTO = "auto"

DEFAULT_CONTRACTION_BUDGET = 100_000

MAPPER_KINDS = ("natural", "random", "mincut")


@dataclass(frozen=True)
class Mapping:
    """Bijection vertex -> row position; pos[v] is where vertex v sits."""

    pos: tuple[int, ...]

    def __post_init__(self):
        n = len(self.pos)
        if sorted(self.pos) != list(range(n)):
            raise ValueError("mapping is not a bijection onto 0..n-1")

    @property
    def n(self) -> int:
        return len(self.pos)

    def row_order(self) -> list[int]:
        """Vertices listed left to right along the row."""
        order = [0] * self.n
        for v, p in enumerate(self.pos):
            order[p] = v
        return order


@dataclass(frozen=True)
class CutResult:
    cut_size: int
    cut_edges: frozenset[tuple[int, int]]
    sides: tuple[frozenset[int], frozenset[int]]


def basic_mapping(g: Graph, kind: str = "natural", seed: int = 0) -> Mapping:
    """Identity mapping, or a seeded uniform permutation."""
    if kind == "natural":
        return Mapping(pos=tuple(range(g.n)))
    if kind == "random":
        perm = list(range(g.n))
        random.Random(f"map:{seed}").shuffle(perm)
        return Mapping(pos=tuple(perm))
    raise ValueError(f"unknown mapping kind {kind!r}")


def _edge_connectivity(u: np.ndarray, v: np.ndarray, k: int) -> int:
    """Exact edge connectivity of a connected simple graph on k vertices.

    Stoer & Wagner (J. ACM 1997): each phase grows a maximum-adjacency
    ordering, takes the weight joining its last vertex to the rest as a cut
    value and merges that vertex into the one before it; the smallest of the
    k-1 phase cuts is the minimum cut. Memory is one dense k x k matrix and
    the work about k^2 numpy row operations.
    """
    w = np.zeros((k, k), dtype=np.int32)
    w[u, v] = 1
    w[v, u] = 1
    removed = np.zeros(k, dtype=bool)
    floor = -(2 * len(u) + 1)  # keeps ordered and merged vertices below any unordered key
    best = len(u)
    for n in range(k, 1, -1):
        key = np.where(removed, floor, 0).astype(np.int64)
        s = t = int(np.argmin(removed))
        for _ in range(n - 1):
            key[t] = floor
            key += w[t]
            s, t = t, int(key.argmax())
        best = min(best, int(key[t]))
        w[s] += w[t]
        w[:, s] += w[:, t]
        w[s, s] = 0
        w[t] = 0
        w[:, t] = 0
        removed[t] = True
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
    winning run; ties resolve to the earliest run. The graph must be
    connected. Runs stop once a cut of size 1 is seen, or once the best cut
    equals the exact edge connectivity: no later run could cut fewer edges.
    The connectivity is computed the first time a larger cut is found, and
    only if it is cheaper than the runs still to come. ``rng`` advances by one
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
                # Stoer-Wagner takes about k^2 row steps, each worth about eight edges
                # of a run: skip it (0 never matches) unless the runs left cost more
                remaining = (reps - done) * m
                connectivity = _edge_connectivity(u, v, k) if 8 * k * k <= remaining else 0
            if best_size == connectivity:
                break
    assert best_root is not None
    return best_size, best_root


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the sorted edge list: edge i joins u[i] < v[i]."""
    pairs = np.array(g.sorted_edges(), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def karger_min_cut(g: Graph, repetitions: int, seed: int = 0) -> CutResult:
    """Randomized minimum cut: best partition over repeated contraction runs."""
    if g.n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    if type(repetitions) is not int or repetitions < 1:
        raise ValueError(f"repetitions must be an integer of at least 1, got {repetitions!r}")
    if not is_connected(g):
        raise ValueError("minimum cut requires a connected graph")
    u, v = _edge_arrays(g)
    rng = np.random.default_rng(random.Random(f"karger:{seed}").getrandbits(63))
    cut_size, root = _contraction_runs(u, v, g.n, repetitions, rng)
    side = root == root[0]
    crossing = side[u] != side[v]
    return CutResult(
        cut_size=cut_size,
        cut_edges=frozenset(zip(u[crossing].tolist(), v[crossing].tolist())),
        sides=(frozenset(np.flatnonzero(side).tolist()), frozenset(np.flatnonzero(~side).tolist())),
    )


def check_repetitions(reps: int | str) -> None:
    """Raise ValueError unless ``reps`` is AUTO or an integer (not a bool) of at least 1."""
    if reps != AUTO and (type(reps) is not int or reps < 1):
        raise ValueError(f"karger_reps must be {AUTO!r} or an integer of at least 1, got {reps!r}")


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
    Each side is one contraction group, so it is connected. A piece keeps
    its vertices ascending and its edges, as local indices, in sorted order.
    """
    check_repetitions(repetitions_per_cut)
    if not is_connected(g):
        raise ValueError("min-cut mapping requires a connected graph")
    n = g.n
    rng = np.random.default_rng(random.Random(f"mincut:{seed}").getrandbits(63))
    pieces = [(0, np.arange(n), *_edge_arrays(g))]
    order: list[int] = []
    while pieces:
        _, verts, u, w = heapq.heappop(pieces)
        k = len(verts)
        if k <= 2:
            order.extend(verts.tolist())
            continue
        reps = repetitions_per_cut
        if reps == AUTO:
            reps = auto_repetitions(k, contraction_budget)
        _, root = _contraction_runs(u, w, k, reps, rng)
        for side in (root == root[0], root != root[0]):
            keep = side[u] & side[w]
            local = np.cumsum(side) - 1
            sub = verts[side]
            heapq.heappush(pieces, (int(sub[0]), sub, local[u[keep]], local[w[keep]]))
    pos = [0] * n
    for i, vtx in enumerate(order):
        pos[vtx] = n - 1 - i
    return Mapping(pos=tuple(pos))

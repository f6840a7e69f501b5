"""Vertex-to-position assignment on the qubit row.

The min-cut mapper repeatedly splits the working graph along randomized
minimum cuts (Karger contraction) and appends components of at most two
vertices to the free end of the row, so densely connected vertices land on
adjacent positions and their ancilla intervals stay short. The contraction
runs for a cut stop at a cut of size 1, or once the best cut equals the
component's exact edge connectivity where computing it costs less than the
runs it can save. One generator serves every cut and advances only by the
runs performed, so these stop rules decide what later cuts draw: changing
any of them changes mappings.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .graph import Graph, bfs_component, is_connected

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


def karger_min_cut(g: Graph, repetitions: int, seed: int = 0) -> CutResult:
    """Randomized minimum cut: best partition over repeated contraction runs."""
    if g.n < 2:
        raise ValueError("minimum cut needs at least 2 vertices")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if not is_connected(g):
        raise ValueError("minimum cut requires a connected graph")
    edges = g.sorted_edges()
    u = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    v = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    rng = np.random.default_rng(random.Random(f"karger:{seed}").getrandbits(63))
    cut_size, root = _contraction_runs(u, v, g.n, repetitions, rng)
    label0 = root[0]
    side_a = frozenset(i for i in range(g.n) if root[i] == label0)
    side_b = frozenset(range(g.n)) - side_a
    crossing = frozenset(e for e in edges if (root[e[0]] == label0) != (root[e[1]] == label0))
    assert len(crossing) == cut_size
    return CutResult(cut_size=cut_size, cut_edges=crossing, sides=(side_a, side_b))


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

    Working on a shrinking copy of the graph: the component containing the
    smallest remaining vertex is examined first; components of <= 2 vertices
    are appended (ascending index) to the rightmost free positions and
    removed, larger ones lose the edges of their best randomized cut.
    """
    check_repetitions(repetitions_per_cut)
    if not is_connected(g):
        raise ValueError("min-cut mapping requires a connected graph")
    n = g.n
    rng = np.random.default_rng(random.Random(f"mincut:{seed}").getrandbits(63))
    adj: dict[int, set[int]] = {v: set(g.adj[v]) for v in range(n)}
    alive: set[int] = set(range(n))
    order: list[int] = []
    while alive:
        comp = bfs_component(adj, min(alive))
        if len(comp) <= 2:
            order.extend(sorted(comp))
            for v in comp:
                for w in adj[v]:
                    adj[w].discard(v)
                adj.pop(v, None)
                alive.discard(v)
            continue
        verts = sorted(comp)
        index = {v: i for i, v in enumerate(verts)}
        pairs = [(index[a], index[b]) for a in verts for b in adj[a] if a < b]
        u = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
        w = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
        if repetitions_per_cut == AUTO:
            reps = auto_repetitions(len(verts), contraction_budget)
        else:
            reps = repetitions_per_cut
        _, root = _contraction_runs(u, w, len(verts), reps, rng)
        for i, j in pairs:
            if root[i] != root[j]:
                a, b = verts[i], verts[j]
                adj[a].discard(b)
                adj[b].discard(a)
    assert len(order) == n
    pos = [0] * n
    for i, vtx in enumerate(order):
        pos[vtx] = n - 1 - i
    return Mapping(pos=tuple(pos))

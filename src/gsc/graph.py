"""Undirected simple graphs: construction, generator families, file I/O, basic queries.

Vertices are dense integers ``0..n-1``. Graphs are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GNM_RETRY_CAP = 1000

GENERATOR_KINDS = ("path", "star", "complete", "random_tree", "gnm")


class GraphFormatError(ValueError):
    """A matrix, edge list, or graph file violates the expected format."""


@dataclass(frozen=True)
class Graph:
    """Connected or general simple graph over vertices 0..n-1.

    ``edges`` holds canonical pairs (a, b) with a < b; ``adj`` holds sorted
    neighbor tuples, symmetric by construction.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def matrix(self) -> list[list[int]]:
        """Adjacency-matrix view: rows[a][b] == 1 iff {a,b} is an edge."""
        rows = [[0] * self.n for _ in range(self.n)]
        for a, b in self.edges:
            rows[a][b] = 1
            rows[b][a] = 1
        return rows

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class GraphStats:
    n: int
    edge_count: int
    max_degree: int
    density: float


def _make_graph(n: int, pairs) -> Graph:
    if n < 1:
        raise GraphFormatError(f"vertex count must be >= 1, got {n}")
    canon = set()
    for a, b in pairs:
        if not (0 <= a < n) or not (0 <= b < n):
            raise GraphFormatError(f"edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise GraphFormatError(f"self-loop at vertex {a}")
        canon.add((a, b) if a < b else (b, a))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in canon:
        neighbors[a].append(b)
        neighbors[b].append(a)
    adj = tuple(tuple(sorted(ns)) for ns in neighbors)
    return Graph(n=n, edges=frozenset(canon), adj=adj)


def from_edge_list(n: int, pairs) -> Graph:
    """Build a graph from (a, b) pairs; duplicates collapse to one edge."""
    return _make_graph(n, pairs)


def from_adjacency_matrix(rows) -> Graph:
    """Build a graph from a 0/1 adjacency matrix.

    The matrix must be square, symmetric, zero on the diagonal, and binary;
    the first violation (in row-major order) is reported.
    """
    n = len(rows)
    if n == 0:
        raise GraphFormatError("empty matrix")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise GraphFormatError(f"row {i} has {len(row)} entries, expected {n}")
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if v not in (0, 1):
                raise GraphFormatError(f"entry ({i}, {j}) is {v!r}, expected 0 or 1")
            if i == j and v != 0:
                raise GraphFormatError(f"nonzero diagonal at ({i}, {i})")
            if j < i and rows[j][i] != v:
                raise GraphFormatError(f"matrix not symmetric at ({j}, {i})")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] == 1]
    return _make_graph(n, pairs)


def neighborhood(g: Graph, v: int) -> frozenset[int]:
    """Vertices adjacent to v. Never contains v itself."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    return frozenset(g.adj[v])


def graph_stats(g: Graph) -> GraphStats:
    max_deg = max((len(ns) for ns in g.adj), default=0)
    density = 0.0 if g.n < 2 else 2.0 * g.edge_count / (g.n * (g.n - 1))
    return GraphStats(n=g.n, edge_count=g.edge_count, max_degree=max_deg, density=density)


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (n=1 counts)."""
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == g.n


def _tree_from_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return _tree_from_pruefer(seq, n)


def _pair_from_index(k: int, n: int) -> tuple[int, int]:
    # Lexicographic rank over pairs (a, b), a < b: rank = a*n - a(a+1)/2 + (b-a-1).
    def before(a: int) -> int:
        return a * n - a * (a + 1) // 2

    a = int((2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * k)) // 2)
    while before(a + 1) <= k:
        a += 1
    while a > 0 and before(a) > k:
        a -= 1
    b = a + 1 + (k - before(a))
    return a, b


def generate(kind: str, n: int, m: int | None = None, seed: int = 0) -> Graph:
    """Generate a named test-family graph, deterministic for a fixed seed.

    Kinds: ``path``, ``star`` (vertex 0 is the hub), ``complete``,
    ``random_tree`` (uniform labeled tree), ``gnm`` (uniform over connected
    graphs with m edges; resampled until connected, except m = n-1 which is
    drawn directly as a uniform tree).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind == "path":
        return _make_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "star":
        return _make_graph(n, [(0, i) for i in range(1, n)])
    if kind == "complete":
        return _make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "random_tree":
        rng = random.Random(f"tree:{seed}:{n}")
        return _make_graph(n, _random_tree_edges(n, rng))
    if kind == "gnm":
        if m is None:
            raise ValueError("gnm requires an edge count m")
        return _generate_gnm(n, m, seed)
    raise ValueError(f"unknown graph kind {kind!r}")


def _generate_gnm(n: int, m: int, seed: int) -> Graph:
    total = n * (n - 1) // 2
    lo = n - 1
    if not (lo <= m <= total):
        raise ValueError(f"gnm edge count m={m} outside [{lo}, {total}] for n={n}")
    rng = random.Random(f"gnm:{seed}:{n}:{m}")
    if m == lo:
        # Connected graphs with exactly n-1 edges are the labeled trees, so
        # sample one directly instead of rejection sampling (which has
        # vanishing acceptance probability at this edge count).
        return _make_graph(n, _random_tree_edges(n, rng))
    for _ in range(GNM_RETRY_CAP):
        ranks = rng.sample(range(total), m)
        g = _make_graph(n, (_pair_from_index(k, n) for k in ranks))
        if is_connected(g):
            return g
    raise ValueError(
        f"could not sample a connected G(n={n}, m={m}) graph in {GNM_RETRY_CAP} attempts: "
        f"rejection sampling rarely reaches connected graphs below about (n/2) ln n "
        f"= {round(n / 2 * math.log(n))} edges"
    )


# ---------------------------------------------------------------------------
# Text and JSON formats


def parse_adjacency_text(text: str) -> Graph:
    """Parse the matrix format: n lines of n space-separated 0/1 entries."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows = []
    for ln in lines:
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer matrix entry in line {ln!r}") from exc
    return from_adjacency_matrix(rows)


def write_adjacency_text(g: Graph) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in g.matrix()) + "\n"


def parse_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format: first line "n m", then m lines "a b"."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header promises {m} edges, found {len(lines) - 1} lines")
    pairs = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise GraphFormatError(f"edge line must be 'a b', got {ln!r}")
        try:
            pairs.append((int(toks[0]), int(toks[1])))
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
    return from_edge_list(n, pairs)


def write_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{a} {b}" for a, b in g.sorted_edges())
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[a, b] for a, b in g.sorted_edges()]}


def json_fields(obj, what: str, *keys: str) -> list:
    """Values of ``keys`` in the JSON object ``obj``, named ``what`` in errors."""
    if not isinstance(obj, dict):
        raise TypeError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} is missing field {key!r}")
    return [obj[key] for key in keys]


def json_int(x, what: str) -> int:
    """A JSON integer; floats and bools are rejected."""
    # type() rather than isinstance(): true and false are ints to isinstance
    if type(x) is not int:
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return x


def json_ints(values, what: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple; floats and bools are rejected."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{what} must be a list of integers, got {values!r}")
    return tuple(json_int(x, what) for x in values)


def graph_from_json_dict(obj: dict) -> Graph:
    try:
        n, edges = json_fields(obj, "graph JSON", "n", "edges")
        n = json_int(n, "graph JSON n")
        if not isinstance(edges, (list, tuple)):
            raise TypeError(f"graph JSON edges must be a list, got {edges!r}")
        pairs = [json_ints(e, f"edge entry {e!r}") for e in edges]
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(str(exc)) from exc
    for e in pairs:
        if len(e) != 2:
            raise GraphFormatError(f"edge entry {list(e)!r} is not a pair")
    return from_edge_list(n, pairs)


def load_graph(path: str | Path) -> Graph:
    """Load a graph file, dispatching on extension (.json / .adj / .edges).

    Unknown extensions are sniffed: JSON if the content starts with '{',
    otherwise an edge list when the first line looks like a plausible
    'n m' header, else an adjacency matrix.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: invalid JSON: {exc}") from exc
        return graph_from_json_dict(obj)
    if suffix == ".adj":
        return parse_adjacency_text(text)
    if suffix == ".edges":
        return parse_edge_list_text(text)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return graph_from_json_dict(json.loads(stripped))
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) == 2 and len(lines) >= 2:
        try:
            return parse_edge_list_text(text)
        except GraphFormatError:
            pass
    return parse_adjacency_text(text)


def save_graph(g: Graph, path: str | Path) -> None:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".json":
        path.write_text(json.dumps(graph_to_json_dict(g)) + "\n", encoding="utf-8")
    elif suffix == ".edges":
        path.write_text(write_edge_list_text(g), encoding="utf-8")
    else:
        path.write_text(write_adjacency_text(g), encoding="utf-8")

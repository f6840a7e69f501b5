"""Undirected simple graphs: construction, generator families, file I/O, basic queries.

Vertices are dense integers ``0..n-1``. A graph is stored in compressed
sparse row (CSR) form: two read-only int64 arrays, row offsets and the
sorted neighbours of each vertex. The edge set and edge count are derived
from them. Graphs are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import gc
import json
import math
import random
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

GNM_RETRY_CAP = 1000
# gnm edge counts whose samples average more isolated vertices than this are
# rejected before sampling: a sample is then connected with probability below
# about e^-20, so every attempt would fail.
GNM_MAX_ISOLATED = 20

# Largest vertex and edge counts any builder accepts, checked before anything
# of that size is allocated. Ten times the million-vertex, four-million-edge
# graphs the pipeline is sized for; the vertex limit also keeps a vertex pair
# packable into one int64 (see from_edge_list).
MAX_VERTICES = 10_000_000
MAX_EDGES = 40_000_000

GENERATOR_KINDS = ("path", "star", "complete", "random_tree", "gnm")


class GraphFormatError(ValueError):
    """A matrix, edge list, or graph file violates the expected format."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple graph over vertices 0..n-1 in compressed sparse row form.

    Row v is ``neighbours[offsets[v]:offsets[v + 1]]``, ascending, and every
    edge appears in the rows of both its ends. Both arrays are int64 and made
    read-only here, so the graph takes them over. ``from_edge_list`` is the
    one builder; the edge set, edge count and sorted edge list are derived
    from the arrays.
    """

    n: int
    offsets: np.ndarray
    neighbours: np.ndarray

    def __post_init__(self):
        self.offsets.setflags(write=False)
        self.neighbours.setflags(write=False)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Canonical pairs (a, b) with a < b."""
        return frozenset(self.sorted_edges())

    @property
    def edge_count(self) -> int:
        return len(self.neighbours) // 2

    def degrees(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def entry_rows(self) -> np.ndarray:
        """The vertex whose row holds each entry of ``neighbours``."""
        return np.repeat(np.arange(self.n), self.degrees())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints of the sorted edge list: edge i joins u[i] < v[i]."""
        rows = self.entry_rows()
        lower = rows < self.neighbours
        return rows[lower], self.neighbours[lower]

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Canonical pairs in ascending order, as Python ints. Each vertex is
        one int object shared by all its pairs, so whatever keeps the pairs
        keeps n ints, not 2m."""
        u, v = self.edge_arrays()
        vertex = list(range(self.n)).__getitem__
        return list(zip(map(vertex, u.tolist()), map(vertex, v.tolist())))


def neighbour_reduce(g: Graph, values: np.ndarray, *ufuncs: np.ufunc) -> list[np.ndarray]:
    """For each ufunc, its reduction over each vertex's own value and its
    neighbours' values.

    ``ufunc.reduceat`` gives an empty segment the first value of the next one
    (and fails on an empty segment at the end), so only rows with neighbours
    are reduced; a vertex of degree 0 keeps its own value.
    """
    rows = (g.offsets[:-1] < g.offsets[1:]).nonzero()[0]
    starts = g.offsets[rows]
    entries = values[g.neighbours]
    own = values[rows]
    out = []
    for ufunc in ufuncs:
        reduced = values.copy()
        reduced[rows] = ufunc(own, ufunc.reduceat(entries, starts))
        out.append(reduced)
    return out


def _pair_error(a, b, n: int) -> str | None:
    if not (0 <= a < n) or not (0 <= b < n):
        return f"edge ({a}, {b}) out of range for n={n}"
    if a == b:
        return f"self-loop at vertex {a}"
    return None


def from_edge_list(n: int, pairs) -> Graph:
    """Build a graph from (a, b) pairs, given as an (m, 2) integer array or any
    iterable of pairs; duplicates (in either orientation) collapse to one edge.

    The first pair out of range or forming a self-loop is reported. Each pair
    is packed into one int64 key (row << 32 | column) for both of its
    orientations, so one sort orders the CSR entries, an adjacent compare
    finds the duplicates (copying the keys only when there are any), and
    row v starts where the first key at or above v << 32 lies. The keys
    become the neighbours in place: one array of 2m entries is all that is
    allocated at full size, which keeps the builder's peak memory low.
    """
    if n < 1:
        raise GraphFormatError(f"vertex count must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if not isinstance(pairs, (np.ndarray, list, tuple)):
        pairs = list(pairs)
    if len(pairs) > MAX_EDGES:
        raise GraphFormatError(f"edge count {len(pairs)} exceeds the limit of {MAX_EDGES}")
    try:
        ends = np.asarray(pairs)
    except ValueError:  # rows of different lengths
        raise GraphFormatError("edges must be given as (a, b) pairs") from None
    if not len(ends):
        ends = np.empty((0, 2), dtype=np.int64)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise GraphFormatError("edges must be given as (a, b) pairs")
    if ends.dtype.kind not in "iu":  # floats, or ints too large for int64
        for a, b in pairs:
            error = _pair_error(a, b, n)
            if error:
                raise GraphFormatError(error)
        raise GraphFormatError("edge endpoints must be integers")
    a, b = ends[:, 0], ends[:, 1]
    if len(ends) and (ends.min() < 0 or ends.max() >= n or (a == b).any()):
        i = int(((a < 0) | (a >= n) | (b < 0) | (b >= n) | (a == b)).argmax())
        raise GraphFormatError(_pair_error(int(a[i]), int(b[i]), n))
    ends = ends.astype(np.int64, copy=False)
    keys = ends << 32
    keys |= ends[:, ::-1]
    keys = keys.ravel()
    keys.sort()
    repeats = keys[1:] == keys[:-1]
    if repeats.any():
        keys = np.concatenate((keys[:1], keys[1:][~repeats]))
    offsets = np.searchsorted(keys, np.arange(n + 1) << 32)
    keys &= 0xFFFFFFFF
    return Graph(n, offsets, keys)


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
    return from_edge_list(n, pairs)


def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (n=1 counts).

    Min-label hooking with pointer jumping, after Shiloach and Vishkin (1982).
    Each vertex holds a label: a vertex of its own component, no larger than
    itself, at first itself; labels always point at roots (label[label] ==
    label). In a round every vertex looks up the smallest label in its closed
    neighbourhood and lowers its root's label to it, then every label jumps to
    its new root. Labels only fall, so rounds end: the graph is connected once
    every label is 0, and it is not once a round finds no smaller label next
    to any vertex, since then every edge joins equal labels. Vertex 0's
    neighbours start at label 0, which settles a graph whose vertex 0 sees
    every vertex (a complete graph, a star) without a round.
    """
    label = np.arange(g.n)
    label[g.neighbours[:g.offsets[1]]] = 0
    while label.any():
        (near,) = neighbour_reduce(g, label, np.minimum)
        if (near == label).all():
            return False
        np.minimum.at(label, label, near)
        while not ((jumped := label[label]) == label).all():
            label = jumped
    return True


def _words(rng: random.Random, count: int) -> array:
    """The next ``count`` outputs of rng's Mersenne Twister, as 32-bit words.

    ``getrandbits(k)`` fills its result with outputs, least significant word
    first, and keeps the top bits of the last one. So the little-endian bytes
    of ``getrandbits(32 * count)`` are the next ``count`` outputs in order,
    and rng ends where ``count`` calls of ``getrandbits(32)`` would leave it.
    """
    words = array("I", rng.getrandbits(32 * count).to_bytes(4 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _below(rng: random.Random, n: int, count: int) -> list[int]:
    """The next ``count`` values of CPython's ``rng._randbelow(n)``,
    1 <= n < 2**64: ``getrandbits(n.bit_length())``, drawn again while it is
    at least n. Above 32 bits a draw takes two words, the low one whole and
    the top bits of the high one. Each round draws once for every value still
    wanted, and each of those needs at least one draw, so rng ends where the
    single calls would have left it."""
    bits = n.bit_length()
    out = []
    while len(out) < count:
        need = count - len(out)
        if bits <= 32:
            values = np.frombuffer(_words(rng, need), np.uint32) >> (32 - bits)
        else:
            words = np.frombuffer(_words(rng, 2 * need), np.uint32).astype(np.uint64)
            values = words[1::2] >> (64 - bits) << 32 | words[::2]
        out += values[values < n].tolist()
    return out


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(n), k)`` as CPython draws it, for 0 <= k <= n < 2**63.

    When an n-entry list is no larger than a k-entry set, CPython keeps a
    pool of the values not yet taken: step i takes pool[j] for j below
    n - i, and moves the pool's last entry into its place (a partial
    Fisher-Yates shuffle). Here the pool is a list of None, which stands for
    the entry's own index, so no int is made for an entry never moved. Each
    round reads one word for every value still wanted. The pool only arises
    for n < 2**32 (beyond, it needs k above 2**28), so a word always holds a
    draw. Otherwise CPython draws below n and keeps the first of each value
    until it has k, which the insertion order of a dict keeps.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize:
        selected = {}
        while len(selected) < k:
            selected.update(dict.fromkeys(_below(rng, n, k - len(selected))))
        return list(selected)
    out = []
    pool = [None] * n
    bound = n  # the pool's size: draws are below it
    shift = 32 - n.bit_length()
    while bound > n - k:
        for word in _words(rng, bound - (n - k)):
            j = word >> shift
            if j < bound:
                bound -= 1
                v = pool[j]
                out.append(j if v is None else v)
                v = pool[bound]
                pool[j] = bound if v is None else v
                if bound >> (31 - shift) == 0:  # one bit fewer from here on
                    shift += 1
    return out


def _shuffled(rng: random.Random, n: int) -> list[int]:
    """``range(n)`` after CPython's ``rng.shuffle``, for 1 <= n < 2**32:
    for i = n - 1 down to 1, swap entry i with entry ``_randbelow(i + 1)``.
    As in ``_sample``'s pool, each round reads one word for every swap still
    to make, and a draw takes the word's top (i + 1).bit_length() bits and
    is drawn again while it is above i, so rng ends where ``shuffle`` would
    leave it."""
    perm = list(range(n))
    bound = n  # the next swap's draws are below it
    shift = 32 - n.bit_length()
    low = 1 << (31 - shift)  # below this bound a draw takes one bit fewer
    while bound > 1:
        for word in _words(rng, bound - 1):
            j = word >> shift
            if j < bound:
                bound -= 1
                perm[bound], perm[j] = perm[j], perm[bound]
                if bound < low:
                    shift += 1
                    low >>= 1
    return perm


def _tree_from_pruefer(seq: list[int], n: int) -> np.ndarray:
    """Edges of the labeled tree on n >= 2 vertices with Pruefer sequence
    seq, as an (n - 1, 2) array.

    Step i joins seq[i] to the smallest leaf. Linear time: a vertex becomes
    a leaf when its last entry in seq is used, and when that vertex lies
    below the scan position it is the smallest leaf; otherwise the scan
    moves on to the next vertex with no entries left. The last edge joins
    the final leaf to n - 1, which is never the smallest of two leaves.
    """
    left = np.bincount(seq, minlength=n).tolist()  # entries of each vertex still ahead in seq
    scan = leaf = left.index(0)
    leaves = []
    for v in seq:
        leaves.append(leaf)
        left[v] -= 1
        if not left[v] and v < scan:
            leaf = v
        else:
            scan += 1
            while left[scan]:
                scan += 1
            leaf = scan
    edges = np.empty((n - 1, 2), dtype=np.int64)
    edges[:-1, 0], edges[:-1, 1] = leaves, seq
    edges[-1] = leaf, n - 1
    return edges


def _random_tree_edges(n: int, rng: random.Random) -> np.ndarray:
    """A uniform labeled tree: a Pruefer sequence of n - 2 uniform draws."""
    if n == 1:
        return np.empty((0, 2), dtype=np.int64)
    return _tree_from_pruefer(_below(rng, n, n - 2), n)


def _pairs_from_ranks(ranks: np.ndarray, n: int) -> np.ndarray:
    """Pair (a, b), a < b, of each lexicographic rank over the pairs of 0..n-1,
    as an (m, 2) array: rank = before(a) + (b-a-1), before(a) = a*n - a(a+1)/2.

    a is the largest integer with before(a) <= rank: the floor of the
    smaller root (2n-1 - sqrt(D))/2 of before(a) = rank, D = (2n-1)^2 - 8*rank.
    s is the exact integer square root of D (the float root is exact to one
    unit, as D stays below 2^53 for n within MAX_VERTICES). When D is a
    square, the root is (2n-1-s)/2 (s is odd, as D is). Otherwise it lies
    strictly between (2n-2-s)/2 and (2n-1-s)/2, so its floor is (2n-1-s)//2
    when s is even and one less when s is odd.
    """
    disc = (2 * n - 1) ** 2 - 8 * ranks
    root = np.sqrt(disc).astype(np.int64)
    root -= root * root > disc
    root += (root + 1) * (root + 1) <= disc
    a = (2 * n - 1 - root) // 2 - (root & 1 & (root * root != disc))
    return np.column_stack((a, a + 1 + ranks - (a * n - a * (a + 1) // 2)))


def _expected_isolated(n: int, m: int) -> float:
    """Mean number of isolated vertices in a uniform G(n, m):
    n * C(N - n + 1, m) / C(N, m) with N = n(n-1)/2 vertex pairs."""
    free = n * (n - 1) // 2 - (n - 1)  # pairs that avoid one vertex
    if m > free:
        return 0.0
    log_ratio = (math.lgamma(free + 1) - math.lgamma(free - m + 1)
                 - math.lgamma(free + n) + math.lgamma(free + n - m))
    return n * math.exp(log_ratio)


def check_generator_args(kind: str, n: int, m: int | None = None) -> None:
    """Raise ValueError unless ``generate`` accepts these arguments: a known
    kind, 1 <= n <= MAX_VERTICES, an edge count for gnm only, in
    [n-1, n(n-1)/2], at most MAX_EDGES edges, and for gnm an edge count not
    so far below the connectivity threshold that no sample is connected."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"n={n} exceeds the limit of {MAX_VERTICES} vertices")
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}")
    if m is not None and kind != "gnm":
        raise ValueError(f"{kind} takes no edge count")
    total = n * (n - 1) // 2
    if kind == "gnm":
        if m is None:
            raise ValueError("gnm requires an edge count m")
        if not (n - 1 <= m <= total):
            raise ValueError(f"gnm edge count m={m} outside [{n - 1}, {total}] for n={n}")
    edges = {"complete": total, "gnm": m}.get(kind, n - 1)
    if edges > MAX_EDGES:
        raise ValueError(f"{kind} on n={n} has {edges} edges, over the limit of {MAX_EDGES}")
    isolated = _expected_isolated(n, m) if kind == "gnm" and m > n - 1 else 0.0
    if isolated > GNM_MAX_ISOLATED:
        raise ValueError(
            f"gnm edge count m={m} is far below the connectivity threshold (n/2) ln n "
            f"= {round(n / 2 * math.log(n))} for n={n}: a G(n, m) sample has "
            f"{isolated:.1f} isolated vertices on average, so connected samples are out of reach"
        )


def generate(kind: str, n: int, m: int | None = None, seed: int = 0) -> Graph:
    """Generate a named test-family graph, deterministic for a fixed seed.

    Kinds: ``path``, ``star`` (vertex 0 is the hub), ``complete``,
    ``random_tree`` (uniform labeled tree), ``gnm`` (uniform over connected
    graphs with m edges; resampled until connected, except m = n-1 which is
    drawn directly as a uniform tree).
    """
    check_generator_args(kind, n, m)
    if kind == "path":
        return from_edge_list(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))
    if kind == "star":
        return from_edge_list(n, np.column_stack((np.zeros(n - 1, dtype=np.int64), np.arange(1, n))))
    if kind == "complete":
        # the pairs (a, b) in order, as running sums of their steps: b steps
        # up by one, except at the start of row a, where a steps up by one
        # and b falls from n-1 to a+1; no array but the pairs is full size
        a = np.arange(1, n - 1)
        pairs = np.zeros((n * (n - 1) // 2, 2), dtype=np.int64)
        pairs[:, 1] = 1
        pairs[a * n - a * (a + 1) // 2] = np.column_stack((np.ones_like(a), a + 2 - n))
        return from_edge_list(n, np.cumsum(pairs, axis=0, out=pairs))
    if kind == "random_tree":
        rng = random.Random(f"tree:{seed}:{n}")
        return from_edge_list(n, _random_tree_edges(n, rng))
    return _generate_gnm(n, m, seed)


def _generate_gnm(n: int, m: int, seed: int) -> Graph:
    total = n * (n - 1) // 2
    rng = random.Random(f"gnm:{seed}:{n}:{m}")
    if m == n - 1:
        # Connected graphs with exactly n-1 edges are the labeled trees, so
        # sample one directly instead of rejection sampling (which has
        # vanishing acceptance probability at this edge count).
        return from_edge_list(n, _random_tree_edges(n, rng))
    for _ in range(GNM_RETRY_CAP):
        ranks = np.fromiter(_sample(rng, total, m), dtype=np.int64, count=m)
        g = from_edge_list(n, _pairs_from_ranks(ranks, n))
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
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise GraphFormatError(f"edge count {m} exceeds the limit of {MAX_EDGES}")
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
    if not {*map(type, values)} <= {int}:
        for x in values:  # name the first entry that is not an integer
            json_int(x, what)
    return tuple(values)


def graph_from_json_dict(obj: dict) -> Graph:
    try:
        n, edges = json_fields(obj, "graph JSON", "n", "edges")
        n = json_int(n, "graph JSON n")
        if not isinstance(edges, (list, tuple)):
            raise TypeError(f"graph JSON edges must be a list, got {edges!r}")
        # one pass over the entries' types and lengths and one over their values
        if not (all(map(isinstance, edges, repeat((list, tuple)))) and {*map(len, edges)} <= {2}
                and {*map(type, chain.from_iterable(edges))} <= {int}):
            # naming each entry costs more than the whole check, so entries
            # are named only once one of them is known to be bad
            pairs = [json_ints(e, f"edge entry {e!r}") for e in edges]
            bad = next(e for e in pairs if len(e) != 2)
            raise ValueError(f"edge entry {list(bad)!r} is not a pair")
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(str(exc)) from exc
    try:
        edges = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)
    except OverflowError:  # from_edge_list names the first pair out of range
        pass
    return from_edge_list(n, edges)


def json_loads(text: str):
    """``json.loads`` with the cyclic garbage collector paused: the containers
    it builds hold no cycles, and on a large file the collections it would
    run while building them cost half of the load."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


def load_graph(path: str | Path) -> Graph:
    """Load a graph file, dispatching on extension (.json / .adj / .edges).

    Unknown extensions are sniffed: JSON if the content starts with '{',
    otherwise an edge list when the first line looks like a plausible
    'n m' header, else an adjacency matrix.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix.lower()
    if suffix == ".adj":
        return parse_adjacency_text(text)
    if suffix == ".edges":
        return parse_edge_list_text(text)
    if suffix == ".json" or text.lstrip().startswith("{"):
        try:
            obj = json_loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: invalid JSON: {exc}") from exc
        return graph_from_json_dict(obj)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) == 2 and len(lines) >= 2:
        try:
            return parse_edge_list_text(text)
        except GraphFormatError:
            pass
    return parse_adjacency_text(text)

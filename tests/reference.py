"""Pure-Python references that the tests compare the library against.

The exhaustive oracles back the randomized and greedy algorithms on small
instances. The loop references are the per-vertex and per-block Python
versions of the array kernels in ``gsc``; a kernel must match its reference
exactly, including the witness or message of the first violation. The
result writer builds the stored result as nested dicts for ``json.dumps``,
a second writer for ``CompilationResult.to_json_text`` to match. The graph
writers, the contraction-cut driver and the tableau printer and invariant
check serve the tests only. The tableau oracle as it was before its column
masks, a scan of every row per projection and the echelon check of the
final group, is the reference of ``gsc.verify.replay`` and
``verify_compilation``. The generators as they drew before reading the
Mersenne Twister in bulk, one ``randrange`` per Pruefer entry, one
``rng.sample`` per gnm attempt and a heap for the Pruefer decode, are the
reference of ``gsc.generate``, and ``random.Random.shuffle`` is the
reference of the random mapper.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from gsc.graph import (
    GNM_RETRY_CAP,
    Graph,
    GraphFormatError,
    _pairs_from_ranks,
    check_generator_args,
    from_edge_list,
    is_connected,
)
from gsc.stabilizer import PLUS, ZERO
from gsc.mapping import _contraction_runs
from gsc.scheduler import AncillaBlock, Schedule
from gsc.verify import Row, VerifyReport, _group_mismatch, _product, stabilizer_generators, tableau_init

ORACLE_MAX_BLOCKS = 12
ORACLE_MAX_VERTICES = 12


def oracle_min_rounds(blocks) -> int:
    """Exact minimum number of pairwise-disjoint rounds, by exhaustive
    branch and bound. Limited to 12 blocks."""
    items: list[AncillaBlock] = sorted(blocks, key=lambda b: (b.L, b.R))
    if len(items) > ORACLE_MAX_BLOCKS:
        raise ValueError(f"oracle limited to {ORACLE_MAX_BLOCKS} blocks, got {len(items)}")
    if not items:
        return 0
    best = len(items)

    def dfs(i: int, round_max_r: list[int]) -> None:
        nonlocal best
        if len(round_max_r) >= best:
            return
        if i == len(items):
            best = len(round_max_r)
            return
        b = items[i]
        for r in range(len(round_max_r)):
            if b.L > round_max_r[r]:
                saved = round_max_r[r]
                round_max_r[r] = b.R
                dfs(i + 1, round_max_r)
                round_max_r[r] = saved
        round_max_r.append(b.R)
        dfs(i + 1, round_max_r)
        round_max_r.pop()

    dfs(0, [])
    return best


def oracle_min_cut(g: Graph) -> int:
    """Exact minimum cut by enumerating all nontrivial bipartitions (n <= 12)."""
    if not (2 <= g.n <= ORACLE_MAX_VERTICES):
        raise ValueError(f"oracle requires 2 <= n <= {ORACLE_MAX_VERTICES}, got {g.n}")
    edges = g.sorted_edges()
    best = len(edges) + 1
    # vertex 0 stays on side A; masks choose side B among vertices 1..n-1
    for mask in range(1, 1 << (g.n - 1)):
        cut = 0
        for a, b in edges:
            in_b_a = a != 0 and (mask >> (a - 1)) & 1
            in_b_b = b != 0 and (mask >> (b - 1)) & 1
            if in_b_a != in_b_b:
                cut += 1
        if cut < best:
            best = cut
    return best


def reference_edge_connectivity(u: np.ndarray, v: np.ndarray, k: int) -> int:
    """Exact edge connectivity of a connected graph on k vertices, by Stoer &
    Wagner (J. ACM 1997) on one dense k x k matrix: each phase grows a
    maximum-adjacency ordering, takes the weight joining its last vertex to
    the rest as a cut value and merges that vertex into the one before it."""
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


def karger_cut(g: Graph, repetitions: int, seed: int = 0) -> tuple[set, tuple[set, set]]:
    """Crossing edges and sides (vertex 0's first) of the best cut over
    ``repetitions`` contraction runs, drawn from a generator seeded by
    ``seed``; a disconnected graph gives no crossing edges."""
    u, v = g.edge_arrays()
    rng = np.random.default_rng(random.Random(f"karger:{seed}").getrandbits(63))
    _, root = _contraction_runs(u, v, g.n, repetitions, rng)
    side = root == root[0]
    crossing = side[u] != side[v]
    return (set(zip(u[crossing].tolist(), v[crossing].tolist())),
            (set(np.flatnonzero(side).tolist()), set(np.flatnonzero(~side).tolist())))


def neighbors(g: Graph, v: int) -> list[int]:
    """Neighbours of v, ascending, as Python ints."""
    return g.neighbours[g.offsets[v]:g.offsets[v + 1]].tolist()


def csr(g: Graph) -> tuple[int, list[int], list[int]]:
    """The graph's n and CSR arrays as Python values, for comparing graphs."""
    return g.n, g.offsets.tolist(), g.neighbours.tolist()


def adjacency(g: Graph) -> list[list[int]]:
    return [neighbors(g, v) for v in range(g.n)]


def matrix(g: Graph) -> list[list[int]]:
    """Adjacency matrix: rows[a][b] == 1 iff {a, b} is an edge."""
    rows = [[0] * g.n for _ in range(g.n)]
    for a, b in g.sorted_edges():
        rows[a][b] = rows[b][a] = 1
    return rows


def adjacency_text(g: Graph) -> str:
    return "\n".join(" ".join(map(str, row)) for row in matrix(g)) + "\n"


def edge_list_text(g: Graph) -> str:
    return "".join(f"{a} {b}\n" for a, b in [(g.n, g.edge_count), *g.sorted_edges()])


def write_graph(g: Graph, path: str | Path) -> None:
    """Write a graph file in the format its suffix names (.json, .edges, else
    an adjacency matrix)."""
    path = Path(path)
    if path.suffix == ".json":
        text = json.dumps({"n": g.n, "edges": g.sorted_edges()}) + "\n"
    elif path.suffix == ".edges":
        text = edge_list_text(g)
    else:
        text = adjacency_text(g)
    path.write_text(text, encoding="utf-8")


def row_strings(rows: list[Row]) -> list[str]:
    """Rows as signed letter strings, qubit 0 first: ``+XZI``."""
    out = []
    for x, z, phase in rows:
        assert phase in (0, 2), f"row carries phase {phase}"
        letters = "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(len(rows)))
        out.append(("+" if phase == 0 else "-") + letters)
    return out


def check_tableau(rows: list[Row]) -> None:
    """Assert tableau invariants: even phases, pairwise commutation, full rank."""
    assert all(phase % 2 == 0 for _, _, phase in rows), "odd (non-Hermitian) phase in tableau"
    for i, (x1, z1, _) in enumerate(rows):
        for x2, z2, _ in rows[i + 1:]:
            assert not ((x1 & z2) ^ (z1 & x2)).bit_count() & 1, "tableau rows do not pairwise commute"
    assert _group_mismatch(rows, []) is None, "tableau rows are GF(2)-dependent"


def project_generator(rows: list[Row], p: Row) -> None:
    """Even-parity projection of a Pauli word onto the state of ``rows``,
    found by scanning every row.

    The word must anticommute with some row, which makes its outcome random:
    the first such row is replaced in place by the word (outcome forced to
    +1, as negative outcomes are tracked classically) and the other
    anticommuting rows are fixed up by row multiplication. A word that
    commutes with every row raises ValueError.
    """
    xp, zp, _ = p
    anti = [i for i, (x, z, _) in enumerate(rows) if ((x & zp) ^ (z & xp)).bit_count() & 1]
    if not anti:
        raise ValueError("word commutes with every row: its outcome is already determined")
    pivot, *others = anti
    for r in others:
        rows[r] = _product(rows[r], rows[pivot])
    rows[pivot] = (xp, zp, 0)


def reference_replay(plan, gens: list[Row], order) -> list[Row]:
    """``tableau_init(plan)`` after ``project_generator`` of gens[w] for each w of ``order``."""
    rows = tableau_init(plan)
    for w in order:
        project_generator(rows, gens[w])
    return rows


def reference_verify(g: Graph, plan, schedule) -> tuple[list[Row], VerifyReport]:
    """The final rows and the report of a row-scan replay whose final group
    is always checked by echelon, for a schedule that covers the plan."""
    gens = stabilizer_generators(g)
    order = schedule.gen.tolist()
    rows = reference_replay(plan, gens, order)
    return rows, VerifyReport(checked_generators=len(order), failure=_group_mismatch(rows, gens))


def reference_adjacency(n: int, pairs) -> list[list[int]]:
    """Sorted neighbour lists of the graph on the pairs, checked pair by pair."""
    if n < 1:
        raise GraphFormatError(f"vertex count must be >= 1, got {n}")
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        if not (0 <= a < n) or not (0 <= b < n):
            raise GraphFormatError(f"edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise GraphFormatError(f"self-loop at vertex {a}")
        neighbors[a].add(b)
        neighbors[b].add(a)
    return [sorted(ns) for ns in neighbors]


def reference_pair_from_index(k: int, n: int) -> tuple[int, int]:
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


def reference_build_blocks(g: Graph, measured, mapping) -> list[AncillaBlock]:
    if mapping.n != g.n:
        raise ValueError(f"mapping covers {mapping.n} vertices, graph has {g.n}")
    adj = adjacency(g)
    pos = mapping.pos
    blocks = []
    for i in measured:
        if not (0 <= i < g.n):
            raise ValueError(f"generator index {i} out of range")
        lo = hi = pos[i]
        for w in adj[i]:
            p = pos[w]
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
        blocks.append(AncillaBlock(gen=i, L=lo, R=hi))
    return blocks


def schedule_of(rounds) -> Schedule:
    """A schedule from lists of (gen, L, R) triples, one list per round,
    built by the constructor the result reader uses."""
    return Schedule.of(chain.from_iterable(chain.from_iterable(rounds)), map(len, rounds))


def column_blocks(rows) -> Schedule:
    """Blocks from a list of (gen, L, R) triples, as the columns of a
    one-round schedule: the form ``build_blocks`` returns."""
    return schedule_of([rows])


def tuple_first_fit(blocks, key) -> list[list[AncillaBlock]]:
    """The rounds of first fit over AncillaBlock tuples taken in ``key`` order,
    with the min-tree the scheduler used before it moved to int64 columns:
    the oracle of its round assignments. Leaf i holds round i's rightmost
    endpoint, or a value above every R while the round is unopened, and
    each inner node the minimum of its children."""
    order = sorted(blocks, key=key)
    size = 1
    while size < len(order):
        size *= 2
    unopened = max((b.R for b in order), default=0) + 1
    tree = [unopened] * (2 * size)
    rounds: list[list[AncillaBlock]] = []
    for b in order:
        if tree[1] >= b.L:
            node = size + len(rounds)
            rounds.append([b])
        else:
            node = 1
            while node < size:
                node *= 2
                if tree[node] >= b.L:
                    node += 1
            rounds[node - size].append(b)
        tree[node] = value = b.R
        while node > 1:
            value = min(value, tree[node ^ 1])
            node //= 2
            if tree[node] == value:
                break
            tree[node] = value
    return rounds


def reference_schedule_violations(rounds, blocks) -> list[str]:
    """The schedule check as the loop over AncillaBlock tuples it was: the
    requested ``blocks`` are covered exactly when the scheduled ones are as
    many and the same set; then each round not listed left to right with
    every block ending before the next one starts is sorted by (L, R) and
    each neighbour pair checked. (A round of valid intervals listed so is
    disjoint; the shortcut only matters for a forged block with L > R.)"""
    out = []
    got = [b for rnd in rounds for b in rnd]
    if len(got) != len(blocks) or set(got) != set(blocks):
        want_gens, got_gens = {b.gen for b in blocks}, {b.gen for b in got}
        out += [f"generator {gen} is missing from the schedule" for gen in sorted(want_gens - got_gens)]
        out += [f"generator {gen} is scheduled but not requested" for gen in sorted(got_gens - want_gens)]
        if want_gens == got_gens:
            out.append("scheduled blocks do not match the requested intervals")
    for k, rnd in enumerate(rounds):
        if not rnd:
            out.append(f"round {k} is empty")
        if all(prev.R < cur.L for prev, cur in zip(rnd, rnd[1:])):
            continue
        members = sorted(rnd, key=lambda b: (b.L, b.R))
        for prev, cur in zip(members, members[1:]):
            if cur.L <= prev.R:
                out.append(f"round {k}: blocks for generators {prev.gen} and {cur.gen} overlap at position {cur.L}")
    return out


def reference_reduce_generators(g: Graph, independent_set) -> None:
    """Raise the ValueError the plan builder must raise for this set, if any."""
    adj = adjacency(g)
    for v in independent_set:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    for v in sorted(independent_set):
        for w in adj[v]:
            if w in independent_set and w > v:
                raise ValueError(f"set is not independent: vertices {v} and {w} are adjacent")
    for v in range(g.n):
        if v in independent_set:
            continue
        if not any(w in independent_set for w in adj[v]):
            raise ValueError(f"set is not maximal: vertex {v} could be added")


def reference_depth_lower_bound(blocks) -> int:
    events: dict[int, int] = {}
    for b in blocks:
        events[b.L] = events.get(b.L, 0) + 1
        events[b.R + 1] = events.get(b.R + 1, 0) - 1
    return max(accumulate(events[p] for p in sorted(events)), default=0)


def reference_greedy_mis(g: Graph) -> frozenset[int]:
    """Greedy maximal independent set, low degree first, index tie-break."""
    adj = adjacency(g)
    blocked = bytearray(g.n)
    out = []
    for v in sorted(range(g.n), key=lambda v: (len(adj[v]), v)):
        if blocked[v]:
            continue
        out.append(v)
        for w in adj[v]:
            blocked[w] = 1
        blocked[v] = 1
    return frozenset(out)


def reference_phase_of_product(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent of i in W(x1,z1) * W(x2,z2), mod 4, qubit by qubit: each adds
    +1 for XY, YZ, ZX and -1 for YX, ZY, XZ."""
    y1, y2 = x1 & z1, x2 & z2
    only_x1, only_z1 = x1 ^ y1, z1 ^ y1
    only_x2, only_z2 = x2 ^ y2, z2 ^ y2
    up = (only_x1 & y2).bit_count() + (y1 & only_z2).bit_count() + (only_z1 & only_x2).bit_count()
    down = (y1 & only_x2).bit_count() + (only_z1 & y2).bit_count() + (only_x1 & only_z2).bit_count()
    return (up - down) % 4


def result_json_dict(result) -> dict:
    """A compilation result as nested dicts: ``json.dumps(..., indent=2)`` of
    this plus a newline is the text ``to_json_text`` must write."""
    plan, schedule = result.plan, result.schedule
    return {
        "n": result.n,
        "plan": {
            "independent_set": sorted(plan.independent_set),
            "init": reference_init_string(plan),
            "measured": plan.measured.tolist(),
        },
        "mapping": result.mapping.pos.tolist(),
        "schedule": {
            "rounds": [[{"gen": b.gen, "L": b.L, "R": b.R} for b in rnd] for rnd in schedule.rounds],
            "tocks": schedule.tocks,
            "lower_bound": schedule.lower_bound,
        },
        "tocks": result.tocks,
        "tiles_full": result.tiles_full,
        "tiles_reduced": result.tiles_reduced,
        "spacetime_volume": result.spacetime_volume,
        "verified": True,
    }


def reference_init_string(plan) -> str:
    return "".join(PLUS if v in plan.independent_set else ZERO for v in range(plan.n))


def reference_tree_from_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Pruefer decode with a heap of the current leaves."""
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


def reference_random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return reference_tree_from_pruefer(seq, n)


def reference_generate(kind: str, n: int, m: int | None = None, seed: int = 0) -> tuple[Graph, int]:
    """``gsc.generate`` with CPython's own draws, and the number of gnm
    attempts it made (1 for the other kinds)."""
    check_generator_args(kind, n, m)
    if kind == "path":
        return from_edge_list(n, [(v, v + 1) for v in range(n - 1)]), 1
    if kind == "star":
        return from_edge_list(n, [(0, v) for v in range(1, n)]), 1
    if kind == "complete":
        return from_edge_list(n, np.column_stack(np.triu_indices(n, 1))), 1
    if kind == "random_tree":
        return from_edge_list(n, reference_random_tree_edges(n, random.Random(f"tree:{seed}:{n}"))), 1
    total = n * (n - 1) // 2
    rng = random.Random(f"gnm:{seed}:{n}:{m}")
    if m == n - 1:
        return from_edge_list(n, reference_random_tree_edges(n, rng)), 1
    for attempt in range(1, GNM_RETRY_CAP + 1):
        ranks = np.fromiter(rng.sample(range(total), m), dtype=np.int64, count=m)
        g = from_edge_list(n, _pairs_from_ranks(ranks, n))
        if is_connected(g):
            return g, attempt
    raise ValueError(f"could not sample a connected G(n={n}, m={m}) graph in {GNM_RETRY_CAP} attempts")


def reference_random_mapping(n: int, seed: int) -> list[int]:
    """The random mapper's positions as CPython's own ``shuffle`` draws them."""
    perm = list(range(n))
    random.Random(f"map:{seed}").shuffle(perm)
    return perm

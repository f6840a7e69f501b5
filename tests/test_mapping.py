import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsc import mapping as mapping_module
from gsc.graph import from_edge_list, generate
from gsc.mapping import (
    Mapping,
    _contraction_runs,
    _edge_connectivity,
    auto_repetitions,
    basic_mapping,
    mincut_mapping,
)
from gsc.scheduler import build_blocks, schedule_sweep
from gsc.stabilizer import greedy_maximal_independent_set, reduce_generators
from reference import karger_cut, neighbors, reference_edge_connectivity


def brute_force_min_cut(g):
    """Independent reference: minimum over all nontrivial bipartitions."""
    best = g.edge_count + 1
    for mask in range(1, 1 << (g.n - 1)):
        cut = 0
        for a, b in g.edges:
            sa = a != 0 and (mask >> (a - 1)) & 1
            sb = b != 0 and (mask >> (b - 1)) & 1
            if sa != sb:
                cut += 1
        best = min(best, cut)
    return best


def edge_arrays(g):
    edges = g.sorted_edges()
    return np.array([a for a, _ in edges], dtype=np.int64), np.array([b for _, b in edges], dtype=np.int64)


def full_contraction_runs(u, v, k, reps, rng):
    """Reference: every one of ``reps`` runs unless a size-1 cut is seen, with
    no connectivity stop."""
    return reference_runs(u, v, k, reps, rng)[:2]


def reference_runs(u, v, k, reps, rng):
    """The full loop's cut size and labels, and the index of its winning run."""
    m = len(u)
    ul = u.tolist()
    vl = v.tolist()
    best_size = m + 1
    best_root = None
    winner = None
    for run in range(reps):
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
            winner = run
            if best_size <= 1:
                break
    return best_size, best_root, winner


def rng_after(seed, m, runs):
    """State of ``default_rng(seed)`` after ``runs`` permutations of m edges."""
    rng = np.random.default_rng(seed)
    for _ in range(runs):
        rng.permutation(m)
    return rng.bit_generator.state


@st.composite
def connected_graphs(draw):
    """Trees, trees with 1-3 extra edges, two dense halves joined by one
    bridge, complete graphs and gnm graphs."""
    kind = draw(st.sampled_from(["tree", "tree_plus", "bridge", "complete", "gnm"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "tree":
        return generate("random_tree", draw(st.integers(2, 20)), seed=seed)
    if kind == "tree_plus":
        # a cycle: its pieces become trees only partway down the recursion
        n = draw(st.integers(4, 30))
        edges = set(generate("random_tree", n, seed=seed).sorted_edges())
        target = len(edges) + draw(st.integers(1, 3))
        pick = random.Random(seed)
        while len(edges) < target:
            edges.add(tuple(sorted(pick.sample(range(n), 2))))
        return from_edge_list(n, sorted(edges))
    if kind == "complete":
        return generate("complete", draw(st.integers(2, 16)))
    if kind == "bridge":
        a, b = draw(st.integers(3, 10)), draw(st.integers(3, 10))
        left = generate("gnm", a, m=draw(st.integers(a, a * (a - 1) // 2)), seed=seed)
        right = generate("gnm", b, m=draw(st.integers(b, b * (b - 1) // 2)), seed=seed + 1)
        edges = list(left.edges) + [(x + a, y + a) for x, y in right.edges] + [(a - 1, a)]
        return from_edge_list(a + b, edges)
    n = draw(st.integers(3, 20))
    total = n * (n - 1) // 2
    # rejection sampling cannot reach sparse connected graphs: stay above ~n ln n / 2
    m = draw(st.integers(min(total, max(n - 1, round(n * math.log(n)))), total))
    return generate("gnm", n, m=m, seed=seed)


def reference_mincut_mapping(g, repetitions_per_cut="auto", seed=0, contraction_budget=100_000):
    """The mapper as a loop on a shrinking dict-of-sets copy of the graph, with
    each neighbour set read in sorted order: search finds the piece holding the
    smallest live vertex, a piece of <= 2 vertices is placed, a larger one
    loses the edges of its best cut."""
    n = g.n
    rng = np.random.default_rng(random.Random(f"mincut:{seed}").getrandbits(63))
    adj = {v: set(neighbors(g, v)) for v in range(n)}
    alive = set(range(n))
    order = []
    while alive:
        comp = {min(alive)}
        stack = list(comp)
        while stack:
            for b in adj[stack.pop()] - comp:
                comp.add(b)
                stack.append(b)
        verts = sorted(comp)
        if len(verts) <= 2:
            order.extend(verts)
            for a in verts:
                for b in adj.pop(a):
                    adj[b].discard(a)
                alive.discard(a)
            continue
        index = {v: i for i, v in enumerate(verts)}
        pairs = [(index[a], index[b]) for a in verts for b in sorted(adj[a]) if a < b]
        u = np.array([p[0] for p in pairs], dtype=np.int64)
        w = np.array([p[1] for p in pairs], dtype=np.int64)
        if repetitions_per_cut == "auto":
            reps = auto_repetitions(len(verts), contraction_budget)
        else:
            reps = repetitions_per_cut
        _, root = _contraction_runs(u, w, len(verts), reps, rng)
        for i, j in pairs:
            if root[i] != root[j]:
                a, b = verts[i], verts[j]
                adj[a].discard(b)
                adj[b].discard(a)
    pos = [0] * n
    for i, vtx in enumerate(order):
        pos[vtx] = n - 1 - i
    return Mapping(pos=tuple(pos))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32))
def test_contraction_runs_match_full_loop(g, seed):
    u, v = edge_arrays(g)
    for reps in (1, 7, 400):
        fast, full = np.random.default_rng(seed), np.random.default_rng(seed)
        size, root = _contraction_runs(u, v, g.n, reps, fast)
        want_size, want_root, winner = reference_runs(u, v, g.n, reps, full)
        assert size == want_size
        assert root.tolist() == want_root.tolist()
        # stopped right after the winning run, or performed every run
        after_win = rng_after(seed, len(u), winner + 1)
        assert fast.bit_generator.state in (after_win, full.bit_generator.state)


def test_contraction_runs_stop_after_winning_run():
    """A stop at the edge connectivity draws nothing past the winning run."""
    g = generate("complete", 10)
    u, v = edge_arrays(g)
    rng = np.random.default_rng(5)
    size, root = _contraction_runs(u, v, g.n, 400, rng)
    want_size, want_root, winner = reference_runs(u, v, g.n, 400, np.random.default_rng(5))
    assert size == want_size == 9
    assert root.tolist() == want_root.tolist()
    assert winner + 1 < 400
    assert rng.bit_generator.state == rng_after(5, len(u), winner + 1)


def P3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def test_basic_mapping_natural():
    assert basic_mapping(P3(), "natural").pos.tolist() == [0, 1, 2]


def test_basic_mapping_random_deterministic_bijection():
    g = generate("complete", 4)
    a = basic_mapping(g, "random", seed=3)
    b = basic_mapping(g, "random", seed=3)
    assert a == b
    assert sorted(a.pos) == [0, 1, 2, 3]


def test_mapping_rejects_non_bijection():
    # a repeat, a position past the end or below 0, one beyond int64, and n
    # distinct positions of which one is out of range
    for pos in ((0, 0, 2), (0, 1, 3), (-1, 0, 1), (1, -5, 0), (0, 2**70, 1), (3, 0, 1)):
        with pytest.raises(ValueError, match="^mapping is not a bijection onto 0..n-1$"):
            Mapping(pos=pos)
    assert Mapping(pos=()).n == 0 and Mapping(pos=(2, 0, 1)).n == 3


def test_mapping_keeps_positions_as_a_read_only_array():
    """Any sequence of positions becomes an int64 array; an int64 array is
    taken over, as ``Graph`` takes over its arrays. Mappings compare by
    their positions."""
    taken = np.array([2, 0, 1])
    m = Mapping(pos=taken)
    assert m.pos is taken and not taken.flags.writeable
    for pos in ([2, 0, 1], (2, 0, 1), np.array([2, 0, 1], dtype=np.int32)):
        other = Mapping(pos=pos)
        assert other.pos.dtype == np.int64 and not other.pos.flags.writeable
        assert other == m
    assert Mapping(pos=[0, 2, 1]) != m and m != (2, 0, 1)


def test_karger_two_vertices():
    g = from_edge_list(2, [(0, 1)])
    cut_edges, sides = karger_cut(g, repetitions=3, seed=0)
    assert cut_edges == {(0, 1)}
    assert sorted(map(sorted, sides)) == [[0], [1]]


def test_karger_p3_bridge():
    cut_edges, sides = karger_cut(P3(), repetitions=4, seed=0)
    assert len(cut_edges) == 1
    assert cut_edges <= {(0, 1), (1, 2)}
    assert sides[0] | sides[1] == {0, 1, 2}


def test_karger_k4():
    g = generate("complete", 4)
    cut_edges, _ = karger_cut(g, repetitions=32, seed=1)
    assert len(cut_edges) == 3 == brute_force_min_cut(g)


def test_karger_triangle_and_cycle():
    k3 = generate("complete", 3)
    assert len(karger_cut(k3, repetitions=16, seed=0)[0]) == 2
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert len(karger_cut(c5, repetitions=64, seed=0)[0]) == 2


def test_karger_never_below_exact():
    for seed in range(60):
        n = 4 + seed % 6
        total = n * (n - 1) // 2
        g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
        got = len(karger_cut(g, repetitions=3, seed=seed)[0])
        exact = brute_force_min_cut(g)
        assert got >= exact
        assert _edge_connectivity(*edge_arrays(g), n) == exact


@settings(max_examples=80, deadline=None)
@given(connected_graphs(), st.integers(0, 6))
def test_edge_connectivity_matches_stoer_wagner(g, slack):
    """Exact with no bound, and with any bound at or above the connectivity."""
    u, v = edge_arrays(g)
    exact = reference_edge_connectivity(u, v, g.n)
    assert _edge_connectivity(u, v, g.n) == exact
    for bound in (exact, exact + slack, len(u)):
        assert _edge_connectivity(u, v, g.n, bound) == exact


def two_cliques(a, joins):
    """Two copies of K_a, vertex i of the first joined to vertex i of the second
    for i < joins."""
    left = [(x, y) for x in range(a) for y in range(x + 1, a)]
    return from_edge_list(2 * a, left + [(x + a, y + a) for x, y in left] + [(i, i + a) for i in range(joins)])


def hypercube(d):
    return from_edge_list(1 << d, [(x, x | 1 << b) for x in range(1 << d) for b in range(d) if not x >> b & 1])


def barbell(a, path):
    """Two copies of K_a joined through a path of ``path`` inner vertices."""
    left = [(x, y) for x in range(a) for y in range(x + 1, a)]
    chain = [a - 1, *range(2 * a, 2 * a + path), a]
    edges = left + [(x + a, y + a) for x, y in left] + list(zip(chain, chain[1:]))
    return from_edge_list(2 * a + path, edges)


@pytest.mark.parametrize(
    "g, want",
    [
        (two_cliques(8, 3), 3),  # below the minimum degree 7
        (two_cliques(9, 2), 2),
        (two_cliques(6, 6), 6),  # minimum degree k/2: Chartrand's rule settles it
        (two_cliques(6, 1), 1),  # minimum degree k/2 - 1, connectivity 1
        (two_cliques(7, 7), 7),
        (from_edge_list(15, [(i, (i + 1) % 15) for i in range(15)]), 2),
        (from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 2),
        (hypercube(3), 3),
        (hypercube(5), 5),
        (barbell(5, 3), 1),
    ],
)
def test_edge_connectivity_named_cases(g, want):
    u, v = edge_arrays(g)
    assert reference_edge_connectivity(u, v, g.n) == want
    for bound in (None, want, want + 1, len(u)):
        assert _edge_connectivity(u, v, g.n, bound) == want


def test_karger_cut_edges_cross_sides():
    g = generate("gnm", 10, m=20, seed=5)
    cut_edges, (a, b) = karger_cut(g, repetitions=50, seed=5)
    for x, y in cut_edges:
        assert (x in a) != (y in a)
    # removing the cut edges disconnects the two sides
    rest = g.edges - cut_edges
    for x, y in rest:
        assert (x in a) == (y in a)


def test_auto_repetitions():
    assert auto_repetitions(2) == 1
    assert auto_repetitions(10) == math.ceil(100 * math.log(10))
    # budget-capped for large components
    assert auto_repetitions(300, contraction_budget=100_000) == 100_000 // 298


def schedule_depth(g, mapping):
    plan = reduce_generators(g, greedy_maximal_independent_set(g))
    return schedule_sweep(build_blocks(g, plan.measured, mapping)).tocks


def test_mincut_mapping_p3_achieves_minimum_depth():
    g = P3()
    got = schedule_depth(g, mincut_mapping(g, seed=0))
    best = min(schedule_depth(g, Mapping(pos=perm)) for perm in itertools.permutations(range(3)))
    assert got == best


def test_mincut_mapping_star_depth_one():
    g = generate("star", 30)
    assert schedule_depth(g, mincut_mapping(g, seed=2)) == 1


def test_mincut_mapping_path_depth_two():
    for n in (10, 100):
        g = generate("path", n)
        assert schedule_depth(g, mincut_mapping(g, seed=0)) == 2


def test_mincut_mapping_path_contiguous_sides():
    # every cut of a path splits an interval, so placed vertices must form
    # a monotone run; with right-to-left filling this is reversed identity
    g = generate("path", 50)
    m = mincut_mapping(g, seed=8)
    order = sorted(range(g.n), key=m.pos.__getitem__)  # vertices left to right
    assert order == sorted(order, reverse=False) or order == sorted(order, reverse=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 18), st.integers(0, 10_000))
def test_mincut_mapping_always_bijection(n, seed):
    total = n * (n - 1) // 2
    g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
    m = mincut_mapping(g, seed=seed)
    assert sorted(m.pos) == list(range(n))


def test_mincut_mapping_deterministic():
    g = generate("gnm", 24, m=60, seed=6)
    assert mincut_mapping(g, seed=11) == mincut_mapping(g, seed=11)


def test_mincut_mapping_explicit_repetitions():
    g = generate("gnm", 12, m=24, seed=1)
    m = mincut_mapping(g, repetitions_per_cut=5, seed=1)
    assert sorted(m.pos) == list(range(12))


def test_mincut_mapping_large_cycle_skips_connectivity(monkeypatch):
    """The exact connectivity of a 2000-cycle costs far more than the 50 runs
    it could save (8 k^2 exceeds the edges they would scan): it is not
    computed, and the mapping is the full loop's."""
    n = 2000
    g = from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    asked = []
    monkeypatch.setattr(mapping_module, "_edge_connectivity", lambda *args: asked.append(args))
    got = mincut_mapping(g, seed=3)
    assert asked == []
    monkeypatch.setattr(mapping_module, "_contraction_runs", full_contraction_runs)
    assert got == mincut_mapping(g, seed=3)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32))
def test_mincut_mapping_matches_reference(g, seed):
    for reps in ("auto", 7):
        assert mincut_mapping(g, reps, seed) == reference_mincut_mapping(g, reps, seed)


@pytest.mark.parametrize("seed", range(4))
def test_mincut_mapping_matches_reference_on_trees(seed):
    """The tree path against the contraction oracle on trees of 300 vertices."""
    g = generate("random_tree", 300, seed=seed)
    assert mincut_mapping(g, seed=seed) == reference_mincut_mapping(g, seed=seed)


def test_mincut_mapping_requires_connected():
    with pytest.raises(ValueError):
        mincut_mapping(from_edge_list(4, [(0, 1), (2, 3)]))


@pytest.mark.parametrize(
    "g",
    [
        from_edge_list(2, []),
        from_edge_list(3, []),
        from_edge_list(7, [(0, 1), (2, 3), (4, 5)]),
        from_edge_list(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),  # n - 1 edges, yet not a tree
    ],
)
def test_disconnected_graphs_give_no_cut(g):
    with pytest.raises(ValueError, match="connected"):
        mincut_mapping(g)
    assert karger_cut(g, repetitions=3)[0] == set()


@pytest.mark.parametrize("kind, n, m", [("random_tree", 300, None), ("star", 60, None), ("path", 28, None), ("gnm", 20, 19)])
def test_trees_are_split_without_contraction_runs(monkeypatch, kind, n, m):
    """Every piece of a tree takes the tree path, and the mapping is the
    contraction oracle's."""
    g = generate(kind, n, m=m, seed=1)
    want = [reference_mincut_mapping(g, seed=seed) for seed in (1, 7)]

    def no_runs(*args):
        raise AssertionError("contraction runs on a tree piece")

    monkeypatch.setattr(mapping_module, "_contraction_runs", no_runs)
    assert [mincut_mapping(g, seed=seed) for seed in (1, 7)] == want

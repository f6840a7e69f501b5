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
    karger_min_cut,
    mincut_mapping,
)
from gsc.scheduler import build_blocks, schedule_sweep
from gsc.stabilizer import greedy_maximal_independent_set, reduce_generators


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
    """Trees, two dense halves joined by one bridge, complete graphs and gnm graphs."""
    kind = draw(st.sampled_from(["tree", "bridge", "complete", "gnm"]))
    seed = draw(st.integers(0, 10_000))
    if kind == "tree":
        return generate("random_tree", draw(st.integers(2, 20)), seed=seed)
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
    adj = {v: set(g.adj[v]) for v in range(n)}
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
    assert basic_mapping(P3(), "natural").pos == (0, 1, 2)


def test_basic_mapping_random_deterministic_bijection():
    g = generate("complete", 4)
    a = basic_mapping(g, "random", seed=3)
    b = basic_mapping(g, "random", seed=3)
    assert a == b
    assert sorted(a.pos) == [0, 1, 2, 3]


def test_mapping_rejects_non_bijection():
    with pytest.raises(ValueError):
        Mapping(pos=(0, 0, 2))


def test_karger_two_vertices():
    g = from_edge_list(2, [(0, 1)])
    cut = karger_min_cut(g, repetitions=3, seed=0)
    assert cut.cut_size == 1
    assert cut.cut_edges == {(0, 1)}
    assert sorted(map(sorted, cut.sides)) == [[0], [1]]


def test_karger_p3_bridge():
    cut = karger_min_cut(P3(), repetitions=4, seed=0)
    assert cut.cut_size == 1
    assert cut.cut_edges <= {(0, 1), (1, 2)}
    assert set(cut.sides[0]) | set(cut.sides[1]) == {0, 1, 2}


def test_karger_k4():
    g = generate("complete", 4)
    cut = karger_min_cut(g, repetitions=32, seed=1)
    assert cut.cut_size == 3 == brute_force_min_cut(g)


def test_karger_triangle_and_cycle():
    k3 = generate("complete", 3)
    assert karger_min_cut(k3, repetitions=16, seed=0).cut_size == 2
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert karger_min_cut(c5, repetitions=64, seed=0).cut_size == 2


def test_karger_preconditions():
    with pytest.raises(ValueError):
        karger_min_cut(generate("path", 1), repetitions=1)
    for reps in (0, True, 2.5, "3"):
        with pytest.raises(ValueError, match="repetitions"):
            karger_min_cut(P3(), repetitions=reps)
    with pytest.raises(ValueError):
        karger_min_cut(from_edge_list(3, [(0, 1)]), repetitions=1)


def test_karger_never_below_exact():
    for seed in range(60):
        n = 4 + seed % 6
        total = n * (n - 1) // 2
        g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
        got = karger_min_cut(g, repetitions=3, seed=seed).cut_size
        exact = brute_force_min_cut(g)
        assert got >= exact
        assert _edge_connectivity(*edge_arrays(g), n) == exact


def test_karger_cut_edges_cross_sides():
    g = generate("gnm", 10, m=20, seed=5)
    cut = karger_min_cut(g, repetitions=50, seed=5)
    a, b = cut.sides
    for x, y in cut.cut_edges:
        assert (x in a) != (y in a)
    # removing the cut edges disconnects the two sides
    rest = g.edges - cut.cut_edges
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
    order = m.row_order()
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
    """The exact connectivity of a 2000-cycle needs about k^2 row steps and a
    16 MB matrix, far more than the 50 runs it could save: it is not computed,
    and the mapping is the full loop's."""
    n = 2000
    g = from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])
    asked = []
    monkeypatch.setattr(mapping_module, "_edge_connectivity", lambda u, v, k: asked.append(k))
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
    """Many vertices of these trees iterate their neighbour sets out of order."""
    g = generate("random_tree", 300, seed=seed)
    assert mincut_mapping(g, seed=seed) == reference_mincut_mapping(g, seed=seed)


def test_mincut_mapping_requires_connected():
    with pytest.raises(ValueError):
        mincut_mapping(from_edge_list(4, [(0, 1), (2, 3)]))

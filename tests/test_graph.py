import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsc.graph import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    _expected_isolated,
    check_generator_args,
    from_adjacency_matrix,
    from_edge_list,
    generate,
    graph_from_json_dict,
    is_connected,
    load_graph,
    parse_adjacency_text,
    parse_edge_list_text,
)

from reference import adjacency_text, csr, edge_list_text, matrix, neighbors, write_graph


def P3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def test_from_adjacency_matrix_p3():
    g = from_adjacency_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_from_adjacency_matrix_single_vertex():
    g = from_adjacency_matrix([[0]])
    assert g.n == 1
    assert g.edge_count == 0


def test_from_adjacency_matrix_rejections():
    with pytest.raises(GraphFormatError, match=r"diagonal at \(1, 1\)"):
        from_adjacency_matrix([[0, 1], [1, 1]])
    with pytest.raises(GraphFormatError, match=r"not symmetric at \(0, 1\)"):
        from_adjacency_matrix([[0, 1], [0, 0]])
    with pytest.raises(GraphFormatError, match="row 1"):
        from_adjacency_matrix([[0, 0], [0]])
    with pytest.raises(GraphFormatError, match=r"\(0, 1\) is 5"):
        from_adjacency_matrix([[0, 5], [5, 0]])


def test_from_edge_list_basic():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    # duplicates (in either orientation) collapse
    g = from_edge_list(2, [(0, 1), (1, 0)])
    assert g.edge_count == 1


def test_graph_stores_csr_arrays_only():
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "offsets", "neighbours"]
    g = generate("gnm", 12, m=20, seed=3)
    for arr in (g.offsets, g.neighbours):
        assert arr.dtype == np.int64 and not arr.flags.writeable


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
))
def test_derived_edge_views_agree(case):
    n, raw = case
    # duplicates and both orientations of every pair
    pairs = [p for a, b in raw if a != b for p in ((a, b), (b, a), (a, b))]
    canon = {(min(a, b), max(a, b)) for a, b in pairs}
    g = from_edge_list(n, pairs)
    assert g.edges == frozenset(canon)
    assert g.sorted_edges() == sorted(canon)
    assert g.edge_count == len(canon)
    assert [neighbors(g, v) for v in range(n)] == [sorted({b for a, b in pairs if a == v}) for v in range(n)]
    # the same edges in another order give the same arrays
    assert csr(from_edge_list(n, reversed(pairs))) == csr(g)


def test_from_edge_list_rejections():
    with pytest.raises(GraphFormatError, match="self-loop"):
        from_edge_list(2, [(0, 0)])
    with pytest.raises(GraphFormatError, match="out of range"):
        from_edge_list(2, [(0, 2)])


def test_vertex_limit_checked_before_allocating():
    huge = 10**9
    tracemalloc.start()
    try:
        for build in (
            lambda: from_edge_list(huge, [(0, 1)]),
            lambda: parse_edge_list_text(f"{huge} 1\n0 1\n"),
            lambda: graph_from_json_dict({"n": huge, "edges": [[0, 1]]}),
        ):
            with pytest.raises(GraphFormatError, match=f"vertex count {huge} exceeds the limit of {MAX_VERTICES}"):
                build()
        for kind in ("path", "gnm"):
            with pytest.raises(ValueError, match=f"n={huge} exceeds the limit of {MAX_VERTICES} vertices"):
                generate(kind, huge, m=huge if kind == "gnm" else None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the limit itself is allowed: this header fails on its edge count instead
    with pytest.raises(GraphFormatError, match="promises 2 edges"):
        parse_edge_list_text(f"{MAX_VERTICES} 2\n0 1\n")


def test_edge_limit_checked_before_allocating():
    tracemalloc.start()
    try:
        too_many = np.broadcast_to(np.array([0, 1]), (MAX_EDGES + 1, 2))  # a view: nothing allocated
        for build in (
            lambda: from_edge_list(10, too_many),
            lambda: parse_edge_list_text(f"10 {MAX_EDGES + 1}\n0 1\n"),
        ):
            with pytest.raises(GraphFormatError, match=f"edge count {MAX_EDGES + 1} exceeds the limit of {MAX_EDGES}"):
                build()
        with pytest.raises(ValueError, match=f"complete on n=8945 has 40002040 edges, over the limit of {MAX_EDGES}"):
            generate("complete", 8945)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match=f"gnm on n={MAX_VERTICES} has {MAX_EDGES + 1} edges, over the limit"):
        check_generator_args("gnm", MAX_VERTICES, MAX_EDGES + 1)
    # the limits themselves are allowed; gnm at both limits is refused, but
    # for being far below its connectivity threshold, not for its size
    with pytest.raises(ValueError, match="far below the connectivity threshold"):
        check_generator_args("gnm", MAX_VERTICES, MAX_EDGES)
    check_generator_args("gnm", MAX_VERTICES // 2, MAX_EDGES)
    check_generator_args("random_tree", MAX_VERTICES)
    check_generator_args("complete", 8944)


def test_generate_star_and_complete():
    star = generate("star", 5)
    assert star.edges == frozenset({(0, 1), (0, 2), (0, 3), (0, 4)})
    k4 = generate("complete", 4)
    assert k4.edge_count == 6


def test_generate_path_properties():
    for n in (1, 2, 7, 30):
        p = generate("path", n)
        assert p.edge_count == n - 1
        assert p.degrees().max() <= 2
        assert is_connected(p)


def test_generate_gnm_density_point():
    g = generate("gnm", 100, m=495, seed=11)
    assert g.edge_count == 495
    assert is_connected(g)


def test_generate_gnm_tree_edge_count_is_uniform_tree():
    # m == n-1 must still produce a connected result (sampled as a tree)
    g = generate("gnm", 100, m=99, seed=0)
    assert g.edge_count == 99
    assert is_connected(g)


def test_generate_rejects_edge_count_outside_gnm():
    for kind in ("path", "star", "complete", "random_tree"):
        with pytest.raises(ValueError, match=f"{kind} takes no edge count"):
            generate(kind, 5, m=3)
    with pytest.raises(ValueError, match="requires an edge count"):
        generate("gnm", 5)
    with pytest.raises(ValueError, match="unknown graph kind"):
        generate("blob", 5, m=3)


def test_generate_gnm_range_errors():
    with pytest.raises(ValueError, match="outside"):
        generate("gnm", 5, m=3, seed=0)
    with pytest.raises(ValueError, match="outside"):
        generate("gnm", 5, m=11, seed=0)


def test_generate_gnm_retry_exhaustion():
    # one edge above the tree count, connectivity is astronomically rare:
    # the bounded resampling loop must give up with a clear error
    with pytest.raises(ValueError, match="1000 attempts"):
        generate("gnm", 100, m=100, seed=0)
    # the error names the edge count below which sparse graphs are out of reach
    with pytest.raises(ValueError, match=r"below about \(n/2\) ln n = 51 edges"):
        generate("gnm", 30, m=30, seed=0)


def test_generate_gnm_far_below_threshold_fails_at_once():
    # about 33 isolated vertices per sample: no attempt can succeed, so the
    # arguments are refused before the first one (1000 attempts take minutes)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"threshold \(n/2\) ln n = 575646 for n=100000: .* 33\.5 isolated"):
        generate("gnm", 100_000, m=400_000, seed=0)
    assert time.perf_counter() - t0 < 1.0
    # the mean it refuses on is exact: count isolated vertices over every edge set
    n = 6
    pairs = list(itertools.combinations(range(n), 2))
    for m in range(n - 1, len(pairs) + 1):
        sets = list(itertools.combinations(pairs, m))
        exact = sum(n - len({v for e in edges for v in e}) for edges in sets) / len(sets)
        assert _expected_isolated(n, m) == pytest.approx(exact, rel=1e-9, abs=1e-12)


def test_generate_random_tree():
    for seed in range(5):
        t = generate("random_tree", 40, seed=seed)
        assert t.edge_count == 39
        assert is_connected(t)


def test_seeded_determinism():
    for kind, m in (("gnm", 60), ("random_tree", None)):
        a = generate(kind, 25, m=m, seed=9)
        b = generate(kind, 25, m=m, seed=9)
        assert a.edges == b.edges
        c = generate(kind, 25, m=m, seed=10)
        # overwhelmingly likely to differ
        assert a.edges != c.edges or kind == "path"


def test_is_connected():
    assert is_connected(P3())
    assert is_connected(generate("complete", 4))
    assert not is_connected(from_edge_list(3, [(0, 1)]))
    assert is_connected(generate("path", 1))


def full_walk_connected(g):
    """Reference: walk every edge of the component of vertex 0."""
    seen = {0}
    stack = [0]
    while stack:
        for w in neighbors(g, stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
    st.booleans(),
)))
def test_is_connected_matches_full_walk(case):
    n, raw, isolate_last = case
    # isolate_last drops every edge at vertex n-1, so the walk stops one vertex short
    pairs = [(a, b) for a, b in raw if a != b and not (isolate_last and n - 1 in (a, b))]
    g = from_edge_list(n, pairs)
    assert is_connected(g) == full_walk_connected(g)
    if isolate_last and n > 1:
        assert not is_connected(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.integers(0, 10_000))
def test_matrix_round_trip(n, seed):
    total = n * (n - 1) // 2
    m = n - 1 + seed % (total - n + 2)
    g = generate("gnm", n, m=m, seed=seed)
    assert csr(from_adjacency_matrix(matrix(g))) == csr(g)


def test_text_formats_round_trip(tmp_path):
    g = generate("gnm", 12, m=20, seed=3)
    assert csr(parse_adjacency_text(adjacency_text(g))) == csr(g)
    assert csr(parse_edge_list_text(edge_list_text(g))) == csr(g)
    for name in ("g.json", "g.adj", "g.edges"):
        p = tmp_path / name
        write_graph(g, p)
        assert csr(load_graph(p)) == csr(g)


def test_graph_json_rejections():
    for obj in (
        {"n": 2, "edges": [[0, 1.0]]},
        {"n": 2, "edges": [[0, "1"]]},
        {"n": 2, "edges": [[False, True]]},
        {"n": True, "edges": []},
        {"n": 2, "edges": 5},
    ):
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(obj)


def test_edge_list_text_rejections():
    with pytest.raises(GraphFormatError, match="header"):
        parse_edge_list_text("1 2 3\n0 1\n")
    with pytest.raises(GraphFormatError, match="promises"):
        parse_edge_list_text("3 2\n0 1\n")


def test_load_graph_names_the_file_of_bad_json_by_extension_or_by_sniffing(tmp_path):
    text = '{"n": 2, "edges": [[0, 1]],}'
    for name in ("g.json", "g.txt"):
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(GraphFormatError) as info:
            load_graph(p)
        assert str(info.value).startswith(f"{p}: invalid JSON: Expecting property name"), name
        p.write_text("  " + text.replace(",}", "}"))
        assert load_graph(p).edge_count == 1


def test_load_graph_sniffing(tmp_path):
    g = generate("path", 4)
    p = tmp_path / "graph.txt"
    p.write_text(edge_list_text(g))
    assert csr(load_graph(p)) == csr(g)
    p.write_text(adjacency_text(g))
    assert csr(load_graph(p)) == csr(g)

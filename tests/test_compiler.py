import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsc.compiler import (
    CompilationResult,
    CompileOptions,
    DisconnectedGraphError,
    compile_graph,
    cz_baseline_depth,
    edge_coloring,
)
from gsc.cli import main
from gsc.graph import from_edge_list, generate, graph_stats
from gsc.mapping import mincut_mapping


def test_compile_path_100_mincut():
    r = compile_graph(generate("path", 100), mapper="mincut")
    assert r.tocks == 2
    assert r.verified


def test_compile_star_100():
    r = compile_graph(generate("star", 100), mapper="natural")
    assert r.tocks == 1
    assert r.tiles_full == 400
    assert r.tiles_reduced == 301
    assert r.spacetime_volume == 301


def test_compile_complete_100():
    r = compile_graph(generate("complete", 100), mapper="natural")
    assert r.tocks == 99
    assert len(r.plan.measured) == 99
    k4 = compile_graph(generate("complete", 4), mapper="natural")
    assert (k4.tiles_full, k4.tiles_reduced, k4.tocks, k4.spacetime_volume) == (16, 15, 3, 45)


def test_compile_single_vertex():
    r = compile_graph(generate("path", 1), mapper="natural")
    assert r.tocks == 0
    assert r.tiles_reduced == 3
    assert r.spacetime_volume == 0


def test_compile_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        compile_graph(from_edge_list(4, [(0, 1), (2, 3)]))


def test_compile_rejects_unknown_options():
    for field in ("mapper", "scheduler", "verify", "mis_order"):
        with pytest.raises(ValueError, match=field):
            CompileOptions(**{field: "bogus"})
    for budget in (0, -7):
        with pytest.raises(ValueError, match="karger_budget"):
            CompileOptions(karger_budget=budget)
    g = generate("path", 5)
    for reps in (0, -5, True, 2.5, "many"):
        with pytest.raises(ValueError, match="karger_reps"):
            CompileOptions(karger_reps=reps)
        with pytest.raises(ValueError, match="karger_reps"):
            mincut_mapping(g, repetitions_per_cut=reps)
    assert CompileOptions(karger_reps=1).karger_reps == 1
    with pytest.raises(ValueError):
        compile_graph(g, scheduler="nope")
    with pytest.raises(ValueError):
        compile_graph(g, mapper="nope")
    with pytest.raises(ValueError):
        compile_graph(g, verify="nope")


def test_compile_verify_modes():
    g = generate("gnm", 30, m=60, seed=1)
    assert compile_graph(g, mapper="random", verify="always").verified
    assert not compile_graph(g, mapper="random", verify="never").verified
    # auto skips above the cap
    opts = CompileOptions(mapper="random", verify="auto", verify_cap=10)
    assert not compile_graph(g, opts).verified


def test_compile_tocks_between_bounds():
    for seed in range(20):
        n = 4 + seed
        total = n * (n - 1) // 2
        g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
        for mapper in ("natural", "random", "mincut"):
            for scheduler in ("paper", "first-fit"):
                r = compile_graph(g, mapper=mapper, scheduler=scheduler, seed=seed)
                measured = len(r.plan.measured)
                assert r.tocks <= measured == n - len(r.plan.independent_set)
                assert r.tocks >= r.schedule.lower_bound


def test_result_json_round_trip_and_determinism():
    g = generate("gnm", 12, m=20, seed=5)
    a = compile_graph(g, mapper="mincut", seed=3)
    b = compile_graph(g, mapper="mincut", seed=3)
    assert a.to_json_text() == b.to_json_text()
    restored = CompilationResult.from_json_dict(a.to_json_dict())
    assert restored == a


# sha256 of compile JSON and of a --timings zero bench CSV, recorded from the
# code before the costs became derived properties; the four mincut digests of
# graphs with cycles were re-recorded when a min-cut search stopped drawing
# permutations for the runs it skips, and the CSV when each min-cut piece took
# its edges in sorted order instead of the order Python iterates a set (the
# random_tree:40 mincut digest pins that order). Two runs of the same code agreeing
# (acceptance criterion 10) cannot show that output changed between versions;
# these can. Update them only for an intended change of output.
RECORDED_JSON = {
    ("path:1", "natural", "paper", 0): "084da08d37933885b174343b1ca19fdda4c06269332972da09223f7f1f878224",
    ("path:30", "mincut", "first-fit", 7): "8b5bbf8ee365a891aa87c9de8da866d7290f20091caf6b6b8a005fee9d79e65a",
    ("gnm:12:20", "mincut", "paper", 3): "56dd2cdd72798eecca028c5edda40674170d465abcad642ef9ca8d129f370cf1",
    ("complete:8", "mincut", "first-fit", 4): "69da5263ff39ec6e6651ae0b0ec1a6d75f6ee05e8db7858d403e0da84dfb221e",
    ("random_tree:40", "random", "first-fit", 2): "a0ad92412bb772ddbe057a3a7f37c9395351007820f1aafdfaff923da2e01bb6",
    ("gnm:30:90", "random", "paper", 1): "fcc9207af8e2339ba31cc80807f28de29e9f97ece46a1a5d65421d8154645fb1",
    ("star:20", "natural", "first-fit", 0): "ae245d6149accc333ef684614646f42051ac5f414e27ad2c4f56efdca70b1b00",
    ("random_tree:40", "mincut", "paper", 2): "30f798426b459bc1c79b8d7d5b8cf02fc26fd21bd41472d565de7d363ad6563a",
    # every cut here stops at the exact edge connectivity, so these pin where
    # each stop leaves the random stream deep into the peel sequence
    ("gnm:20:150", "mincut", "paper", 1): "bbcdbb23231d0196a45ed31ca2ed87114c148ca943b083283ae9e788fe7f3dc3",
    ("complete:20", "mincut", "first-fit", 2): "80244af235af397eb15001769238639f05f1ce0a41930665721bd544d42c2442",
}
RECORDED_DENSITY_CSV = "779829f789f4d2ced73967e8ef890f20f1191225db171c5df10655eed0bdf3e5"


def test_outputs_match_recorded_hashes(tmp_path):
    for (spec, mapper, scheduler, seed), digest in RECORDED_JSON.items():
        kind, n, *m = spec.split(":")
        g = generate(kind, int(n), m=int(m[0]) if m else None, seed=seed)
        text = compile_graph(g, mapper=mapper, scheduler=scheduler, seed=seed).to_json_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, spec
    out = tmp_path / "density.csv"
    args = ["bench", "--suite", "density", "--n", "16", "--seeds", "2", "--densities", "0.2,1.0",
            "--mappers", "random,mincut", "--timings", "zero", "--workers", "1", "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED_DENSITY_CSV


def proper(g, coloring):
    for v in range(g.n):
        seen = set()
        for w in g.adj[v]:
            c = coloring[(min(v, w), max(v, w))]
            if c in seen:
                return False
            seen.add(c)
    return True


def test_cz_baseline_families():
    assert cz_baseline_depth(generate("path", 10)) == (2, 4)
    assert cz_baseline_depth(generate("path", 3)).colors == 2
    for n in (5, 10, 50):
        assert cz_baseline_depth(generate("star", n)).colors == n - 1
    # complete graphs: chromatic index n-1 for even n, n for odd n
    for n in range(3, 14):
        want = n - 1 if n % 2 == 0 else n
        assert cz_baseline_depth(generate("complete", n)).colors == want


def test_cz_baseline_trees_hit_max_degree():
    for seed in range(40):
        t = generate("random_tree", 60, seed=seed)
        assert cz_baseline_depth(t).colors == graph_stats(t).max_degree


def test_edge_coloring_proper_and_bounded():
    for seed in range(40):
        n = 4 + seed % 12
        total = n * (n - 1) // 2
        g = generate("gnm", n, m=n - 1 + (seed * 7) % (total - n + 2), seed=seed)
        coloring = edge_coloring(g)
        assert proper(g, coloring)
        assert len(set(coloring.values())) <= graph_stats(g).max_degree + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 24), st.integers(0, 10_000))
def test_edge_coloring_property(n, seed):
    total = n * (n - 1) // 2
    g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
    coloring = edge_coloring(g)
    assert set(coloring) == g.edges
    assert proper(g, coloring)
    assert len(set(coloring.values())) <= graph_stats(g).max_degree + 1


def test_edge_coloring_edgeless():
    assert edge_coloring(generate("path", 1)) == {}
    assert cz_baseline_depth(generate("path", 1)) == (0, 0)


def test_cz_tocks_double_colors():
    g = generate("gnm", 20, m=50, seed=2)
    baseline = cz_baseline_depth(g)
    assert baseline.tocks == 2 * baseline.colors

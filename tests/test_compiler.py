import gc
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsc import compiler as compiler_module
from gsc.compiler import (
    CompilationResult,
    CompileOptions,
    DisconnectedGraphError,
    compile_graph,
    verify_result,
)
from gsc.cli import main
from gsc.graph import from_edge_list, generate
from gsc.mapping import Mapping, mincut_mapping
from gsc.scheduler import AncillaBlock
from gsc.stabilizer import ReductionPlan
from gsc.verify import verify_compilation
from reference import result_json_dict, schedule_of


def test_compile_path_100_mincut():
    r = compile_graph(generate("path", 100), CompileOptions(mapper="mincut"))
    assert r.tocks == 2


def test_compile_star_100():
    r = compile_graph(generate("star", 100), CompileOptions(mapper="natural"))
    assert r.tocks == 1
    assert r.tiles_full == 400
    assert r.tiles_reduced == 301
    assert r.spacetime_volume == 301


def test_compile_complete_100():
    r = compile_graph(generate("complete", 100), CompileOptions(mapper="natural"))
    assert r.tocks == 99
    assert len(r.plan.measured) == 99
    k4 = compile_graph(generate("complete", 4), CompileOptions(mapper="natural"))
    assert (k4.tiles_full, k4.tiles_reduced, k4.tocks, k4.spacetime_volume) == (16, 15, 3, 45)


def test_compile_single_vertex():
    r = compile_graph(generate("path", 1), CompileOptions(mapper="natural"))
    assert r.tocks == 0
    assert r.tiles_reduced == 3
    assert r.spacetime_volume == 0


def test_compile_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        compile_graph(from_edge_list(4, [(0, 1), (2, 3)]))


def test_compile_rejects_unknown_options():
    for field in ("mapper", "scheduler", "verify"):
        with pytest.raises(ValueError, match=field):
            CompileOptions(**{field: "bogus"})
    # the fixed settings are constants, not options
    g = generate("path", 5)
    for name, value in (("karger_reps", 1), ("karger_budget", 1), ("mis_order", "seeded_random"),
                        ("verify_cap", 0)):
        with pytest.raises(TypeError, match=name):
            CompileOptions(**{name: value})
    opts = CompileOptions()
    assert (opts.karger_reps, opts.mis_order, opts.verify_cap, opts.karger_budget) == (
        "auto", "degree_ascending", 200, 100_000)
    for reps in (0, -5, True, 2.5, "many"):
        with pytest.raises(ValueError, match="karger_reps"):
            mincut_mapping(g, repetitions_per_cut=reps)


def test_compile_verify_modes(monkeypatch):
    """``verify`` selects only when the tableau runs; every result is certified."""
    replays = []

    def counted(*args):
        replays.append(args)
        return verify_compilation(*args)

    monkeypatch.setattr(compiler_module, "verify_compilation", counted)
    gnm = generate("gnm", 30, m=60, seed=1)
    # auto replays up to the fixed cap of 200 vertices and skips above it
    for g, verify, want in ((gnm, "never", 0),
                            (generate("path", 200), "auto", 1), (generate("path", 201), "auto", 0)):
        replays.clear()
        result = compile_graph(g, CompileOptions(mapper="random", verify=verify))
        assert len(replays) == want, (g.n, verify)
        assert json.loads(result.to_json_text())["verified"] is True


def test_verify_result_replays_under_the_same_rule(monkeypatch):
    """``verify_result`` replays the tableau exactly where ``compile_graph`` does."""
    opts = CompileOptions(mapper="random", verify="never")
    texts = {n: compile_graph(generate("path", n), opts).to_json_text() for n in (200, 201)}
    replays = []

    def counted(*args):
        replays.append(args)
        return verify_compilation(*args)

    monkeypatch.setattr(compiler_module, "verify_compilation", counted)
    for n, want in ((200, 1), (201, 0)):
        replays.clear()
        verify_result(generate("path", n), texts[n])
        assert len(replays) == want, n


def test_verify_result_pauses_the_garbage_collector_while_parsing(monkeypatch):
    text = compile_graph(generate("path", 6)).to_json_text()
    states = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s: states.append(gc.isenabled()) or loads(s))
    assert gc.isenabled()
    verify_result(generate("path", 6), text)
    assert states == [False] and gc.isenabled()


def test_always_is_not_a_verify_mode():
    with pytest.raises(ValueError, match="verify"):
        CompileOptions(verify="always")


def test_compile_tocks_between_bounds():
    for seed in range(20):
        n = 4 + seed
        total = n * (n - 1) // 2
        g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
        for mapper in ("natural", "random", "mincut"):
            for scheduler in ("paper", "first-fit"):
                r = compile_graph(g, CompileOptions(mapper=mapper, scheduler=scheduler, seed=seed))
                measured = len(r.plan.measured)
                assert r.tocks <= measured == n - len(r.plan.independent_set)
                assert r.tocks >= r.schedule.lower_bound


def test_result_json_round_trip_and_determinism():
    g = generate("gnm", 12, m=20, seed=5)
    a = compile_graph(g, CompileOptions(mapper="mincut", seed=3))
    b = compile_graph(g, CompileOptions(mapper="mincut", seed=3))
    assert a.to_json_text() == b.to_json_text()
    restored = CompilationResult.from_json_dict(json.loads(a.to_json_text()))
    assert restored == a


def test_layers_pass_read_only_int64_arrays():
    """The plan's measured generators and the mapping's positions are int64
    arrays that no caller can write to, and a result read back from its
    JSON equals the compiled one under every mapper."""
    g = generate("gnm", 40, m=90, seed=8)
    for mapper in ("natural", "random", "mincut"):
        r = compile_graph(g, CompileOptions(mapper=mapper, seed=2))
        for arr in (r.plan.measured, r.mapping.pos):
            assert arr.dtype == np.int64 and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert CompilationResult.from_json_dict(json.loads(r.to_json_text())) == r


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
    # bus-sized schedules where nearly every block opens its own round
    # (1646 of 1646, 2053 of 2063 and 299 of 299 blocks), recorded before the
    # schedulers moved from block tuples to int64 columns
    ("gnm:2000:20000", "random", "paper", 1): "5672753d922837242b58454381cd95db3f1060bb842bec898697455a68a61361",
    ("gnm:3000:12000", "random", "first-fit", 1): "885a5dee57b72e1b68a565cc73021b021e9d6ba575e7a04c5ee13804f463d94f",
    ("complete:300", "natural", "paper", 0): "1ddd57acedbd8c2b18d45e4f79e623f87effcf0ffb1ed8ed611431720c7b8e08",
    # recorded before the blocks of a complete graph were set without
    # reading its rows, the MIS decided its leading leaves at once and the
    # random mapper shuffled on bulk words: complete:60 and path:2 are
    # complete, star:30 is one hub short of it, and random_tree:300 is
    # mostly leaves
    ("complete:60", "random", "paper", 1): "b0bf1f352c8d6f3a17635182132e3115810c8071b8a114f66163611e6d8c14fc",
    ("complete:60", "random", "first-fit", 1): "b0bf1f352c8d6f3a17635182132e3115810c8071b8a114f66163611e6d8c14fc",
    ("star:30", "random", "paper", 1): "74a2d57226835b08250d0820ca9e9b2f1222b0f7da015f17368f1b0201174a3f",
    ("random_tree:300", "random", "first-fit", 1): "2d76dd887205f515470597f9b250c8ff488af2e01b4690ad3e0757b93d528b27",
    ("path:2", "natural", "paper", 0): "637b136c53de0e0582c2fab5564ee60588a26da855bd70b5bd4d01a01004cbf5",
}
RECORDED_DENSITY_CSV = "779829f789f4d2ced73967e8ef890f20f1191225db171c5df10655eed0bdf3e5"
# the other two suites' --timings zero CSVs, recorded before the bench rows
# became named tuples written by one csv.writer call
RECORDED_SUITE_CSV = {
    ("types", "--n", "10,40", "--seeds", "2", "--mappers", "natural,random,mincut"):
        "d5045fac829727192b422dedac8899fb582440343b75563168a72ff0a2efc618",
    ("scaling", "--n", "16,32", "--seeds", "2", "--mappers", "random,mincut"):
        "a426fb1ed0989dd08514c4021991bdaf1fb4f17faf1a753467db8e8098d8b3e4",
}


def test_outputs_match_recorded_hashes(tmp_path):
    for (spec, mapper, scheduler, seed), digest in RECORDED_JSON.items():
        kind, n, *m = spec.split(":")
        g = generate(kind, int(n), m=int(m[0]) if m else None, seed=seed)
        text = compile_graph(g, CompileOptions(mapper=mapper, scheduler=scheduler, seed=seed)).to_json_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, spec
    out = tmp_path / "density.csv"
    args = ["bench", "--suite", "density", "--n", "16", "--seeds", "2", "--densities", "0.2,1.0",
            "--mappers", "random,mincut", "--timings", "zero", "--workers", "1", "--out", str(out)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED_DENSITY_CSV
    for suite, digest in RECORDED_SUITE_CSV.items():
        args = ["bench", "--suite", *suite, "--timings", "zero", "--workers", "1", "--out", str(out)]
        assert main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, suite[0]


def dumped(result):
    return json.dumps(result_json_dict(result), indent=2) + "\n"


def test_json_text_matches_json_dumps_on_recorded_cases():
    for spec, mapper, scheduler, seed in RECORDED_JSON:
        kind, n, *m = spec.split(":")
        g = generate(kind, int(n), m=int(m[0]) if m else None, seed=seed)
        result = compile_graph(g, CompileOptions(mapper=mapper, scheduler=scheduler, seed=seed))
        assert result.to_json_text() == dumped(result)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32))
@example(3000, 1)
@example(1, 2)
def test_json_text_matches_json_dumps(n, seed):
    """Random fields, not compiled ones: any set, order, rounds (empty ones too).
    They come from a seeded generator, not from hypothesis, whose entropy
    limit a 3000-vertex result can exceed."""
    rnd = random.Random(seed)
    pos = list(range(n))
    rnd.shuffle(pos)
    rounds = [
        [AncillaBlock(rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.choice([0, 1, 2, 7]))]
        for _ in range(rnd.choice([0, 1, 3, 40]))
    ]
    result = CompilationResult(
        plan=ReductionPlan(n, frozenset(v for v in range(n) if rnd.random() < rnd.random())),
        mapping=Mapping(pos=tuple(pos)),
        schedule=schedule_of(rounds),
    )
    assert result.to_json_text() == dumped(result)


import json
import random
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsc.compiler import CompilationResult
from gsc.graph import from_edge_list, generate
from gsc.mapping import Mapping, basic_mapping
from gsc.scheduler import (
    AncillaBlock,
    Schedule,
    build_blocks,
    depth_lower_bound,
    schedule_first_fit,
    schedule_sweep,
    validate_schedule,
)
from gsc.stabilizer import ReductionPlan, greedy_maximal_independent_set, reduce_generators


def blocks_of(pairs):
    return [AncillaBlock(gen=i, L=l, R=r) for i, (l, r) in enumerate(pairs)]


def brute_force_min_rounds(blocks):
    """Exhaustive assignment over all round partitions (no pruning)."""
    if not blocks:
        return 0
    best = [len(blocks)]

    def rec(i, rounds):
        if len(rounds) >= best[0]:
            return
        if i == len(blocks):
            best[0] = len(rounds)
            return
        b = blocks[i]
        for rnd in rounds:
            if all(b.R < o.L or o.R < b.L for o in rnd):
                rnd.append(b)
                rec(i + 1, rounds)
                rnd.pop()
        rounds.append([b])
        rec(i + 1, rounds)
        rounds.pop()

    rec(0, [])
    return best[0]


def round_intervals(schedule):
    return [sorted((b.L, b.R) for b in rnd) for rnd in schedule.rounds]


def sweep_key(b):
    return (b.R, b.L, b.gen)


def left_key(b):
    return (b.L, b.R, b.gen)


def reference_first_fit(blocks, key):
    """First fit by a linear scan over the open rounds, O(k * rounds): each
    block, in ``key`` order, joins the first round whose rightmost endpoint
    it clears, or opens a new round."""
    rounds = []
    round_max_r = []
    for b in sorted(blocks, key=key):
        for i, r in enumerate(round_max_r):
            if b.L > r:
                rounds[i].append(b)
                round_max_r[i] = b.R
                break
        else:
            rounds.append([b])
            round_max_r.append(b.R)
    return Schedule(rounds=tuple(tuple(rnd) for rnd in rounds))


def assert_matches_reference(blocks):
    assert schedule_sweep(blocks) == reference_first_fit(blocks, sweep_key)
    assert schedule_first_fit(blocks) == reference_first_fit(blocks, left_key)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 8)).map(lambda t: (t[0], t[0] + t[1])), max_size=40))
@example([])
@example([(3, 3)])
@example([(0, 4), (0, 4), (0, 4)])  # duplicate intervals
@example([(0, 2), (2, 4), (4, 4), (4, 6)])  # touching at one position
@example([(0, 9), (1, 8), (2, 2), (3, 7), (4, 4)])  # nested, L == R
@example([(5, 5), (0, 9), (3, 5), (5, 12), (1, 6), (4, 8)])  # all cover 5: each opens a round
@example([(i, i + 2) for i in range(12)])  # staircase: a round is free every third block
def test_first_fit_matches_linear_scan(pairs):
    assert_matches_reference(blocks_of(pairs))


def test_first_fit_matches_linear_scan_on_large_graphs():
    for kind, n, m in (("gnm", 3000, 12000), ("random_tree", 3000, None)):
        g = generate(kind, n, m=m, seed=5)
        plan = reduce_generators(g, greedy_maximal_independent_set(g))
        blocks = build_blocks(g, plan.measured, basic_mapping(g, "random", seed=5))
        assert len(blocks) > 1000
        assert_matches_reference(blocks)


def test_first_fit_scale_extremes():
    # a linear scan over rounds takes seconds on the stacked case
    k = 20_000
    stacked = blocks_of([(5, 9)] * k)
    disjoint = blocks_of([(2 * i, 2 * i) for i in range(k)])
    for schedule in (schedule_sweep, schedule_first_fit):
        assert schedule(stacked).tocks == k
        assert schedule(disjoint).tocks == 1


def test_build_blocks_p3():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    blocks = build_blocks(g, [1], basic_mapping(g, "natural"))
    assert blocks == [AncillaBlock(gen=1, L=0, R=2)]


def test_build_blocks_star_single_span():
    g = generate("star", 5)
    m = basic_mapping(g, "random", seed=9)
    (block,) = build_blocks(g, [0], m)
    assert block.L == min(m.pos)
    assert block.R == max(m.pos)
    assert (block.L, block.R) == (0, 4)


def test_build_blocks_complete_full_support():
    g = generate("complete", 4)
    blocks = build_blocks(g, [1, 2, 3], basic_mapping(g, "random", seed=1))
    assert [(b.L, b.R) for b in blocks] == [(0, 3)] * 3


def test_sweep_empty():
    assert schedule_sweep([]).tocks == 0
    assert schedule_first_fit([]).tocks == 0


def test_sweep_simple_two_rounds():
    blocks = blocks_of([(1, 2), (3, 4), (2, 3)])
    s = schedule_sweep(blocks)
    assert s.tocks == 2
    assert round_intervals(s) == [[(1, 2), (3, 4)], [(2, 3)]]
    assert brute_force_min_rounds(blocks) == 2


def test_sweep_counterexample_three_rounds():
    # the sweep strategy is not optimal here: first-fit packs these in 2
    blocks = blocks_of([(1, 4), (4, 6), (7, 8), (5, 9)])
    s = schedule_sweep(blocks)
    assert s.tocks == 3
    assert round_intervals(s) == [[(1, 4), (7, 8)], [(4, 6)], [(5, 9)]]
    assert brute_force_min_rounds(blocks) == 2


def test_first_fit_counterexample_two_rounds():
    blocks = blocks_of([(1, 4), (4, 6), (7, 8), (5, 9)])
    s = schedule_first_fit(blocks)
    assert s.tocks == 2
    assert round_intervals(s) == [[(1, 4), (5, 9)], [(4, 6), (7, 8)]]


def test_first_fit_identical_intervals():
    blocks = blocks_of([(0, 3)] * 3)
    assert schedule_first_fit(blocks).tocks == 3
    assert schedule_sweep(blocks).tocks == 3


def test_touching_blocks_conflict():
    # inclusive intervals sharing one position may not share a round
    blocks = blocks_of([(0, 2), (2, 4)])
    assert schedule_sweep(blocks).tocks == 2
    assert schedule_first_fit(blocks).tocks == 2


def random_block_set(rng, max_blocks=200, span=400):
    count = rng.randrange(0, max_blocks + 1)
    out = []
    for i in range(count):
        l = rng.randrange(span)
        r = min(span - 1, l + rng.randrange(1, 30))
        out.append(AncillaBlock(gen=i, L=l, R=r))
    return out


def test_first_fit_matches_lower_bound_500_sets():
    rng = random.Random(12345)
    for _ in range(500):
        blocks = random_block_set(rng)
        s = schedule_first_fit(blocks)
        assert s.tocks == depth_lower_bound(blocks)
        report = validate_schedule(s, blocks)
        assert report.ok


def test_sweep_at_least_lower_bound_and_valid():
    rng = random.Random(999)
    for _ in range(300):
        blocks = random_block_set(rng, max_blocks=60)
        s = schedule_sweep(blocks)
        assert s.tocks >= depth_lower_bound(blocks)
        assert validate_schedule(s, blocks).ok


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 12)).map(lambda t: (t[0], t[0] + t[1])),
        max_size=9,
    )
)
def test_sweep_optimal_when_small_vs_brute_force(pairs):
    # the sweep strategy matches the exhaustive optimum on most small
    # instances; where it does not, it must still be a valid covering
    blocks = blocks_of(pairs)
    s = schedule_sweep(blocks)
    assert validate_schedule(s, blocks).ok
    assert s.tocks >= brute_force_min_rounds(blocks)
    ff = schedule_first_fit(blocks)
    assert ff.tocks == brute_force_min_rounds(blocks)


def test_sweep_rounds_maximal_under_its_rule():
    # no block scheduled later could have joined an earlier round given the
    # members that precede it in (R, L) order
    rng = random.Random(77)
    for _ in range(100):
        blocks = random_block_set(rng, max_blocks=40)
        s = schedule_sweep(blocks)
        key = lambda b: (b.R, b.L, b.gen)
        for k, rnd in enumerate(s.rounds):
            later = [b for r in s.rounds[k + 1 :] for b in r]
            for b in later:
                earlier_members = [o for o in rnd if key(o) < key(b)]
                assert any(b.L <= o.R and o.L <= b.R for o in earlier_members)


def sorted_round_violations(rounds):
    """Per-round violations found by sorting every round by (L, R) and
    scanning neighbours, with no shortcut for rounds already in order."""
    out = []
    for k, rnd in enumerate(rounds):
        if not rnd:
            out.append(f"round {k} is empty")
        members = sorted(rnd, key=lambda b: (b.L, b.R))
        for prev, cur in zip(members, members[1:]):
            if cur.L <= prev.R:
                out.append(f"round {k}: blocks for generators {prev.gen} and {cur.gen} overlap at position {cur.L}")
    return out


def round_and_position(violation):
    return violation.split(":")[0], violation.rpartition(" ")[2]


def test_validate_schedule_reports():
    blocks = blocks_of([(1, 2), (3, 4), (2, 3)])
    good = schedule_sweep(blocks)
    report = validate_schedule(good, blocks)
    assert report.ok and report.lower_bound == 2
    bad = Schedule(rounds=((blocks[0], blocks[2]), (blocks[1],)))
    report = validate_schedule(bad, blocks)
    assert not report.ok
    assert any("overlap" in v for v in report.violations)
    missing = Schedule(rounds=((blocks[0],), (blocks[2],)))
    report = validate_schedule(missing, blocks)
    assert not report.ok
    assert any("missing" in v for v in report.violations)
    padded = Schedule(rounds=good.rounds + ((),))
    report = validate_schedule(padded, blocks)
    assert not report.ok
    assert report.violations == [f"round {good.tocks} is empty"]
    # the check reads rounds listed in L order without sorting them; listed
    # so or shuffled, it must report what sorting every round reports
    rng = random.Random(4242)
    forged = 0
    for i in range(200):
        blocks = random_block_set(rng, max_blocks=60)
        rounds = [list(rnd) for rnd in (schedule_sweep if i % 2 else schedule_first_fit)(blocks).rounds]
        if len(rounds) > 1:
            # the last round's opener conflicted with round 0 when it was placed
            rounds[0].append(rounds[-1].pop(0))
        listed = validate_schedule(Schedule(rounds=tuple(map(tuple, rounds))), blocks).violations
        assert listed == sorted_round_violations(rounds)
        for rnd in rounds:
            rng.shuffle(rnd)
        shuffled = validate_schedule(Schedule(rounds=tuple(map(tuple, rounds))), blocks).violations
        assert shuffled == sorted_round_violations(rounds)
        # the generators of two equal intervals may swap; round and position may not
        assert list(map(round_and_position, shuffled)) == list(map(round_and_position, listed))
        forged += bool(listed)
    assert forged > 100


def test_validate_overlap_at_shared_position():
    # listed in L order (the order the check reads without sorting) and in reverse
    for pairs, position in (([(1, 4), (4, 6)], 4), ([(0, 5), (3, 8)], 3)):
        blocks = blocks_of(pairs)
        for rnd in (tuple(blocks), tuple(reversed(blocks))):
            report = validate_schedule(Schedule(rounds=(rnd,)), blocks)
            assert not report.ok
            assert len(report.violations) == 1
            assert f"overlap at position {position}" in report.violations[0]
    # a disjoint round listed right to left is not a violation
    blocks = blocks_of([(7, 9), (4, 5), (0, 2)])
    assert validate_schedule(Schedule(rounds=(tuple(blocks),)), blocks).ok


def test_lower_bound_values():
    assert depth_lower_bound([]) == 0
    assert depth_lower_bound(blocks_of([(1, 2), (3, 4), (2, 3)])) == 2
    assert depth_lower_bound(blocks_of([(0, 3)] * 3)) == 3


def test_schedule_json_round_trip():
    blocks = blocks_of([(1, 4), (4, 6), (7, 8), (5, 9)])
    s = schedule_first_fit(blocks)
    result = CompilationResult(plan=ReductionPlan(10, frozenset()), mapping=Mapping(pos=tuple(range(10))), schedule=s)
    obj = json.loads(result.to_json_text())
    assert obj["schedule"]["tocks"] == 2
    assert obj["schedule"]["lower_bound"] == 2
    assert CompilationResult.from_json_dict(obj).schedule == s


def timed_sweep(count, rng):
    blocks = []
    span = 10 * count
    for i in range(count):
        l = rng.randrange(span)
        blocks.append(AncillaBlock(gen=i, L=l, R=min(span - 1, l + rng.randrange(1, 20))))
    t0 = time.perf_counter()
    schedule_sweep(blocks)
    return time.perf_counter() - t0


def test_sweep_near_linearithmic_scaling():
    # 10x the blocks should cost far less than the 100x of quadratic growth;
    # generous bound to keep the check robust on loaded machines
    rng = random.Random(5)
    t_small = min(timed_sweep(1_000, rng) for _ in range(3))
    t_big = min(timed_sweep(10_000, rng) for _ in range(3))
    assert t_big < 45 * max(t_small, 1e-4)

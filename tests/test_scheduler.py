import json
import random
import time
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsc import scheduler
from gsc.compiler import CompilationResult
from gsc.graph import from_edge_list, generate, neighbour_reduce
from gsc.mapping import MAPPERS, Mapping, basic_mapping
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
from reference import column_blocks, reference_schedule_violations, schedule_of, tuple_first_fit


def blocks_of(pairs):
    return column_blocks([AncillaBlock(gen=i, L=l, R=r) for i, (l, r) in enumerate(pairs)])


def brute_force_min_rounds(blocks):
    """Exhaustive assignment over all round partitions (no pruning)."""
    blocks = list(blocks)
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
    return schedule_of(rounds)


def assert_matches_reference(blocks):
    """Both schedulers equal the linear scan, round offsets included."""
    for schedule, key in ((schedule_sweep, sweep_key), (schedule_first_fit, left_key)):
        got, want = schedule(blocks), reference_first_fit(blocks, key)
        assert got == want
        assert got.offsets.dtype == np.int64 and got.offsets.tolist() == want.offsets.tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 8)).map(lambda t: (t[0], t[0] + t[1])), max_size=40))
@example([])
@example([(3, 3)])
@example([(0, 4), (0, 4), (0, 4)])  # duplicate intervals
@example([(0, 2), (2, 4), (4, 4), (4, 6)])  # touching at one position
@example([(0, 9), (1, 8), (2, 2), (3, 7), (4, 4)])  # nested, L == R
@example([(5, 5), (0, 9), (3, 5), (5, 12), (1, 6), (4, 8)])  # all cover 5: each opens a round
@example([(i, i + 2) for i in range(12)])  # staircase: a round is free every third block
# the first three blocks open rounds and the least end among them is 5: a
# block starting at 5 touches it and opens a fourth, one starting at 6 fits it
@example([(0, 5), (1, 7), (2, 6), (5, 10), (6, 11)])
@example([(0, 5), (1, 7), (2, 6), (6, 10)])
def test_first_fit_matches_linear_scan(pairs):
    assert_matches_reference(blocks_of(pairs))


@st.composite
def tied_blocks(draw):
    """Blocks over a few positions, so that L values, R values and whole
    intervals tie often, with generators in random order, so that ties fall
    back to the generator and not to the listed order."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=40))
    gens = draw(st.permutations(range(len(pairs))))
    return [AncillaBlock(gen, l, l + w) for gen, (l, w) in zip(gens, pairs)]


@settings(max_examples=300, deadline=None)
@given(tied_blocks())
@example([])
@example([AncillaBlock(2, 0, 3), AncillaBlock(0, 0, 3), AncillaBlock(1, 0, 3)])  # equal intervals
@example([AncillaBlock(1, 0, 4), AncillaBlock(0, 0, 2), AncillaBlock(2, 3, 5)])  # tied L
@example([AncillaBlock(1, 0, 4), AncillaBlock(0, 2, 4), AncillaBlock(2, 5, 5)])  # tied R
def test_schedulers_match_tuple_oracle(blocks):
    """The column schedulers give exactly the rounds, in listed order, of the
    tuple-based first fit they replaced, under the same (R, L, gen) and
    (L, R, gen) orders."""
    columns = column_blocks(blocks)
    assert schedule_sweep(columns).rounds == tuple_first_fit(blocks, itemgetter(2, 1, 0))
    assert schedule_first_fit(columns).rounds == tuple_first_fit(blocks, itemgetter(1, 2, 0))


def test_first_fit_matches_linear_scan_on_large_graphs():
    for kind, n, m in (("gnm", 3000, 12000), ("random_tree", 3000, None)):
        g = generate(kind, n, m=m, seed=5)
        plan = reduce_generators(g, greedy_maximal_independent_set(g))
        blocks = build_blocks(g, plan.measured, basic_mapping(g, "random", seed=5))
        assert len(blocks) > 1000
        assert_matches_reference(blocks)
        assert schedule_sweep(blocks).rounds == tuple_first_fit(blocks, itemgetter(2, 1, 0))


def test_leading_run_ends_at_every_index():
    """The first j blocks all cover position 20, so each opens its own round,
    and every later block starts right of them in both orders, so block j
    is the first one to fit a round; the later ones overlap each other, so
    they also fill the run's rounds and open new ones."""
    rng = random.Random(11)
    for k in (2, 3, 7, 8, 9, 33):
        for j in range(1, k + 1):
            stacked = [(rng.randrange(0, 21), 20 + rng.randrange(k)) for _ in range(j)]
            later = []
            for _ in range(k - j):
                lo = 21 + k + rng.randrange(40)
                later.append((lo, lo + rng.randrange(12)))
            pairs = stacked + later
            rng.shuffle(pairs)
            blocks = blocks_of(pairs)
            assert_matches_reference(blocks)
            for schedule in (schedule_sweep, schedule_first_fit):
                heads = [rnd[0] for rnd in schedule(blocks).rounds]
                assert sorted((b.L, b.R) for b in heads[:j]) == sorted(stacked)
            if j == k:
                assert schedule_sweep(blocks).offsets.tolist() == list(range(k + 1))


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
    assert list(blocks) == [AncillaBlock(gen=1, L=0, R=2)]


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


def test_build_blocks_reads_no_row_of_a_complete_graph(monkeypatch):
    """A complete graph's blocks are all [0, n - 1] and its rows are not
    reduced; any other graph's rows are reduced for both ends."""
    given = []

    def counting(g, values, *ufuncs):
        given.append(len(ufuncs))
        return neighbour_reduce(g, values, *ufuncs)

    monkeypatch.setattr(scheduler, "neighbour_reduce", counting)

    def ufuncs(spec, mapper):
        kind, n = spec.split(":")
        g = generate(kind, int(n), seed=1)
        given.clear()
        build_blocks(g, range(g.n), MAPPERS[mapper](g, seed=1))
        return sum(given)

    for mapper in MAPPERS:
        for n in (1, 2, 5, 40):
            assert ufuncs(f"complete:{n}", mapper) == 0, (n, mapper)
        for n in (3, 5, 40):
            assert ufuncs(f"star:{n}", mapper) == 2, (n, mapper)
        for n in (4, 5, 40):
            assert ufuncs(f"path:{n}", mapper) == 2, (n, mapper)


def test_sweep_empty():
    assert schedule_sweep(blocks_of([])).tocks == 0
    assert schedule_first_fit(blocks_of([])).tocks == 0


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
    for k in (2, 64, 65):  # one leading run of fresh rounds, over every block
        blocks = blocks_of([(4, 9)] * k)
        assert_matches_reference(blocks)
        assert schedule_first_fit(blocks).tocks == schedule_sweep(blocks).tocks == k


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
    return column_blocks(out)


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


def round_and_position(violation):
    return violation.split(":")[0], violation.rpartition(" ")[2]


def test_validate_schedule_reports():
    blocks = blocks_of([(1, 2), (3, 4), (2, 3)])
    good = schedule_sweep(blocks)
    report = validate_schedule(good, blocks)
    assert report.ok and report.lower_bound == 2
    b = list(blocks)
    bad = schedule_of([[b[0], b[2]], [b[1]]])
    report = validate_schedule(bad, blocks)
    assert not report.ok
    assert any("overlap" in v for v in report.violations)
    missing = schedule_of([[b[0]], [b[2]]])
    report = validate_schedule(missing, blocks)
    assert not report.ok
    assert any("missing" in v for v in report.violations)
    padded = schedule_of(good.rounds + [[]])
    report = validate_schedule(padded, blocks)
    assert not report.ok
    assert report.violations == [f"round {good.tocks} is empty"]
    # the check reads rounds listed in L order without sorting them; listed
    # so or shuffled, it must report what sorting every round reports
    rng = random.Random(4242)
    forged = 0
    for i in range(200):
        blocks = random_block_set(rng, max_blocks=60)
        rounds = (schedule_sweep if i % 2 else schedule_first_fit)(blocks).rounds
        if len(rounds) > 1:
            # the last round's opener conflicted with round 0 when it was placed
            rounds[0].append(rounds[-1].pop(0))
        listed = validate_schedule(schedule_of(rounds), blocks).violations
        assert listed == reference_schedule_violations(rounds, list(blocks))
        for rnd in rounds:
            rng.shuffle(rnd)
        shuffled = validate_schedule(schedule_of(rounds), blocks).violations
        assert shuffled == reference_schedule_violations(rounds, list(blocks))
        # the generators of two equal intervals may swap; round and position may not
        assert list(map(round_and_position, shuffled)) == list(map(round_and_position, listed))
        forged += bool(listed)
    assert forged > 100


def test_validate_schedule_violation_strings():
    """Forged schedules of fixed blocks give the messages the tuple-based
    check gave, word for word."""
    w = [AncillaBlock(1, 0, 2), AncillaBlock(3, 2, 4), AncillaBlock(4, 3, 5), AncillaBlock(6, 5, 7),
         AncillaBlock(8, 7, 9)]
    cases = [
        ([[w[0], w[3]], [w[1], w[4]], []],
         ["generator 4 is missing from the schedule", "round 2 is empty"]),
        ([[w[0], w[3]], [w[1], w[4]], [w[2], AncillaBlock(9, 20, 21)]],
         ["generator 9 is scheduled but not requested"]),
        ([[w[0], w[3], AncillaBlock(-1, 10, 11), AncillaBlock(2**62, 12, 12)], [w[1], w[4]], [w[2]]],
         ["generator -1 is scheduled but not requested",
          "generator 4611686018427387904 is scheduled but not requested"]),
        ([[w[0], w[3]], [w[1], w[4]], [AncillaBlock(4, 3, 6)]],
         ["scheduled blocks do not match the requested intervals"]),
        ([[w[0], w[3]], [w[1], w[4]], [w[2]], [w[0]]],
         ["scheduled blocks do not match the requested intervals"]),
        # as many blocks as requested, one of them twice
        ([[w[0], w[3]], [w[1], w[4]], [w[0]]], ["generator 4 is missing from the schedule"]),
        # a generator not requested, in range or not, with a requested block's interval
        ([[AncillaBlock(2, 0, 2), w[3]], [w[1], w[4]], [w[2]]],
         ["generator 1 is missing from the schedule", "generator 2 is scheduled but not requested"]),
        ([[AncillaBlock(-1, 0, 2), w[3]], [w[1], w[4]], [w[2]]],
         ["generator 1 is missing from the schedule", "generator -1 is scheduled but not requested"]),
        ([[w[3], w[0], w[2]], [w[4], w[1]]],  # overlap in a round listed out of order
         ["round 0: blocks for generators 4 and 6 overlap at position 5"]),
        ([[w[0], w[1], w[4]], [w[2]], [w[3]]],
         ["round 0: blocks for generators 1 and 3 overlap at position 2"]),
        ([[], [w[0], w[3]], [w[1], w[4]], [], [w[2]], []],
         ["round 0 is empty", "round 3 is empty", "round 5 is empty"]),
    ]
    for rounds, want in cases:
        assert validate_schedule(schedule_of(rounds), column_blocks(w)).violations == want


@st.composite
def forged_schedules(draw):
    """Requested blocks with distinct generators, and rounds listing them in
    any order, cut anywhere (repeated cuts give empty rounds), after up to
    two edits: a block dropped, repeated, widened or given a generator not
    requested, or a foreign block added; foreign generators may be out of
    range."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 4)), max_size=12))
    gens = draw(st.permutations(range(len(pairs))))
    want = [AncillaBlock(gen, l, l + w) for gen, (l, w) in zip(gens, pairs)]
    listed = list(draw(st.permutations(want)))
    stranger = st.sampled_from([-3, -1, 12, 50, 2**40])
    foreign = st.builds(AncillaBlock, stranger, st.integers(0, 12), st.integers(0, 16))
    for edit in draw(st.lists(st.sampled_from(["drop", "repeat", "widen", "rename", "foreign"]), max_size=2)):
        if edit == "foreign" or not listed:
            listed.insert(draw(st.integers(0, len(listed))), draw(foreign))
            continue
        i = draw(st.integers(0, len(listed) - 1))
        if edit == "drop":
            listed.pop(i)
        elif edit == "repeat":
            listed.insert(draw(st.integers(0, len(listed))), listed[i])
        elif edit == "rename":
            listed[i] = listed[i]._replace(gen=draw(stranger))
        else:
            listed[i] = listed[i]._replace(R=listed[i].R + 1)
    bounds = [0, *sorted(draw(st.lists(st.integers(0, len(listed)), max_size=5))), len(listed)]
    return want, [listed[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=400, deadline=None)
@given(forged_schedules())
@example(([AncillaBlock(0, 0, 0), AncillaBlock(1, 1, 2)],  # a foreign block with L > R, listed first
          [[AncillaBlock(-3, 2, 0), AncillaBlock(1, 1, 2)], [AncillaBlock(0, 0, 0), AncillaBlock(0, 0, 0)]]))
def test_validate_schedule_matches_loop_reference(case):
    """The array check reports what the loop over block tuples reports, in
    the same words and order."""
    want, rounds = case
    got = validate_schedule(schedule_of(rounds), column_blocks(want)).violations
    assert got == reference_schedule_violations(rounds, want)


def test_validate_walks_rounds_only_when_one_fails(monkeypatch):
    """Rounds listed left to right and disjoint, as both schedulers list
    them, are checked by the array compare alone, also where the last block
    of a round overlaps the first of the next; only a failing round is
    walked."""
    blocks = blocks_of([(0, 3), (2, 5), (4, 7), (6, 9), (8, 9)])
    good = schedule_first_fit(blocks)
    assert good.tocks == 2
    rounds = good.rounds
    monkeypatch.setattr(Schedule, "rounds", property(lambda self: pytest.fail("rounds walked")))
    assert validate_schedule(good, blocks).ok
    monkeypatch.undo()
    bad = schedule_of([rounds[0] + rounds[1][:1], rounds[1][1:]])
    assert validate_schedule(bad, blocks).violations == [
        "round 0: blocks for generators 0 and 1 overlap at position 2",
        "round 0: blocks for generators 1 and 2 overlap at position 4",
    ]


def test_validate_overlap_at_shared_position():
    # listed in L order (the order the check reads without sorting) and in reverse
    for pairs, position in (([(1, 4), (4, 6)], 4), ([(0, 5), (3, 8)], 3)):
        blocks = blocks_of(pairs)
        for rnd in (list(blocks), list(blocks)[::-1]):
            report = validate_schedule(schedule_of([rnd]), blocks)
            assert not report.ok
            assert len(report.violations) == 1
            assert f"overlap at position {position}" in report.violations[0]
    # a disjoint round listed right to left is not a violation
    blocks = blocks_of([(7, 9), (4, 5), (0, 2)])
    assert validate_schedule(schedule_of([list(blocks)]), blocks).ok


def test_lower_bound_values():
    assert depth_lower_bound(blocks_of([])) == 0
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
    blocks = column_blocks(blocks)
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

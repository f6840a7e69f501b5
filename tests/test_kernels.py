"""The array kernels against their pure-Python references in ``reference``:
same values, same witness, same messages."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsc.graph import (
    GraphFormatError,
    _below,
    _pairs_from_ranks,
    _sample,
    _shuffled,
    _tree_from_pruefer,
    _words,
    from_edge_list,
)
from gsc.mapping import Mapping, basic_mapping
from gsc.scheduler import AncillaBlock, build_blocks, depth_lower_bound
from gsc.stabilizer import greedy_maximal_independent_set, reduce_generators

from reference import (
    adjacency,
    column_blocks,
    csr,
    reference_adjacency,
    reference_build_blocks,
    reference_depth_lower_bound,
    reference_greedy_mis,
    reference_pair_from_index,
    reference_random_mapping,
    reference_reduce_generators,
    reference_tree_from_pruefer,
)


def outcome(f, *args):
    """A call's value, or the type and message of the error it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def raw_pairs(draw, lo=-2, extra=2):
    """n and a pair list that may leave rows empty, repeat or reverse pairs,
    and hold self-loops and ends out of range."""
    n = draw(st.integers(1, 12))
    ends = st.integers(lo, n - 1 + extra)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=30))
    if draw(st.booleans()):
        pairs += [(b, a) for a, b in pairs] + pairs[:3]
    return n, pairs


@st.composite
def graphs(draw):
    """A valid graph, with duplicated and reversed pairs and possibly
    degree-0 rows."""
    n, pairs = draw(raw_pairs(lo=0, extra=0))
    return from_edge_list(n, [(a, b) for a, b in pairs if a != b])


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
@example((1, []))
@example((2, [(0, 1), (1, 0), (0, 1)]))
@example((3, [(0, 1), (2, 2), (0, 5)]))  # the self-loop comes first
@example((3, [(0, 1), (0, 5), (2, 2)]))
@example((2, [(1, -1)]))
def test_from_edge_list_matches_reference(case):
    n, pairs = case
    try:
        want = reference_adjacency(n, pairs)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            from_edge_list(n, pairs)
        assert str(got.value) == str(exc)
        return
    g = from_edge_list(n, pairs)
    assert adjacency(g) == want
    assert csr(g) == csr(from_edge_list(n, np.array(pairs, dtype=np.int64).reshape(-1, 2)))


def test_from_edge_list_reports_ends_beyond_int64_and_bad_shapes():
    for pairs, message in (([(0, 1), (0, 2**70)], "out of range"), ([(0, 2**63), (1, 1)], "out of range"),
                           ([(1, 1), (0, 2**63)], "self-loop at vertex 1"), ([(0, 1.5)], "integers"),
                           ([(0, 1), (1,)], "pairs"), ([(0, 1, 2)], "pairs"), ([[]], "pairs")):
        with pytest.raises(GraphFormatError, match=message):
            from_edge_list(3, pairs)


def test_pairs_from_ranks_every_rank_small():
    for n in range(2, 61):
        ranks = np.arange(n * (n - 1) // 2)
        want = [reference_pair_from_index(k, n) for k in ranks.tolist()]
        assert list(map(tuple, _pairs_from_ranks(ranks, n).tolist())) == want


def test_pairs_from_ranks_random_at_a_million():
    n = 10**6
    total = n * (n - 1) // 2
    rng = random.Random(5)
    ranks = [0, 1, n - 2, n - 1, total - 2, total - 1] + [rng.randrange(total) for _ in range(20_000)]
    got = _pairs_from_ranks(np.array(ranks, dtype=np.int64), n).tolist()
    assert list(map(tuple, got)) == [reference_pair_from_index(k, n) for k in ranks]


def pool_branch(n: int, k: int) -> bool:
    """Whether CPython's ``sample(range(n), k)`` keeps a pool (a partial
    Fisher-Yates shuffle) rather than a set of the values taken."""
    return n <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


# bounds at and just above powers of two, where a draw's bit count changes,
# and above 2**32, where a draw takes two words
BOUNDS = st.one_of(
    st.integers(1, 5000),
    st.integers(0, 62).flatmap(lambda j: st.sampled_from((2**j, 2**j + 1))),
    st.integers(2**32, 2**62),
)


@settings(max_examples=150, deadline=None)
@given(BOUNDS, st.integers(0, 300), st.integers(0, 2**32))
@example(1, 5, 0)
@example(2**32, 5, 1)
@example(2**32 + 1, 5, 1)
def test_bulk_draws_equal_cpython_draws(n, count, seed):
    """The bulk draws are CPython's own, and leave rng where CPython's calls
    would: the next ``random()`` agrees too."""
    ours, theirs = random.Random(seed), random.Random(seed)
    assert list(_words(ours, count)) == [theirs.getrandbits(32) for _ in range(count)]
    assert _below(ours, n, count) == [theirs.randrange(n) for _ in range(count)]
    assert ours.random() == theirs.random()


@st.composite
def sample_args(draw):
    n = draw(BOUNDS.filter(lambda n: n < 2**63))  # CPython's sample takes len() of the range
    return n, draw(st.integers(0, min(n, 3000)))


@settings(max_examples=150, deadline=None)
@given(sample_args(), st.integers(0, 2**32))
@example((1, 0), 0)
@example((1, 1), 0)
@example((190, 190), 3)  # k = n: the pool runs down to size 1
@example((190, 50), 3)
@example((4950, 248), 3)  # the set branch, drawing again on repeats
@example((2**32 + 1, 40), 3)  # two words a draw
def test_sample_equals_cpython_sample(args, seed):
    n, k = args
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _sample(ours, n, k) == theirs.sample(range(n), k)
    assert ours.random() == theirs.random()


def test_sample_examples_take_both_branches():
    """The pool and the set branch, each at both ends of its range of k and
    on both sides of the size where CPython switches."""
    assert pool_branch(1, 1) and pool_branch(190, 50) and pool_branch(190, 190)
    assert pool_branch(21, 5) and not pool_branch(22, 5) and pool_branch(277, 22) and not pool_branch(278, 22)
    assert not pool_branch(4950, 248) and not pool_branch(2**32 + 1, 40)
    # at the switch the two branches often agree on one seed, so take twenty
    cases = [(n, k, seed) for n, k in ((21, 5), (22, 5), (277, 22), (278, 22)) for seed in range(20)]
    for n, k, seed in cases + [(4096, 1024, 1), (4097, 1025, 1), (499500, 100000, 1), (4498500, 12000, 1)]:
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _sample(ours, n, k) == theirs.sample(range(n), k)
        assert ours.random() == theirs.random()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1),
                                                                            min_size=n - 2, max_size=n - 2))))
def test_linear_pruefer_decode_equals_heap_decode(case):
    n, seq = case
    got = {tuple(sorted(e)) for e in _tree_from_pruefer(list(seq), n).tolist()}
    assert sorted(got) == sorted(reference_tree_from_pruefer(seq, n))
    assert len(got) == n - 1


@settings(max_examples=300, deadline=None)
@given(graphs(), st.randoms(use_true_random=False), st.sampled_from((None, 0, 1)), st.booleans())
@example(from_edge_list(1, []), random.Random(0), 0, False)
@example(from_edge_list(2, []), random.Random(0), 0, False)
@example(from_edge_list(3, []), random.Random(0), 0, True)
@example(from_edge_list(3, []), random.Random(0), 1, False)
@example(from_edge_list(20, []), random.Random(0), 1, False)
def test_build_blocks_matches_reference(g, rnd, missing, out_of_range):
    """``missing`` replaces the graph by the complete graph on its vertices
    less that many edges: with none left out, its rows are not read."""
    if missing is not None:
        pairs = [(a, b) for a in range(g.n) for b in range(a)]
        g = from_edge_list(g.n, pairs[missing:])
    perm = list(range(g.n))
    rnd.shuffle(perm)
    mapping = Mapping(pos=tuple(perm))
    measured = [v for v in range(g.n) if rnd.random() < 0.6]
    rnd.shuffle(measured)
    if out_of_range:
        measured.insert(rnd.randrange(len(measured) + 1), rnd.choice([-1, g.n, g.n + 3]))
    listed = lambda *args: list(build_blocks(*args))
    assert outcome(listed, g, measured, mapping) == outcome(reference_build_blocks, g, measured, mapping)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_reduce_generators_matches_reference(g, rnd):
    mis = set(greedy_maximal_independent_set(g))
    candidates = [
        mis,
        {v for v in range(g.n) if rnd.random() < 0.4},
        mis - {rnd.randrange(g.n)},
        mis | {rnd.randrange(g.n)},
        mis | {rnd.choice([-1, g.n, 2**70])},
    ]
    for s in map(frozenset, candidates):
        want = outcome(reference_reduce_generators, g, s)
        got = outcome(reduce_generators, g, s)
        assert got == want if want is not None else got.independent_set == s


@st.composite
def graphs_with_leaves(draw):
    """A graph from ``graphs`` with isolated vertices, two-vertex components
    and pendant leaves added, its vertices relabelled at random, so a leaf's
    neighbour may come before or after it."""
    g = draw(graphs())
    pairs = g.sorted_edges()
    pendants = draw(st.lists(st.integers(0, g.n - 1), max_size=5))
    components = draw(st.integers(0, 3))
    first = g.n + draw(st.integers(0, 3))  # the vertices in between are isolated
    pairs += [(first + 2 * i, first + 2 * i + 1) for i in range(components)]
    first += 2 * components
    pairs += [(v, first + i) for i, v in enumerate(pendants)]
    n = first + len(pendants)
    label = draw(st.permutations(range(n)))
    return from_edge_list(n, [(label[a], label[b]) for a, b in pairs])


@settings(max_examples=300, deadline=None)
@given(graphs_with_leaves())
@example(from_edge_list(1, []))
@example(from_edge_list(2, [(0, 1)]))
@example(from_edge_list(5, [(3, 1), (0, 4)]))  # two K2 components and an isolated vertex
@example(from_edge_list(4, [(0, 3), (1, 3), (2, 3)]))
def test_greedy_mis_matches_reference(g):
    assert greedy_maximal_independent_set(g) == reference_greedy_mis(g)


# the swap bounds at and just above powers of two, where a draw's bit count changes
SHUFFLE_SIZES = [1, 2, 3, *(size for j in range(1, 13) for size in (2**j, 2**j + 1)), 5000]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(1, 5000), st.sampled_from(SHUFFLE_SIZES)), st.integers(0, 2**32))
@example(1, 0)
@example(2, 0)
def test_shuffled_equals_cpython_shuffle(n, seed):
    """The bulk shuffle is CPython's own, and leaves rng where ``shuffle``
    would: the next ``random()`` agrees too."""
    ours, theirs = random.Random(seed), random.Random(seed)
    perm = list(range(n))
    theirs.shuffle(perm)
    assert _shuffled(ours, n) == perm
    assert ours.random() == theirs.random()


def test_random_mapping_equals_reference():
    for n in SHUFFLE_SIZES:
        g = from_edge_list(n, [])
        for seed in (0, 1, 7919):
            assert basic_mapping(g, "random", seed).pos.tolist() == reference_random_mapping(n, seed), (n, seed)


block_lists = st.lists(
    st.tuples(st.integers(0, 15), st.integers(-3, 30), st.integers(-3, 30)).map(lambda t: AncillaBlock(*t)),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(block_lists)
@example([])
@example([AncillaBlock(0, 5, 2)])  # L > R
def test_depth_lower_bound_matches_reference(blocks):
    assert depth_lower_bound(column_blocks(blocks)) == reference_depth_lower_bound(blocks)

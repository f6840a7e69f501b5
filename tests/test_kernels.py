"""The array kernels against their pure-Python references in ``reference``:
same values, same witness, same messages."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsc.graph import GraphFormatError, _pairs_from_ranks, from_edge_list
from gsc.mapping import Mapping
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
    reference_reduce_generators,
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


@settings(max_examples=200, deadline=None)
@given(graphs(), st.randoms(use_true_random=False), st.booleans())
def test_build_blocks_matches_reference(g, rnd, out_of_range):
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


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_greedy_mis_matches_reference(g):
    assert greedy_maximal_independent_set(g) == reference_greedy_mis(g)


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

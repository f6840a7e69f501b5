import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsc.compiler import CompilationResult
from gsc.graph import from_edge_list, generate
from gsc.mapping import Mapping
from gsc.scheduler import Schedule
from gsc.stabilizer import (
    PLUS,
    ZERO,
    ReductionPlan,
    greedy_maximal_independent_set,
    reduce_generators,
)
from gsc.verify import stabilizer_generators

from reference import neighbors, row_strings


def P3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def json_round_trip(plan):
    """The plan as read back from the JSON of a result that holds it."""
    result = CompilationResult(plan=plan, mapping=Mapping(pos=tuple(range(plan.n))), schedule=Schedule(rounds=()))
    return CompilationResult.from_json_dict(json.loads(result.to_json_text())).plan


def generator_strings(g):
    return row_strings(stabilizer_generators(g))


def test_generators_p3():
    assert generator_strings(P3()) == ["+XZI", "+ZXZ", "+IZX"]


def test_generators_single_vertex_and_star():
    assert generator_strings(generate("path", 1)) == ["+X"]
    assert generator_strings(generate("star", 3)) == ["+XZZ", "+ZXI", "+ZIX"]


def is_independent(g, s):
    return all(w not in s for v in s for w in neighbors(g, v))


def is_maximal(g, s):
    return all(v in s or any(w in s for w in neighbors(g, v)) for v in range(g.n))


def test_mis_examples():
    assert greedy_maximal_independent_set(P3()) == {0, 2}
    star = generate("star", 5)
    assert greedy_maximal_independent_set(star) == {1, 2, 3, 4}
    k4 = generate("complete", 4)
    mis = greedy_maximal_independent_set(k4)
    assert len(mis) == 1


def test_mis_seeded_random_deterministic():
    g = generate("gnm", 30, m=60, seed=4)
    a = greedy_maximal_independent_set(g, order="seeded_random", seed=7)
    b = greedy_maximal_independent_set(g, order="seeded_random", seed=7)
    assert a == b
    assert is_independent(g, a) and is_maximal(g, a)


def test_mis_independence_maximality_1000_seeds():
    # sweep of small random graphs; both orders must always yield a
    # maximal independent set
    for seed in range(1000):
        n = 2 + seed % 23
        total = n * (n - 1) // 2
        m = n - 1 + seed % (total - n + 2)
        g = generate("gnm", n, m=m, seed=seed)
        order = "degree_ascending" if seed % 2 == 0 else "seeded_random"
        s = greedy_maximal_independent_set(g, order=order, seed=seed)
        assert 1 <= len(s) <= n
        assert is_independent(g, s), (seed, sorted(s))
        assert is_maximal(g, s), (seed, sorted(s))


def test_reduce_p3():
    g = P3()
    plan = reduce_generators(g, frozenset({0, 2}))
    assert plan.init_string == "+0+" == PLUS + ZERO + PLUS
    assert plan.measured == (1,)


def test_reduce_star_and_complete():
    star = generate("star", 5)
    plan = reduce_generators(star, frozenset({1, 2, 3, 4}))
    assert plan.measured == (0,)
    k4 = generate("complete", 4)
    plan = reduce_generators(k4, frozenset({0}))
    assert plan.measured == (1, 2, 3)


def test_reduce_rejects_bad_sets():
    g = P3()
    with pytest.raises(ValueError, match="not independent.*0 and 1"):
        reduce_generators(g, frozenset({0, 1}))
    with pytest.raises(ValueError, match="not maximal.*vertex 2"):
        reduce_generators(g, frozenset({0}))
    with pytest.raises(ValueError, match="out of range"):
        reduce_generators(g, frozenset({5}))


def test_initial_state_stabilized_symbolically():
    # X acts on the |+> member; every Z factor lands on a |0> neighbor, so
    # each independent-set generator fixes the initial product state
    for seed in range(30):
        n = 3 + seed % 10
        g = generate("gnm", n, m=min(n * (n - 1) // 2, n + seed % 5), seed=seed)
        s = greedy_maximal_independent_set(g)
        plan = reduce_generators(g, s)
        for v in s:
            assert plan.init_string[v] == PLUS
            assert all(plan.init_string[w] == ZERO for w in neighbors(g, v))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 20), st.integers(0, 10_000))
def test_measured_complement_property(n, seed):
    total = n * (n - 1) // 2
    g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
    s = greedy_maximal_independent_set(g)
    plan = reduce_generators(g, s)
    assert len(plan.measured) == n - len(s)
    assert set(plan.measured) | set(s) == set(range(n))
    assert list(plan.measured) == sorted(plan.measured)


def test_plan_json_round_trip():
    g = generate("gnm", 9, m=14, seed=2)
    plan = reduce_generators(g, greedy_maximal_independent_set(g))
    assert json_round_trip(plan) == plan


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 25),
    st.integers(0, 10_000),
    st.sampled_from(("degree_ascending", "seeded_random")),
)
def test_plan_is_derived_from_its_set(n, seed, order):
    total = n * (n - 1) // 2
    g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
    s = greedy_maximal_independent_set(g, order=order, seed=seed)
    plan = reduce_generators(g, s)
    assert plan == ReductionPlan(n, s)
    assert plan.measured == tuple(sorted(set(range(n)) - s))
    assert [v for v, basis in enumerate(plan.init_string) if basis == PLUS] == sorted(s)
    assert set(plan.init_string) <= {PLUS, ZERO} and len(plan.init_string) == n
    assert json_round_trip(plan) == plan

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsc.compiler import VerificationError, _check
from gsc.graph import from_edge_list, generate
from gsc.mapping import basic_mapping, mincut_mapping
from gsc.scheduler import AncillaBlock, Schedule, build_blocks, schedule_first_fit, schedule_sweep
from gsc.stabilizer import ReductionPlan, greedy_maximal_independent_set, reduce_generators
from gsc.verify import (
    _group_mismatch,
    _is_graph_state,
    product_row,
    replay,
    stabilizer_generators,
    tableau_init,
    verify_compilation,
)

from reference import (
    check_tableau,
    column_blocks,
    neighbors,
    oracle_min_cut,
    oracle_min_rounds,
    project_generator,
    reference_phase_of_product,
    reference_replay,
    reference_verify,
    row_strings,
    schedule_of,
)


def P3():
    return from_edge_list(3, [(0, 1), (1, 2)])


def word_row(letters: str, phase: int = 0):
    """Packed (x, z, phase) row of a Pauli word; bit q is letter q."""
    x = sum(1 << q for q, c in enumerate(letters) if c in "XY")
    z = sum(1 << q for q, c in enumerate(letters) if c in "YZ")
    return x, z, phase


def p3_plan():
    return reduce_generators(P3(), frozenset({0, 2}))


def test_tableau_init_p3():
    t = tableau_init(p3_plan())
    assert row_strings(t) == ["+XII", "+IZI", "+IIX"]
    check_tableau(t)


def test_tableau_init_all_plus():
    plan = ReductionPlan(3, frozenset({0, 1, 2}))
    assert row_strings(tableau_init(plan)) == ["+XII", "+IXI", "+IIX"]


def test_tableau_init_single_vertex():
    g = generate("path", 1)
    plan = reduce_generators(g, frozenset({0}))
    assert row_strings(tableau_init(plan)) == ["+X"]


def test_project_p3_reaches_target_group():
    t = tableau_init(p3_plan())
    assert project_generator(t, word_row("ZXZ")) is None
    check_tableau(t)
    assert _group_mismatch(t, stabilizer_generators(P3())) is None


def test_project_idempotent_when_determined():
    # X0 is a row, so its outcome is determined: the projection refuses it
    # and leaves the rows as they were
    t = tableau_init(p3_plan())
    before = list(t)
    with pytest.raises(ValueError, match="already determined"):
        project_generator(t, word_row("XII"))
    assert t == before


def test_project_basis_flip():
    plan = ReductionPlan(1, frozenset({0}))
    t = tableau_init(plan)
    assert project_generator(t, word_row("Z")) is None
    assert row_strings(t) == ["+Z"]


def test_dependent_rows_are_reported_and_rejected():
    # two equal rows span one dimension: no full-rank group
    t = [(0, 1, 0), (0, 1, 0)]
    assert _group_mismatch(t, []) == "tableau rows are GF(2)-dependent"


def test_single_qubit_anticommutation_phase():
    # X then Z on one qubit: XZ = -ZX; the phase bookkeeping must see it
    from gsc.verify import _phase_of_product

    x, _, _ = word_row("X")
    _, z, _ = word_row("Z")
    forward = _phase_of_product(x, 0 * x, 0 * x, z)
    backward = _phase_of_product(0 * x, z, x, 0 * x)
    assert (forward - backward) % 4 == 2

    # every ordered single-qubit pair and one mixed 3-qubit pair against the
    # dense product W(a) W(b) = i^k W(c), with k and c found by search
    pairs = [(a, b) for a in "IXYZ" for b in "IXYZ"] + [("XZY", "YXX")]
    for a, b in pairs:
        n = len(a)
        product = dense_word(a) @ dense_word(b)
        found = [
            (k, c)
            for c in ("".join(w) for w in itertools.product("IXYZ", repeat=n))
            for k in range(4)
            if np.allclose(product, 1j**k * dense_word(c))
        ]
        assert len(found) == 1, (a, b)
        k, c = found[0]
        (xa, za, _), (xb, zb, _) = word_row(a), word_row(b)
        assert word_row(c) == (xa ^ xb, za ^ zb, 0)
        assert _phase_of_product(xa, za, xb, zb) == k, (a, b)


def test_phase_of_product_matches_per_qubit_reference():
    from gsc.verify import _phase_of_product

    rng = random.Random(3)
    for _ in range(3000):
        n = rng.randrange(1, 70)
        words = [rng.getrandbits(n) for _ in range(4)]
        assert _phase_of_product(*words) == reference_phase_of_product(*words), words


def test_groups_equal_sign_sensitivity():
    plan_x = ReductionPlan(1, frozenset({0}))
    t = tableau_init(plan_x)
    assert _group_mismatch(t, [word_row("X")]) is None
    assert _group_mismatch(t, [word_row("Z")]) == "generator g0 not in final group"
    assert _group_mismatch(t, [word_row("X", phase=2)]) == "generator g0 has sign +1 in final group"


def test_groups_equal_presentation_invariance():
    # row-permuted and row-multiplied presentations generate the same group
    g = generate("gnm", 6, m=9, seed=3)
    gens = stabilizer_generators(g)
    plan = reduce_generators(g, greedy_maximal_independent_set(g))
    schedule = schedule_sweep(build_blocks(g, plan.measured, basic_mapping(g, "natural")))
    t = tableau_init(plan)
    for rnd in schedule.rounds:
        for b in rnd:
            project_generator(t, gens[b.gen])
    permuted = list(reversed(gens))
    assert _group_mismatch(t, permuted) is None


def test_verify_compilation_p3_pipeline():
    g = P3()
    plan = p3_plan()
    schedule = schedule_sweep(build_blocks(g, plan.measured, basic_mapping(g, "natural")))
    report = verify_compilation(g, plan, schedule)
    assert report.ok
    assert report.checked_generators == 1
    assert report.failure is None


def test_verify_compilation_star50_single_projection():
    g = generate("star", 50)
    plan = reduce_generators(g, greedy_maximal_independent_set(g))
    schedule = schedule_sweep(build_blocks(g, plan.measured, basic_mapping(g, "natural")))
    report = verify_compilation(g, plan, schedule)
    assert report.ok and report.checked_generators == 1


def test_verify_compilation_coverage_mismatch():
    g = P3()
    plan = p3_plan()
    with pytest.raises(ValueError, match="missing"):
        verify_compilation(g, plan, schedule_of([]))


def test_verify_compilation_detects_omitted_generator():
    # a plan whose set holds an edge leaves g0 and g1 unmeasured although
    # neither stabilizes the initial state: every scheduled projection runs,
    # but the final group lacks g0 and the report names it
    g = generate("complete", 4)
    plan = ReductionPlan(4, frozenset({0, 1}))
    blocks = build_blocks(g, plan.measured, basic_mapping(g, "natural"))
    report = verify_compilation(g, plan, schedule_sweep(blocks))
    assert not report.ok
    assert report.failure == "generator g0 not in final group"


def test_verify_detects_wrong_projection():
    # projecting the wrong word must not fake the target state
    g = P3()
    plan = p3_plan()
    t = tableau_init(plan)
    project_generator(t, word_row("ZZZ"))
    assert _group_mismatch(t, stabilizer_generators(g)) is not None


def test_projection_order_independence():
    g = generate("gnm", 8, m=14, seed=9)
    gens = stabilizer_generators(g)
    plan = reduce_generators(g, greedy_maximal_independent_set(g))
    rng = random.Random(4)
    orders = [plan.measured.tolist()]
    for _ in range(4):
        shuffled = plan.measured.tolist()
        rng.shuffle(shuffled)
        orders.append(shuffled)
    finals = []
    for order in orders:
        t = replay(plan, order, gens)
        check_tableau(t)
        finals.append(t)
    for t in finals:
        assert _group_mismatch(t, gens) is None


def test_tableau_invariants_after_each_projection():
    g = generate("gnm", 9, m=16, seed=1)
    gens = stabilizer_generators(g)
    plan = reduce_generators(g, greedy_maximal_independent_set(g))
    order = plan.measured.tolist()
    for k in range(len(order) + 1):
        check_tableau(replay(plan, order[:k], gens))


def test_replay_refuses_a_repeated_generator():
    # once projected, g_w is a row, so it commutes with every row
    g = P3()
    gens = stabilizer_generators(g)
    with pytest.raises(ValueError, match="already determined"):
        replay(p3_plan(), [1, 1], gens)
    with pytest.raises(ValueError, match="already determined"):
        replay(p3_plan(), [0], gens)  # X0 is a row of the initial tableau
    with pytest.raises(ValueError, match="already determined"):
        replay(ReductionPlan(3, frozenset({1})), [0, 0], gens)  # Z0's row became g0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32))
def test_replay_matches_row_scan_reference(n, seed):
    """The column-mask replay ends on the rows of the row-scan replay, bit
    for bit, and ``verify_compilation`` reports what the echelon check of
    those rows reports, for any vertex set, independent or not, and any
    order of its complement; on every prefix of that order the graph-state
    check and the echelon check agree."""
    rnd = random.Random(seed)
    g = generate("gnm", n, m=rnd.randint(n - 1, n * (n - 1) // 2), seed=seed)
    gens = stabilizer_generators(g)
    plan = ReductionPlan(n, frozenset(v for v in range(n) if rnd.random() < 0.5))
    order = plan.measured.tolist()
    rnd.shuffle(order)
    schedule = column_blocks([(w, 0, 0) for w in order])
    rows, report = reference_verify(g, plan, schedule)
    assert replay(plan, order, gens) == rows
    assert verify_compilation(g, plan, schedule) == report
    for k in range(len(order) + 1):
        part = replay(plan, order[:k], gens)
        assert part == reference_replay(plan, gens, order[:k])
        assert _is_graph_state(part, gens) == (_group_mismatch(part, gens) is None)


def test_replay_matches_row_scan_reference_on_any_order():
    """Any order of distinct vertices, members of the set included: the
    replay either ends on the reference's rows or, as the reference does,
    refuses a projection whose outcome is determined. Every reference row
    that is not a generator has X only on the set, Z only off it and sign
    +1, which lets the replay multiply rows without a phase."""
    rnd = random.Random(11)
    for trial in range(300):
        n = rnd.randint(1, 12)
        g = generate("gnm", n, m=rnd.randint(n - 1, n * (n - 1) // 2), seed=trial)
        gens = stabilizer_generators(g)
        plan = ReductionPlan(n, frozenset(v for v in range(n) if rnd.random() < 0.4))
        order = rnd.sample(range(n), rnd.randint(0, n))
        try:
            want = reference_replay(plan, gens, order)
        except ValueError:
            with pytest.raises(ValueError, match="already determined"):
                replay(plan, order, gens)
        else:
            assert replay(plan, order, gens) == want, trial
            inside = sum(1 << v for v in plan.independent_set)
            assert all(row in gens or not (row[0] & ~inside or row[1] & inside or row[2]) for row in want), trial


def test_graph_state_check_matches_echelon_on_forged_groups():
    """Tableaux of commuting rows drawn from the graph state's group, each
    the product of the generators over a random vertex set, some with the
    sign flipped and some sets repeated or combined: the graph-state check
    passes exactly when the echelon check names no generator."""
    from gsc.verify import _product

    rng = random.Random(8)
    failures = set()
    for trial in range(400):
        n = rng.randint(1, 10)
        g = generate("gnm", n, m=rng.randint(n - 1, n * (n - 1) // 2), seed=trial)
        gens = stabilizer_generators(g)
        sets = [1 << v for v in range(n)]
        rng.shuffle(sets)
        for _ in range(rng.randint(0, 2 * n)):  # row operations keep the span
            a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if a != b:
                sets[a] ^= sets[b]
        if rng.random() < 0.3:  # a repeated or combined set makes the rows dependent
            a, b = rng.randrange(n), rng.randrange(n)
            sets[a] = sets[b] ^ (sets[rng.randrange(n)] if rng.random() < 0.5 else 0)
        rows = []
        for s in sets:
            row = (0, 0, 0)
            for v in range(n):
                if s >> v & 1:
                    row = _product(row, gens[v])
            rows.append((row[0], row[1], row[2] ^ 2) if rng.random() < 0.1 else row)
        failure = _group_mismatch(rows, gens)
        assert _is_graph_state(rows, gens) == (failure is None), trial
        failures.add(failure and failure.split()[-1])
    assert failures == {None, "GF(2)-dependent", "group"}  # "group": a sign is wrong


def test_product_row_matches_dense_products():
    """For every vertex set S of graphs on at most 6 vertices, ``product_row``
    is the product of the dense matrices of the g_v over v in S, phase
    included, and the product of their rows by ``_product``."""
    rng = random.Random(6)
    graphs = [generate("complete", 1), generate("path", 2), P3(), generate("star", 4), generate("complete", 4)]
    graphs += [generate("gnm", n, m=rng.randint(n - 1, n * (n - 1) // 2), seed=n) for n in (4, 5, 5, 6, 6)]
    from gsc.verify import _product

    for g in graphs:
        gens = stabilizer_generators(g)
        nbr = [z for _, z, _ in gens]
        words = [dense_word(w) for w in row_strings(gens)]
        for s in range(1 << g.n):
            x, z, phase = product_row(nbr, s)
            members = [v for v in range(g.n) if s >> v & 1]
            dense = np.eye(1 << g.n)
            chained = (0, 0, 0)
            for v in members:
                dense = dense @ words[v]
                chained = _product(chained, gens[v])
            assert (x, z, phase) == chained, (g.n, s)
            letters = "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(g.n))
            assert np.allclose(dense, 1j**phase * dense_word(letters)), (g.n, s)


def test_verify_small_grid_all_mappers_schedulers():
    mappers = ["natural", "random", "mincut"]
    schedulers = [schedule_sweep, schedule_first_fit]
    for seed in range(10):
        n = 2 + seed
        total = n * (n - 1) // 2
        g = generate("gnm", n, m=n - 1 + seed % (total - n + 2), seed=seed)
        plan = reduce_generators(g, greedy_maximal_independent_set(g))
        for mapper in mappers:
            mapping = (
                mincut_mapping(g, seed=seed)
                if mapper == "mincut"
                else basic_mapping(g, mapper, seed=seed)
            )
            blocks = build_blocks(g, plan.measured, mapping)
            for fn in schedulers:
                assert verify_compilation(g, plan, fn(blocks)).ok


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.integers(0, 2**32))
def test_certificate_is_sound(n, seed):
    """Any set, with its complement's blocks split into rounds in any order,
    reaches the graph state on the tableau exactly when it is independent,
    maximal or not: the certificate in ``_check`` needs neither maximality
    nor disjoint rounds. A dependent set leaves out of the final group, in
    every sign, the generator of each member with a neighbour in the set
    (see ``verify_compilation``); the report names the first."""
    rnd = random.Random(seed)
    g = generate("gnm", n, m=rnd.randint(n - 1, n * (n - 1) // 2), seed=seed)
    chosen = {v for v in range(n) if rnd.random() < 0.5}
    inner = [v for v in sorted(chosen) if chosen.intersection(neighbors(g, v))]
    plan = ReductionPlan(n, frozenset(chosen))
    blocks = list(build_blocks(g, plan.measured, basic_mapping(g, "random", seed=seed)))
    rnd.shuffle(blocks)
    k = len(blocks)
    bounds = [0, *sorted(rnd.sample(range(1, k), rnd.randint(0, k - 1))), k] if k else [0]
    schedule = schedule_of([blocks[a:b] for a, b in zip(bounds, bounds[1:])])
    report = verify_compilation(g, plan, schedule)
    assert report.ok == (not inner)
    assert report.failure == (f"generator g{inner[0]} not in final group" if inner else None)


def certified(g, independent, schedule, mapping) -> bool:
    """The certificate every compile runs: ``reduce_generators`` accepts the
    set and ``_check``, without the tableau, accepts the schedule."""
    try:
        plan = reduce_generators(g, independent)
        _check(g, plan, schedule, build_blocks(g, plan.measured, mapping), tableau=False)
    except (ValueError, VerificationError):
        return False
    return True


def tableau_accepts(g, independent, schedule) -> bool:
    try:
        return verify_compilation(g, ReductionPlan(g.n, independent), schedule).ok
    except ValueError:  # the schedule does not cover the plan
        return False


def first_fit(g, independent, mapping) -> Schedule:
    return schedule_first_fit(build_blocks(g, ReductionPlan(g.n, independent).measured, mapping))


def with_inner_edge(g, rnd, independent, mapping):
    # every vertex outside a maximal set has a neighbour inside it
    v = rnd.choice(sorted(set(range(g.n)) - independent))
    return independent | {v}, first_fit(g, independent | {v}, mapping)


def with_dropped_block(g, rnd, independent, mapping):
    schedule = first_fit(g, independent, mapping)
    victim = rnd.choice(list(schedule))
    rounds = ([b for b in r if b != victim] for r in schedule.rounds)
    return independent, schedule_of([r for r in rounds if r])


def with_duplicated_block(g, rnd, independent, mapping):
    # one measured block scheduled a second time, as a new round of its own
    schedule = first_fit(g, independent, mapping)
    twice = rnd.choice(list(schedule))
    return independent, schedule_of(schedule.rounds + [[twice]])


def non_maximal(g, rnd, independent, mapping):
    # the dropped member's neighbours are all outside the set, so it could return
    smaller = independent - {rnd.choice(sorted(independent))}
    return smaller, first_fit(g, smaller, mapping)


def with_merged_rounds(g, rnd, independent, mapping):
    # first-fit put each block of a later round there because it overlaps a
    # block of every earlier round, so any two merged rounds overlap
    schedule = first_fit(g, independent, mapping)
    if schedule.tocks < 2:
        return None
    i, j = sorted(rnd.sample(range(schedule.tocks), 2))
    rounds = schedule.rounds
    rounds[i] += rounds.pop(j)
    return independent, schedule_of(rounds)


@pytest.mark.parametrize("mutate, tableau_verdict", [
    (with_inner_edge, False),
    (with_dropped_block, False),
    (with_duplicated_block, False),  # the tableau's coverage check raises
    (non_maximal, True),  # the state is right; only the certificate rejects it
    (with_merged_rounds, True),  # the state is right; only the certificate rejects it
])
def test_certificate_rejects_mutants(mutate, tableau_verdict):
    """Each mutant of a certified compile, on connected graphs of 2 to 14
    vertices: the tableau's verdict, and the certificate's rejection."""
    tried = 0
    for seed in range(200):
        rnd = random.Random(seed)
        n = rnd.randint(2, 14)
        g = generate("gnm", n, m=rnd.randint(n - 1, n * (n - 1) // 2), seed=seed)
        independent = greedy_maximal_independent_set(g, order="seeded_random", seed=seed)
        mapping = basic_mapping(g, "random", seed=seed)
        assert certified(g, independent, first_fit(g, independent, mapping), mapping), seed
        case = mutate(g, rnd, independent, mapping)
        if case is None:
            continue
        tried += 1
        assert tableau_accepts(g, *case) is tableau_verdict, seed
        assert not certified(g, *case, mapping), seed
    assert tried >= 150


import numpy as np

I2 = np.eye(2)
X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
Z2 = np.array([[1.0, 0.0], [0.0, -1.0]])
PLUS_VEC = np.array([1.0, 1.0]) / np.sqrt(2)
ZERO_VEC = np.array([1.0, 0.0])


def dense_word(word: str):
    """Dense matrix of a Pauli word given as letters ('XZI') or signed ('-XZI')."""
    mats = {"I": I2, "X": X2, "Z": Z2, "Y": np.array([[0, -1j], [1j, 0]])}
    out = np.array([[1.0]])
    for c in word.lstrip("+-"):
        out = np.kron(out, mats[c])
    return -out if word.startswith("-") else out


def dense_graph_state(g):
    state = np.array([1.0])
    for _ in range(g.n):
        state = np.kron(state, PLUS_VEC)
    for a, b in g.sorted_edges():
        cz = np.ones(1 << g.n)
        for idx in range(1 << g.n):
            if (idx >> (g.n - 1 - a)) & 1 and (idx >> (g.n - 1 - b)) & 1:
                cz[idx] = -1.0
        state = cz * state
    return state


def test_tableau_matches_state_vector_simulation():
    # independent oracle: run the same projections on dense 2^n vectors; each
    # outcome is random (norm^2 0.5), and the final state matches the CZ
    # construction
    rng = random.Random(20)
    for trial in range(25):
        n = 2 + trial % 4
        total = n * (n - 1) // 2
        g = generate("gnm", n, m=rng.randint(n - 1, total), seed=300 + trial)
        gens = stabilizer_generators(g)
        words = row_strings(gens)
        plan = reduce_generators(g, greedy_maximal_independent_set(g))
        state = np.array([1.0])
        for basis in plan.init_string:
            state = np.kron(state, PLUS_VEC if basis == "+" else ZERO_VEC)
        t = tableau_init(plan)
        for i in plan.measured:
            project_generator(t, gens[i])
            projected = 0.5 * (state + dense_word(words[i]) @ state)
            norm2 = float(np.real(projected @ projected.conj()))
            assert norm2 == pytest.approx(0.5, abs=1e-9)
            state = projected / np.sqrt(norm2)
        target = dense_graph_state(g)
        overlap = abs(np.vdot(target, state))
        assert overlap == pytest.approx(1.0, abs=1e-9)
        assert _group_mismatch(t, gens) is None
        assert replay(plan, plan.measured.tolist(), gens) == t


def test_tableau_shifts_python_ints_past_bit_63():
    """The plan's measured generators are int64, and ``1 << np.int64(70)`` is
    0, so every generator the tableau shifts is a Python int. A plan whose
    measured generators reach past 63 passes in any order, and a schedule
    that repeats one of them or measures a non-independent set fails."""
    g = generate("random_tree", 150, seed=4)
    plan = reduce_generators(g, greedy_maximal_independent_set(g))
    schedule = schedule_sweep(build_blocks(g, plan.measured, basic_mapping(g, "random", seed=4)))
    order = schedule.gen.tolist()
    assert max(order) >= 64 and sum(w >= 64 for w in order) > 20
    report = verify_compilation(g, plan, schedule)
    assert report.ok and report.checked_generators == len(plan.measured)
    assert verify_compilation(g, plan, column_blocks([(w, 0, 0) for w in reversed(order)])).ok
    gens = stabilizer_generators(g)
    high = max(order)
    with pytest.raises(ValueError, match="already determined"):
        replay(plan, [*order, high], gens)
    forged = [w if w != min(order) else high for w in order]
    with pytest.raises(ValueError, match="does not cover the plan"):
        verify_compilation(g, plan, column_blocks([(w, 0, 0) for w in forged]))
    # the set joined by a neighbour of one of its members above 63
    u, v = next((u, v) for u, v in g.sorted_edges() if v >= 64 and v in plan.independent_set)
    bad = ReductionPlan(g.n, plan.independent_set | {u})
    report = verify_compilation(g, bad, column_blocks([(w, 0, 0) for w in bad.measured.tolist()]))
    assert not report.ok


def test_oracle_min_rounds():
    mk = lambda pairs: [AncillaBlock(i, l, r) for i, (l, r) in enumerate(pairs)]
    assert oracle_min_rounds([]) == 0
    assert oracle_min_rounds(mk([(1, 4), (4, 6), (7, 8), (5, 9)])) == 2
    assert oracle_min_rounds(mk([(0, 3)] * 3)) == 3
    with pytest.raises(ValueError):
        oracle_min_rounds(mk([(0, 1)] * 13))


def test_oracle_min_rounds_matches_first_fit():
    rng = random.Random(3)
    for _ in range(120):
        count = rng.randrange(0, 13)
        blocks = []
        for i in range(count):
            l = rng.randrange(25)
            blocks.append(AncillaBlock(i, l, l + rng.randrange(1, 8)))
        assert oracle_min_rounds(blocks) == schedule_first_fit(column_blocks(blocks)).tocks


def test_oracle_min_cut_values():
    assert oracle_min_cut(P3()) == 1
    assert oracle_min_cut(generate("complete", 4)) == 3
    c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert oracle_min_cut(c5) == 2
    with pytest.raises(ValueError):
        oracle_min_cut(generate("path", 1))
    with pytest.raises(ValueError):
        oracle_min_cut(generate("path", 13))


def test_oracle_min_cut_k4_bipartition_count():
    # sanity on the enumeration: 7 bipartitions of 4 vertices, all cuts >= 3
    g = generate("complete", 4)
    cuts = []
    for mask in range(1, 1 << 3):
        cut = 0
        for a, b in g.edges:
            sa = a != 0 and (mask >> (a - 1)) & 1
            sb = b != 0 and (mask >> (b - 1)) & 1
            cut += sa != sb
        cuts.append(cut)
    assert len(cuts) == 7
    assert min(cuts) == 3 == oracle_min_cut(g)

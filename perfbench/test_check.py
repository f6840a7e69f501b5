"""The reference checker accepts a correct result and rejects each forged field.

Run with ``python3 -m pytest perfbench/test_check.py``.
"""

import copy

import pytest

from check import check_result, max_overlap, neighbours

# Path 0-1-2-3-4-5 under the natural mapping. The greedy set is {0, 2, 5};
# generators 1, 3, 4 have blocks [0, 2], [2, 4], [3, 5]; maximum overlap 2.
PATH6 = neighbours(6, [(i, i + 1) for i in range(5)])
BASE = {
    "n": 6,
    "plan": {"independent_set": [0, 2, 5], "init": "+0+00+", "measured": [1, 3, 4]},
    "mapping": [0, 1, 2, 3, 4, 5],
    "schedule": {
        "rounds": [
            [{"gen": 1, "L": 0, "R": 2}, {"gen": 4, "L": 3, "R": 5}],
            [{"gen": 3, "L": 2, "R": 4}],
        ],
        "tocks": 2,
        "lower_bound": 2,
    },
    "tocks": 2,
    "tiles_full": 24,
    "tiles_reduced": 21,
    "spacetime_volume": 42,
    "verified": True,
}


def rules(result, kind="path", mapper="natural"):
    return {v.split(":", 1)[0] for v in check_result(PATH6, result, kind, mapper).violations}


def forged(edit):
    result = copy.deepcopy(BASE)
    edit(result)
    return result


def test_correct_result_passes_with_recomputed_costs():
    verdict = check_result(PATH6, BASE, "path", "natural")
    assert verdict.violations == []
    assert (verdict.tocks, verdict.overlap, verdict.volume) == (2, 2, 42)


FORGERIES = {
    "independent": lambda r: r["plan"].update(independent_set=[0, 1, 3, 5]),
    "maximal": lambda r: r["plan"].update(independent_set=[0, 5]),
    "measured": lambda r: r["plan"].update(measured=[1, 2, 3, 4]),
    "init": lambda r: r["plan"].update(init="+0+000"),
    "mapping": lambda r: r.update(mapping=[0, 1, 2, 3, 4, 4]),
    "block": lambda r: r["schedule"]["rounds"][1][0].update(L=1),
    "coverage": lambda r: r["schedule"]["rounds"][0].pop(),
    "disjoint": lambda r: r["schedule"]["rounds"][0].append({"gen": 3, "L": 2, "R": 4}),
    "tocks": lambda r: r.update(tocks=1),
    "lower_bound": lambda r: r["schedule"].update(lower_bound=1),
    "tiles": lambda r: r.update(tiles_reduced=20),
    "volume": lambda r: r.update(spacetime_volume=40),
    "format": lambda r: r["schedule"].update(rounds=5),
}


@pytest.mark.parametrize("rule", sorted(FORGERIES))
def test_each_forged_field_is_rejected(rule):
    assert rule in rules(forged(FORGERIES[rule]))


def test_empty_round_is_rejected():
    result = forged(lambda r: r["schedule"]["rounds"].append([]))
    result["tocks"] = result["schedule"]["tocks"] = 3
    result["spacetime_volume"] = 63
    assert rules(result) == {"disjoint"}


def test_known_answer_is_enforced():
    # A valid path result whose mapping spreads every block over positions
    # 2..4, so it needs 3 tocks; under the min-cut mapper a path takes 2.
    result = copy.deepcopy(BASE)
    result["mapping"] = [0, 5, 1, 3, 4, 2]
    result["schedule"] = {
        "rounds": [[{"gen": 1, "L": 0, "R": 5}], [{"gen": 3, "L": 1, "R": 4}], [{"gen": 4, "L": 2, "R": 4}]],
        "tocks": 3,
        "lower_bound": 3,
    }
    result.update(tocks=3, spacetime_volume=63)
    assert rules(result, "path", "natural") == set()
    assert rules(result, "path", "mincut") == {"known"}


def test_max_overlap():
    assert max_overlap(6, []) == 0
    assert max_overlap(6, [(0, 2), (3, 5)]) == 1
    assert max_overlap(6, [(0, 2), (2, 4), (3, 5)]) == 2

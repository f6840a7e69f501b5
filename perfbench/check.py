"""Reference checker for compile results, independent of the compiler.

It reads the result JSON that ``CompilationResult.to_json_text`` emits and
re-derives every field from the graph alone, with its own code: nothing here
imports ``gsc``. A result passes when all of these hold:

- ``independent``: the independent set has no edge inside it;
- ``maximal``: every vertex outside it has a neighbour inside it;
- ``measured``: the measured generators are exactly the complement;
- ``init``: the init string puts ``+`` on the set and ``0`` elsewhere;
- ``mapping``: the mapping is a bijection onto positions 0..n-1;
- ``block``: each block is the min/max position over the closed neighbourhood;
- ``coverage``: every measured generator is scheduled exactly once;
- ``disjoint``: blocks in one round are strictly disjoint, no round is empty;
- ``tocks``: both tock fields equal the number of rounds;
- ``lower_bound``: the stored bound equals the maximum interval overlap;
- ``tiles``: ``tiles_full`` is 4n and ``tiles_reduced`` is 4n - |I|;
- ``volume``: the space-time volume is reduced tiles times tocks;
- ``known``: the analytic answers hold (star: 1 tock and complete: n-1 under
  any mapper, since the greedy set leaves one resp. n-1 generators whose
  blocks all overlap; path under the min-cut mapper: 2 tocks).

Each violation is a string starting with its rule name and a colon.
"""

from __future__ import annotations

from typing import NamedTuple


class Verdict(NamedTuple):
    violations: list[str]
    tocks: int
    overlap: int
    volume: int


def neighbours(n: int, edges) -> list[list[int]]:
    """Adjacency lists built from (a, b) pairs."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def max_overlap(n: int, intervals) -> int:
    """Largest number of closed intervals [L, R] over positions 0..n-1 that
    share one position."""
    diff = [0] * (n + 1)
    for lo, hi in intervals:
        diff[lo] += 1
        diff[hi + 1] -= 1
    best = depth = 0
    for d in diff:
        depth += d
        best = max(best, depth)
    return best


def known_tocks(kind: str, n: int, mapper: str) -> int | None:
    """Tock count the graph family forces, or None where none is known."""
    if kind == "star" and n >= 2:
        return 1
    if kind == "complete" and n >= 2:
        return n - 1
    if kind == "path" and mapper == "mincut" and n >= 4:
        return 2
    return None


def check_result(adj: list[list[int]], result: dict, kind: str = "", mapper: str = "") -> Verdict:
    """Check one parsed result against the graph with adjacency ``adj``."""
    try:
        return _check(adj, result, kind, mapper)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Verdict([f"format: {type(exc).__name__}: {exc}"], 0, 0, 0)


def _check(adj, result, kind, mapper) -> Verdict:
    n = len(adj)
    bad: list[str] = []
    if result["n"] != n:
        return Verdict([f"format: result has n={result['n']}, graph has {n}"], 0, 0, 0)
    plan = result["plan"]
    iset = plan["independent_set"]
    members = set(iset)
    if len(members) != len(iset) or not members <= set(range(n)):
        bad.append("independent: set has repeated or out-of-range vertices")
    for v in members:
        for w in adj[v]:
            if w in members and v < w:
                bad.append(f"independent: {v} and {w} are adjacent")
    for v in range(n):
        if v not in members and not any(w in members for w in adj[v]):
            bad.append(f"maximal: vertex {v} has no neighbour in the set")
    complement = [v for v in range(n) if v not in members]
    measured = plan["measured"]
    if sorted(measured) != complement:
        bad.append("measured: not the complement of the independent set")
    if plan["init"] != "".join("+" if v in members else "0" for v in range(n)):
        bad.append("init: does not match the independent set")

    pos = result["mapping"]
    if sorted(pos) != list(range(n)):
        return Verdict(bad + ["mapping: not a bijection onto 0..n-1"], 0, 0, 0)

    want = {}
    for v in complement:
        around = [pos[v]] + [pos[w] for w in adj[v]]
        want[v] = (min(around), max(around))
    rounds = result["schedule"]["rounds"]
    seen: dict[int, int] = {}
    for r, rnd in enumerate(rounds):
        if not rnd:
            bad.append(f"disjoint: round {r} is empty")
        spans = []
        for block in rnd:
            gen, lo, hi = block["gen"], block["L"], block["R"]
            seen[gen] = seen.get(gen, 0) + 1
            if want.get(gen, (lo, hi)) != (lo, hi):
                bad.append(f"block: generator {gen} has [{lo}, {hi}], expected {list(want[gen])}")
            spans.append((lo, hi))
        spans.sort()
        for (_, prev_hi), (lo, _) in zip(spans, spans[1:]):
            if lo <= prev_hi:
                bad.append(f"disjoint: round {r} has overlapping blocks at position {lo}")
    if seen != {v: 1 for v in complement}:
        missing = sorted(set(complement) - set(seen))
        extra = sorted(set(seen) - set(complement))
        twice = sorted(g for g, c in seen.items() if c > 1)
        bad.append(f"coverage: missing {missing}, extra {extra}, repeated {twice}")

    tocks = len(rounds)
    if result["tocks"] != tocks or result["schedule"]["tocks"] != tocks:
        bad.append(f"tocks: fields say {result['tocks']}/{result['schedule']['tocks']}, rounds {tocks}")
    overlap = max_overlap(n, want.values())
    if result["schedule"]["lower_bound"] != overlap:
        bad.append(f"lower_bound: says {result['schedule']['lower_bound']}, overlap is {overlap}")
    tiles = 4 * n - len(members)
    if result["tiles_full"] != 4 * n or result["tiles_reduced"] != tiles:
        bad.append(f"tiles: says {result['tiles_full']}/{result['tiles_reduced']}, expected {4 * n}/{tiles}")
    volume = tiles * tocks
    if result["spacetime_volume"] != volume:
        bad.append(f"volume: says {result['spacetime_volume']}, expected {volume}")
    known = known_tocks(kind, n, mapper)
    if known is not None and tocks != known:
        bad.append(f"known: {kind}:{n} under {mapper} must take {known} tocks, got {tocks}")
    return Verdict(bad, tocks, overlap, volume)

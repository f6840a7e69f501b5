"""Pack parity-check ancilla intervals into measurement rounds.

Each generator still to be measured occupies a contiguous bus segment
[L, R] covering the mapped positions of its vertex and neighborhood. Two
measurements can share a round only if their segments are strictly
disjoint (touching at a position conflicts). Round count is the Tock cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .graph import Graph, neighbour_reduce
from .mapping import Mapping


class AncillaBlock(NamedTuple):
    gen: int
    L: int
    R: int


@dataclass(frozen=True)
class Schedule:
    """Ordered rounds; blocks within a round are pairwise disjoint."""

    rounds: tuple[tuple[AncillaBlock, ...], ...]

    @property
    def tocks(self) -> int:
        return len(self.rounds)

    @property
    def lower_bound(self) -> int:
        """Fewest rounds any schedule of these blocks can use."""
        return depth_lower_bound(self.all_blocks())

    def all_blocks(self) -> list[AncillaBlock]:
        return [b for rnd in self.rounds for b in rnd]


def build_blocks(g: Graph, measured, mapping: Mapping) -> list[AncillaBlock]:
    """Ancilla interval per measured generator: min/max mapped position of
    the generator's vertex together with its neighborhood."""
    if mapping.n != g.n:
        raise ValueError(f"mapping covers {mapping.n} vertices, graph has {g.n}")
    if len(measured) and not (0 <= min(measured) and max(measured) < g.n):
        raise ValueError(f"generator index {next(i for i in measured if not 0 <= i < g.n)} out of range")
    gens = np.asarray(measured, dtype=np.int64)
    lo, hi = neighbour_reduce(g, np.asarray(mapping.pos, dtype=np.int64), np.minimum, np.maximum)
    lo, hi = lo[gens], hi[gens]
    # tuple.__new__ skips the Python-level constructor call per block
    return list(map(tuple.__new__, repeat(AncillaBlock), zip(gens.tolist(), lo.tolist(), hi.tolist())))


def _first_fit(blocks, key) -> Schedule:
    """Put each block, taken in ``key`` order, into the first round whose
    rightmost endpoint it clears, opening a new round when none does.

    A min-tree over round slots finds that round in O(log k): leaf i holds
    round i's rightmost endpoint (above every R, so never cleared, while the
    round is unopened), and each inner node the minimum of its children. The
    root thus holds the smallest end among the opened rounds. When the block
    does not clear it, no round is free and the block opens the next round
    in O(1), without walking down the tree.
    """
    order = sorted(blocks, key=key)
    size = 1
    while size < len(order):
        size *= 2
    unopened = max(map(itemgetter(2), order), default=0) + 1
    tree = [unopened] * (2 * size)
    rounds: list[list[AncillaBlock]] = []
    for b in order:
        lo = b.L
        if tree[1] >= lo:
            node = size + len(rounds)
            rounds.append([b])
        else:
            node = 1
            while node < size:
                node *= 2
                if tree[node] >= lo:
                    node += 1
            rounds[node - size].append(b)
        tree[node] = value = b.R
        while node > 1:
            sibling = tree[node ^ 1]
            if sibling < value:
                value = sibling
            node //= 2
            if tree[node] == value:
                break
            tree[node] = value
    return Schedule(rounds=tuple(tuple(rnd) for rnd in rounds))


def schedule_sweep(blocks) -> Schedule:
    """Repeated greedy sweeps over blocks sorted by right endpoint (CLI name
    ``paper``, the default).

    Each round takes, in (R, L) order, every remaining block that starts
    strictly right of everything taken so far in the round. A block's round
    thus depends only on the blocks before it in that order, so the sweeps
    are first-fit in (R, L) order; inside a strictly disjoint round, R order
    is L order.
    """
    return _first_fit(blocks, key=itemgetter(2, 1, 0))


def schedule_first_fit(blocks) -> Schedule:
    """First-fit interval packing: optimal round count for interval blocks.

    Blocks sorted by left endpoint go into the first round whose current
    rightmost endpoint they clear; the round count equals the maximum
    point-overlap depth.
    """
    return _first_fit(blocks, key=itemgetter(1, 2, 0))


SCHEDULERS = {
    "paper": schedule_sweep,
    "first-fit": schedule_first_fit,
}


def depth_lower_bound(blocks) -> int:
    """Max number of blocks covering any single position; no schedule can
    use fewer rounds than this. The greatest depth is reached at some
    block's L, where it counts the blocks with L' <= L minus those with R' < L."""
    rows = np.fromiter(chain.from_iterable(blocks), dtype=np.int64).reshape(-1, 3)
    if not len(rows):
        return 0
    starts = np.sort(rows[:, 1])
    ends = np.sort(rows[:, 2])
    return int((np.arange(1, len(rows) + 1) - ends.searchsorted(starts)).max())


@dataclass
class ValidationReport:
    violations: list[str]
    blocks: list[AncillaBlock]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def lower_bound(self) -> int:
        """Depth lower bound of the requested blocks, computed when read."""
        return depth_lower_bound(self.blocks)


def validate_schedule(schedule: Schedule, blocks) -> ValidationReport:
    """Check coverage (every block scheduled exactly once, unmodified),
    strict per-round disjointness and that no round is empty.

    A round whose blocks, as listed, each end before the next one starts is
    strictly disjoint and needs no sort; both schedulers list rounds that
    way. Any other round is sorted by (L, R) and each neighbour pair checked.

    A loop over the blocks, not an array kernel: on the small results that
    ``gsc verify`` re-checks most often, numpy's fixed cost per call is
    larger than the loop, and on large ones the two differ little.
    """
    violations = []
    want = sorted(blocks)
    got = sorted(schedule.all_blocks())
    if want != got:
        want_gens = {b.gen for b in blocks}
        got_gens = {b.gen for b in schedule.all_blocks()}
        for gen in sorted(want_gens - got_gens):
            violations.append(f"generator {gen} is missing from the schedule")
        for gen in sorted(got_gens - want_gens):
            violations.append(f"generator {gen} is scheduled but not requested")
        if want_gens == got_gens:
            violations.append("scheduled blocks do not match the requested intervals")
    for rnd_idx, rnd in enumerate(schedule.rounds):
        if not rnd:
            violations.append(f"round {rnd_idx} is empty")
        if len(rnd) < 2 or all(prev.R < cur.L for prev, cur in zip(rnd, rnd[1:])):
            continue
        members = sorted(rnd, key=itemgetter(1, 2))
        for prev, cur in zip(members, members[1:]):
            if cur.L <= prev.R:
                violations.append(
                    f"round {rnd_idx}: blocks for generators {prev.gen} and {cur.gen} "
                    f"overlap at position {cur.L}"
                )
    return ValidationReport(violations=violations, blocks=blocks)

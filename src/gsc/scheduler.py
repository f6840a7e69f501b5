"""Pack parity-check ancilla intervals into measurement rounds.

Each generator still to be measured occupies a contiguous bus segment
[L, R] covering the mapped positions of its vertex and neighborhood. Two
measurements can share a round only if their segments are strictly
disjoint (touching at a position conflicts). Round count is the Tock cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .graph import Graph, neighbour_reduce
from .mapping import Mapping


class AncillaBlock(NamedTuple):
    gen: int
    L: int
    R: int


@dataclass(frozen=True, eq=False)
class Blocks:
    """Ancilla blocks as int64 columns: block i is (gen[i], L[i], R[i]).
    Iterating yields each block as an AncillaBlock of Python ints."""

    gen: np.ndarray
    L: np.ndarray
    R: np.ndarray

    def __len__(self) -> int:
        return len(self.gen)

    def __iter__(self):
        return map(AncillaBlock._make, zip(self.gen.tolist(), self.L.tolist(), self.R.tolist()))


@dataclass(frozen=True, eq=False)
class Schedule(Blocks):
    """The blocks in round order plus round offsets, the CSR form ``Graph``
    keeps: round k is blocks offsets[k] to offsets[k + 1] - 1, and blocks
    within a round are pairwise disjoint."""

    offsets: np.ndarray

    @classmethod
    def of(cls, values, sizes) -> Schedule:
        """From the gen, L and R of each block in round order, as one flat
        sequence, and the number of blocks in each round."""
        flat = np.fromiter(values, np.int64)
        return cls(flat[0::3], flat[1::3], flat[2::3], np.fromiter(accumulate(sizes, initial=0), np.int64))

    @property
    def tocks(self) -> int:
        return len(self.offsets) - 1

    @property
    def lower_bound(self) -> int:
        """Fewest rounds any schedule of these blocks can use."""
        return depth_lower_bound(self)

    @property
    def rounds(self) -> list[list[AncillaBlock]]:
        """Each round's blocks as listed."""
        blocks, bounds = list(self), self.offsets.tolist()
        return [blocks[a:b] for a, b in zip(bounds, bounds[1:])]

    def __eq__(self, other) -> bool:
        return isinstance(other, Schedule) and self.rounds == other.rounds


def build_blocks(g: Graph, measured, mapping: Mapping) -> Blocks:
    """Ancilla interval per measured generator: min/max mapped position of
    the generator's vertex together with its neighborhood. An int64
    ``measured``, such as a plan's, is used as it is, as is the mapping's
    position array.

    In a complete graph every closed neighbourhood holds every vertex, so
    every block is [0, n - 1] and the rows are not read."""
    n = g.n
    if mapping.n != n:
        raise ValueError(f"mapping covers {mapping.n} vertices, graph has {n}")
    gens = np.asarray(measured, dtype=np.int64)
    outside = gens.view(np.uint64) >= n  # viewed unsigned, a negative index lies above n
    if np.count_nonzero(outside):
        raise ValueError(f"generator index {int(gens[outside.argmax()])} out of range")
    if len(g.neighbours) == n * (n - 1):
        return Blocks(gens, np.zeros_like(gens), np.full_like(gens, n - 1))
    lo, hi = neighbour_reduce(g, mapping.pos, np.minimum, np.maximum)
    return Blocks(gens, lo[gens], hi[gens])


def _first_fit(blocks: Blocks, order: np.ndarray) -> Schedule:
    """Put each block, taken in ``order``, into the first round whose
    rightmost endpoint it clears, opening a new round when none does.

    Block j opens round j as long as each block before it opened its own
    round and L[j] <= min(R[:j]): it clears none of them, as touching
    blocks conflict. One running minimum of R finds that leading run, and
    when it covers every block, each block is its own round and no tree is
    built.

    Otherwise a min-tree over round slots finds the round of each later
    block in O(log k): leaf i holds round i's rightmost endpoint (above
    every R, so never cleared, while the round is unopened), and each inner
    node the minimum of its children. The run fills the first leaves, and
    the levels above them are built with numpy. The root thus holds the
    smallest end among the opened rounds. When the block does not clear
    it, no round is free and the block opens the next round in O(1),
    without walking down the tree. A stable sort by round then lists each
    round's blocks in ``order``.
    """
    gen, L, R = blocks.gen[order], blocks.L[order], blocks.R[order]
    k = len(order)
    # each j at which block j + 1 clears a round that blocks 0..j opened
    fits = (L[1:] > np.minimum.accumulate(R[:-1])).nonzero()[0]
    if not len(fits):
        return Schedule(gen, L, R, np.arange(k + 1))
    run = int(fits[0]) + 1
    size = 1
    while size < k:
        size *= 2
    top = int(R.max()) + 1
    tree = [top] * (2 * size)
    # the run's leaves, padded to a power of two, then each level above them
    # up to a single node, whose ancestors all hold its value
    level = np.full(1 << (run - 1).bit_length(), top)
    level[:run] = R[:run]
    node = size
    while len(level) > 1:
        tree[node:node + len(level)] = level.tolist()
        level = np.minimum(level[0::2], level[1::2])
        node //= 2
    least = int(level[0])
    while node:
        tree[node] = least
        node //= 2
    leaves = []  # each later block's round, as its leaf
    append = leaves.append
    fresh = size + run  # the leaf of the next round to open
    for lo, hi in zip(L[run:].tolist(), R[run:].tolist()):
        if tree[1] >= lo:
            node = fresh
            fresh += 1
        else:
            node = 1
            while node < size:
                node *= 2
                if tree[node] >= lo:
                    node += 1
        append(node)
        tree[node] = value = hi
        while node > 1:
            sibling = tree[node ^ 1]
            if sibling < value:
                value = sibling
            node //= 2
            if tree[node] == value:
                break
            tree[node] = value
    round_of = np.concatenate((np.arange(run), np.array(leaves, dtype=np.int64) - size))
    by_round = np.argsort(round_of, kind="stable")
    offsets = np.concatenate(([0], np.bincount(round_of, minlength=fresh - size).cumsum()))
    return Schedule(gen[by_round], L[by_round], R[by_round], offsets)


def schedule_sweep(blocks) -> Schedule:
    """Repeated greedy sweeps over blocks sorted by right endpoint (CLI name
    ``paper``, the default).

    Each round takes, in (R, L) order, every remaining block that starts
    strictly right of everything taken so far in the round. A block's round
    thus depends only on the blocks before it in that order, so the sweeps
    are first-fit in (R, L) order; inside a strictly disjoint round, R order
    is L order.
    """
    return _first_fit(blocks, np.lexsort((blocks.gen, blocks.L, blocks.R)))


def schedule_first_fit(blocks) -> Schedule:
    """First-fit interval packing: optimal round count for interval blocks.

    Blocks sorted by left endpoint go into the first round whose current
    rightmost endpoint they clear; the round count equals the maximum
    point-overlap depth.
    """
    return _first_fit(blocks, np.lexsort((blocks.gen, blocks.R, blocks.L)))


SCHEDULERS = {
    "paper": schedule_sweep,
    "first-fit": schedule_first_fit,
}


def depth_lower_bound(blocks: Blocks) -> int:
    """Max number of blocks covering any single position; no schedule can
    use fewer rounds than this. The greatest depth is reached at some
    block's L, where it counts the blocks with L' <= L minus those with R' < L."""
    if not len(blocks):
        return 0
    starts = np.sort(blocks.L)
    return int((np.arange(1, len(starts) + 1) - np.sort(blocks.R).searchsorted(starts)).max())


@dataclass
class ValidationReport:
    violations: list[str]
    blocks: Blocks

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def lower_bound(self) -> int:
        """Depth lower bound of the requested blocks, computed when read."""
        return depth_lower_bound(self.blocks)


def validate_schedule(schedule: Schedule, blocks: Blocks) -> ValidationReport:
    """Check coverage (every block scheduled exactly once, unmodified),
    strict per-round disjointness and that no round is empty.

    The requested blocks come from ``build_blocks`` over a plan's measured
    generators, one per generator, so they are distinct. Each scheduled
    generator is looked up by index among them (one not requested, also one
    out of range, finds another generator's block), and the schedule covers
    them exactly once when every lookup finds its block unmodified and no
    block is found twice. Only a failing schedule is compared generator by
    generator, to name what differs.

    One array compare of each block with the next one in its round tells
    whether every round, as listed, is strictly disjoint left to right, as
    both schedulers list rounds, and no round is empty. Only otherwise are
    the rounds walked, and a round not listed so is sorted by (L, R) and
    each neighbour pair checked. count_nonzero stands in for numpy's all()
    and any(), which cost more on the small results ``gsc verify`` re-checks.
    """
    violations = []
    k = len(blocks)
    covered = len(schedule) == k
    if covered and k:
        slot = np.zeros(blocks.gen.max() + 1, dtype=np.int64)
        slot[blocks.gen] = np.arange(k)
        i = slot.take(schedule.gen, mode="clip")
        found = (blocks.gen[i] != schedule.gen) | (blocks.L[i] != schedule.L) | (blocks.R[i] != schedule.R)
        covered = np.count_nonzero(np.bincount(i, minlength=k)) == k and not np.count_nonzero(found)
    if not covered:
        want_gens = set(blocks.gen.tolist())
        got_gens = set(schedule.gen.tolist())
        for gen in sorted(want_gens - got_gens):
            violations.append(f"generator {gen} is missing from the schedule")
        for gen in sorted(got_gens - want_gens):
            violations.append(f"generator {gen} is scheduled but not requested")
        if want_gens == got_gens:
            violations.append("scheduled blocks do not match the requested intervals")
    first = np.zeros(len(schedule) + 1, dtype=bool)  # first[j]: block j opens a round
    first[schedule.offsets] = True  # an empty round repeats an offset
    clash = (schedule.R[:-1] >= schedule.L[1:]) & ~first[1:-1]
    if np.count_nonzero(first) < len(schedule.offsets) or np.count_nonzero(clash):
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

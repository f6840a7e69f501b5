"""A stabilizer-tableau oracle for compiled outputs.

A stabilizer tableau (GF(2) symplectic rows packed into Python ints, with
mod-4 phase bookkeeping, after Aaronson & Gottesman 2004) simulates the
compiled procedure: initialize product states, project each scheduled
generator onto its even-parity eigenspace, then compare the resulting
stabilizer group, signs included, against the target graph-state
generators, built as packed rows straight from adjacency.

The tableau is one list of n rows, which each projection updates in place.
Row (x, z, phase) is i^phase * W(x, z), with W the Pauli word having X on
qubit q where bit q of x is set, Z where bit q of z is set, Y where both
are. Phases stay even (0 -> +1, 2 -> -1) because rows are Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph
from .scheduler import Schedule
from .stabilizer import ReductionPlan

Row = tuple[int, int, int]  # (x, z, phase): the signed word i^phase * W(x, z)


def stabilizer_generators(g: Graph) -> list[Row]:
    """One generator row per vertex: X at the vertex, Z on its neighborhood
    (neighbors are distinct, so the sum of their bits is their OR)."""
    bit = [1 << v for v in range(g.n)]
    z = list(map(bit.__getitem__, g.neighbours.tolist()))
    offsets = g.offsets.tolist()
    return [(b, sum(z[lo:hi]), 0) for b, lo, hi in zip(bit, offsets, offsets[1:])]


def _phase_of_product(x1: int, z1: int, x2: int, z2: int) -> int:
    """Exponent of i picked up in W(x1,z1) * W(x2,z2), mod 4.

    W(x, z) = i^|x&z| X^x Z^z, as Y = iXZ. Moving Z^z1 past X^x2 gives
    (-1)^|z1&x2|, and the product's own factor i^|x&z| (x = x1^x2,
    z = z1^z2) is taken back out: four popcounts in all.
    """
    return ((x1 & z1).bit_count() + (x2 & z2).bit_count() + 2 * (z1 & x2).bit_count()
            - ((x1 ^ x2) & (z1 ^ z2)).bit_count()) % 4


def _product(a: Row, b: Row) -> Row:
    """The row a * b; its phase stays even when a and b commute."""
    return a[0] ^ b[0], a[1] ^ b[1], (a[2] + b[2] + _phase_of_product(a[0], a[1], b[0], b[1])) % 4


def tableau_init(plan: ReductionPlan) -> list[Row]:
    """Product-state tableau: single-qubit X for |+> qubits, Z for |0>."""
    return [(1 << v, 0, 0) if v in plan.independent_set else (0, 1 << v, 0) for v in range(plan.n)]


def project_generator(rows: list[Row], p: Row) -> None:
    """Even-parity projection of a Pauli word onto the state of ``rows``.

    The word must anticommute with some row, which makes its outcome random:
    the first such row is replaced in place by the word (outcome forced to
    +1, as negative outcomes are tracked classically) and the other
    anticommuting rows are fixed up by row multiplication. Every projection
    ``verify_compilation`` makes is of this kind (see its docstring), so a
    word that commutes with every row raises ValueError.
    """
    xp, zp, _ = p
    # the commutation test is written out: this scan is the tableau's innermost loop
    anti = [i for i, (x, z, _) in enumerate(rows) if ((x & zp) ^ (z & xp)).bit_count() & 1]
    if not anti:
        raise ValueError("word commutes with every row: its outcome is already determined")
    pivot, *others = anti
    for r in others:
        rows[r] = _product(rows[r], rows[pivot])
    rows[pivot] = (xp, zp, 0)


def _group_mismatch(rows: list[Row], target: list[Row]) -> str | None:
    """Why some target generator is not in the full-rank group of ``rows``
    with its own sign, or None if every one is.

    The rows are echelonized, each keyed by its pivot, the lowest set bit of
    x | z << n. A word is in the group exactly when multiplying in basis rows
    reduces it to the identity, and the phase left over is its sign there.
    """
    n = len(rows)
    by_pivot: dict[int, Row] = {}

    def reduce(row: Row) -> tuple[Row, int | None]:
        """Multiply basis rows into ``row`` until its pivot has no basis row;
        the pivot is None once the row is the identity."""
        while True:
            bits = row[0] | row[1] << n
            if not bits:
                return row, None
            pivot = (bits & -bits).bit_length() - 1
            base = by_pivot.get(pivot)
            if base is None:
                return row, pivot
            row = _product(row, base)

    for row in rows:
        row, pivot = reduce(row)
        if pivot is None:
            return "tableau rows are GF(2)-dependent"
        by_pivot[pivot] = row
    for i, (x, z, want) in enumerate(target):
        (_, _, phase), pivot = reduce((x, z, 0))
        if pivot is not None:
            return f"generator g{i} not in final group"
        if phase != want:
            return f"generator g{i} has sign {'+1' if phase == 0 else '-1'} in final group"
    return None


@dataclass(frozen=True)
class VerifyReport:
    checked_generators: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def verify_compilation(g: Graph, plan: ReductionPlan, schedule: Schedule) -> VerifyReport:
    """Replay the compiled procedure on a tableau and compare stabilizer groups.

    The schedule must cover exactly the plan's measured generators (raises
    on a coverage mismatch). Projections run in the order the schedule lists
    its blocks, round by round; the generators commute, so no order of them
    changes the final state.

    Every projection is random, for any set I = ``plan.independent_set``,
    independent or not. The initial rows have X only on I; projecting g_w
    writes a row whose X part is {w}, and row products only XOR X parts. So
    before g_w's turn no member of the group has X on w, and neither g_w nor
    -g_w is a member. The rows stay full rank, so a word commuting with every
    row would be a signed member: g_w anticommutes with some row.

    The report is ok exactly when I is independent. The g_w commute, so the
    final state is, up to norm, the product of the (1 + g_w)/2 applied to |+>
    on I and |0> elsewhere. Let C be the product of CZ over the graph's
    edges, so that g_w = C X_w C. A CZ with an end in |0> acts as the
    identity, so C acts on the start as C_I, the CZs inside I, and each
    (1 + X_w)/2 turns |0> into |+>: the final state is C C_I |+>^n, the graph
    state of the graph less its edges inside I. Its group holds every g_v
    with sign +1, except that it holds g_v in no sign for a v in I with a
    neighbour in I.
    """
    order = schedule.gen.tolist()
    if sorted(order) != list(plan.measured):
        missing = set(plan.measured) - set(order)
        extra = set(order) - set(plan.measured)
        raise ValueError(
            f"schedule does not cover the plan: missing {sorted(missing)}, extra {sorted(extra)}"
        )
    gens = stabilizer_generators(g)
    rows = tableau_init(plan)
    for gen in order:
        project_generator(rows, gens[gen])
    return VerifyReport(checked_generators=len(order), failure=_group_mismatch(rows, gens))

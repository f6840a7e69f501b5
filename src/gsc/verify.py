"""A stabilizer-tableau oracle for compiled outputs.

A stabilizer tableau (GF(2) symplectic rows packed into Python ints, with
mod-4 phase bookkeeping, after Aaronson & Gottesman 2004) simulates the
compiled procedure: initialize product states, project each scheduled
generator onto its even-parity eigenspace, then compare the resulting
stabilizer group, signs included, against the target graph-state
generators, built as packed rows straight from adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph import Graph
from .scheduler import Schedule
from .stabilizer import ReductionPlan

Row = tuple[int, int, int]  # (x, z, phase): the signed word i^phase * W(x, z)


@dataclass(frozen=True)
class Tableau:
    """n stabilizer rows; row (x, z, phase) is i^phase * W(x, z) with W the
    Pauli word having X on qubit q where bit q of x is set, Z where bit q of
    z is set, Y where both are. Phases stay even (0 -> +1, 2 -> -1) because
    rows are Hermitian."""

    rows: tuple[Row, ...]

    @property
    def n(self) -> int:
        return len(self.rows)


def stabilizer_generators(g: Graph) -> list[Row]:
    """One generator row per vertex: X at the vertex, Z on its neighborhood
    (neighbors are distinct, so the sum of their bits is their OR)."""
    bit = [1 << v for v in range(g.n)]
    z = list(map(bit.__getitem__, g.neighbours.tolist()))
    offsets = g.offsets.tolist()
    return [(b, sum(z[lo:hi]), 0) for b, lo, hi in zip(bit, offsets, offsets[1:])]


def _check_word(row: Row, n: int) -> None:
    """Raise ValueError unless the row is a signed (+1 or -1) word on n qubits."""
    x, z, phase = row
    if phase not in (0, 2):
        raise ValueError(f"word phase must be 0 (+1) or 2 (-1), got {phase}")
    if (x | z) >> n:
        raise ValueError(f"word has a bit at or above qubit {n}, the tableau size")


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


def tableau_init(plan: ReductionPlan) -> Tableau:
    """Product-state tableau: single-qubit X for |+> qubits, Z for |0>."""
    return Tableau(rows=tuple(
        (1 << v, 0, 0) if v in plan.independent_set else (0, 1 << v, 0)
        for v in range(plan.n)
    ))


class ProjectionResult(NamedTuple):
    tableau: Tableau
    deterministic: bool
    sign: int  # +1 or -1; for the random branch the +1 outcome is kept


def project_generator(t: Tableau, p: Row) -> ProjectionResult:
    """Even-parity projection of a Pauli word onto the tableau's state.

    If the word anticommutes with some rows, the first such row is replaced
    by the word (outcome forced to +1, as negative outcomes are tracked
    classically) and the other anticommuting rows are fixed up by row
    multiplication. If it commutes with every row it is already determined;
    the tableau is unchanged and the determined sign is reported.
    """
    _check_word(p, t.n)
    if p[2]:
        raise ValueError("projections target the +1 (even parity) eigenspace")
    xp, zp, _ = p
    # the commutation test is written out: this scan is the tableau's innermost loop
    anti = [i for i, (x, z, _) in enumerate(t.rows) if ((x & zp) ^ (z & xp)).bit_count() & 1]
    if not anti:
        phase = _GroupBasis(t).phase_of_member(xp, zp)
        if phase is None:
            # cannot happen for a full-rank tableau; guard for malformed input
            raise ValueError("word commutes with all rows but is outside the group")
        return ProjectionResult(tableau=t, deterministic=True, sign=1 if phase == 0 else -1)
    pivot = anti[0]
    rows = list(t.rows)
    for r in anti[1:]:
        rows[r] = _product(rows[r], rows[pivot])
    rows[pivot] = (xp, zp, 0)
    return ProjectionResult(tableau=Tableau(rows=tuple(rows)), deterministic=False, sign=1)


class _GroupBasis:
    """Echelonized group presentation supporting sign-aware membership. Each
    row is keyed by its pivot, the lowest set bit of x | z << n."""

    def __init__(self, t: Tableau):
        self.n = t.n
        self.by_pivot: dict[int, Row] = {}
        for row in t.rows:
            row, pivot = self._reduce(row)
            if pivot is not None:
                self.by_pivot[pivot] = row

    def _reduce(self, row: Row) -> tuple[Row, int | None]:
        """Multiply basis rows into ``row`` until its pivot has no basis row;
        the pivot is None once the row is the identity."""
        while True:
            bits = row[0] | row[1] << self.n
            if not bits:
                return row, None
            pivot = (bits & -bits).bit_length() - 1
            base = self.by_pivot.get(pivot)
            if base is None:
                return row, pivot
            row = _product(row, base)

    def phase_of_member(self, x: int, z: int) -> int | None:
        """Phase the group assigns to the word W(x, z); None if outside the span."""
        row, pivot = self._reduce((x, z, 0))
        return row[2] if pivot is None else None


def _group_mismatch(t: Tableau, target: list[Row]) -> str | None:
    """Why some target generator is not in the tableau's full-rank group
    with its own sign, or None if every one is."""
    basis = _GroupBasis(t)
    if len(basis.by_pivot) != t.n:
        return "tableau rows are GF(2)-dependent"
    for i, gen in enumerate(target):
        _check_word(gen, t.n)
        x, z, want = gen
        phase = basis.phase_of_member(x, z)
        if phase is None:
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
    on a coverage mismatch). Projections run in round order; within a round
    the commuting blocks are applied left to right.
    """
    if plan.n != g.n:
        raise ValueError(f"plan covers {plan.n} qubits, graph has {g.n}")
    scheduled = sorted(b.gen for rnd in schedule.rounds for b in rnd)
    if scheduled != sorted(plan.measured):
        missing = set(plan.measured) - set(scheduled)
        extra = set(scheduled) - set(plan.measured)
        raise ValueError(
            f"schedule does not cover the plan: missing {sorted(missing)}, extra {sorted(extra)}"
        )
    gens = stabilizer_generators(g)
    t = tableau_init(plan)
    checked = 0
    for rnd in schedule.rounds:
        for block in sorted(rnd, key=lambda b: (b.L, b.R, b.gen)):
            result = project_generator(t, gens[block.gen])
            checked += 1
            if result.deterministic and result.sign != 1:
                return VerifyReport(
                    checked_generators=checked,
                    failure=f"generator g{block.gen} came out determined with sign -1",
                )
            t = result.tableau
    return VerifyReport(checked_generators=checked, failure=_group_mismatch(t, gens))

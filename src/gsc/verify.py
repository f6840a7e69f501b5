"""Desk-scale oracles for compiled outputs.

A stabilizer tableau (GF(2) symplectic rows with mod-4 phase bookkeeping)
simulates the compiled procedure: initialize product states, project each
scheduled generator onto its even-parity eigenspace, then compare the
resulting stabilizer group, signs included, against the target graph-state
generators. Exhaustive references for minimum cut and minimum round count
back the randomized and greedy algorithms on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph
from .scheduler import AncillaBlock, Schedule
from .stabilizer import PLUS, PauliString, ReductionPlan, stabilizer_generators

ORACLE_MAX_BLOCKS = 12
ORACLE_MAX_VERTICES = 12


@dataclass(frozen=True)
class Tableau:
    """n stabilizer rows; row i is i^phase[i] * W(x[i], z[i]) with W the
    Pauli word having X where x is set, Z where z is set, Y where both are.
    Phases stay even (0 -> +1, 2 -> -1) because rows are Hermitian."""

    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def row_strings(self) -> list[str]:
        out = []
        for i in range(self.n):
            if self.phase[i] % 2 != 0:
                raise ValueError(f"row {i} carries a non-Hermitian phase")
            sign = "+" if self.phase[i] % 4 == 0 else "-"
            letters = []
            for q in range(self.x.shape[1]):
                xab = (int(self.x[i, q]), int(self.z[i, q]))
                letters.append({(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[xab])
            out.append(sign + "".join(letters))
        return out


def _word_bits(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    x = np.fromiter((c in "XY" for c in p.letters), dtype=np.int64, count=p.n)
    z = np.fromiter((c in "ZY" for c in p.letters), dtype=np.int64, count=p.n)
    return x, z


def _phase_of_product(x1, z1, x2, z2) -> int:
    """Exponent of i picked up in W(x1,z1) * W(x2,z2), mod 4."""
    y1 = x1 * z1
    only_x1 = x1 * (1 - z1)
    only_z1 = (1 - x1) * z1
    g = y1 * (z2 - x2) + only_x1 * (z2 * (2 * x2 - 1)) + only_z1 * (x2 * (1 - 2 * z2))
    return int(g.sum()) % 4


def _multiply_into(x1, z1, ph1, x2, z2, ph2) -> tuple[np.ndarray, np.ndarray, int]:
    """Product of two commuting Hermitian rows; phase stays even."""
    ph = (ph1 + ph2 + _phase_of_product(x1, z1, x2, z2)) % 4
    return x1 ^ x2, z1 ^ z2, ph


def tableau_init(plan: ReductionPlan) -> Tableau:
    """Product-state tableau: single-qubit X for |+> qubits, Z for |0>."""
    n = plan.n
    x = np.zeros((n, n), dtype=np.int64)
    z = np.zeros((n, n), dtype=np.int64)
    for v, basis in enumerate(plan.init_basis):
        if basis == PLUS:
            x[v, v] = 1
        else:
            z[v, v] = 1
    return Tableau(x=x, z=z, phase=np.zeros(n, dtype=np.int64))


class ProjectionResult(NamedTuple):
    tableau: Tableau
    deterministic: bool
    sign: int  # +1 or -1; for the random branch the +1 outcome is kept


def project_generator(t: Tableau, p: PauliString) -> ProjectionResult:
    """Even-parity projection of a Pauli word onto the tableau's state.

    If the word anticommutes with some rows, the first such row is replaced
    by the word (outcome forced to +1, as negative outcomes are tracked
    classically) and the other anticommuting rows are fixed up by row
    multiplication. If it commutes with every row it is already determined;
    the tableau is unchanged and the determined sign is reported.
    """
    if p.sign != 1:
        raise ValueError("projections target the +1 (even parity) eigenspace")
    if p.n != t.n:
        raise ValueError(f"word length {p.n} does not match tableau size {t.n}")
    xp, zp = _word_bits(p)
    sym = (t.x @ zp + t.z @ xp) % 2
    anti = np.flatnonzero(sym)
    if anti.size == 0:
        basis = _GroupBasis.from_tableau(t)
        phase = basis.phase_of_member(xp, zp)
        if phase is None:
            # cannot happen for a full-rank tableau; guard for malformed input
            raise ValueError("word commutes with all rows but is outside the group")
        return ProjectionResult(tableau=t, deterministic=True, sign=1 if phase == 0 else -1)
    pivot = int(anti[0])
    x = t.x.copy()
    z = t.z.copy()
    ph = t.phase.copy()
    for r in anti[1:]:
        xr, zr, phr = _multiply_into(x[r], z[r], int(ph[r]), x[pivot], z[pivot], int(ph[pivot]))
        x[r], z[r], ph[r] = xr, zr, phr
    x[pivot] = xp
    z[pivot] = zp
    ph[pivot] = 0
    return ProjectionResult(tableau=Tableau(x=x, z=z, phase=ph), deterministic=False, sign=1)


class _GroupBasis:
    """Echelonized group presentation supporting sign-aware membership."""

    def __init__(self, n: int):
        self.n = n
        self.by_pivot: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}

    @classmethod
    def from_tableau(cls, t: Tableau) -> "_GroupBasis":
        basis = cls(t.n)
        for i in range(t.n):
            basis.insert(t.x[i].copy(), t.z[i].copy(), int(t.phase[i]))
        return basis

    @staticmethod
    def _pivot(x, z) -> int | None:
        nz = np.flatnonzero(np.concatenate([x, z]))
        return int(nz[0]) if nz.size else None

    def insert(self, x, z, ph) -> bool:
        while True:
            piv = self._pivot(x, z)
            if piv is None:
                return False
            row = self.by_pivot.get(piv)
            if row is None:
                self.by_pivot[piv] = (x, z, ph)
                return True
            x, z, ph = _multiply_into(x, z, ph, row[0], row[1], row[2])

    @property
    def rank(self) -> int:
        return len(self.by_pivot)

    def phase_of_member(self, xp, zp) -> int | None:
        """Phase the group assigns to the word (x, z); None if outside the span."""
        x = xp.copy()
        z = zp.copy()
        ph = 0
        while True:
            piv = self._pivot(x, z)
            if piv is None:
                return ph % 4
            row = self.by_pivot.get(piv)
            if row is None:
                return None
            x, z, ph = _multiply_into(x, z, ph, row[0], row[1], row[2])


def stabilizer_groups_equal(t: Tableau, target: list[PauliString]) -> bool:
    """True iff the tableau's group and the target generators span the same
    GF(2) subspace and every target carries sign +1 inside the group."""
    if len(target) != t.n:
        raise ValueError(f"expected {t.n} target generators, got {len(target)}")
    return _group_mismatch(t, target) is None


def _group_mismatch(t: Tableau, target: list[PauliString]) -> str | None:
    """Why some target generator is not in the tableau's full-rank group
    with its own sign, or None if every one is."""
    basis = _GroupBasis.from_tableau(t)
    if basis.rank != t.n:
        return "tableau rows are GF(2)-dependent"
    for i, gen in enumerate(target):
        phase = basis.phase_of_member(*_word_bits(gen))
        if phase is None:
            return f"generator g{i} not in final group"
        if phase != (0 if gen.sign == 1 else 2):
            return f"generator g{i} has sign {'+1' if phase == 0 else '-1'} in final group"
    return None


def check_tableau(t: Tableau) -> None:
    """Assert tableau invariants: even phases, pairwise commutation, full rank."""
    if np.any(t.phase % 2 != 0):
        raise AssertionError("odd (non-Hermitian) phase in tableau")
    comm = (t.x @ t.z.T + t.z @ t.x.T) % 2
    if np.any(comm):
        raise AssertionError("tableau rows do not pairwise commute")
    if _GroupBasis.from_tableau(t).rank != t.n:
        raise AssertionError("tableau rows are GF(2)-dependent")


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    checked_generators: int
    failure: str | None = None

    def to_json_dict(self) -> dict:
        return {"pass": self.ok, "checked_generators": self.checked_generators, "failure": self.failure}


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
                    ok=False,
                    checked_generators=checked,
                    failure=f"generator g{block.gen} came out determined with sign -1",
                )
            t = result.tableau
    failure = _group_mismatch(t, gens)
    return VerifyReport(ok=failure is None, checked_generators=checked, failure=failure)


def oracle_min_rounds(blocks) -> int:
    """Exact minimum number of pairwise-disjoint rounds, by exhaustive
    branch and bound. Limited to 12 blocks."""
    items: list[AncillaBlock] = sorted(blocks, key=lambda b: (b.L, b.R))
    if len(items) > ORACLE_MAX_BLOCKS:
        raise ValueError(f"oracle limited to {ORACLE_MAX_BLOCKS} blocks, got {len(items)}")
    if not items:
        return 0
    best = len(items)

    def dfs(i: int, round_max_r: list[int]) -> None:
        nonlocal best
        if len(round_max_r) >= best:
            return
        if i == len(items):
            best = len(round_max_r)
            return
        b = items[i]
        for r in range(len(round_max_r)):
            if b.L > round_max_r[r]:
                saved = round_max_r[r]
                round_max_r[r] = b.R
                dfs(i + 1, round_max_r)
                round_max_r[r] = saved
        round_max_r.append(b.R)
        dfs(i + 1, round_max_r)
        round_max_r.pop()

    dfs(0, [])
    return best


def oracle_min_cut(g: Graph) -> int:
    """Exact minimum cut by enumerating all nontrivial bipartitions (n <= 12)."""
    if not (2 <= g.n <= ORACLE_MAX_VERTICES):
        raise ValueError(f"oracle requires 2 <= n <= {ORACLE_MAX_VERTICES}, got {g.n}")
    edges = g.sorted_edges()
    best = len(edges) + 1
    # vertex 0 stays on side A; masks choose side B among vertices 1..n-1
    for mask in range(1, 1 << (g.n - 1)):
        cut = 0
        for a, b in edges:
            in_b_a = a != 0 and (mask >> (a - 1)) & 1
            in_b_b = b != 0 and (mask >> (b - 1)) & 1
            if in_b_a != in_b_b:
                cut += 1
        if cut < best:
            best = cut
    return best

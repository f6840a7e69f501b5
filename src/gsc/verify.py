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
Per-qubit masks over row indices find the rows each projection
anticommutes with (see ``replay``), and the final group is checked in
graph-state form (see ``_is_graph_state``); only a tableau that fails that
check is echelonized, to name the generator it lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

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


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def replay(plan: ReductionPlan, order, gens: list[Row]) -> list[Row]:
    """The tableau ``tableau_init(plan)`` after the even-parity projection of
    gens[w], the graph's generator rows, for each w of ``order`` in turn.

    Each projection must have a random outcome: the lowest row that
    anticommutes with g_w is the pivot, the other anticommuting rows are
    multiplied by it, and the pivot is replaced by g_w (outcome forced to
    +1, as negative outcomes are tracked classically). A g_w that commutes
    with every row raises ValueError; ``verify_compilation`` shows that no
    schedule covering its plan meets one.

    Row r anticommutes with g_w when it has Z on w or X on an odd number of
    w's neighbours, and two facts find these rows without a scan of all of
    them. First, a row replaced by a generator commutes with every other
    generator, so no later projection touches it; call the other rows live.
    Live rows are products of initial rows, each X_v (v in the plan's set)
    or Z_v, and Z_v anticommutes with g_w only for w = v. So Z_w's row is
    untouched until w's projection, and every other live row has Z only on
    qubits already projected (by induction: a pivot is Z_w's row or has
    that property). Second, the masks xcol[q] over row indices hold the
    live rows with X on q. The rows anticommuting with g_w are thus Z_w's
    row, if w is outside the set, XORed with xcol[q] over q in N(w): one
    XOR per neighbour. Each projection XORs the anticommuting rows into the
    masks of the pivot's X support, which updates the multiplied rows and
    takes the pivot out at once, and ``xs`` masks the qubits whose mask is
    not empty. A word projected twice is a row by then, so it commutes
    with every row.

    The products need no phase. Each live row is a product of initial
    rows, so it has X only on the plan's set, Z only off it and sign +1.
    Two such rows share no qubit where one has X and the other Z, so the
    product's phase, ``_phase_of_product``, is 0, and their product is a
    row of the same kind: XOR the bits, keep phase 0.
    """
    rows = tableau_init(plan)
    xcol = [x for x, _, _ in rows]
    first_z = [z for _, z, _ in rows]  # Z_w's row, or none, at w's projection
    xs = sum(xcol)  # distinct bits, so their OR
    done = 0
    for w in order:
        bit = 1 << w
        anti = 0 if done & bit else reduce(xor, map(xcol.__getitem__, _bits(gens[w][1] & xs)), first_z[w])
        if not anti:
            raise ValueError("word commutes with every row: its outcome is already determined")
        done |= bit
        low = anti & -anti
        pivot = low.bit_length() - 1
        xp, zp, _ = rows[pivot]
        for r in _bits(anti ^ low):  # the other anticommuting rows, times the pivot
            x, z, _ = rows[r]
            rows[r] = x ^ xp, z ^ zp, 0
        for q in _bits(xp):
            xcol[q] ^= anti
            if not xcol[q]:
                xs ^= 1 << q
        rows[pivot] = gens[w]
    return rows


def product_row(nbr: list[int], x: int) -> Row:
    """The product of the generators g_v over the vertices v in ``x``, where
    nbr[v] masks v's neighbours: X on x, Z on the XOR of their
    neighbourhoods, and phase 2|E(x)| - |x & z| mod 4, E(x) being the
    edges inside x (Hein, Eisert & Briegel 2004).

    Moving every X of the product to the left passes Z_N(u) over X_v for
    each u listed before v, a sign -1 for each edge inside x, and
    X^x Z^z = i^-|x & z| W(x, z) since Y = iXZ.
    """
    z = inner = 0  # inner counts each edge inside x twice
    for hood in map(nbr.__getitem__, _bits(x)):
        z ^= hood
        inner += (hood & x).bit_count()
    return x, z, (inner - (x & z).bit_count()) % 4


def _is_graph_state(rows: list[Row], gens: list[Row]) -> bool:
    """Whether ``rows``, a replay's tableau, generate the graph state's
    group, signs included: exactly when ``_group_mismatch(rows, gens)`` is
    None, at the cost of one pass over the rows' X parts.

    The rows pass when each is the product of the generators g_v over v in
    its X part, and the X parts are GF(2)-independent.

    Proof. The product of the g_v over v in S has X part S, so S maps
    GF(2)-linearly and one to one onto G, the graph state's group of 2^n
    signed words, each the only member of G with its X part. If the rows
    pass, they are n independent members of G, so they generate G, which
    holds every g_v with sign +1: ``_group_mismatch`` returns None.
    Conversely, say it returns None. The replay keeps the rows pairwise
    commuting, and they are independent, so they generate a group with one
    signed word per vector of their span, 2^n in all, and it holds every
    g_v with sign +1. It thus holds G and, as large, equals it. Each row is
    then the member of G with its X part, and the X parts, the rows'
    images under the inverse map, are independent.

    Rows with one X are checked as generators, and the rest, whose X parts
    must be independent modulo those single qubits, are echelonized with
    those qubits masked out.
    """
    nbr = [z for _, z, _ in gens]
    single = 0  # the qubits that are some row's whole X part
    rest = []
    for row in rows:
        x = row[0]
        if x & (x - 1):
            if row != product_row(nbr, x):
                return False
            rest.append(x)
        elif not x or x & single or row != gens[x.bit_length() - 1]:
            return False
        else:
            single |= x
    basis: dict[int, int] = {}  # by lowest set bit
    others = ~single
    for x in rest:
        x &= others
        while x:
            low = x & -x
            if low not in basis:
                basis[low] = x
                break
            x ^= basis[low]
        else:  # reduced to nothing: dependent
            return False
    return True


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
    measured = plan.measured.tolist()
    order = schedule.gen.tolist()
    if sorted(order) != measured:
        missing = set(measured) - set(order)
        extra = set(order) - set(measured)
        raise ValueError(
            f"schedule does not cover the plan: missing {sorted(missing)}, extra {sorted(extra)}"
        )
    gens = stabilizer_generators(g)
    rows = replay(plan, order, gens)
    # the echelon check only names what a failing tableau lacks
    failure = None if _is_graph_state(rows, gens) else _group_mismatch(rows, gens)
    return VerifyReport(checked_generators=len(order), failure=failure)

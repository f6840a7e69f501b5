"""End-to-end pipeline: reduce generators, map vertices, schedule, verify, cost.

Cost model: every multi-patch parity measurement costs 1 Tock, so the Tock
count equals the number of schedule rounds (initialization and single-patch
measurement are free). The full 2-row layout uses 4n tiles; qubits
initialized in |+> never join a measurement in the X basis and shrink to
one tile, leaving 4n - |independent set| tiles. Space-time volume is
reduced tiles times Tocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import ClassVar

from .graph import Graph, is_connected, json_fields, json_int, json_ints, json_loads
from .mapping import AUTO, DEFAULT_CONTRACTION_BUDGET, MAPPERS, Mapping
from .scheduler import SCHEDULERS, Schedule, build_blocks, validate_schedule
from .stabilizer import PLUS, ZERO, ReductionPlan, greedy_maximal_independent_set, reduce_generators
from .verify import verify_compilation

VERIFY_MODES = ("auto", "never")


class DisconnectedGraphError(ValueError):
    """Input graph is not connected; the pipeline only handles one component."""


class VerificationError(RuntimeError):
    """A compiled schedule failed self-validation; never emit it silently."""


@dataclass(frozen=True)
class CompileOptions:
    mapper: str = "mincut"
    scheduler: str = "paper"
    seed: int = 0
    verify: str = "auto"  # never: skip the tableau, as timed benchmarks do
    # Fixed settings, not fields: no caller needs another value. The benchmark's
    # replay of compile_graph (perfbench/child.py) reads these, basic_mapping,
    # mincut_mapping's keywords and ValidationReport.lower_bound, so they stay.
    karger_reps: ClassVar[str] = AUTO
    karger_budget: ClassVar[int] = DEFAULT_CONTRACTION_BUDGET
    mis_order: ClassVar[str] = "degree_ascending"
    verify_cap: ClassVar[int] = 200  # largest n replayed on the tableau

    def tableau_runs(self, n: int) -> bool:
        """Whether ``compile_graph`` and ``verify_result`` also replay n vertices on the tableau."""
        return self.verify == "auto" and n <= self.verify_cap

    def __post_init__(self):
        for name, allowed in (("mapper", MAPPERS), ("scheduler", SCHEDULERS),
                              ("verify", VERIFY_MODES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}")


@dataclass(frozen=True)
class CompilationResult:
    """A plan, mapping and schedule that ``_check`` has passed; every other value is derived."""

    plan: ReductionPlan
    mapping: Mapping
    schedule: Schedule

    @property
    def n(self) -> int:
        return self.plan.n

    @property
    def tocks(self) -> int:
        return self.schedule.tocks

    @property
    def tiles_full(self) -> int:
        return 4 * self.n

    @property
    def tiles_reduced(self) -> int:
        return 4 * self.n - len(self.plan.independent_set)

    @property
    def spacetime_volume(self) -> int:
        return self.tiles_reduced * self.tocks

    def to_json_text(self) -> str:
        """The result format, in the layout of ``json.dumps(indent=2)`` plus a
        final newline, byte for byte; the one writer of a stored result.

        The json module serves ``indent`` with its pure-Python encoder, so the
        long integer lists and the blocks are joined here in the same layout.
        """
        plan, schedule = self.plan, self.schedule
        blocks = list(map(_BLOCK.__mod__, zip(schedule.gen.tolist(), schedule.L.tolist(), schedule.R.tolist())))
        bounds = schedule.offsets.tolist()
        rounds = [_json_list(blocks[a:b], 8) for a, b in zip(bounds, bounds[1:])]
        return (
            "{\n"
            f'  "n": {self.n},\n'
            '  "plan": {\n'
            f'    "independent_set": {_json_list(map(str, sorted(plan.independent_set)), 6)},\n'
            f'    "init": {json.dumps(plan.init_string)},\n'
            f'    "measured": {_json_list(map(str, plan.measured.tolist()), 6)}\n'
            "  },\n"
            f'  "mapping": {_json_list(map(str, self.mapping.pos.tolist()), 4)},\n'
            '  "schedule": {\n'
            f'    "rounds": {_json_list(rounds, 6)},\n'
            f'    "tocks": {schedule.tocks},\n'
            f'    "lower_bound": {schedule.lower_bound}\n'
            "  },\n"
            f'  "tocks": {self.tocks},\n'
            f'  "tiles_full": {self.tiles_full},\n'
            f'  "tiles_reduced": {self.tiles_reduced},\n'
            f'  "spacetime_volume": {self.spacetime_volume},\n'
            '  "verified": true\n}\n'
        )

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CompilationResult":
        """Read a stored result. ``n``, ``verified``, ``init`` and ``measured`` are type-checked
        but not kept: they follow from the rest, and ``verify_result`` compares them."""
        n, plan, mapping, schedule, verified = json_fields(
            obj, "result", "n", "plan", "mapping", "schedule", "verified"
        )
        if type(verified) is not bool:
            raise TypeError(f"result verified must be true or false, got {verified!r}")
        json_int(n, "result n")
        independent, init, measured = json_fields(plan, "plan", "independent_set", "init", "measured")
        if not isinstance(init, str):
            raise TypeError(f"plan init must be a string, got {init!r}")
        if not set(init) <= {PLUS, ZERO}:
            raise ValueError(f"invalid init bases {[c for c in init if c not in (PLUS, ZERO)]}")
        json_ints(measured, "plan measured")
        plan = ReductionPlan(len(init), frozenset(json_ints(independent, "plan independent_set")))
        mapping = Mapping(pos=json_ints(mapping, "result mapping"))
        (rounds,) = json_fields(schedule, "schedule", "rounds")
        if not isinstance(rounds, list) or not all(map(isinstance, rounds, repeat(list))):
            raise TypeError("schedule rounds must be a list of lists of blocks")
        try:
            # one flat list of ints: a tuple per block would cost full garbage collections over the JSON
            values = list(chain.from_iterable(map(_BLOCK_FIELDS, chain.from_iterable(rounds))))
            ints = {*map(type, values)} <= {int}
        except (KeyError, TypeError):  # a block that is not an object, or lacks a field
            ints = False
        if not ints:
            # naming each block costs more than the whole check, so blocks are
            # named only once one of them is known to be bad
            for rnd in rounds:
                for b in rnd:
                    json_ints(json_fields(b, "block", "gen", "L", "R"), "block")
        try:
            schedule = Schedule.of(values, map(len, rounds))
        except OverflowError:
            raise ValueError("block values must fit in 64 bits") from None
        return cls(plan=plan, mapping=mapping, schedule=schedule)


_BLOCK_FIELDS = itemgetter("gen", "L", "R")

# One block of a round, as json.dumps(indent=2) lays it out at that depth.
_BLOCK = '{\n          "gen": %d,\n          "L": %d,\n          "R": %d\n        }'


def _json_list(items, indent: int) -> str:
    """A JSON list of already encoded items, one per line at ``indent`` spaces,
    closed two spaces further out: the layout of json.dumps(indent=2)."""
    pad = "\n" + " " * indent
    body = ("," + pad).join(items)
    return f"[{pad}{body}{pad[:-2]}]" if body else "[]"


def _check(g: Graph, plan: ReductionPlan, schedule: Schedule, blocks, tableau: bool) -> None:
    """Raise VerificationError unless the schedule measures exactly the plan's
    blocks in disjoint rounds and, if ``tableau``, the replay reaches the graph state.

    Passing certifies the graph state at any size, with or without the
    tableau, once ``reduce_generators`` has accepted the plan's set. The
    proof follows Phase 1 of the paper, with each random outcome kept at +1
    and its sign tracked classically, as the tableau does:

    - All graph-state generators commute.
    - For v in the set I, g_v = X_v Z_N(v) is in the initial group, because
      N(v) lies outside I and starts in |0>.
    - Each measured g_w, w outside I, starts outside the group: no member has
      X on w until g_w itself is measured. So each measurement is random and
      adds g_w.
    - After every measurement the n independent generators span the graph
      state, whatever the order of the rounds.

    So "I is independent, the measured set is its complement, and
    ``validate_schedule`` passes" is a complete certificate:
    ``reduce_generators`` checks the set, the plan derives the complement,
    and this function checks the schedule. Maximality, which
    ``reduce_generators`` also checks, is not needed for the state. The
    tableau is an independent oracle of the same fact.
    """
    report = validate_schedule(schedule, blocks)
    if not report.ok:
        raise VerificationError("schedule violations: " + "; ".join(report.violations))
    if tableau:
        vr = verify_compilation(g, plan, schedule)
        if not vr.ok:
            raise VerificationError(f"compiled procedure failed verification: {vr.failure}")


def compile_graph(g: Graph, options: CompileOptions | None = None) -> CompilationResult:
    """Run the three-phase pipeline and return the costed, validated result.

    Deterministic for fixed options. Raises DisconnectedGraphError on
    disconnected input and VerificationError if the produced schedule fails
    its certificate or, where ``tableau_runs`` says so, the tableau check.
    """
    opts = options or CompileOptions()
    if not is_connected(g):
        raise DisconnectedGraphError(f"input graph with {g.n} vertices is not connected")
    plan = reduce_generators(g, greedy_maximal_independent_set(g))
    mapping = MAPPERS[opts.mapper](g, seed=opts.seed)
    blocks = build_blocks(g, plan.measured, mapping)
    schedule = SCHEDULERS[opts.scheduler](blocks)
    _check(g, plan, schedule, blocks, tableau=opts.tableau_runs(g.n))
    return CompilationResult(plan=plan, mapping=mapping, schedule=schedule)


def _mismatched_fields(want: dict, got: dict, prefix: str = "") -> list[str]:
    """Keys whose values differ as JSON text, so 1, 1.0 and true all differ;
    the order of keys, also of the blocks' keys inside a list, does not count."""
    bad = []
    for key in sorted(want.keys() | got.keys()):
        a, b = want.get(key), got.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            bad += _mismatched_fields(a, b, f"{prefix}{key}.")
        elif json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            bad.append(prefix + key)
    return bad


def verify_result(g: Graph, text: str) -> CompilationResult:
    """Check a stored result, the JSON text ``to_json_text`` writes, against its graph.

    The plan builder checks the stored independent set, the stored
    schedule is validated against the re-derived blocks and, where
    ``tableau_runs`` says so, replayed on the tableau, and every stored field
    must equal the re-derived result's. Raises TypeError or ValueError on a
    malformed text or a size mismatch, and VerificationError on any wrong value.
    """
    obj = json_loads(text)
    stored = CompilationResult.from_json_dict(obj)
    if stored.n != g.n:
        raise ValueError(f"result describes {stored.n} qubits but graph has {g.n} vertices")
    try:
        plan = reduce_generators(g, stored.plan.independent_set)
    except ValueError as exc:
        raise VerificationError(f"stored independent set: {exc}") from None
    # an equal plan, which keeps the membership mask the check built
    stored = CompilationResult(plan=plan, mapping=stored.mapping, schedule=stored.schedule)
    blocks = build_blocks(g, plan.measured, stored.mapping)
    _check(g, plan, stored.schedule, blocks, tableau=CompileOptions().tableau_runs(g.n))
    want = stored.to_json_text()
    # a text gsc compile wrote equals the re-derived one; any other layout of
    # the same values passes the field walk, which also names what differs
    if want != text:
        bad = _mismatched_fields(json.loads(want), obj)
        if bad:
            raise VerificationError("stored fields differ from the re-derived result: " + ", ".join(bad))
    return stored

"""Run one workload in this fresh process and print its raw measurements.

``run.py`` starts this script; it is not meant to be run by hand. With
``--mode setup`` it only imports ``gsc`` and generates the graphs. With
``--mode run`` it then compiles the graphs in passes until ``--seconds`` are
used, re-checks small results with ``gsc verify``, checks every result with
the benchmark's own checker, and prints one JSON line on stdout. Spans of a
traced run are written to ``out/`` next to this file when the run ends.

With ``--trace 1`` each pass without tracing is followed by a pass that
replays ``compile_graph`` call by call through the public functions of each
layer, with a span around every call. The replay must produce the same
result JSON, byte for byte, as ``compile_graph`` did.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MAX_ERRORS_SHOWN = 5
VERIFY_SHARE = 0.4  # seconds of ``gsc verify`` per second of compiling


@dataclasses.dataclass
class Case:
    """One compile of one graph: an entry of the workload and its copy."""

    ident: str
    kind: str
    entry: workloads.Entry
    graph: object
    options: object
    adj: list | None = None  # the checker's own adjacency lists
    graph_path: Path | None = None
    text: str | None = None  # result JSON of the first pass
    verdict: check.Verdict | None = None


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(message)


class Samples:
    """Timings and counts per metric and per case, one value per call.

    A metric's figure is the sum over cases of each case's fastest call.
    On a shared host the same call can run up to twice as slow for seconds
    or tens of seconds at a time, often for most of a run, which moves a
    median by a third between identical runs; the fastest call moves far
    less. Counts are the same in every call.
    """

    def __init__(self):
        self.values: dict[str, dict[str, list[float]]] = {}

    def add(self, metric: str, ident: str, value: float) -> None:
        self.values.setdefault(metric, {}).setdefault(ident, []).append(value)

    def total(self, metric: str) -> float:
        return sum(min(v) for v in self.values.get(metric, {}).values())


class Tracer:
    """Spans kept in memory: [name, instance, parent index, start ns, end ns]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, instance: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, instance, parent, time.perf_counter_ns(), 0])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][4] = time.perf_counter_ns()


def setup(workload: str, seed: int, tracer: Tracer):
    """Import gsc and generate the workload's graphs; the timed set-up."""
    src = ROOT / "src"
    if not (src / "gsc" / "__init__.py").is_file():
        sys.exit(f"error: no gsc package under {src}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import gsc
    import gsc.cli  # noqa: F401  (gsc verify is part of every workload)

    graphs = {}
    cases = []
    for idx, entry in enumerate(workloads.WORKLOADS[workload].entries):
        kind, n, m = workloads.parse_spec(entry.spec)
        for copy in range(entry.copies):
            key = (entry.spec, copy)
            sub_seed = random.Random(f"perfbench:{seed}:{entry.spec}:{copy}").getrandbits(32)
            if key not in graphs:
                with tracer.span("graph.generate", f"{entry.spec}#{copy}"):
                    graphs[key] = gsc.generate(kind, n, m=m, seed=sub_seed)
            options = gsc.CompileOptions(
                mapper=entry.mapper, scheduler=entry.scheduler, seed=sub_seed, verify="auto"
            )
            ident = f"{idx}:{entry.spec}#{copy}:{entry.mapper}:{entry.scheduler}"
            cases.append(Case(ident, kind, entry, graphs[key], options))
    setup_s = time.perf_counter() - t0
    if gsc.__file__ != str(src / "gsc" / "__init__.py"):
        sys.exit(f"error: imported gsc from {gsc.__file__}, not from {src}")
    return cases, setup_s


def write_graph(path: Path, graph) -> None:
    path.write_text(json.dumps({"n": graph.n, "edges": sorted(graph.edges)}), encoding="utf-8")


def record(case: Case, text: str, tally: Tally) -> bool:
    """Check a result's JSON: the first one with the reference checker, every
    later one by byte comparison with the first."""
    if case.text is None:
        case.text = text
        case.verdict = check.check_result(
            case.adj, json.loads(text), case.kind, case.entry.mapper
        )
    elif text != case.text:
        tally.fail(f"{case.ident}: result JSON differs from the first pass")
        return False
    if case.verdict.violations:
        tally.fail(f"{case.ident}: " + "; ".join(case.verdict.violations[:3]))
        return False
    return True


def gsc_verify(case: Case, text: str, workdir: Path, tally: Tally, tracer: Tracer | None) -> float:
    """Write the result and re-check it with ``gsc verify``; return seconds
    spent in the ``gsc verify`` call."""
    from gsc import cli

    result_path = workdir / "result.json"
    with tracer.span("cli.emit", case.ident) if tracer else contextlib.nullcontext():
        result_path.write_text(text, encoding="utf-8")
    argv = ["verify", "--graph", str(case.graph_path), "--result", str(result_path)]
    out = io.StringIO()
    tally.attempted += 1
    t = time.perf_counter()
    with tracer.span("cli.verify", case.ident) if tracer else contextlib.nullcontext():
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    elapsed = time.perf_counter() - t
    if code != 0 or not out.getvalue().startswith("PASS"):
        tally.fail(f"{case.ident}: gsc verify exited {code}")
    return elapsed


def untraced_pass(cases, workdir: Path, tally: Tally, samples: Samples) -> None:
    """Compile every case with ``compile_graph`` and re-check small results
    with ``gsc verify``, timing both calls.

    ``gsc verify`` takes a tenth of the time of a compile, so one call per
    pass would sample it too seldom to find the host's quiet spells. After
    each compile the stored small results are re-checked in rounds until
    re-checking has taken VERIFY_SHARE of the time spent compiling, which
    spreads many ``gsc verify`` samples over the whole run.
    """
    from gsc import compile_graph

    compiling = verifying = 0.0
    for case in cases:
        tally.attempted += 1
        t = time.perf_counter()
        try:
            result = compile_graph(case.graph, case.options)
        except (ValueError, RuntimeError) as exc:
            tally.fail(f"{case.ident}: compile raised {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t
        samples.add("compile_s", case.ident, elapsed)
        compiling += elapsed
        record(case, result.to_json_text(), tally)
        stored = [
            c for c in cases
            if c.graph_path is not None and c.verdict and not c.verdict.violations
        ]
        while stored and verifying < VERIFY_SHARE * compiling:
            for c in stored:
                elapsed = gsc_verify(c, c.text, workdir, tally, None)
                samples.add("verify_s", c.ident, elapsed)
                verifying += elapsed


def replay_compile(g, opts, tracer: Tracer, ident: str):
    """``compile_graph`` call by call, with a span around each layer's call.

    Returns the result and this compile's counts.
    """
    from gsc import CompilationResult, VerificationError, is_connected
    from gsc.mapping import basic_mapping, mincut_mapping
    from gsc.scheduler import SCHEDULERS, build_blocks, validate_schedule
    from gsc.stabilizer import greedy_maximal_independent_set, reduce_generators
    from gsc.verify import verify_compilation

    span = tracer.span
    with span("compiler.compile", ident):
        if not is_connected(g):
            raise ValueError("input graph is not connected")
        with span("stabilizer.mis", ident):
            independent = greedy_maximal_independent_set(g, order=opts.mis_order, seed=opts.seed)
        with span("stabilizer.reduce", ident):
            plan = reduce_generators(g, independent)
        with span("mapping.map", ident):
            if opts.mapper == "mincut":
                mapping = mincut_mapping(
                    g,
                    repetitions_per_cut=opts.karger_reps,
                    seed=opts.seed,
                    contraction_budget=opts.karger_budget,
                )
            else:
                mapping = basic_mapping(g, kind=opts.mapper, seed=opts.seed)
        with span("scheduler.blocks", ident):
            blocks = build_blocks(g, plan.measured, mapping)
        with span("scheduler.schedule", ident):
            schedule = SCHEDULERS[opts.scheduler](blocks)
        with span("scheduler.validate", ident):
            report = validate_schedule(schedule, blocks)
        if not report.ok:
            raise VerificationError("; ".join(report.violations))
        projections = 0
        verified = opts.verify == "always" or (opts.verify == "auto" and g.n <= opts.verify_cap)
        if verified:
            with span("verify.tableau", ident):
                vr = verify_compilation(g, plan, schedule)
            if not vr.ok:
                raise VerificationError(vr.failure)
            projections = vr.checked_generators
        tiles_reduced = 4 * g.n - len(independent)
        values = {
            "n": g.n,
            "plan": plan,
            "mapping": mapping,
            "schedule": schedule,
            "tocks": schedule.tocks,
            "tiles_full": 4 * g.n,
            "tiles_reduced": tiles_reduced,
            "spacetime_volume": tiles_reduced * schedule.tocks,
            "verified": verified,
        }
        # Pass only the fields the result type declares, so the replay keeps
        # working if the result derives some of them instead of storing them.
        result = CompilationResult(
            **{f.name: values[f.name] for f in dataclasses.fields(CompilationResult) if f.init}
        )
    counts = {
        "stabilizer.mis_size": len(independent),
        "stabilizer.measured": len(plan.measured),
        "mapping.span_sum": sum(b.R - b.L + 1 for b in blocks),
        "mapping.lower_bound": report.lower_bound,
        "scheduler.gap": schedule.tocks - report.lower_bound,
        "verify.projections": projections,
        "verify.skipped": 0 if verified else 1,
    }
    return result, counts


SPAN_METRICS = (
    "stabilizer.mis",
    "stabilizer.reduce",
    "mapping.map",
    "scheduler.blocks",
    "scheduler.schedule",
    "scheduler.validate",
    "verify.tableau",
    "compiler.compile",
    "cli.emit",
    "cli.verify",
)


def traced_pass(cases, workdir: Path, tally: Tally, tracer: Tracer, samples: Samples) -> None:
    """Replay every case with spans and record its per-layer figures."""
    for case in cases:
        first = len(tracer.spans)
        tally.attempted += 1
        try:
            result, counts = replay_compile(case.graph, case.options, tracer, case.ident)
        except (ValueError, RuntimeError) as exc:
            tally.fail(f"{case.ident}: replay raised {type(exc).__name__}: {exc}")
            continue
        with tracer.span("cli.emit", case.ident):
            text = result.to_json_text()
        if record(case, text, tally) and case.graph_path is not None:
            gsc_verify(case, text, workdir, tally, tracer)
        ms = dict.fromkeys(SPAN_METRICS, 0.0)
        child_ms = 0.0
        for name, _, parent, start, end in tracer.spans[first:]:
            ms[name] += (end - start) / 1e6
            if parent >= 0 and tracer.spans[parent][0] == "compiler.compile":
                child_ms += (end - start) / 1e6
        ms["compiler.other"] = ms["compiler.compile"] - child_ms
        for name, value in ms.items():
            samples.add(f"{name}_ms", case.ident, value)
        for name, value in counts.items():
            samples.add(name, case.ident, value)


def run(args) -> dict:
    tracer = Tracer()
    cases, setup_s = setup(args.workload, args.seed, tracer)
    generate_ms = sum(end - start for _, _, _, start, end in tracer.spans) / 1e6
    if args.mode == "setup":
        return {"setup_s": setup_s, "generate_ms": generate_ms}

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        for i, case in enumerate(cases):
            case.adj = check.neighbours(case.graph.n, case.graph.edges)
            if case.graph.n <= workloads.ROUNDTRIP_MAX_N:
                case.graph_path = workdir / f"graph-{i}.json"
                write_graph(case.graph_path, case.graph)
        tally = Tally()
        untraced = Samples()
        traced = Samples()
        passes = 0
        t0 = time.perf_counter()
        while True:
            # Collect the previous pass's garbage outside the timed calls.
            gc.collect()
            start = time.perf_counter()
            untraced_pass(cases, workdir, tally, untraced)
            if args.trace:
                gc.collect()
                traced_pass(cases, workdir, tally, tracer, traced)
            passes += 1
            now = time.perf_counter()
            if tally.failed or now - t0 + (now - start) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "generate_ms": generate_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "passes": passes,
        "compile_s": untraced.total("compile_s"),
        "verify_s": untraced.total("verify_s"),
    }
    verdicts = [c.verdict for c in cases if c.verdict is not None]
    if len(verdicts) == len(cases):
        out["tocks"] = sum(v.tocks for v in verdicts)
        out["tock_gap"] = sum(v.tocks - v.overlap for v in verdicts)
        out["volume"] = sum(v.volume for v in verdicts)
        out["verified_share"] = sum(json.loads(c.text)["verified"] for c in cases) / len(cases)
    if args.trace:
        layers = {name: traced.total(name) for name in traced.values}
        layers["trace.overhead_ms"] = layers["compiler.compile_ms"] - out["compile_s"] * 1000
        out["layers"] = layers
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(
            json.dumps(
                {
                    "fields": ["name", "instance", "parent", "start_ns", "end_ns"],
                    "spans": tracer.spans,
                }
            ),
            encoding="utf-8",
        )
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    print(json.dumps(run(parser.parse_args())))


if __name__ == "__main__":
    main()

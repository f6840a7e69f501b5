"""Command-line front end: compile single graphs, run experiment sweeps,
re-verify stored results, and emit JSON/CSV for external plotting.

Exit codes: 0 success, 2 parse/format errors, 3 disconnected input,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

from . import graph as graphmod
from .compiler import (
    CompileOptions,
    DisconnectedGraphError,
    VerificationError,
    compile_graph,
    verify_result,
)
from .graph import Graph, GraphFormatError
from .mapping import MAPPERS
from .scheduler import SCHEDULERS

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_VERIFY = 4

DEFAULT_MINCUT_CAP = 300
DEFAULT_DENSITIES = (0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

BENCH_KINDS = ("path", "star", "random_tree", "complete")


class BenchRow(NamedTuple):
    """One CSV row; ``density`` and ``wall_time_ms`` are already formatted."""

    graph_kind: str
    n: int
    edge_count: int
    density: str
    mapper: str
    scheduler: str
    seed: int
    mis_size: int
    measured_count: int
    tocks: int
    lower_bound: int
    tiles_reduced: int
    volume: int
    wall_time_ms: str


def parse_gen_spec(spec: str) -> tuple[str, int, int | None]:
    """Parse ``kind:n[:m]``, e.g. ``path:100`` or ``gnm:100:495``."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise GraphFormatError(f"generator spec must be kind:n[:m], got {spec!r}")
    kind = parts[0]
    if kind not in graphmod.GENERATOR_KINDS:
        raise GraphFormatError(f"unknown generator kind {kind!r}")
    try:
        n = int(parts[1])
        m = int(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise GraphFormatError(f"non-integer size in generator spec {spec!r}") from exc
    return kind, n, m


def _number(kind, token: str, flag: str, spec: str):
    """``kind(token)``, or a GraphFormatError naming the flag and its value."""
    try:
        return kind(token)
    except ValueError:
        raise GraphFormatError(f"{flag} {spec!r}: {token.strip()!r} is not a valid {kind.__name__}") from None


def parse_sizes(spec: str) -> list[int]:
    """Size grid: comma list (``10,50,100``) or doubling range (``10..1000``)."""
    if ".." in spec:
        lo, hi = (_number(int, tok, "--n", spec) for tok in spec.split("..", 1))
        if lo < 1 or hi < lo:
            raise GraphFormatError(f"bad size range {spec!r}")
        sizes = []
        n = lo
        while n < hi:
            sizes.append(n)
            n *= 2
        sizes.append(hi)
        return sizes
    sizes = [_number(int, tok, "--n", spec) for tok in spec.split(",") if tok.strip()]
    if not sizes:
        raise GraphFormatError(f"--n {spec!r} selects nothing")
    if any(n < 1 for n in sizes):
        raise GraphFormatError(f"bad size list {spec!r}: every size must be >= 1")
    return sizes


def _load_input_graph(args) -> Graph:
    if args.gen:
        kind, n, m = parse_gen_spec(args.gen)
        return graphmod.generate(kind, n, m=m, seed=args.seed)
    return graphmod.load_graph(args.input)


def _check_out_path(path: str | None) -> None:
    """Raise the OSError that writing ``path`` would raise if it is a directory
    or its directory does not exist or is a file, before any work starts; the
    file is not touched."""
    if not path:
        return
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not out.parent.exists():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not out.parent.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)


def cmd_compile(args) -> int:
    try:
        options = CompileOptions(mapper=args.mapper, scheduler=args.scheduler, seed=args.seed)
        _check_out_path(args.out)
        g = _load_input_graph(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        result = compile_graph(g, options)
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    text = result.to_json_text()
    summary = (f"n={result.n} tocks={result.tocks} tiles={result.tiles_reduced} "
               f"volume={result.spacetime_volume}")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        g = graphmod.load_graph(args.graph)
        result = verify_result(g, Path(args.result).read_text(encoding="utf-8"))
    except VerificationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    replay = "ran" if CompileOptions().tableau_runs(result.n) else f"skipped above n = {CompileOptions.verify_cap}"
    print(f"PASS: certificate holds, tableau replay {replay}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Bench suites


def _instance_seed(base_seed: int, key: str) -> int:
    return random.Random(f"bench:{base_seed}:{key}").getrandbits(48)


def run_bench_instance(task: dict) -> BenchRow:
    """Worker: build one graph, compile it, return its row."""
    kind = task["kind"]
    n = task["n"]
    m = task.get("m")
    seed = task["seed"]
    g = graphmod.generate(kind, n, m=m, seed=seed)
    options = CompileOptions(
        mapper=task["mapper"],
        scheduler=task["scheduler"],
        seed=seed,
        verify="never",
    )
    t0 = time.perf_counter()
    result = compile_graph(g, options)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return BenchRow(
        graph_kind=task["label"],
        n=n,
        edge_count=g.edge_count,
        density=f"{0.0 if n < 2 else 2.0 * g.edge_count / (n * (n - 1)):.6f}",
        mapper=task["mapper"],
        scheduler=task["scheduler"],
        seed=task["rep"],
        mis_size=len(result.plan.independent_set),
        measured_count=len(result.plan.measured),
        tocks=result.tocks,
        lower_bound=result.schedule.lower_bound,
        tiles_reduced=result.tiles_reduced,
        volume=result.spacetime_volume,
        wall_time_ms=f"{0.0 if task['zero_timings'] else elapsed_ms:.3f}",
    )


def _build_tasks(args) -> list[dict]:
    for name in ("seeds", "workers"):
        if getattr(args, name) < 1:
            raise ValueError(f"--{name} must be at least 1, got {getattr(args, name)}")
    if args.mincut_cap < 0:
        raise ValueError(f"--mincut-cap must be at least 0, got {args.mincut_cap}")
    for flag, value, suite in (("--kind", args.kind, "types"), ("--densities", args.densities, "density"),
                               ("--family", args.family, "scaling")):
        if value is not None and args.suite != suite:
            raise ValueError(f"{flag} applies only to --suite {suite}, not to --suite {args.suite}")
    mappers = [m.strip() for m in args.mappers.split(",") if m.strip()]
    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    for flag, spec, chosen in (("--mappers", args.mappers, mappers),
                               ("--schedulers", args.schedulers, schedulers)):
        if not chosen:
            raise ValueError(f"{flag} {spec!r} selects nothing")
    for mapper in mappers:  # a bad option fails here, before any worker starts
        for sched in schedulers:
            CompileOptions(mapper=mapper, scheduler=sched)
    tasks = []

    def add(kind: str, label: str, n: int, m: int | None, rep: int) -> None:
        graphmod.check_generator_args(kind, n, m)
        for mapper in mappers:
            if mapper == "mincut" and n > args.mincut_cap:
                continue
            for sched in schedulers:
                tasks.append(
                    {
                        "label": label,
                        "kind": kind,
                        "n": n,
                        "m": m,
                        "rep": rep,
                        "seed": _instance_seed(args.seed, f"{label}:{n}:{m}:{rep}"),
                        "mapper": mapper,
                        "scheduler": sched,
                        "zero_timings": args.timings == "zero",
                    }
                )

    if args.suite == "types":
        sizes = parse_sizes(args.n_spec or "10..1000")
        kinds = [args.kind] if args.kind else list(BENCH_KINDS)
        for kind in kinds:
            if kind not in BENCH_KINDS:
                raise GraphFormatError(f"unknown bench kind {kind!r}")
            for n in sizes:
                reps = args.seeds if kind == "random_tree" else 1
                for rep in range(reps):
                    add(kind, kind, n, None, rep)
    elif args.suite == "density":
        sizes = parse_sizes(args.n_spec or "100")
        densities = list(DEFAULT_DENSITIES)
        if args.densities:
            densities = [_number(float, tok, "--densities", args.densities)
                         for tok in args.densities.split(",") if tok.strip()]
            if not densities:
                raise GraphFormatError(f"--densities {args.densities!r} selects nothing")
        for d in densities:
            if not 0 < d <= 1:
                raise ValueError(f"density {d:g} outside (0, 1]")
        for n in sizes:
            total = n * (n - 1) // 2
            for d in densities:
                asked = round(d * total)
                m = max(n - 1, min(total, asked))
                if m > asked:
                    print(f"warning: density {d:g} at n={n} asks for {asked} edges, fewer than the "
                          f"n-1 = {m} a connected graph needs; its rows use {m} edges, "
                          f"density {2 * m / (n * (n - 1)):.6f}", file=sys.stderr)
                for rep in range(args.seeds):
                    add("gnm", f"gnm_d{d:g}", n, m, rep)
    else:
        sizes = parse_sizes(args.n_spec or "10..1000")
        families = [args.family] if args.family else ["sparse", "dense"]
        for family in families:
            for n in sizes:
                total = n * (n - 1) // 2
                if family == "sparse":
                    m = min(total, max(n - 1, math.ceil(n * math.log2(n)) if n > 1 else 0))
                else:
                    m = min(total, max(n - 1, math.ceil(n * n / math.log2(n)) if n > 1 else 0))
                for rep in range(args.seeds):
                    add("gnm", family, n, m, rep)
    if not tasks:
        raise ValueError(f"--mincut-cap {args.mincut_cap} is below every size and mincut is "
                         "the only mapper, so no instance would run")
    return tasks


def cmd_bench(args) -> int:
    try:
        _check_out_path(args.out)
        tasks = _build_tasks(args)
        workers = min(args.workers, len(tasks))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(run_bench_instance, tasks, chunksize=1))
        else:
            rows = [run_bench_instance(task) for task in tasks]
    except ValueError as exc:  # a bad option, or a graph a task cannot generate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([BenchRow._fields, *rows])
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache  # built once per process: building costs more than a small gsc verify
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsc",
        description="Compile graphs into verified parity-check schedules for a "
        "2-row surface-code layout, and benchmark the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="compile one graph and emit the result JSON")
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="input", help="graph file (.json / .adj / .edges)")
    src.add_argument("--gen", help="generator spec kind:n[:m], e.g. path:100 or gnm:100:495")
    pc.add_argument("--mapper", choices=MAPPERS, default="mincut")
    pc.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="paper")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", help="result JSON path (default: stdout)")
    pc.set_defaults(func=cmd_compile)

    pb = sub.add_parser("bench", help="run an experiment sweep and emit CSV")
    pb.add_argument("--suite", choices=("types", "density", "scaling"), required=True)
    pb.add_argument("--kind", help="types suite: restrict to one graph kind")
    pb.add_argument("--n", dest="n_spec", default=None,
                    help="vertex counts: single value, comma list, or doubling "
                    "range a..b (defaults: 10..1000; density suite: 100)")
    pb.add_argument("--densities", help="density suite: comma list of densities")
    pb.add_argument("--family", choices=("sparse", "dense"), help="scaling suite: edge family")
    pb.add_argument("--seeds", type=int, default=10, help="instances per grid point")
    pb.add_argument("--seed", type=int, default=0, help="base seed")
    pb.add_argument("--mappers", default="mincut,random")
    pb.add_argument("--schedulers", default="paper,first-fit")
    pb.add_argument("--mincut-cap", type=int, default=DEFAULT_MINCUT_CAP,
                    help="skip the mincut mapper above this size")
    pb.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                    help="parallel worker processes (default: available cores)")
    pb.add_argument("--timings", choices=("real", "zero"), default="real",
                    help="zero makes the CSV byte-reproducible")
    pb.add_argument("--out", help="CSV path (default: stdout)")
    pb.set_defaults(func=cmd_bench)

    pv = sub.add_parser("verify", help="re-validate a stored compile result")
    pv.add_argument("--graph", required=True, help="graph file")
    pv.add_argument("--result", required=True, help="compile result JSON")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, RecursionError) as exc:  # unreadable or unwritable file, JSON nested too deep
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's traced replay of ``compile_graph`` gives the same result.

``perfbench/child.py::replay_compile`` re-runs the pipeline through each
layer's public functions and constants. This suite is where a rename or
removal of any name it reads shows up, rather than only in a benchmark run.
"""

import json
import sys
from pathlib import Path

from gsc.compiler import CompileOptions, compile_graph
from gsc.graph import generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import child  # noqa: E402


# (graph spec, mapper, scheduler); random_tree:300 is above verify_cap, so
# neither side runs the tableau
CASES = [
    ("path:28", "mincut", "paper"),
    ("star:60", "mincut", "paper"),
    ("gnm:20:50", "mincut", "paper"),
    ("random_tree:300", "mincut", "paper"),
    ("complete:30", "natural", "first-fit"),
    ("gnm:300:1200", "random", "first-fit"),
    ("gnm:2000:20000", "random", "paper"),  # bus-sized: nearly every block opens a round
]


def test_replay_matches_compile_graph():
    for spec, mapper, scheduler in CASES:
        kind, n, *m = spec.split(":")
        g = generate(kind, int(n), m=int(m[0]) if m else None, seed=5)
        opts = CompileOptions(mapper=mapper, scheduler=scheduler, seed=5)
        result, counts = child.replay_compile(g, opts, child.Tracer(), spec)
        assert result.to_json_text() == compile_graph(g, opts).to_json_text(), spec
        assert counts["verify.skipped"] == (0 if g.n <= opts.verify_cap else 1), spec
        # --trace 1 writes the counts as JSON: blocks must iterate as Python ints
        json.dumps(counts)

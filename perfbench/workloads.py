"""The benchmark's workloads: which graphs are compiled, and how.

Each entry of a workload compiles ``copies`` seeded graphs of one family
with one mapper and scheduler. Entries with the same spec and copy index
share one graph, so a graph can be compiled under both schedulers.
Verification is always ``auto``: the tableau runs at n <= 200 only.
"""

from __future__ import annotations

from typing import NamedTuple

# Seed the driver passes by default, and one kept back for checking a claim
# on inputs that were not used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Results of graphs up to this size are written out and re-checked by
# ``gsc verify``. It is the compiler's own verification cap at the seed,
# fixed here so that the set of re-checked results depends on the input only.
ROUNDTRIP_MAX_N = 200


class Entry(NamedTuple):
    spec: str  # kind:n[:m], as ``gsc compile --gen`` takes it
    mapper: str
    scheduler: str
    copies: int = 1


class Workload(NamedTuple):
    why: str
    entries: tuple[Entry, ...]


def _mincut(spec: str, copies: int = 1) -> Entry:
    return Entry(spec, "mincut", "paper", copies)


def _both(spec: str, mapper: str) -> tuple[Entry, Entry]:
    return Entry(spec, mapper, "paper"), Entry(spec, mapper, "first-fit")


WORKLOADS = {
    # The paper's default pipeline. The min-cut mapper is most of the time.
    # The Plesnik diameter-2 shortcut applies to the complete and dense gnm
    # graphs and not to the sparse ones, so both sides of that choice are
    # here; trees stop every cut early at size 1. The trees are above the
    # tableau cap, so the tableau time comes from the fixed graphs (path,
    # star, complete) and the gnm ones. Several copies of each graph keep
    # the sums steady from seed to seed. The graphs are small, so that no
    # call takes much more than 0.1 s and each is made some thirty times in
    # a run: a busy host leaves quiet spells of a second or two, which a
    # short call can fall into and a long one cannot. The small results
    # are verified by the tableau twice, inside compile and again by
    # ``gsc verify``: a faster tableau moves compile_s a little and verify_s
    # fully, a stricter ``gsc verify`` moves verify_s only.
    "mincut-mid": Workload(
        "the default min-cut pipeline on small dense and sparse graphs and mid-size trees; "
        "mapping is most of compile time",
        (
            _mincut("complete:20", copies=3),
            _mincut("gnm:20:150", copies=3),
            _mincut("gnm:20:50", copies=4),
            _mincut("random_tree:300", copies=4),
            _mincut("path:28", copies=2),
            _mincut("star:60", copies=2),
        ),
    ),
    # Mapping and the tableau do nothing on the large graphs, so this
    # workload predicts no change for their optimisations; it exposes the
    # quadratic paths in the schedulers and in building blocks. The one small
    # graph keeps verified_share and verify_s defined: a certificate that
    # covers every size moves verified_share from 1/11 towards 1.
    "bus-large": Workload(
        "large graphs under random and natural mappers and both schedulers, "
        "no tableau; schedulers, MIS and generation dominate",
        (
            *_both("gnm:2000:20000", "random"),
            *_both("random_tree:3000", "random"),
            *_both("gnm:3000:12000", "random"),
            *_both("gnm:1000:100000", "random"),
            *_both("complete:1000", "natural"),
            Entry("path:24", "natural", "paper"),
        ),
    ),
}


def parse_spec(spec: str) -> tuple[str, int, int | None]:
    kind, n, *m = spec.split(":")
    return kind, int(n), int(m[0]) if m else None

"""Workload inputs, seeded relabelling and output checks for the benchmark.

Every workload is a list of CLI commands run through ``ctfpolys.cli.main``
with ``--format json``. ``polys`` and ``classes`` take their graphs from the
fixed base graphs below, relabelled by the workload seed; ``corpus`` sweeps
the canonical small-multigraph corpus and ignores the seed.

An operation is one command on one input: one ``polys`` graph, one
``classes`` relation, or one corpus graph. The checks compare only outputs
that do not depend on vertex names, edge order or reference directions, so
every seed has the same reference.
"""

from __future__ import annotations

import json
import random
from itertools import permutations
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references"

#: Base graphs as (vertex count, edge list). Pair order is the reference
#: direction.
BASE_GRAPHS = {
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "K4-bridge": (5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]),
    # the worked example (triangle with doubled u-v and v-w) plus a loop
    "example-loop": (3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2), (0, 0)]),
    "W4": (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]),
}

# The inputs are sized so that one repetition takes 1-4 s: a run then holds
# many repetitions, and the calibration loop around each command can follow
# a CPU whose speed drifts by up to 2x over tens of seconds. Together the
# polys graphs still cover balanced rank and nullity (K4), a bridge, a loop
# and parallel edges.
POLYS_GRAPHS = ("K4", "K4-bridge", "example-loop")
CLASSES_GRAPH = "W4"
CLASSES_RELATIONS = ("cut", "eulerian", "cut-eulerian")
CORPUS_ARGS = ("corpus", "--max-edges", "3", "--loops")

WORKLOADS = ("polys", "classes", "corpus")


def relabel(vertex_count: int, edges, rng: random.Random):
    """Rename vertices, shuffle edge order and flip reference directions."""
    names = list(range(vertex_count))
    rng.shuffle(names)
    out = [(names[u], names[v]) for u, v in edges]
    rng.shuffle(out)
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in out]


def graph_text(vertex_count: int, edges) -> str:
    lines = [f"v {vertex_count}"] + [f"e {u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the seeded graph files of a workload; returns name -> path."""
    if workload == "polys":
        chosen = POLYS_GRAPHS
    elif workload == "classes":
        chosen = (CLASSES_GRAPH,)
    else:
        return {}
    paths = {}
    for name in chosen:
        vertex_count, edges = BASE_GRAPHS[name]
        rng = random.Random(f"{seed}:{name}")
        path = directory / f"{name}.txt"
        path.write_text(graph_text(vertex_count, relabel(vertex_count, edges, rng)))
        paths[name] = path
    return paths


def operations(workload: str, inputs: dict[str, Path]) -> list[dict]:
    """The commands of one repetition, in order."""
    if workload == "polys":
        return [
            {"name": name, "argv": ["--format", "json", "polys", str(inputs[name])]}
            for name in POLYS_GRAPHS
        ]
    if workload == "classes":
        path = str(inputs[CLASSES_GRAPH])
        return [
            {"name": relation,
             "argv": ["--format", "json", "classes", path, "--relation", relation]}
            for relation in CLASSES_RELATIONS
        ]
    if workload == "corpus":
        return [{"name": "corpus", "argv": ["--format", "json", *CORPUS_ARGS]}]
    raise ValueError(f"unknown workload {workload!r}")


def load_reference(workload: str):
    return json.loads((REFERENCES / f"{workload}.json").read_text())


# ---- isomorphism-invariant views of the CLI outputs ----

def classes_view(payload: dict) -> dict:
    """Class count plus the multiset of class sizes."""
    return {
        "class_count": payload["class_count"],
        "sizes": sorted(cls["size"] for cls in payload["classes"]),
    }


def canonical_key(vertex_count: int, edges) -> str:
    """Isomorphism-class key of a small multigraph, by trying every vertex
    permutation (the corpus graphs have at most 4 vertices). It is kept apart
    from the package's own canonical form, which a faster search may replace
    and which must not check itself."""
    best = min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in permutations(range(vertex_count))
    ) if edges else ()
    return json.dumps([vertex_count, best])


def corpus_view(payload: list) -> dict:
    """Corpus graph key -> sorted (identity, status) pairs."""
    view = {}
    for entry in payload:
        key = canonical_key(entry["vertex_count"], [tuple(e) for e in entry["edges"]])
        checks = sorted((c["id"], c["status"]) for c in entry["checks"])
        # a graph listed twice is a wrong output; keep it visible
        view[key] = None if key in view else [list(c) for c in checks]
    return view


def check_command(workload: str, op: dict, result: dict, reference) -> tuple[int, int]:
    """(attempted, failed) operations of one command's result.

    ``result`` holds the command's ``exit`` code, ``stdout`` and ``error``;
    a command that raised, exited nonzero or printed unparsable output fails
    every operation it covers.
    """
    covered = len(reference) if workload == "corpus" else 1
    if result.get("error") is not None or result.get("exit") != 0:
        return covered, covered
    try:
        payload = json.loads(result["stdout"])
    except ValueError:
        return covered, covered
    try:
        if workload == "polys":
            return covered, int(payload != reference[op["name"]])
        if workload == "classes":
            return covered, int(classes_view(payload) != reference[op["name"]])
        got = corpus_view(payload)
    except (KeyError, TypeError):
        return covered, covered
    # the reference lists every identity of every graph as "pass"
    failed = sum(1 for key, checks in reference.items() if got.get(key) != checks)
    extra = len(set(got) - set(reference))
    return covered, min(covered, failed + extra)

"""Record the benchmark's reference outputs and check them independently.

Usage, from the root of a checkout: python3 perfbench/record_references.py

Runs every workload's commands once on its seed-0 inputs, checks the outputs
against the brute-force oracles in tests/oracles.py, run on the base graphs
at the argument points where they finish, and against identities of the
paper, and writes references/<workload>.json. The references hold only
outputs that do not depend on vertex names, edge order or reference
directions.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from child import run_command
from workloads import (
    BASE_GRAPHS, CLASSES_GRAPH, REFERENCES, classes_view, corpus_view,
    operations, write_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from ctfpolys import build_graph, cli, tutte  # noqa: E402

#: (p, q) points at which the oracles are compared with the polynomials.
ORACLE_POINTS = ((2, 2), (2, 3), (3, 2))


def evaluate(poly: dict, x, y) -> Fraction:
    return sum(
        (Fraction(c) * Fraction(x) ** i * Fraction(y) ** j for i, j, c in poly["monomials"]),
        Fraction(0),
    )


def oracle_values(graph, p: int, q: int) -> dict:
    """Brute-force values of the graph-level families at (p, q), on the
    reference orientation."""
    ref = (0,) * graph.edge_count
    return {
        "tau_mod": len(oracles.nowhere_zero(oracles.modular_tensions(graph, ref, (p,)))),
        "phi_mod": len(oracles.nowhere_zero(oracles.modular_flows(graph, ref, (q,)))),
        "tau_int": len(oracles.nowhere_zero(
            oracles.integer_tensions(graph, ref, -(p - 1), p - 1))),
        "phi_int": len(oracles.nowhere_zero(
            oracles.integer_flows(graph, ref, -(q - 1), q - 1))),
        "kappa_mod": len(oracles.complementary_pairs_mod(graph, ref, p, q)),
        "kappa_int": len(oracles.complementary_pairs_int(graph, ref, p, q)),
    }


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"reference check failed: {message}")


def run_ops(workload: str, work: Path) -> list[tuple[dict, dict]]:
    ops = operations(workload, write_inputs(workload, 0, work))
    results = []
    for op in ops:
        result = run_command(cli, op["argv"])
        require(result["exit"] == 0 and result["error"] is None,
                f"{workload} {op['name']}: {result['error'] or result['stderr']}")
        results.append((op, json.loads(result["stdout"])))
    return results


def record_polys(work: Path) -> dict:
    reference = {}
    for op, payload in run_ops("polys", work):
        name = op["name"]
        graph = build_graph(*BASE_GRAPHS[name])
        rank_gen = payload["rank_generating"]
        require(payload["kappa_bar_mod"] == rank_gen, f"{name}: kappa_bar_mod != R")
        for x, y in ((1, 1), (2, 1), (1, 2), (2, 3), (3, 2)):
            require(evaluate(payload["tutte"], x, y) == evaluate(rank_gen, x - 1, y - 1),
                    f"{name}: T({x},{y}) != R({x - 1},{y - 1})")
        for p, q in ORACLE_POINTS:
            for family, value in oracle_values(graph, p, q).items():
                got = evaluate(payload[family], p, q)
                require(got == value, f"{name}: {family}({p},{q}) = {got}, oracle {value}")
        reference[name] = payload
        print(f"polys {name}: oracles and identities agree", file=sys.stderr)
    return reference


def record_classes(work: Path) -> dict:
    graph = build_graph(*BASE_GRAPHS[CLASSES_GRAPH])
    t = tutte(graph)
    # cut classes: T(1,2); Eulerian classes: T(2,1); cut-Eulerian: T(1,1)
    expected = {"cut": t.evaluate(1, 2), "eulerian": t.evaluate(2, 1),
                "cut-eulerian": t.evaluate(1, 1)}
    reference = {}
    for op, payload in run_ops("classes", work):
        view = classes_view(payload)
        relation = op["name"]
        require(view["class_count"] == expected[relation],
                f"{relation}: {view['class_count']} classes, Tutte gives {expected[relation]}")
        require(sum(view["sizes"]) == 2 ** graph.edge_count,
                f"{relation}: classes do not cover every orientation")
        reference[relation] = view
        print(f"classes {relation}: {view['class_count']} classes = Tutte value",
              file=sys.stderr)
    return reference


def record_corpus(work: Path) -> dict:
    [(_, payload)] = run_ops("corpus", work)
    require(all(entry["all_passed"] for entry in payload), "a corpus identity failed")
    view = corpus_view(payload)
    require(len(view) == len(payload) and None not in view.values(),
            "corpus lists an isomorphism class twice")
    print(f"corpus: {len(view)} graphs, every identity passes", file=sys.stderr)
    return view


def main() -> int:
    REFERENCES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=REFERENCES.parent) as tmp:
        work = Path(tmp)
        for workload, record in (("polys", record_polys), ("classes", record_classes),
                                 ("corpus", record_corpus)):
            reference = record(work)
            path = REFERENCES / f"{workload}.json"
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

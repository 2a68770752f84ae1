"""Command-line surface: polynomials, single counts, class censuses,
identity verification, corpus sweeps, and the built-in worked example."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .counting import FAMILIES, LOCAL_FAMILIES, count
from .multigraph import GraphFormatError, MultiGraph, build_graph, parse_graph_text
from .orientations import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    OrientationTable,
    enumerate_classes,
)
from .polynomials import counting_polynomial, polynomial_report, rank_generating, tutte
from .verify import IdentityReport, verify_corpus, verify_graph

EXAMPLE_GRAPH_EDGES = ((0, 2), (0, 1), (1, 2), (0, 1), (1, 2))


def _example_graph() -> MultiGraph:
    return build_graph(3, EXAMPLE_GRAPH_EDGES)


def _load_graph(path: str) -> MultiGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def _cmd_polys(args) -> int:
    report = polynomial_report(_load_graph(args.file), args.budget)
    named = report.named()
    if args.format == "json":
        payload = {name: poly.to_json_dict() for name, poly in named.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(name) for name in named)
        for name in sorted(named):
            print(f"{name:<{width}}  {named[name].to_text()}")
    return 0


def _parse_group(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise GraphFormatError(f"bad group moduli {text!r}") from None


def _cmd_count(args) -> int:
    graph = _load_graph(args.file)
    print(count(graph, args.family, args.budget, p=args.p, q=args.q,
                group_a=_parse_group(args.group), group_b=_parse_group(args.group_b)))
    return 0


def _cmd_classes(args) -> int:
    graph = _load_graph(args.file)
    relation = args.relation.replace("-", "_")
    filter_name = args.filter.replace("-", "_")
    partition = enumerate_classes(graph, relation, filter_name, args.budget)
    if args.format == "json":
        payload = {
            "relation": args.relation,
            "filter": args.filter,
            "class_count": len(partition.classes),
            "classes": [
                {
                    "representative": cls[0].flip_string(),
                    "size": len(cls),
                    "members": [o.flip_string() for o in cls],
                }
                for cls in partition.classes
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{len(partition.classes)} classes ({args.relation}, filter={args.filter})")
        for cls in partition.classes:
            members = " ".join(o.flip_string() for o in cls)
            print(f"  size {len(cls)}: {members}")
    return 0


#: Exit code per verification outcome: 2 if an identity failed, else 1 if
#: one was skipped at a resource limit (an operational error, as bad input
#: is), else 0.
EXIT_CODES = {"pass": 0, "skip": 1, "fail": 2}


def _print_report(report: IdentityReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_list(), indent=2))
    else:
        print(report.to_text())


def _cmd_verify(args) -> int:
    report = verify_graph(_load_graph(args.file), args.budget)
    _print_report(report, args.format)
    return EXIT_CODES[report.outcome]


def _cmd_corpus(args) -> int:
    results = verify_corpus(args.max_edges, args.loops, args.budget)
    if args.format == "json":
        results = list(results)
        payload = [
            {
                "vertex_count": graph.vertex_count,
                "edges": [list(e) for e in graph.edges],
                "all_passed": report.all_passed,
                "checks": report.to_json_list(),
            }
            for graph, report in results
        ]
        print(json.dumps(payload, indent=2))
        return max((EXIT_CODES[report.outcome] for _, report in results), default=0)

    # text mode prints each graph as soon as it is verified
    graphs = failures = code = 0
    for graph, report in results:
        graphs += 1
        failures += report.outcome == "fail"
        code = max(code, EXIT_CODES[report.outcome])
        edges = " ".join(f"{u}-{v}" for u, v in graph.edges) or "(edgeless)"
        status = "FAIL" if report.outcome == "fail" else report.outcome
        lines = [f"{status}  |V|={graph.vertex_count} edges: {edges}"]
        lines.extend(f"      {check.identity}: {check.witness}" for check in report.failures())
        print("\n".join(lines), flush=True)
    print(f"{graphs} graphs, {failures} with failures")
    return code


def _cmd_example(args) -> int:
    graph, budget = _example_graph(), args.budget
    polys = {
        "T": tutte(graph),
        "R": rank_generating(graph),
        "kappa": counting_polynomial(graph, "kappa_mod", budget),
        "kappa_int": counting_polynomial(graph, "kappa_int", budget),
        "kappa_bar": counting_polynomial(graph, "kappa_bar_mod", budget),
        "kappa_bar_int": counting_polynomial(graph, "kappa_bar_int", budget),
    }

    table = OrientationTable(graph, budget)
    censuses = [
        ("orientations", len(table.orientations)),
        ("acyclic orientations", len(table.members("acyclic"))),
        ("totally cyclic orientations", len(table.members("totally_cyclic"))),
        ("cut-Eulerian classes", len(table.classes("cut_eulerian").classes)),
        ("cut classes of acyclic orientations", len(table.classes("cut", "acyclic").classes)),
        ("Eulerian classes of totally cyclic orientations",
         len(table.classes("eulerian", "totally_cyclic").classes)),
        ("cut classes", len(table.classes("cut").classes)),
        ("Eulerian classes", len(table.classes("eulerian").classes)),
    ]

    kappa22 = count(graph, "kappa_mod", budget, p=2, q=2)
    kappa_int22 = count(graph, "kappa_int", budget, p=2, q=2)
    ce_members = table.self_reverse("cut_eulerian")
    ce_class_count = sum(rep in ce_members for rep in table.classes("cut_eulerian").representatives)
    notes = [
        "the published worked example for this graph states "
        "kappa(2,2) = #[O_ce] = 0; exhaustive enumeration gives "
        f"kappa(2,2) = {kappa22}, |O_ce| = {len(ce_members)}, "
        f"#[O_ce] = {ce_class_count}.",
        "the published integral formula's token '2y-1' is read "
        "as '2q-1'; the corrected polynomial matches brute-force counts "
        "(the counts are authoritative either way).",
    ]
    if args.format == "json":
        payload = {
            "polynomials": {name: poly.to_json_dict() for name, poly in polys.items()},
            "censuses": dict(censuses),
            "special_values": {
                "kappa(2,2)": kappa22,
                "kappa_int(2,2)": kappa_int22,
                "|O_ce|": len(ce_members),
                "#[O_ce]": ce_class_count,
            },
            "notes": notes,
        }
        print(json.dumps(payload, indent=2))
        return 0

    lines = [
        "built-in example graph: 3 vertices, edges e1..e5 = "
        + " ".join(f"{u}->{v}" for u, v in graph.edges),
        "",
    ]
    lines.extend(f"{name} = {poly.to_text()}" for name, poly in polys.items())
    lines.extend(["", "censuses:"])
    lines.extend(f"  {name}: {value}" for name, value in censuses)
    lines.extend(
        [
            "",
            "special values:",
            f"  kappa(2,2) = {kappa22}",
            f"  kappa_int(2,2) = |O_ce| = {kappa_int22}",
            f"  |O_ce| = {len(ce_members)}",
            f"  #[O_ce] = {ce_class_count}",
            "",
            "documented anomalies:",
        ]
    )
    lines.extend(f"  note: {note}" for note in notes)
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other bad input: exit code 2
    means that an identity failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least(low: int, what: str):
    """argparse type: an integer of at least ``low``, else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"{what} must be an integer >= {low}, not {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctfpolys",
        description="Exact tension-flow counting polynomials of multigraphs",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--budget", type=_at_least(1, "budget"), default=DEFAULT_BUDGET,
        help="work items one call may create: DP states of one counting-kernel "
        "call, or the 2^|E| orientations or edge subsets of one sweep "
        f"(default {DEFAULT_BUDGET}); past it a command exits 1",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_polys = sub.add_parser("polys", help="all counting polynomials of a graph")
    p_polys.add_argument("file")
    p_polys.set_defaults(func=_cmd_polys)

    p_count = sub.add_parser("count", help="one counting-family value")
    p_count.add_argument("file")
    # the per-orientation families need an orientation, which the CLI cannot pass
    p_count.add_argument("--family", required=True, choices=sorted(FAMILIES - LOCAL_FAMILIES))
    p_count.add_argument("--p", type=int, default=None)
    p_count.add_argument("--q", type=int, default=None)
    p_count.add_argument(
        "--group", default=None,
        help="comma-separated cyclic moduli for the tension-side group",
    )
    p_count.add_argument(
        "--group-b", default=None,
        help="comma-separated cyclic moduli for the flow-side group",
    )
    p_count.set_defaults(func=_cmd_count)

    p_classes = sub.add_parser("classes", help="equivalence-class census")
    p_classes.add_argument("file")
    p_classes.add_argument(
        "--relation", required=True,
        choices=("cut", "eulerian", "cut-eulerian"),
    )
    p_classes.add_argument(
        "--filter", default="all",
        choices=("all", "acyclic", "totally-cyclic"),
    )
    p_classes.set_defaults(func=_cmd_classes)

    p_verify = sub.add_parser("verify", help="run the identity ledger on a graph")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=_cmd_verify)

    p_corpus = sub.add_parser("corpus", help="verify all small multigraphs")
    p_corpus.add_argument("--max-edges", type=_at_least(0, "max-edges"), required=True)
    p_corpus.add_argument("--loops", action="store_true")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_example = sub.add_parser(
        "example", help="reproduce the built-in worked example"
    )
    p_example.set_defaults(func=_cmd_example)

    return parser


#: The parser, built by the first ``main`` call of the process and reused by
#: the rest: parse_args leaves it unchanged.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (``| head``): send the rest of the output
        # to devnull, so the flush at exit fails no more, and exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (
        GraphFormatError,
        OSError,  # a missing, unreadable or directory graph file
        ValueError,
        KeyError,
        BudgetExceededError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: polynomials, single counts, class censuses,
identity verification, corpus sweeps, and the built-in worked example."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .counting import FAMILIES, LOCAL_FAMILIES, count
from .multigraph import GraphFormatError, MultiGraph, build_graph, parse_graph_text
from .orientations import DEFAULT_BUDGET, BudgetExceededError, OrientationTable
from .polynomials import counting_polynomial, polynomial_report, rank_generating, tutte
from .verify import verify_corpus, verify_graph

EXAMPLE_GRAPH_EDGES = ((0, 2), (0, 1), (1, 2), (0, 1), (1, 2))


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
    relation, filter_name = args.relation.replace("-", "_"), args.filter.replace("-", "_")
    classes = OrientationTable(graph, args.budget).mask_classes(relation, filter_name)
    top, write = 1 << graph.edge_count, sys.stdout.write

    def flips(f):  # the m-bit flip string; the top bit keeps m = 0 at ""
        return format(top | f, "b")[1:]

    if args.format == "json":
        # written class by class, byte for byte as json.dumps(..., indent=2)
        # would: every leaf is a 0/1 string, an int or one of argparse's
        # fixed relation and filter names, so nothing needs escaping
        write(f'{{\n  "relation": "{args.relation}",\n  "filter": "{args.filter}",\n'
              f'  "class_count": {len(classes)},\n  "classes": [')
        for k, cls in enumerate(classes):
            members = '",\n        "'.join(map(flips, cls))
            write(f'{"," if k else ""}\n    {{\n      "representative": "{flips(cls[0])}",\n      '
                  f'"size": {len(cls)},\n      "members": [\n        "{members}"\n      ]\n    }}')
        write("\n  ]\n}\n" if classes else "]\n}\n")
    else:
        write(f"{len(classes)} classes ({args.relation}, filter={args.filter})\n")
        for cls in classes:
            write(f"  size {len(cls)}: {' '.join(map(flips, cls))}\n")
    return 0


#: Exit code per verification outcome: 2 if an identity failed, else 1 if
#: one was skipped at a resource limit (an operational error, as bad input
#: is), else 0.
EXIT_CODES = {"pass": 0, "skip": 1, "fail": 2}


def _cmd_verify(args) -> int:
    report = verify_graph(_load_graph(args.file), args.budget)
    print(json.dumps(report.to_json_list(), indent=2) if args.format == "json"
          else report.to_text())
    return EXIT_CODES[report.outcome]


def _cmd_corpus(args) -> int:
    results = verify_corpus(args.max_edges, args.loops, args.budget)
    graphs = failures = code = 0
    for graph, report in results:
        code = max(code, EXIT_CODES[report.outcome])
        if args.format == "json":
            # one graph at a time, byte for byte as json.dumps of the list
            # with indent=2 would; "[" waits for the first report, so a
            # sweep that stops at once prints nothing
            entry = json.dumps({
                "vertex_count": graph.vertex_count,
                "edges": [list(e) for e in graph.edges],
                "all_passed": report.all_passed,
                "checks": report.to_json_list(),
            }, indent=2).replace("\n", "\n  ")
            sys.stdout.write(f"{',' if graphs else '['}\n  {entry}")
        else:
            # text mode prints each graph as soon as it is verified
            failures += report.outcome == "fail"
            edges = " ".join(f"{u}-{v}" for u, v in graph.edges) or "(edgeless)"
            status = "FAIL" if report.outcome == "fail" else report.outcome
            lines = [f"{status}  |V|={graph.vertex_count} edges: {edges}"]
            lines.extend(f"      {check.identity}: {check.witness}" for check in report.failures())
            print("\n".join(lines), flush=True)
        graphs += 1
    if args.format == "json":
        print("\n]" if graphs else "[]")
    else:
        print(f"{graphs} graphs, {failures} with failures")
    return code


def _cmd_example(args) -> int:
    graph, budget = build_graph(3, EXAMPLE_GRAPH_EDGES), args.budget
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
        ("cut-Eulerian classes", len(table.mask_classes("cut_eulerian"))),
        ("cut classes of acyclic orientations", len(table.mask_classes("cut", "acyclic"))),
        ("Eulerian classes of totally cyclic orientations",
         len(table.mask_classes("eulerian", "totally_cyclic"))),
        ("cut classes", len(table.mask_classes("cut"))),
        ("Eulerian classes", len(table.mask_classes("eulerian"))),
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


#: Per subcommand: its help line, its handler and its arguments as (name or
#: flag, keywords of add_argument).
_COMMANDS = {
    "polys": ("all counting polynomials of a graph", _cmd_polys, [("file", {})]),
    "count": ("one counting-family value", _cmd_count, [
        ("file", {}),
        # the per-orientation families need an orientation, which the CLI cannot pass
        ("--family", dict(required=True, choices=sorted(FAMILIES - LOCAL_FAMILIES))),
        ("--p", dict(type=int, default=None)),
        ("--q", dict(type=int, default=None)),
        ("--group", dict(default=None,
                         help="comma-separated cyclic moduli for the tension-side group")),
        ("--group-b", dict(default=None,
                           help="comma-separated cyclic moduli for the flow-side group")),
    ]),
    "classes": ("equivalence-class census", _cmd_classes, [
        ("file", {}),
        ("--relation", dict(required=True, choices=("cut", "eulerian", "cut-eulerian"))),
        ("--filter", dict(default="all", choices=("all", "acyclic", "totally-cyclic"))),
    ]),
    "verify": ("run the identity ledger on a graph", _cmd_verify, [("file", {})]),
    "corpus": ("verify all small multigraphs", _cmd_corpus, [
        ("--max-edges", dict(type=_at_least(0, "max-edges"), required=True)),
        ("--loops", dict(action="store_true")),
    ]),
    "example": ("reproduce the built-in worked example", _cmd_example, []),
}


class _Subcommands(argparse._SubParsersAction):
    """The ``_COMMANDS``, each parser built only when its command runs. The
    help, the usage and a bad command's error read just the names and the
    help lines, which are registered here as ``add_parser`` registers them.

    It reads private argparse names, for a measured reason: a plain
    ``add_parser`` loop gives the same help and usage, but building every
    parser made the perfbench ``classes`` workload's ``run_ref_s`` about 13%
    higher (medians 0.0096 against 0.0085 s, four alternating pairs on a
    2-vCPU host)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name, (help_line, _, _) in _COMMANDS.items():
            self._name_parser_map[name] = None
            self._choices_actions.append(self._ChoicesPseudoAction(name, (), help_line))

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        if self._name_parser_map[name] is None:  # argparse checked the name
            _, handler, arguments = _COMMANDS[name]
            command = self._name_parser_map[name] = self._parser_class(
                prog=f"{self._prog_prefix} {name}")
            for flag, options in arguments:
                command.add_argument(flag, **options)
            command.set_defaults(func=handler)
        super().__call__(parser, namespace, values, option_string)


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
    parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    return parser


#: The parser, built by the first ``main`` call of the process and reused by
#: the rest; parse_args adds only the subcommand parsers it builds.
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

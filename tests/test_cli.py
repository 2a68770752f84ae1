import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctfpolys
from ctfpolys import IdentityCheck, IdentityReport, build_graph, count, format_graph_text, tutte
from ctfpolys.cli import main

P8_TEXT = "v 3\ne 0 2\ne 0 1\ne 1 2\ne 0 1\ne 1 2\n"


@pytest.fixture()
def p8_file(tmp_path):
    path = tmp_path / "p8.g"
    path.write_text(P8_TEXT)
    return str(path)


def test_count_command(p8_file, capsys):
    code = main(["count", p8_file, "--family", "kappa_mod", "--p", "3", "--q", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "12"


def test_count_with_group(p8_file, capsys):
    code = main(
        ["count", p8_file, "--family", "kappa_mod", "--p", "4", "--q", "2",
         "--group", "2,2"]
    )
    assert code == 0
    first = capsys.readouterr().out
    main(["count", p8_file, "--family", "kappa_mod", "--p", "4", "--q", "2"])
    assert capsys.readouterr().out == first


def test_classes_command(p8_file, capsys):
    code = main(["classes", p8_file, "--relation", "cut-eulerian"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("8 classes")

    code = main(["--format", "json", "classes", p8_file, "--relation", "cut",
                 "--filter", "acyclic"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class_count"] == 2
    assert all(len(cls["representative"]) == 5 for cls in payload["classes"])


def test_classes_command_wheel(tmp_path, capsys):
    # W5: the hub 0 joined to the rim cycle 1..5
    w5 = build_graph(6, [(0, k) for k in range(1, 6)] + [(k, k % 5 + 1) for k in range(1, 6)])
    path = tmp_path / "w5.g"
    path.write_text(format_graph_text(w5))
    t = tutte(w5)
    # class counts are Tutte values: 121 = T(1,1), 462 = T(1,2) = T(2,1)
    for relation, (x, y) in (("cut-eulerian", (1, 1)), ("cut", (1, 2)), ("eulerian", (2, 1))):
        assert main(["--format", "json", "classes", str(path), "--relation", relation]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class_count"] == t.evaluate(x, y), relation
        assert sum(cls["size"] for cls in payload["classes"]) == 2 ** 10


def test_polys_command(p8_file, capsys):
    code = main(["polys", p8_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "tutte" in out and "y^3+x^2+2*x*y+2*y^2+x+y" in out

    code = main(["--format", "json", "polys", p8_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tutte"]["monomials"] == [
        [2, 0, "1"], [1, 1, "2"], [1, 0, "1"], [0, 3, "1"], [0, 2, "2"], [0, 1, "1"],
    ]


def test_verify_command(p8_file, capsys):
    code = main(["verify", p8_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "T1b" in out and "fail" not in out


def test_verify_exit_codes_with_failing_stub(p8_file, monkeypatch, capsys):
    import ctfpolys.cli as cli

    def fake_verify(graph, budget):
        return IdentityReport(
            graph,
            (IdentityCheck("T1b", "stub", "fail", "crafted failure"),),
        )

    monkeypatch.setattr(cli, "verify_graph", fake_verify)
    code = main(["verify", p8_file])
    assert code == 2
    assert "crafted failure" in capsys.readouterr().out


def test_verify_resource_limit_is_exit_1(p8_file, capsys):
    # 48 DP states per kernel call are too few for phi_int: the run reports
    # the identities that read it as skip and exits 1, not 2
    assert main(["--budget", "48", "verify", p8_file]) == 1
    out = capsys.readouterr().out
    assert "skip" in out and "fail" not in out


def test_verify_operational_error_is_exit_1(tmp_path, monkeypatch, capsys):
    code = main(["verify", str(tmp_path / "missing.g")])
    assert code == 1
    assert "error:" in capsys.readouterr().err

    # a directory is no graph file either (IsADirectoryError, an OSError
    # like the PermissionError of an unreadable file)
    assert main(["polys", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.g"
    bad.write_text("v x\n")
    assert main(["verify", str(bad)]) == 1

    # 2^21 edge subsets exceed the default budget: both commands stop before
    # they compute anything
    import ctfpolys.polynomials as polynomials
    import ctfpolys.verify as verify

    def never(graph):
        raise AssertionError("computed before the budget check")

    monkeypatch.setattr(polynomials, "rank_generating", never)
    monkeypatch.setattr(verify, "rank_generating", never)
    big = tmp_path / "big.g"
    big.write_text(format_graph_text(build_graph(2, [(0, 1)] * 21)))
    capsys.readouterr()
    for command in ("polys", "verify"):
        assert main([command, str(big)]) == 1
        assert "2097152 edge subsets exceed the budget of 1048576" in capsys.readouterr().err


def test_corpus_command(capsys):
    code = main(["corpus", "--max-edges", "1", "--loops"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0 with failures" in out


def test_example_command(capsys):
    code = main(["example"])
    assert code == 0
    out = capsys.readouterr().out
    assert "T = y^3+x^2+2*x*y+2*y^2+x+y" in out
    assert "kappa(2,2) = 2" in out
    assert "|O_ce| = 8" in out
    assert "#[O_ce] = 2" in out
    assert "states kappa(2,2) = #[O_ce] = 0" in out


def test_example_json_matches_text(p8, capsys):
    assert main(["example"]) == 0
    text = capsys.readouterr().out
    assert main(["--format", "json", "example"]) == 0
    payload = json.loads(capsys.readouterr().out)
    census_lines = text.split("censuses:\n")[1].split("\n\n")[0].splitlines()
    censuses = dict(line.strip().rsplit(": ", 1) for line in census_lines)
    assert payload["censuses"] == {name: int(value) for name, value in censuses.items()}
    kappa22 = payload["special_values"]["kappa(2,2)"]
    assert kappa22 == count(p8, "kappa_mod", p=2, q=2)
    assert f"kappa(2,2) = {kappa22}\n" in text
    assert payload["polynomials"]["T"] == tutte(p8).to_json_dict()
    assert all(f"note: {note}" in text for note in payload["notes"])


def test_output_is_deterministic(p8_file, capsys):
    main(["example"])
    first = capsys.readouterr().out
    main(["example"])
    assert capsys.readouterr().out == first

    main(["--format", "json", "polys", p8_file])
    first = capsys.readouterr().out
    main(["--format", "json", "polys", p8_file])
    assert capsys.readouterr().out == first


def test_budget_override(tmp_path, capsys):
    path = tmp_path / "star13.g"
    path.write_text(format_graph_text(build_graph(14, [(0, k) for k in range(1, 14)])))
    assert main(["count", str(path), "--family", "tau_mod", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"

    # a star's tau_mod count takes one DP state per edge: 21 states on 21
    # edges, well inside the default budget
    path21 = tmp_path / "star21.g"
    path21.write_text(format_graph_text(build_graph(22, [(0, k) for k in range(1, 22)])))
    assert main(["count", str(path21), "--family", "tau_mod", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["--budget", "20", "count", str(path21), "--family", "tau_mod", "--p", "2"]) == 1
    assert "21 DP states exceed the budget of 20" in capsys.readouterr().err
    assert main(["--budget", "21", "count", str(path21), "--family", "tau_mod", "--p", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_budget_reaches_every_command(tmp_path, capsys):
    # the triangle has 2^3 orientations and edge subsets; the worked example 2^5
    triangle = tmp_path / "triangle.g"
    triangle.write_text(format_graph_text(build_graph(3, [(0, 1), (1, 2), (0, 2)])))
    path = str(triangle)
    commands = (
        ["polys", path],
        ["count", path, "--family", "kappa_bar_int", "--p", "1", "--q", "1"],
        ["classes", path, "--relation", "cut"],
        ["verify", path],
        ["corpus", "--max-edges", "3"],
        ["example"],
    )
    for command in commands:
        assert main(["--budget", "4", *command]) == 1, command
        assert "exceed the budget of 4" in capsys.readouterr().err, command
    assert main(["--budget", "8", "classes", path, "--relation", "cut"]) == 0
    assert capsys.readouterr().out.startswith("4 classes")  # T(1, 2) = 4


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["count", "graph.g", "--family", "tau_mod", "--p", "abc"],
        ["count", "graph.g", "--family", "tau_local", "--p", "2"],
        ["--budget", "-1", "classes", "graph.g", "--relation", "cut"],
        ["--budget", "0", "example"],
        ["--budget", "many", "example"],
        ["polish"],
        ["corpus", "--max-edges", "-1"],
        ["corpus", "--max-edges", "three"],
        # a group the family does not read
        ["count", "graph.g", "--family", "tau_int", "--p", "3", "--group", "7"],
        ["count", "graph.g", "--family", "tau_mod", "--p", "3", "--group-b", "7"],
        ["count", "graph.g", "--family", "phi_mod", "--q", "3", "--group", "3"],
        ["count", "graph.g", "--family", "kappa_bar_mod", "--p", "1", "--q", "1",
         "--group", "9"],
    ],
)
def test_usage_errors_exit_1(argv, tmp_path, capsys):
    # exit code 2 is kept for a failed identity; argparse errors exit, the
    # others return, and "graph.g" names a real graph so that only the
    # usage is wrong
    graph = tmp_path / "graph.g"
    graph.write_text(format_graph_text(build_graph(2, [(0, 1)])))
    argv = [str(graph) if arg == "graph.g" else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _cli_env():
    src = str(Path(ctfpolys.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_python_m_runs_the_cli():
    done = subprocess.run(
        [sys.executable, "-m", "ctfpolys", "example"],
        capture_output=True, text=True, env=_cli_env(),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("built-in example graph")


def test_closed_pipe_exits_1_without_traceback():
    # as under ``ctfpolys corpus --max-edges 4 --loops | head -1``
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctfpolys", "corpus", "--max-edges", "4", "--loops"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_cli_env(),
    )
    assert proc.stdout.readline().startswith("pass")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == "", stderr


def test_parser_is_built_once(p8_file, monkeypatch, capsys):
    # repeated main calls in one process reuse one parser and print what a
    # fresh process prints: for a result, a usage error and the help
    import ctfpolys.cli as cli

    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    for argv in (["--format", "json", "polys", p8_file], ["polys"], ["--help"]):
        fresh = subprocess.run(
            [sys.executable, "-m", "ctfpolys", *argv],
            capture_output=True, text=True, env=_cli_env(),
        )
        for _ in range(2):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr)
    assert len(builds) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--budget" in capsys.readouterr().out


def test_corpus_text_streams_each_graph(monkeypatch, capsys):
    # a sweep that dies after its first graph has already printed that graph
    import ctfpolys.cli as cli
    from ctfpolys import BudgetExceededError, verify_graph

    def sweep(max_edges, include_loops, budget):
        graph = build_graph(2, [(0, 1)])
        yield graph, verify_graph(graph)
        raise BudgetExceededError("sweep stopped")

    monkeypatch.setattr(cli, "verify_corpus", sweep)
    assert main(["corpus", "--max-edges", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "pass  |V|=2 edges: 0-1\n"
    assert "sweep stopped" in captured.err

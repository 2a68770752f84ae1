import hashlib
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


# SHA-256 of `ctfpolys --format json classes FILE --relation R --filter F`
# for each relation R and filter F, in that order, recorded before the
# orientation sweep ran over flip masks; the output must not change by a byte
CLASSES_DIGESTS = {
    "W4": (
        (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]),
        (
            "b133a03c5e464ff50c04e250472b0d91bbe961970bd53d55cb85e300dbd88155",
            "d355907da0616a5879d2bab08fcf9ffd1a522e381532d04382b0d5647c1874eb",
            "608409a8bdf4bcec0729914ef423aa636b87763867ba06b2826c63379217b85c",
            "21d409c39026f20984ed8810b1eacd8849e1633e0b7aa7c688912ceb87c231ee",
            "34cc017f5b11eb4d0b3ec17fe20dba3c3d152d7a84ae9cfbb2b579e3c5f3d67f",
            "bb6e11e4e64273b3eb3bd50e0030375416b11ce70f8902ddb0a99ffb389e25f9",
            "4cbe566c9c7e05a61936beaf1b3dc85f1c72719d93d9168fe6b461018ba05d79",
            "301f40a22b772dff657e7f7039f425ce386090b74e48e6508d6278c2cc337f97",
            "11143d84a349fb273d8d53f1986e3b1827959d1e1fa45ccec3c2866c3717f9ab",
        ),
    ),
    "W5": (
        (6, [(0, k) for k in range(1, 6)] + [(k, k % 5 + 1) for k in range(1, 6)]),
        (
            "1a549788b9e0178ac94d33e36cab02e77d3ba618ebce4a9c8ee09d0bc775cbbd",
            "a45da21c7adecc9634435352a866cba08784b32a5ab7b250541118274c31fe0a",
            "a336077d9e8dec38e31bd7db1b42524df6a5ba3a8ecdda15ce81d0083b29d19d",
            "3681a4fb688b74c931aa716becf9fb4268644800868301badb05c44ebc7935fa",
            "ca483fbe665d20491e83f165ad6921267f966ae5268ea8edc6886e6e7183a1a5",
            "260f224bad62078b8a4402f5249fb6ed0d93f3a48369ecb232230ffc7d3bc04f",
            "0235a51ca728b935f7c26431a5c1d9cb7288613f87fefadd64b462634c25b450",
            "7ad45497215f0516260a9c4e8e6a1e0f5b30198e022509e59d9e988010ef77bc",
            "97ce5b2519aa052fddbc28edcec613873d823fd3c3d836e0ffed297a3df08414",
        ),
    ),
    "example-loop": (
        (3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2), (0, 0)]),
        (
            "fb0eda0cd93951810427e5fa97b4b046b7bf27725a2b010488ffa42cb0eda941",
            "c795d6eab9eaf99664890bfc17aec56e7cc9827f0d2abd9161d6272f7ef06b5e",
            "f9a39d386557ac12d102022163604bfdede38afb2936cbc2415874f1311a4698",
            "a201f06adce7bb08cbcd69a0d41258ee6f698f81879f8f80b25dbce9add8572b",
            "27ca72eb211ad48117866c5c0e722098299f7f8dd76885716e15dacd7810e673",
            "cd604f27d159305d82a73e6c65a008fd3b90f5e38bb775c2255b3af401b4ad53",
            "dc7b49c73140dc2d4088b3397c9cc149fbe01ac7d98f887fe10346155cfca9bd",
            "08875d925998fb04ced236a3de6a45441e1a210041c40e1d991c6a87babceca4",
            "aa5d4e605fecf02e8bfecf12953cda0b6c4c6179f02be59c9f89874aa189e9b3",
        ),
    ),
}


# SHA-256 of the text output of the same commands, recorded before the
# output was written class by class from flip masks
CLASSES_TEXT_DIGESTS = {
    "W4": (
        "3124b27ec79900c21b65da912f3c611156b73f70863e3ecb1273b47f2407f905",
        "2c0673ce7d828989335063a91dadad74ae364573e26e7b70e8aeda29cb1d6b1e",
        "c89a3af292eff02fdbf6f750c95c169d0b4cf551a07a6bb1761c4ca3c8061d9c",
        "66f66dfb190d2ccea4e4874b78413edf08bc5e2b7af382af2258a169bc91b3e5",
        "df250ac6c5155c3c1e8bef11ab994df99edab313a53d1579365dd9a63a12f0ec",
        "d955c31659c57373111126fdfa53f4d4d9fab65f75be0efbb76b0c2c23a228f0",
        "0ab2e1251ab5d74de77f716cbd01c7ad0f4ede20b9089a929ed55b5d329ffdaa",
        "80b0505c11c225310d3b53daea8097f3073708bddf562aaab6985990203a7744",
        "6cc25787216f54c56415bf58b62a649aa68c8971ba3e709b6f65facbd7f99f4b",
    ),
    "W5": (
        "5d7ae05c5c5c2b058794e6c1b265763bf6f6b5fc4949067217a0c28b70230887",
        "b9b6c7db7aa55a6f76ec3c2954f81cb88f41ba8f90641b0205752a6bd5094b09",
        "41ad72605f7405a4e21f7825bc1d73b82193c66972252a4c54bf6fa0af5af601",
        "1168309cd7b0af865ba4bc2c9c88219d4c82a9c905d90e7f3244c2e5f4e79ab5",
        "f44d54ef67afffb65554f87d9c06e2f0bb0e562950b1ff63c7df98280833067a",
        "bed6374c4dbd51b9c38de8c3a553a915f1d6a471581a73d3ee319b6b1bb43d2d",
        "f26ba151c60817d691a0dc46fdef0fd132e17f06e6c48f6770e971360ca8a269",
        "49694eab6eb5bcd138f763e2d0cf5d214835dd378cb173bc411393c124573f27",
        "2dd782408ae569e21c71130b9ad957272c76cfd9dd41c3e866a0d088f46a8985",
    ),
    "example-loop": (
        "8ffbeda753929003c54d2b3cc5196c98e0dee2f03db7ed03f01e69ff48a1d7fc",
        "fc077f905da8479025bd00583f6b94f9d0a551732cfab3b1da58f825496a3843",
        "265825e54620bcad5c4e4f1d56e5acc565b30295368439d11195393737674c6b",
        "62dd09dac00415f3a79d88cd81b8072f890c23158558384a3e83218fa286c5fc",
        "7dfdf4490a586ff8fe88958da3850132e06083aa16029709162426a587a26d1a",
        "f4cc929e4e825cf62f2ef60f398a7d33c840b2e1289ba0d397e5e59a36ac6c6a",
        "9304f825ac31cd3468ff5eb611eb2bf75d47d1ae2e497c95602c993854f6ba16",
        "15c020fff8e636fb99243d48b1fa5226f76194c6f386800d04f933f3bd1bb774",
        "bd0ee4cc8d629815880047e157d256ea0f881b1923f51ef957b39eedeaadf2d6",
    ),
}


def _classes_digests(name, fmt, tmp_path, capsys):
    vertex_count, edges = CLASSES_DIGESTS[name][0]
    path = tmp_path / f"{name}.g"
    path.write_text(format_graph_text(build_graph(vertex_count, edges)))
    got = []
    for relation in ("cut", "eulerian", "cut-eulerian"):
        for filt in ("all", "acyclic", "totally-cyclic"):
            argv = ["--format", fmt, "classes", str(path), "--relation", relation,
                    "--filter", filt]
            assert main(argv) == 0
            got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return tuple(got)


@pytest.mark.parametrize("name", sorted(CLASSES_DIGESTS))
def test_classes_output_is_byte_identical(name, tmp_path, capsys):
    assert _classes_digests(name, "json", tmp_path, capsys) == CLASSES_DIGESTS[name][1]


@pytest.mark.parametrize("name", sorted(CLASSES_TEXT_DIGESTS))
def test_classes_text_output_is_byte_identical(name, tmp_path, capsys):
    assert _classes_digests(name, "text", tmp_path, capsys) == CLASSES_TEXT_DIGESTS[name]


def test_classes_output_of_edge_cases(tmp_path, capsys):
    # no edge: one class, the empty orientation; a bridge: no totally cyclic
    # orientation, so no class. Both recorded before the output was written
    # from flip masks
    edgeless, bridged = tmp_path / "edgeless.g", tmp_path / "bridged.g"
    edgeless.write_text(format_graph_text(build_graph(2, [])))
    bridged.write_text(format_graph_text(build_graph(3, [(0, 1), (1, 2), (1, 2)])))
    cases = (
        (["classes", str(edgeless), "--relation", "cut-eulerian"],
         "1 classes (cut-eulerian, filter=all)\n  size 1: \n",
         '{\n  "relation": "cut-eulerian",\n  "filter": "all",\n  "class_count": 1,\n'
         '  "classes": [\n    {\n      "representative": "",\n      "size": 1,\n'
         '      "members": [\n        ""\n      ]\n    }\n  ]\n}\n'),
        (["classes", str(bridged), "--relation", "cut", "--filter", "totally-cyclic"],
         "0 classes (cut, filter=totally-cyclic)\n",
         '{\n  "relation": "cut",\n  "filter": "totally-cyclic",\n  "class_count": 0,\n'
         '  "classes": []\n}\n'),
    )
    for argv, text, json_text in cases:
        assert main(argv) == 0
        assert capsys.readouterr().out == text
        assert main(["--format", "json", *argv]) == 0
        assert capsys.readouterr().out == json_text


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
    # 40 DP states per kernel call are too few for phi_int: the run reports
    # the identities that read it as skip and exits 1, not 2
    assert main(["--budget", "40", "verify", p8_file]) == 1
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
    # the flip-mask sweep refuses before it makes or prints any class
    assert main(["--budget", "7", "classes", path, "--relation", "cut"]) == 1
    out, err = capsys.readouterr()
    assert "8 orientations exceed the budget of 7" in err and out == ""
    assert main(["--budget", "8", "classes", path, "--relation", "cut"]) == 0
    assert capsys.readouterr().out.startswith("4 classes")  # T(1, 2) = 4


def test_oversized_sweeps_name_their_size_as_a_power(tmp_path, capsys):
    # 2^15000 has 4,516 digits, past Python's limit for int-to-str
    # conversion: each sweep compares the edge count with the budget's bit
    # length, before 2^m is built or written out
    digon = tmp_path / "digon.g"
    digon.write_text(format_graph_text(build_graph(2, [(0, 1)] * 15000)))
    path = str(digon)
    commands = {
        ("polys", path): "2^15000 edge subsets",
        ("verify", path): "2^15000 edge subsets",
        ("classes", path, "--relation", "cut"): "2^15000 orientations",
        ("count", path, "--family", "kappa_bar_int", "--p", "1", "--q", "1"):
            "2^15000 orientations",
        ("corpus", "--max-edges", "20000"): "2^20000 edge subsets",
    }
    for command, work in commands.items():
        assert main(list(command)) == 1, command
        out, err = capsys.readouterr()
        assert err == f"error: {work} exceed the budget of 1048576\n" and out == "", command


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


#: SHA-256 of the JSON list [exit code, stdout, stderr] of the help texts
#: and of usage errors at 80 columns, recorded while the parser built every
#: subcommand up front; Python 3.10 to 3.12 print the same bytes.
HELP_DIGESTS = {
    ('--help',): "98ed71757a43c18f3e047630e720378d9226d343ac354f9226f9c11b392803b9",
    ('polys', '--help'): "5f6dd3af65b9f691edabf5825a1e05c5c624d4421608a65eb3826f246093b77e",
    ('count', '--help'): "9329c2ce9951fd8e44daeaa3e7252f0961acc93a5b2de41098226e39f01127ba",
    ('classes', '--help'): "e8c6b13669fd92a4b2d9939e5db14eeb7d605740e945cf008568c408b5fb651b",
    ('verify', '--help'): "81315341e6aa03926bd32a4127e5035492e68157bcadeafcc8be97dcb9768973",
    ('corpus', '--help'): "3d4aa610274d39e08d2b6764f1b08e74cf4bf99b631977543b3b0a93e4f3e10a",
    ('example', '--help'): "0951da1bc781c07b345d387201f3eed2e0e5218e4eefd99dfa059c6794f2a55e",
    (): "b7290bc6a036a633ca239e6775fe13a1dfc5ce8c0dd0cbe6054c3cda58d7832a",
    ('polish',): "8c12664cc613cb06f0ee6387d477cebbe0e615a92288f06823f020741e77967a",
    ('--format', 'xml', 'example'): "f40ea9cd9c1d8f0fb01e9b6cebace2a3aa1c1087b1add4dee1ac114779bab782",
    ('-h', 'polys'): "98ed71757a43c18f3e047630e720378d9226d343ac354f9226f9c11b392803b9",
    ('polys',): "415fe5dd4bc36469afaf0ad8c6e0c18a96c7f3f69f0b2f34520d85654891c11c",
    ('count', 'g.g', '--family', 'nope'): "4a71c4488279226b22521e74a453f3047480148feae464a053ef4e05a23b3b16",
    ('classes', 'g.g'): "8f8a00c06373e32de19c72d42a919a918f7c47cf437a68bb8041c96b05ae3310",
    ('corpus', '--max-edges', 'three'): "15d6f087a9afec7baec49a9503a762750e0e8a6bf40b38b5e8a037c936ebb0d0",
    ('example', 'extra'): "8859219bc90a856785d2395bd880b9b04b6802417ccaab38bb336158224c2bb8",
    ('--budget', 'polys', 'verify', 'g.g'): "2bd4e31e5dd304c69011d1c74f64cdf69a2e2e11d90bd0c13c7fa88d901a3966",
}


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 words its help anew")
@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
def test_help_and_usage_errors_are_byte_identical(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    printed = json.dumps([code, captured.out, captured.err])
    assert hashlib.sha256(printed.encode()).hexdigest() == HELP_DIGESTS[argv], printed


def test_only_the_running_subcommand_is_built(p8_file, monkeypatch, capsys):
    # a fresh parser builds itself and the one subcommand that runs, the
    # next command of the process its own, and the help none
    import ctfpolys.cli as cli

    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, **kwargs: built.append(kwargs["prog"]) or init(self, **kwargs))
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (["polys", p8_file], ["polys", p8_file], ["verify", p8_file]):
        main(argv)
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert built == ["ctfpolys", "ctfpolys polys", "ctfpolys verify"]


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


def test_corpus_json_streams_each_graph(monkeypatch, capsys):
    # a sweep that dies after its first graph has already written that
    # graph's entry; one that dies before its first graph writes nothing
    import ctfpolys.cli as cli
    from ctfpolys import BudgetExceededError, verify_graph

    graph = build_graph(2, [(0, 1)])
    report = verify_graph(graph)

    def sweep(max_edges, include_loops, budget):
        yield from [(graph, report)][:max_edges]
        raise BudgetExceededError("sweep stopped")

    monkeypatch.setattr(cli, "verify_corpus", sweep)
    entry = {"vertex_count": 2, "edges": [[0, 1]], "all_passed": True,
             "checks": report.to_json_list()}
    for max_edges, out in ((1, json.dumps([entry], indent=2)[:-2]), (0, "")):
        assert main(["--format", "json", "corpus", "--max-edges", str(max_edges)]) == 1
        captured = capsys.readouterr()
        assert captured.out == out
        assert "sweep stopped" in captured.err


#: SHA-256 of the JSON output of each command, recorded before the corpus
#: JSON was written graph by graph and before the ledger's and the polys
#: report's sums were merged by block-reversal orbit.
JSON_DIGESTS = {
    ("corpus", "--max-edges", "3", "--loops"):
        "76273e566a7c55efe9b9981aa7ec75379cec16c53d634d16e6529c90358f8879",
    ("polys", "K4"): "5bca7b0d4a4ee3b4bb3e774b047b50030450a3aebed09df2575209fa862ad2d1",
    ("polys", "K4-bridge"): "96c5bdb2cae1eedf03481a6befcf9d58557d6faae7ef8950adb41c5815448614",
    ("polys", "example-loop"): "46f09a94d25b2540b88970364b0221cc76e814d4d0e9b3ad1d3c0201798e58b3",
}

DIGEST_GRAPHS = {
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "K4-bridge": (5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]),
    "example-loop": (3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2), (0, 0)]),
}


@pytest.mark.parametrize("command", sorted(JSON_DIGESTS))
def test_json_output_is_byte_identical(command, tmp_path, capsys):
    argv = list(command)
    if command[0] == "polys":
        path = tmp_path / f"{command[1]}.g"
        path.write_text(format_graph_text(build_graph(*DIGEST_GRAPHS[command[1]])))
        argv[1] = str(path)
    assert main(["--format", "json", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[command]

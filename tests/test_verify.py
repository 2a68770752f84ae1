import gc
import json

import pytest
from hypothesis import given, settings

from ctfpolys import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Orientation,
    build_graph,
    local_polynomial,
    rank_generating,
    small_multigraphs,
    tutte,
    verify_corpus,
    verify_graph,
)
from ctfpolys import verify
from ctfpolys.cli import main
from ctfpolys.multigraph import format_graph_text
from ctfpolys.counting import CountTable
from ctfpolys.polynomials import BivariatePolynomial, InterpolationError, _compact_key
from ctfpolys.verify import IDENTITY_TAGS, _PolynomialMemo
from strategies import multigraphs

ALL_IDS = [identity for identity, _ in IDENTITY_TAGS]


def test_verify_worked_example(p8):
    report = verify_graph(p8)
    assert report.all_passed, report.failures()
    assert [c.identity for c in report.checks] == ALL_IDS


def test_verify_single_bridge_and_loop(k2, l1):
    # K2 exercises the pure tension branch, L1 the pure flow branch
    for g in (k2, l1):
        report = verify_graph(g)
        assert report.all_passed, (g.edges, report.failures())


def test_verify_edgeless():
    g = build_graph(3, [])
    report = verify_graph(g)
    assert report.all_passed
    assert tutte(g).to_text() == "1"


def test_verify_with_isolated_vertex():
    # identities do not care about isolated vertices
    report = verify_graph(build_graph(4, [(0, 1), (1, 2), (0, 2)]))
    assert report.all_passed, report.failures()


def test_verify_limit():
    # the ledger sweeps 2^|E| orientations and edge subsets
    with pytest.raises(BudgetExceededError):
        verify_graph(build_graph(2, [(0, 1)] * 21))
    digon13 = build_graph(2, [(0, 1)] * 13)
    with pytest.raises(BudgetExceededError, match="8192 edge subsets"):
        verify_graph(digon13, budget=2 ** 13 - 1)


def test_resource_limits_skip_identities(p8):
    # p8 has 5 edges, so a budget of 32 lets the ledger sweep its subsets
    # and orientations. A budget of 40 DP states per kernel call covers the
    # modular families and the box tables but not the integral counts behind
    # kappa_int and phi_int, so the identities reading them are skipped and
    # the others still pass. The triangle with every edge doubled has 6
    # edges (64 subsets); at 80 its modular counts are over the budget too,
    # and the modular zero-set histograms of RPQ and the Tutte convolution,
    # which counts nothing, are left among the passing identities.
    doubled = build_graph(3, [(0, 1), (1, 2), (2, 0)] * 2)
    must_pass_at_40 = {"T2b", "T2c", "T2d", "T2e", "PL", "PE", "T3", "RPQ", "TC"}
    for graph, budget, must_pass in ((p8, 40, must_pass_at_40), (doubled, 80, {"RPQ", "TC"})):
        report = verify_graph(graph, budget=budget)
        status = {c.identity: c.status for c in report.checks}
        assert set(status.values()) == {"pass", "skip"}, status
        assert {i for i, s in status.items() if s == "pass"} >= must_pass
        assert status["T1b"] == status["IND"] == "skip"
        assert not report.all_passed and report.outcome == "skip"
        for check in report.checks:
            if check.status == "skip":
                assert check.witness.startswith("resource limit: ")
    assert status["T2b"] == "skip"  # the lower tier's modular identities


def test_interpolation_failure_fails_its_identity(p8, tmp_path, monkeypatch, capsys):
    # a polynomial that fails its interpolation checks is a verdict on the
    # identities that read it: they fail, and the ledger still reports the rest
    real = verify.orientation_sum_polynomial

    def broken(table, family, pairs):
        if family == "kappa_bar_mod":
            raise InterpolationError("kappa_bar_mod interpolated to non-integer coefficients")
        return real(table, family, pairs)

    monkeypatch.setattr(verify, "orientation_sum_polynomial", broken)
    report = verify_graph(p8)
    assert [c.identity for c in report.checks] == ALL_IDS
    t2b = next(c for c in report.checks if c.identity == "T2b")
    assert t2b.status == "fail"
    assert t2b.witness == "kappa_bar_mod interpolated to non-integer coefficients"
    assert report.outcome == "fail"

    path = tmp_path / "p8.g"
    path.write_text(format_graph_text(p8))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert all(identity in out for identity in ALL_IDS)


def test_report_serialization(k2):
    report = verify_graph(k2)
    payload = report.to_json_list()
    assert [entry["id"] for entry in payload] == ALL_IDS
    for entry in payload:
        assert set(entry) == {"id", "tag", "status", "witness"}
        assert entry["status"] == "pass"
        assert entry["witness"] is None
    json.dumps(payload)
    text = report.to_text()
    assert "T1b" in text and "pass" in text


def test_small_multigraphs_counts():
    assert len(list(small_multigraphs(0, True))) == 1
    assert len(list(small_multigraphs(1, True))) == 4
    assert len(list(small_multigraphs(2, True))) == 11
    assert len(list(small_multigraphs(1, False))) == 3

    seen = set()
    for g in small_multigraphs(3, True):
        key = (g.vertex_count, tuple(sorted(tuple(sorted(e)) for e in g.edges)))
        assert key not in seen
        seen.add(key)
        assert g.edge_count <= 3
        assert g.vertex_count <= 4


def test_small_multigraphs_cover_known_shapes():
    from itertools import permutations

    graphs = list(small_multigraphs(3, True))

    def canon(vertex_count, edges):
        return min(
            tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
            for p in permutations(range(vertex_count))
        )

    def has(vertex_count, edges):
        want = canon(vertex_count, edges)
        return any(
            g.vertex_count == vertex_count and canon(vertex_count, g.edges) == want
            for g in graphs
        )

    assert has(2, [(0, 1)])                        # single bridge
    assert has(1, [(0, 0)])                        # loop
    assert has(3, [(0, 1), (1, 2), (0, 2)])        # triangle
    assert has(2, [(0, 1), (0, 1)])                # digon
    assert has(2, [(0, 1), (0, 1), (0, 0)])        # digon plus loop
    assert has(4, [(0, 1), (2, 3)])                # disconnected
    assert has(3, [(0, 1), (1, 2), (1, 2)])        # bridge plus digon


def test_verify_corpus_small():
    results = list(verify_corpus(2, include_loops=True))
    assert len(results) == 11
    for graph, report in results:
        assert report.all_passed, (graph.edges, report.failures())


def test_verify_corpus_edgeless_only():
    results = list(verify_corpus(0, include_loops=True))
    assert len(results) == 1
    graph, report = results[0]
    assert graph.edge_count == 0
    assert report.all_passed


def test_corpus_budget_stops_before_the_first_graph():
    # 3 edges give 2^3 edge subsets: the sweep refuses before the edgeless
    # graphs, which alone would fit
    with pytest.raises(BudgetExceededError, match="8 edge subsets exceed the budget of 4"):
        next(verify_corpus(3, True, budget=4))
    assert len(list(verify_corpus(2, True, budget=4))) == 11


def test_sweep_memo_changes_no_report():
    # the sweep shares one memo across graphs; each report must equal the
    # one a fresh ledger run gives
    for graph, report in verify_corpus(3, include_loops=True):
        assert report.checks == verify_graph(graph).checks, graph.edges


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_edges=5), multigraphs(max_edges=5))
def test_filled_workspace_changes_no_report(first, second):
    # a workspace that one ledger run filled (polynomials of the graph, its
    # minors and their siblings) must give a second graph the report a
    # fresh run gives
    memo = _PolynomialMemo()
    verify._verify_graph(first, DEFAULT_BUDGET, memo)
    assert verify._verify_graph(second, DEFAULT_BUDGET, memo) == verify_graph(second)


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_edges=7))
def test_ledger_passes_on_random_multigraphs(graph):
    # every identity holds on every multigraph, and none is skipped at the
    # default budget up to 7 edges
    report = verify_graph(graph)
    assert report.outcome == "pass", (graph.edges, report.failures())


W4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])


@pytest.mark.parametrize("name", ["p8", "W4"])
def test_t2e_reads_the_minors_t1e_made(name, request, monkeypatch, kernel_calls,
                                       component_passes):
    # T1e makes each minor's _mod families with its _int ones, from the same
    # table, so T2e counts nothing and sweeps no orientation; and no table or
    # minor list outlives the ledger run
    graph = request.getfixturevalue(name) if name == "p8" else W4
    real, totals = verify.IdentityCheck, {}

    def check(identity, *args):
        totals[identity] = (kernel_calls.total(), component_passes.total())
        return real(identity, *args)

    monkeypatch.setattr(verify, "IdentityCheck", check)
    memo = _PolynomialMemo()
    assert verify._verify_graph(graph, DEFAULT_BUDGET, memo).all_passed
    assert totals["T2e"] == totals["T2d"]
    assert all(t1e > t1d for t1e, t1d in zip(totals["T1e"], totals["T1d"]))
    assert list(vars(memo)) == ["_polys"]
    assert all(isinstance(poly, BivariatePolynomial) for poly in memo._polys.values())
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, CountTable)]


def test_local_memo_keys_keep_direction():
    # a->b->c and a->b<-c share the undirected key but not the directed one
    path = build_graph(3, [(0, 1), (1, 2)])
    through = Orientation.reference(path)
    inward = through.with_flipped([1])
    assert _compact_key(path) == _compact_key(build_graph(3, [(0, 1), (2, 1)]))
    assert _compact_key(path, through) != _compact_key(path, inward)
    # the two orientations of a digon differ the same way and have different
    # local polynomials: one memo must still return each one's own
    digon = build_graph(2, [(0, 1), (0, 1)])
    acyclic = Orientation.reference(digon)
    cyclic = acyclic.with_flipped([1])
    memo = _PolynomialMemo()
    for family in ("tau_local", "phi_local", "tau_bar_local", "phi_bar_local"):
        fresh = [local_polynomial(digon, o, family) for o in (acyclic, cyclic)]
        assert fresh[0] != fresh[1], family
        assert [memo.polynomial(digon, family, DEFAULT_BUDGET, o) for o in (acyclic, cyclic)] == fresh


def test_failure_witness_counts_problems(p8, monkeypatch):
    # a wrong rank generating polynomial breaks all 18 RPQ checks: the
    # witness names the first and counts the other 17
    import ctfpolys.verify as verify

    wrong = rank_generating(p8) + 1
    monkeypatch.setattr(verify, "rank_generating", lambda graph: wrong)
    report = verify_graph(p8)
    rpq = next(c for c in report.checks if c.identity == "RPQ")
    assert rpq.status == "fail"
    assert rpq.witness.startswith("R(1,1) pair sum: ")
    assert rpq.witness.endswith(" (+17 more)")
    assert report.outcome == "fail"
    assert set(report.to_json_list()[0]) == {"id", "tag", "status", "witness"}


def test_polynomial_witness_names_the_first_differing_point(p8, monkeypatch):
    # R + x agrees with R where x = 0, so the first grid point, in (p, q)
    # order, at which T3's two sides differ is (1, 0)
    rank_poly = rank_generating(p8)
    wrong = rank_poly + BivariatePolynomial.variable("x")
    monkeypatch.setattr(verify, "rank_generating", lambda graph: wrong)
    t3 = next(c for c in verify_graph(p8).checks if c.identity == "T3")
    at = rank_poly.evaluate(1, 0)
    assert t3.witness == (f"kappa_bar_mod = rank generating: {rank_poly} != {wrong}, "
                          f"first at (p, q) = (1, 0): {at} != {at + 1}")

    col = verify._Collector()
    x, y = BivariatePolynomial.variable("x"), BivariatePolynomial.variable("y")
    col.equal("a", x * x * y + 1, BivariatePolynomial.constant(1))
    col.equal("b", 3, 4)
    assert col.problems == [
        f"a: {x * x * y + 1} != {BivariatePolynomial.constant(1)}, "
        "first at (p, q) = (1, 1): 2 != 1",
        "b: 3 != 4",
    ]


#: the label each Theorem 1/2 identity's first failing check starts with when
#: the open (kappa) or the closed (kappa_bar) graph-level polynomial is wrong
THEOREM_WITNESSES = {
    "kappa": {
        "T1b": "kappa_int = sum of local",
        "T1c": "kappa_int(-x,-y)",
        "T1d": "kappa_int(x,1)",
        "T1e": "kappa_int convolution",
        "T2b": "kappa_mod = sum over reps",
        "T2c": "kappa_mod(-x,-y)",
        "T2d": "kappa_mod(x,1)",
        "T2e": "kappa_mod convolution",
    },
    "kappa_bar": {
        "T1b": "kappa_bar_int = sum of local",
        "T1c": "kappa_bar_int(-x,-y)",
        "T1d": "kappa_bar_int(x,-1)",
        "T1e": "kappa_bar_int convolution",
        "T2b": "kappa_bar_mod = sum over reps",
        "T2c": "kappa_bar_mod(-x,-y)",
        "T2d": "kappa_bar_mod(x,-1)",
        "T2e": "kappa_bar_mod convolution",
    },
}


@pytest.mark.parametrize("wrong", sorted(THEOREM_WITNESSES))
def test_theorem_witnesses_name_the_wrong_polynomial(p8, monkeypatch, wrong):
    # kappa_int/kappa_mod come from the workspace's _polynomial, kappa_bar_int
    # and kappa_bar_mod from orientation_sum_polynomial: one more than the
    # true polynomial breaks every Theorem 1 and 2 identity that reads it
    import ctfpolys.verify as verify

    name = "_polynomial" if wrong == "kappa" else "orientation_sum_polynomial"
    true = getattr(verify, name)

    def off_by_one(source, family, *args):
        poly = true(source, family, *args)
        return poly + 1 if family in (f"{wrong}_int", f"{wrong}_mod") else poly

    monkeypatch.setattr(verify, name, off_by_one)
    checks = {c.identity: c for c in verify_graph(p8).checks}
    for identity, label in THEOREM_WITNESSES[wrong].items():
        assert checks[identity].status == "fail", identity
        assert checks[identity].witness.startswith(label + ": "), checks[identity].witness


def test_ind_recounts_its_reversed_orientation(p8, monkeypatch, kernel_calls):
    # the reversed reference orientation has the reference's orbit key: IND
    # must count it with kernel calls of its own, never from a ledger table,
    # or it would compare kappa_int with itself
    import ctfpolys.verify as verify

    true_sum, made, tables = verify.orientation_sum_polynomial, [], []

    def counted(table, family, pairs):
        out = []
        calls = kernel_calls(lambda: out.append(true_sum(table, family, pairs)))
        if family == "kappa_int":
            made.append((table, calls))
        else:
            tables.append(table)
        return out[0]

    monkeypatch.setattr(verify, "orientation_sum_polynomial", counted)
    assert verify_graph(p8).all_passed
    # one recount over the whole grid, from a table no other sum reads
    assert len(made) == 1 and made[0][1] >= 1, made
    assert all(table is not made[0][0] for table in tables)

    true_poly = verify._polynomial

    def off_by_one(table, family, *args):
        poly = true_poly(table, family, *args)
        return poly + 1 if family == "kappa_int" else poly

    monkeypatch.setattr(verify, "_polynomial", off_by_one)
    ind = next(c for c in verify_graph(p8).checks if c.identity == "IND")
    assert ind.status == "fail"
    assert ind.witness.startswith("kappa_int from reversed orientation: "), ind.witness


def test_t2e_reads_the_sibling_products_t1e_made(monkeypatch, block_splits):
    # a minor of several blocks stores its _mod family once every block's is
    # stored, so T2e splits no minor into blocks again
    from ctfpolys.polynomials import _block_restrictions

    real, at = verify.IdentityCheck, {}

    def check(identity, *args):
        at[identity] = block_splits.total()
        return real(identity, *args)

    monkeypatch.setattr(verify, "IdentityCheck", check)
    memo = _PolynomialMemo()
    assert verify._verify_graph(W4, DEFAULT_BUDGET, memo).all_passed
    assert any(len(_block_restrictions(r)) > 1 for _, _, r, _ in memo.minors(W4))
    assert at["T1e"] > at["T1d"]
    assert at["T2e"] == at["T2d"]


K4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def _drop_an_orbit(monkeypatch):
    # a sum over several orbits loses the weight of its last one
    from ctfpolys import polynomials

    real = polynomials._orbit_weights

    def dropped(table, pairs):
        merged = real(table, pairs)
        return merged[:-1] + [(merged[-1][0], 0)] if len(merged) > 1 else merged

    monkeypatch.setattr(polynomials, "_orbit_weights", dropped)


def _wrong_sign_parity(monkeypatch):
    # P(-x, -y) with the even-degree terms flipped instead of the odd ones
    monkeypatch.setattr(verify, "_neg_vars", lambda poly: BivariatePolynomial(
        {(i, j): -c if (i + j) % 2 == 0 else c for (i, j), c in poly.coefficients.items()}))


def _off_by_one_partial(monkeypatch):
    # set_x and set_y evaluate one past the value asked for
    for name in ("set_x", "set_y"):
        real = getattr(BivariatePolynomial, name)
        monkeypatch.setattr(BivariatePolynomial, name,
                            lambda self, value, real=real: real(self, value + 1))


def _direction_blind_orbits(monkeypatch):
    # the count table keys orientations by their blocks as undirected
    # graphs, so it merges orientations whose counts differ
    from ctfpolys import counting
    from ctfpolys.multigraph import canonical_form

    monkeypatch.setattr(counting, "canonical_form",
                        lambda n, arcs, directed=True: canonical_form(n, arcs, False))


#: Each single-side mutation of the ledger's shared arithmetic and the
#: identities that must catch it.
MUTATIONS = {
    "dropped_orbit_weight": (_drop_an_orbit, {"T1b", "IM"}),
    "direction_blind_orbit_key": (_direction_blind_orbits, {"T1b", "T1c", "T2c", "PL", "T3"}),
    "wrong_sign_parity": (_wrong_sign_parity, {"T1c", "T2c", "PL"}),
    "off_by_one_partial_evaluation": (_off_by_one_partial, {"T1d", "T2d", "PL"}),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("name", ["K4", "p8"])
def test_single_side_mutation_fails_a_named_identity(name, mutation, request, monkeypatch):
    graph = K4 if name == "K4" else request.getfixturevalue("p8")
    mutate, named = MUTATIONS[mutation]
    mutate(monkeypatch)
    failed = {c.identity for c in verify_graph(graph).checks if c.status == "fail"}
    assert named <= failed, (mutation, failed)

"""Blocks as the unit of work: a graph's polynomials, and the ledger
workspace's, are products over the blocks of the graph (the components of
its cycle matroid), checked against one whole-graph CountTable."""

import pytest
from hypothesis import given, settings

from ctfpolys import build_graph, polynomial_report, rank_generating, tutte
from ctfpolys import verify
from ctfpolys.counting import LOCAL_FAMILIES, CountTable
from ctfpolys.polynomials import REPORT_FAMILIES, _block_restrictions, _polynomial
from ctfpolys.verify import _PolynomialMemo, small_multigraphs
from strategies import multigraphs

# a triangle with a pendant bridge and a loop at the far end: three blocks
TRIANGLE_BRIDGE_LOOP = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 3)])


def whole_report(graph):
    """What ``polynomial_report(graph).named()`` gives, from one table."""
    table = CountTable(graph)
    named = {"tutte": tutte(graph), "rank_generating": rank_generating(graph)}
    named.update((family, _polynomial(table, family)) for family in REPORT_FAMILIES)
    return named


def block_product_mismatches(graph, per_orientation):
    """The (family, flip string) pairs where a block path differs from one
    whole-graph CountTable: the polys report and the workspace's
    definition-level path for the graph-level families, and with
    ``per_orientation`` the workspace's path for the per-orientation
    families at every orientation."""
    whole, memo, report = CountTable(graph), _PolynomialMemo(), polynomial_report(graph)
    bad = []
    for family in REPORT_FAMILIES:
        expected = _polynomial(whole, family)
        if report.families[family] != expected or \
                memo.polynomial(graph, family) != expected:
            bad.append((family, None))
    if per_orientation:
        for o in whole.orientations:
            for family in LOCAL_FAMILIES:
                if memo.polynomial(graph, family, o) != _polynomial(whole, family, o):
                    bad.append((family, o.flip_string()))
    return bad


def test_block_products_match_whole_graph_tables():
    multi_block = [g for g in small_multigraphs(4, True) if len(_block_restrictions(g)) > 1]
    assert len(multi_block) > 50
    for graph in multi_block:
        assert block_product_mismatches(graph, graph.edge_count <= 3) == [], graph


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_edges=6))
def test_report_is_the_product_of_block_reports(graph):
    assert polynomial_report(graph).named() == whole_report(graph)


@pytest.mark.parametrize("graph", [
    build_graph(3, []),                                       # no block: every product is 1
    build_graph(5, [(0, 1), (1, 1), (1, 2), (3, 3), (2, 3)]),  # bridges, loops, vertex 4 isolated
    TRIANGLE_BRIDGE_LOOP,
    build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),  # two triangles at a cut vertex
])
def test_block_report_edge_cases(graph):
    named = polynomial_report(graph).named()
    assert named == whole_report(graph)
    if not graph.edge_count:
        assert all(p.to_text() == "1" for p in named.values())


def _drop_last(graph):
    blocks = _block_restrictions(graph)
    return blocks[:-1] if len(blocks) > 1 else blocks


def _repeat_first(graph):
    blocks = _block_restrictions(graph)
    return blocks + blocks[:1] if len(blocks) > 1 else blocks


@pytest.mark.parametrize("mutation", [_drop_last, _repeat_first])
def test_wrong_block_split_fails_the_ledger(monkeypatch, mutation):
    # the ledger's table stays whole, so a block product that loses or
    # repeats a block differs from the whole-graph side it is compared with:
    # the graph's own definition-level families in T1b, T2b, IM and IND, the
    # minors' families in T1e and T2e
    monkeypatch.setattr(verify, "_block_restrictions", mutation)
    status = {c.identity: c.status for c in verify.verify_graph(TRIANGLE_BRIDGE_LOOP).checks}
    assert all(status[i] == "fail" for i in ("T1b", "T1e", "T2b", "T2e", "IM", "IND")), status

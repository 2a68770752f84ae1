import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ctfpolys import (
    GraphFormatError,
    MultiGraph,
    Orientation,
    build_graph,
    format_graph_text,
    is_flow,
    parse_graph_text,
    spanning_structure,
)
from ctfpolys.multigraph import _assignment_order, canonical_form
from ctfpolys.verify import small_multigraphs


def test_example_graph_shape(p8):
    assert p8.vertex_count == 3
    assert p8.edge_count == 5
    assert p8.edge_ids == (0, 1, 2, 3, 4)
    stats = p8.stats()
    assert (stats.components, stats.rank, stats.nullity) == (1, 2, 3)


def test_stats_small(k2, l1):
    assert (k2.stats().components, k2.stats().rank, k2.stats().nullity) == (1, 1, 0)
    assert (l1.stats().components, l1.stats().rank, l1.stats().nullity) == (1, 0, 1)


def test_stats_rank_plus_nullity(small_corpus):
    for g in small_corpus:
        s = g.stats()
        assert s.rank + s.nullity == g.edge_count
        assert s.rank >= 0 and s.nullity >= 0 and s.components >= 0


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(-1, [])
    # non-integers are refused, not truncated; bool is refused as a count
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1.7)])
    with pytest.raises(ValueError):
        build_graph(2.5, [(0, 1)])
    with pytest.raises(ValueError):
        build_graph(True, [(0, 0)])
    with pytest.raises(ValueError):
        MultiGraph(3, ((0, 1.5),), (0,))
    with pytest.raises(ValueError):
        MultiGraph(3, ((0, True),), (0,))


def test_restrict_keeps_ids(p8):
    sub = p8.restrict({1, 3})
    assert sub.vertex_count == 3
    assert sub.edges == ((0, 1), (0, 1))
    assert sub.edge_ids == (1, 3)

    empty = p8.restrict(set())
    assert empty.edge_count == 0 and empty.vertex_count == 3


def test_restrict_identity(k2):
    assert k2.restrict({0}) == k2


def test_restrict_unknown_id(p8):
    with pytest.raises(KeyError):
        p8.restrict({9})


def test_contract_merges_and_relabels(p8, k2):
    merged = p8.contract({1, 3})
    assert merged.vertex_count == 2
    assert merged.edges == ((0, 1), (0, 1), (0, 1))
    assert merged.edge_ids == (0, 2, 4)

    point = k2.contract({0})
    assert point.vertex_count == 1 and point.edge_count == 0

    assert p8.contract(set()) == p8


def test_contract_makes_loops():
    g = build_graph(3, [(0, 1), (0, 1), (1, 2)])
    merged = g.contract({0})
    assert merged.edges[0] == (0, 0)  # parallel partner became a loop
    assert merged.edge_ids == (1, 2)


def test_delete(p8, l1, k2):
    assert p8.delete(0).edge_ids == (1, 2, 3, 4)
    assert l1.delete(0).edge_count == 0
    two_points = k2.delete(0)
    assert two_points.vertex_count == 2
    assert two_points.stats().components == 2


def _all_subsets(ids):
    ids = list(ids)
    for mask in range(1 << len(ids)):
        yield {ids[k] for k in range(len(ids)) if mask >> k & 1}


def test_rank_additivity(small_corpus, p8):
    # r(G) = r(G/X) + r(G|X) over every edge subset
    for g in list(small_corpus) + [p8]:
        r_full = g.stats().rank
        for subset in _all_subsets(g.edge_ids):
            assert r_full == g.contract(subset).stats().rank + g.restrict(subset).stats().rank


def _signature(g):
    degrees = [0] * g.vertex_count
    for u, v in g.edges:
        degrees[u] += 1
        degrees[v] += 1
    stats = g.stats()
    return (
        (stats.components, stats.rank, stats.nullity),
        sorted(degrees),
        sorted(tuple(sorted(e)) for e in g.edges),
    )


def test_contract_composes(small_corpus):
    # G/X/Y agrees with G/(X u Y) up to vertex relabelling
    for g in small_corpus:
        ids = list(g.edge_ids)
        for x_set in _all_subsets(ids):
            rest = [i for i in ids if i not in x_set]
            for y_set in _all_subsets(rest):
                step = g.contract(x_set).contract(y_set)
                joint = g.contract(x_set | y_set)
                assert _signature(step)[:2] == _signature(joint)[:2]
                assert step.edge_ids == joint.edge_ids


def test_spanning_structure_invariants(small_corpus, p8):
    for g in list(small_corpus) + [p8]:
        forest = spanning_structure(g)
        stats = g.stats()
        assert len(forest.forest_positions) == stats.rank
        assert len(forest.circuit_table) == stats.nullity
        ref = Orientation.reference(g)
        for e, rest in forest.circuit_table:
            assert e not in forest.forest_positions
            assert all(t in forest.forest_positions for t, _ in rest)
            if g.is_loop(e):
                assert rest == ()
            # the signs follow the traversal along e: the circuit's signed
            # indicator is a flow of the reference orientation
            circuit = [0] * g.edge_count
            circuit[e] = 1
            for t, sign in rest:
                circuit[t] = sign
            assert is_flow(ref, circuit)


def test_spanning_structure_views_agree(small_corpus, p8):
    # the circuit table and the flow table describe the same forest and
    # circuits by position; deleting the first edge makes labels differ from
    # positions
    graphs = list(small_corpus) + [p8]
    graphs += [g.delete(g.edge_ids[0]) for g in graphs if g.edge_count]
    for g in graphs:
        forest = spanning_structure(g)
        assert list(forest.forest_positions) == sorted(forest.forest_positions)
        # the flow table lists, per forest edge, the circuits through it
        assert forest.flow_table == tuple(
            (t, tuple(
                (e, sign) for e, rest in forest.circuit_table for t2, sign in rest if t2 == t
            ))
            for t in forest.forest_positions
        )
        cotree = [e for e, _ in forest.circuit_table]
        assert sorted(cotree + list(forest.forest_positions)) == list(range(g.edge_count))
        assert len(forest.blocks) == g.edge_count


def test_assignment_orders_permute_the_free_positions(small_corpus, p8):
    for g in small_corpus + [p8]:
        forest = spanning_structure(g)
        cotree = [e for e, _ in forest.circuit_table]
        assert sorted(forest.tension_order) == list(forest.forest_positions)
        assert sorted(forest.flow_order) == cotree


def _wheel(k):
    return build_graph(k + 1, [(0, v) for v in range(1, k + 1)]
                       + [(v, v % k + 1) for v in range(1, k + 1)])


def test_assignment_orders_match_the_greedy_reference():
    # the heap gives the order the greedy that rescans every value gives
    for g in [*small_multigraphs(5, True), *map(_wheel, range(4, 8))]:
        forest = spanning_structure(g)
        tension_sums = [{t for t, _ in rest} for _, rest in forest.circuit_table if rest]
        flow_sums = [{e for e, _ in through} for _, through in forest.flow_table if through]
        assert forest.tension_order == oracles.assignment_order_greedy(
            forest.forest_positions, tension_sums), g.edges
        assert forest.flow_order == oracles.assignment_order_greedy(
            [e for e, _ in forest.circuit_table], flow_sums), g.edges


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sets(st.integers(0, 9), min_size=1), max_size=8))
def test_assignment_order_matches_the_greedy_reference_random(sums):
    free = sorted(set().union(*sums) | {10})
    assert _assignment_order(free, sums) == oracles.assignment_order_greedy(free, sums)


def test_spanning_forest_grows_from_a_highest_degree_vertex():
    # the hub of a wheel has the highest degree, so the forest is its star
    # of spokes, wherever the hub and the spokes sit in the edge order
    w4 = build_graph(5, [(0, 1), (1, 3), (3, 4), (4, 0), (2, 0), (1, 2), (2, 3), (4, 2)])
    assert spanning_structure(w4).forest_positions == (4, 5, 6, 7)


def test_spanning_structure_examples(k2, l1):
    assert spanning_structure(k2).forest_positions == (0,)
    assert spanning_structure(k2).circuit_table == ()
    loop_forest = spanning_structure(l1)
    assert loop_forest.forest_positions == ()
    assert loop_forest.circuit_table == ((0, ()),)


def test_graph_text_roundtrip(p8, small_corpus):
    for g in list(small_corpus) + [p8]:
        assert parse_graph_text(format_graph_text(g)) == g


def test_graph_text_comments_and_errors():
    g = parse_graph_text("# demo\nv 2\n\ne 0 1\n")
    assert g.edge_count == 1 and g.vertex_count == 2

    for bad in (
        "e 0 1\n",            # edge before vertex line
        "v 2\nv 2\n",          # duplicate vertex line
        "v x\n",               # bad count
        "v 2\ne 0\n",          # short edge line
        "v 2\ne 0 5\n",        # endpoint out of range
        "v 2\nq 1 2\n",        # unknown directive
        "",                    # missing vertex line
    ):
        with pytest.raises(GraphFormatError):
            parse_graph_text(bad)


@st.composite
def _arc_lists(draw, max_vertices=5, max_arcs=7):
    """(vertex count, arcs): at most 5 vertices and 7 arcs, loops and
    parallel arcs included."""
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=max_arcs))


@st.composite
def _symmetric_arc_lists(draw):
    """(vertex count, arcs): copies of a small random graph, joined in a
    cycle through their first vertices or not, on at most 6 vertices; colour
    refinement cannot tell their copies apart, so the search must
    individualise vertices and prune by automorphisms."""
    b = draw(st.integers(1, 3))
    copies = draw(st.integers(2, 6 // b))
    vertex = st.integers(0, b - 1)
    base = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
    arcs = [(u + b * k, v + b * k) for k in range(copies) for u, v in base]
    if draw(st.booleans()):
        arcs += [(b * k, b * ((k + 1) % copies)) for k in range(copies)]
    return b * copies, arcs


_graphs = st.one_of(_arc_lists(), _symmetric_arc_lists())


@settings(max_examples=200, deadline=None)
@given(_graphs, st.booleans(), st.data())
def test_canonical_form_ignores_names_and_order(graph, directed, data):
    # renaming the vertices and shuffling the arcs (and, for edges, the two
    # ends of each) keeps the form
    n, arcs = graph
    perm = data.draw(st.permutations(range(n)))
    renamed = data.draw(st.permutations([(perm[u], perm[v]) for u, v in arcs]))
    if not directed:
        swaps = data.draw(st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs)))
        renamed = [(v, u) if swap else (u, v) for (u, v), swap in zip(renamed, swaps)]
    assert canonical_form(n, renamed, directed) == canonical_form(n, arcs, directed)


@settings(max_examples=300, deadline=None)
@given(_graphs, st.booleans(), st.data())
def test_canonical_form_is_exact(graph, directed, data):
    # equal forms exactly when the brute-force oracle finds an isomorphism:
    # the second graph is a renamed copy, maybe with one arc moved or
    # reversed, so both outcomes come up often
    n, arcs = graph
    perm = data.draw(st.permutations(range(n)))
    other = [(perm[u], perm[v]) for u, v in arcs]
    if other and data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(other) - 1))
        vertex = st.integers(0, n - 1)
        other[k] = data.draw(st.sampled_from([other[k][::-1], (data.draw(vertex), data.draw(vertex))]))
    same = canonical_form(n, arcs, directed) == canonical_form(n, other, directed)
    assert same == oracles.isomorphic(n, arcs, other, directed), (n, arcs, other, directed)


def test_canonical_form_examples():
    # arc direction counts only when directed; loops and parallel arcs count
    assert canonical_form(2, [(0, 1), (0, 1)]) != canonical_form(2, [(0, 1), (1, 0)])
    assert canonical_form(2, [(0, 1), (0, 1)], False) == canonical_form(2, [(0, 1), (1, 0)], False)
    assert canonical_form(2, [(0, 0), (0, 1)]) == canonical_form(2, [(1, 0), (1, 1)])
    assert canonical_form(2, [(0, 0), (0, 1)]) != canonical_form(2, [(0, 1), (1, 1)])
    assert canonical_form(2, [(0, 1)] * 2) != canonical_form(2, [(0, 1)] * 3)
    # the directed 6-cycle and two directed triangles: refinement alone
    # cannot tell them apart, every vertex has one arc in and one out
    hexagon = [(k, (k + 1) % 6) for k in range(6)]
    triangles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    assert canonical_form(6, hexagon) != canonical_form(6, triangles)
    assert canonical_form(0, []) == ()

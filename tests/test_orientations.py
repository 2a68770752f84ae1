from itertools import product

import pytest
from hypothesis import given, settings

import oracles
from ctfpolys import (
    BudgetExceededError,
    Orientation,
    OrientationTable,
    boundary,
    build_graph,
    equivalent,
    induced_orientation,
    is_flow,
    is_tension,
)
from ctfpolys.orientations import RELATIONS, _circuit_part, _positions, _sweep_circuits
from ctfpolys.verify import small_multigraphs
from strategies import multigraphs


def test_boundary(p8, l1):
    ref = Orientation.reference(p8)
    assert boundary(ref, (0, 1, 0, 0, 0)) == (1, -1, 0)
    assert boundary(Orientation.reference(l1), (5,)) == (0,)
    assert boundary(ref, (-1, 1, 1, 0, 0)) == (0, 0, 0)
    with pytest.raises(ValueError):
        boundary(ref, (1, 2))


def test_is_flow(p8):
    ref = Orientation.reference(p8)
    assert is_flow(ref, (-1, 1, 1, 0, 0))
    assert not is_flow(ref, (1, 0, 0, 0, 0))
    assert is_flow(ref, (1, 1, 1, 0, 0), modulus=2)
    assert not is_flow(ref, (1, 1, 1, 0, 0))


def test_is_tension(p8, l1):
    ref = Orientation.reference(p8)
    assert is_tension(ref, (2, 1, 1, 1, 1))
    assert not is_tension(ref, (1, 1, 1, 1, 1))
    assert not is_tension(Orientation.reference(l1), (1,))


def test_minty_partition(p8, l1):
    table = OrientationTable(p8)
    ref = Orientation.reference(p8)
    assert table.circuit(ref) == frozenset()

    flipped = ref.with_flipped([3])  # e4 now v->u, making a digon with e2
    assert table.circuit(flipped) == {1, 3}

    assert OrientationTable(l1).circuit(Orientation.reference(l1)) == {0}


def _assert_circuit_part_is_path_search(graph):
    # a swept table reads its kept masks, a fresh one finds each alone
    swept = OrientationTable(graph)
    swept.members("acyclic")
    fresh = OrientationTable(graph)
    for o in swept.orientations:
        expected = oracles.circuit_part(graph, o.flips)
        assert _circuit_part(o) == expected
        assert swept.circuit(o) == fresh.circuit(o) == expected


def test_circuit_part_matches_path_search(small_corpus, p8):
    for g in small_corpus + [p8]:
        _assert_circuit_part_is_path_search(g)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_circuit_part_matches_path_search_random(graph):
    _assert_circuit_part_is_path_search(graph)


def test_sweep_matches_warshall_closure(p8):
    # the depth-first sweep, and _circuit_part along one branch, give every
    # orientation the circuit mask a closure built from scratch gives it
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    w4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    loops = build_graph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (1, 1), (2, 2)])
    for graph in [*small_multigraphs(4, True), k4, w4, p8, loops]:
        m = graph.edge_count
        expected = [oracles.circuit_mask_warshall(graph, f) for f in range(1 << m)]
        assert _sweep_circuits(graph) == expected, graph.edges
        table = OrientationTable(graph)
        for f, mask in enumerate(expected):
            assert _circuit_part(table.orientation(f)) == _positions(m, mask), (graph.edges, f)


def test_minty_partition_covers_edges(small_corpus):
    # the circuit part is a set of positions and the bond part the rest, so
    # every edge lies in exactly one; loops lie on a directed circuit and
    # bridges on none
    for g in small_corpus:
        table = OrientationTable(g)
        for o in table.orientations:
            circuit = table.circuit(o)
            assert circuit <= set(range(g.edge_count))
            for pos in range(g.edge_count):
                if g.is_loop(pos):
                    assert pos in circuit
                elif g.is_bridge(pos):
                    assert pos not in circuit


def test_classify(p8):
    table = OrientationTable(p8)
    acyclic, totally_cyclic = table.members("acyclic"), table.members("totally_cyclic")
    ref = Orientation.reference(p8)
    assert ref in acyclic and ref not in totally_cyclic

    tc = ref.with_flipped([0, 3, 4])  # w->u, v->u, w->v
    assert tc in totally_cyclic and tc not in acyclic
    assert table.circuit(tc) == set(range(p8.edge_count))

    neither = ref.with_flipped([3])
    assert neither not in acyclic and neither not in totally_cyclic
    assert table.circuit(neither) and table.circuit(neither) != set(range(p8.edge_count))


def test_orientation_counts(p8):
    table = OrientationTable(p8)
    orients = table.orientations
    assert len(orients) == 32
    assert len(table.members("acyclic")) == 6
    assert len(table.members("totally_cyclic")) == 18
    # the sets agree with the definitions: a positive tension, a positive flow
    assert sum(1 for o in orients if oracles.is_acyclic(p8, o.flips)) == 6
    assert sum(1 for o in orients if oracles.is_totally_cyclic(p8, o.flips)) == 18


def test_equivalent_examples(p8):
    ref = Orientation.reference(p8)
    # {e1,e2,e4} is the bond at u
    assert equivalent(ref, ref.with_flipped([0, 1, 3]), "cut")
    # {e2,e4} is a directed digon once e4 is flipped
    assert equivalent(ref.with_flipped([3]), ref.with_flipped([1]), "eulerian")
    for relation in ("cut", "eulerian", "cut_eulerian"):
        assert equivalent(ref, ref, relation)


def test_equivalent_refuses_orientations_of_different_graphs():
    # the two triangles differ only in the direction of their third edge
    a = Orientation.reference(build_graph(3, [(0, 1), (1, 2), (2, 0)]))
    b = Orientation.reference(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
    for relation in RELATIONS:
        with pytest.raises(ValueError, match="orientations live on different graphs"):
            equivalent(a, b, relation)


def test_table_refuses_a_foreign_orientation():
    # b's reference orientation has a's flip mask but is acyclic, where a's
    # is a directed triangle: a fresh table and a swept one must both refuse
    # it instead of answering for the orientation of a at that mask
    a = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    foreign = Orientation.reference(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
    fresh, swept = OrientationTable(a), OrientationTable(a)
    assert swept.members("acyclic") and swept.circuit(swept.orientation(0)) == {0, 1, 2}
    for table in (fresh, swept):
        with pytest.raises(ValueError, match="orientation belongs to a different graph"):
            table.circuit(foreign)
    # an equal graph built apart is the table's graph
    twin = Orientation.reference(build_graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert fresh.circuit(twin) == swept.circuit(twin) == {0, 1, 2}


def test_equivalence_relation_axioms(small_corpus):
    for g in small_corpus:
        if g.edge_count > 3:
            continue
        orients = OrientationTable(g).orientations
        for relation in ("cut", "eulerian", "cut_eulerian"):
            for a in orients:
                assert equivalent(a, a, relation)
            for a, b in product(orients, repeat=2):
                assert equivalent(a, b, relation) == equivalent(b, a, relation)
            for a, b, c in product(orients, repeat=3):
                if equivalent(a, b, relation) and equivalent(b, c, relation):
                    assert equivalent(a, c, relation)


def test_cut_eulerian_preserves_minty(digon_loop, c3):
    for g in (digon_loop, c3):
        for a, b in product(OrientationTable(g).orientations, repeat=2):
            if equivalent(a, b, "cut_eulerian"):
                assert oracles.circuit_part(g, a.flips) == oracles.circuit_part(g, b.flips)


def test_equivalence_preserves_classes(c3, digon_loop):
    for g in (c3, digon_loop):
        table = OrientationTable(g)
        acyclic, totally_cyclic = table.members("acyclic"), table.members("totally_cyclic")
        for a, b in product(table.orientations, repeat=2):
            if a in totally_cyclic and equivalent(a, b, "eulerian"):
                assert b in totally_cyclic
                assert oracles.is_totally_cyclic(g, b.flips)
            if a in acyclic and equivalent(a, b, "cut"):
                assert b in acyclic
                assert oracles.is_acyclic(g, b.flips)


def test_class_censuses(p8):
    expected = {
        ("cut_eulerian", "all"): 8,
        ("cut", "acyclic"): 2,
        ("eulerian", "totally_cyclic"): 4,
        ("cut", "all"): 24,
        ("eulerian", "all"): 14,
    }
    for (relation, filt), want in expected.items():
        partition = OrientationTable(p8).classes(relation, filt)
        assert len(partition.classes) == want, (relation, filt)


def test_class_partition_structure(p8):
    partition = OrientationTable(p8).classes("cut_eulerian", "all")
    members = [o.flips for cls in partition.classes for o in cls]
    assert sorted(members) == sorted(o.flips for o in OrientationTable(p8).orientations)
    for cls, rep in zip(partition.classes, partition.representatives):
        assert rep == cls[0]
        assert min(o.flips for o in cls) == rep.flips


def test_class_size_product_rule(small_corpus):
    for g in small_corpus:
        if g.edge_count > 3:
            continue
        ce = OrientationTable(g).classes("cut_eulerian", "all")
        cu = OrientationTable(g).classes("cut", "all")
        eu = OrientationTable(g).classes("eulerian", "all")

        def size_of(partition, flips):
            for cls in partition.classes:
                if any(o.flips == flips for o in cls):
                    return len(cls)
            raise AssertionError

        for o in OrientationTable(g).orientations:
            assert size_of(ce, o.flips) == size_of(cu, o.flips) * size_of(eu, o.flips)


FILTERS = ("all", "acyclic", "totally_cyclic")


def _flip_classes(partition):
    assert partition.representatives == tuple(cls[0] for cls in partition.classes)
    return tuple(tuple(o.flips for o in cls) for cls in partition.classes)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("filt", FILTERS)
def test_classes_match_pairwise_oracle(small_corpus, p8, relation, filt):
    for g in [*small_corpus, p8]:
        got = _flip_classes(OrientationTable(g).classes(relation, filt))
        assert got == oracles.pairwise_classes(g, relation, filt), (g.edges, relation, filt)


@pytest.mark.parametrize("filt", FILTERS)
def test_cut_eulerian_classes_of_doubled_square(filt):
    # orientations with digons on {01, 23} and on {12, 30} have different
    # circuit parts but equal bond-part circuit sums and circuit-part
    # out-degrees; no multigraph with at most 6 edges has such a pair
    square = build_graph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 0), (3, 0)])
    got = _flip_classes(OrientationTable(square).classes("cut_eulerian", filt))
    assert got == oracles.pairwise_classes(square, "cut_eulerian", filt)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_classes_match_pairwise_oracle_random(graph):
    for relation in RELATIONS:
        for filt in FILTERS:
            got = _flip_classes(OrientationTable(graph).classes(relation, filt))
            assert got == oracles.pairwise_classes(graph, relation, filt), (relation, filt)


def _pairwise_mask_classes(table, relation, filt):
    # each member joins the first class whose first member ``equivalent``
    # relates to it, so the relation is tested pairwise and never keyed
    classes = []
    for f in table._flip_masks(filt):
        o = table.orientation(f)
        for cls in classes:
            if equivalent(table.orientation(cls[0]), o, relation):
                cls.append(f)
                break
        else:
            classes.append([f])
    return classes


@settings(max_examples=60, deadline=None)
@given(multigraphs(max_edges=8))
def test_class_keys_match_pairwise_equivalent_random(graph):
    # the linear class keys group exactly as pairwise ``equivalent`` does
    table = OrientationTable(graph)
    for relation in RELATIONS:
        for filt in FILTERS:
            assert table.mask_classes(relation, filt) == _pairwise_mask_classes(
                table, relation, filt), (graph.edges, relation, filt)


def test_loop_flip_is_eulerian_move(l1, digon_loop):
    loop_ref = Orientation.reference(l1)
    assert equivalent(loop_ref, loop_ref.with_flipped([0]), "eulerian")
    assert not equivalent(loop_ref, loop_ref.with_flipped([0]), "cut")
    assert len(OrientationTable(l1).classes("cut_eulerian", "all").classes) == 1
    assert len(OrientationTable(digon_loop).classes("cut_eulerian", "all").classes) == 2


def test_enumeration_limit(p8):
    # a sweep of p8's 2^5 orientations needs a budget of 32
    assert len(OrientationTable(p8, budget=32).orientations) == 32
    assert len(OrientationTable(p8, budget=32).classes("cut", "all").classes) == 24
    with pytest.raises(BudgetExceededError):
        OrientationTable(p8, budget=31).orientations
    with pytest.raises(BudgetExceededError):
        OrientationTable(p8, budget=31).classes("cut", "all")


def test_unknown_names_are_refused(c3):
    # a misspelt filter or relation is an error, not some other set
    table = OrientationTable(c3)
    with pytest.raises(ValueError, match="unknown filter 'acylic'"):
        table.members("acylic")
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        table.classes("cutt")
    with pytest.raises(ValueError, match="unknown filter 'acylic'"):
        table.classes("cut", "acylic")
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        OrientationTable(c3).classes("cutt")
    with pytest.raises(ValueError, match="unknown filter 'acylic'"):
        OrientationTable(c3).classes("cut", "acylic")
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        table.self_reverse("cutt")
    # the names are checked before any orientation is listed
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        OrientationTable(c3, budget=1).classes("cutt", "acylic")
    small = OrientationTable(c3, budget=1)
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        small.self_reverse("cutt")
    with pytest.raises(ValueError, match="unknown filter 'acylic'"):
        small.members("acylic")
    assert len(table.members("acyclic")) == 6


def test_induced_orientation(p8):
    o = Orientation.reference(p8).with_flipped([1, 4])
    sub = p8.restrict({1, 2, 4})
    carried = induced_orientation(o, sub)
    assert carried.flips == (1, 0, 1)

    merged = p8.contract({1})  # u and v merge; e4 becomes a loop
    carried = induced_orientation(o, merged)
    assert merged.edge_ids == (0, 2, 3, 4)
    assert carried.flips == (0, 0, 0, 1)


def test_class_sweep_keeps_no_circuit_parts(cache_growth):
    # a table's class sweep reads each circuit part once, so the process-wide
    # caches, keyed by graph, gain at most one entry from the sweep
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 0)])

    def sweep():
        for relation in RELATIONS:
            for filt in ("all", "acyclic", "totally_cyclic"):
                OrientationTable(graph).classes(relation, filt)

    grown = cache_growth(sweep)
    assert all(n <= 1 for n in grown.values()), grown


def test_flip_string_roundtrip(p8):
    o = Orientation.from_string(p8, "01001")
    assert o.flip_string() == "01001"
    assert o.arrow(1) == (1, 0)
    assert o.arrow(0) == (0, 2)


def test_orientation_refuses_lists_and_bools(p8, c3):
    # a list would be unhashable and unequal to the tuple orientation, and a
    # bool bit would print as "True"
    with pytest.raises(TypeError):
        Orientation(p8, [0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="flip bits must be 0 or 1"):
        Orientation(c3, (True, False, 0))
    with pytest.raises(ValueError, match="flip bits must be 0 or 1"):
        Orientation(c3, (1.0, 0, 0))
    with pytest.raises(ValueError, match="flip bits must be 0 or 1"):
        Orientation(c3, (2, 0, 0))
    with pytest.raises(ValueError, match="flip vector length"):
        Orientation(c3, (0, 0))
    assert Orientation(c3, (1, 0, 0)).flip_string() == "100"


def test_cut_and_eulerian_classes_find_no_circuit_part(component_passes):
    # the cut and Eulerian keys read no circuit part, so their partitions
    # find none; the cut-Eulerian one finds one circuit mask per
    # orientation, and the filtered sets reuse them
    w4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    table = OrientationTable(w4)
    assert component_passes(lambda: table.classes("cut")) == 0
    assert component_passes(lambda: table.classes("eulerian")) == 0
    assert component_passes(lambda: table.classes("cut_eulerian")) == 2**8

    def filtered():
        for relation in RELATIONS:
            for filt in ("acyclic", "totally_cyclic"):
                table.classes(relation, filt)

    assert component_passes(filtered) == 0


def test_self_reverse_reads_the_swept_circuit_parts(small_corpus, p8, component_passes):
    # the self-reverse sets match the definition, and on a swept table the
    # cut-Eulerian one finds no circuit part again
    for graph in small_corpus + [p8]:
        table = OrientationTable(graph)
        for relation in RELATIONS:
            expected = {o for o in OrientationTable(graph).orientations
                        if equivalent(o, o.reversed(), relation)}
            assert table.self_reverse(relation) == expected, (graph.edges, relation)
    w5 = build_graph(6, [(0, k) for k in range(1, 6)] + [(k, k % 5 + 1) for k in range(1, 6)])
    table = OrientationTable(w5)
    assert component_passes(lambda: table.classes("cut_eulerian")) == 2**10
    assert component_passes(lambda: table.self_reverse("cut_eulerian")) == 0

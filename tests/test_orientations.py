from itertools import product

import pytest
from hypothesis import given, settings

import oracles
from ctfpolys import (
    BudgetExceededError,
    Orientation,
    boundary,
    build_graph,
    classify,
    coupling,
    enumerate_classes,
    enumerate_orientations,
    equivalent,
    incidence_sign,
    indicator,
    induced_orientation,
    is_flow,
    is_tension,
    minty_partition,
)
from ctfpolys.orientations import RELATIONS, OrientationTable, _circuit_part
from strategies import multigraphs

U, V, W = 0, 1, 2


def test_incidence_sign(p8, l1):
    ref = Orientation.reference(p8)
    assert incidence_sign(ref, U, 0) == 1   # e1 = u->w
    assert incidence_sign(ref, W, 0) == -1
    assert incidence_sign(ref, V, 0) == 0
    loop_ref = Orientation.reference(l1)
    assert incidence_sign(loop_ref, 0, 0) == (1, -1)


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
    ref = Orientation.reference(p8)
    part = minty_partition(ref)
    assert part.bond_part == {0, 1, 2, 3, 4} and part.circuit_part == frozenset()

    flipped = ref.with_flipped([3])  # e4 now v->u, making a digon with e2
    part = minty_partition(flipped)
    assert part.circuit_part == {1, 3}
    assert part.bond_part == {0, 2, 4}

    assert minty_partition(Orientation.reference(l1)).circuit_part == {0}


def _assert_circuit_part_is_path_search(graph):
    # a swept table reads its kept masks, a fresh one finds each alone
    swept = OrientationTable(graph)
    swept.members("acyclic")
    fresh = OrientationTable(graph)
    for o in enumerate_orientations(graph):
        expected = oracles.circuit_part(graph, o.flips)
        assert _circuit_part(o) == expected
        assert swept.circuit(o) == fresh.circuit(o) == expected
        assert minty_partition(o).circuit_part == {graph.edge_ids[pos] for pos in expected}


def test_circuit_part_matches_path_search(small_corpus, p8):
    for g in small_corpus + [p8]:
        _assert_circuit_part_is_path_search(g)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_circuit_part_matches_path_search_random(graph):
    _assert_circuit_part_is_path_search(graph)


def test_minty_partition_covers_edges(small_corpus):
    for g in small_corpus:
        for o in enumerate_orientations(g):
            part = minty_partition(o)
            assert part.bond_part | part.circuit_part == set(g.edge_ids)
            assert not part.bond_part & part.circuit_part
            for pos in range(g.edge_count):
                if g.is_loop(pos):
                    assert g.edge_ids[pos] in part.circuit_part
                elif g.is_bridge(pos):
                    assert g.edge_ids[pos] in part.bond_part


def test_classify(p8):
    ref = Orientation.reference(p8)
    assert classify(ref).is_acyclic and not classify(ref).is_totally_cyclic

    tc = ref.with_flipped([0, 3, 4])  # w->u, v->u, w->v
    got = classify(tc)
    assert got.is_totally_cyclic and not got.is_acyclic

    neither = classify(ref.with_flipped([3]))
    assert not neither.is_acyclic and not neither.is_totally_cyclic


def test_orientation_counts(p8):
    orients = list(enumerate_orientations(p8))
    assert len(orients) == 32
    assert sum(1 for o in orients if classify(o).is_acyclic) == 6
    assert sum(1 for o in orients if classify(o).is_totally_cyclic) == 18


def test_coupling_indicator(p8):
    ref = Orientation.reference(p8)
    assert coupling(ref, ref) == (1, 1, 1, 1, 1)
    assert indicator(ref, ref) == (0, 0, 0, 0, 0)
    assert indicator(ref, ref.with_flipped([3])) == (0, 0, 0, 1, 0)


def test_coupling_cocycle_identity(p8):
    # coupling(R,S) * coupling(S,T) = coupling(R,T), all orientation triples
    orients = list(enumerate_orientations(p8))
    for r, s, t in product(orients[::5], orients[::3], orients[::4]):
        lhs = tuple(
            a * b for a, b in zip(coupling(r, s), coupling(s, t))
        )
        assert lhs == coupling(r, t)


def test_equivalent_examples(p8):
    ref = Orientation.reference(p8)
    # {e1,e2,e4} is the bond at u
    assert equivalent(ref, ref.with_flipped([0, 1, 3]), "cut")
    # {e2,e4} is a directed digon once e4 is flipped
    assert equivalent(ref.with_flipped([3]), ref.with_flipped([1]), "eulerian")
    for relation in ("cut", "eulerian", "cut_eulerian"):
        assert equivalent(ref, ref, relation)


def test_equivalence_relation_axioms(small_corpus):
    for g in small_corpus:
        if g.edge_count > 3:
            continue
        orients = list(enumerate_orientations(g))
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
        orients = list(enumerate_orientations(g))
        for a, b in product(orients, repeat=2):
            if equivalent(a, b, "cut_eulerian"):
                assert minty_partition(a) == minty_partition(b)


def test_equivalence_preserves_classes(c3, digon_loop):
    for g in (c3, digon_loop):
        for a, b in product(enumerate_orientations(g), repeat=2):
            if classify(a).is_totally_cyclic and equivalent(a, b, "eulerian"):
                assert classify(b).is_totally_cyclic
            if classify(a).is_acyclic and equivalent(a, b, "cut"):
                assert classify(b).is_acyclic


def test_class_censuses(p8):
    expected = {
        ("cut_eulerian", "all"): 8,
        ("cut", "acyclic"): 2,
        ("eulerian", "totally_cyclic"): 4,
        ("cut", "all"): 24,
        ("eulerian", "all"): 14,
    }
    for (relation, filt), want in expected.items():
        partition = enumerate_classes(p8, relation, filt)
        assert len(partition.classes) == want, (relation, filt)


def test_class_partition_structure(p8):
    partition = enumerate_classes(p8, "cut_eulerian", "all")
    members = [o.flips for cls in partition.classes for o in cls]
    assert sorted(members) == sorted(o.flips for o in enumerate_orientations(p8))
    for cls, rep in zip(partition.classes, partition.representatives):
        assert rep == cls[0]
        assert min(o.flips for o in cls) == rep.flips


def test_class_size_product_rule(small_corpus):
    for g in small_corpus:
        if g.edge_count > 3:
            continue
        ce = enumerate_classes(g, "cut_eulerian", "all")
        cu = enumerate_classes(g, "cut", "all")
        eu = enumerate_classes(g, "eulerian", "all")

        def size_of(partition, flips):
            for cls in partition.classes:
                if any(o.flips == flips for o in cls):
                    return len(cls)
            raise AssertionError

        for o in enumerate_orientations(g):
            assert size_of(ce, o.flips) == size_of(cu, o.flips) * size_of(eu, o.flips)


FILTERS = ("all", "acyclic", "totally_cyclic")


def _flip_classes(partition):
    assert partition.representatives == tuple(cls[0] for cls in partition.classes)
    return tuple(tuple(o.flips for o in cls) for cls in partition.classes)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("filt", FILTERS)
def test_classes_match_pairwise_oracle(small_corpus, p8, relation, filt):
    for g in [*small_corpus, p8]:
        got = _flip_classes(enumerate_classes(g, relation, filt))
        assert got == oracles.pairwise_classes(g, relation, filt), (g.edges, relation, filt)


@pytest.mark.parametrize("filt", FILTERS)
def test_cut_eulerian_classes_of_doubled_square(filt):
    # orientations with digons on {01, 23} and on {12, 30} have different
    # circuit parts but equal bond-part circuit sums and circuit-part
    # out-degrees; no multigraph with at most 6 edges has such a pair
    square = build_graph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (3, 0), (3, 0)])
    got = _flip_classes(enumerate_classes(square, "cut_eulerian", filt))
    assert got == oracles.pairwise_classes(square, "cut_eulerian", filt)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_classes_match_pairwise_oracle_random(graph):
    for relation in RELATIONS:
        for filt in FILTERS:
            got = _flip_classes(enumerate_classes(graph, relation, filt))
            assert got == oracles.pairwise_classes(graph, relation, filt), (relation, filt)


def test_loop_flip_is_eulerian_move(l1, digon_loop):
    loop_ref = Orientation.reference(l1)
    assert equivalent(loop_ref, loop_ref.with_flipped([0]), "eulerian")
    assert not equivalent(loop_ref, loop_ref.with_flipped([0]), "cut")
    assert len(enumerate_classes(l1, "cut_eulerian", "all").classes) == 1
    assert len(enumerate_classes(digon_loop, "cut_eulerian", "all").classes) == 2


def test_enumeration_limit(p8):
    # a sweep of p8's 2^5 orientations needs a budget of 32
    assert len(list(enumerate_orientations(p8, budget=32))) == 32
    assert len(enumerate_classes(p8, "cut", "all", budget=32).classes) == 24
    with pytest.raises(BudgetExceededError):
        list(enumerate_orientations(p8, budget=31))
    with pytest.raises(BudgetExceededError):
        enumerate_classes(p8, "cut", "all", budget=31)


def test_unknown_names_are_refused(c3):
    # a misspelt filter or relation is an error, not some other set; the
    # function checks through the table
    table = OrientationTable(c3)
    with pytest.raises(ValueError, match="unknown filter 'acylic'"):
        table.members("acylic")
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        table.classes("cutt")
    with pytest.raises(ValueError, match="unknown filter 'acylic'"):
        table.classes("cut", "acylic")
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        enumerate_classes(c3, "cutt")
    with pytest.raises(ValueError, match="unknown filter 'acylic'"):
        enumerate_classes(c3, "cut", "acylic")
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        table.self_reverse("cutt")
    # the names are checked before any orientation is listed
    with pytest.raises(ValueError, match="unknown relation 'cutt'"):
        enumerate_classes(c3, "cutt", "acylic", budget=1)
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
    # enumerate_classes reads each circuit part once, so the process-wide
    # caches, keyed by graph, gain at most one entry from the sweep
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 0)])

    def sweep():
        for relation in RELATIONS:
            for filt in ("all", "acyclic", "totally_cyclic"):
                enumerate_classes(graph, relation, filt)

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
            expected = {o for o in enumerate_orientations(graph)
                        if equivalent(o, o.reversed(), relation)}
            assert table.self_reverse(relation) == expected, (graph.edges, relation)
    w5 = build_graph(6, [(0, k) for k in range(1, 6)] + [(k, k % 5 + 1) for k in range(1, 6)])
    table = OrientationTable(w5)
    assert component_passes(lambda: table.classes("cut_eulerian")) == 2**10
    assert component_passes(lambda: table.self_reverse("cut_eulerian")) == 0

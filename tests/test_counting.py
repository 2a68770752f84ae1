from collections import Counter
from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ctfpolys import counting
from ctfpolys import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CyclicProduct,
    Orientation,
    OrientationTable,
    build_graph,
    count,
    is_flow,
    is_tension,
)
from ctfpolys.counting import (
    FAMILIES,
    FAMILY_TABLE,
    LOCAL_FAMILIES,
    CountStore,
    CountTable,
    _box_count,
    _count_flows,
    _count_tensions,
    _dp_plan,
    _isomorphism_key,
    _matched_pairs,
    _orbit_key,
    _space,
    lowest_argument,
)
from ctfpolys.multigraph import spanning_structure
from ctfpolys.orientations import RELATIONS, _circuit_part, equivalent
from ctfpolys.polynomials import (
    REPORT_FAMILIES,
    InterpolationError,
    _interpolate_family,
    _polynomial,
    counting_polynomial,
    orientation_sum_polynomial,
    polynomial_report,
    tutte,
)
from ctfpolys.verify import small_multigraphs
from strategies import multigraphs


def _zero_sets(vectors):
    """{zero set as a bit mask of positions: how many of the vectors have it}."""
    return dict(Counter(sum(1 << pos for pos, x in enumerate(v) if x == 0) for v in vectors))


def _kernel(o, side, values, zeros="masks"):
    """The counting kernel on the plan of one side ("tension" or "flow") of
    the orientation, with ``values`` a range per position or a CyclicProduct;
    by default the zero-set histogram of the vectors it counts."""
    counter = _count_tensions if side == "tension" else _count_flows
    return counter(_dp_plan(*_space(o, side)), values, DEFAULT_BUDGET, zeros)


def test_modular_tension_examples(k2, l1, p8):
    def tensions(g, moduli):
        return _kernel(Orientation.reference(g), "tension", CyclicProduct(moduli))

    assert tensions(k2, (3,)) == _zero_sets([(0,), (1,), (2,)])
    assert tensions(l1, (5,)) == _zero_sets([(0,)])
    listed = [(0, 0, 0, 0, 0), (0, 1, 1, 1, 1), (1, 0, 1, 0, 1), (1, 1, 0, 1, 0)]
    assert oracles.modular_tensions(p8, Orientation.reference(p8).flips, (2,)) == listed
    assert tensions(p8, (2,)) == _zero_sets(listed)


def test_modular_flow_examples(k2, l1, p8):
    def flows(g, moduli):
        return _kernel(Orientation.reference(g), "flow", CyclicProduct(moduli))

    assert flows(k2, (4,)) == _zero_sets([(0,)])
    assert flows(l1, (3,)) == _zero_sets([(0,), (1,), (2,)])
    ref = Orientation.reference(p8)
    listed = oracles.modular_flows(p8, ref.flips, (2,))
    assert len(listed) == 8
    assert (1, 1, 1, 0, 0) in listed
    for g in listed:
        assert is_flow(ref, g, modulus=2)
    assert flows(p8, (2,)) == _zero_sets(listed)


def test_modular_enumeration_sizes(small_corpus):
    for g in small_corpus:
        stats = g.stats()
        for moduli in ((1,), (2,), (3,), (2, 2)):
            group, order = CyclicProduct(moduli), prod(moduli)
            for o in (Orientation.reference(g), Orientation.reference(g).reversed()):
                assert _kernel(o, "tension", group, "allowed") == order ** stats.rank
                assert _kernel(o, "flow", group, "allowed") == order ** stats.nullity


def test_modular_enumeration_matches_oracle(small_corpus):
    for g in small_corpus:
        if g.edge_count > 3 or g.vertex_count > 3:
            continue
        for moduli in ((2,), (3,), (2, 2)):
            group = CyclicProduct(moduli)
            for o in OrientationTable(g).orientations:
                assert _kernel(o, "tension", group) == _zero_sets(
                    oracles.modular_tensions(g, o.flips, moduli)
                )
                assert _kernel(o, "flow", group) == _zero_sets(
                    oracles.modular_flows(g, o.flips, moduli)
                )


def test_integer_boxes_match_oracle(small_corpus):
    for g in small_corpus:
        if g.edge_count > 4:
            continue
        ref = Orientation.reference(g)
        for low, high in ((-2, 2), (0, 1), (-1, 3)):
            box = [(low, high)] * g.edge_count
            assert _kernel(ref, "tension", box) == _zero_sets(
                oracles.integer_tensions(g, ref.flips, low, high)
            )
            assert _kernel(ref, "flow", box) == _zero_sets(
                oracles.integer_flows(g, ref.flips, low, high)
            )


def test_halved_mirror_step_matches_oracle(p8):
    # boxes closed under negation halve the first step that moves a sum; on
    # these graphs a later step follows it, so the states that stand for
    # their mirrors are carried on. The even orders have self-inverse
    # elements, whose states are their own mirrors.
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    theta = build_graph(2, [(0, 1)] * 3)
    groups = ((2,), (3,), (4,), (6,), (2, 2), (2, 3))
    for g in (k4, theta, p8):
        halved = 0
        for flips in ((0,) * g.edge_count, tuple(pos % 2 for pos in range(g.edge_count))):
            o = Orientation(g, flips)
            for side in ("tension", "flow"):
                halved += any(step[-1] for step in _dp_plan(*_space(o, side))[1])
                listed = {
                    moduli: (oracles.modular_tensions if side == "tension"
                             else oracles.modular_flows)(g, flips, moduli)
                    for moduli in groups
                }
                widest = (oracles.integer_tensions if side == "tension"
                          else oracles.integer_flows)(g, flips, -3, 3)
                for p in range(1, 5):
                    listed[p] = [v for v in widest if all(abs(x) < p for x in v)]
                for box, vectors in listed.items():
                    if isinstance(box, tuple):
                        values = CyclicProduct(box)
                    else:
                        values = [(1 - box, box - 1)] * g.edge_count
                    nowhere_zero = len(oracles.nowhere_zero(vectors))
                    assert _kernel(o, side, values) == _zero_sets(vectors), (g.edges, side, box)
                    assert _kernel(o, side, values, "allowed") == len(vectors)
                    assert _kernel(o, side, values, "forbidden") == nowhere_zero
        assert halved, g.edges


@settings(max_examples=40, deadline=None)
@given(multigraphs(), st.data())
def test_orientation_counts_match_oracle_random(graph, data):
    # the per-orientation kernel inputs (_space of a drawn orientation) in
    # the closed and open boxes and over cyclic and product groups
    m = graph.edge_count
    flips = tuple(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    o = Orientation(graph, flips)
    tensions = oracles.integer_tensions(graph, flips, 0, 2)
    flows = oracles.integer_flows(graph, flips, 0, 2)

    def within(vectors, low, high):
        return sum(1 for v in vectors if all(low <= x <= high for x in v))

    for a in (0, 1, 2):
        assert count(graph, "tau_bar_local", p=a, orientation=o) == within(tensions, 0, a)
        assert count(graph, "phi_bar_local", q=a, orientation=o) == within(flows, 0, a)
    for a in (1, 2, 3):
        assert count(graph, "tau_local", p=a, orientation=o) == within(tensions, 1, a - 1)
        assert count(graph, "phi_local", q=a, orientation=o) == within(flows, 1, a - 1)
    for moduli in ((2,), (3,), (2, 2)):
        order = prod(moduli)
        assert count(graph, "tau_mod", p=order, orientation=o, group_a=moduli) == len(
            oracles.nowhere_zero(oracles.modular_tensions(graph, flips, moduli))
        )
        assert count(graph, "phi_mod", q=order, orientation=o, group_b=moduli) == len(
            oracles.nowhere_zero(oracles.modular_flows(graph, flips, moduli))
        )


def test_integer_box_examples(k2, l1, p8):
    k2_ref = Orientation.reference(k2)
    assert _kernel(k2_ref, "tension", [(-1, 1)]) == _zero_sets([(-1,), (0,), (1,)])
    l1_ref = Orientation.reference(l1)
    assert _kernel(l1_ref, "tension", [(-4, 4)]) == _zero_sets([(0,)])
    assert _kernel(l1_ref, "flow", [(0, 3)]) == _zero_sets([(0,), (1,), (2,), (3,)])
    assert _kernel(k2_ref, "flow", [(-9, 9)]) == _zero_sets([(0,)])

    ref, box = Orientation.reference(p8), [(0, 1)] * 5
    # (0,1,1,1,1) is a mod-2 tension but no integer tension: 0 != 1 + 1
    listed = [(0, 0, 0, 0, 0), (1, 0, 1, 0, 1), (1, 1, 0, 1, 0)]
    assert oracles.integer_tensions(p8, ref.flips, 0, 1) == listed
    assert _kernel(ref, "tension", box) == _zero_sets(listed)

    # the reference orientation is acyclic, so the only nonnegative integer
    # flow is zero; (1,1,1,0,0) is a flow mod 2 only
    assert oracles.integer_flows(p8, ref.flips, 0, 1) == [(0, 0, 0, 0, 0)]
    assert _kernel(ref, "flow", box) == _zero_sets([(0, 0, 0, 0, 0)])
    strong = ref.with_flipped([0, 3, 4])  # totally cyclic: nonzero flows exist
    strong_box = oracles.integer_flows(p8, strong.flips, 0, 1)
    assert len(strong_box) > 1
    assert _kernel(strong, "flow", box) == _zero_sets(strong_box)


def test_orthogonality(small_corpus):
    # every integer tension is orthogonal to every integer flow: the oracles
    # build the two from potentials and from the boundary condition
    for g in small_corpus:
        if g.edge_count > 3:
            continue
        for o in OrientationTable(g).orientations:
            tensions = oracles.integer_tensions(g, o.flips, -2, 2)
            flows = oracles.integer_flows(g, o.flips, -2, 2)
            for f in tensions:
                for h in flows:
                    assert sum(a * b for a, b in zip(f, h)) == 0


def test_nonnegative_vectors_vanish_off_support(small_corpus):
    # tensions >= 0 vanish on the circuit part, flows >= 0 on the bond part:
    # every zero set the kernel counts in [0, 3]^E covers that part
    for g in small_corpus:
        if g.edge_count > 3:
            continue
        box = [(0, 3)] * g.edge_count
        for o in OrientationTable(g).orientations:
            circuit = sum(1 << pos for pos in oracles.circuit_part(g, o.flips))
            bond = (1 << g.edge_count) - 1 - circuit
            assert all(mask & circuit == circuit for mask in _kernel(o, "tension", box))
            assert all(mask & bond == bond for mask in _kernel(o, "flow", box))


def test_counts_match_oracles(small_corpus):
    for g in small_corpus:
        if g.edge_count > 3:
            continue
        flips = Orientation.reference(g).flips
        for a in (1, 2, 3):
            assert count(g, "tau_mod", p=a) == len(
                oracles.nowhere_zero(oracles.modular_tensions(g, flips, (a,)))
            )
            assert count(g, "phi_mod", q=a) == len(
                oracles.nowhere_zero(oracles.modular_flows(g, flips, (a,)))
            )
            assert count(g, "tau_int", p=a) == len(
                oracles.nowhere_zero(oracles.integer_tensions(g, flips, -(a - 1), a - 1))
            )
            assert count(g, "phi_int", q=a) == len(
                oracles.nowhere_zero(oracles.integer_flows(g, flips, -(a - 1), a - 1))
            )
        for a, b in product((1, 2, 3), repeat=2):
            assert count(g, "kappa_mod", p=a, q=b) == len(
                oracles.complementary_pairs_mod(g, flips, a, b)
            )
            assert count(g, "kappa_int", p=a, q=b) == len(
                oracles.complementary_pairs_int(g, flips, a, b)
            )


def test_local_counts_match_oracles(c3, digon_loop):
    for g in (c3, digon_loop):
        for o in OrientationTable(g).orientations:
            for a in (1, 2, 3):
                want_t = [
                    f
                    for f in oracles.integer_tensions(g, o.flips, 0, a)
                    if all(0 < x < a for x in f)
                ]
                assert count(g, "tau_local", p=a, orientation=o) == len(want_t)
                want_f = [
                    h
                    for h in oracles.integer_flows(g, o.flips, 0, a)
                    if all(0 < x < a for x in h)
                ]
                assert count(g, "phi_local", q=a, orientation=o) == len(want_f)
                assert count(g, "tau_bar_local", p=a, orientation=o) == len(
                    oracles.integer_tensions(g, o.flips, 0, a)
                )
                assert count(g, "phi_bar_local", q=a, orientation=o) == len(
                    oracles.integer_flows(g, o.flips, 0, a)
                )


def _sign_pattern(graph, pair):
    # orientation whose arrows follow the signs of f + g
    f, g = pair
    flips = tuple(1 if f[pos] + g[pos] < 0 else 0 for pos in range(graph.edge_count))
    return flips


def test_kappa_local_decomposes_kappa_int(c3, digon_loop, p8):
    # complementary pairs grouped by sign pattern reproduce the local counts
    for g in (c3, digon_loop, p8):
        pairs = oracles.complementary_pairs_int(g, Orientation.reference(g).flips, 2, 2)
        by_pattern = {}
        for pair in pairs:
            by_pattern.setdefault(_sign_pattern(g, pair), []).append(pair)
        total = 0
        for o in OrientationTable(g).orientations:
            local = count(g, "kappa_local", p=2, q=2, orientation=o)
            assert local == len(by_pattern.get(o.flips, []))
            total += local
        assert total == len(pairs) == count(g, "kappa_int", p=2, q=2)


def test_kappa_bar_local_examples(p8, small_corpus):
    ref = Orientation.reference(p8)
    assert count(p8, "kappa_bar_local", p=0, q=0, orientation=ref) == 1
    for g in small_corpus:
        o = Orientation.reference(g)
        assert count(g, "kappa_bar_local", p=0, q=0, orientation=o) == 1
    assert count(p8, "kappa_bar_int", p=0, q=0) == 32


def test_bar_int_families_match_oracles(small_corpus):
    # closed-box sweeps summed over the acyclic, totally cyclic and all
    # orientations, with membership decided from the definitions
    for g in small_corpus:
        orients = list(product((0, 1), repeat=g.edge_count))
        acyclic = [f for f in orients if oracles.is_acyclic(g, f)]
        totally_cyclic = [f for f in orients if oracles.is_totally_cyclic(g, f)]
        for a, b in product((0, 1, 2), repeat=2):
            tensions = {f: len(oracles.integer_tensions(g, f, 0, a)) for f in orients}
            flows = {f: len(oracles.integer_flows(g, f, 0, b)) for f in orients}
            assert count(g, "tau_bar_int", p=a) == sum(tensions[f] for f in acyclic)
            assert count(g, "phi_bar_int", q=b) == sum(flows[f] for f in totally_cyclic)
            assert count(g, "kappa_bar_int", p=a, q=b) == sum(
                tensions[f] * flows[f] for f in orients
            )


def test_kappa_mod_group_shape_independence(c3, digon_loop):
    for g in (c3, digon_loop):
        for q in (1, 2, 3):
            assert count(
                g, "kappa_mod", p=4, q=q, group_a=(4,)
            ) == count(g, "kappa_mod", p=4, q=q, group_a=(2, 2))
        for p in (1, 2, 3):
            assert count(
                g, "kappa_mod", p=p, q=4, group_b=(4,)
            ) == count(g, "kappa_mod", p=p, q=4, group_b=(2, 2))


def test_worked_example_counts(p8):
    assert count(p8, "kappa_mod", p=3, q=3) == 12
    assert count(p8, "kappa_mod", p=2, q=2) == 2
    assert count(p8, "kappa_int", p=2, q=2) == 8
    assert count(p8, "phi_mod", q=3) == 2


def test_tau_mod_triangle(c3):
    assert count(c3, "tau_mod", p=3) == 2


def _mod_map(f, g, p, q):  # the reduction of a tension-flow pair mod (p, q)
    return tuple(x % p for x in f), tuple(x % q for x in g)


def test_mod_map_hits_modular_pairs(p8):
    # every integral complementary (2,2)-pair reduces to a modular one
    ref = Orientation.reference(p8)
    for f, g in oracles.complementary_pairs_int(p8, ref.flips, 2, 2):
        tension, flow = _mod_map(f, g, 2, 2)
        assert is_tension(ref, tension, modulus=2)
        assert is_flow(ref, flow, modulus=2)
        assert all((a == 0) != (b == 0) for a, b in zip(tension, flow))


def test_mod_map_surjective_with_ce_fibers(small_corpus, p8):
    # image = all modular complementary pairs; each fiber size = CE class size
    for g in list(small_corpus) + [p8]:
        if g.edge_count > 3 and g is not p8:
            continue
        ref = Orientation.reference(g)
        integral = oracles.complementary_pairs_int(g, ref.flips, 2, 2)
        fibers = {}
        for f, h in integral:
            fibers.setdefault(_mod_map(f, h, 2, 2), []).append((f, h))
        modular = set(
            map(tuple, oracles.complementary_pairs_mod(g, ref.flips, 2, 2))
        )
        assert set(fibers) == modular

        partition = OrientationTable(g).classes("cut_eulerian", "all")
        size_of = {}
        for cls in partition.classes:
            for o in cls:
                size_of[o.flips] = len(cls)
        for members in fibers.values():
            pattern = _sign_pattern(g, members[0])
            assert len(members) == size_of[pattern]


def _reorient_p(r, s, values):  # P: the edgewise product with the coupling,
    # -1 where the flips of r and s differ, +1 elsewhere
    return tuple(-x if a != b else x for a, b, x in zip(r.flips, s.flips, values))


def test_reorient_p(c3):
    orients = OrientationTable(c3).orientations
    for r in orients:
        f = (1, 2, 3)
        assert _reorient_p(r, r, f) == f
    for r, s in product(orients, repeat=2):
        f = (1, -2, 3)
        assert _reorient_p(r, s, _reorient_p(r, s, f)) == f
        for tension in oracles.integer_tensions(c3, s.flips, -2, 2):
            assert is_tension(r, _reorient_p(r, s, tension))


def _reorient_q(r, s, positions, bound, values):  # Q: bound - v where r, s disagree
    return tuple(bound - x if a != b and pos in positions else x
                 for pos, (a, b, x) in enumerate(zip(r.flips, s.flips, values)))


def test_reorient_q_transports_boxes(p8):
    # within a CE class, Q maps the closed-box pairs of one orientation
    # bijectively onto those of another, and is an involution
    p, q = 2, 2
    partition = OrientationTable(p8).classes("cut_eulerian", "all")
    cls = max(partition.classes, key=len)
    rho, sigma = cls[0], cls[1]
    circuit = oracles.circuit_part(p8, sigma.flips)
    bond = set(range(p8.edge_count)) - circuit
    tensions_sigma = oracles.integer_tensions(p8, sigma.flips, 0, p)
    flows_sigma = oracles.integer_flows(p8, sigma.flips, 0, q)
    moved_t = {_reorient_q(rho, sigma, bond, p, f) for f in tensions_sigma}
    moved_f = {_reorient_q(rho, sigma, circuit, q, g) for g in flows_sigma}
    assert moved_t == set(oracles.integer_tensions(p8, rho.flips, 0, p))
    assert moved_f == set(oracles.integer_flows(p8, rho.flips, 0, q))
    assert len(moved_t) == len(tensions_sigma)
    assert len(moved_f) == len(flows_sigma)
    assert all(_reorient_q(rho, sigma, bond, p, _reorient_q(rho, sigma, bond, p, f)) == f
               for f in tensions_sigma)


def test_count_validation(p8):
    ref = Orientation.reference(p8)
    with pytest.raises(ValueError, match="unknown family 'unknown_family'"):
        count(p8, "unknown_family")
    with pytest.raises(ValueError):
        count(p8, "tau_local", p=2)  # missing orientation
    with pytest.raises(ValueError):
        count(p8, "kappa_mod", p=0, q=2)  # open family at 0
    with pytest.raises(ValueError):
        count(p8, "tau_mod", p=3, group_a=(2, 2))  # wrong group order
    # the empty product is the trivial group of order 1, not "no group"
    with pytest.raises(ValueError, match="group order must match the argument"):
        count(p8, "kappa_mod", p=3, q=2, group_a=())
    with pytest.raises(ValueError, match="group order must match the argument"):
        count(p8, "kappa_mod", p=3, q=2, group_b=())
    # a group the family does not read is an error, not ignored
    with pytest.raises(ValueError, match="tau_int reads no tension-side group"):
        count(p8, "tau_int", p=3, group_a=(7,))
    with pytest.raises(ValueError, match="tau_mod reads no flow-side group"):
        count(p8, "tau_mod", p=3, group_b=(7,))
    with pytest.raises(ValueError, match="phi_mod reads no tension-side group"):
        count(p8, "phi_mod", q=3, group_a=(3,))
    with pytest.raises(ValueError, match="kappa_bar_mod reads no tension-side group"):
        count(p8, "kappa_bar_mod", p=1, q=1, group_a=(9,))
    with pytest.raises(ValueError, match="phi_bar_local reads no flow-side group"):
        count(p8, "phi_bar_local", q=1, orientation=ref, group_b=(1,))
    assert count(p8, "kappa_bar_local", p=0, q=0, orientation=ref) == 1
    # so is an orientation: a class-sum family adds up its class
    # representatives, and would count the same with any orientation
    class_sums = {"kappa_bar_mod": {"p": 1, "q": 1}, "kappa_bar_int": {"p": 1, "q": 1},
                  "tau_bar_mod": {"p": 2}, "tau_bar_int": {"p": 2},
                  "phi_bar_mod": {"q": 2}, "phi_bar_int": {"q": 2}}
    for family, arguments in class_sums.items():
        with pytest.raises(ValueError, match=f"{family} reads no orientation"):
            count(p8, family, orientation=ref.reversed(), **arguments)
    assert count(p8, "kappa_int", p=2, q=2, orientation=ref.reversed()) == \
        count(p8, "kappa_int", p=2, q=2)
    # p and q are integers: a float or a bool is refused by name, not passed
    # to the kernel (True would count as 1)
    with pytest.raises(ValueError, match="tau_int needs p >= 1"):
        count(p8, "tau_int", p=2.5)
    with pytest.raises(ValueError, match="tau_bar_mod needs p >= 0"):
        count(p8, "tau_bar_mod", p=1.5)
    with pytest.raises(ValueError, match="kappa_bar_int needs p >= 0"):
        count(p8, "kappa_bar_int", p=True, q=1)
    # and so are the moduli of a group: True would be Z_1
    with pytest.raises(ValueError, match="moduli must be integers >= 1"):
        CyclicProduct((True, 3))
    with pytest.raises(ValueError, match="moduli must be integers >= 1"):
        count(build_graph(2, [(0, 1)] * 2), "tau_mod", p=3, group_a=(True, 3))


def test_count_checks_its_arguments_before_it_sweeps(component_passes):
    # the family and orientation rule, then p, q and the groups, are checked
    # before a class sum sweeps its members: a bad argument is named, not
    # reported as the budget of a sweep it never needed, and sweeps nothing
    theta = build_graph(2, [(0, 1)] * 21)
    with pytest.raises(ValueError, match=r"^kappa_bar_int needs p >= 0$"):
        count(theta, "kappa_bar_int", p=-1, q=1)
    w9 = build_graph(10, [(0, k) for k in range(1, 10)] + [(k, k % 9 + 1) for k in range(1, 10)])

    def refused():
        with pytest.raises(ValueError, match=r"^kappa_bar_int needs p >= 0$"):
            count(w9, "kappa_bar_int", p=-1, q=1)
        with pytest.raises(ValueError, match=r"^tau_bar_mod reads no tension-side group$"):
            count(w9, "tau_bar_mod", p=2, group_a=(2,))

    assert component_passes(refused) == 0


def test_a_one_side_family_refuses_the_other_argument(c3, kernel_calls):
    # a one-side family counts on p alone (tension side) or q alone (flow
    # side): the other argument is refused by name, as a group it does not
    # read is, and before anything is counted
    ref = Orientation.reference(c3)
    assert count(c3, "tau_mod", p=3) == 2

    def refused():
        for family, (t_box, f_box, members) in FAMILY_TABLE.items():
            if t_box and f_box:
                continue
            name, read = ("q", "p") if f_box is None else ("p", "q")
            orientation = ref if members is None else None
            for value in (-7, 0, 5):
                with pytest.raises(ValueError, match=rf"^{family} reads no {name}$"):
                    count(c3, family, orientation=orientation,
                          **{read: lowest_argument(family), name: value})

    assert kernel_calls(refused) == 0


def test_a_support_count_finds_one_circuit_part_per_orbit(component_passes):
    # kappa_local's "support" box reads the circuit part on both sides and
    # at every p and q; one orbit, so one circuit part is found
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    reference = Orientation.reference(k4)
    assert component_passes(
        lambda: counting_polynomial(k4, "kappa_local", orientation=reference)) == 1
    assert component_passes(
        lambda: count(k4, "kappa_local", p=3, q=2, orientation=reference)) == 1


#: family -> (variables read, lowest argument, needs an orientation,
#: integer coefficients), written out so that a wrong FAMILY_TABLE row fails
#: here and not only in a count
FAMILY_PREDICATES = {
    "tau_mod": ("p", 1, False, True),
    "phi_mod": ("q", 1, False, True),
    "kappa_mod": ("pq", 1, False, True),
    "tau_int": ("p", 1, False, False),
    "phi_int": ("q", 1, False, False),
    "kappa_int": ("pq", 1, False, False),
    "tau_local": ("p", 1, True, False),
    "phi_local": ("q", 1, True, False),
    "kappa_local": ("pq", 1, True, False),
    "tau_bar_local": ("p", 0, True, False),
    "phi_bar_local": ("q", 0, True, False),
    "kappa_bar_local": ("pq", 0, True, False),
    "tau_bar_int": ("p", 0, False, False),
    "phi_bar_int": ("q", 0, False, False),
    "kappa_bar_int": ("pq", 0, False, False),
    "tau_bar_mod": ("p", 0, False, True),
    "phi_bar_mod": ("q", 0, False, True),
    "kappa_bar_mod": ("pq", 0, False, True),
}


def test_family_predicates(p8):
    assert FAMILIES == set(FAMILY_PREDICATES)
    assert LOCAL_FAMILIES == {f for f, row in FAMILY_PREDICATES.items() if row[2]}
    assert REPORT_FAMILIES == (
        "kappa_mod", "kappa_int", "kappa_bar_mod", "kappa_bar_int",
        "tau_mod", "tau_int", "tau_bar_mod", "tau_bar_int",
        "phi_mod", "phi_int", "phi_bar_mod", "phi_bar_int",
    )
    ref = Orientation.reference(p8)  # rank 2, nullity 3
    for family, (reads, lowest, local, integral) in FAMILY_PREDICATES.items():
        args = {"orientation": ref} if local else {}
        # count: the orientation and the arguments it asks for
        if local:
            with pytest.raises(ValueError, match="needs an orientation"):
                count(p8, family, p=lowest, q=lowest)
        for name in ("p", "q"):
            low = {**dict.fromkeys(reads, lowest), name: lowest - 1}
            if name in reads:
                with pytest.raises(ValueError, match=f"needs {name} >= {lowest}"):
                    count(p8, family, **low, **args)
                with pytest.raises(ValueError, match=f"needs {name} >= {lowest}"):
                    count(p8, family, **{**low, name: None}, **args)
            else:
                with pytest.raises(ValueError, match=f"^{family} reads no {name}$"):
                    count(p8, family, **low, **args)
        # interpolation: the grid, and the integer-coefficient check on
        # C(p, 2) + C(q, 2), which fits the grid but has halves
        seen = []

        def sampler(a, b):
            seen.append((a, b))
            return comb(a, 2) + comb(b, 2)

        if integral:
            with pytest.raises(InterpolationError, match="non-integer"):
                _interpolate_family(family, sampler, p8)
        else:
            _interpolate_family(family, sampler, p8)
        xs, ys = {a for a, _ in seen}, {b for _, b in seen}
        assert xs == ({*range(lowest, lowest + 5)} if "p" in reads else {lowest}), family
        assert ys == ({*range(lowest, lowest + 6)} if "q" in reads else {lowest}), family


@pytest.mark.parametrize("family", sorted(FAMILY_PREDICATES))
def test_one_orientation_rule_for_count_and_polynomial(family, p8, digon_loop):
    # count and counting_polynomial read one orientation rule: each wrong
    # argument is refused by both with the same message
    _, lowest, local, _ = FAMILY_PREDICATES[family]
    class_sum = lowest == 0 and not local
    ref, foreign = Orientation.reference(p8), Orientation.reference(digon_loop)
    wrong = [(f"{family}_unknown", None, f"unknown family '{family}_unknown'"),
             (family, foreign, f"{family} reads no orientation" if class_sum
              else "orientation belongs to a different graph")]
    if local:
        wrong.append((family, None, f"{family} needs an orientation"))
    if class_sum:
        wrong.append((family, ref, f"{family} reads no orientation"))
    for name, orientation, message in wrong:
        with pytest.raises(ValueError) as counted:
            count(p8, name, p=lowest, q=lowest, orientation=orientation)
        with pytest.raises(ValueError) as interpolated:
            counting_polynomial(p8, name, orientation=orientation)
        assert str(counted.value) == str(interpolated.value) == message
    # a definition-level family counts on any orientation as on the
    # reference one (the base-orientation independence IND checks)
    if lowest == 1 and not local:
        for graph in (p8, digon_loop):
            expected = counting_polynomial(graph, family)
            for o in OrientationTable(graph).orientations:
                assert counting_polynomial(graph, family, orientation=o) == expected, o


def test_budget_guard():
    big = build_graph(2, [(0, 1)] * 10)
    with pytest.raises(BudgetExceededError):
        count(big, "phi_int", q=50, budget=1000)


def _closed_counts(graph, flips, vectors, top):
    """How many of an orientation's vectors lie in [0, a]^E, for a = 0..top;
    ``vectors`` are the reference orientation's vectors in [-top, top]^E."""
    tops = [max(v, default=0) for v in oracles.reorient(graph, flips, vectors)
            if min(v, default=0) >= 0]
    return [sum(1 for t in tops if t <= a) for a in range(top + 1)]


@settings(max_examples=40, deadline=None)
@given(multigraphs())
def test_counts_match_oracles_random(graph):
    # the definition-level families and the six graph-level closed-box
    # families at small (p, q), against brute force from the definitions;
    # flows stay in [-1, 1], as a 7-loop graph has 5^7 flows in [-2, 2]
    m = graph.edge_count
    ref = (0,) * m
    tensions = oracles.integer_tensions(graph, ref, -2, 2)
    flows = oracles.integer_flows(graph, ref, -1, 1)

    def below(vectors, a):
        return [v for v in vectors if all(abs(x) < a for x in v)]

    mod_t = {a: oracles.modular_tensions(graph, ref, (a,)) for a in (1, 2, 3)}
    mod_f = {a: oracles.modular_flows(graph, ref, (a,)) for a in (1, 2, 3)}
    for a in (1, 2, 3):
        assert count(graph, "tau_int", p=a) == len(oracles.nowhere_zero(below(tensions, a)))
        assert count(graph, "tau_mod", p=a) == len(oracles.nowhere_zero(mod_t[a]))
        assert count(graph, "phi_mod", q=a) == len(oracles.nowhere_zero(mod_f[a]))
    for a, b in product((1, 2, 3), repeat=2):
        assert count(graph, "kappa_mod", p=a, q=b) == oracles.count_complementary(
            mod_t[a], mod_f[b]
        )
    for b in (1, 2):
        assert count(graph, "phi_int", q=b) == len(oracles.nowhere_zero(below(flows, b)))
    for a, b in product((1, 2, 3), (1, 2)):
        assert count(graph, "kappa_int", p=a, q=b) == oracles.count_complementary(
            below(tensions, a), below(flows, b)
        )

    orients = list(product((0, 1), repeat=m))
    t_box = {f: _closed_counts(graph, f, tensions, 2) for f in orients}
    f_box = {f: _closed_counts(graph, f, flows, 1) for f in orients}
    size = {f: len(oracles.circuit_part(graph, f)) for f in orients}
    acyclic = [f for f in orients if size[f] == 0]
    totally_cyclic = [f for f in orients if size[f] == m]
    reps = {
        filt: [cls[0] for cls in oracles.pairwise_classes(graph, "cut_eulerian", filt)]
        for filt in ("all", "acyclic", "totally_cyclic")
    }
    for a, b in product((0, 1, 2), (0, 1)):
        assert count(graph, "tau_bar_int", p=a) == sum(t_box[f][a] for f in acyclic)
        assert count(graph, "phi_bar_int", q=b) == sum(f_box[f][b] for f in totally_cyclic)
        assert count(graph, "kappa_bar_int", p=a, q=b) == sum(
            t_box[f][a] * f_box[f][b] for f in orients
        )
        assert count(graph, "tau_bar_mod", p=a) == sum(t_box[f][a] for f in reps["acyclic"])
        assert count(graph, "phi_bar_mod", q=b) == sum(
            f_box[f][b] for f in reps["totally_cyclic"]
        )
        assert count(graph, "kappa_bar_mod", p=a, q=b) == sum(
            t_box[f][a] * f_box[f][b] for f in reps["all"]
        )


def test_product_groups_match_oracles(c3, digon_loop, p8):
    for g in (c3, digon_loop, p8):
        for o in OrientationTable(g).orientations:
            tensions = oracles.modular_tensions(g, o.flips, (2, 2))
            flows = oracles.modular_flows(g, o.flips, (2, 2))
            assert count(g, "tau_mod", p=4, orientation=o, group_a=(2, 2)) == len(
                oracles.nowhere_zero(tensions)
            )
            assert count(g, "phi_mod", q=4, orientation=o, group_b=(2, 2)) == len(
                oracles.nowhere_zero(flows)
            )
            assert count(
                g, "kappa_mod", p=4, q=4, orientation=o, group_a=(2, 2), group_b=(2, 2)
            ) == oracles.count_complementary(tensions, flows)
            assert count(
                g, "kappa_mod", p=4, q=3, orientation=o, group_a=(2, 2)
            ) == oracles.count_complementary(tensions, oracles.modular_flows(g, o.flips, (3,)))


def test_budget_counts_dp_states():
    # phi_int at q = 3 on three parallel edges u-v: two cotree values are
    # free, the tree edge carries their signed sum. The first step moves
    # that sum, and [-2, 2] is closed under negation, so it creates one
    # state per nonzero value of {1, 2}, each standing for its mirror too
    # (2 states); the second closes the sum and merges everything into one
    # state: 3 states in all.
    theta = build_graph(2, [(0, 1)] * 3)
    assert count(theta, "phi_int", q=3, budget=3) == 6
    with pytest.raises(BudgetExceededError, match="3 DP states exceed the budget of 2"):
        count(theta, "phi_int", q=3, budget=2)


def test_default_budget_is_not_a_candidate_product():
    # 19^8 assignments of the free values, but one DP state per step
    path = build_graph(9, [(k, k + 1) for k in range(8)])
    assert count(path, "tau_int", p=10) == 18 ** 8


@pytest.fixture(scope="module")
def corpus5_graphs():
    return list(small_multigraphs(5, True))


def test_block_map_matches_oracle(corpus5_graphs):
    for graph in corpus5_graphs:
        assert spanning_structure(graph).blocks == oracles.blocks(graph), graph.edges


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_block_map_matches_oracle_random(graph):
    assert spanning_structure(graph).blocks == oracles.blocks(graph)


def test_orbit_key_is_exact(corpus5_graphs):
    # two orientations share a key iff the kernel gets the same inputs from
    # them: the same coefficients and the same circuit part
    for graph in corpus5_graphs:
        keys, inputs, both = set(), set(), set()
        for o in OrientationTable(graph).orientations:
            key = _orbit_key(o)
            kernel_inputs = (
                _space(o, "tension"), _space(o, "flow"), oracles.circuit_part(graph, o.flips)
            )
            keys.add(key)
            inputs.add(kernel_inputs)
            both.add((key, kernel_inputs))
        assert len(keys) == len(inputs) == len(both), graph.edges
        # b blocks leave 2^(|E| - b) orbits
        assert len(keys) == 2 ** (graph.edge_count - len(set(oracles.blocks(graph))))


def test_class_weighted_sums_match_orientation_sums(corpus5_graphs, unmerged_sampler):
    # a closed-box count is constant on a cut-Eulerian class, so each _int
    # family's representatives weighted by class size sum to its sum over
    # every orientation of its filter, each counted on a table of its own
    filters = {"tau_bar_int": "acyclic", "phi_bar_int": "totally_cyclic", "kappa_bar_int": "all"}
    for graph in corpus5_graphs:
        table = CountTable(graph)
        for family, filter_name in filters.items():
            pairs = table.sum_members(family)
            every = [(o, 1) for o in table.members(filter_name)]
            assert sum(w for _, w in pairs) == len(every)
            sampler, reference = table.sampler(family, pairs)[1], unmerged_sampler(family, every)
            for p, q in product(range(4), repeat=2):
                assert sampler(p, q) == reference(p, q), (graph.edges, family, p, q)


def _read_arguments(family, p, q):
    """The p and q that a family reads, as count's keywords: count refuses
    the argument a one-side family does not read."""
    t_box, f_box, _ = FAMILY_TABLE[family]
    return {name: value for name, value, box in (("p", p, t_box), ("q", q, f_box)) if box}


def _direct_count(graph, family, p, q, group_a=None):
    # a definition-level family counted by its own kernel calls: the
    # nowhere-zero vectors of one side, or the complementary pairs matched
    # by zero set when it counts both
    o, m = Orientation.reference(graph), graph.edge_count
    t_box, f_box, _ = FAMILY_TABLE[family]

    def values(box, value, group):
        if box == "int":
            return [(1 - value, value - 1)] * m
        return CyclicProduct(group or (value,)) if box == "group" else None

    tensions, flows = values(t_box, p, group_a), values(f_box, q, None)
    if flows is None:
        return _kernel(o, "tension", tensions, "forbidden")
    if tensions is None:
        return _kernel(o, "flow", flows, "forbidden")
    return _matched_pairs(_kernel(o, "tension", tensions), _kernel(o, "flow", flows), (1 << m) - 1)


def test_definition_level_counts_match_direct_kernel_calls(corpus5_graphs):
    # count reads the definition-level families from a CountTable, and a
    # polynomial's table serves every grid point; both match the kernel
    # calls they replace
    families = [f for f, row in FAMILY_TABLE.items() if row[2] == "one"]
    for graph in corpus5_graphs:
        shared = CountTable(graph)
        pairs = shared.sum_members("kappa_mod")
        samplers = {family: shared.sampler(family, pairs)[1] for family in families}
        for family, (p, q) in product(families, product(range(1, 4), repeat=2)):
            direct = _direct_count(graph, family, p, q)
            assert count(graph, family, **_read_arguments(family, p, q)) == direct, \
                (graph.edges, family, p, q)
            assert samplers[family](p, q) == direct, (graph.edges, family, p, q)
        # a product group: its moduli, not only its order, key the table
        direct = _direct_count(graph, "kappa_mod", 4, 2, group_a=(2, 2))
        assert count(graph, "kappa_mod", p=4, q=2, group_a=(2, 2)) == direct, graph.edges
        assert samplers["kappa_mod"]((2, 2), 2) == direct, graph.edges


def test_orbit_key_examples(digon_loop):
    # the digon's acyclic and cyclic orientations stay apart; reversing the
    # digon or flipping the loop stays in the orbit
    acyclic = Orientation.reference(digon_loop)
    cyclic = acyclic.with_flipped([1])
    assert _orbit_key(acyclic) != _orbit_key(cyclic)
    assert _orbit_key(acyclic) == _orbit_key(acyclic.with_flipped([0, 1]))
    assert _orbit_key(acyclic) == _orbit_key(acyclic.with_flipped([2]))
    assert _orbit_key(cyclic) == _orbit_key(cyclic.reversed())


def test_count_table_matches_direct_counts():
    # each table entry, shared by an orbit, equals the count made on the
    # orientation itself
    for graph in small_multigraphs(4, True):
        table = CountTable(graph)
        for o in OrientationTable(graph).orientations:
            for side, box, value in product(
                ("tension", "flow"), ("closed", "open", "support"), (0, 1, 2)
            ):
                plan = _dp_plan(*_space(o, side))
                assert table.side(o, side, box, value) == _box_count(
                    plan, graph.edge_count, _circuit_part(o), side, box, value,
                    table.budget, "allowed",
                ), (graph.edges, o.flips, side, box, value)


def test_count_table_plans_each_orbit_and_side_once(kernel_calls, monkeypatch):
    # a kernel plan reads no box, so every p or q of one orbit's side reuses
    # the plan its first count made; each count is still a kernel call
    plans = []
    real = counting._dp_plan
    monkeypatch.setattr(counting, "_dp_plan", lambda *args: plans.append(args) or real(*args))
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    table = CountTable(k4)
    members = [o for o, _ in table.sum_members("kappa_bar_mod")]
    orbits = {table.orbit(o) for o in members}

    def sweep():
        for o in members:
            for value in range(4):
                table.side(o, "tension", "closed", value)
                table.side(o, "flow", "closed", value)

    assert kernel_calls(sweep) == 2 * 4 * len(orbits)
    assert len(plans) == 2 * len(orbits)


#: The boxes a table counts, each with a zero mode and a value, every count
#: kept per orbit: the scalar counts, and the zero-set histograms ("masks"),
#: indexed by edge position, which every orientation of a graph shares on
#: the "int" and "group" boxes.
BOXES = [
    *((box, "allowed", value) for box in ("closed", "open", "support") for value in (0, 1, 2)),
    *((box, zeros, value) for box in ("int", "group") for zeros in ("allowed", "forbidden")
      for value in (1, 2, 3)),
    ("group", "forbidden", (2, 2)),
    ("int", "masks", 2),
    ("group", "masks", 3),
]


def test_merged_orbits_match_each_orientations_own_counts():
    # a table that reads every orientation merges isomorphic ones; each
    # count it gives an orientation, and each zero-set histogram, equals the
    # one made on that orientation's own plan and circuit part
    merged_beyond_reversal = 0
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    w4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    for graph in [*small_multigraphs(4, True), k4, w4]:
        table = CountTable(graph)
        orientations = OrientationTable(graph).orientations
        orbits = {table.orbit(o) for o in orientations}
        merged_beyond_reversal += len(orbits) < len({_orbit_key(o) for o in orientations})
        # each orbit's first orientation is its lex-first one, and the counts
        # are read in the lex order of the reversed flips: many are made for
        # another orientation than the one whose plan and circuit part they
        # are made on, and not its reverse
        for o in sorted(orientations, key=lambda o: o.flips[::-1]):
            circuit = _circuit_part(o)
            for side, (box, zeros, value) in product(("tension", "flow"), BOXES):
                own = _box_count(_dp_plan(*_space(o, side)), graph.edge_count, circuit, side,
                                 box, value, table.budget, zeros)
                assert table.side(o, side, box, value, zeros) == own, (
                    graph.edges, o.flips, side, box, zeros, value)
    # 15 of the 105 corpus graphs, K4 and W4 have orientations that only
    # isomorphism merges
    assert merged_beyond_reversal == 17


def test_shared_store_matches_fresh_tables(kernel_calls):
    # tables that share one store read the counts and polynomials that
    # earlier graphs' tables made on equal kernel inputs; each must equal
    # the one made by a fresh table, with a store of its own, for that one
    # count or polynomial
    store, shared, fresh = CountStore(), [], []

    def read(graph, table, out):
        orientations = OrientationTable(graph).orientations
        for o in orientations:
            for side, (box, zeros, value) in product(("tension", "flow"), BOXES):
                out.append(table().side(o, side, box, value, zeros))
        for family, (_, _, members) in FAMILY_TABLE.items():
            if members is None:
                out.extend(_polynomial(table(), family, o) for o in orientations)
            else:
                out.append(_polynomial(table(), family))
            if isinstance(members, tuple) and members[0] == "size":
                # each filtered orientation, weighted by 2: twice the class sum
                pairs = [(o, 2) for o in OrientationTable(graph).members(members[1])]
                out.append(orientation_sum_polynomial(table(), family, pairs))

    graphs = list(small_multigraphs(3, True))

    def sweep_shared():
        for graph in graphs:
            table = CountTable(graph, store=store)
            read(graph, lambda: table, shared)

    made = kernel_calls(sweep_shared)
    fresh_made = kernel_calls(lambda: [read(g, lambda g=g: CountTable(g), fresh) for g in graphs])
    assert shared == fresh
    assert made < fresh_made


def test_orbits_are_isomorphism_classes_of_blocks(p8):
    # K4's 32 block-reversal orbits fall into 3 orbits of Aut(K4) x reversal
    # (transitive, a directed triangle with a source or a sink, strongly
    # connected), W4's 128 into 27; reversing every block keeps the key,
    # reversing one edge of a directed triangle does not
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    w4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    for graph, orbits in ((k4, 3), (w4, 27)):
        table = CountTable(graph)
        assert len({table.orbit(o) for o in table.orientations}) == orbits
    two_blocks = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)])
    table = CountTable(two_blocks)
    cycle = Orientation(two_blocks, (0, 0, 0, 0, 0))
    assert table.orbit(cycle) == table.orbit(cycle.with_flipped([0, 1, 2, 3, 4]))
    assert table.orbit(cycle) != table.orbit(cycle.with_flipped([2]))
    # so do the worked example's reference orientation and its reverse, and
    # a 6-cycle oriented in runs of 2, 1, 1 and 2 arcs and its reverse,
    # which are not isomorphic although their (out, in) degrees agree
    assert _isomorphism_key(Orientation.reference(p8)) == _isomorphism_key(
        Orientation.reference(p8).reversed())
    runs = Orientation(build_graph(6, [(k, (k + 1) % 6) for k in range(6)]), (0, 0, 1, 0, 1, 1))
    assert _isomorphism_key(runs) == _isomorphism_key(runs.reversed())


def test_one_orientation_tables_find_no_isomorphism_key(isomorphism_keys, p8):
    # canonical forms are paid for only where merging can happen: a table
    # that reads one block-reversal orbit finds none, and a swept table one
    # per block-reversal orbit it reads
    import ctfpolys.verify as verify

    ref = Orientation.reference(p8)

    def one_orientation():
        for family in ("kappa_mod", "kappa_int", "tau_int", "phi_mod"):
            counting_polynomial(p8, family)
        for family in LOCAL_FAMILIES:
            counting_polynomial(p8, family, orientation=ref)
            count(p8, family, orientation=ref.reversed(), **_read_arguments(family, 2, 2))
        # IND's recount, and the workspace's per-orientation minor sweeps
        orientation_sum_polynomial(CountTable(p8), "kappa_int", [(ref.reversed(), 1)])
        memo = verify._PolynomialMemo()
        for quotient, _, restriction, _ in memo.minors(p8):
            memo.polynomial(quotient, "tau_local", Orientation.reference(quotient))
            memo.polynomial(restriction, "phi_local", Orientation.reference(restriction))

    assert isomorphism_keys(one_orientation) == 0
    table = CountTable(p8)
    members = [o for o, _ in table.sum_members("kappa_bar_int")]
    assert isomorphism_keys(lambda: [table.orbit(o) for o in members]) == len(
        {_orbit_key(o) for o in members}) > 1


def test_package_caches_are_keyed_by_graph(package_caches, cache_growth):
    # the process-wide caches are keyed by graph, so sweeping the 64
    # orientations of one graph adds at most one entry to each; a cache
    # keyed by orientation would grow with the sweep
    assert set(package_caches) == {"spanning_structure", "_tutte_by_key"}
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 2)])

    def sweep():
        for o in OrientationTable(graph).orientations:
            count(graph, "tau_bar_local", p=1, orientation=o)
            count(graph, "phi_mod", q=2, orientation=o)
            count(graph, "kappa_local", p=2, q=2, orientation=o)
            for relation in RELATIONS:
                equivalent(o, o.reversed(), relation)

    grown = cache_growth(sweep)
    assert all(n <= 1 for n in grown.values()), grown


def test_orientation_sums_keep_no_circuit_parts(cache_growth):
    # the table reads each circuit part once, so the polynomials of the
    # many minors of a convolution keep no circuit part, nor anything
    # else, per orientation
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1)])

    def sweep():
        for family in ("tau_bar_int", "phi_bar_int", "kappa_bar_int", "kappa_bar_mod"):
            counting_polynomial(graph, family)

    grown = cache_growth(sweep)
    assert all(n <= 1 for n in grown.values()), grown


def test_one_orientation_lists_no_orientations():
    # the 21-edge star has 2^21 orientations, over the default budget: the
    # per-orientation families read one of them, and only a family that
    # sums over all of them lists them
    star = build_graph(22, [(0, k) for k in range(1, 22)])
    ref = Orientation.reference(star)
    assert count(star, "tau_local", p=3, orientation=ref) == 2**21
    assert count(star, "kappa_local", p=3, q=3, orientation=ref) == 2**21
    assert counting_polynomial(star, "tau_bar_local", orientation=ref).evaluate(2, 0) == 3**21
    with pytest.raises(BudgetExceededError):
        counting_polynomial(star, "tau_bar_int")


def test_class_sums_build_only_representatives(monkeypatch):
    # a class-summed count or report makes an Orientation for each
    # cut-Eulerian class representative, plus the reference orientation, and
    # none for the other members
    k4_bridge = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    classes = len(OrientationTable(k4_bridge).classes("cut_eulerian").classes)
    assert classes == tutte(k4_bridge).evaluate(1, 1) == 16
    value, report = count(k4_bridge, "kappa_bar_int", p=1, q=1), polynomial_report(k4_bridge)
    built = []
    original = Orientation.__init__

    def counted(self, *args):
        built.append(None)
        original(self, *args)

    monkeypatch.setattr(Orientation, "__init__", counted)
    assert count(k4_bridge, "kappa_bar_int", p=1, q=1) == value
    assert 0 < len(built) <= classes + 1
    built.clear()
    assert polynomial_report(k4_bridge) == report
    assert 0 < len(built) <= classes + 1

import json
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ctfpolys import (
    BivariatePolynomial,
    BudgetExceededError,
    InterpolationError,
    Orientation,
    build_graph,
    count,
    counting_polynomial,
    interpolate,
    polynomial_report,
    rank_generating,
    small_multigraphs,
    tutte,
)
from ctfpolys import orientations, polynomials
from ctfpolys.counting import FAMILY_TABLE, CountStore, CountTable, lowest_argument
from ctfpolys.polynomials import _poly_sum, _polynomial

X = BivariatePolynomial.variable("x")
Y = BivariatePolynomial.variable("y")
ONE = BivariatePolynomial.constant(1)


def test_interpolate_product_grid():
    values = [[a * b for b in (0, 1)] for a in (0, 1)]
    assert interpolate(values, (0, 1), (0, 1)) == X * Y


def test_interpolate_constant():
    values = [[5]]
    assert interpolate(values, (7,), (9,)) == BivariatePolynomial.constant(5)


def test_interpolate_shape_errors():
    with pytest.raises(ValueError):
        interpolate([[1, 2]], (0,), (0,))
    with pytest.raises(ValueError):
        interpolate([[1], [2]], (0, 0), (0,))


def test_held_out_detects_degree_violation():
    from ctfpolys.polynomials import interpolate_checked

    square = lambda a, b: a * a
    with pytest.raises(InterpolationError):
        interpolate_checked(square, [0, 1], [0], [(5, 0)])


def test_polynomial_arithmetic():
    p = (X - 1) * (X - 2) + 2 * (X - 1) * (Y - 1)
    assert p.evaluate(1, 7) == 0
    assert p.evaluate(3, 3) == 2 + 2 * 2 * 2
    assert (p - p).is_zero()
    assert p.substitute(-1, 0, -1, 0).evaluate(2, 2) == p.evaluate(-2, -2)
    assert p.set_y(1) == (X - 1) * (X - 2)
    assert p.set_x(1).degree_x == 0


def test_rank_generating_small(k2, l1, p8):
    assert rank_generating(k2) == X + 1
    assert rank_generating(l1) == Y + 1
    assert rank_generating(p8).evaluate(1, 1) == 32  # one term per edge subset


def test_tutte_small(p8, c3):
    assert tutte(p8).to_text() == "y^3+x^2+2*x*y+2*y^2+x+y"
    assert tutte(c3) == X * X + X + Y
    assert tutte(build_graph(3, [])) == ONE


def test_tutte_from_rank_generating(small_corpus, p8):
    for g in list(small_corpus) + [p8]:
        assert tutte(g) == rank_generating(g).substitute(1, -1, 1, -1)
        assert rank_generating(g) == tutte(g).substitute(1, 1, 1, 1)


def test_tutte_evaluations(p8):
    t = tutte(p8)
    assert t.evaluate(1, 1) == 8
    assert t.evaluate(2, 2) == 32
    assert t.evaluate(2, 0) == 6
    assert t.evaluate(0, 2) == 18


def test_tension_flow_tutte_specializations(small_corpus):
    # tau(x) = (-1)^r T(1-x, 0) and phi(y) = (-1)^n T(0, 1-y)
    for g in small_corpus:
        stats = g.stats()
        t = tutte(g)
        tau = counting_polynomial(g, "tau_mod")
        want = (-1) ** stats.rank * t.set_y(0).substitute(x_scale=-1, x_shift=1)
        assert tau == want
        phi = counting_polynomial(g, "phi_mod")
        want = (-1) ** stats.nullity * t.set_x(0).substitute(y_scale=-1, y_shift=1)
        assert phi == want


def test_counting_polynomial_examples(p8, k2):
    kappa = counting_polynomial(p8, "kappa_mod")
    assert kappa == (X - 1) * (X - 2) + 2 * (X - 1) * (Y - 1) + (Y - 1) * (Y - 2) * (Y - 2)
    assert counting_polynomial(k2, "kappa_mod") == X - 1
    kbm = counting_polynomial(p8, "kappa_bar_mod")
    assert kbm.to_text() == "y^3+x^2+2*x*y+5*y^2+5*x+10*y+8"
    assert kbm == rank_generating(p8)


def test_counting_polynomial_univariate_families(p8):
    tau = counting_polynomial(p8, "tau_mod")
    assert tau.degree_y == 0
    phi = counting_polynomial(p8, "phi_mod")
    assert phi.degree_x == 0
    assert phi == (Y - 1) * (Y - 2) * (Y - 2)  # kappa_mod at x = 1


def test_counting_polynomials_reproduce_counts(c3, digon_loop):
    for g in (c3, digon_loop):
        kappa = counting_polynomial(g, "kappa_int")
        for p, q in ((1, 1), (2, 2), (3, 2), (4, 5)):
            assert kappa.evaluate(p, q) == count(g, "kappa_int", p=p, q=q)
        bar = counting_polynomial(g, "kappa_bar_mod")
        for p, q in ((0, 0), (1, 2), (3, 3)):
            assert bar.evaluate(p, q) == count(g, "kappa_bar_mod", p=p, q=q)


def test_local_polynomial(p8):
    ref = Orientation.reference(p8)
    kappa_ref = counting_polynomial(p8, "kappa_local", orientation=ref)
    # reference orientation is acyclic: kappa_rho = (x-1)(x-2)/2
    assert kappa_ref == Fraction(1, 2) * (X - 1) * (X - 2)
    mixed = ref.with_flipped([3])
    assert counting_polynomial(p8, "kappa_local", orientation=mixed) == (X - 1) * (Y - 1)
    with pytest.raises(ValueError, match="kappa_bar_mod reads no orientation"):
        counting_polynomial(p8, "kappa_bar_mod", orientation=ref)
    with pytest.raises(ValueError, match="kappa_local needs an orientation"):
        counting_polynomial(p8, "kappa_local")


def test_integer_coefficient_families(small_corpus):
    for g in small_corpus:
        for family in ("tau_mod", "phi_mod", "kappa_mod", "kappa_bar_mod"):
            assert counting_polynomial(g, family).has_integer_coefficients()
        assert tutte(g).has_integer_coefficients()
        assert rank_generating(g).has_integer_coefficients()


def test_integral_families_integer_valued_not_integer_coefficient(p8):
    kappa_int = counting_polynomial(p8, "kappa_int")
    assert kappa_int.coefficient(0, 3) == Fraction(14, 3)
    assert not kappa_int.has_integer_coefficients()
    for p in range(1, 7):
        for q in range(1, 7):
            value = kappa_int.evaluate(p, q)
            assert value.denominator == 1


def test_json_serialization(p8):
    t = tutte(p8)
    payload = t.to_json_dict()
    assert payload["vars"] == ["x", "y"]
    assert payload["monomials"] == [
        [2, 0, "1"], [1, 1, "2"], [1, 0, "1"], [0, 3, "1"], [0, 2, "2"], [0, 1, "1"],
    ]
    assert payload["monomials"] == sorted(payload["monomials"], key=lambda m: (m[0], m[1]), reverse=True)
    json.dumps(payload)  # serializable

    kappa_int = counting_polynomial(p8, "kappa_int")
    coeffs = {((i, j)): c for i, j, c in kappa_int.to_json_dict()["monomials"]}
    assert coeffs[(0, 3)] == "14/3"


def test_text_form():
    assert BivariatePolynomial().to_text() == "0"
    assert BivariatePolynomial.constant(5).to_text() == "5"
    assert (X * X - 2 * X + 1).to_text() == "x^2-2*x+1"
    assert (-X).to_text() == "-x"


def _relabel(graph, rng):
    # rename the vertices, shuffle the edge order and flip reference directions
    names = list(range(graph.vertex_count))
    rng.shuffle(names)
    edges = [(names[u], names[v]) for u, v in graph.edges]
    rng.shuffle(edges)
    flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return build_graph(graph.vertex_count, flipped)


def test_polynomial_report_fits_one_budget_on_every_labelling():
    # the kernel's forest and assignment orders are chosen from the graph,
    # not from its file: W5's largest kernel call makes 1,859 to 2,657 DP
    # states on these labellings (3,423 on each before the mirror step), so
    # 4,096 is enough for each. Assigning the free values in file order
    # needed 4,148 to 5,753 states on these relabellings.
    w5 = build_graph(6, [(0, k) for k in range(1, 6)] + [(k, k % 5 + 1) for k in range(1, 6)])
    expected = polynomial_report(w5, budget=4096).named()
    for k in range(1, 9):
        report = polynomial_report(_relabel(w5, random.Random(k)), budget=4096)
        assert report.named() == expected, k


def test_polynomial_report(k2):
    report = polynomial_report(k2)
    named = report.named()
    assert set(named) == {
        "tutte", "rank_generating",
        "kappa_mod", "kappa_int", "kappa_bar_mod", "kappa_bar_int",
        "tau_mod", "tau_int", "tau_bar_mod", "tau_bar_int",
        "phi_mod", "phi_int", "phi_bar_mod", "phi_bar_int",
    }
    assert named["tutte"] == X
    assert named["kappa_mod"] == X - 1
    assert named["kappa_bar_mod"] == X + 1
    # K2: single bridge; both orientations acyclic, one CE class
    assert named["kappa_bar_int"] == 2 * (X + 1)
    assert named["tau_int"] == 2 * (X - 1)


_coefficients = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.fractions(max_denominator=12),
    max_size=8,
)


_points = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(_coefficients, _points, _points)
def test_evaluation_matches_naive_sum(coeffs, x, y):
    naive = Fraction(0)
    for (i, j), c in coeffs.items():
        naive += Fraction(c) * Fraction(x) ** i * Fraction(y) ** j
    value = BivariatePolynomial(coeffs).evaluate(x, y)
    assert isinstance(value, Fraction)
    assert value == naive


_ints = st.integers(-9, 9)


def _value(coeffs, x, y):
    return oracles.compose(coeffs, {(0, 0): x}, {(0, 0): y}).get((0, 0), 0)


@settings(max_examples=200, deadline=None)
@given(_coefficients, _ints, _ints)
def test_integer_point_evaluation_matches_oracle(coeffs, x, y):
    # at two ints evaluate sums ints over the one denominator
    value = BivariatePolynomial(coeffs).evaluate(x, y)
    assert isinstance(value, Fraction)
    assert value == _value(coeffs, x, y)


@settings(max_examples=200, deadline=None)
@given(_coefficients, _ints)
def test_partial_evaluation_matches_oracle(coeffs, value):
    poly = BivariatePolynomial(coeffs)
    x, y = {(1, 0): 1}, {(0, 1): 1}
    assert poly.set_x(value).coefficients == oracles.compose(coeffs, {(0, 0): value}, y)
    assert poly.set_y(value).coefficients == oracles.compose(coeffs, x, {(0, 0): value})


@settings(max_examples=200, deadline=None)
@given(_coefficients, st.sampled_from((-1, 0, 1, 2)), st.sampled_from((-1, 0, 1, 2)),
       st.integers(-3, 3), st.integers(-3, 3))
def test_substitution_matches_oracle(coeffs, x_scale, y_scale, x_shift, y_shift):
    # the sign flip P(-x, -y) and every scale-only or value-only substitution
    # take the one-pass path, the rest expand binomial rows: both must
    # compose as the oracle does
    poly = BivariatePolynomial(coeffs)
    assert poly.substitute(-1, 0, -1, 0).coefficients == oracles.compose(
        coeffs, {(1, 0): -1}, {(0, 1): -1})
    for shifts in ((0, 0), (x_shift, 0), (0, y_shift), (x_shift, y_shift)):
        got = poly.substitute(x_scale, shifts[0], y_scale, shifts[1])
        assert got.coefficients == oracles.compose(
            coeffs, {(1, 0): x_scale, (0, 0): shifts[0]}, {(0, 1): y_scale, (0, 0): shifts[1]})


@settings(max_examples=200, deadline=None)
@given(_coefficients, st.integers(-10**6, 10**6))
def test_integer_scalar_product_matches_oracle(coeffs, n):
    poly = BivariatePolynomial(coeffs)
    want = {key: c * n for key, c in oracles.add(coeffs).items() if n}
    assert (n * poly).coefficients == want
    assert (poly * n).coefficients == want
    assert n * poly == BivariatePolynomial.constant(n) * poly


@settings(max_examples=200, deadline=None)
@given(st.lists(_coefficients, max_size=6))
def test_multi_term_sum_matches_oracle(coeff_maps):
    polys = [BivariatePolynomial(c) for c in coeff_maps]
    want = oracles.add(*coeff_maps)
    summed = _poly_sum(polys)
    assert summed.coefficients == want
    assert summed == sum(polys, BivariatePolynomial())
    assert summed == BivariatePolynomial(want)


def test_interpolation_reproduces_t_squared():
    # the grid 0, 1, 2 with values 0, 1, 4 gives back t^2
    values = [[a * a] for a in (0, 1, 2)]
    assert interpolate(values, [0, 1, 2], [0]) == X * X


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 6), st.integers(1, 6), st.data()
)
def test_interpolate_matches_lagrange_oracle(x_lo, y_lo, nx, ny, data):
    values = data.draw(st.lists(
        st.lists(st.integers(-10**6, 10**6), min_size=ny, max_size=ny),
        min_size=nx, max_size=nx,
    ))
    xs, ys = list(range(x_lo, x_lo + nx)), list(range(y_lo, y_lo + ny))
    poly = interpolate(values, xs, ys)
    assert poly.coefficients == oracles.lagrange_interpolate(values, xs, ys)
    assert all(poly.evaluate(a, b) == values[k][l]
               for k, a in enumerate(xs) for l, b in enumerate(ys))


@pytest.mark.parametrize("xs", [(0, 2), (1, 0), (2, 1, 0), (0, 1, 3), (0, 0)])
def test_interpolate_needs_consecutive_points(xs):
    values = [[v] for v in range(len(xs))]
    with pytest.raises(ValueError, match="consecutive"):
        interpolate(values, xs, (0,))
    with pytest.raises(ValueError, match="consecutive"):
        interpolate([list(range(len(xs)))], (0,), xs)


@settings(max_examples=100, deadline=None)
@given(_coefficients, _coefficients)
def test_equal_polynomials_are_normalised_alike(a, b):
    p, q = BivariatePolynomial(a), BivariatePolynomial(b)
    for left, right in ((p * q, q * p), ((p + q) - q, p), (p - p, BivariatePolynomial())):
        assert left == right
        assert hash(left) == hash(right)
        assert left.to_json_dict() == right.to_json_dict()
    # integer numerators over their common denominator, scaled back down:
    # the same polynomial as the Fraction coefficients
    den = lcm(*(c.denominator for c in p.coefficients.values()))
    scaled = BivariatePolynomial({k: c * den for k, c in p.coefficients.items()})
    assert scaled * Fraction(1, den) == p
    assert hash(scaled * Fraction(1, den)) == hash(p)
    assert scaled.has_integer_coefficients()


def test_reducible_fraction_coefficients_compare_equal():
    halves = BivariatePolynomial({(1, 0): Fraction(2, 4), (0, 2): Fraction(3, 6)})
    assert halves == BivariatePolynomial({(1, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    assert halves == Fraction(1, 2) * (X + Y * Y)
    assert hash(halves) == hash(Fraction(1, 2) * (X + Y * Y))
    assert 2 * halves == X + Y * Y and (2 * halves).has_integer_coefficients()
    assert (X * Fraction(2, 3) * 3).to_json_dict() == (2 * X).to_json_dict()


def test_exponents_must_be_non_negative_integers():
    # x^-1 would print, report degree -1 and fail in evaluate and substitute;
    # x^1.5 would be truncated to x
    for key in ((-1, 0), (0, -1), (-2, 3), (1.5, 0), (0, "2")):
        with pytest.raises(ValueError, match="non-negative"):
            BivariatePolynomial({key: 1})
    with pytest.raises(ValueError, match="non-negative"):
        BivariatePolynomial({(1, 0): 1, (0, -1): 0})  # a zero coefficient too


def test_floats_are_refused():
    with pytest.raises(TypeError):
        BivariatePolynomial({(0, 0): 0.1})
    with pytest.raises(TypeError):
        BivariatePolynomial.constant(0.5)
    with pytest.raises(TypeError):
        X.evaluate(0.5, 1)
    with pytest.raises(TypeError):
        X.evaluate(1, 0.5)
    with pytest.raises(TypeError):
        X * 0.5
    with pytest.raises(TypeError):
        X + 0.5
    with pytest.raises(TypeError):
        X.substitute(0.5)
    with pytest.raises(TypeError):
        X.set_x(0.5)
    with pytest.raises(TypeError):
        X.set_y(Fraction(1, 2))
    with pytest.raises(TypeError):
        interpolate([[0.5]], (0,), (0,))


def test_report_finds_each_circuit_part_once(component_passes, monkeypatch):
    # the six orientation-sum families of a report read one table: each
    # circuit part of K4's 2^6 orientations is found once, and the
    # orientations are never listed (the sums read class representatives)
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    listed = []
    original = orientations.OrientationTable.members

    def counted(self, filter):
        listed.append(filter)
        return original(self, filter)

    monkeypatch.setattr(orientations.OrientationTable, "members", counted)
    assert component_passes(lambda: polynomial_report(k4)) == 2**6
    assert listed == []


@pytest.mark.parametrize(
    "vertex_count, edges",
    [
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),  # K4
        (3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2), (0, 0)]),  # worked example plus a loop
    ],
)
def test_int_duals_cost_no_kernel_call(kernel_calls, vertex_count, edges):
    # the _int duals weight the class representatives whose counts the _mod
    # duals made, at the same grid points, so they need no further count
    table = CountTable(build_graph(vertex_count, edges))
    built = lambda *families: [_polynomial(table, f) for f in families]
    assert kernel_calls(lambda: built("kappa_bar_mod", "tau_bar_mod", "phi_bar_mod")) > 0
    assert kernel_calls(lambda: built("kappa_bar_int", "tau_bar_int", "phi_bar_int")) == 0


def test_a_resource_limit_stores_nothing(monkeypatch):
    # a count over the budget, or a polynomial that fails its held-out
    # points, leaves nothing in the store: the next read raises again, or
    # makes the polynomial afresh
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    store = CountStore()
    for _ in range(2):
        with pytest.raises(BudgetExceededError, match="^9 DP states exceed the budget of 8$"):
            _polynomial(CountTable(k4, 8, store), "kappa_int")
    assert store.polynomials == {}

    def failing(*args):
        raise InterpolationError("held-out point")

    with monkeypatch.context() as patched:
        patched.setattr(polynomials, "interpolate_checked", failing)
        with pytest.raises(InterpolationError):
            _polynomial(CountTable(k4, store=store), "tau_int")
    assert store.polynomials == {}
    assert _polynomial(CountTable(k4, store=store), "tau_int") == counting_polynomial(k4, "tau_int")


@pytest.mark.parametrize(
    "vertex_count, edges, calls",
    [
        # K4: rank 3, nullity 3
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
         {"kappa_mod": 12, "kappa_int": 12, "tau_mod": 6, "phi_int": 6}),
        # the worked example: rank 2, nullity 3
        (3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2)],
         {"kappa_mod": 11, "kappa_int": 11, "tau_mod": 5, "phi_int": 6}),
    ],
)
def test_definition_level_sides_are_counted_once(kernel_calls, vertex_count, edges, calls):
    # the grid and its two held-out points read one tension count per
    # distinct p (rank + 3 of them) and one flow count per distinct q
    # (nullity + 3) from the polynomial's table, not two per point
    graph = build_graph(vertex_count, edges)
    made = {f: kernel_calls(lambda: counting_polynomial(graph, f)) for f in calls}
    assert made == calls


#: Every family whose sum separates into tension and flow counts: all but the
#: definition-level pair families, whose pairs are matched by zero set.
SEPARABLE_FAMILIES = sorted(
    f for f, (t_box, f_box, members) in FAMILY_TABLE.items()
    if not (members == "one" and t_box and f_box)
)


def _pair_lists(table, family):
    """The (orientation, weight) lists the library sums a family over: one
    orientation at a time, or the weighted class representatives and every
    filtered orientation weighted by 1, as the ledger sums them."""
    members = FAMILY_TABLE[family][2]
    if members is None or members == "one":
        return [[(o, 1)] for o in table.orientations]
    return [list(table.sum_members(family)),
            [(o, 1) for o in table.members(members[1])]]


def test_orbit_merged_sampler_matches_per_point_totals(unmerged_sampler):
    # the sampler merges the pairs by orbit and reads each orbit's counts
    # once per p and once per q; at every grid and held-out point it must
    # give the sum over the pairs as listed, each read from a table that
    # holds only its own orientation
    for graph in small_multigraphs(4, True):
        rank, nullity = graph.stats().rank, graph.stats().nullity
        merged, listed = CountTable(graph), CountTable(graph)
        for family in SEPARABLE_FAMILIES:
            t_box, f_box, _ = FAMILY_TABLE[family]
            lo = lowest_argument(family)
            points = list(product(range(lo, lo + rank + 3) if t_box else [lo],
                                  range(lo, lo + nullity + 3) if f_box else [lo]))
            for pairs in _pair_lists(listed, family):
                _, sampler = merged.sampler(family, pairs)
                reference = unmerged_sampler(family, pairs)
                for p, q in points:
                    assert sampler(p, q) == reference(p, q), (
                        graph.edges, family, pairs, p, q)

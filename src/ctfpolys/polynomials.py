"""Exact bivariate polynomials, interpolation of the counting families, and
the Tutte / rank-generating oracles."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from numbers import Rational
from typing import Mapping, Sequence

from .counting import CountTable, FAMILY_TABLE, lowest_argument
from .multigraph import MultiGraph, _Record, _UnionFind, spanning_structure
from .orientations import DEFAULT_BUDGET, Orientation, _check_sweep_budget


class InterpolationError(ValueError):
    """Held-out verification failed: the sampled function is not a polynomial
    of the assumed per-variable degrees."""


class BivariatePolynomial:
    """Polynomial in x, y with exact rational coefficients, held as integer
    numerators over one positive integer denominator.

    The pair is kept normalised (the gcd of the denominator and all numerators
    is 1, the zero polynomial has denominator 1), so equal polynomials have
    equal pairs and the arithmetic runs on ints alone. Coefficients and
    values are returned as ``Fraction``.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction | int] | None = None):
        ratios = {(i, j): _ratio(c) for (i, j), c in (coeffs or {}).items()}
        if not all(isinstance(e, int) and e >= 0 for key in ratios for e in key):
            raise ValueError("exponents must be non-negative integers")
        den = lcm(*(d for _, d in ratios.values()))
        self._num, self._den = _normalised(
            {k: n * (den // d) for k, (n, d) in ratios.items()}, den
        )

    @classmethod
    def _make(cls, num: dict[tuple[int, int], int], den: int = 1) -> "BivariatePolynomial":
        """From integer numerators over ``den`` > 0, normalised."""
        poly = object.__new__(cls)
        poly._num, poly._den = _normalised(num, den)
        return poly

    @classmethod
    def constant(cls, value) -> "BivariatePolynomial":
        return cls({(0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "BivariatePolynomial":
        if name not in ("x", "y"):
            raise ValueError("variable must be 'x' or 'y'")
        return cls({(1, 0) if name == "x" else (0, 1): 1})

    @property
    def coefficients(self) -> dict[tuple[int, int], Fraction]:
        return {k: Fraction(c, self._den) for k, c in self._num.items()}

    def coefficient(self, i: int, j: int) -> Fraction:
        return Fraction(self._num.get((i, j), 0), self._den)

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self._num), default=0)

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self._num), default=0)

    def is_zero(self) -> bool:
        return not self._num

    def has_integer_coefficients(self) -> bool:
        # normalised: a denominator above 1 leaves some numerator indivisible
        return self._den == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __add__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        return _poly_sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial._make({k: -c for k, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "BivariatePolynomial":
        return self + -other

    def __rsub__(self, other):
        return BivariatePolynomial.constant(other) - self

    def __mul__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            n, d = (other, 1) if isinstance(other, int) else _ratio(other)
            scaled = {k: c * n for k, c in self._num.items()}
            return BivariatePolynomial._make(scaled, self._den * d)
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._num.items():
            for (i2, j2), c2 in other._num.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivariatePolynomial._make(out, self._den * other._den)

    __rmul__ = __mul__

    def _numerator_at(self, x, y):
        """den * P(x, y): an int at integers x and y."""
        return sum(c * x**i * y**j for (i, j), c in self._num.items())

    def evaluate(self, x, y) -> Fraction:
        if not (isinstance(x, int) and isinstance(y, int)):
            x, y = Fraction(*_ratio(x)), Fraction(*_ratio(y))
        return Fraction(self._numerator_at(x, y), self._den)

    def substitute(self, x_scale=1, x_shift=0, y_scale=1, y_shift=0) -> "BivariatePolynomial":
        """P(x_scale*x + x_shift, y_scale*y + y_shift) for integer scales and
        shifts, expanded exactly. Where each variable is only scaled or only
        set (a sign flip, a partial evaluation), every monomial goes to a
        multiple of one monomial, in one pass; else one variable at a time."""
        if not all(isinstance(v, int) for v in (x_scale, x_shift, y_scale, y_shift)):
            raise TypeError("substitute takes integer scales and shifts")
        num = self._num
        if 0 in (x_scale, x_shift) and 0 in (y_scale, y_shift):
            xv, yv, out = x_shift or x_scale, y_shift or y_scale, {}
            for (i, j), c in num.items():
                key = (0 if x_shift else i, 0 if y_shift else j)
                out[key] = out.get(key, 0) + c * xv**i * yv**j
            return BivariatePolynomial._make(out, self._den)
        for axis, scale, shift in ((0, x_scale, x_shift), (1, y_scale, y_shift)):
            if (scale, shift) == (1, 0):
                continue
            # rows[d]: coefficients of (scale*t + shift)^d
            rows = [[comb(d, k) * scale**k * shift ** (d - k) for k in range(d + 1)]
                    for d in range(max((key[axis] for key in num), default=0) + 1)]
            out: dict[tuple[int, int], int] = {}
            for (i, j), c in num.items():
                for k, a in enumerate(rows[j if axis else i]):
                    if a:
                        key = (i, k) if axis else (k, j)
                        out[key] = out.get(key, 0) + c * a
            num = out
        return BivariatePolynomial._make(num, self._den)

    def set_x(self, value: int) -> "BivariatePolynomial":
        """Partial evaluation x := value, an integer; result only involves y."""
        return self.substitute(x_scale=0, x_shift=value)

    def set_y(self, value: int) -> "BivariatePolynomial":
        return self.substitute(y_scale=0, y_shift=value)

    def __repr__(self):
        return f"BivariatePolynomial({self.to_text()!r})"

    def _coefficient_text(self, c: int) -> str:
        """c / den in lowest terms, printed as str(Fraction) prints it."""
        g = gcd(c, self._den)
        return str(c // g) if g == self._den else f"{c // g}/{self._den // g}"

    def to_text(self) -> str:
        """Monomial sum ordered by total degree descending, then x-power
        descending: 'y^3+x^2+2*x*y+2*y^2+x+y' style."""
        if not self._num:
            return "0"
        parts = []
        for (i, j) in sorted(self._num, key=lambda ij: (-(ij[0] + ij[1]), -ij[0])):
            c = self._num[(i, j)]
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            body = "*".join(factors)
            if not body:
                parts.append(self._coefficient_text(c))
            elif c == self._den:
                parts.append(body)
            elif c == -self._den:
                parts.append(f"-{body}")
            else:
                parts.append(f"{self._coefficient_text(c)}*{body}")
        text = "+".join(parts)
        return text.replace("+-", "-")

    def to_json_dict(self) -> dict:
        """{"vars": ["x", "y"], "monomials": [[i, j, coeff-string], ...]}
        sorted by (i, j) descending; coefficients are decimal integer strings
        when integral and 'a/b' fraction strings otherwise."""
        monomials = [
            [i, j, self._coefficient_text(self._num[(i, j)])]
            for (i, j) in sorted(self._num, reverse=True)
        ]
        return {"vars": ["x", "y"], "monomials": monomials}


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational. A float is refused: it
    would enter as its binary expansion (0.1 as 3602879701896397/2^55)."""
    if not isinstance(value, Rational):
        raise TypeError(f"expected an int or a Fraction, not {type(value).__name__}")
    return value.numerator, value.denominator


def _poly_sum(polys) -> BivariatePolynomial:
    """The sum of the polynomials, normalised once."""
    polys = list(polys)
    den, out = lcm(*(p._den for p in polys)), {}
    for p in polys:
        scale = den // p._den
        for key, c in p._num.items():
            out[key] = out.get(key, 0) + c * scale
    return BivariatePolynomial._make(out, den)


def _normalised(num: dict, den: int) -> tuple[dict, int]:
    """Zero numerators dropped, then numerators and denominator divided by
    their gcd; the zero polynomial gets denominator 1."""
    num = {k: c for k, c in num.items() if c}
    g = gcd(den, *num.values()) if den != 1 or not num else 1
    if g != 1:
        num, den = {k: c // g for k, c in num.items()}, den // g
    return num, den


def _grid_start(points: Sequence[int]) -> int:
    """The first of the consecutive increasing integers ``points``."""
    lo = points[0] if points else 0
    if list(points) != list(range(lo, lo + len(points))):
        raise ValueError("sample points must be consecutive increasing integers")
    return lo


def _newton_numerators(values: Sequence[int], lo: int) -> list[int]:
    """Ascending monomial coefficients of r! * P, where P has degree r =
    len(values) - 1 and P(lo + i) = values[i]. P's coefficients in the basis
    C(t - lo, i) are its forward differences at lo, integers; and r! * C(t -
    lo, i) is r!/i! times the falling product (t - lo)...(t - lo - i + 1)."""
    r = len(values) - 1
    out = [0] * (r + 1)
    falling, row = [1], list(values)
    for i in range(r + 1):
        weight = row[0] * (factorial(r) // factorial(i))
        if weight:
            for k, f in enumerate(falling):
                out[k] += weight * f
        row = [b - a for a, b in zip(row, row[1:])]
        # multiply the falling product by (t - lo - i)
        nxt = [0] + falling
        for k, f in enumerate(falling):
            nxt[k] -= (lo + i) * f
        falling = nxt
    return out


def interpolate(values: Sequence[Sequence[int]], x_points: Sequence[int],
                y_points: Sequence[int]) -> BivariatePolynomial:
    """Unique polynomial with per-variable degrees (rx, ry) = (len(x_points)-1,
    len(y_points)-1) through the integers values[a][b] = P(x_points[a],
    y_points[b]), where each axis is a run lo..lo+r of consecutive integers.

    Newton forward differences, along y and then along x, give P as integer
    monomial numerators over the denominator rx! * ry!.
    """
    x_lo, y_lo = _grid_start(x_points), _grid_start(y_points)
    if len(values) != len(x_points) or any(len(row) != len(y_points) for row in values):
        raise ValueError("grid shape mismatch")
    if not all(isinstance(v, int) for row in values for v in row):
        raise TypeError("sample values must be integers")
    if not values or not y_points:
        return BivariatePolynomial()
    # rows[a][l]: ry! times the y^l coefficient of P(x_points[a], y)
    rows = [_newton_numerators(row, y_lo) for row in values]
    num = {
        (k, l): c
        for l, column in enumerate(zip(*rows))
        for k, c in enumerate(_newton_numerators(column, x_lo))
    }
    return BivariatePolynomial._make(
        num, factorial(len(x_points) - 1) * factorial(len(y_points) - 1)
    )


def interpolate_checked(sampler, x_points: Sequence[int], y_points: Sequence[int],
                        held_out: Sequence[tuple[int, int]]) -> BivariatePolynomial:
    """Interpolate sampler(x, y) on the grid, then verify the held-out points;
    a mismatch signals a degree-bound violation."""
    grid = [[sampler(a, b) for b in y_points] for a in x_points]
    poly = interpolate(grid, x_points, y_points)
    for a, b in held_out:
        # at integer points the value is an integer over the polynomial's den
        got = poly._numerator_at(a, b)
        expected = sampler(a, b)
        if got != expected * poly._den:
            raise InterpolationError(
                f"held-out point ({a}, {b}): polynomial gives "
                f"{poly.evaluate(a, b)}, count gives {expected}"
            )
    return poly


def rank_generating(graph: MultiGraph) -> BivariatePolynomial:
    """Subset expansion: sum over edge subsets X of
    x^(r(E)-r(X)) * y^(n(X))."""
    m = graph.edge_count
    full_rank = graph.stats().rank
    coeffs: dict[tuple[int, int], int] = {}
    for mask in range(1 << m):
        uf = _UnionFind(graph.vertex_count)
        size = 0
        rank = 0
        for pos in range(m):
            if mask >> pos & 1:
                size += 1
                u, v = graph.edges[pos]
                if u != v and uf.union(u, v):
                    rank += 1
        key = (full_rank - rank, size - rank)
        coeffs[key] = coeffs.get(key, 0) + 1
    return BivariatePolynomial._make(coeffs)


def _compact_key(graph: MultiGraph, orientation: Orientation | None = None):
    """Memo key: sorted edge multiset relabelled by first appearance.

    Complete description of the graph minus isolated vertices, so equal keys
    imply equal Tutte and graph-level counting polynomials; isomorphic graphs
    may still get distinct keys, which only costs a recomputation. With an
    orientation, the same relabelling runs on its arrows, direction kept, so
    the key describes the directed graph, as the per-orientation families
    need.
    """
    if orientation is None:
        pairs = sorted((min(u, v), max(u, v)) for u, v in graph.edges)
    else:
        pairs = sorted(orientation.arrows())
    relabel: dict[int, int] = {}
    out = []
    for u, v in pairs:
        for w in (u, v):
            if w not in relabel:
                relabel[w] = len(relabel)
        a, b = relabel[u], relabel[v]
        out.append((min(a, b), max(a, b)) if orientation is None else (a, b))
    return tuple(sorted(out))


def _block_restrictions(graph: MultiGraph) -> list[MultiGraph]:
    """G|B for each block B of the graph (``ForestData.blocks``), in the
    order of their first edges. The cycle and tension spaces are direct sums
    over the blocks, so T, R and every counting family of G, per orientation
    under the induced ones, are the products of theirs; no block, 1."""
    ids: dict[int, list[int]] = {}
    for pos, first in enumerate(spanning_structure(graph).blocks):
        ids.setdefault(first, []).append(graph.edge_ids[pos])
    return [graph.restrict(block) for block in ids.values()]


_X = BivariatePolynomial.variable("x")
_Y = BivariatePolynomial.variable("y")
_ONE = BivariatePolynomial.constant(1)


@lru_cache(maxsize=None)
def _tutte_by_key(key) -> BivariatePolynomial:
    if not key:
        return _ONE
    edges = list(key)
    graph = MultiGraph(
        max(max(e) for e in edges) + 1,
        tuple(edges),
        tuple(range(len(edges))),
    )
    pos = len(edges) - 1
    u, v = edges[pos]
    edge_id = graph.edge_ids[pos]
    if u == v:
        return _Y * _tutte_by_key(_compact_key(graph.delete(edge_id)))
    if graph.is_bridge(pos):
        return _X * _tutte_by_key(_compact_key(graph.contract([edge_id])))
    return _tutte_by_key(_compact_key(graph.delete(edge_id))) + _tutte_by_key(
        _compact_key(graph.contract([edge_id]))
    )


def tutte(graph: MultiGraph) -> BivariatePolynomial:
    """Deletion-contraction Tutte polynomial: x*T(G/e) on bridges,
    y*T(G-e) on loops, T(G-e) + T(G/e) otherwise, T = 1 on edgeless graphs."""
    return _tutte_by_key(_compact_key(graph))


def orientation_sum_polynomial(
    table: CountTable,
    family: str,
    pairs: Sequence[tuple[Orientation, int]],
) -> BivariatePolynomial:
    """Polynomial of a family over (orientation, weight) pairs of the
    table's graph (for a definition-level family, its one orientation),
    sampled from ``CountTable.sampler`` and made once per kernel input: the
    table's store keeps it under the key the sampler returns."""
    key, sampler = table.sampler(family, pairs)
    made = table.store.polynomials.get(key)
    if made is None:
        made = table.store.polynomials[key] = _interpolate_family(family, sampler, table.graph)
    return made


def _interpolate_family(family: str, sampler, graph: MultiGraph) -> BivariatePolynomial:
    """Interpolate sampler(p, q) on the family's grid for the graph's rank
    and nullity, and verify its held-out points (see counting_polynomial)."""
    t_box, f_box, members = FAMILY_TABLE[family]
    # the spanning forest, which the kernel plans read, has rank edges
    rank, lo = len(spanning_structure(graph).forest_positions), lowest_argument(family)
    # a side the family does not count stays at lo
    xs = list(range(lo, lo + rank + 1)) if t_box else [lo]
    ys = list(range(lo, lo + graph.edge_count - rank + 1)) if f_box else [lo]
    held = [(xs[-1] + k if t_box else lo, ys[-1] + k if f_box else lo) for k in (1, 2)]
    poly = interpolate_checked(sampler, xs, ys, held)
    # the modular families (over a group, or over class representatives
    # weighted by 1) provably have integer coefficients
    modular = "group" in (t_box, f_box) or (isinstance(members, tuple) and members[0] == 1)
    if modular and not poly.has_integer_coefficients():
        raise InterpolationError(f"{family} interpolated to non-integer coefficients")
    return poly


def _polynomial(table: CountTable, family: str,
                orientation: Orientation | None = None) -> BivariatePolynomial:
    return orientation_sum_polynomial(table, family, table.sum_members(family, orientation))


def counting_polynomial(
    graph: MultiGraph,
    family: str,
    budget: int = DEFAULT_BUDGET,
    *,
    orientation: Orientation | None = None,
) -> BivariatePolynomial:
    """Interpolate a counting family into its polynomial.

    ``orientation`` follows ``count``: a per-orientation family needs it; a
    definition-level one counts on it, or on the reference orientation, and
    a class-sum family refuses it. Open/modular families sample
    {1..r+1} x {1..n+1}, closed-box families {0..r} x {0..n}; two held-out
    points per variable are verified after interpolation. One-variable
    families come back constant in the unused variable.
    """
    return _polynomial(CountTable(graph, budget), family, orientation)


#: The graph-level families, in the order the polys report computes them.
REPORT_FAMILIES = tuple(f for f, row in FAMILY_TABLE.items() if row[2] is not None)


class PolynomialReport(_Record):
    """Every graph-level polynomial of one graph."""

    __slots__ = ("tutte", "rank_generating", "families")

    def __init__(
        self,
        tutte: BivariatePolynomial,
        rank_generating: BivariatePolynomial,
        families: dict[str, BivariatePolynomial],
    ):
        object.__setattr__(self, "tutte", tutte)
        object.__setattr__(self, "rank_generating", rank_generating)
        object.__setattr__(self, "families", families)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.tutte, self.rank_generating, self.families) == (
                other.tutte, other.rank_generating, other.families)
        return NotImplemented

    def __hash__(self):
        return hash((self.tutte, self.rank_generating, self.families))

    def named(self) -> dict[str, BivariatePolynomial]:
        out = {"tutte": self.tutte, "rank_generating": self.rank_generating}
        out.update(self.families)
        return out


def polynomial_report(graph: MultiGraph, budget: int = DEFAULT_BUDGET) -> PolynomialReport:
    # the rank-generating polynomial and the orientation sums sweep 2^|E|
    # subsets: an oversized graph stops here, before any of them runs
    _check_sweep_budget(graph.edge_count, budget, "edge subsets")
    blocks = _block_restrictions(graph)
    if len(blocks) != 1:
        named = [polynomial_report(block, budget).named() for block in blocks]
        made = {name: prod((n[name] for n in named), start=_ONE)
                for name in ("tutte", "rank_generating", *REPORT_FAMILIES)}
        return PolynomialReport(made.pop("tutte"), made.pop("rank_generating"), made)
    # the orientation-sum families read one table and the same class
    # representatives, so kappa_bar_mod's box counts serve the other five
    table = CountTable(graph, budget)
    return PolynomialReport(
        tutte=tutte(graph),
        rank_generating=rank_generating(graph),
        families={f: _polynomial(table, f) for f in REPORT_FAMILIES},
    )

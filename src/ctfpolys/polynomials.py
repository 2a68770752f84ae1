"""Exact bivariate polynomials, interpolation of the counting families, and
the Tutte / rank-generating oracles."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping, Sequence

from .counting import (
    BAR_FAMILIES,
    CountQuery,
    CountTable,
    FAMILIES,
    LOCAL_FAMILIES,
    ORIENTATION_SUMS,
    _X_ONLY,
    _Y_ONLY,
    count,
    sum_members,
)
from .multigraph import MultiGraph, _UnionFind
from .orientations import DEFAULT_BUDGET, Orientation, _check_budget


class InterpolationError(ValueError):
    """Held-out verification failed: the sampled function is not a polynomial
    of the assumed per-variable degrees."""


class BivariatePolynomial:
    """Polynomial in x, y with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Fraction | int] | None = None):
        cleaned: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (coeffs or {}).items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c:
                cleaned[(int(i), int(j))] = c
        self._coeffs = cleaned

    @classmethod
    def constant(cls, value) -> "BivariatePolynomial":
        return cls({(0, 0): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "BivariatePolynomial":
        if name == "x":
            return cls({(1, 0): Fraction(1)})
        if name == "y":
            return cls({(0, 1): Fraction(1)})
        raise ValueError("variable must be 'x' or 'y'")

    @property
    def coefficients(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._coeffs)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._coeffs.get((i, j), Fraction(0))

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self._coeffs), default=0)

    @property
    def degree_y(self) -> int:
        return max((j for _, j in self._coeffs), default=0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self._coeffs.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BivariatePolynomial(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            other = BivariatePolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return BivariatePolynomial.constant(other) - self

    def __mul__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            return BivariatePolynomial(
                {k: c * Fraction(other) for k, c in self._coeffs.items()}
            )
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._coeffs.items():
            for (i2, j2), c2 in other._coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivariatePolynomial(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def evaluate(self, x, y) -> Fraction:
        # ints stay ints, so at integer points the powers need no Fraction step
        if not isinstance(x, int):
            x = Fraction(x)
        if not isinstance(y, int):
            y = Fraction(y)
        return sum(
            (c * (x**i * y**j) for (i, j), c in self._coeffs.items()),
            Fraction(0),
        )

    def substitute(self, x_scale=1, x_shift=0, y_scale=1, y_shift=0) -> "BivariatePolynomial":
        """P(x_scale*x + x_shift, y_scale*y + y_shift), expanded exactly."""
        xs, xa = Fraction(x_scale), Fraction(x_shift)
        ys, ya = Fraction(y_scale), Fraction(y_shift)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._coeffs.items():
            for k in range(i + 1):
                xc = comb(i, k) * xs**k * xa ** (i - k)
                if not xc:
                    continue
                for l in range(j + 1):
                    yc = comb(j, l) * ys**l * ya ** (j - l)
                    if not yc:
                        continue
                    key = (k, l)
                    out[key] = out.get(key, Fraction(0)) + c * xc * yc
        return BivariatePolynomial(out)

    def set_x(self, value) -> "BivariatePolynomial":
        """Partial evaluation x := value; result only involves y."""
        value = Fraction(value)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._coeffs.items():
            key = (0, j)
            out[key] = out.get(key, Fraction(0)) + c * value**i
        return BivariatePolynomial(out)

    def set_y(self, value) -> "BivariatePolynomial":
        value = Fraction(value)
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._coeffs.items():
            key = (i, 0)
            out[key] = out.get(key, Fraction(0)) + c * value**j
        return BivariatePolynomial(out)

    def __repr__(self):
        return f"BivariatePolynomial({self.to_text()!r})"

    def to_text(self) -> str:
        """Monomial sum ordered by total degree descending, then x-power
        descending: 'y^3+x^2+2*x*y+2*y^2+x+y' style."""
        if not self._coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self._coeffs, key=lambda ij: (-(ij[0] + ij[1]), -ij[0])):
            c = self._coeffs[(i, j)]
            factors = []
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = "+".join(parts)
        return text.replace("+-", "-")

    def to_json_dict(self) -> dict:
        """{"vars": ["x", "y"], "monomials": [[i, j, coeff-string], ...]}
        sorted by (i, j) descending; coefficients are decimal integer strings
        when integral and 'a/b' fraction strings otherwise."""
        monomials = []
        for (i, j) in sorted(self._coeffs, reverse=True):
            c = self._coeffs[(i, j)]
            text = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            monomials.append([i, j, text])
        return {"vars": ["x", "y"], "monomials": monomials}


@lru_cache(maxsize=128)
def _lagrange_basis(points: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient tuples (ascending powers) of the Lagrange basis through the
    given distinct integer nodes. Cached by node tuple: the sampling grids are
    a few short ranges, and every caller shares the immutable result."""
    basis = []
    for a in points:
        coeffs = [Fraction(1)]
        denom = Fraction(1)
        for b in points:
            if b == a:
                continue
            denom *= a - b
            # multiply by (t - b)
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k] -= c * b
                nxt[k + 1] += c
            coeffs = nxt
        basis.append(tuple(c / denom for c in coeffs))
    return tuple(basis)


def interpolate(
    values: Sequence[Sequence[int]],
    x_points: Sequence[int],
    y_points: Sequence[int],
) -> BivariatePolynomial:
    """Unique polynomial with per-variable degrees (len(x_points)-1,
    len(y_points)-1) through values[a][b] = P(x_points[a], y_points[b])."""
    if len(set(x_points)) != len(x_points) or len(set(y_points)) != len(y_points):
        raise ValueError("sample points must be distinct")
    if len(values) != len(x_points) or any(len(row) != len(y_points) for row in values):
        raise ValueError("grid shape mismatch")
    x_basis = _lagrange_basis(tuple(x_points))
    y_basis = _lagrange_basis(tuple(y_points))
    coeffs: dict[tuple[int, int], Fraction] = {}
    for a, row in enumerate(values):
        for b, value in enumerate(row):
            if not value:
                continue
            v = Fraction(value)
            for i, xc in enumerate(x_basis[a]):
                if not xc:
                    continue
                for j, yc in enumerate(y_basis[b]):
                    if not yc:
                        continue
                    key = (i, j)
                    coeffs[key] = coeffs.get(key, Fraction(0)) + v * xc * yc
    return BivariatePolynomial(coeffs)


def interpolate_checked(
    sampler,
    x_points: Sequence[int],
    y_points: Sequence[int],
    held_out: Sequence[tuple[int, int]],
) -> BivariatePolynomial:
    """Interpolate sampler(x, y) on the grid, then verify the held-out points;
    a mismatch signals a degree-bound violation."""
    grid = [[sampler(a, b) for b in y_points] for a in x_points]
    poly = interpolate(grid, x_points, y_points)
    for a, b in held_out:
        got = poly.evaluate(a, b)
        expected = sampler(a, b)
        if got != expected:
            raise InterpolationError(
                f"held-out point ({a}, {b}): polynomial gives {got}, count gives {expected}"
            )
    return poly


def rank_generating(graph: MultiGraph) -> BivariatePolynomial:
    """Subset expansion: sum over edge subsets X of
    x^(r(E)-r(X)) * y^(n(X))."""
    m = graph.edge_count
    full_rank = graph.stats().rank
    coeffs: dict[tuple[int, int], Fraction] = {}
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
        coeffs[key] = coeffs.get(key, Fraction(0)) + 1
    return BivariatePolynomial(coeffs)


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


#: Families whose polynomials provably carry integer coefficients.
INTEGER_COEFFICIENT_FAMILIES = frozenset(
    {"tau_mod", "phi_mod", "tau_bar_mod", "phi_bar_mod", "kappa_mod", "kappa_bar_mod"}
)


def orientation_sum_polynomial(
    table: CountTable,
    family: str,
    members: Sequence[Orientation],
    rank: int,
    nullity: int,
) -> BivariatePolynomial:
    """Polynomial of an orientation-sum family over the given members, read
    from the table: each member's tension counts are taken once per sampled
    p and its flow counts once per sampled q."""
    return _interpolate_family(
        family, lambda a, b: table.total(family, members, a, b), rank, nullity
    )


def _interpolate_family(family: str, sampler, rank: int, nullity: int) -> BivariatePolynomial:
    """Interpolate sampler(p, q) on the family's grid and verify its held-out
    points (see counting_polynomial)."""
    lo = 0 if family in BAR_FAMILIES else 1
    xs = list(range(lo, lo + rank + 1))
    ys = list(range(lo, lo + nullity + 1))
    held_x = [xs[-1] + 1, xs[-1] + 2]
    held_y = [ys[-1] + 1, ys[-1] + 2]
    if family in _X_ONLY:
        ys, held = [lo], [(h, lo) for h in held_x]
    elif family in _Y_ONLY:
        xs, held = [lo], [(lo, h) for h in held_y]
    else:
        held = list(zip(held_x, held_y))
    poly = interpolate_checked(sampler, xs, ys, held)
    if family in INTEGER_COEFFICIENT_FAMILIES and not poly.has_integer_coefficients():
        raise InterpolationError(f"{family} interpolated to non-integer coefficients")
    return poly


def _polynomial(
    graph: MultiGraph,
    family: str,
    orientation: Orientation | None,
    budget: int,
    table: CountTable | None = None,
) -> BivariatePolynomial:
    stats = graph.stats()
    if family in ORIENTATION_SUMS:
        members = sum_members(graph, family, orientation, budget)
        return orientation_sum_polynomial(
            table if table is not None else CountTable(budget),
            family, members, stats.rank, stats.nullity,
        )

    def sampler(a, b):
        return count(graph, CountQuery(family, p=a, q=b), budget)

    return _interpolate_family(family, sampler, stats.rank, stats.nullity)


def counting_polynomial(
    graph: MultiGraph,
    family: str,
    budget: int = DEFAULT_BUDGET,
) -> BivariatePolynomial:
    """Interpolate a graph-level counting family into its polynomial.

    Open/modular families sample {1..r+1} x {1..n+1}, closed-box families
    {0..r} x {0..n}; two held-out points per variable are verified after
    interpolation. One-variable families come back constant in the unused
    variable.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family in LOCAL_FAMILIES:
        raise ValueError(f"{family} needs an orientation; use local_polynomial")
    return _polynomial(graph, family, None, budget)


def local_polynomial(
    graph: MultiGraph,
    orientation: Orientation,
    family: str,
    budget: int = DEFAULT_BUDGET,
) -> BivariatePolynomial:
    """Polynomial of one of the per-orientation families."""
    if family not in LOCAL_FAMILIES:
        raise ValueError(f"{family} is not a per-orientation family")
    if orientation.graph != graph:
        raise ValueError("orientation belongs to a different graph")
    return _polynomial(graph, family, orientation, budget)


REPORT_FAMILIES = (
    "kappa_mod", "kappa_int", "kappa_bar_mod", "kappa_bar_int",
    "tau_mod", "tau_int", "tau_bar_mod", "tau_bar_int",
    "phi_mod", "phi_int", "phi_bar_mod", "phi_bar_int",
)


@dataclass(frozen=True)
class PolynomialReport:
    """Every graph-level polynomial of one graph."""

    tutte: BivariatePolynomial
    rank_generating: BivariatePolynomial
    families: dict[str, BivariatePolynomial]

    def named(self) -> dict[str, BivariatePolynomial]:
        out = {"tutte": self.tutte, "rank_generating": self.rank_generating}
        out.update(self.families)
        return out


def polynomial_report(graph: MultiGraph, budget: int = DEFAULT_BUDGET) -> PolynomialReport:
    # the rank-generating polynomial and the orientation sums sweep 2^|E|
    # subsets: an oversized graph stops here, before any of them runs
    _check_budget(1 << graph.edge_count, budget, "edge subsets")
    # the orientation-sum families read one table, so the box counts made for
    # kappa_bar_int and kappa_bar_mod serve the tau and phi families too
    table = CountTable(budget)
    return PolynomialReport(
        tutte=tutte(graph),
        rank_generating=rank_generating(graph),
        families={f: _polynomial(graph, f, None, budget, table) for f in REPORT_FAMILIES},
    )

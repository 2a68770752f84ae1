"""Orientations, the bond/circuit partition, and the cut / Eulerian /
cut-Eulerian equivalence relations."""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from .multigraph import MultiGraph, _Record, spanning_structure

RELATIONS = ("cut", "eulerian", "cut_eulerian")

#: Work items one call may create: the DP states of one counting-kernel call,
#: or the 2^|E| orientations or edge subsets of one sweep.
DEFAULT_BUDGET = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when one call would create more work items than its budget."""


def _check_budget(work: int, budget: int, items: str) -> None:
    if work > budget:
        raise BudgetExceededError(f"{work} {items} exceed the budget of {budget}")


def _check_sweep_budget(m: int, budget: int, items: str) -> None:
    """``_check_budget`` of the 2^m items of a sweep over m edges, decided
    by the budget's bit length before 2^m is built; from 2^64 on the count
    is written as a power, not in digits."""
    if m >= max(budget, 0).bit_length():
        work = 1 << m if m < 64 else f"2^{m}"
        raise BudgetExceededError(f"{work} {items} exceed the budget of {budget}")


class Orientation(_Record):
    """An orientation of a multigraph: one flip bit per edge, relative to the
    reference direction.

    Loops carry a bit too: a loop admits the two ordered incidence-sign pairs
    (+1, -1) and (-1, +1), and the orientation count 2^|E| is what the
    decomposition and census identities require (T(2,2) = 2 on the one-loop
    graph). Flipping a loop changes no tension or flow space, only which
    orientation a sign pattern belongs to.
    """

    __slots__ = ("graph", "flips")

    def __init__(self, graph: MultiGraph, flips: tuple[int, ...]):
        if not isinstance(flips, tuple):
            raise TypeError("flips must be a tuple of 0/1 bits")
        if len(flips) != graph.edge_count:
            raise ValueError("flip vector length must match edge count")
        # type() and not isinstance(): bool is an int subclass and is refused
        if not ({0, 1}.issuperset(flips) and {int}.issuperset(map(type, flips))):
            raise ValueError("flip bits must be 0 or 1")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "flips", flips)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.graph, self.flips) == (other.graph, other.flips)
        return NotImplemented

    def __hash__(self):
        return hash((self.graph, self.flips))

    @classmethod
    def reference(cls, graph: MultiGraph) -> "Orientation":
        return cls(graph, (0,) * graph.edge_count)

    @classmethod
    def from_string(cls, graph: MultiGraph, bits: str) -> "Orientation":
        return cls(graph, tuple(int(c) for c in bits))

    def flip_string(self) -> str:
        return "".join(map(str, self.flips))

    def arrow(self, position: int) -> tuple[int, int]:
        """(tail, head) of the edge at ``position``; loops give (v, v)."""
        u, v = self.graph.edges[position]
        if u != v and self.flips[position]:
            return (v, u)
        return (u, v)

    def arrows(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.arrow(p) for p in range(self.graph.edge_count))

    def with_flipped(self, positions: Sequence[int]) -> "Orientation":
        bits = list(self.flips)
        for p in positions:
            bits[p] ^= 1
        return Orientation(self.graph, tuple(bits))

    def reversed(self) -> "Orientation":
        return Orientation(self.graph, tuple(1 - b for b in self.flips))


class ClassPartition(_Record):
    """Equivalence classes of a set of orientations under one relation.

    Classes are ordered by their representative (the lexicographically
    smallest flip vector in the class); members inside a class are in lex
    order as well.
    """

    __slots__ = ("relation", "classes", "representatives")

    def __init__(
        self,
        relation: str,
        classes: tuple[tuple[Orientation, ...], ...],
        representatives: tuple[Orientation, ...],
    ):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "representatives", representatives)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.relation, self.classes, self.representatives) == (
                other.relation, other.classes, other.representatives)
        return NotImplemented

    def __hash__(self):
        return hash((self.relation, self.classes, self.representatives))


def _flip_signs(orientation: Orientation) -> tuple[int, ...]:
    """Per-position sign: -1 on flipped edges, +1 elsewhere."""
    return tuple(-1 if b else 1 for b in orientation.flips)


def boundary(orientation: Orientation, values: Sequence[int]) -> tuple[int, ...]:
    """Net outflow at every vertex; loops contribute +g(e)-g(e) = 0."""
    graph = orientation.graph
    if len(values) != graph.edge_count:
        raise ValueError("edge vector length mismatch")
    out = [0] * graph.vertex_count
    for pos in range(graph.edge_count):
        tail, head = orientation.arrow(pos)
        if tail == head:
            continue
        out[tail] += values[pos]
        out[head] -= values[pos]
    return tuple(out)


def is_flow(orientation: Orientation, values: Sequence[int], modulus: int = 0) -> bool:
    """True iff the boundary vanishes (exactly, or mod ``modulus``)."""
    for x in boundary(orientation, values):
        if (x % modulus if modulus else x) != 0:
            return False
    return True


def is_tension(orientation: Orientation, values: Sequence[int], modulus: int = 0) -> bool:
    """True iff the signed sum around every fundamental circuit vanishes
    (exactly, or mod ``modulus``); forces 0 on loops."""
    graph = orientation.graph
    if len(values) != graph.edge_count:
        raise ValueError("edge vector length mismatch")
    signs = _flip_signs(orientation)
    for e_pos, rest in spanning_structure(graph).circuit_table:
        total = signs[e_pos] * values[e_pos]
        for t_pos, ref_sign in rest:
            total += ref_sign * signs[t_pos] * values[t_pos]
        if (total % modulus if modulus else total) != 0:
            return False
    return True


def _flip_mask(orientation: Orientation) -> int:
    """The flips as one int, flips[pos] at bit m-1-pos: int order is lex order."""
    return int("0" + orientation.flip_string(), 2)


def _positions(m: int, mask: int) -> frozenset[int]:
    """The positions whose bits (position pos at bit m-1-pos) are set."""
    return frozenset(pos for pos in range(m) if mask >> (m - 1 - pos) & 1)


def _add_arc(reach: list[int], u: int, v: int) -> list[int]:
    """The reach sets (vertex bitsets, each holding its own vertex, closed
    under paths) after adding the arc u->v: every set that holds u, u's own
    among them, gains v's (incremental closure, Italiano, Theor. Comput. Sci.
    48, 1986). The sets are copied when they change, so a caller may keep
    the old ones."""
    row = reach[v]
    if reach[u] & row == row:
        return reach
    u_bit = 1 << u
    return [seen | row if seen & u_bit else seen for seen in reach]


def _ends(graph: MultiGraph) -> list[tuple[int, int, int]]:
    """(u, v, bit) per edge position: its reference tail and head (a loop
    gives u == v) and its bit in a flip mask (position pos at bit m-1-pos)."""
    m = graph.edge_count
    return [(u, v, 1 << (m - 1 - pos)) for pos, (u, v) in enumerate(graph.edges)]


def _circuit_of(reach: list[int], ends) -> int:
    """The circuit mask of an orientation whose arcs made ``reach``: arrow
    u->v lies on a directed circuit iff v reaches u, that is iff u and v
    reach the same vertices, whichever way the edge points (a loop always)."""
    circuit = 0
    for u, v, bit in ends:
        if reach[u] == reach[v]:
            circuit |= bit
    return circuit


def _sweep_circuits(graph: MultiGraph) -> list[int]:
    """Every orientation's circuit mask, indexed by flip mask, in one
    depth-first walk of the flip tree that adds one arc per level with
    ``_add_arc``. Reversing every arc keeps every directed circuit, so the
    first position stays unflipped and each leaf writes f and its reverse."""
    m, ends = graph.edge_count, _ends(graph)
    full, out = (1 << m) - 1, [0] * (1 << m)

    def visit(pos, f, reach):
        if pos == m:
            out[f] = out[f ^ full] = _circuit_of(reach, ends)
            return
        u, v, bit = ends[pos]
        visit(pos + 1, f, _add_arc(reach, u, v))
        if pos:
            visit(pos + 1, f | bit, _add_arc(reach, v, u))

    visit(0, 0, [1 << x for x in range(graph.vertex_count)])
    return out


def _circuit_part(orientation: Orientation) -> frozenset[int]:
    """Positions of the circuit-part edges, by adding the orientation's arcs
    one at a time as ``_sweep_circuits`` does along one branch."""
    graph = orientation.graph
    reach = [1 << x for x in range(graph.vertex_count)]
    for u, v in orientation.arrows():
        reach = _add_arc(reach, u, v)
    return _positions(graph.edge_count, _circuit_of(reach, _ends(graph)))


def equivalent(first: Orientation, second: Orientation, relation: str) -> bool:
    """Test cut / Eulerian / cut-Eulerian equivalence of two orientations.

    The disagreement set is a locally directed cut iff its 0-1 indicator is a
    tension, and a directed Eulerian subgraph iff the indicator is a flow;
    the cut-Eulerian test splits the indicator along the bond/circuit
    partition of ``first``.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    if first.graph is not second.graph and first.graph != second.graph:
        raise ValueError("orientations live on different graphs")
    ind = tuple(a ^ b for a, b in zip(first.flips, second.flips))
    if relation == "cut":
        return is_tension(first, ind, 0)
    if relation == "eulerian":
        return is_flow(first, ind, 0)
    circuit = _circuit_part(first)
    bond_vec = tuple(0 if p in circuit else ind[p] for p in range(len(ind)))
    circ_vec = tuple(ind[p] if p in circuit else 0 for p in range(len(ind)))
    return is_tension(first, bond_vec, 0) and is_flow(first, circ_vec, 0)


def induced_orientation(orientation: Orientation, minor: MultiGraph) -> Orientation:
    """Carry an orientation onto a minor through the shared edge labels."""
    graph = orientation.graph
    flip_by_id = {
        graph.edge_ids[p]: orientation.flips[p] for p in range(graph.edge_count)
    }
    return Orientation(minor, tuple(flip_by_id[i] for i in minor.edge_ids))


def _linear_form(weights: Sequence[int]):
    """f -> the sum of ``weights[pos]`` over the positions pos set in the flip
    mask f, read from two tables: one over the low half of the bits, one over
    the high half."""
    low, high, half = [0], [0], len(weights) // 2
    for k, w in enumerate(reversed(weights)):  # bit k is position m-1-k
        table = low if k < half else high
        table += [x + w for x in table]
    return lambda f: high[f >> half] + low[f & (1 << half) - 1]


def _class_key(graph: MultiGraph, relation: str, circuits):
    """The class key under ``relation`` as a function of the flip mask f;
    cut-Eulerian reads the circuit mask from ``circuits``, indexed by f.

    With s the +-1 flip signs, two orientations' disagreement indicator has
    s1 * ind = (s1 - s2) / 2, so each linear test ``equivalent`` makes on it
    compares a linear form of s1 with the same form of s2. Each key packs
    such forms into one integer linear form of the flip bits, one digit per
    form in balanced base B = 2m+3: every digit lies in [-m, m], two keys'
    digits differ by at most 2m < B, so distinct digit vectors give distinct
    ints. Up to constants, which equal keys share:

    * Eulerian: the out-degrees over non-loop edges, a constant plus the sum
      of f_e * (B^head - B^tail) over the reference arcs, which reversing the
      disagreement set keeps exactly when ind is a flow.
    * cut: the signed flip count around every fundamental circuit (a loop is
      its own), the sum of f_e * ref_sign * B^circuit over the positions it
      crosses: equal exactly when ind is a tension, as the sum of
      ref_sign * s is the sum of ref_sign minus twice it.
    * cut-Eulerian: the circuit mask C, which equivalent orientations share;
      the cut form of f & ~C (ind is a tension on the bond part) and the
      out-degree form of f & C (ind is a flow on the circuit part), whose
      constant, the tails of C, C already fixes.
    """
    base, weights = 2 * graph.edge_count + 3, [0] * graph.edge_count
    for k, (e, rest) in enumerate(spanning_structure(graph).circuit_table):
        for t, sign in ((e, 1),) + rest:
            weights[t] += sign * base**k
    cut, out = _linear_form(weights), _linear_form([base**v - base**u for u, v in graph.edges])
    if relation != "cut_eulerian":
        return cut if relation == "cut" else out
    return lambda f: (circuit := circuits[f], cut(f & ~circuit), out(f & circuit))


class OrientationTable:
    """The orientations of one graph, their circuit parts, the acyclic and
    totally cyclic sets, the classes and the self-reverse sets. Sweeps run
    over flip masks (``_flip_mask``): the table keeps one circuit mask per
    orientation, found for all of them by one depth-first ``_sweep_circuits``,
    and the classes as lists of masks grouped by linear keys
    (``_class_key``), and builds an Orientation only for a mask that is read.
    A table that serves one orientation lists none, and the cut and Eulerian
    classes find no circuit part."""

    def __init__(self, graph: MultiGraph, budget: int = DEFAULT_BUDGET):
        self.graph = graph
        self.budget = budget
        self._built: dict[int, Orientation] = {}
        self._classes: dict[tuple[str, str], list[list[int]]] = {}
        self._self_reverse: dict[str, frozenset[Orientation]] = {}

    def orientation(self, flips: int) -> Orientation:
        """The orientation with flip mask ``flips``, built once per table."""
        if flips not in self._built:
            m = self.graph.edge_count
            bits = tuple([flips >> (m - 1 - pos) & 1 for pos in range(m)])
            self._built[flips] = Orientation(self.graph, bits)
        return self._built[flips]

    @cached_property
    def orientations(self) -> tuple[Orientation, ...]:
        """All orientations: the one with flip mask f is at index f."""
        return self.members("all")

    @cached_property
    def _circuit_masks(self) -> list[int]:
        """Every orientation's circuit mask, indexed by flip mask."""
        _check_sweep_budget(self.graph.edge_count, self.budget, "orientations")
        return _sweep_circuits(self.graph)

    def circuit(self, orientation: Orientation) -> frozenset[int]:
        """The positions of the orientation's circuit part, built from its
        mask; until a sweep has found every mask, its mask alone is found."""
        if orientation.graph is not self.graph and orientation.graph != self.graph:
            raise ValueError("orientation belongs to a different graph")
        if "_circuit_masks" not in self.__dict__:
            return _circuit_part(orientation)
        return _positions(self.graph.edge_count, self._circuit_masks[_flip_mask(orientation)])

    def _flip_masks(self, filter: str):
        """The flip masks of ``members(filter)`` in lex order, budget checked."""
        if filter == "all":
            _check_sweep_budget(self.graph.edge_count, self.budget, "orientations")
            return range(1 << self.graph.edge_count)
        if filter not in ("acyclic", "totally_cyclic"):
            raise ValueError(f"unknown filter {filter!r}")
        want = 0 if filter == "acyclic" else (1 << self.graph.edge_count) - 1
        return [f for f, circuit in enumerate(self._circuit_masks) if circuit == want]

    def members(self, filter: str) -> tuple[Orientation, ...]:
        """The orientation set "all", "acyclic" (empty circuit part) or
        "totally_cyclic" (empty bond part), in lex order."""
        return tuple(map(self.orientation, self._flip_masks(filter)))

    def _key(self, relation: str):
        """``_class_key`` under a known relation; cut-Eulerian reads the sweep."""
        circuits = self._circuit_masks if relation == "cut_eulerian" else None
        return _class_key(self.graph, relation, circuits)

    def self_reverse(self, relation: str) -> frozenset[Orientation]:
        """The orientations whose reverse, which disagrees on every edge, is
        equivalent to them under ``relation``: the flip masks f whose class
        key (``_class_key``) f's complement shares. The keys are exact, and
        reversal keeps the circuit mask."""
        if relation not in self._self_reverse:
            if relation not in RELATIONS:
                raise ValueError(f"unknown relation {relation!r}")
            key, full = self._key(relation), (1 << self.graph.edge_count) - 1
            self._self_reverse[relation] = frozenset(
                self.orientation(f) for f in self._flip_masks("all") if key(f) == key(f ^ full)
            )
        return self._self_reverse[relation]

    def mask_classes(self, relation: str, filter: str = "all") -> list[list[int]]:
        """The classes of ``members(filter)`` under ``relation`` as lists of
        flip masks, grouped by ``_class_key`` in one pass each. The pass runs
        over the masks in lex order, so classes are ordered by their
        lex-smallest member and list their members in lex order, with no sort."""
        if (relation, filter) not in self._classes:
            if relation not in RELATIONS:
                raise ValueError(f"unknown relation {relation!r}")
            masks, key = self._flip_masks(filter), self._key(relation)
            grouped: dict[object, list[int]] = {}
            for f in masks:
                grouped.setdefault(key(f), []).append(f)
            self._classes[relation, filter] = list(grouped.values())
        return self._classes[relation, filter]

    def classes(self, relation: str, filter: str = "all") -> ClassPartition:
        """``mask_classes`` as orientations, each class's first member its
        representative."""
        parts = tuple(tuple(map(self.orientation, c)) for c in self.mask_classes(relation, filter))
        return ClassPartition(relation, parts, tuple(cls[0] for cls in parts))


"""Orientations, the bond/circuit partition, and the cut / Eulerian /
cut-Eulerian equivalence relations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Sequence

from .multigraph import MultiGraph, spanning_structure

RELATIONS = ("cut", "eulerian", "cut_eulerian")

#: Work items one call may create: the DP states of one counting-kernel call,
#: or the 2^|E| orientations or edge subsets of one sweep.
DEFAULT_BUDGET = 1 << 20


class BudgetExceededError(RuntimeError):
    """Raised when one call would create more work items than its budget."""


def _check_budget(work: int, budget: int, items: str) -> None:
    if work > budget:
        raise BudgetExceededError(f"{work} {items} exceed the budget of {budget}")


@dataclass(frozen=True)
class Orientation:
    """An orientation of a multigraph: one flip bit per edge, relative to the
    reference direction.

    Loops carry a bit too: a loop admits the two ordered incidence-sign pairs
    (+1, -1) and (-1, +1), and the orientation count 2^|E| is what the
    decomposition and census identities require (T(2,2) = 2 on the one-loop
    graph). Flipping a loop changes no tension or flow space, only which
    orientation a sign pattern belongs to.
    """

    graph: MultiGraph
    flips: tuple[int, ...]

    def __post_init__(self):
        if len(self.flips) != self.graph.edge_count:
            raise ValueError("flip vector length must match edge count")
        if any(b not in (0, 1) for b in self.flips):
            raise ValueError("flip bits must be 0 or 1")

    @classmethod
    def reference(cls, graph: MultiGraph) -> "Orientation":
        return cls(graph, (0,) * graph.edge_count)

    @classmethod
    def from_string(cls, graph: MultiGraph, bits: str) -> "Orientation":
        return cls(graph, tuple(int(c) for c in bits))

    def flip_string(self) -> str:
        return "".join(str(b) for b in self.flips)

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


@dataclass(frozen=True)
class MintyPartition:
    """Edge labels split into the directed-bond part and directed-circuit
    part; the two sets always partition the edge set."""

    bond_part: frozenset[int]
    circuit_part: frozenset[int]


@dataclass(frozen=True)
class OrientationClassification:
    is_acyclic: bool
    is_totally_cyclic: bool
    partition: MintyPartition


@dataclass(frozen=True)
class ClassPartition:
    """Equivalence classes of a set of orientations under one relation.

    Classes are ordered by their representative (the lexicographically
    smallest flip vector in the class); members inside a class are in lex
    order as well.
    """

    relation: str
    classes: tuple[tuple[Orientation, ...], ...]
    representatives: tuple[Orientation, ...]


def _flip_signs(orientation: Orientation) -> tuple[int, ...]:
    """Per-position sign: -1 on flipped edges, +1 elsewhere."""
    return tuple(-1 if b else 1 for b in orientation.flips)


def incidence_sign(orientation: Orientation, vertex: int, position: int):
    """+1 if the arrow leaves ``vertex``, -1 if it enters, 0 if not incident;
    a loop at the vertex reports the pair (+1, -1)."""
    u, v = orientation.graph.edges[position]
    if u == v:
        return (1, -1) if vertex == u else 0
    tail, head = orientation.arrow(position)
    if vertex == tail:
        return 1
    if vertex == head:
        return -1
    return 0


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


def _strong_components(orientation: Orientation) -> list[int]:
    """Iterative Tarjan; returns a component id per vertex."""
    graph = orientation.graph
    succ: dict[int, list[int]] = {v: [] for v in range(graph.vertex_count)}
    for (u, v), flip in zip(graph.edges, orientation.flips):
        if u != v:  # a loop joins no two vertices
            tail, head = (v, u) if flip else (u, v)
            succ[tail].append(head)

    index = [-1] * graph.vertex_count
    low = [0] * graph.vertex_count
    on_stack = [False] * graph.vertex_count
    comp = [-1] * graph.vertex_count
    stack: list[int] = []
    counter = 0
    ncomp = 0
    for root in range(graph.vertex_count):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] < 0:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            work.pop()
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp


def _circuit_part(orientation: Orientation) -> frozenset[int]:
    """Positions of the circuit-part edges: loops and the edges inside a
    strongly connected component. It is recomputed on each call, so no
    sweep over the orientations of a graph or its minors is kept."""
    graph = orientation.graph
    comp = _strong_components(orientation)
    return frozenset(
        pos
        for pos, (u, v) in enumerate(graph.edges)
        if u == v or comp[u] == comp[v]
    )


def minty_partition(orientation: Orientation) -> MintyPartition:
    """Split the edges into the directed-bond part and the directed-circuit
    part. A non-loop edge lies on a directed circuit iff its endpoints share
    a strongly connected component; loops always do."""
    circuit = _circuit_part(orientation)
    ids = orientation.graph.edge_ids
    return MintyPartition(
        frozenset(i for pos, i in enumerate(ids) if pos not in circuit),
        frozenset(ids[pos] for pos in circuit),
    )


def classify(orientation: Orientation) -> OrientationClassification:
    part = minty_partition(orientation)
    return OrientationClassification(
        is_acyclic=not part.circuit_part,
        is_totally_cyclic=not part.bond_part,
        partition=part,
    )


def coupling(first: Orientation, second: Orientation) -> tuple[int, ...]:
    """+1 where the orientations agree, -1 where they differ; loops agree."""
    if first.graph is not second.graph and first.graph != second.graph:
        raise ValueError("orientations live on different graphs")
    a, b = _flip_signs(first), _flip_signs(second)
    return tuple(x * y for x, y in zip(a, b))


def indicator(first: Orientation, second: Orientation) -> tuple[int, ...]:
    """0-1 disagreement vector: (1 - coupling) / 2 per edge."""
    return tuple((1 - c) // 2 for c in coupling(first, second))


def equivalent(first: Orientation, second: Orientation, relation: str) -> bool:
    """Test cut / Eulerian / cut-Eulerian equivalence of two orientations.

    The disagreement set is a locally directed cut iff its 0-1 indicator is a
    tension, and a directed Eulerian subgraph iff the indicator is a flow;
    the cut-Eulerian test splits the indicator along the bond/circuit
    partition of ``first``.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    ind = indicator(first, second)
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


def enumerate_orientations(graph: MultiGraph, budget: int = DEFAULT_BUDGET) -> Iterator[Orientation]:
    """All 2^|E| orientations in lexicographic flip order; more than
    ``budget`` of them raise BudgetExceededError before the first."""
    k = graph.edge_count
    _check_budget(1 << k, budget, "orientations")
    for bits in product((0, 1), repeat=k):
        yield Orientation(graph, bits)


def _class_key(graph: MultiGraph, relation: str):
    """The key of an orientation's class under ``relation``, as a function of
    the orientation and its circuit part (read only by cut-Eulerian); see
    ``enumerate_classes``."""
    circuits = tuple(
        ((e_pos, 1),) + rest for e_pos, rest in spanning_structure(graph).circuit_table
    )
    nonloop = tuple((pos, (u, v)) for pos, (u, v) in enumerate(graph.edges) if u != v)

    def circuit_sums(flips, skip=frozenset()):
        # the signed count of flipped positions: the sum of ref_sign * s over
        # the same positions is their sum of ref_sign minus twice this count
        return tuple(
            sum(ref for t, ref in circ if flips[t] and t not in skip) for circ in circuits
        )

    def out_degrees(flips, only=None):
        out = [0] * graph.vertex_count
        for pos, (u, v) in nonloop:
            if only is None or pos in only:
                out[v if flips[pos] else u] += 1
        return tuple(out)

    def key(orientation: Orientation, circuit: frozenset[int] | None):
        flips = orientation.flips
        if relation == "cut":
            return circuit_sums(flips)
        if relation == "eulerian":
            return out_degrees(flips)
        return (circuit, circuit_sums(flips, circuit), out_degrees(flips, circuit))

    return key


class OrientationTable:
    """The orientations of one graph in lex order, their circuit parts, the
    acyclic and totally cyclic sets, the class partitions and the
    self-reverse sets, each built on first read and kept for the table's
    life. A table that serves one orientation lists none, and the cut and
    Eulerian partitions find no circuit part."""

    def __init__(self, graph: MultiGraph, budget: int = DEFAULT_BUDGET):
        self.graph = graph
        self.budget = budget
        self._circuits: dict[tuple[int, ...], frozenset[int]] = {}  # by flips
        self._members: dict[str, tuple[Orientation, ...]] = {}
        self._classes: dict[tuple[str, str], ClassPartition] = {}
        self._self_reverse: dict[str, frozenset[Orientation]] = {}

    @cached_property
    def orientations(self) -> tuple[Orientation, ...]:
        """All orientations, as ``enumerate_orientations`` lists them."""
        return tuple(enumerate_orientations(self.graph, self.budget))

    def circuit(self, orientation: Orientation) -> frozenset[int]:
        """The positions of the orientation's circuit part."""
        found = self._circuits.get(orientation.flips)
        if found is None:
            found = self._circuits[orientation.flips] = _circuit_part(orientation)
        return found

    def members(self, filter: str) -> tuple[Orientation, ...]:
        """The orientation set "all", "acyclic" (empty circuit part) or
        "totally_cyclic" (empty bond part), in lex order."""
        if filter == "all":
            return self.orientations
        if filter not in self._members:
            if filter not in ("acyclic", "totally_cyclic"):
                raise ValueError(f"unknown filter {filter!r}")
            size = 0 if filter == "acyclic" else self.graph.edge_count
            self._members[filter] = tuple(
                o for o in self.orientations if len(self.circuit(o)) == size
            )
        return self._members[filter]

    def self_reverse(self, relation: str) -> frozenset[Orientation]:
        """The orientations that are cut, Eulerian or cut-Eulerian: those
        whose reverse is equivalent to them under ``relation``, decided by
        ``equivalent`` and not by the class keys."""
        if relation not in self._self_reverse:
            self._self_reverse[relation] = frozenset(
                o for o in self.orientations if equivalent(o, o.reversed(), relation)
            )
        return self._self_reverse[relation]

    def classes(self, relation: str, filter: str = "all") -> ClassPartition:
        """The classes of ``members(filter)`` under ``relation``; see
        ``enumerate_classes``."""
        if (relation, filter) not in self._classes:
            if relation not in RELATIONS:
                raise ValueError(f"unknown relation {relation!r}")
            key = _class_key(self.graph, relation)
            grouped: dict[object, list[Orientation]] = {}
            for o in self.members(filter):
                circuit = self.circuit(o) if relation == "cut_eulerian" else None
                grouped.setdefault(key(o, circuit), []).append(o)
            classes = tuple(tuple(cls) for cls in grouped.values())
            self._classes[relation, filter] = ClassPartition(
                relation, classes, tuple(cls[0] for cls in classes)
            )
        return self._classes[relation, filter]


def enumerate_classes(
    graph: MultiGraph,
    relation: str,
    filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> ClassPartition:
    """Partition the (optionally filtered) orientation set into equivalence
    classes, in one pass that groups the orientations by a key.

    With s the +-1 flip signs, two orientations' disagreement indicator has
    s1 * ind = (s1 - s2) / 2, so each linear test ``equivalent`` makes on it
    compares a linear form of s1 with the same form of s2. The keys:

    * Eulerian: every vertex's out-degree over non-loop edges, which
      reversing the disagreement set keeps exactly when ind is a flow.
    * cut: the sum of ref_sign * s around every fundamental circuit (a loop
      is its own), equal exactly when ind is a tension.
    * cut-Eulerian: the circuit part, which equivalent orientations share;
      the circuit sums over the bond part (ind is a tension there) and the
      out-degrees over the circuit part (ind is a flow there).

    Orientations are visited in lex order, so classes are ordered by their
    lex-smallest member and list their members in lex order.
    """
    return OrientationTable(graph, budget).classes(relation, filter)

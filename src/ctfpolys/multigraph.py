"""Multigraphs with stable edge labels, minors, and spanning-forest data."""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Iterable, Sequence


class GraphFormatError(ValueError):
    """Raised for malformed graph text input."""


class _Record:
    """Base of the package's immutable records.

    A record names its fields in ``__slots__``, in constructor order, sets
    them in ``__init__`` with ``object.__setattr__`` and defines ``==`` (only
    between instances of its own class) and ``hash`` over them. Spelled out
    per class, these read the fields with plain attribute loads, which cost
    what generated methods do; a loop over ``__slots__`` costs more. The base
    refuses assignment and deletion, prints a record as its keyword
    constructor call and pickles it through the constructor.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class GraphStats(_Record):
    __slots__ = ("components", "rank", "nullity")

    def __init__(self, components: int, rank: int, nullity: int):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "nullity", nullity)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.components, self.rank, self.nullity) == (
                other.components, other.rank, other.nullity)
        return NotImplemented

    def __hash__(self):
        return hash((self.components, self.rank, self.nullity))


class ForestData(_Record):
    """A spanning forest plus the fundamental circuit of every non-forest edge,
    by edge position.

    The forest is a breadth-first one: each component grows from a vertex of
    highest degree (loops not counted, ties going to the lowest vertex), and
    a vertex joins through the first edge position that reaches it. Its
    fundamental circuits are short, so few free values share a circuit.

    ``forest_positions`` ascending; ``circuit_table``, (e, ((t, sign), ...))
    per non-forest position e, its circuit without e itself: the circuit is
    traversed along e's reference direction, and the sign of forest position
    t is +1 exactly when the traversal crosses it along its reference
    direction (a loop's circuit is the loop alone); ``flow_table``, (t, ((e,
    sign), ...)) per forest position t, the circuits through t; ``blocks``,
    per position the first position of its block, a component of the cycle
    matroid (a 2-connected piece, a bridge or a loop), which the fundamental
    circuits join.

    ``tension_order`` and ``flow_order`` are the orders in which the counting
    kernel assigns a tension's free values (the forest positions) and a
    flow's (the other positions): greedily the one that leaves the fewest
    dependent sums open (some but not all of their free values assigned),
    ties going to the one that closes the most sums, then to the lowest
    position. The kernel keeps one partial sum per open sum, so its state
    stays narrow whatever the edge order of the graph file.
    """

    __slots__ = (
        "forest_positions", "circuit_table", "flow_table", "blocks", "tension_order",
        "flow_order",
    )

    def __init__(
        self,
        forest_positions: tuple[int, ...],
        circuit_table: tuple[tuple[int, tuple[tuple[int, int], ...]], ...],
        flow_table: tuple[tuple[int, tuple[tuple[int, int], ...]], ...],
        blocks: tuple[int, ...],
        tension_order: tuple[int, ...],
        flow_order: tuple[int, ...],
    ):
        object.__setattr__(self, "forest_positions", forest_positions)
        object.__setattr__(self, "circuit_table", circuit_table)
        object.__setattr__(self, "flow_table", flow_table)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "tension_order", tension_order)
        object.__setattr__(self, "flow_order", flow_order)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.forest_positions, self.circuit_table, self.flow_table, self.blocks,
                self.tension_order, self.flow_order,
            ) == (
                other.forest_positions, other.circuit_table, other.flow_table, other.blocks,
                other.tension_order, other.flow_order,
            )
        return NotImplemented

    def __hash__(self):
        return hash((
            self.forest_positions, self.circuit_table, self.flow_table, self.blocks,
            self.tension_order, self.flow_order,
        ))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # smallest index wins so representatives are deterministic
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


class MultiGraph(_Record):
    """Vertices 0..vertex_count-1 plus an ordered tuple of (tail, head) edges.

    Loops and parallel edges are allowed; the pair order of an edge is its
    reference direction. Every edge carries a stable integer label: fresh
    graphs label edges by position, and restriction/contraction keep the
    surviving labels, so edge vectors and orientations transfer between a
    graph and its minors without translation tables.
    """

    __slots__ = ("vertex_count", "edges", "edge_ids")

    def __init__(
        self, vertex_count: int, edges: tuple[tuple[int, int], ...], edge_ids: tuple[int, ...]
    ):
        # type() and not isinstance(): bool is an int subclass and is refused
        if type(vertex_count) is not int:
            raise ValueError(f"vertex_count must be an int, not {vertex_count!r}")
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge endpoints must be ints, not ({u!r}, {v!r})")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if len(edge_ids) != len(edges):
            raise ValueError("edge_ids and edges must have equal length")
        if len(set(edge_ids)) != len(edge_ids):
            raise ValueError("edge labels must be distinct")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "edge_ids", edge_ids)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertex_count, self.edges, self.edge_ids) == (
                other.vertex_count, other.edges, other.edge_ids)
        return NotImplemented

    def __hash__(self):
        return hash((self.vertex_count, self.edges, self.edge_ids))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_loop(self, position: int) -> bool:
        u, v = self.edges[position]
        return u == v

    def _check_ids(self, ids: Iterable[int]) -> frozenset[int]:
        ids = frozenset(ids)
        unknown = ids - set(self.edge_ids)
        if unknown:
            raise KeyError(f"unknown edge labels {sorted(unknown)}")
        return ids

    def stats(self) -> GraphStats:
        uf = _UnionFind(self.vertex_count)
        for u, v in self.edges:
            uf.union(u, v)
        components = len({uf.find(v) for v in range(self.vertex_count)})
        rank = self.vertex_count - components
        return GraphStats(components, rank, len(self.edges) - rank)

    def restrict(self, ids: Iterable[int]) -> "MultiGraph":
        """Subgraph on the same vertex set keeping only the labelled edges."""
        keep = self._check_ids(ids)
        kept = [(e, i) for e, i in zip(self.edges, self.edge_ids) if i in keep]
        return MultiGraph(
            self.vertex_count,
            tuple(e for e, _ in kept),
            tuple(i for _, i in kept),
        )

    def contract(self, ids: Iterable[int]) -> "MultiGraph":
        """Contract the labelled edges; surviving edges keep their labels.

        Vertices joined by contracted edges merge into one vertex; merged
        classes are renumbered 0..k-1 in order of their smallest member. An
        edge whose endpoints merge becomes a loop.
        """
        gone = self._check_ids(ids)
        uf = _UnionFind(self.vertex_count)
        for (u, v), i in zip(self.edges, self.edge_ids):
            if i in gone:
                uf.union(u, v)
        reps = sorted({uf.find(v) for v in range(self.vertex_count)})
        relabel = {rep: k for k, rep in enumerate(reps)}
        kept = [
            ((relabel[uf.find(u)], relabel[uf.find(v)]), i)
            for (u, v), i in zip(self.edges, self.edge_ids)
            if i not in gone
        ]
        return MultiGraph(
            len(reps),
            tuple(e for e, _ in kept),
            tuple(i for _, i in kept),
        )

    def delete(self, edge_id: int) -> "MultiGraph":
        self._check_ids([edge_id])
        return self.restrict(set(self.edge_ids) - {edge_id})

    def is_bridge(self, position: int) -> bool:
        u, v = self.edges[position]
        if u == v:
            return False
        uf = _UnionFind(self.vertex_count)
        for j, (a, b) in enumerate(self.edges):
            if j != position:
                uf.union(a, b)
        return uf.find(u) != uf.find(v)


def build_graph(vertex_count: int, edge_pairs: Sequence[tuple[int, int]]) -> MultiGraph:
    """Build a fresh multigraph; edge labels are positions, pair order is the
    reference direction. Endpoints may be any integer type (``operator.index``
    converts them); anything else raises ValueError."""
    try:
        edges = tuple((index(u), index(v)) for u, v in edge_pairs)
    except TypeError as exc:
        raise ValueError(f"bad edge endpoints: {exc}") from None
    return MultiGraph(vertex_count, edges, tuple(range(len(edge_pairs))))


def _assignment_order(free: Sequence[int], sums) -> tuple[int, ...]:
    """``free`` in the greedy order of ForestData's ``tension_order`` and
    ``flow_order``; ``sums`` are the sets of free positions of the sums."""
    left = [len(members) for members in sums]  # per sum, values not yet assigned
    containing = {x: [k for k, members in enumerate(sums) if x in members] for x in free}

    def cost(x):
        # (sums left open, minus sums closed, position) once x is assigned
        opened = closed = 0
        for k in containing[x]:
            if left[k] == 1:
                closed += 1
                opened -= left[k] < len(sums[k])
            else:
                opened += left[k] == len(sums[k])
        return opened, -closed, x

    order, todo = [], set(free)
    while todo:
        x = min(todo, key=cost)
        todo.remove(x)
        order.append(x)
        for k in containing[x]:
            left[k] -= 1
    return tuple(order)


@lru_cache(maxsize=None)
def spanning_structure(graph: MultiGraph) -> ForestData:
    """The BFS spanning forest, the fundamental circuits of the remaining
    edges and the kernel's assignment orders, built once per graph; see
    ForestData."""
    n = graph.vertex_count
    incident: list[list[int]] = [[] for _ in range(n)]
    for pos, (u, v) in enumerate(graph.edges):
        if u != v:
            incident[u].append(pos)
            incident[v].append(pos)

    # per vertex: (parent edge position, parent, depth); roots have no edge
    tree: dict[int, tuple[int, int, int]] = {}
    for root in sorted(range(n), key=lambda v: (-len(incident[v]), v)):
        if root in tree:
            continue
        tree[root] = (-1, -1, 0)
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for pos in incident[x]:
                    u, v = graph.edges[pos]
                    y = v if u == x else u
                    if y not in tree:
                        tree[y] = (pos, x, tree[x][2] + 1)
                        nxt.append(y)
            frontier = nxt
    forest_pos = sorted(pos for pos, _, _ in tree.values() if pos >= 0)

    def forest_path(start: int, goal: int) -> list[tuple[int, int]]:
        # [(pos, sign)] for the tree walk start -> goal; sign +1 where the
        # walk crosses the edge from its tail to its head
        up, down = [], []
        while start != goal:
            if tree[start][2] >= tree[goal][2]:
                pos, start_parent, _ = tree[start]
                up.append((pos, 1 if graph.edges[pos][0] == start else -1))
                start = start_parent
            else:
                pos, goal_parent, _ = tree[goal]
                down.append((pos, 1 if graph.edges[pos][1] == goal else -1))
                goal = goal_parent
        return up + down[::-1]

    forest_set = set(forest_pos)
    table = tuple(
        (pos, tuple(forest_path(v, u)))
        for pos, (u, v) in enumerate(graph.edges)
        if pos not in forest_set
    )
    through: dict[int, list[tuple[int, int]]] = {t: [] for t in forest_pos}
    blocks = _UnionFind(graph.edge_count)  # the smallest position is the root
    for e_pos, rest in table:
        for t_pos, sign in rest:
            through[t_pos].append((e_pos, sign))
            blocks.union(e_pos, t_pos)

    return ForestData(
        forest_positions=tuple(forest_pos),
        circuit_table=table,
        flow_table=tuple((t, tuple(through[t])) for t in forest_pos),
        blocks=tuple(blocks.find(pos) for pos in range(graph.edge_count)),
        tension_order=_assignment_order(
            forest_pos, [{t for t, _ in rest} for _, rest in table if rest]
        ),
        flow_order=_assignment_order(
            [e for e, _ in table], [{e for e, _ in through[t]} for t in forest_pos if through[t]]
        ),
    )


def canonical_form(vertex_count: int, arcs: Sequence[tuple[int, int]], directed: bool = True):
    """The sorted arcs of the multigraph on vertices 0..vertex_count-1 with
    the (tail, head) ``arcs`` (loops and parallel arcs allowed) under a
    canonical labelling: equal exactly for isomorphic graphs, as digraphs
    when ``directed``, else with each arc read as an edge (u <= v). Colour
    refinement plus individualisation (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symb. Comput. 60, 2014); a leaf labels the vertices
    by colour, the least sorted arcs over the leaves are the form, and two
    leaves with equal arcs give an automorphism, which prunes the search."""
    n, width = vertex_count, (2 * len(arcs)).bit_length()  # a multiplicity fits in width bits

    def refine(keys):
        # colours 0, 1, ... in key order until stable; a vertex's next key packs its
        # colour c0 and out- and in-neighbour colours c, c' as 2^(2*width*n)*c0 +
        # sum 2^(width*c) + sum 2^(width*(n+c'))
        cells = None
        while True:
            rank = {key: k for k, key in enumerate(sorted(set(keys)))}
            if len(rank) == cells:
                return colours
            colours, cells = [rank[key] for key in keys], len(rank)
            if cells == n:
                return colours
            heads = [1 << width * c for c in colours]
            tails = [1 << width * (n + c) for c in colours] if directed else heads
            keys = [c << 2 * width * n for c in colours]
            for u, v in arcs:
                keys[u] += heads[v]
                keys[v] += tails[u]

    leaves, automorphisms = [], []  # the first and the least leaf: (form, colours, path)

    def search(colours, path):
        # individualises each vertex of the first colour class that no found
        # automorphism fixing the path maps a tried one to; returns the depth to go on from
        if len(set(colours)) == n:
            pairs = [(colours[u], colours[v]) for u, v in arcs]
            found = tuple(sorted(pairs if directed else [(min(p), max(p)) for p in pairs]))
            leaves[:] = leaves or [(found, colours, path)] * 2
            for known, labels, known_path in leaves:
                if found == known:  # an automorphism: go back to where the paths part
                    vertex = {c: v for v, c in enumerate(colours)}
                    automorphisms.append([vertex[c] for c in labels])
                    parts = (k for k, (a, b) in enumerate(zip(path, known_path)) if a != b)
                    return next(parts, len(path))
            leaves[1] = min(leaves[1], (found, colours, path))
            return len(path)
        target = min(c for c in colours if colours.count(c) > 1)
        tried: list[int] = []
        for v in [v for v in range(n) if colours[v] == target]:
            orbits = _UnionFind(n)
            for g in automorphisms:
                if all(g[x] == x for x in path):
                    for x in range(n):
                        orbits.union(x, g[x])
            if orbits.find(v) not in {orbits.find(t) for t in tried}:
                tried.append(v)
                back = search(refine([2 * c + (x != v) for x, c in enumerate(colours)]), path + [v])
                if back < len(path):
                    return back
        return len(path)

    search(refine([0] * n), [])
    return leaves[1][0]


def parse_graph_text(text: str) -> MultiGraph:
    """Parse the graph text format: optional ``#`` comments, one ``v <count>``
    line, then ``e <u> <v>`` lines; edge labels follow file order."""
    vertex_count = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if vertex_count is not None:
                raise GraphFormatError(f"line {lineno}: duplicate vertex line")
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'v <count>'")
            try:
                vertex_count = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad vertex count") from None
        elif parts[0] == "e":
            if vertex_count is None:
                raise GraphFormatError(f"line {lineno}: edge before vertex line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                edges.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad endpoint") from None
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if vertex_count is None:
        raise GraphFormatError("missing 'v <count>' line")
    try:
        return build_graph(vertex_count, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_graph_text(graph: MultiGraph) -> str:
    lines = [f"v {graph.vertex_count}"]
    lines.extend(f"e {u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"

"""Independent brute-force oracles, straight from the definitions.

Nothing here uses the library's spanning-forest parametrizations: tensions
come from explicit potential sweeps, flows from full-box sweeps filtered by
the boundary condition at every vertex, and orientation classes from the
pairwise closure of the equivalence relations. Interpolation is the
Lagrange formula in Fraction arithmetic, with no assumption on the grid.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product


def arrows_of(graph, flips):
    out = []
    for pos, (u, v) in enumerate(graph.edges):
        if u != v and flips[pos]:
            out.append((v, u))
        else:
            out.append((u, v))
    return out


def components_of(graph):
    comp = list(range(graph.vertex_count))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(graph.vertex_count)]


def integer_flows(graph, flips, low, high):
    """All integer flows with low <= g(e) <= high, by exhaustive box sweep."""
    arrows = arrows_of(graph, flips)
    return [
        vec for vec in product(range(low, high + 1), repeat=graph.edge_count)
        if _is_flow_vector(graph, arrows, vec)
    ]


def integer_tensions(graph, flips, low, high):
    """All integer tensions in a box, by sweeping vertex potentials."""
    arrows = arrows_of(graph, flips)
    comp = components_of(graph)
    roots = set(comp)
    free = [v for v in range(graph.vertex_count) if v not in roots]
    # potentials on non-root vertices; bound covers any in-box tension
    bound = max(abs(low), abs(high)) * max(1, graph.vertex_count - 1)
    found = set()
    potential = [0] * graph.vertex_count
    for values in product(range(-bound, bound + 1), repeat=len(free)):
        for v, value in zip(free, values):
            potential[v] = value
        vec = tuple(potential[t] - potential[h] for t, h in arrows)
        if all(low <= x <= high for x in vec):
            found.add(vec)
    return sorted(found)


def is_acyclic(graph, flips):
    """No directed circuit: some tension is positive on every edge, and then
    one with values in [1, |V|] exists (potentials from a topological order)."""
    return bool(integer_tensions(graph, flips, 1, graph.vertex_count))


def is_totally_cyclic(graph, flips):
    """Every edge on a directed circuit: some flow is positive on every edge,
    and then one with values in [1, |E|] exists (a sum of circuits)."""
    return bool(integer_flows(graph, flips, 1, graph.edge_count))


def _mixed_radix_encode(parts, moduli):
    value, place = 0, 1
    for part, m in zip(parts, moduli):
        value += (part % m) * place
        place *= m
    return value


def modular_tensions(graph, flips, moduli):
    """Distinct coboundaries of all potentials over the product group."""
    arrows = arrows_of(graph, flips)
    elements = list(product(*(range(m) for m in moduli)))
    found = set()
    for potentials in product(elements, repeat=graph.vertex_count):
        vec = tuple(
            _mixed_radix_encode(
                [a - b for a, b in zip(potentials[t], potentials[h])], moduli
            )
            for t, h in arrows
        )
        found.add(vec)
    return sorted(found)


def modular_flows(graph, flips, moduli):
    """All group-valued edge vectors with vanishing boundary."""
    arrows = arrows_of(graph, flips)
    elements = list(product(*(range(m) for m in moduli)))
    found = []
    width = len(moduli)
    for vec in product(elements, repeat=graph.edge_count):
        net = [[0] * width for _ in range(graph.vertex_count)]
        for (tail, head), value in zip(arrows, vec):
            if tail == head:
                continue
            for k in range(width):
                net[tail][k] += value[k]
                net[head][k] -= value[k]
        if all(x % m == 0 for row in net for x, m in zip(row, moduli)):
            found.append(tuple(_mixed_radix_encode(value, moduli) for value in vec))
    return sorted(found)


def complementary_pairs_int(graph, flips, p, q):
    """Integral complementary (p,q)-pairs: |f|<p, |g|<q, per edge exactly one
    of f(e), g(e) nonzero."""
    tensions = integer_tensions(graph, flips, -(p - 1), p - 1)
    flows = integer_flows(graph, flips, -(q - 1), q - 1)
    pairs = []
    for f in tensions:
        for g in flows:
            if all((a == 0) != (b == 0) for a, b in zip(f, g)):
                pairs.append((f, g))
    return pairs


def complementary_pairs_mod(graph, flips, p, q):
    """Modular complementary pairs over (Z_p, Z_q)."""
    tensions = modular_tensions(graph, flips, (p,))
    flows = modular_flows(graph, flips, (q,))
    pairs = []
    for f in tensions:
        for g in flows:
            if all((a == 0) != (b == 0) for a, b in zip(f, g)):
                pairs.append((f, g))
    return pairs


def nowhere_zero(vectors):
    return [v for v in vectors if all(x != 0 for x in v)]


def count_complementary(tensions, flows):
    """Number of pairs (f, g) with exactly one of f(e), g(e) nonzero on
    every edge: the support of g is the zero set of f."""
    by_support = Counter(tuple(x != 0 for x in g) for g in flows)
    return sum(by_support[tuple(x == 0 for x in f)] for f in tensions)


def reorient(graph, flips, vectors):
    """The integer tensions or flows of the orientation ``flips``, from
    those of the reference orientation: reversing a non-loop edge negates
    the value on it, and a loop keeps its value."""
    signs = [-1 if flips[pos] and u != v else 1 for pos, (u, v) in enumerate(graph.edges)]
    return [tuple(s * x for s, x in zip(signs, vec)) for vec in vectors]


def _is_flow_vector(graph, arrows, vec):
    net = [0] * graph.vertex_count
    for (tail, head), value in zip(arrows, vec):
        if tail != head:
            net[tail] += value
            net[head] -= value
    return all(x == 0 for x in net)


def _is_tension_vector(graph, arrows, vec):
    """Potentials assigned component by component by BFS, with
    f(e) = potential(tail) - potential(head), must fit every edge; a loop
    must carry 0."""
    adj = [[] for _ in range(graph.vertex_count)]
    for (tail, head), value in zip(arrows, vec):
        if tail == head:
            if value:
                return False
            continue
        adj[tail].append((head, -value))
        adj[head].append((tail, value))
    potential = [None] * graph.vertex_count
    for root in range(graph.vertex_count):
        if potential[root] is not None:
            continue
        potential[root] = 0
        queue = [root]
        for v in queue:
            for w, step in adj[v]:
                if potential[w] is None:
                    potential[w] = potential[v] + step
                    queue.append(w)
                elif potential[w] != potential[v] + step:
                    return False
    return True


def circuit_part(graph, flips):
    """Positions of edges on a directed circuit: loops, and the arrows whose
    head reaches their tail."""
    arrows = arrows_of(graph, flips)
    succ = [[] for _ in range(graph.vertex_count)]
    for tail, head in arrows:
        if tail != head:
            succ[tail].append(head)

    def reaches(start, goal):
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            if v == goal:
                return True
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    return frozenset(
        pos for pos, (tail, head) in enumerate(arrows)
        if tail == head or reaches(head, tail)
    )


def circuit_mask_warshall(graph, flips):
    """The circuit part of the orientation with flip mask ``flips`` (position
    pos at bit m-1-pos) as a mask over the same bits. Arrow u->v lies on a
    directed circuit iff v reaches u (a loop makes its vertex reach itself);
    reach sets are vertex bitsets closed by Warshall's algorithm (J. ACM 9,
    1962), built from scratch for every mask."""
    m = graph.edge_count
    arcs = [(1 << (m - 1 - pos), u, v) for pos, (u, v) in enumerate(graph.edges)]
    reach = [0] * graph.vertex_count
    for bit, u, v in arcs:
        if flips & bit:
            reach[v] |= 1 << u
        else:
            reach[u] |= 1 << v
    for k, row in enumerate(reach):
        # step k: whoever reaches k reaches what k reaches
        for i, seen in enumerate(reach):
            if seen >> k & 1:
                reach[i] = seen | row
    circuit = 0
    for bit, u, v in arcs:
        tail, head = (v, u) if flips & bit else (u, v)
        if reach[head] >> tail & 1:
            circuit |= bit
    return circuit


def assignment_order_greedy(free, sums):
    """``free`` in the greedy order of ForestData's ``tension_order`` and
    ``flow_order``; ``sums`` are the sets of free positions of the sums.
    Every step recomputes the cost of every value not yet assigned."""
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


def _is_cycle(graph, subset):
    """A nonempty connected edge set with every vertex of degree 0 or 2 (a
    loop adds 2): a loop, two parallel edges or a simple cycle."""
    degree = Counter()
    comp = {}

    def find(x):
        while comp.setdefault(x, x) != x:
            x = comp[x]
        return x

    for pos in subset:
        u, v = graph.edges[pos]
        degree[u] += 1
        degree[v] += 1
        comp[find(u)] = find(v)
    return bool(subset) and set(degree.values()) == {2} and len({find(v) for v in degree}) == 1


def blocks(graph):
    """Per edge position, the smallest position it shares a block with: two
    edges share a block iff they are equal or some cycle contains both."""
    m = graph.edge_count
    cycles = [
        subset
        for mask in range(1, 1 << m)
        if _is_cycle(graph, subset := [pos for pos in range(m) if mask >> pos & 1])
    ]
    return tuple(
        min([pos] + [other for cycle in cycles if pos in cycle for other in cycle])
        for pos in range(m)
    )


def isomorphic(vertex_count, first, second, directed):
    """Whether some renaming of the vertices 0..vertex_count-1 carries the
    arc multiset ``first`` onto ``second``: as (tail, head) pairs when
    ``directed``, else as unordered pairs. Tries every renaming."""
    def multiset(arcs):
        return Counter(arcs if directed else [frozenset(a) for a in arcs])

    target = multiset(second)
    return any(
        multiset([(perm[u], perm[v]) for u, v in first]) == target
        for perm in permutations(range(vertex_count))
    )


def equivalent_by_definition(graph, first, second, relation):
    """Cut / Eulerian / cut-Eulerian equivalence of two flip vectors: the
    disagreement indicator is a tension / a flow / a tension on the bond part
    of ``first`` plus a flow on its circuit part."""
    arrows = arrows_of(graph, first)
    ind = [int(a != b) for a, b in zip(first, second)]
    if relation == "cut":
        return _is_tension_vector(graph, arrows, ind)
    if relation == "eulerian":
        return _is_flow_vector(graph, arrows, ind)
    circuit = circuit_part(graph, first)
    bond_vec = [0 if pos in circuit else x for pos, x in enumerate(ind)]
    circ_vec = [x if pos in circuit else 0 for pos, x in enumerate(ind)]
    return (_is_tension_vector(graph, arrows, bond_vec)
            and _is_flow_vector(graph, arrows, circ_vec))


def pairwise_classes(graph, relation, filter):
    """Classes of the filtered orientations (flip vectors) under the
    closure of pairwise equivalence, ordered by their lex-smallest member,
    members in lex order. ``filter`` is "all", "acyclic" (empty circuit
    part) or "totally_cyclic" (every edge on a directed circuit)."""
    members = []
    for flips in product((0, 1), repeat=graph.edge_count):
        size = len(circuit_part(graph, flips))
        if (filter == "all" or (filter == "acyclic" and size == 0)
                or (filter == "totally_cyclic" and size == graph.edge_count)):
            members.append(flips)
    root = list(range(len(members)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            ri, rj = find(i), find(j)
            if ri != rj and equivalent_by_definition(graph, members[i], members[j], relation):
                root[max(ri, rj)] = min(ri, rj)
    grouped = {}
    for i, flips in enumerate(members):
        grouped.setdefault(find(i), []).append(flips)
    return tuple(sorted(tuple(cls) for cls in grouped.values()))


def lagrange_basis(points):
    """Coefficient lists (ascending powers) of the Lagrange basis polynomials
    through the given distinct nodes, in Fraction arithmetic."""
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
        basis.append([c / denom for c in coeffs])
    return basis


def lagrange_interpolate(values, x_points, y_points):
    """Monomial coefficients {(i, j): Fraction}, zeros left out, of the
    polynomial through values[a][b] at (x_points[a], y_points[b]): the sum of
    values times products of Lagrange basis polynomials."""
    x_basis, y_basis = lagrange_basis(x_points), lagrange_basis(y_points)
    coeffs = {}
    for a, row in enumerate(values):
        for b, value in enumerate(row):
            for i, xc in enumerate(x_basis[a]):
                for j, yc in enumerate(y_basis[b]):
                    coeffs[(i, j)] = coeffs.get((i, j), Fraction(0)) + value * xc * yc
    return {key: c for key, c in coeffs.items() if c}


def _multiply(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def compose(coeffs, x_poly, y_poly):
    """{(i, j): Fraction}, zeros left out, of P(x_poly, y_poly) for P with
    coefficients ``coeffs`` and x_poly, y_poly given the same way: each term
    c * x_poly^i * y_poly^j multiplied out factor by factor in Fraction
    arithmetic. Constant x_poly and y_poly give P's value at {(0, 0): value}."""
    out = {}
    for (i, j), c in coeffs.items():
        term = {(0, 0): Fraction(c)}
        for factor in [x_poly] * i + [y_poly] * j:
            term = _multiply(term, factor)
        for key, value in term.items():
            out[key] = out.get(key, 0) + value
    return {key: Fraction(value) for key, value in out.items() if value}


def add(*coeff_maps):
    """{(i, j): Fraction}, zeros left out, of the sum of the polynomials."""
    out = {}
    for coeffs in coeff_maps:
        for key, c in coeffs.items():
            out[key] = out.get(key, 0) + Fraction(c)
    return {key: c for key, c in out.items() if c}
